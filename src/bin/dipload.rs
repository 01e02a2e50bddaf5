//! `dipload` — the scenario engine, as a command.
//!
//! Each `--scenario SPEC` runs one scenario and prints its report as one
//! JSON line, in the order given. SPEC is the compact
//! `family:key=value,...` form from `dip_scenario` (e.g.
//! `partition:k=4,window=400000,requests=24,seed=7`); a report carries
//! per-phase, per-protocol delivery fractions, drop taxonomies, PIT/CS
//! occupancy, and reconvergence times. Fully deterministic: same SPEC,
//! same bytes.
//!
//! ```text
//! usage: dipload --scenario family:key=value,... [--scenario ...]
//! ```
//!
//! `BENCH_scenarios.json` is this command's output for the partition
//! sweep and the 180-router fat-tree (see README).

fn usage(err: &str) -> ! {
    eprintln!("dipload: {err}");
    eprintln!("usage: dipload --scenario family:key=value,... [--scenario ...]");
    std::process::exit(2);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut specs = Vec::new();
    let mut args = argv.iter();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--scenario" => {
                let spec = args.next().unwrap_or_else(|| usage("--scenario needs a value"));
                specs.push(dip::scenario::ScenarioSpec::parse(spec).unwrap_or_else(|e| usage(&e)));
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    if specs.is_empty() {
        usage("no --scenario given");
    }
    for spec in &specs {
        println!("{}", dip::scenario::run_scenario(spec).to_json());
    }
}
