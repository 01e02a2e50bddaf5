//! `dipload` — deterministic load generation and MST search, as a command.
//!
//! For each requested protocol (or `all` six: the five paper protocols
//! plus NDN+OPT) it runs the open-loop max-sustainable-throughput search
//! and prints one `dip_bench` JSON line:
//!
//! ```text
//! {"bench":"workload_mst","protocol":"ndn","seed":7,...,
//!  "offered_pps":...,"mst_pps":...,"p50_ns":...,"p99_ns":...,
//!  "drop_frac":...,"content_hash":"..."}
//! ```
//!
//! Everything is seeded: re-running with the same arguments reproduces
//! the identical MST, trial sequence, and trace hashes. The search runs
//! one router behind a virtual-time queue priced by the PISA pipeline
//! model, so the MST is a behaviour pin of that model, not a measure of
//! this software's speed (`"measurement":"modeled"` on every line says
//! so); `python3 benchmark/run.py` measures the threaded dataplane.
//!
//! ```text
//! usage: dipload [--protocol all|ipv4,ndn,...] [--seed N]
//!                [--packets N] [--iters N]
//!                [--lo PPS] [--hi PPS] [--queue N] [--p99-ns N] [--drop-frac F]
//!                [--arrival uniform|poisson|onoff] [--churn UPS]
//! ```
//!
//! `--churn UPS` runs every trial under a seeded route-update storm of
//! `UPS` updates per virtual second (see `dip_workload::churn`; 0 means
//! no storm); the emitted line carries `churn_ups`, `churn_deltas`, and
//! `churn_epoch_swaps` from the MST trial.
//!
//! `--scenario SPEC` switches to the scenario engine instead: SPEC is the
//! compact `family:key=value,...` form from `dip_scenario` (e.g.
//! `partition:k=4,window=400000,requests=24,seed=7`), and the output is
//! one self-contained JSON report with per-phase, per-protocol delivery
//! fractions, drop taxonomies, PIT/CS occupancy, and reconvergence
//! times. Fully deterministic: same SPEC, same bytes.

use dip::workload::{
    find_mst, ArrivalModel, ChurnSpec, Mix, MstConfig, OpenLoopConfig, TrafficClass, WorkloadSpec,
};
use dip_bench::JsonLine;

struct Args {
    protocols: Vec<TrafficClass>,
    seed: u64,
    packets: usize,
    iters: usize,
    lo: u64,
    hi: u64,
    queue: usize,
    p99_ns: u64,
    drop_frac: f64,
    arrival: ArrivalModel,
    churn_ups: Option<u64>,
    scenario: Option<String>,
}

fn usage(err: &str) -> ! {
    eprintln!("dipload: {err}");
    eprintln!(
        "usage: dipload [--protocol all|ipv4,ipv6,ndn,opt,xia,ndn_opt] [--seed N]\n\
         \u{20}              [--packets N] [--iters N] [--lo PPS] [--hi PPS] [--queue N]\n\
         \u{20}              [--p99-ns N] [--drop-frac F]\n\
         \u{20}              [--arrival uniform|poisson|onoff] [--churn UPS]\n\
         \u{20}              [--scenario family:key=value,...]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        protocols: TrafficClass::ALL.to_vec(),
        seed: 7,
        packets: 2048,
        iters: 18,
        lo: 1_000,
        hi: 1_000_000_000,
        queue: 1024,
        p99_ns: 1_000_000,
        drop_frac: 0.001,
        arrival: ArrivalModel::Poisson,
        churn_ups: None,
        scenario: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        let mut value = || -> String {
            i += 1;
            argv.get(i).cloned().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag {
            "--protocol" => {
                let v = value();
                if v != "all" {
                    args.protocols = v
                        .split(',')
                        .map(|s| {
                            TrafficClass::parse(s)
                                .unwrap_or_else(|| usage(&format!("unknown protocol {s:?}")))
                        })
                        .collect();
                }
            }
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("bad --seed")),
            "--packets" => {
                args.packets = value().parse().unwrap_or_else(|_| usage("bad --packets"))
            }
            "--iters" => args.iters = value().parse().unwrap_or_else(|_| usage("bad --iters")),
            "--lo" => args.lo = value().parse().unwrap_or_else(|_| usage("bad --lo")),
            "--hi" => args.hi = value().parse().unwrap_or_else(|_| usage("bad --hi")),
            "--queue" => args.queue = value().parse().unwrap_or_else(|_| usage("bad --queue")),
            "--p99-ns" => args.p99_ns = value().parse().unwrap_or_else(|_| usage("bad --p99-ns")),
            "--drop-frac" => {
                args.drop_frac = value().parse().unwrap_or_else(|_| usage("bad --drop-frac"))
            }
            "--churn" => {
                args.churn_ups = Some(value().parse().unwrap_or_else(|_| usage("bad --churn")))
            }
            "--scenario" => args.scenario = Some(value()),
            "--arrival" => {
                args.arrival = match value().as_str() {
                    "uniform" => ArrivalModel::Uniform,
                    "poisson" => ArrivalModel::Poisson,
                    "onoff" => ArrivalModel::OnOff { mean_on_ns: 100_000, mean_off_ns: 300_000 },
                    other => usage(&format!("unknown arrival model {other:?}")),
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
        i += 1;
    }
    args
}

fn main() {
    let args = parse_args();
    match &args.scenario {
        Some(spec) => run_scenario_cli(spec),
        None => run_mst(&args),
    }
}

/// The scenario engine: generated topology, real control plane, scripted
/// disruptions, one deterministic JSON report on stdout.
fn run_scenario_cli(spec: &str) {
    let spec = dip::scenario::ScenarioSpec::parse(spec).unwrap_or_else(|e| usage(&e));
    println!("{}", dip::scenario::run_scenario(&spec).to_json());
}

/// The MST search per protocol: deterministic queue model over the
/// Tofino service costs, emitted with `"measurement":"modeled"`.
fn run_mst(args: &Args) {
    let cfg = MstConfig {
        slo: dip::workload::Slo { p99_ns: args.p99_ns, max_drop_frac: args.drop_frac },
        open_loop: OpenLoopConfig {
            queue_capacity: args.queue,
            churn: args.churn_ups.map(|rate_ups| ChurnSpec { rate_ups }),
        },
        packets_per_trial: args.packets,
        lo_pps: args.lo,
        hi_pps: args.hi,
        max_iters: args.iters,
    };
    for class in &args.protocols {
        let spec = WorkloadSpec {
            seed: args.seed,
            mix: Mix::single(*class),
            arrival: args.arrival,
            ..Default::default()
        };
        let result = find_mst(&spec, &cfg);
        let mut line = JsonLine::new("workload_mst")
            .str("protocol", class.label())
            .u64("seed", args.seed)
            .str("engine", "router")
            .str("measurement", "modeled")
            .u64("workers", 1)
            .u64("trials", result.trials.len() as u64)
            .u64("churn_ups", args.churn_ups.unwrap_or(0))
            .u64("mst_pps", result.mst_pps);
        match result.mst_trial() {
            Some(t) => {
                line = line
                    .u64("offered_pps", t.offered_pps)
                    .u64("p50_ns", t.p50_ns)
                    .u64("p99_ns", t.p99_ns)
                    .f64p("drop_frac", t.drop_frac, 6)
                    .u64("queue_full", t.queue_full)
                    .u64("churn_deltas", t.churn_deltas)
                    .u64("churn_epoch_swaps", t.churn_epoch_swaps)
                    .str("trace_hash", &format!("{:016x}", t.trace_hash));
            }
            None => {
                line = line
                    .u64("offered_pps", 0)
                    .u64("p50_ns", 0)
                    .u64("p99_ns", 0)
                    .f64p("drop_frac", 1.0, 6)
                    .u64("queue_full", 0)
                    .str("trace_hash", "none");
            }
        }
        line.str("content_hash", &format!("{:016x}", result.content_hash)).emit();
    }
}
