//! Output: one line per metric for people, one JSON object (the last line
//! of stdout) for the driver, and a fuller JSON file under `out/`.

use crate::cli::Args;
use std::fmt::Write as _;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarises (windows, probes, spans, calls).
    pub samples: u64,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: u64) -> Self {
        // JSON has no NaN or infinity; a metric with no samples reads 0.
        Metric { name, value: if value.is_finite() { value } else { 0.0 }, unit, samples }
    }
}

/// What a run found, beyond its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Why the run is not a valid measurement (empty when it is).
    pub problems: Vec<String>,
    /// Free-form `key: value` context lines (windows, quartiles, rates).
    pub notes: Vec<(String, String)>,
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path).map(|s| s.trim().to_string()).unwrap_or_default()
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Prints the run and writes `result-<workload>-trace<0|1>.json`. Returns
/// the process exit code: non-zero when an output was wrong or the run was
/// not a valid measurement.
pub fn emit(args: &Args, traced: bool, metrics: &[Metric], outcome: &Outcome) -> i32 {
    let correct = outcome.failed == 0 && outcome.problems.is_empty();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let host = read_trimmed("/proc/sys/kernel/hostname");
    let cpu = cpu_model();
    println!(
        "# dipbench workload={} trace={} seed={} seconds={} host={} nproc={} cpu=\"{}\" git={}",
        args.workload,
        u8::from(traced),
        args.seed,
        args.seconds,
        host,
        nproc,
        cpu,
        args.git_rev
    );
    for (k, v) in &outcome.notes {
        println!("# {k}: {v}");
    }
    for m in metrics {
        println!("{:<34} {:>18.4} {:<10} samples={}", m.name, m.value, m.unit, m.samples);
    }
    let fail_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    println!(
        "{:<34} {:>18.9} {:<10} samples={}",
        "fail_frac", fail_frac, "ratio", outcome.attempted
    );
    for p in &outcome.problems {
        println!("# INVALID: {p}");
    }

    let metric_obj = |with_samples: bool| -> String {
        let mut s = String::from("{");
        for (i, m) in metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            write!(
                s,
                "{}: {{\"value\": {}, \"unit\": {}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
            .expect("write to String");
            if with_samples {
                write!(s, ", \"samples\": {}", m.samples).expect("write to String");
            }
            s.push('}');
        }
        s.push('}');
        s
    };

    let mut full = String::from("{");
    write!(
        full,
        "\"workload\": {}, \"trace\": {}, \"seed\": {}, \"seconds\": {}, \"host\": {}, \
         \"nproc\": {}, \"cpu\": {}, \"git_rev\": {}, \"correct\": {}, \"attempted\": {}, \
         \"failed\": {}, \"fail_frac\": {}, \"problems\": [{}], \"notes\": {{{}}}, \"metrics\": {}, \
         \"claim\": null}}",
        json_str(args.workload),
        u8::from(traced),
        args.seed,
        args.seconds,
        json_str(&host),
        nproc,
        json_str(&cpu),
        json_str(&args.git_rev),
        correct,
        outcome.attempted,
        outcome.failed,
        fail_frac,
        outcome.problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", "),
        outcome
            .notes
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect::<Vec<_>>()
            .join(", "),
        metric_obj(true),
    )
    .expect("write to String");
    let path =
        args.out_dir.join(format!("result-{}-trace{}.json", args.workload, u8::from(traced)));
    if let Err(e) =
        std::fs::create_dir_all(&args.out_dir).and_then(|()| std::fs::write(&path, full))
    {
        eprintln!("cannot write {}: {e}", path.display());
        return 1;
    }

    // The driver's line: exactly these four keys, last on stdout.
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        correct,
        outcome.attempted.max(1),
        outcome.failed,
        metric_obj(false)
    );
    i32::from(!correct)
}
