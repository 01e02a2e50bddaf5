//! Command line of the two benchmark binaries (normally invoked by
//! `run.py`, which builds them first).

use crate::gen::WORKLOADS;
use std::path::PathBuf;

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: &'static str,
    pub seed: u64,
    /// Seconds spent measuring (closed-loop windows plus open loop).
    pub seconds: u64,
    /// Where `result-*.json` and `trace-*.json` go.
    pub out_dir: PathBuf,
    /// Recorded in the output; `run.py` passes `git rev-parse HEAD`.
    pub git_rev: String,
}

const USAGE: &str = "usage: dipbench --workload NAME [--seed N] [--seconds N] [--out-dir DIR] \
                     [--git-rev REV]\n  workloads: ip_forward ip_churn opt_secure ndn_cache mixed_six";

fn fail(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}

impl Args {
    pub fn parse() -> Args {
        let mut workload = None;
        let mut args = Args {
            workload: "",
            seed: 7,
            seconds: 15,
            out_dir: PathBuf::from("benchmark/out"),
            git_rev: "unknown".into(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let mut value = || it.next().unwrap_or_else(|| fail(&format!("{flag} needs a value")));
            match flag.as_str() {
                "--workload" => workload = Some(value()),
                "--seed" => args.seed = value().parse().unwrap_or_else(|_| fail("bad --seed")),
                "--seconds" => {
                    args.seconds = value().parse().unwrap_or_else(|_| fail("bad --seconds"))
                }
                "--out-dir" => args.out_dir = PathBuf::from(value()),
                "--git-rev" => args.git_rev = value(),
                other => fail(&format!("unknown argument {other}")),
            }
        }
        let workload = workload.unwrap_or_else(|| fail("--workload is required"));
        args.workload = WORKLOADS
            .iter()
            .copied()
            .find(|w| *w == workload)
            .unwrap_or_else(|| fail(&format!("unknown workload {workload}")));
        if !(1..=60).contains(&args.seconds) {
            fail("--seconds must be 1..=60");
        }
        args
    }
}
