#!/usr/bin/env python3
"""The one command of the repo benchmark.

    python3 benchmark/run.py                       # all workloads, untraced then traced
    python3 benchmark/run.py --workload ip_forward --seed 7 --seconds 15 --trace 0

Builds the stand-alone `benchmark/` package (offline, release) and runs one
binary per workload and mode: `dipbench` for the end-to-end metrics
(`--trace 0`), `dipbench-traced` for the per-layer ledger (`--trace 1`).
Every metric is printed by name with its unit and sample count; the last line
of stdout is the JSON object BENCHMARK.json's contract asks for. README.md
explains the metrics and the workloads.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["ip_forward", "ip_churn", "opt_secure", "ndn_cache", "mixed_six"]


def default_seconds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return int(json.load(f)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 15


def git_rev():
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build():
    """Builds both binaries; returns the directory they are in."""
    target = os.environ.get("CARGO_TARGET_DIR")
    target = os.path.abspath(target) if target else os.path.join(HERE, "target")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    built = subprocess.run(cmd, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit("benchmark: cargo build failed (exit %d)" % built.returncode)
    return os.path.join(target, "release")


def run_one(bin_dir, workload, seed, seconds, trace, rev):
    """Runs one workload in one mode, relays its stdout, returns (code, last line)."""
    binary = os.path.join(bin_dir, "dipbench-traced" if trace else "dipbench")
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--out-dir", os.path.join(HERE, "out"), "--git-rev", rev]
    # Fixed malloc thresholds: glibc otherwise moves them as big blocks are
    # freed, and `peak_rss_mb` then depends on the order frees happened in.
    env = dict(os.environ, MALLOC_MMAP_THRESHOLD_="131072", MALLOC_TRIM_THRESHOLD_="131072")
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    return done.returncode, (lines[-1] if lines else "")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, help="default: all five, both modes")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=int, default=default_seconds(),
                    help="seconds spent measuring per run (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=[0, 1],
                    help="0: end-to-end metrics; 1: per-layer metrics (default: both)")
    args = ap.parse_args()

    bin_dir = build()
    rev = git_rev()
    workloads = [args.workload] if args.workload else WORKLOADS
    modes = [args.trace] if args.trace is not None else [0, 1]
    worst, results = 0, []
    for workload in workloads:
        for trace in modes:
            code, last = run_one(bin_dir, workload, args.seed, args.seconds, trace, rev)
            worst = max(worst, code)
            try:
                results.append(dict(json.loads(last), workload=workload, trace=trace))
            except ValueError:
                worst = max(worst, 1)
    if len(workloads) * len(modes) > 1:
        # A summary over several runs; this benchmark claims no gain.
        print(json.dumps({"seed": args.seed, "seconds": args.seconds, "git_rev": rev,
                          "runs": results, "claim": None}))
    sys.exit(worst)


if __name__ == "__main__":
    main()
