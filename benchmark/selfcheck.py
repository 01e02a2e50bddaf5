#!/usr/bin/env python3
"""Checks the benchmark against itself; its output is SELFCHECK.md.

    python3 benchmark/selfcheck.py > benchmark/SELFCHECK.md

Part 1 runs the full untraced set twice with the default seed (the second
time with the workload order reversed) and once more with seed 11, and
prints, per metric x workload, the two values, their ratio and the bound.
It exits non-zero when a pair of same-seed runs of the same code disagrees
beyond the bound BENCHMARK.json fixes, or when any run reports a failure.

Part 2 (`--spread N`, default 10) runs every workload N more times, each with
another seed, and prints each end-to-end metric's spread: the distance
between the first and third quartile of the N values as a share of their
median. A spread above its bound also fails (`setup_s` excepted, as in the
contract). The bounds in BENCHMARK.json were set from this table.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    last = done.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    result["exit"] = done.returncode
    print("ran %s seed %d: exit %d" % (workload, seed, done.returncode), file=sys.stderr)
    return result


def value(result, metric):
    return result["metrics"][metric]["value"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spread", type=int, default=10, help="runs per workload in part 2 (0 skips it)")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    failed = []

    first = {w: run(w, 7, seconds) for w in workloads}
    second = {w: run(w, 7, seconds) for w in reversed(workloads)}
    third = {w: run(w, 11, seconds) for w in workloads}

    print("# Benchmark self-check\n")
    print("Written by `python3 benchmark/selfcheck.py`; %d s of measuring per run.\n" % seconds)
    print("## Two sets of runs of the same code (seed 7; second set in reverse order), and seed 11\n")
    print("| workload | metric | set 1 | set 2 | set 2 / set 1 | bound | agree | seed 11 | seed 11 / set 1 |")
    print("|---|---|---:|---:|---:|---:|---|---:|---:|")
    for w in workloads:
        for m in metrics:
            a, b, c = (value(r[w], m["name"]) for r in (first, second, third))
            ok = abs(b / a - 1.0) <= m["bound"]
            if not ok:
                failed.append("%s %s: sets differ by %.1f %%" % (w, m["name"], 100 * abs(b / a - 1)))
            print("| %s | %s | %.4f | %.4f | %.4f | %.2f | %s | %.4f | %.4f |"
                  % (w, m["name"], a, b, b / a, m["bound"], "yes" if ok else "NO", c, c / a))
    print("\n| workload | set | attempted | failed | correct |")
    print("|---|---|---:|---:|---|")
    for label, results in (("1", first), ("2", second), ("seed 11", third)):
        for w in workloads:
            r = results[w]
            if not r["correct"] or r["failed"] or r["exit"]:
                failed.append("%s (set %s): incorrect, %d failures, exit %d"
                              % (w, label, r["failed"], r["exit"]))
            print("| %s | %s | %d | %d | %s |" % (w, label, r["attempted"], r["failed"], r["correct"]))

    if args.spread:
        print("\n## Run-to-run spread over %d runs, each with another seed\n" % args.spread)
        print("Spread = (third quartile - first quartile) / median, by `statistics.quantiles(values, n=4)`.\n")
        print("| workload | metric | median | spread | bound | spread / bound |")
        print("|---|---|---:|---:|---:|---:|")
        raw = []
        for w in workloads:
            runs = [run(w, 100 + i, seconds) for i in range(args.spread)]
            for r in runs:
                if not r["correct"] or r["exit"]:
                    failed.append("%s (spread run): incorrect" % w)
            for m in metrics:
                values = [value(r, m["name"]) for r in runs]
                q = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                spread = (q[2] - q[0]) / med
                if spread > m["bound"] and m["name"] != "setup_s":
                    failed.append("%s %s: spread %.3f above bound" % (w, m["name"], spread))
                print("| %s | %s | %.4f | %.4f | %.2f | %.2f |"
                      % (w, m["name"], med, spread, m["bound"], spread / m["bound"]))
                raw.append("| %s | %s | %s |" % (w, m["name"], " ".join("%.4g" % v for v in values)))
        print("\nThe values behind the spreads, in run order (seeds 100, 101, ...):\n")
        print("| workload | metric | values |\n|---|---|---|")
        print("\n".join(raw))

    print("\n## Verdict\n")
    if failed:
        print("FAILED:\n")
        for f in failed:
            print("- " + f)
        sys.exit(1)
    print("All pairs agree within their bounds; every run reported `fail_frac` 0.")


if __name__ == "__main__":
    main()
