#!/usr/bin/env bash
# Repo-wide lint + test gate. Run before every push; CI runs the same.
#
#   fmt     — formatting matches rustfmt.toml
#   clippy  — all targets, warnings are errors
#   benches — every crates/bench target compiles (they are run by hand,
#             so an ordinary test run never builds them)
#   test    — the full workspace suite, offline, once: determinism,
#             accounting, model check, control plane, dipopt equivalence,
#             the reference-model differential, diplint's own contract,
#             workload, routes and scenarios, and the pins on dipstat's
#             output, the small fat-tree scenario report and
#             BENCH_scenarios.json's fields all run here and nowhere else
#   oracle  — the 1M-route oracle in release (debug runs it at 20k)
#   lint    — the diplint binary over the real repo (RouteSnapshot,
#             quantile, DropReason, unsafe and link-admin placement)
#   mst     — dipload's modeled MST for every protocol regenerates
#             BENCH_workload.json byte-identical (a PISA-model behaviour
#             pin, not a speed number)
#   bench  — the stand-alone benchmark (the one measurement of speed)
#             still builds against the crates, passes its own correctness
#             pre-check traced and untraced on the IP route walk, the NDN
#             tables, the OPT crypto path, the six-class mix (whose
#             never-seen programs miss the program cache's recent-program
#             ring) and the route storm (whose epoch swaps land between the
#             workers' per-batch telemetry flushes), and nothing under its
#             paths was edited
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "== cargo build --benches"
cargo build --benches --offline

echo "== cargo test -q --workspace"
cargo test -q --workspace --offline

echo "== routes: 1M-route oracle (release)"
cargo test -q -p dip-routes --release --offline --test million_oracle \
    million_route_oracle_v4_v6

echo "== diplint (repo invariants)"
cargo build -q --release --bin diplint --bin dipload --offline
./target/release/diplint

echo "== dipload MST pin (all protocols -> BENCH_workload.json)"
# Seeded and modeled, so the trace and content hashes and the modeled
# latencies are a behaviour pin: a change that moves any of them must say
# so by committing the regenerated file.
./target/release/dipload --protocol all --seed 7 --packets 512 --queue 64 --iters 10 \
    > BENCH_workload.json
if ! git diff --exit-code -- BENCH_workload.json; then
    echo "error: the MST smoke no longer reproduces the committed BENCH_workload.json" >&2
    exit 1
fi

echo "== bench: stand-alone benchmark builds and passes its pre-check"
# A renamed crate item, a new public config field or a changed dependency
# table breaks benchmark/ without failing anything above. run.py exits
# non-zero when the pre-check, the accounting identity or the generator
# schedule fails.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for workload in ip_forward ndn_cache opt_secure mixed_six ip_churn; do
    for trace in 0 1; do
        python3 benchmark/run.py --workload "$workload" --trace "$trace" --seconds 3 \
            > "/tmp/dipbench_smoke_${workload}_$trace.txt"
    done
done
if ! git diff --quiet -- benchmark BENCHMARK.json; then
    echo "error: benchmark/ or BENCHMARK.json differs from the index" >&2
    exit 1
fi

echo "check.sh: all gates passed"
