#!/usr/bin/env bash
# Repo-wide lint + test gate. Run before every push; CI runs the same.
#
#   fmt     — formatting matches rustfmt.toml
#   clippy  — all targets, warnings are errors
#   benches — every crates/bench target compiles (they are run by hand,
#             so an ordinary test run never builds them)
#   test    — the full workspace suite, offline, once: determinism,
#             accounting, model check, control plane, dipopt equivalence,
#             diplint's own contract, workload, routes and scenarios all
#             run here and nowhere else
#   oracle  — the 1M-route oracle in release (debug runs it at 20k)
#   lint    — the diplint binary over the real repo (RouteSnapshot,
#             quantile, DropReason, unsafe and link-admin placement)
#   mst     — dipload's modeled MST for every protocol regenerates
#             BENCH_workload.json byte-identical (a PISA-model behaviour
#             pin, not a speed number)
#   scn     — a release `dipload --scenario` smoke on a small fat-tree and
#             the committed BENCH_scenarios.json field pins
#   stat    — dipstat smoke: per-program dipopt facts for all six
#             programs, including the XIA hot-path rewrite
#   bench   — the stand-alone benchmark (the one measurement of speed)
#             still builds against the crates, passes its own correctness
#             pre-check traced and untraced on the NDN tables and on the
#             OPT crypto path, and nothing under its paths was edited
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
cargo build -q --release --bin diplint --bin dipload --bin dipstat --offline
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

# Fails unless every field in "$@" occurs in file $1.
require_fields() {
    local file=$1
    shift
    for field in "$@"; do
        if ! grep -q "$field" "$file"; then
            echo "error: $file missing $field" >&2
            exit 1
        fi
    done
}

echo "== scenarios: dipload --scenario smoke (small fat-tree)"
./target/release/dipload --scenario partition:k=4,window=200000,requests=12,seed=7 \
    > /tmp/dipload_scenario.json
require_fields /tmp/dipload_scenario.json '"scenario":"partition_k4_w200000"' \
    '"topology":"fat_tree(k=4)"' '"converged":true' '"name":"outage"' \
    '"partition_window_ns":200000' '"protocol":"ndn"' '"delivery_fraction":' \
    '"reconvergence_ns":' '"identity_ok":true' '"fingerprint":'

echo "== scenarios: BENCH_scenarios.json fields"
# Regenerated by `cargo bench -p dip-bench --bench scenarios >
# BENCH_scenarios.json`, which asserts NDN strictly out-delivers IPv4 at
# every nonzero window.
require_fields BENCH_scenarios.json '"bench":"scenario_partition"' '"window_ns":0' \
    '"window_ns":1200000' '"ndn_delivery_fraction":' '"ipv4_delivery_fraction":' \
    '"reconvergence_ns":' '"bench":"scenario_fat_tree"' '"routers":180' \
    '"opt_delivery_fraction":' '"legacy_v4_delivery_fraction":' '"identity_ok":1' \
    '"fingerprint":'

echo "== dipstat smoke (per-program dipopt facts)"
./target/release/dipstat > /tmp/dipstat_smoke.json
lines=$(wc -l < /tmp/dipstat_smoke.json)
if [ "$lines" -ne 6 ]; then
    echo "error: expected 6 dipstat lines, got $lines" >&2
    exit 1
fi
if ! grep '"program":"xia"' /tmp/dipstat_smoke.json \
        | grep -q 'eliminate_redundant_parse'; then
    echo "error: dipstat lost the XIA dag-parse elimination" >&2
    exit 1
fi

echo "== bench: stand-alone benchmark builds and passes its pre-check"
# A renamed crate item, a new public config field or a changed dependency
# table breaks benchmark/ without failing anything above. run.py exits
# non-zero when the pre-check, the accounting identity or the generator
# schedule fails.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for workload in ndn_cache opt_secure; do
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
