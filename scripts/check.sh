#!/usr/bin/env bash
# Repo-wide lint + test gate. Run before every push; CI runs the same.
#
#   fmt     — formatting matches rustfmt.toml
#   clippy  — all targets, warnings are errors
#   doc     — rustdoc over the workspace, warnings are errors (a broken or
#             private intra-doc link fails here)
#   test    — the full workspace suite, offline, once: determinism,
#             accounting, model check, control plane, dipopt equivalence,
#             the reference-model differential, diplint's own contract,
#             workload, routes and scenarios, the paper's results
#             (tests/paper_conformance.rs: Fig. 2's PISA cells, Table 2,
#             E3–E11's outcome tables), and the pins on dipstat's output,
#             the small fat-tree scenario report, BENCH_scenarios.json's
#             fields and the seeded traces' PISA prices all run here and
#             nowhere else; then dip-crypto's own tests again in release
#             (the kernel-vs-byte-model differential and the known-answer
#             digests, where the AES-NI intrinsics actually inline)
#   oracle  — the 1M-route oracle and the route levels/bytes ratchet in
#             release (debug runs both at 20k)
#   lint    — the diplint binary over the real repo (RouteSnapshot,
#             quantile, DropReason, unsafe and link-admin placement)
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

echo "== cargo doc (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "== cargo test -q --workspace"
cargo test -q --workspace --offline
cargo test -q -p dip-crypto --release --offline

echo "== routes: 1M-route oracle and levels/bytes ratchet (release)"
cargo test -q -p dip-routes --release --offline --test million_oracle \
    million_route_oracle_v4_v6
cargo test -q -p dip-routes --release --offline --test million_oracle \
    route_levels_and_bytes_ratchet

echo "== diplint (repo invariants)"
cargo build -q --release --bin diplint --offline
./target/release/diplint

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
