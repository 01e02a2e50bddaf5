#!/usr/bin/env bash
# Repo-wide lint + test gate. Run before every push; CI runs the same.
#
#   fmt     — formatting matches rustfmt.toml
#   clippy  — all targets, warnings are errors
#   benches — every benchmark harness compiles (they are exercised
#             manually, so an ordinary test run never builds them)
#   test    — the full workspace suite, offline
#   determ  — the dataplane determinism property explicitly, so a failure
#             is named in CI output rather than buried in the suite
#   telem   — the telemetry substrate, the ring drop/delivery/occupancy
#             balance, and the PIT expiry fixes by name
#   model   — the exhaustive-interleaving model check of the SPSC ring
#             and the epoch-swap cell (every 2-thread schedule up to the
#             bounded op count)
#   ctrl    — the control-plane reconvergence scenario by name
#   equiv   — the dipopt equivalence gate: optimized execution must be
#             byte-identical to interpreted execution for all six
#             protocol programs, and the must-not-optimize corpus must
#             stay unoptimized
#   lint    — diplint, the repo-invariant linter (replaces the old grep
#             gates): RouteSnapshot construction pinned to the control
#             plane, quantile math and the DropReason taxonomy pinned to
#             dip-telemetry, unsafe code pinned to ring.rs with SAFETY
#             justifications, link administration pinned to the sim and
#             scenario crates
#   load    — the workload harness: build dipload, run the workload
#             determinism suite by name, MST smoke across every protocol
#             regenerating BENCH_workload.json, which must come out
#             byte-identical to the committed file (a behaviour pin)
#   scale   — the wall-clock measurement engine: accounting identity and
#             thread-count invariance by name, a dipload wallclock smoke
#             at 1 and 2 workers, and the committed BENCH_scaling.json
#             field pins (the file itself is regenerated by `cargo bench
#             -p dip-bench --bench scaling`)
#   routes  — the compiled forwarding state: the dip-routes suite, the
#             delta-equivalence property test by name, the 1M-route
#             oracle in release (debug would take minutes), the churn
#             identity smoke by name, and a threaded dipload-under-churn
#             smoke asserting honest workers/churn JSON
#   scn     — the scenario subsystem: byte determinism of full scenario
#             runs by name, the NDN-vs-IPv4 partition divergence by
#             name, a release `dipload --scenario` smoke on a small
#             fat-tree, and the committed BENCH_scenarios.json field
#             pins (the file itself is regenerated by `cargo bench -p
#             dip-bench --bench scenarios > BENCH_scenarios.json`)
#   stat    — dipstat smoke: per-program dipopt facts for all six
#             programs, including the XIA hot-path rewrite
#   bench   — the stand-alone benchmark package (its own lock file, so
#             no workspace build or test compiles it) still builds
#             against the crates, passes its own correctness pre-check
#             on the workload that touches the most state, traced and
#             untraced, and nothing under its paths was edited
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets --offline -- -D warnings

echo "== cargo build --benches"
cargo build --benches --offline

echo "== cargo test -q"
cargo test -q --workspace --offline

echo "== cargo test --test dataplane_determinism"
cargo test -q --test dataplane_determinism --offline

echo "== telemetry + accounting gates (named)"
cargo test -q -p dip-telemetry --offline
cargo test -q -p dip-dataplane --offline \
    ring::tests::drops_plus_deliveries_plus_occupancy_balance
cargo test -q -p dip-dataplane --offline \
    ring::tests::cross_thread_balance_under_drop_pressure
cargo test -q -p dip-dataplane --offline \
    runtime::tests::registry_accounts_for_every_submitted_packet
cargo test -q -p dip-tables --offline \
    pit::tests::expired_entries_do_not_block_inserts
cargo test -q -p dip-tables --offline \
    pit::tests::consume_evicts_expired_entry_and_counts_it
cargo test -q --test adversarial_inputs --offline

echo "== concurrency model check gate (named)"
cargo test -q -p dip-dataplane --test concurrency_model --offline

echo "== control-plane reconvergence gate (named)"
cargo test -q --test controlplane --offline
cargo test -q -p dip-controlplane --offline

echo "== dipopt equivalence gate (named)"
cargo test -q --test equivalence --offline

echo "== diplint (repo invariants)"
# Replaces the old grep gates (RouteSnapshot pinned to the control
# plane, quantile/DropReason pinned to dip-telemetry) and adds the
# unsafe-containment rule. The linter's own contract is pinned by
# tests/diplint.rs, which seeds each violation and expects failure.
cargo build -q --release --bin diplint --offline
./target/release/diplint
cargo test -q --test diplint --offline

echo "== workload determinism gate (named)"
cargo test -q --test workload_determinism --offline
cargo test -q -p dip-workload --offline

echo "== dipload MST smoke (all protocols -> BENCH_workload.json, pinned)"
cargo build -q --release --bin dipload --offline
# Small trials keep the smoke around two seconds while still bisecting
# to a real knee for every protocol. The run is seeded and the MST is
# modeled, so the trace and content hashes and the modeled latencies are
# a behaviour pin: a change that moves any of them must say so by
# committing the regenerated file.
./target/release/dipload --protocol all --seed 7 --packets 512 --queue 64 --iters 10 \
    > BENCH_workload.json
if ! git diff --exit-code -- BENCH_workload.json; then
    echo "error: the MST smoke no longer reproduces the committed BENCH_workload.json" >&2
    exit 1
fi

echo "== scale: wall-clock accounting gates (named)"
# The measuring engine's books must match the model's: exact identity
# under Block backpressure and outcome classes invariant across worker
# counts, with and without a churn storm.
cargo test -q --test wallclock --offline
cargo test -q -p dip-workload --offline \
    wallclock::tests::finite_run_holds_identity_and_loses_nothing
cargo test -q -p dip-dataplane --offline \
    runtime::tests::submit_bytes_steady_state_is_allocation_free

echo "== scale: dipload wallclock smoke (1 vs 2 workers)"
# Short windows keep this around a second per point; the assertion is
# structural (honest fields), not a perf bound — CI hosts vary.
for w in 1 2; do
    ./target/release/dipload --protocol ipv4 --engine wallclock --workers "$w" \
        --warmup-ms 20 --measure-ms 60 --iters 4 > "/tmp/dipload_wall_$w.json"
    for field in '"engine":"wallclock"' '"measurement":"wallclock"' \
                 "\"workers\":$w" '"authority":' '"capacity_pps":' \
                 '"wall_pps":' '"host_cpus":' '"mst_pps":'; do
        if ! grep -q "$field" "/tmp/dipload_wall_$w.json"; then
            echo "error: dipload wallclock ($w workers) line missing $field" >&2
            exit 1
        fi
    done
done

echo "== scale: BENCH_scaling.json fields"
# The committed scaling curve is regenerated by `cargo bench -p
# dip-bench --bench scaling`; here we pin that the committed lines carry
# the contract's fields, cover 4 worker counts, and say which statistic
# (wall vs capacity) the generating host could vouch for.
for field in '"bench":"wallclock_scaling"' '"workers":1' '"workers":2' \
             '"workers":3' '"workers":4' '"protocol":"ipv4"' '"mst_pps":' \
             '"authority":' '"capacity_pps":' '"wall_pps":' '"host_cpus":' \
             '"oversubscribed":' '"bench":"wallclock_scaling_worker"' \
             '"mean_batch_fill":' '"ring_occupancy":'; do
    if ! grep -q "$field" BENCH_scaling.json; then
        echo "error: BENCH_scaling.json missing $field" >&2
        exit 1
    fi
done

echo "== routes: delta-equivalence gate (named)"
cargo test -q -p dip-routes --offline
cargo test -q -p dip-routes --test delta_equivalence --offline \
    snapshot_plus_delta_equals_rebuilt_snapshot

echo "== routes: 1M-route oracle (release)"
cargo test -q -p dip-routes --release --offline --test million_oracle \
    million_route_oracle_v4_v6

echo "== routes: churn smoke (named, debug)"
# The accounting identity must hold while a storm swaps epochs
# mid-trace, on both engines, twice with identical results.
cargo test -q -p dip-workload --offline \
    openloop::tests::churn_storm_preserves_identity_and_determinism

echo "== routes: threaded dipload under churn"
./target/release/dipload --protocol ipv4 --engine dataplane --workers 4 \
    --churn 100000 --packets 512 --queue 64 --iters 8 > /tmp/dipload_churn.json
for field in '"workers":4' '"churn_ups":100000' '"churn_deltas":' '"churn_epoch_swaps":'; do
    if ! grep -q "$field" /tmp/dipload_churn.json; then
        echo "error: dipload churn line missing $field" >&2
        exit 1
    fi
done

echo "== routes: BENCH_churn.json fields"
# The committed bench file is regenerated by `cargo bench -p dip-bench
# --bench churn` (which enforces the <=25% MST-degradation bound);
# here we pin that the committed lines carry the contract's fields.
for field in '"mode":"quiescent"' '"mode":"storm"' '"degradation_pct":' \
             '"churn_deltas":' '"mst_pps":'; do
    if ! grep -q "$field" BENCH_churn.json; then
        echo "error: BENCH_churn.json missing $field" >&2
        exit 1
    fi
done

echo "== scenarios: determinism + partition divergence gates (named)"
cargo test -q --test scenario --offline \
    fat_tree_partition_scenario_is_byte_deterministic
cargo test -q --test scenario --offline \
    as_graph_scenario_is_byte_deterministic
cargo test -q --test scenario --offline \
    ndn_out_delivers_ipv4_at_every_nonzero_partition_length

echo "== scenarios: dipload --scenario smoke (small fat-tree)"
# One scripted partition on a 20-router fat-tree through the real
# control plane; around a second in release.
./target/release/dipload --scenario partition:k=4,window=200000,requests=12,seed=7 \
    > /tmp/dipload_scenario.json
for field in '"scenario":"partition_k4_w200000"' '"topology":"fat_tree(k=4)"' \
             '"converged":true' '"name":"outage"' '"partition_window_ns":200000' \
             '"protocol":"ndn"' '"delivery_fraction":' '"reconvergence_ns":' \
             '"identity_ok":true' '"fingerprint":'; do
    if ! grep -q "$field" /tmp/dipload_scenario.json; then
        echo "error: dipload --scenario output missing $field" >&2
        exit 1
    fi
done

echo "== scenarios: BENCH_scenarios.json fields"
# The committed sweep is regenerated by `cargo bench -p dip-bench
# --bench scenarios > BENCH_scenarios.json` (which asserts NDN strictly
# out-delivers IPv4 at every nonzero window and that the 180-router
# fat-tree carries all six protocols); here we pin the committed lines.
for field in '"bench":"scenario_partition"' '"window_ns":0' '"window_ns":1200000' \
             '"ndn_delivery_fraction":' '"ipv4_delivery_fraction":' \
             '"reconvergence_ns":' '"bench":"scenario_fat_tree"' '"routers":180' \
             '"opt_delivery_fraction":' '"legacy_v4_delivery_fraction":' \
             '"identity_ok":1' '"fingerprint":'; do
    if ! grep -q "$field" BENCH_scenarios.json; then
        echo "error: BENCH_scenarios.json missing $field" >&2
        exit 1
    fi
done

echo "== dipstat smoke (per-program dipopt facts)"
cargo build -q --release --bin dipstat --offline
./target/release/dipstat > /tmp/dipstat_smoke.json
lines=$(wc -l < /tmp/dipstat_smoke.json)
if [ "$lines" -ne 6 ]; then
    echo "error: expected 6 dipstat lines, got $lines" >&2
    exit 1
fi
# The XIA hot-path fix must be present: the standalone DAG parse is
# eliminated into the adjacent F_intent walk.
if ! grep '"program":"xia"' /tmp/dipstat_smoke.json \
        | grep -q 'eliminate_redundant_parse'; then
    echo "error: dipstat lost the XIA dag-parse elimination" >&2
    exit 1
fi

echo "== bench: stand-alone benchmark builds and passes its pre-check"
# A renamed crate item, a new public config field or a changed
# dependency table breaks benchmark/ without failing anything above;
# the submission pipeline would be the first to notice. run.py exits
# non-zero when the pre-check, the accounting identity or the generator
# schedule fails.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
for trace in 0 1; do
    python3 benchmark/run.py --workload ndn_cache --trace "$trace" --seconds 3 \
        > "/tmp/dipbench_smoke_$trace.txt"
done
if ! git diff --quiet -- benchmark BENCHMARK.json; then
    echo "error: benchmark/ or BENCHMARK.json differs from the index" >&2
    exit 1
fi

echo "check.sh: all gates passed"
