//! Telemetry accounting under load: drives the threaded dataplane over a
//! mixed workload (routed, unrouted, malformed) and emits one JSON line
//! of end-of-run counters per configuration:
//!
//! ```text
//! {"bench":"metrics_snapshot","workers":2,"pkts":16384,"forwarded":...,
//!  "consumed":0,"dropped_no_route":...,"dropped_malformed_field":...,
//!  "ring_drops":0,"cache_hits":...,"fns_executed":...,"elapsed_ns":...,
//!  "pkts_per_sec":...}
//! ```
//!
//! Every run asserts the tentpole accounting identity — forwarded +
//! consumed + all per-reason drops == injected — so the benchmark doubles
//! as a stress test of the counter plumbing, and it measures what the
//! instrumentation costs while it's at it (the counters are always on in
//! the dataplane).
//!
//! `DIP_METRICS_PKTS` overrides the per-run packet count;
//! `DIP_BENCH_SAMPLES` the sample rounds (best-of reported).

use dip_bench::JsonLine;
use dip_core::DipRouter;
use dip_dataplane::{Backpressure, Dataplane, DataplaneConfig};
use dip_fnops::RouteStore;
use dip_protocols::ip;
use dip_tables::fib::NextHop;
use dip_telemetry::Snapshot;
use dip_wire::ipv4::Ipv4Addr;
use std::time::Instant;

const WORKERS: [usize; 3] = [1, 2, 4];

fn factory(i: usize) -> DipRouter {
    let mut r = DipRouter::new(i as u64, [0x42; 16]);
    let mut routes = RouteStore::new();
    routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    r.state_mut().routes = routes.rebuild();
    r
}

/// Mixed workload: ~80% routed, ~15% unrouted (drop: no_route), ~5%
/// malformed garbage (drop: malformed_field), across many flows.
fn workload(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| match i % 20 {
            19 => vec![0xff; 6],
            16..=18 => ip::dip32_packet(
                Ipv4Addr::new(172, (i >> 8) as u8, i as u8, 1),
                Ipv4Addr::new(1, 1, 1, 1),
                64,
            )
            .to_bytes(&[0u8; 32])
            .unwrap(),
            _ => ip::dip32_packet(
                Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
                Ipv4Addr::new(1, 1, 1, 1),
                64,
            )
            .to_bytes(&[0u8; 32])
            .unwrap(),
        })
        .collect()
}

fn run_once(workers: usize, packets: &[Vec<u8>]) -> (u64, Snapshot) {
    let config = DataplaneConfig {
        workers,
        batch_size: 32,
        ring_capacity: 1024,
        backpressure: Backpressure::Block,
        ..Default::default()
    };
    let mut dp = Dataplane::start(config, factory);
    let t0 = Instant::now();
    for (i, p) in packets.iter().enumerate() {
        dp.submit(p.clone(), 0, i as u64);
    }
    let report = dp.shutdown();
    let elapsed_ns = t0.elapsed().as_nanos() as u64;
    let snap = report.registry.snapshot();

    // The accounting identity must hold on every single run.
    let forwarded = snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]);
    let consumed = snap.sum_where("dip_packets_total", &[("outcome", "consumed")]);
    let drops = snap.get("dip_drops_total");
    assert_eq!(
        forwarded + consumed + drops,
        packets.len() as u64,
        "telemetry must account for every injected packet"
    );
    (elapsed_ns, snap)
}

fn main() {
    let pkts: usize =
        std::env::var("DIP_METRICS_PKTS").ok().and_then(|s| s.parse().ok()).unwrap_or(16_384);
    let samples: usize =
        std::env::var("DIP_BENCH_SAMPLES").ok().and_then(|s| s.parse().ok()).unwrap_or(5).max(1);
    let packets = workload(pkts);

    // Warm-up.
    run_once(1, &packets[..pkts.min(1024)]);

    for &workers in &WORKERS {
        let mut best: Option<(u64, Snapshot)> = None;
        for _ in 0..samples {
            let (ns, snap) = run_once(workers, &packets);
            if best.as_ref().is_none_or(|(b, _)| ns < *b) {
                best = Some((ns, snap));
            }
        }
        let (elapsed_ns, snap) = best.expect("at least one sample");
        let pps = packets.len() as f64 * 1e9 / elapsed_ns as f64;
        JsonLine::new("metrics_snapshot")
            .u64("workers", workers as u64)
            .u64("pkts", packets.len() as u64)
            .u64("forwarded", snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]))
            .u64("consumed", snap.sum_where("dip_packets_total", &[("outcome", "consumed")]))
            .u64("dropped_no_route", snap.sum_where("dip_drops_total", &[("reason", "no_route")]))
            .u64(
                "dropped_malformed_field",
                snap.sum_where("dip_drops_total", &[("reason", "malformed_field")]),
            )
            .u64("ring_drops", snap.sum_where("dip_drops_total", &[("reason", "queue_full")]))
            .u64("cache_hits", snap.get("dip_program_cache_hits_total"))
            .u64("fns_executed", snap.get("dip_worker_fns_executed_total"))
            .u64("pit_evictions", snap.get("dip_pit_expired_evictions_total"))
            .u64("elapsed_ns", elapsed_ns)
            .f64("pkts_per_sec", pps)
            .emit();
    }
}
