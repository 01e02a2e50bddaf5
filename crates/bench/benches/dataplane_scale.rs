//! Dataplane scaling sweep: workers × batch size → packets/second.
//!
//! Drives the threaded [`dip_dataplane::Dataplane`] (SPSC rings, per-worker
//! routers and program caches) over a many-flow DIP-32 workload, sweeping
//! worker counts 1/2/4 against batch sizes 1/8/32/128 under lossless
//! backpressure. Each configuration is run `DIP_BENCH_SAMPLES` times
//! (default 5) and reported best-of — the minimum is the stable statistic
//! on a shared box — as one JSON line per configuration:
//!
//! ```text
//! {"bench":"dataplane_scale","workers":2,"batch":32,"pkts":32768,
//!  "elapsed_ns":...,"pkts_per_sec":...,"ring_drops":0}
//! ```
//!
//! The sweep asserts the acceptance floor for this subsystem: the best
//! batched multi-worker configuration must beat the unbatched single
//! worker (workers=1, batch=1). On a single-core host that margin comes
//! from batching — the two-phase drain resolves a whole batch through
//! the program-cache memo and executes back-to-back — rather than
//! parallel execution; on multi-core hosts worker scaling adds on top.
//! `DIP_DATAPLANE_PKTS` overrides the per-run packet count for smoke
//! tests; `DIP_DATAPLANE_RING` overrides the per-worker ring capacity.

use dip_bench::JsonLine;
use dip_core::DipRouter;
use dip_dataplane::{Backpressure, Dataplane, DataplaneConfig};
use dip_fnops::RouteStore;
use dip_protocols::ip;
use dip_tables::fib::NextHop;
use dip_wire::ipv4::Ipv4Addr;
use std::time::Instant;

const WORKERS: [usize; 3] = [1, 2, 4];
const BATCHES: [usize; 4] = [1, 8, 32, 128];

fn factory(i: usize) -> DipRouter {
    let mut r = DipRouter::new(i as u64, [0x42; 16]);
    let mut routes = RouteStore::new();
    routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    r.state_mut().routes = routes.rebuild();
    r
}

/// Many distinct flows (source addresses) so the flow hash spreads load
/// across every worker instead of serializing on one shard.
fn dip32_packets(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| {
            ip::dip32_packet(
                Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
                Ipv4Addr::new(1, 1, 1, 1),
                64,
            )
            .to_bytes(&[0u8; 64])
            .unwrap()
        })
        .collect()
}

/// One timed run: submit every packet, drain, and report wall time and
/// ring drops. Worker-thread spawn is outside the timed region; the
/// drain-and-join in `shutdown` is inside (the pipeline isn't done until
/// every packet is executed).
fn run_once(workers: usize, batch: usize, packets: &[Vec<u8>]) -> (u64, u64) {
    let config = DataplaneConfig {
        workers,
        batch_size: batch,
        ring_capacity: std::env::var("DIP_DATAPLANE_RING")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1024),
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
    assert_eq!(report.total_processed(), packets.len() as u64, "lossless run lost packets");
    (elapsed_ns, report.total_ring_drops())
}

fn main() {
    let pkts: usize =
        std::env::var("DIP_DATAPLANE_PKTS").ok().and_then(|s| s.parse().ok()).unwrap_or(32_768);
    let samples: usize =
        std::env::var("DIP_BENCH_SAMPLES").ok().and_then(|s| s.parse().ok()).unwrap_or(5).max(1);
    let packets = dip32_packets(pkts);

    // Warm-up: fault in code paths and allocator arenas before measuring.
    run_once(1, 32, &packets[..pkts.min(1024)]);

    // Sample rounds are interleaved across configurations (round-robin)
    // rather than config-by-config, so load drift on a shared box hits
    // every configuration equally instead of biasing whichever config
    // happened to run during a quiet spell; best-of then cancels it.
    let configs: Vec<(usize, usize)> =
        WORKERS.iter().flat_map(|&w| BATCHES.iter().map(move |&b| (w, b))).collect();
    let mut best_ns = vec![u64::MAX; configs.len()];
    let mut drops = vec![0u64; configs.len()];
    for _ in 0..samples {
        for (i, &(workers, batch)) in configs.iter().enumerate() {
            let (ns, d) = run_once(workers, batch, &packets);
            best_ns[i] = best_ns[i].min(ns);
            drops[i] = drops[i].max(d);
        }
    }

    let mut results: Vec<(usize, usize, f64)> = Vec::new();
    for (i, &(workers, batch)) in configs.iter().enumerate() {
        let pps = packets.len() as f64 * 1e9 / best_ns[i] as f64;
        JsonLine::new("dataplane_scale")
            .u64("workers", workers as u64)
            .u64("batch", batch as u64)
            .u64("pkts", packets.len() as u64)
            .u64("elapsed_ns", best_ns[i])
            .f64("pkts_per_sec", pps)
            .u64("ring_drops", drops[i])
            .emit();
        results.push((workers, batch, pps));
    }

    let baseline = results
        .iter()
        .find(|(w, b, _)| *w == 1 && *b == 1)
        .map(|(_, _, pps)| *pps)
        .expect("baseline config in sweep");
    let (bw, bb, best) = results
        .iter()
        .filter(|(w, b, _)| *w > 1 && *b > 1)
        .cloned()
        .max_by(|a, b| a.2.total_cmp(&b.2))
        .expect("batched multi-worker configs in sweep");
    println!(
        "dataplane_scale: baseline(w=1,b=1) {baseline:.0} pkts/s; \
         best batched multi-worker (w={bw},b={bb}) {best:.0} pkts/s ({:.2}x)",
        best / baseline
    );
    assert!(
        best > baseline,
        "batched multi-worker ({bw}w/{bb}b = {best:.0} pkts/s) must beat the \
         unbatched single worker ({baseline:.0} pkts/s)"
    );
}
