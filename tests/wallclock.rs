//! Threaded dataplane fed on the real clock: exact books.
//!
//! Each trace packet is submitted no earlier than its timestamp on a real
//! clock, so workers run dry between packets and pick work up again as it
//! arrives — an interleaving the back-to-back feed of
//! `tests/dataplane_determinism.rs` never produces. The accounting must
//! stay exact regardless: under `Block` backpressure every injected packet
//! is executed exactly once, so `forwarded + consumed + dropped ==
//! injected` with zero ring-full drops, and the outcome *classes* — which
//! packets forward, which consume, which drop, per the packet bytes alone —
//! must reproduce across runs regardless of worker count or thread
//! interleaving. Churn is polled on trace time and flaps only its
//! dedicated pool routes (never a route the trace resolves through), so
//! the same equalities hold mid-storm.

use std::time::{Duration, Instant};

use dip::dataplane::{Backpressure, Dataplane, DataplaneConfig};
use dip::workload::trace::INGRESS_PORT;
use dip::workload::{ChurnGen, ChurnSpec, Mix, TrafficClass, WorkloadSpec};

const RATE_PPS: u64 = 400_000;
const PACKETS: usize = 3_000;

/// The books of one paced run.
#[derive(Debug, PartialEq, Eq)]
struct Books {
    injected: u64,
    forwarded: u64,
    consumed: u64,
    dropped: u64,
    queue_full: u64,
    churn_deltas: u64,
}

impl Books {
    fn identity_holds(&self) -> bool {
        self.forwarded + self.consumed + self.dropped == self.injected
    }

    fn classes(&self) -> (u64, u64, u64) {
        (self.forwarded, self.consumed, self.dropped)
    }
}

fn spec_for(class: TrafficClass) -> WorkloadSpec {
    WorkloadSpec { seed: 41, mix: Mix::single(class), table_size: 300, ..Default::default() }
}

/// Runs `PACKETS` packets of `spec` at `RATE_PPS` on `workers` threads,
/// each packet submitted once the real clock reaches its timestamp, with
/// an optional route storm committing on the packets' timestamps.
fn run_paced(spec: &WorkloadSpec, workers: usize, churn: Option<&ChurnSpec>) -> Books {
    let trace = spec.generate(RATE_PPS, PACKETS);
    let config = DataplaneConfig {
        workers,
        ring_capacity: 64,
        backpressure: Backpressure::Block,
        ..Default::default()
    };
    let mut dp = Dataplane::start(config, |i| spec.build_router(i as u64));
    let mut storm = churn.map(|c| ChurnGen::new(spec, c));
    if let Some(gen) = &mut storm {
        dp.publish_routes(gen.initial_snapshot());
    }
    let t0 = Instant::now();
    for p in &trace.packets {
        if let Some(snap) = storm.as_mut().and_then(|gen| gen.poll(p.at_ns)) {
            dp.publish_routes(snap);
        }
        // Never stall behind schedule: this run is about exact
        // accounting, not rate fidelity.
        while t0.elapsed() < Duration::from_nanos(p.at_ns) {
            std::thread::yield_now();
        }
        assert!(dp.submit_bytes(&p.bytes, INGRESS_PORT, p.at_ns).is_some());
    }
    let snap = dp.shutdown().registry.snapshot();
    Books {
        injected: trace.len() as u64,
        forwarded: snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]),
        consumed: snap.sum_where("dip_packets_total", &[("outcome", "consumed")]),
        dropped: snap.get("dip_drops_total"),
        queue_full: snap.sum_where("dip_drops_total", &[("reason", "queue_full")]),
        churn_deltas: storm.map_or(0, |gen| gen.deltas()),
    }
}

#[test]
fn accounting_identity_holds_at_every_worker_count() {
    for class in [TrafficClass::Ipv4, TrafficClass::Ndn] {
        for workers in [1usize, 2, 4] {
            let r = run_paced(&spec_for(class), workers, None);
            assert_eq!(r.injected, PACKETS as u64, "{class:?} workers={workers} injects all");
            assert!(r.identity_holds(), "{class:?} workers={workers}: {r:?}");
            assert_eq!(r.queue_full, 0, "{class:?} workers={workers}: Block never drops at ring");
        }
    }
}

#[test]
fn outcome_classes_are_thread_count_invariant() {
    // The packet bytes decide the outcome class; threads only decide who
    // executes. Every worker count must report the same class counts,
    // and two runs at the same count must agree exactly.
    let spec = spec_for(TrafficClass::Ipv4);
    let baseline = run_paced(&spec, 1, None);
    assert!(baseline.identity_holds(), "baseline: {baseline:?}");
    for workers in [1usize, 2, 4] {
        let a = run_paced(&spec, workers, None);
        let b = run_paced(&spec, workers, None);
        assert_eq!(a.classes(), b.classes(), "workers={workers} must reproduce");
        assert_eq!(
            a.classes(),
            baseline.classes(),
            "workers={workers} must match the single-worker classes"
        );
    }
}

#[test]
fn identity_and_determinism_survive_a_churn_storm() {
    // 1M updates per second of trace time, polled on packet timestamps:
    // the storm's delta schedule is a pure function of the trace, and the
    // flap pool never covers a trace route, so outcome counts reproduce
    // exactly even though snapshot pickup races worker execution.
    let churn = ChurnSpec { rate_ups: 1_000_000 };
    for workers in [1usize, 2, 4] {
        let spec = spec_for(TrafficClass::Ipv4);
        let a = run_paced(&spec, workers, Some(&churn));
        let b = run_paced(&spec, workers, Some(&churn));
        assert!(a.identity_holds(), "workers={workers} under churn: {a:?}");
        assert_eq!(a.queue_full, 0, "workers={workers}: lossless under churn");
        assert!(a.churn_deltas > 0, "workers={workers}: the storm must actually commit deltas");
        assert_eq!(a, b, "workers={workers} churn outcome counts must reproduce");
    }
}
