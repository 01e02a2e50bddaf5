//! Open-loop driving: offer a trace at a fixed rate, measure latency and
//! loss, and never let the device's behaviour slow the offered load.
//!
//! Latency under overload comes from a **virtual-time queue model**, not
//! wall clocks: each (modeled) worker is an M/G/1-style server whose
//! service times are the deterministic [`TofinoModel`] pipeline costs.
//! Arrivals walk the trace timestamps; a packet that finds its worker's
//! queue at capacity is an injection-side `queue_full` drop, counted
//! through the shared drop taxonomy so the accounting identity
//! (`forwarded + consumed + drops == injected`) holds on every run —
//! overloaded ones included. The packets that *are* admitted still run
//! through the real engine (single [`DipRouter`] or the threaded
//! [`Dataplane`]), so verdict counts are real, while latency and drop
//! decisions replay identically for one seed: that is what makes the MST
//! search reproducible.

use std::collections::VecDeque;

use crate::churn::{ChurnGen, ChurnSpec};
use crate::trace::{Trace, TrafficClass, WorkloadSpec, INGRESS_PORT};
use dip_dataplane::{Backpressure, Dataplane, DataplaneConfig};
use dip_sim::TofinoModel;
use dip_telemetry::{DropReason, Histogram, OutcomeCounters, PacketOutcome, Registry, Snapshot};

/// Which engine executes the admitted packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// One [`dip_core::DipRouter`] behind one modeled queue — the
    /// deterministic baseline.
    Router,
    /// The threaded [`Dataplane`]: flow-sharded workers, each behind its
    /// own modeled queue sized to its real ring.
    Dataplane {
        /// Worker threads.
        workers: usize,
        /// Packets per execution batch.
        batch_size: usize,
    },
}

/// Open-loop driver knobs.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// The engine under test.
    pub engine: EngineKind,
    /// Modeled per-worker queue depth (and, for the dataplane, the real
    /// ring capacity — rounded up to a power of two by the ring).
    pub queue_capacity: usize,
    /// The service-time model.
    pub model: TofinoModel,
    /// When set, a route-update storm runs alongside the trace: deltas
    /// commit on the trace's virtual clock and publish as tables-only
    /// epoch swaps the engine picks up mid-run.
    pub churn: Option<ChurnSpec>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            engine: EngineKind::Router,
            queue_capacity: 1024,
            model: TofinoModel::tofino(),
            churn: None,
        }
    }
}

/// What one open-loop trial measured.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The offered rate.
    pub offered_pps: u64,
    /// Packets the trace offered.
    pub injected: u64,
    /// Packets forwarded (from the engine's registry).
    pub forwarded: u64,
    /// Packets consumed locally (delivered, aggregated, cache-answered).
    pub consumed: u64,
    /// Total drops, all reasons.
    pub dropped: u64,
    /// The overload-specific slice of `dropped`.
    pub queue_full: u64,
    /// Modeled median latency.
    pub p50_ns: u64,
    /// Modeled 99th-percentile latency.
    pub p99_ns: u64,
    /// Whether `forwarded + consumed + dropped == injected`.
    pub identity_holds: bool,
    /// Rate-dependent trace fingerprint.
    pub trace_hash: u64,
    /// Rate-independent trace fingerprint (constant across one search).
    pub content_hash: u64,
    /// Route deltas committed by the churn storm (0 when churn is off).
    pub churn_deltas: u64,
    /// Route updates inside those deltas.
    pub churn_updates: u64,
    /// Snapshot publications the engine picked up.
    pub churn_epoch_swaps: u64,
}

impl OpenLoopReport {
    /// Fraction of offered packets dropped (any reason).
    pub fn drop_frac(&self) -> f64 {
        if self.injected == 0 {
            0.0
        } else {
            self.dropped as f64 / self.injected as f64
        }
    }
}

/// Log-spaced latency bucket bounds, 64 ns to ~4 s at ratio 2^(1/4) —
/// ≤ ~19% relative quantile error by construction (see the pinned bound
/// in `dip-telemetry`'s quantile tests).
pub(crate) fn latency_bounds() -> Vec<u64> {
    let ratio = 2f64.powf(0.25);
    let mut bounds = Vec::new();
    let mut b = 64.0f64;
    while b < 4.2e9 {
        let v = b.round() as u64;
        if bounds.last() != Some(&v) {
            bounds.push(v);
        }
        b *= ratio;
    }
    bounds
}

/// One modeled FIFO server: completion times of queued packets in
/// virtual nanoseconds.
struct ModelQueue {
    completions: VecDeque<f64>,
    busy_until: f64,
    capacity: usize,
}

impl ModelQueue {
    fn new(capacity: usize) -> Self {
        ModelQueue { completions: VecDeque::new(), busy_until: 0.0, capacity: capacity.max(1) }
    }

    /// Drains completions at `arrival`, then either admits (returning the
    /// modeled sojourn time) or refuses (`None` = queue full).
    fn offer(&mut self, arrival: f64, service_ns: f64) -> Option<f64> {
        while self.completions.front().is_some_and(|&c| c <= arrival) {
            self.completions.pop_front();
        }
        if self.completions.len() >= self.capacity {
            return None;
        }
        self.busy_until = self.busy_until.max(arrival) + service_ns;
        self.completions.push_back(self.busy_until);
        Some(self.busy_until - arrival)
    }
}

/// Pulls the identity terms out of a registry snapshot.
fn account(snap: &Snapshot) -> (u64, u64, u64, u64) {
    let forwarded = snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]);
    let consumed = snap.sum_where("dip_packets_total", &[("outcome", "consumed")]);
    let dropped = snap.get("dip_drops_total");
    let queue_full = snap.sum_where("dip_drops_total", &[("reason", "queue_full")]);
    (forwarded, consumed, dropped, queue_full)
}

fn finish(
    trace: &Trace,
    snap: &Snapshot,
    hist: &Histogram,
    churn: Option<&ChurnGen>,
) -> OpenLoopReport {
    let (forwarded, consumed, dropped, queue_full) = account(snap);
    let injected = trace.len() as u64;
    OpenLoopReport {
        offered_pps: trace.rate_pps,
        injected,
        forwarded,
        consumed,
        dropped,
        queue_full,
        p50_ns: hist.quantile(0.50),
        p99_ns: hist.quantile(0.99),
        identity_holds: forwarded + consumed + dropped == injected,
        trace_hash: trace.hash(),
        content_hash: trace.content_hash(),
        churn_deltas: churn.map_or(0, |g| g.deltas()),
        churn_updates: churn.map_or(0, |g| g.updates()),
        churn_epoch_swaps: churn.map_or(0, |g| g.stats().epoch_swaps),
    }
}

/// Offers `count` packets of `spec` at `rate_pps` and reports what the
/// engine did with them.
pub fn run_open_loop(
    spec: &WorkloadSpec,
    rate_pps: u64,
    count: usize,
    cfg: &OpenLoopConfig,
) -> OpenLoopReport {
    let trace = spec.generate(rate_pps, count);
    match cfg.engine {
        EngineKind::Router => run_router(spec, &trace, cfg),
        EngineKind::Dataplane { workers, batch_size } => {
            run_dataplane(spec, &trace, cfg, workers, batch_size)
        }
    }
}

fn run_router(spec: &WorkloadSpec, trace: &Trace, cfg: &OpenLoopConfig) -> OpenLoopReport {
    let registry = Registry::new();
    let counters = OutcomeCounters::register(&registry, &[("node", "openloop")]);
    let hist = registry.histogram(
        "dip_workload_latency_ns",
        "Modeled per-packet sojourn time",
        &[],
        &latency_bounds(),
    );
    let mut router = spec.build_router(1);
    let mut churn = cfg.churn.as_ref().map(|c| ChurnGen::new(spec, c));
    if let Some(gen) = &mut churn {
        gen.initial_snapshot().apply(router.state_mut());
        gen.note_epoch_swap();
    }
    let mut queue = ModelQueue::new(cfg.queue_capacity);
    for p in &trace.packets {
        if let Some(gen) = &mut churn {
            if let Some(snap) = gen.poll(p.at_ns) {
                snap.apply(router.state_mut());
                gen.note_epoch_swap();
            }
        }
        // Per-packet exact service: process first (the real pipeline
        // stats price the service time), but only if there is room.
        // Admission is decided on queue state alone, so refused packets
        // never touch the engine — exactly like a full NIC ring.
        let arrival = p.at_ns as f64;
        while queue.completions.front().is_some_and(|&c| c <= arrival) {
            queue.completions.pop_front();
        }
        if queue.completions.len() >= queue.capacity {
            counters.record(PacketOutcome::Dropped(DropReason::QueueFull));
            continue;
        }
        let mut buf = p.bytes.clone();
        let (verdict, stats) = router.process(&mut buf, INGRESS_PORT, p.at_ns);
        // Price the service with the MAC the router actually runs (set by
        // the spec), not a hardcoded implementation.
        let mac = router.state().mac_choice;
        let service = cfg.model.process_ns(&stats, p.bytes.len(), mac);
        let sojourn =
            queue.offer(arrival, service).expect("capacity was checked before processing");
        hist.observe(sojourn as u64);
        counters.record(verdict.outcome());
    }
    finish(trace, &registry.snapshot(), &hist, churn.as_ref())
}

/// Calibrates one modeled service time per traffic class by running a
/// representative packet of each class through a scratch router and
/// pricing the resulting pipeline stats.
///
/// The MAC implementation is read off the built router
/// (`RouterState::mac_choice`, set by [`WorkloadSpec::mac_choice`]) — the
/// old code hardcoded 2EM here, which silently priced an AES-configured
/// experiment as if the resubmit pass were free. With the fix, an AES
/// spec raises the service time of MAC-verifying classes (OPT, NDN+OPT)
/// while plain forwarding classes are unaffected (pinned by test).
pub(crate) fn calibrate_service(
    spec: &WorkloadSpec,
    model: &TofinoModel,
) -> std::collections::HashMap<TrafficClass, f64> {
    let mut scratch = spec.build_router(u64::MAX);
    let mac = scratch.state().mac_choice;
    let mut gen = crate::trace::TraceGen::new(spec);
    let mut service = std::collections::HashMap::new();
    for class in spec.mix.classes() {
        let bytes = gen.packet_for(class);
        let mut buf = bytes.clone();
        let (_, stats) = scratch.process(&mut buf, INGRESS_PORT, 0);
        service.insert(class, model.process_ns(&stats, bytes.len(), mac));
    }
    service
}

fn run_dataplane(
    spec: &WorkloadSpec,
    trace: &Trace,
    cfg: &OpenLoopConfig,
    workers: usize,
    batch_size: usize,
) -> OpenLoopReport {
    // Calibrate one service time per traffic class on a scratch router:
    // the threaded workers cannot report per-packet pipeline stats
    // synchronously, and within a class the FN chain (hence the cost) is
    // shape-stable.
    let service = calibrate_service(spec, &cfg.model);

    let mut dp = Dataplane::start(
        DataplaneConfig {
            workers: workers.max(1),
            batch_size: batch_size.max(1),
            ring_capacity: cfg.queue_capacity,
            backpressure: Backpressure::Block,
            ..Default::default()
        },
        |i| spec.build_router(i as u64),
    );
    // Modeled injection drops land in the same registry the workers
    // report into, under the counted overload reason.
    let injector = OutcomeCounters::register(dp.registry(), &[("worker", "injector")]);
    let hist = dp.registry().histogram(
        "dip_workload_latency_ns",
        "Modeled per-packet sojourn time",
        &[],
        &latency_bounds(),
    );
    let mut queues: Vec<ModelQueue> =
        (0..dp.workers()).map(|w| ModelQueue::new(dp.ring_capacity(w))).collect();
    let mut churn = cfg.churn.as_ref().map(|c| ChurnGen::new(spec, c));
    if let Some(gen) = &mut churn {
        // Workers pick the storm's tables up at their next batch
        // boundary; until then their own (pool-free) tables answer
        // every trace packet identically.
        dp.publish_routes(gen.initial_snapshot());
        gen.note_epoch_swap();
    }
    for p in &trace.packets {
        if let Some(gen) = &mut churn {
            if let Some(snap) = gen.poll(p.at_ns) {
                dp.publish_routes(snap);
                gen.note_epoch_swap();
            }
        }
        let w = dp.shard_of(&p.bytes);
        let svc = service.get(&p.class).copied().unwrap_or(0.0);
        match queues[w].offer(p.at_ns as f64, svc) {
            None => injector.record(PacketOutcome::Dropped(DropReason::QueueFull)),
            Some(sojourn) => {
                hist.observe(sojourn as u64);
                // Block backpressure: the real ring may briefly lag the
                // model, but never drops — every admitted packet is
                // processed and counted by its worker. `submit_bytes`
                // refills a recycled buffer instead of cloning the trace
                // packet (the satellite-2 allocation fix).
                dp.submit_bytes(&p.bytes, INGRESS_PORT, p.at_ns);
            }
        }
    }
    let report = dp.shutdown();
    finish(trace, &report.registry.snapshot(), &hist, churn.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Mix;

    fn small_spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            table_size: 300,
            catalog_size: 64,
            pit_preseed: 512,
            ..Default::default()
        }
    }

    #[test]
    fn router_engine_holds_identity_at_low_rate() {
        let r = run_open_loop(&small_spec(3), 100_000, 400, &OpenLoopConfig::default());
        assert!(r.identity_holds, "identity: {r:?}");
        assert_eq!(r.injected, 400);
        assert_eq!(r.queue_full, 0, "no overload at 100kpps: {r:?}");
        assert!(r.p99_ns >= r.p50_ns && r.p50_ns > 0, "latency populated: {r:?}");
    }

    #[test]
    fn router_engine_counts_queue_full_under_overload_and_identity_still_holds() {
        let cfg = OpenLoopConfig { queue_capacity: 8, ..Default::default() };
        let r = run_open_loop(&small_spec(3), 2_000_000_000, 600, &cfg);
        assert!(r.queue_full > 0, "2 Gpps into one modeled server must overload: {r:?}");
        assert!(r.identity_holds, "identity survives overload: {r:?}");
        assert!(r.drop_frac() > 0.0);
    }

    #[test]
    fn dataplane_engine_holds_identity() {
        let cfg = OpenLoopConfig {
            engine: EngineKind::Dataplane { workers: 2, batch_size: 16 },
            ..Default::default()
        };
        let r = run_open_loop(&small_spec(9), 200_000, 300, &cfg);
        assert!(r.identity_holds, "identity: {r:?}");
        assert_eq!(r.injected, 300);
    }

    /// The churn-identity smoke: a 1M-ups storm alongside the trace must
    /// not break the accounting identity or reproducibility, on either
    /// engine — epoch pickup timing may vary, outcomes may not.
    #[test]
    fn churn_storm_preserves_identity_and_determinism() {
        for engine in [EngineKind::Router, EngineKind::Dataplane { workers: 2, batch_size: 16 }] {
            let cfg = OpenLoopConfig {
                engine,
                churn: Some(crate::churn::ChurnSpec { rate_ups: 1_000_000, ..Default::default() }),
                ..Default::default()
            };
            let a = run_open_loop(&small_spec(7), 200_000, 300, &cfg);
            let b = run_open_loop(&small_spec(7), 200_000, 300, &cfg);
            assert!(a.identity_holds, "{engine:?} identity under churn: {a:?}");
            assert!(a.churn_deltas > 0, "the storm fired: {a:?}");
            assert!(a.churn_updates >= a.churn_deltas);
            assert!(a.churn_epoch_swaps > 0);
            assert_eq!(
                (a.forwarded, a.consumed, a.dropped, a.p50_ns, a.p99_ns, a.churn_deltas),
                (b.forwarded, b.consumed, b.dropped, b.p50_ns, b.p99_ns, b.churn_deltas),
                "{engine:?} must reproduce exactly under churn"
            );
        }
    }

    #[test]
    fn calibration_prices_each_class_with_its_actual_mac() {
        use dip_fnops::context::MacChoice;
        let model = TofinoModel::tofino();
        let spec = WorkloadSpec {
            mix: Mix::new(vec![(TrafficClass::Ipv4, 1), (TrafficClass::Opt, 1)]),
            ..small_spec(5)
        };
        let em = calibrate_service(&spec, &model);
        assert_ne!(
            em[&TrafficClass::Ipv4],
            em[&TrafficClass::Opt],
            "ipv4 and opt run different FN chains; their calibrated services must differ"
        );
        // An AES-configured spec pays the resubmit pass — but only on the
        // MAC-verifying class. The old hardcoded-2EM calibration priced
        // both specs identically.
        let aes = WorkloadSpec { mac_choice: MacChoice::Aes, ..spec.clone() };
        let aes = calibrate_service(&aes, &model);
        assert_eq!(
            aes[&TrafficClass::Ipv4],
            em[&TrafficClass::Ipv4],
            "ipv4 runs no MAC; the cipher choice must not move its price"
        );
        assert!(
            aes[&TrafficClass::Opt] > em[&TrafficClass::Opt],
            "AES must price OPT above 2EM (resubmit pass): {} vs {}",
            aes[&TrafficClass::Opt],
            em[&TrafficClass::Opt]
        );
    }

    #[test]
    fn reports_are_reproducible_per_seed() {
        for engine in [EngineKind::Router, EngineKind::Dataplane { workers: 2, batch_size: 8 }] {
            let cfg = OpenLoopConfig { engine, ..Default::default() };
            let spec = WorkloadSpec { mix: Mix::all(), ..small_spec(11) };
            let a = run_open_loop(&spec, 500_000, 250, &cfg);
            let b = run_open_loop(&spec, 500_000, 250, &cfg);
            assert_eq!(a.trace_hash, b.trace_hash);
            assert_eq!(
                (a.forwarded, a.consumed, a.dropped, a.p50_ns, a.p99_ns),
                (b.forwarded, b.consumed, b.dropped, b.p50_ns, b.p99_ns),
                "{engine:?} must reproduce exactly"
            );
        }
    }
}
