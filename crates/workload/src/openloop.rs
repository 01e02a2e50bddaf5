//! Open-loop driving: offer a trace at a fixed rate to one router,
//! measure modeled latency and loss, and never let the device's behaviour
//! slow the offered load.
//!
//! Latency under overload comes from a **virtual-time queue model**, not
//! clocks: the router is an M/G/1-style server whose service times are
//! the deterministic [`TofinoModel`] pipeline costs of each packet's own
//! FN walk. Arrivals walk the trace timestamps; a packet that finds the
//! queue at capacity is an injection-side `queue_full` drop, counted
//! through the shared drop taxonomy so the accounting identity
//! (`forwarded + consumed + drops == injected`) holds on every run —
//! overloaded ones included. The packets that *are* admitted run through
//! a real [`DipRouter`](dip_core::DipRouter), so verdict counts are real,
//! while latency and drop decisions replay identically for one seed: that
//! is what makes the MST search reproducible. The latencies describe the
//! PISA model, not this software's speed; `python3 benchmark/run.py`
//! measures that.

use std::collections::VecDeque;

use crate::churn::{ChurnGen, ChurnSpec};
use crate::trace::{WorkloadSpec, INGRESS_PORT};
use dip_sim::TofinoModel;
use dip_telemetry::{DropReason, OutcomeCounters, PacketOutcome, Registry};

/// Open-loop driver knobs.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Modeled queue depth in front of the router.
    pub queue_capacity: usize,
    /// When set (and its rate is above zero), a route-update storm runs
    /// alongside the trace: deltas commit on the trace's virtual clock and
    /// are applied to the router as tables-only epoch swaps mid-run.
    pub churn: Option<ChurnSpec>,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig { queue_capacity: 1024, churn: None }
    }
}

/// What one open-loop trial measured.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// The offered rate.
    pub offered_pps: u64,
    /// Packets the trace offered.
    pub injected: u64,
    /// Packets forwarded.
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
    /// Route snapshots the router picked up.
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
fn latency_bounds() -> Vec<u64> {
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

    /// Retires the packets completed by `arrival`, then says whether a
    /// packet arriving at `arrival` finds room.
    fn has_room(&mut self, arrival: f64) -> bool {
        while self.completions.front().is_some_and(|&c| c <= arrival) {
            self.completions.pop_front();
        }
        self.completions.len() < self.capacity
    }

    /// Queues a packet behind the work in flight and returns its modeled
    /// sojourn time.
    fn admit(&mut self, arrival: f64, service_ns: f64) -> f64 {
        self.busy_until = self.busy_until.max(arrival) + service_ns;
        self.completions.push_back(self.busy_until);
        self.busy_until - arrival
    }
}

/// Offers `count` packets of `spec` at `rate_pps` to one router and
/// reports what it did with them.
pub fn run_open_loop(
    spec: &WorkloadSpec,
    rate_pps: u64,
    count: usize,
    cfg: &OpenLoopConfig,
) -> OpenLoopReport {
    let trace = spec.generate(rate_pps, count);
    let registry = Registry::new();
    let counters = OutcomeCounters::register(&registry, &[("node", "openloop")]);
    let hist = registry.histogram(
        "dip_workload_latency_ns",
        "Modeled per-packet sojourn time",
        &[],
        &latency_bounds(),
    );
    let model = TofinoModel::tofino();
    let mut router = spec.build_router(1);
    // A storm of zero updates per second is no storm: building one would
    // still install its flap pools and count an epoch swap.
    let mut churn = cfg.churn.as_ref().filter(|c| c.rate_ups > 0).map(|c| ChurnGen::new(spec, c));
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
        // Admission is decided on queue state alone, so refused packets
        // never touch the router — exactly like a full NIC ring. Admitted
        // ones are processed first: their pipeline stats price the
        // service time.
        let arrival = p.at_ns as f64;
        if !queue.has_room(arrival) {
            counters.record(PacketOutcome::Dropped(DropReason::QueueFull));
            continue;
        }
        let mut buf = p.bytes.clone();
        let (verdict, stats) = router.process(&mut buf, INGRESS_PORT, p.at_ns);
        // Price the service with the MAC the router actually runs (set by
        // the spec), not a hardcoded implementation.
        let mac = router.state().mac_choice;
        let sojourn = queue.admit(arrival, model.process_ns(&stats, p.bytes.len(), mac));
        hist.observe(sojourn as u64);
        counters.record(verdict.outcome());
    }
    let snap = registry.snapshot();
    let forwarded = snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]);
    let consumed = snap.sum_where("dip_packets_total", &[("outcome", "consumed")]);
    let dropped = snap.get("dip_drops_total");
    let injected = trace.len() as u64;
    OpenLoopReport {
        offered_pps: trace.rate_pps,
        injected,
        forwarded,
        consumed,
        dropped,
        queue_full: snap.sum_where("dip_drops_total", &[("reason", "queue_full")]),
        p50_ns: hist.quantile(0.50),
        p99_ns: hist.quantile(0.99),
        identity_holds: forwarded + consumed + dropped == injected,
        trace_hash: trace.hash(),
        content_hash: trace.content_hash(),
        churn_deltas: churn.as_ref().map_or(0, |g| g.deltas()),
        churn_updates: churn.as_ref().map_or(0, |g| g.updates()),
        churn_epoch_swaps: churn.as_ref().map_or(0, |g| g.stats().epoch_swaps),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Mix, TrafficClass};

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

    /// The churn-identity smoke: a 1M-ups storm alongside the trace must
    /// not break the accounting identity or reproducibility.
    #[test]
    fn churn_storm_preserves_identity_and_determinism() {
        let cfg =
            OpenLoopConfig { churn: Some(ChurnSpec { rate_ups: 1_000_000 }), ..Default::default() };
        let a = run_open_loop(&small_spec(7), 200_000, 300, &cfg);
        let b = run_open_loop(&small_spec(7), 200_000, 300, &cfg);
        assert!(a.identity_holds, "identity under churn: {a:?}");
        assert!(a.churn_deltas > 0, "the storm fired: {a:?}");
        assert!(a.churn_updates >= a.churn_deltas);
        assert!(a.churn_epoch_swaps > 0);
        assert_eq!(
            (a.forwarded, a.consumed, a.dropped, a.p50_ns, a.p99_ns, a.churn_deltas),
            (b.forwarded, b.consumed, b.dropped, b.p50_ns, b.p99_ns, b.churn_deltas),
            "must reproduce exactly under churn"
        );
    }

    #[test]
    fn a_zero_rate_storm_is_no_storm() {
        let quiet = run_open_loop(&small_spec(7), 200_000, 300, &OpenLoopConfig::default());
        let cfg = OpenLoopConfig { churn: Some(ChurnSpec { rate_ups: 0 }), ..Default::default() };
        let zero = run_open_loop(&small_spec(7), 200_000, 300, &cfg);
        assert_eq!(
            (zero.churn_deltas, zero.churn_updates, zero.churn_epoch_swaps),
            (0, 0, 0),
            "no flap pools installed, no epoch swapped: {zero:?}"
        );
        assert_eq!(
            (zero.forwarded, zero.consumed, zero.dropped, zero.p50_ns, zero.p99_ns),
            (quiet.forwarded, quiet.consumed, quiet.dropped, quiet.p50_ns, quiet.p99_ns)
        );
    }

    #[test]
    fn each_packet_is_priced_with_the_mac_its_router_runs() {
        use dip_fnops::context::MacChoice;
        let p50 = |class, mac_choice| {
            let spec = WorkloadSpec { mix: Mix::single(class), mac_choice, ..small_spec(5) };
            run_open_loop(&spec, 100_000, 200, &OpenLoopConfig::default()).p50_ns
        };
        // AES pays the resubmit pass, but only on the MAC-verifying class.
        let (opt_em, opt_aes) =
            (p50(TrafficClass::Opt, MacChoice::TwoRoundEm), p50(TrafficClass::Opt, MacChoice::Aes));
        assert!(opt_aes > opt_em, "AES must price OPT above 2EM: {opt_aes} vs {opt_em}");
        assert_eq!(
            p50(TrafficClass::Ipv4, MacChoice::Aes),
            p50(TrafficClass::Ipv4, MacChoice::TwoRoundEm),
            "ipv4 runs no MAC; the cipher choice must not move its price"
        );
    }

    #[test]
    fn reports_are_reproducible_per_seed() {
        let cfg = OpenLoopConfig::default();
        let spec = WorkloadSpec { mix: Mix::all(), ..small_spec(11) };
        let a = run_open_loop(&spec, 500_000, 250, &cfg);
        let b = run_open_loop(&spec, 500_000, 250, &cfg);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(
            (a.forwarded, a.consumed, a.dropped, a.p50_ns, a.p99_ns),
            (b.forwarded, b.consumed, b.dropped, b.p50_ns, b.p99_ns),
        );
    }
}
