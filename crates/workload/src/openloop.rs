//! Open-loop replay: offer a seeded trace to one router, in order, and
//! price every packet with the PISA pipeline model.
//!
//! There is no queue and no clock. Each packet of the trace runs through a
//! real [`DipRouter`](dip_core::DipRouter) built by
//! [`WorkloadSpec::build_router`], so verdict counts are real, and each is
//! priced with [`TofinoModel::process_ns`] over its own pipeline stats, at
//! the MAC the router runs. Outcomes are recorded through the shared drop
//! taxonomy, so the accounting identity
//! (`forwarded + consumed + drops == injected`) is checked on every run.
//! The prices describe the PISA model, not this software's speed;
//! `python3 benchmark/run.py` measures that.

use crate::trace::{WorkloadSpec, INGRESS_PORT};
use dip_sim::TofinoModel;
use dip_telemetry::{OutcomeCounters, Registry};

/// What one open-loop replay did with its trace.
#[derive(Debug, Clone)]
pub struct OpenLoopReport {
    /// Packets the trace offered.
    pub injected: u64,
    /// Packets forwarded.
    pub forwarded: u64,
    /// Packets consumed locally (delivered, aggregated, cache-answered).
    pub consumed: u64,
    /// Total drops, all reasons.
    pub dropped: u64,
    /// Median modeled price of one packet, ns.
    pub price_p50_ns: u64,
    /// 99th-percentile modeled price of one packet, ns.
    pub price_p99_ns: u64,
    /// Sum of the per-packet modeled prices, ns.
    pub price_sum_ns: u64,
    /// Whether `forwarded + consumed + dropped == injected`.
    pub identity_holds: bool,
    /// Rate-dependent trace fingerprint.
    pub trace_hash: u64,
    /// Rate-independent trace fingerprint.
    pub content_hash: u64,
}

/// Log-spaced price bucket bounds, 64 ns to ~1 ms at ratio 2^(1/32):
/// ≤ ~2.2% relative quantile error, well under the gap between two
/// classes' prices. The sum is exact.
fn price_bounds() -> Vec<u64> {
    let ratio = 2f64.powf(1.0 / 32.0);
    let mut bounds = Vec::new();
    let mut b = 64.0f64;
    while b < 1.1e6 {
        let v = b.round() as u64;
        if bounds.last() != Some(&v) {
            bounds.push(v);
        }
        b *= ratio;
    }
    bounds
}

/// Replays `count` packets of `spec` at `rate_pps` through one router and
/// reports its verdicts and the modeled price of the packets.
pub fn run_open_loop(spec: &WorkloadSpec, rate_pps: u64, count: usize) -> OpenLoopReport {
    let trace = spec.generate(rate_pps, count);
    let registry = Registry::new();
    let counters = OutcomeCounters::register(&registry, &[("node", "openloop")]);
    let prices = registry.histogram(
        "dip_workload_price_ns",
        "Modeled PISA price of one packet",
        &[],
        &price_bounds(),
    );
    let model = TofinoModel::tofino();
    let mut router = spec.build_router(1);
    // Price with the MAC the router actually runs (set by the spec), not a
    // hardcoded implementation.
    let mac = router.state().mac_choice;
    for p in &trace.packets {
        let mut buf = p.bytes.clone();
        let (verdict, stats) = router.process(&mut buf, INGRESS_PORT, p.at_ns);
        prices.observe(model.process_ns(&stats, p.bytes.len(), mac) as u64);
        counters.record(verdict.outcome());
    }
    let snap = registry.snapshot();
    let forwarded = snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]);
    let consumed = snap.sum_where("dip_packets_total", &[("outcome", "consumed")]);
    let dropped = snap.get("dip_drops_total");
    let injected = trace.len() as u64;
    OpenLoopReport {
        injected,
        forwarded,
        consumed,
        dropped,
        price_p50_ns: prices.quantile(0.50),
        price_p99_ns: prices.quantile(0.99),
        price_sum_ns: prices.sum(),
        identity_holds: forwarded + consumed + dropped == injected,
        trace_hash: trace.hash(),
        content_hash: trace.content_hash(),
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
    fn router_replay_holds_identity_and_prices_packets() {
        let r = run_open_loop(&small_spec(3), 100_000, 400);
        assert!(r.identity_holds, "identity: {r:?}");
        assert_eq!(r.injected, 400);
        assert!(r.price_p99_ns >= r.price_p50_ns && r.price_p50_ns > 0, "prices populated: {r:?}");
    }

    #[test]
    fn each_packet_is_priced_with_the_mac_its_router_runs() {
        use dip_fnops::context::MacChoice;
        let p50 = |class, mac_choice| {
            let spec = WorkloadSpec { mix: Mix::single(class), mac_choice, ..small_spec(5) };
            run_open_loop(&spec, 100_000, 200).price_p50_ns
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
        let spec = WorkloadSpec { mix: Mix::all(), ..small_spec(11) };
        let a = run_open_loop(&spec, 500_000, 250);
        let b = run_open_loop(&spec, 500_000, 250);
        assert_eq!(a.trace_hash, b.trace_hash);
        assert_eq!(
            (a.forwarded, a.consumed, a.dropped, a.price_p50_ns, a.price_p99_ns, a.price_sum_ns),
            (b.forwarded, b.consumed, b.dropped, b.price_p50_ns, b.price_p99_ns, b.price_sum_ns),
        );
    }
}
