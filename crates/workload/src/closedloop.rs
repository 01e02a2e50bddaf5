//! Closed-loop driving: request/response rounds over the discrete-event
//! simulator, where the *response* gates the next request window.
//!
//! The open-loop driver answers "what breaks at rate X"; this one answers
//! the consumer-visible question — "do my requests come back, intact and
//! authenticated, and how long do they take end-to-end" — over a real
//! multi-hop topology with link latency, bandwidth, and (optionally)
//! scripted faults. Interests draw names from the spec's Zipf catalog;
//! NDN exchanges measure plain interest/data RTT, NDN+OPT exchanges add
//! per-packet source authentication and path validation (the `verified`
//! count). Everything — topology, arrivals, fault draws — derives from
//! the spec's seed, so a run is exactly reproducible.

use std::collections::HashMap;

use crate::models::Zipf;
use crate::trace::catalog_name;
use crate::trace::WorkloadSpec;
use dip_core::DipRouter;
use dip_crypto::DetRng;
use dip_protocols::{ndn, opt::OptSession};
use dip_routes::RouteStore;
use dip_sim::engine::{Host, Network, NodeId};
use dip_sim::FaultConfig;
use dip_tables::fib::NextHop;

/// Stream separator for closed-loop request draws.
const CLOSED_STREAM: u64 = 0x636c_6f73_6564_6c70;

/// Which request/response exchange the consumer runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Plain NDN interest/data.
    Ndn,
    /// NDN+OPT: data packets carry the source-auth + path-validation
    /// chain and the consumer verifies each one.
    NdnOpt,
}

/// Closed-loop driver knobs.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// The exchange under test.
    pub exchange: ExchangeKind,
    /// Total requests to issue.
    pub requests: usize,
    /// Outstanding requests per window (distinct names within a window,
    /// so interest aggregation never hides completions).
    pub concurrency: usize,
    /// Routers on the consumer→producer chain.
    pub routers: usize,
    /// Per-link propagation latency.
    pub link_latency_ns: u64,
    /// Faults applied to the last-hop (router→producer) link — both the
    /// interest and the returning data cross it.
    pub faults: FaultConfig,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            exchange: ExchangeKind::Ndn,
            requests: 64,
            concurrency: 8,
            routers: 3,
            link_latency_ns: 20_000,
            faults: FaultConfig::reliable(),
        }
    }
}

/// What the consumer saw.
#[derive(Debug, Clone)]
pub struct ClosedLoopReport {
    /// Interests issued.
    pub requests: u64,
    /// Data packets that came back.
    pub completed: u64,
    /// Completions that also passed host verification (NDN+OPT).
    pub verified: u64,
    /// Median window-to-delivery RTT.
    pub p50_rtt_ns: u64,
    /// 99th-percentile window-to-delivery RTT.
    pub p99_rtt_ns: u64,
    /// Virtual time when the run ended.
    pub sim_end_ns: u64,
}

impl ClosedLoopReport {
    /// Fraction of requests answered.
    pub fn completion_frac(&self) -> f64 {
        if self.requests == 0 {
            1.0
        } else {
            self.completed as f64 / self.requests as f64
        }
    }
}

/// Exact percentile of a sorted sample (nearest-rank interpolation).
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs `cfg.requests` Zipf-drawn exchanges of `spec`'s catalog over a
/// consumer — chain-of-routers — producer topology.
pub fn run_closed_loop(spec: &WorkloadSpec, cfg: &ClosedLoopConfig) -> ClosedLoopReport {
    let routers = cfg.routers.max(1);
    let secrets: Vec<[u8; 16]> = (0..routers).map(|i| [i as u8 + 1; 16]).collect();
    // Data flows producer → last router → … → first router → consumer,
    // so the session's key chain lists the router secrets in that order.
    let data_path: Vec<[u8; 16]> = secrets.iter().rev().copied().collect();
    let session = OptSession::establish([0xEE; 16], &[9; 16], &data_path);

    let mut contents = HashMap::new();
    for i in 0..spec.catalog_size.max(1) {
        let mut body = format!("content-{i}").into_bytes();
        body.resize(spec.payload_len.max(8), 0x77);
        contents.insert(catalog_name(i).compact32(), body);
    }

    let (consumer_host, producer_host) = match cfg.exchange {
        ExchangeKind::Ndn => (Host::consumer(100), Host::producer(200, contents)),
        ExchangeKind::NdnOpt => (
            Host::verifying_consumer(100, session.host_context()),
            Host::secure_producer(200, contents, session.clone()),
        ),
    };

    let mut net = Network::new(spec.seed);
    let consumer = net.add_host(consumer_host);
    let producer = net.add_host(producer_host);
    let router_ids: Vec<NodeId> = secrets
        .iter()
        .enumerate()
        .map(|(i, s)| net.add_router(DipRouter::new(i as u64 + 1, *s)))
        .collect();
    net.connect(consumer, 0, router_ids[0], 0, cfg.link_latency_ns);
    for w in router_ids.windows(2) {
        net.connect(w[0], 1, w[1], 0, cfg.link_latency_ns);
    }
    net.connect_with(
        router_ids[routers - 1],
        1,
        producer,
        0,
        cfg.link_latency_ns,
        10_000_000_000,
        cfg.faults.clone(),
    );
    let mut routes = RouteStore::new();
    for i in 0..spec.catalog_size.max(1) {
        routes.insert_name(&catalog_name(i), NextHop::port(1));
    }
    let tables = routes.rebuild();
    for &r in &router_ids {
        net.router_mut(r).expect("chain node is a router").state_mut().routes = tables.clone();
    }

    let mut rng = DetRng::seed_from_u64(spec.seed ^ CLOSED_STREAM);
    let zipf = Zipf::new(spec.catalog_size.max(1), spec.zipf_s);
    let mut rtts: Vec<u64> = Vec::new();
    let mut counter = 0u64;
    let (mut issued, mut completed, mut verified, mut seen) = (0usize, 0u64, 0u64, 0usize);
    while issued < cfg.requests {
        let window = cfg.concurrency.clamp(1, spec.catalog_size.max(1)).min(cfg.requests - issued);
        // Distinct names within a window: a duplicate would aggregate in
        // the PIT and make "one request, one data" accounting ambiguous.
        let mut names: Vec<usize> = Vec::with_capacity(window);
        let mut attempts = 0;
        while names.len() < window && attempts < window * 64 {
            attempts += 1;
            let idx = zipf.sample(&mut rng);
            if !names.contains(&idx) {
                names.push(idx);
            }
        }
        while names.len() < window {
            // Zipf is so skewed the rejection loop starved: fall back to
            // round-robin fill so the window always reaches its size.
            let idx = (names.len() + attempts) % spec.catalog_size.max(1);
            if !names.contains(&idx) {
                names.push(idx);
            }
            attempts += 1;
        }
        let base = net.now();
        for (k, idx) in names.iter().enumerate() {
            counter += 1;
            let mut nonce_salt = vec![0u8; 8];
            nonce_salt.copy_from_slice(&counter.to_be_bytes());
            let pkt = ndn::interest(&catalog_name(*idx), 64)
                .to_bytes(&nonce_salt)
                .expect("well-formed interest");
            net.send(consumer, 0, pkt, base + k as u64 * 1_000);
        }
        net.run();
        let host = net.host(consumer).expect("consumer is a host");
        for d in &host.delivered[seen..] {
            completed += 1;
            if d.verified {
                verified += 1;
            }
            rtts.push(d.time.saturating_sub(base));
        }
        seen = host.delivered.len();
        issued += window;
    }

    rtts.sort_unstable();
    ClosedLoopReport {
        requests: issued as u64,
        completed,
        verified,
        p50_rtt_ns: percentile(&rtts, 0.50),
        p99_rtt_ns: percentile(&rtts, 0.99),
        sim_end_ns: net.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec { seed: 5, catalog_size: 32, payload_len: 24, ..Default::default() }
    }

    #[test]
    fn ndn_exchanges_all_complete_on_reliable_links() {
        let cfg = ClosedLoopConfig { requests: 24, concurrency: 4, ..Default::default() };
        let r = run_closed_loop(&spec(), &cfg);
        assert_eq!(r.requests, 24);
        assert_eq!(r.completed, 24, "reliable chain answers everything: {r:?}");
        assert!(r.p99_rtt_ns >= r.p50_rtt_ns && r.p50_rtt_ns > 0);
        // 3 routers + 4 links at 20 µs: one round trip is ≥ 160 µs.
        assert!(r.p50_rtt_ns >= 8 * 20_000, "RTT reflects the topology: {r:?}");
    }

    #[test]
    fn ndn_opt_exchanges_verify_end_to_end() {
        let cfg = ClosedLoopConfig {
            exchange: ExchangeKind::NdnOpt,
            requests: 16,
            concurrency: 4,
            ..Default::default()
        };
        let r = run_closed_loop(&spec(), &cfg);
        assert_eq!(r.completed, 16, "{r:?}");
        assert_eq!(r.verified, r.completed, "every data packet authenticates: {r:?}");
    }

    #[test]
    fn lossy_last_hop_degrades_completion_deterministically() {
        let cfg = ClosedLoopConfig {
            requests: 30,
            concurrency: 5,
            faults: FaultConfig::lossy(90.0),
            ..Default::default()
        };
        let a = run_closed_loop(&spec(), &cfg);
        let b = run_closed_loop(&spec(), &cfg);
        assert!(a.completed < a.requests, "90% loss must lose something: {a:?}");
        assert_eq!(a.completed, b.completed, "fault draws are seeded");
        assert_eq!(a.p99_rtt_ns, b.p99_rtt_ns);
    }
}
