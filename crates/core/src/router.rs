//! The per-hop packet processing loop — **Algorithm 1** of the paper.
//!
//! ```text
//! 1 parse basic DIP header (FN_Num and FN_LocLen);
//! 2 parse FN[] according to FN_Num;
//! 3 extract FN_Loc according to FN_LocLen;
//! 4 for i <- 1 to FN_Num do
//! 5   if FN[i].tag == 1 then continue;            // skip host operation
//! 9   target_field <- FN_Loc(FN[i].FieldLoc, FN[i].FieldLen);
//! 10  switch FN[i].key do ... F_FIB / F_PIT / F_parm / F_MAC / F_mark ...
//! 18 end processing;
//! ```
//!
//! plus the surrounding concerns: hop-limit handling, the §2.4 processing
//! budget, unknown-FN policy (skip vs. notify), and combining per-op
//! [`Action`]s into a routing [`Verdict`].

use crate::chain::{parse_packet, CompiledChain, ParsedPacket, Step};
use crate::control::ControlMessage;
use crate::metrics::RouterMetrics;
use dip_fnops::{Action, DropReason, FnRegistry, OpCost, PacketCtx, RouterState};
use dip_tables::{Port, Ports, Ticks};
use dip_telemetry::{PacketOutcome, Registry};
use dip_verify::ResourceBudget;
use dip_wire::triple::FnKey;
use dip_wire::DipPacket;
use std::collections::HashSet;
use std::sync::Arc;

/// What to do with a packet carrying an operation key this node has no
/// module for, when the key is not in the participation-required set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnknownFnPolicy {
    /// "Otherwise, the router can simply ignore this FN" (§2.4).
    #[default]
    Skip,
    /// Strict mode: treat every unknown FN as requiring participation.
    Notify,
}

/// Per-router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Hard per-packet processing limits (§2.4); defaults to
    /// [`ResourceBudget::router`]. Each compiled chain decides its stop
    /// against it once.
    pub budget: ResourceBudget,
    /// Policy for unknown, non-participation FNs.
    pub unknown_fn_policy: UnknownFnPolicy,
    /// Keys that "require all on-path ASes to participate" (§2.4) — a
    /// packet carrying one of these through a node that lacks the module
    /// triggers an FN-unsupported notification. Defaults to the OPT
    /// path-authentication chain.
    pub participation_keys: HashSet<u16>,
    /// Egress used when the FN chain produced no routing decision (the
    /// paper's OPT-only experiment forwards on a statically configured
    /// port). `None` delivers locally.
    pub default_port: Option<Port>,
    /// Apply the rewrites the dipopt static optimizer proves safe
    /// (`dip_verify::opt`) to each compiled plan. Off by default, which
    /// runs every program as its identity plan. Either plan goes through
    /// the same walk and stops where the program's as-written charges
    /// exhaust the budget, so verdicts and packet bytes are identical;
    /// only the timing-model cost (and the per-FN invocation counters,
    /// which no longer see eliminated ops) changes. Hoisted steps cache state derived from the router's
    /// secrets, so rotating `local_secret` requires recompiling cached
    /// chains.
    pub optimize: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            budget: ResourceBudget::router(),
            unknown_fn_policy: UnknownFnPolicy::Skip,
            participation_keys: [FnKey::Parm, FnKey::Mac, FnKey::Mark]
                .into_iter()
                .map(|k| k.to_wire())
                .collect(),
            default_port: None,
            optimize: false,
        }
    }
}

/// The router's decision for one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Forward copies on these ports.
    Forward(Ports),
    /// Deliver to the local stack.
    Deliver,
    /// Absorbed without error (e.g. aggregated interest).
    Consumed,
    /// Answer from the content store: send `data` back out the ingress
    /// (the store's own payload, shared rather than copied).
    RespondCached(Arc<[u8]>),
    /// Send a control message back toward the source (§2.4).
    Notify(ControlMessage),
    /// Discard.
    Drop(DropReason),
}

impl Verdict {
    /// Collapses the verdict into the workspace-wide accounting taxonomy:
    /// every packet is exactly one of forwarded / consumed / dropped.
    /// `Deliver`, `RespondCached`, and `Notify` all end the packet's life
    /// at this node, so they count as [`PacketOutcome::Consumed`].
    pub fn outcome(&self) -> PacketOutcome {
        match self {
            Verdict::Forward(_) => PacketOutcome::Forwarded,
            Verdict::Deliver | Verdict::Consumed | Verdict::RespondCached(_) => {
                PacketOutcome::Consumed
            }
            Verdict::Notify(_) => PacketOutcome::Consumed,
            Verdict::Drop(reason) => PacketOutcome::Dropped(*reason),
        }
    }
}

/// Accounting for one processed packet.
#[derive(Debug, Clone, Default)]
pub struct ProcessStats {
    /// Router-executed FNs.
    pub fns_executed: u32,
    /// Host-tagged FNs skipped (Algorithm 1 line 5).
    pub skipped_host: u32,
    /// Unsupported FNs skipped under [`UnknownFnPolicy::Skip`].
    pub skipped_unsupported: u32,
    /// Accumulated architecture cost.
    pub cost: OpCost,
    /// Sequential depth of the execution plan (= `fns_executed` when the
    /// parallel flag is off; possibly smaller when on).
    pub plan_depth: usize,
}

/// A DIP-capable router: forwarding state + FN registry + config.
///
/// ```
/// use dip_core::{DipRouter, Verdict};
/// use dip_fnops::RouteStore;
/// use dip_tables::fib::NextHop;
/// use dip_tables::Ports;
/// use dip_wire::ipv4::Ipv4Addr;
/// use dip_wire::packet::DipRepr;
/// use dip_wire::triple::{FnKey, FnTriple};
///
/// // Routes go into a store, which compiles the tables the router reads.
/// let mut routes = RouteStore::new();
/// routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
/// let mut router = DipRouter::new(1, [7; 16]);
/// router.state_mut().routes = routes.rebuild();
///
/// // The §3 DIP-32 header: dst || src in the locations, two FN triples.
/// let repr = DipRepr {
///     fns: vec![
///         FnTriple::router(0, 32, FnKey::Match32),
///         FnTriple::router(32, 32, FnKey::Source),
///     ],
///     locations: vec![10, 1, 2, 3, 192, 168, 0, 1],
///     ..Default::default()
/// };
/// let mut buf = repr.to_bytes(b"payload").unwrap();
/// let (verdict, stats) = router.process(&mut buf, /*in_port*/ 0, /*now*/ 0);
/// assert_eq!(verdict, Verdict::Forward(Ports::one(3)));
/// assert_eq!(stats.fns_executed, 2);
/// ```
pub struct DipRouter {
    state: RouterState,
    registry: FnRegistry,
    config: RouterConfig,
    metrics: Option<RouterMetrics>,
}

impl DipRouter {
    /// A router with the standard registry and default config.
    pub fn new(node_id: u64, local_secret: dip_crypto::Block) -> Self {
        DipRouter {
            state: RouterState::new(node_id, local_secret),
            registry: FnRegistry::standard(),
            config: RouterConfig::default(),
            metrics: None,
        }
    }

    /// Wires this router to a telemetry [`Registry`]: verdict counters,
    /// execute-latency histogram, per-FN invocation counters, the PIT's
    /// expired-eviction counter and the content store's LRU-eviction
    /// counter (for the store enabled now or at any later time), all under
    /// `labels`.
    ///
    /// Until called, processing records nothing and takes no `Instant`
    /// samples. Once called, verdicts and FN invocations are tallied per
    /// packet and published by [`flush_metrics`](DipRouter::flush_metrics).
    pub fn attach_metrics(&mut self, registry: &Registry, labels: &[(&str, &str)]) {
        self.state.pit.set_eviction_counter(registry.counter(
            "dip_pit_expired_evictions_total",
            "PIT entries removed because their lifetime elapsed",
            labels,
        ));
        self.state.set_cs_eviction_counter(registry.counter(
            "dip_cs_evictions_total",
            "Content-store entries displaced by LRU to hold the capacity bound",
            labels,
        ));
        self.metrics = Some(RouterMetrics::new(registry, labels));
    }

    /// Replaces the registry (heterogeneous AS configurations, §2.4).
    pub fn with_registry(mut self, registry: FnRegistry) -> Self {
        self.registry = registry;
        self
    }

    /// Replaces the configuration.
    pub fn with_config(mut self, config: RouterConfig) -> Self {
        self.config = config;
        self
    }

    /// Forwarding state access.
    pub fn state(&self) -> &RouterState {
        &self.state
    }

    /// Mutable forwarding state access (route installation etc.).
    pub fn state_mut(&mut self) -> &mut RouterState {
        &mut self.state
    }

    /// Registry access.
    pub fn registry(&self) -> &FnRegistry {
        &self.registry
    }

    /// Mutable registry access (runtime FN upgrades, §5).
    pub fn registry_mut(&mut self) -> &mut FnRegistry {
        &mut self.registry
    }

    /// Config access.
    pub fn config(&self) -> &RouterConfig {
        &self.config
    }

    /// Mutable config access (dynamic policy, §2.4).
    pub fn config_mut(&mut self) -> &mut RouterConfig {
        &mut self.config
    }

    /// Processes one packet in place (tags in the FN locations area are
    /// updated in the buffer) and returns the verdict plus accounting.
    ///
    /// `buf` must contain the full packet; `in_port` is the ingress.
    ///
    /// This is `parse → compile → execute`: the heavy lifting lives in
    /// [`process_parsed`](DipRouter::process_parsed), which batching
    /// runtimes call directly with a cached [`CompiledChain`]. It is a
    /// batch of one: with metrics attached it times the execute call and
    /// flushes, so the registry is current after every call.
    pub fn process(
        &mut self,
        buf: &mut [u8],
        in_port: Port,
        now: Ticks,
    ) -> (Verdict, ProcessStats) {
        // Lines 1–3: parse basic header, triples, locations.
        let Some(parsed) = parse_packet(buf) else {
            let refused = self.refuse(DropReason::MalformedField);
            self.flush_metrics(0, 0);
            return refused;
        };
        let chain =
            CompiledChain::compile(&parsed, &self.registry, &self.config, self.config.optimize);
        // Take the Instant only when someone is listening: unattached
        // routers must not pay a clock read per packet.
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let out = self.process_parsed(buf, &parsed, &chain, in_port, now);
        if let Some(start) = start {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.flush_metrics(ns, 1);
        }
        out
    }

    /// Drops a packet that never reaches execution — it does not parse, or
    /// admission refused its program — and tallies the drop verdict like
    /// any processed packet's. Every front end refuses through here, so
    /// the verdict counters account for every packet a router was handed.
    pub fn refuse(&mut self, reason: DropReason) -> (Verdict, ProcessStats) {
        let verdict = Verdict::Drop(reason);
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.tally_verdict(&verdict);
        }
        (verdict, ProcessStats::default())
    }

    /// Lines 4–18 of Algorithm 1: executes an already parsed packet
    /// through an already compiled chain.
    ///
    /// `parsed` must describe `buf` and `chain` must have been compiled
    /// from `parsed.triples` against this router's registry and config —
    /// [`process`](DipRouter::process) is the reference pairing; debug
    /// builds check the budget. The
    /// batched dataplane caches the chain per program and calls this once
    /// per packet, amortizing registry lookups and the §2.2 plan across
    /// the batch.
    ///
    /// With metrics attached the verdict and every executed FN are
    /// tallied in the router, not yet published: callers that drive this
    /// directly publish with [`flush_metrics`](DipRouter::flush_metrics).
    /// No clock is read here.
    pub fn process_parsed(
        &mut self,
        buf: &mut [u8],
        parsed: &ParsedPacket,
        chain: &CompiledChain,
        in_port: Port,
        now: Ticks,
    ) -> (Verdict, ProcessStats) {
        debug_assert_eq!(chain.budget, self.config.budget, "chain compiled under another budget");
        let (verdict, stats) = self.process_parsed_inner(buf, parsed, chain, in_port, now);
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.tally_verdict(&verdict);
        }
        (verdict, stats)
    }

    /// Publishes the verdicts and FN invocations tallied since the last
    /// flush and, when `packets > 0`, observes `dip_router_execute_ns` once
    /// at `exec_ns ÷ packets` — the mean execute time of the `packets` the
    /// caller timed together. The dataplane calls this once per batch;
    /// [`process`](DipRouter::process) once per packet. A no-op without
    /// [`attach_metrics`](DipRouter::attach_metrics).
    pub fn flush_metrics(&mut self, exec_ns: u64, packets: u64) {
        if let Some(metrics) = self.metrics.as_mut() {
            metrics.flush(exec_ns, packets);
        }
    }

    fn process_parsed_inner(
        &mut self,
        buf: &mut [u8],
        parsed: &ParsedPacket,
        chain: &CompiledChain,
        in_port: Port,
        now: Ticks,
    ) -> (Verdict, ProcessStats) {
        let mut stats = ProcessStats::default();

        // Hop limit.
        {
            let mut pkt = DipPacket::new_unchecked(&mut buf[..]);
            if pkt.decrement_hop_limit().is_none() {
                return (Verdict::Drop(DropReason::HopLimitExceeded), stats);
            }
        }

        // Split borrow: mutable locations + immutable payload.
        let (head, payload) = buf.split_at_mut(parsed.header_len);
        let locations = &mut head[parsed.loc_start..];
        let payload: &[u8] = payload;
        let mut ctx = PacketCtx::new(locations, payload, in_port, now);

        // Plan depth (timing model input; execution stays in order).
        stats.plan_depth = chain.plan_depth(parsed.parallel);

        // Lines 4–17: the FN chain, up to the budget stop.
        let steps = &chain.steps[..chain.stop.unwrap_or(chain.steps.len())];
        let mut decision: Option<Verdict> = None;
        for step in steps {
            let (triple, op, cost, hoist) = match step {
                Step::Host => {
                    stats.skipped_host += 1;
                    continue;
                }
                Step::Unsupported { notify: true, key, index } => {
                    return (
                        Verdict::Notify(ControlMessage::FnUnsupported {
                            key: *key,
                            node_id: self.state.node_id,
                            fn_index: *index as u8,
                        }),
                        stats,
                    );
                }
                Step::Unsupported { notify: false, .. } => {
                    stats.skipped_unsupported += 1;
                    continue;
                }
                Step::Run { triple, op, cost, hoist, .. } => (triple, op, *cost, *hoist),
            };
            stats.fns_executed += 1;
            stats.cost = stats.cost + cost;
            if let Some(metrics) = self.metrics.as_mut() {
                metrics.tally_op(triple.key);
            }
            let hoisted = hoist
                .and_then(|slot| chain.hoists[slot].get_or_init(|| op.hoist(&self.state)).as_ref());
            let action = match hoisted {
                Some(h) => op.execute_hoisted(triple, &mut self.state, &mut ctx, h),
                None => op.execute(triple, &mut self.state, &mut ctx),
            };
            match action {
                Action::Continue => {}
                Action::Forward(p) => {
                    decision.get_or_insert(Verdict::Forward(Ports::one(p)));
                }
                Action::ForwardMulti(ps) => {
                    decision.get_or_insert(Verdict::Forward(ps));
                }
                Action::Deliver => {
                    decision.get_or_insert(Verdict::Deliver);
                }
                Action::Consumed => {
                    decision.get_or_insert(Verdict::Consumed);
                }
                Action::RespondCached(data) => {
                    return (Verdict::RespondCached(data), stats);
                }
                Action::Drop(reason) => {
                    return (Verdict::Drop(reason), stats);
                }
            }
        }
        if chain.stop.is_some() {
            return (Verdict::Drop(DropReason::ProcessingBudgetExceeded), stats);
        }

        // A rewritten plan runs strictly in order and its eliminated ops no
        // longer occupy stages, so its depth is what actually ran (ratio 1
        // in the timing model — no double discount on top of the fused
        // stage costs).
        if chain.opt_summary().is_some() {
            stats.plan_depth = stats.fns_executed as usize;
        }

        // Line 18: end processing.
        let verdict = decision.unwrap_or(match self.config.default_port {
            Some(p) => Verdict::Forward(Ports::one(p)),
            None => Verdict::Deliver,
        });
        (verdict, stats)
    }
}

impl std::fmt::Debug for DipRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DipRouter")
            .field("state", &self.state)
            .field("registry", &self.registry)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_fnops::RouteStore;
    use dip_tables::fib::NextHop;
    use dip_wire::ipv4::Ipv4Addr;
    use dip_wire::packet::DipRepr;
    use dip_wire::triple::FnTriple;

    fn dip32_packet(dst: [u8; 4], src: [u8; 4]) -> Vec<u8> {
        let mut locations = dst.to_vec();
        locations.extend_from_slice(&src);
        DipRepr {
            fns: vec![
                FnTriple::router(0, 32, FnKey::Match32),
                FnTriple::router(32, 32, FnKey::Source),
            ],
            locations,
            ..Default::default()
        }
        .to_bytes(b"payload")
        .unwrap()
    }

    #[test]
    fn dip32_forwarding_end_to_end() {
        let mut r = DipRouter::new(1, [1; 16]);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
        r.state_mut().routes = routes.rebuild();
        let mut pkt = dip32_packet([10, 1, 2, 3], [192, 168, 0, 1]);
        let (verdict, stats) = r.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Forward(Ports::one(3)));
        assert_eq!(stats.fns_executed, 2);
        // Hop limit was decremented in the buffer.
        assert_eq!(pkt[3], 63);
    }

    #[test]
    fn hop_limit_zero_drops() {
        let mut r = DipRouter::new(1, [1; 16]);
        let mut pkt = dip32_packet([10, 1, 2, 3], [0; 4]);
        pkt[3] = 0;
        let (verdict, _) = r.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Drop(DropReason::HopLimitExceeded));
    }

    #[test]
    fn truncated_packet_is_malformed() {
        let mut r = DipRouter::new(1, [1; 16]);
        let pkt = dip32_packet([10, 1, 2, 3], [0; 4]);
        let mut short = pkt[..10].to_vec();
        let (verdict, _) = r.process(&mut short, 0, 0);
        assert_eq!(verdict, Verdict::Drop(DropReason::MalformedField));
    }

    #[test]
    fn host_tagged_fns_are_skipped() {
        let mut r = DipRouter::new(1, [1; 16]);
        r.config_mut().default_port = Some(9);
        let repr = DipRepr {
            fns: vec![FnTriple::host(0, 544, FnKey::Ver)],
            locations: vec![0u8; 68],
            ..Default::default()
        };
        let mut pkt = repr.to_bytes(&[]).unwrap();
        let (verdict, stats) = r.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Forward(Ports::one(9)));
        assert_eq!(stats.skipped_host, 1);
        assert_eq!(stats.fns_executed, 0);
    }

    #[test]
    fn unsupported_participation_fn_notifies() {
        // A router lacking a module cannot ask that module anything, so
        // notify-or-skip is `participation_keys` alone. The default names
        // the OPT path-authentication chain (§2.4).
        for (key, notify) in [
            (FnKey::Parm, true),
            (FnKey::Mac, true),
            (FnKey::Mark, true),
            (FnKey::Match32, false),
            (FnKey::Fib, false),
            (FnKey::Pit, false),
        ] {
            let mut r = DipRouter::new(7, [1; 16]).with_registry(FnRegistry::empty());
            r.config_mut().default_port = Some(2);
            let repr = DipRepr {
                fns: vec![FnTriple::host(0, 32, FnKey::Ver), FnTriple::router(128, 128, key)],
                locations: vec![0u8; 68],
                ..Default::default()
            };
            let mut pkt = repr.to_bytes(&[]).unwrap();
            let (verdict, stats) = r.process(&mut pkt, 0, 0);
            if notify {
                let expected =
                    ControlMessage::FnUnsupported { key: key.to_wire(), node_id: 7, fn_index: 1 };
                assert_eq!(verdict, Verdict::Notify(expected), "{key:?}");
            } else {
                assert_eq!(verdict, Verdict::Forward(Ports::one(2)), "{key:?}");
                assert_eq!(stats.skipped_unsupported, 1, "{key:?}");
            }
        }
    }

    #[test]
    fn unsupported_optional_fn_skipped() {
        let mut r =
            DipRouter::new(1, [1; 16]).with_registry(FnRegistry::with_keys(&[FnKey::Match32]));
        r.config_mut().default_port = Some(2);
        let repr = DipRepr {
            fns: vec![FnTriple::router(0, 32, FnKey::Other(0x200))],
            locations: vec![0u8; 4],
            ..Default::default()
        };
        let mut pkt = repr.to_bytes(&[]).unwrap();
        let (verdict, stats) = r.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Forward(Ports::one(2)));
        assert_eq!(stats.skipped_unsupported, 1);
    }

    #[test]
    fn notify_policy_rejects_any_unknown() {
        let mut r = DipRouter::new(1, [1; 16]);
        r.config_mut().unknown_fn_policy = UnknownFnPolicy::Notify;
        let repr = DipRepr {
            fns: vec![FnTriple::router(0, 32, FnKey::Other(0x200))],
            locations: vec![0u8; 4],
            ..Default::default()
        };
        let mut pkt = repr.to_bytes(&[]).unwrap();
        let (verdict, _) = r.process(&mut pkt, 0, 0);
        assert!(matches!(verdict, Verdict::Notify(_)));
    }

    #[test]
    fn budget_exceeded_drops() {
        let mut r = DipRouter::new(1, [1; 16]);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
        r.state_mut().routes = routes.rebuild();
        r.config_mut().budget = ResourceBudget { max_fns: 1, ..ResourceBudget::unconstrained() };
        let mut pkt = dip32_packet([10, 1, 2, 3], [0; 4]);
        let (verdict, stats) = r.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Drop(DropReason::ProcessingBudgetExceeded));
        assert_eq!(stats.fns_executed, 1, "the match ran, the source did not");
    }

    #[test]
    fn a_budget_change_applies_to_the_next_packet() {
        // `process` compiles per packet, so each chain sees the budget the
        // router holds when the packet arrives.
        for optimize in [false, true] {
            let mut r = DipRouter::new(1, [1; 16]);
            r.config_mut().optimize = optimize;
            let mut routes = RouteStore::new();
            routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
            r.state_mut().routes = routes.rebuild();
            let mut verdict_under = |budget: ResourceBudget| {
                r.config_mut().budget = budget;
                r.process(&mut dip32_packet([10, 1, 2, 3], [0; 4]), 0, 0).0
            };
            let forward = Verdict::Forward(Ports::one(3));
            let over = Verdict::Drop(DropReason::ProcessingBudgetExceeded);
            let tight = ResourceBudget { max_fns: 1, ..ResourceBudget::router() };
            assert_eq!(verdict_under(ResourceBudget::router()), forward);
            assert_eq!(verdict_under(tight), over, "tightened");
            assert_eq!(verdict_under(ResourceBudget::router()), forward, "relaxed");
            let shallow = ResourceBudget { max_stages: 1, ..ResourceBudget::router() };
            assert_eq!(verdict_under(shallow), over, "optimize = {optimize}");
            assert_eq!(verdict_under(ResourceBudget::unconstrained()), forward);
        }
    }

    #[test]
    fn first_decision_is_sticky() {
        // Two match FNs pointing at different FIB entries: the first wins.
        let mut r = DipRouter::new(1, [1; 16]);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        routes.insert_v4(Ipv4Addr::new(20, 0, 0, 0), 8, NextHop::port(2));
        r.state_mut().routes = routes.rebuild();
        let mut locations = vec![10, 0, 0, 1];
        locations.extend_from_slice(&[20, 0, 0, 1]);
        let repr = DipRepr {
            fns: vec![
                FnTriple::router(0, 32, FnKey::Match32),
                FnTriple::router(32, 32, FnKey::Match32),
            ],
            locations,
            ..Default::default()
        };
        let mut pkt = repr.to_bytes(&[]).unwrap();
        let (verdict, stats) = r.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Forward(Ports::one(1)));
        assert_eq!(stats.fns_executed, 2); // later ops still ran
    }

    #[test]
    fn empty_fn_chain_uses_default() {
        let mut r = DipRouter::new(1, [1; 16]);
        let repr = DipRepr::default();
        let mut pkt = repr.to_bytes(b"x").unwrap();
        let (verdict, _) = r.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Deliver);
    }

    #[test]
    fn attached_metrics_count_verdicts_ops_and_latency() {
        let registry = dip_telemetry::Registry::new();
        let mut r = DipRouter::new(1, [1; 16]);
        r.attach_metrics(&registry, &[("node", "1")]);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
        r.state_mut().routes = routes.rebuild();

        let mut routed = dip32_packet([10, 1, 2, 3], [192, 168, 0, 1]);
        assert_eq!(r.process(&mut routed, 0, 0).0, Verdict::Forward(Ports::one(3)));
        let mut unrouted = dip32_packet([99, 1, 2, 3], [192, 168, 0, 1]);
        assert!(matches!(r.process(&mut unrouted, 0, 0).0, Verdict::Drop(_)));

        let snap = registry.snapshot();
        assert_eq!(snap.sum_where("dip_router_verdicts_total", &[("verdict", "forward")]), 1);
        assert_eq!(snap.sum_where("dip_router_verdicts_total", &[("verdict", "drop")]), 1);
        // Match32 ran on both packets, Source only on the routed one (the
        // unrouted packet dropped at the match stage).
        assert_eq!(snap.sum_where("dip_fn_invocations_total", &[("fn", "Match32")]), 2);
        assert_eq!(snap.sum_where("dip_fn_invocations_total", &[("fn", "Source")]), 1);
        // Two process() calls -> two latency observations.
        assert_eq!(snap.get("dip_router_execute_ns_count"), 2);
        assert_eq!(
            snap.get("dip_router_verdicts_total"),
            2,
            "each packet gets exactly one verdict"
        );
    }

    #[test]
    fn counters_move_on_every_process_call() {
        // The simulator and the control node read the registry between
        // packets, so `process` must publish what each call tallied.
        let registry = dip_telemetry::Registry::new();
        let mut r = DipRouter::new(1, [1; 16]);
        r.attach_metrics(&registry, &[("node", "1")]);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
        r.state_mut().routes = routes.rebuild();
        let mut malformed = vec![0xff; 3];
        for n in 1..=6u64 {
            if n % 3 == 0 {
                assert_eq!(
                    r.process(&mut malformed, 0, 0).0,
                    Verdict::Drop(DropReason::MalformedField)
                );
            } else {
                let mut pkt = dip32_packet([10, 1, 2, 3], [192, 168, 0, 1]);
                assert_eq!(r.process(&mut pkt, 0, 0).0, Verdict::Forward(Ports::one(3)));
            }
            let snap = registry.snapshot();
            let parsed = n - n / 3;
            assert_eq!(snap.get("dip_router_verdicts_total"), n, "after packet {n}");
            assert_eq!(snap.sum_where("dip_router_verdicts_total", &[("verdict", "drop")]), n / 3);
            assert_eq!(snap.sum_where("dip_fn_invocations_total", &[("fn", "Match32")]), parsed);
            // One latency observation per executed packet; a packet that
            // never parsed is counted but not timed.
            assert_eq!(snap.get("dip_router_execute_ns_count"), parsed, "after packet {n}");
        }
    }

    #[test]
    fn process_parsed_tallies_until_the_caller_flushes() {
        let registry = dip_telemetry::Registry::new();
        let mut r = DipRouter::new(1, [1; 16]);
        r.attach_metrics(&registry, &[]);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
        r.state_mut().routes = routes.rebuild();
        let mut pkt = dip32_packet([10, 1, 2, 3], [192, 168, 0, 1]);
        let parsed = parse_packet(&pkt).unwrap();
        let chain = CompiledChain::compile(&parsed, r.registry(), r.config(), false);
        for _ in 0..3 {
            let mut buf = pkt.clone();
            r.process_parsed(&mut buf, &parsed, &chain, 0, 0);
        }
        r.refuse(DropReason::ProgramRejected);
        let snap = registry.snapshot();
        assert_eq!(snap.get("dip_router_verdicts_total"), 0, "nothing published before a flush");
        assert_eq!(snap.get("dip_fn_invocations_total"), 0);
        r.flush_metrics(4_000, 4);
        let snap = registry.snapshot();
        assert_eq!(snap.sum_where("dip_router_verdicts_total", &[("verdict", "forward")]), 3);
        assert_eq!(snap.sum_where("dip_router_verdicts_total", &[("verdict", "drop")]), 1);
        assert_eq!(snap.get("dip_fn_invocations_total"), 6, "Match32 + Source on three packets");
        assert_eq!(snap.get("dip_router_execute_ns_count"), 1, "one observation per flush");
        assert_eq!(snap.get("dip_router_execute_ns_sum"), 1_000, "at the flush's mean");
        // A second flush publishes only what arrived since.
        r.process_parsed(&mut pkt, &parsed, &chain, 0, 0);
        r.flush_metrics(0, 0);
        let snap = registry.snapshot();
        assert_eq!(snap.get("dip_router_verdicts_total"), 5);
        assert_eq!(snap.get("dip_router_execute_ns_count"), 1, "packets = 0 observes nothing");
    }

    /// An NDN packet of one 32-bit-name FN (`Fib` for an interest, `Pit`
    /// for data), as `dip_protocols::ndn` builds them.
    fn ndn_packet(key: FnKey, name: &dip_wire::ndn::Name, payload: &[u8]) -> Vec<u8> {
        DipRepr {
            fns: vec![FnTriple::router(0, 32, key)],
            locations: name.compact32().to_be_bytes().to_vec(),
            ..Default::default()
        }
        .to_bytes(payload)
        .unwrap()
    }

    #[test]
    fn data_fans_out_to_a_spilled_face_set_and_cache_hits_share_the_payload() {
        let name = dip_wire::ndn::Name::parse("/dip/video/7");
        let mut r = DipRouter::new(1, [1; 16]);
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(9));
        r.state_mut().routes = routes.rebuild();
        r.state_mut().enable_content_store(4);
        // Five faces ask (distinct payloads, so distinct nonces): the first
        // interest goes upstream, the other four aggregate — one past the
        // inline width.
        let faces = [6, 2, 8, 4, 5];
        for (i, face) in faces.into_iter().enumerate() {
            let mut interest = ndn_packet(FnKey::Fib, &name, &[i as u8]);
            let expected = if i == 0 { Verdict::Forward(Ports::one(9)) } else { Verdict::Consumed };
            assert_eq!(r.process(&mut interest, face, 0).0, expected, "interest from face {face}");
        }
        let mut data = ndn_packet(FnKey::Pit, &name, b"the content");
        let (verdict, _) = r.process(&mut data, 9, 10);
        assert_eq!(verdict, Verdict::Forward(Ports::from(faces.to_vec())), "all five, in order");
        let Verdict::Forward(ports) = &verdict else { unreachable!() };
        assert_eq!(**ports, faces);
        // The next interest is answered from the store with the stored
        // bytes, and the entry keeps them.
        let mut again = ndn_packet(FnKey::Fib, &name, b"again");
        let (verdict, _) = r.process(&mut again, 3, 20);
        let Verdict::RespondCached(bytes) = verdict else { panic!("expected a cache hit") };
        assert_eq!(&*bytes, b"the content");
        let stored = r.state().content_store.as_ref().unwrap().peek(&name.compact32()).unwrap();
        assert_eq!(&**stored, b"the content");
        assert!(Arc::ptr_eq(&bytes, stored), "the answer shares the stored payload");
    }

    #[test]
    fn cs_evictions_are_exported_whichever_way_round_the_store_is_enabled() {
        for enable_first in [true, false] {
            let registry = dip_telemetry::Registry::new();
            let mut r = DipRouter::new(1, [1; 16]);
            if enable_first {
                r.state_mut().enable_content_store(1);
                r.attach_metrics(&registry, &[]);
            } else {
                r.attach_metrics(&registry, &[]);
                r.state_mut().enable_content_store(1);
            }
            let cs = r.state_mut().content_store.as_mut().unwrap();
            cs.insert(1, vec![1].into(), 0);
            assert_eq!(cs.insert(2, vec![2].into(), 0), Some(1));
            assert_eq!(
                registry.snapshot().get("dip_cs_evictions_total"),
                1,
                "enable_first = {enable_first}"
            );
            // Re-enabling (a resize) keeps the wiring too.
            r.state_mut().enable_content_store(1);
            let cs = r.state_mut().content_store.as_mut().unwrap();
            cs.insert(3, vec![3].into(), 0);
            cs.insert(4, vec![4].into(), 0);
            assert_eq!(registry.snapshot().get("dip_cs_evictions_total"), 2);
        }
    }

    #[test]
    fn verdict_outcome_taxonomy() {
        use dip_telemetry::PacketOutcome;
        assert_eq!(Verdict::Forward(Ports::one(1)).outcome(), PacketOutcome::Forwarded);
        assert_eq!(Verdict::Deliver.outcome(), PacketOutcome::Consumed);
        assert_eq!(Verdict::Consumed.outcome(), PacketOutcome::Consumed);
        assert_eq!(
            Verdict::RespondCached(Arc::from(Vec::new())).outcome(),
            PacketOutcome::Consumed
        );
        assert_eq!(
            Verdict::Drop(DropReason::NoRoute).outcome(),
            PacketOutcome::Dropped(DropReason::NoRoute)
        );
    }

    #[test]
    fn optimized_xia_chain_runs_one_fn_with_the_fused_model() {
        use dip_tables::XiaNextHop;
        use dip_wire::xia::{Dag, DagNode, Xid, XidType};
        let dag = Dag::direct_with_fallback(
            DagNode::sink(XidType::Cid, Xid::derive(b"the-content")),
            Xid::derive(b"ad-1"),
            Xid::derive(b"host-1"),
        )
        .unwrap();
        let repr = DipRepr {
            fns: vec![
                FnTriple::router(0, dag.encoded_bits(), FnKey::Dag),
                FnTriple::router(0, dag.encoded_bits(), FnKey::Intent),
            ],
            locations: dag.encode(),
            ..Default::default()
        };
        let build = |optimize: bool| {
            let mut r = DipRouter::new(1, [1; 16]);
            r.config_mut().optimize = optimize;
            let mut routes = RouteStore::new();
            routes.insert_xia(XidType::Cid, Xid::derive(b"the-content"), XiaNextHop::Port(4));
            r.state_mut().routes = routes.rebuild();
            r
        };
        let mut plain_buf = repr.to_bytes(&[]).unwrap();
        let mut opt_buf = plain_buf.clone();
        let (pv, ps) = build(false).process(&mut plain_buf, 0, 0);
        let (ov, os) = build(true).process(&mut opt_buf, 0, 0);
        assert_eq!(pv, Verdict::Forward(Ports::one(4)));
        assert_eq!(ov, pv, "verdicts must match");
        assert_eq!(plain_buf, opt_buf, "packet bytes must match");
        // Identity plan: parse + intent. Rewritten: the parse is eliminated.
        assert_eq!(ps.fns_executed, 2);
        assert_eq!(os.fns_executed, 1);
        assert_eq!(os.plan_depth, 1);
        // Fused timing model for the 3-node DAG: one stage, two lookups —
        // vs stages(4) + lookup(2,3) in the identity plan.
        assert_eq!(os.cost, OpCost::lookup(1, 2));
        // The identity plan's model is the as-written cost.
        assert_eq!(ps.cost, OpCost::stages(4) + OpCost::lookup(2, 3));
    }

    #[test]
    fn optimizer_corpus_cases_run_identically_with_optimize_on() {
        // Admissible-but-unoptimizable programs: the optimize flag must be
        // a no-op for them, end to end.
        for case in dip_verify::optimization_corpus() {
            let make = || {
                let mut r = DipRouter::new(9, [0x5a; 16]);
                let mut routes = RouteStore::new();
                routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
                r.state_mut().routes = routes.rebuild();
                r
            };
            let report = crate::equiv::differential_smoke(
                &case.program.fns,
                case.program.loc_len,
                case.program.parallel,
                make().registry(),
                7,
            )
            .unwrap_or_else(|e| panic!("corpus case {}: {e}", case.name));
            assert_eq!(report.packets, 4);
            assert_eq!(report.optimized_verdicts, 0, "{} must not be optimized", case.name);
        }
    }

    #[test]
    fn plan_depth_reported_for_parallel_packets() {
        let mut r = DipRouter::new(1, [1; 16]);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        r.state_mut().routes = routes.rebuild();
        let mut locations = vec![10, 0, 0, 1];
        locations.extend_from_slice(&[1, 2, 3, 4]);
        let mut repr = DipRepr {
            fns: vec![
                FnTriple::router(0, 32, FnKey::Match32),
                FnTriple::router(32, 32, FnKey::Source),
            ],
            locations,
            ..Default::default()
        };
        repr.parallel = true;
        let mut pkt = repr.to_bytes(&[]).unwrap();
        let (_, stats) = r.process(&mut pkt, 0, 0);
        assert_eq!(stats.plan_depth, 1); // both ops in one wave
                                         // Sequential packet: depth 2.
        repr.parallel = false;
        let mut pkt = repr.to_bytes(&[]).unwrap();
        let (_, stats) = r.process(&mut pkt, 0, 0);
        assert_eq!(stats.plan_depth, 2);
    }
}
