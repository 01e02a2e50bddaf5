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

use crate::budget::{BudgetMeter, ProcessingBudget};
use crate::chain::{parse_packet, ChainEntry, CompiledChain, OptUnit, ParsedPacket};
use crate::control::ControlMessage;
use crate::metrics::RouterMetrics;
use dip_fnops::{Action, DropReason, FnRegistry, OpCost, PacketCtx, RouterState};
use dip_tables::{Port, Ticks};
use dip_telemetry::{PacketOutcome, Registry};
use dip_wire::triple::FnKey;
use dip_wire::DipPacket;
use std::collections::HashSet;

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
    /// Hard per-packet processing limits (§2.4).
    pub budget: ProcessingBudget,
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
    /// Whether this node honors the parallel flag (§2.2); affects only the
    /// reported plan depth / timing model, never observable results.
    pub parallel_enabled: bool,
    /// Run the dipopt static optimizer over each packet's program and
    /// execute the optimized plan when rewrites were proven safe
    /// (`dip_verify::opt`). Off by default — the interpreted chain is the
    /// semantic reference. Budget accounting *replays* the unoptimized
    /// charge sequence either way, so verdicts and packet bytes are
    /// identical; only the timing-model cost (and the per-FN invocation
    /// counters, which no longer see eliminated ops) changes. Optimized
    /// chains cache hoisted state derived from the router's secrets, so
    /// rotating `local_secret` requires recompiling cached chains.
    pub optimize: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            budget: ProcessingBudget::default(),
            unknown_fn_policy: UnknownFnPolicy::Skip,
            participation_keys: [FnKey::Parm, FnKey::Mac, FnKey::Mark]
                .into_iter()
                .map(|k| k.to_wire())
                .collect(),
            default_port: None,
            parallel_enabled: true,
            optimize: false,
        }
    }
}

/// The router's decision for one packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Forward copies on these ports.
    Forward(Vec<Port>),
    /// Deliver to the local stack.
    Deliver,
    /// Absorbed without error (e.g. aggregated interest).
    Consumed,
    /// Answer from the content store: send `data` back out the ingress.
    RespondCached(Vec<u8>),
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
/// use dip_tables::fib::NextHop;
/// use dip_wire::ipv4::Ipv4Addr;
/// use dip_wire::packet::DipRepr;
/// use dip_wire::triple::{FnKey, FnTriple};
///
/// let mut router = DipRouter::new(1, [7; 16]);
/// router.state_mut().ipv4_fib.add_route(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
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
/// assert_eq!(verdict, Verdict::Forward(vec![3]));
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
    /// samples.
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
    /// runtimes call directly with a cached [`CompiledChain`].
    pub fn process(
        &mut self,
        buf: &mut [u8],
        in_port: Port,
        now: Ticks,
    ) -> (Verdict, ProcessStats) {
        // Lines 1–3: parse basic header, triples, locations.
        let Some(parsed) = parse_packet(buf) else {
            let verdict = Verdict::Drop(DropReason::MalformedField);
            if let Some(metrics) = self.metrics.as_ref() {
                metrics.count_verdict(&verdict);
            }
            return (verdict, ProcessStats::default());
        };
        let compute_plan = parsed.parallel && self.config.parallel_enabled;
        if self.config.optimize {
            let (chain, _) = CompiledChain::compile_optimized(
                &parsed.triples,
                &self.registry,
                &self.config,
                compute_plan,
                parsed.loc_len,
                parsed.parallel,
            );
            return self.process_parsed(buf, &parsed, &chain, in_port, now);
        }
        let chain =
            CompiledChain::compile(&parsed.triples, &self.registry, &self.config, compute_plan);
        self.process_parsed(buf, &parsed, &chain, in_port, now)
    }

    /// Lines 4–18 of Algorithm 1: executes an already parsed packet
    /// through an already compiled chain.
    ///
    /// `parsed` must describe `buf` and `chain` must have been compiled
    /// from `parsed.triples` against this router's registry and config —
    /// [`process`](DipRouter::process) is the reference pairing. The
    /// batched dataplane caches the chain per program and calls this once
    /// per packet, amortizing registry lookups and the §2.2 plan across
    /// the batch.
    pub fn process_parsed(
        &mut self,
        buf: &mut [u8],
        parsed: &ParsedPacket,
        chain: &CompiledChain,
        in_port: Port,
        now: Ticks,
    ) -> (Verdict, ProcessStats) {
        // Take the Instant only when someone is listening: unattached
        // routers must not pay a clock read per packet.
        let start = self.metrics.as_ref().map(|_| std::time::Instant::now());
        let (verdict, stats) = self.process_parsed_inner(buf, parsed, chain, in_port, now);
        if let (Some(metrics), Some(start)) = (self.metrics.as_ref(), start) {
            metrics
                .observe_execute_ns(u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX));
            metrics.count_verdict(&verdict);
        }
        (verdict, stats)
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
        stats.plan_depth = chain.plan_depth(parsed.parallel && self.config.parallel_enabled);

        // Lines 4–17: the FN chain.
        let mut meter = BudgetMeter::new();
        let mut decision: Option<Verdict> = None;

        // dipopt plan: same chain walk, but eliminated ops leave
        // charge-only residue, hoisted setup is reused, and the timing
        // model sees the fused/hoisted costs.
        if let Some(plan) = chain.optimized.as_ref() {
            let mut model_cost = OpCost::default();
            for unit in &plan.units {
                let (triple, op, charge, unit_model, hoist) = match unit {
                    OptUnit::Host => {
                        stats.skipped_host += 1;
                        continue;
                    }
                    OptUnit::Unsupported { notify: true, key, index } => {
                        return (
                            Verdict::Notify(ControlMessage::FnUnsupported {
                                key: *key,
                                node_id: self.state.node_id,
                                fn_index: *index as u8,
                            }),
                            stats,
                        );
                    }
                    OptUnit::Unsupported { notify: false, .. } => {
                        stats.skipped_unsupported += 1;
                        continue;
                    }
                    OptUnit::Charge { cost } => {
                        // Replay the eliminated op's budget charge so drop
                        // decisions match the interpreted chain exactly.
                        if !meter.charge(&self.config.budget, *cost) {
                            return (Verdict::Drop(DropReason::ProcessingBudgetExceeded), stats);
                        }
                        continue;
                    }
                    OptUnit::Run { triple, op, charge, model, hoist } => {
                        (triple, op, *charge, *model, *hoist)
                    }
                };
                if !meter.charge(&self.config.budget, charge) {
                    return (Verdict::Drop(DropReason::ProcessingBudgetExceeded), stats);
                }
                stats.fns_executed += 1;
                model_cost = model_cost + unit_model;
                stats.cost = model_cost;
                if let Some(metrics) = self.metrics.as_mut() {
                    metrics.count_op(triple.key);
                }
                let action = match hoist {
                    Some(slot) => {
                        let hoisted = plan.hoists[slot].get_or_init(|| op.hoist(&self.state));
                        match hoisted {
                            Some(h) => op.execute_hoisted(triple, &mut self.state, &mut ctx, h),
                            None => op.execute(triple, &mut self.state, &mut ctx),
                        }
                    }
                    None => op.execute(triple, &mut self.state, &mut ctx),
                };
                match action {
                    Action::Continue => {}
                    Action::Forward(p) => {
                        decision.get_or_insert(Verdict::Forward(vec![p]));
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
            // The optimized plan executes strictly in order; the eliminated
            // ops no longer occupy stages, so depth equals what actually ran
            // (ratio 1 in the timing model — no double discount on top of
            // the fused stage costs).
            stats.plan_depth = stats.fns_executed as usize;
            let verdict = decision.unwrap_or(match self.config.default_port {
                Some(p) => Verdict::Forward(vec![p]),
                None => Verdict::Deliver,
            });
            return (verdict, stats);
        }

        for (i, entry) in chain.entries.iter().enumerate() {
            let (triple, op, cost) = match entry {
                ChainEntry::Host => {
                    stats.skipped_host += 1;
                    continue;
                }
                ChainEntry::Unsupported { key, notify: true } => {
                    return (
                        Verdict::Notify(ControlMessage::FnUnsupported {
                            key: *key,
                            node_id: self.state.node_id,
                            fn_index: i as u8,
                        }),
                        stats,
                    );
                }
                ChainEntry::Unsupported { notify: false, .. } => {
                    stats.skipped_unsupported += 1;
                    continue;
                }
                ChainEntry::Op { triple, op, cost } => (triple, op, *cost),
            };
            if !meter.charge(&self.config.budget, cost) {
                return (Verdict::Drop(DropReason::ProcessingBudgetExceeded), stats);
            }
            stats.fns_executed += 1;
            stats.cost = meter.cost;
            if let Some(metrics) = self.metrics.as_mut() {
                metrics.count_op(triple.key);
            }
            match op.execute(triple, &mut self.state, &mut ctx) {
                Action::Continue => {}
                Action::Forward(p) => {
                    decision.get_or_insert(Verdict::Forward(vec![p]));
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

        // Line 18: end processing.
        let verdict = decision.unwrap_or(match self.config.default_port {
            Some(p) => Verdict::Forward(vec![p]),
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
        r.state_mut().ipv4_fib.add_route(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
        let mut pkt = dip32_packet([10, 1, 2, 3], [192, 168, 0, 1]);
        let (verdict, stats) = r.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Forward(vec![3]));
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
        assert_eq!(verdict, Verdict::Forward(vec![9]));
        assert_eq!(stats.skipped_host, 1);
        assert_eq!(stats.fns_executed, 0);
    }

    #[test]
    fn unsupported_participation_fn_notifies() {
        // Router lacking the MAC module must notify, not silently skip.
        let mut r = DipRouter::new(7, [1; 16])
            .with_registry(FnRegistry::with_keys(&[FnKey::Match32, FnKey::Source]));
        let repr = DipRepr {
            fns: vec![FnTriple::router(128, 128, FnKey::Parm)],
            locations: vec![0u8; 68],
            ..Default::default()
        };
        let mut pkt = repr.to_bytes(&[]).unwrap();
        let (verdict, _) = r.process(&mut pkt, 0, 0);
        assert_eq!(
            verdict,
            Verdict::Notify(ControlMessage::FnUnsupported {
                key: FnKey::Parm.to_wire(),
                node_id: 7,
                fn_index: 0
            })
        );
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
        assert_eq!(verdict, Verdict::Forward(vec![2]));
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
        r.state_mut().ipv4_fib.add_route(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
        r.config_mut().budget = ProcessingBudget { max_fns: 1, ..ProcessingBudget::unlimited() };
        let mut pkt = dip32_packet([10, 1, 2, 3], [0; 4]);
        let (verdict, _) = r.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Drop(DropReason::ProcessingBudgetExceeded));
    }

    #[test]
    fn first_decision_is_sticky() {
        // Two match FNs pointing at different FIB entries: the first wins.
        let mut r = DipRouter::new(1, [1; 16]);
        r.state_mut().ipv4_fib.add_route(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        r.state_mut().ipv4_fib.add_route(Ipv4Addr::new(20, 0, 0, 0), 8, NextHop::port(2));
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
        assert_eq!(verdict, Verdict::Forward(vec![1]));
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
        r.state_mut().ipv4_fib.add_route(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));

        let mut routed = dip32_packet([10, 1, 2, 3], [192, 168, 0, 1]);
        assert_eq!(r.process(&mut routed, 0, 0).0, Verdict::Forward(vec![3]));
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
            cs.insert(1, vec![1], 0);
            assert_eq!(cs.insert(2, vec![2], 0), Some(1));
            assert_eq!(
                registry.snapshot().get("dip_cs_evictions_total"),
                1,
                "enable_first = {enable_first}"
            );
            // Re-enabling (a resize) keeps the wiring too.
            r.state_mut().enable_content_store(1);
            let cs = r.state_mut().content_store.as_mut().unwrap();
            cs.insert(3, vec![3], 0);
            cs.insert(4, vec![4], 0);
            assert_eq!(registry.snapshot().get("dip_cs_evictions_total"), 2);
        }
    }

    #[test]
    fn verdict_outcome_taxonomy() {
        use dip_telemetry::PacketOutcome;
        assert_eq!(Verdict::Forward(vec![1]).outcome(), PacketOutcome::Forwarded);
        assert_eq!(Verdict::Deliver.outcome(), PacketOutcome::Consumed);
        assert_eq!(Verdict::Consumed.outcome(), PacketOutcome::Consumed);
        assert_eq!(Verdict::RespondCached(vec![]).outcome(), PacketOutcome::Consumed);
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
            r.state_mut().xia.add_route(
                XidType::Cid,
                Xid::derive(b"the-content"),
                XiaNextHop::Port(4),
            );
            r
        };
        let mut plain_buf = repr.to_bytes(&[]).unwrap();
        let mut opt_buf = plain_buf.clone();
        let (pv, ps) = build(false).process(&mut plain_buf, 0, 0);
        let (ov, os) = build(true).process(&mut opt_buf, 0, 0);
        assert_eq!(pv, Verdict::Forward(vec![4]));
        assert_eq!(ov, pv, "verdicts must match");
        assert_eq!(plain_buf, opt_buf, "packet bytes must match");
        // Interpreted: parse + intent. Optimized: the parse is eliminated.
        assert_eq!(ps.fns_executed, 2);
        assert_eq!(os.fns_executed, 1);
        assert_eq!(os.plan_depth, 1);
        // Fused timing model for the 3-node DAG: one stage, two lookups —
        // vs stages(4) + lookup(2,3) interpreted.
        assert_eq!(os.cost, OpCost::lookup(1, 2));
        // Budget accounting replays the original charges on both paths.
        assert_eq!(ps.cost, OpCost::stages(4) + OpCost::lookup(2, 3));
    }

    #[test]
    fn optimizer_corpus_cases_run_identically_with_optimize_on() {
        // Admissible-but-unoptimizable programs: the optimize flag must be
        // a no-op for them, end to end.
        for case in dip_verify::optimization_corpus() {
            let make = || {
                let mut r = DipRouter::new(9, [0x5a; 16]);
                r.state_mut().ipv4_fib.add_route(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
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
        r.state_mut().ipv4_fib.add_route(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
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
