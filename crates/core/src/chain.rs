//! Compiled FN chains — resolve a packet's program once, run it many times.
//!
//! Algorithm 1 does three kinds of work per packet: *parsing* (basic
//! header, triples, locations — inherently per-packet), *resolution*
//! (registry lookups, per-op costs, the participation policy, the §2.2
//! parallel plan — a function of the FN chain alone), and *execution*
//! (running the resolved operations against this packet's bytes and the
//! router state). Real traffic is a small number of *programs* (one per
//! protocol) carried by millions of packets, so the phases are split and
//! a batching runtime amortizes resolution across every packet that
//! carries the same program:
//!
//! * [`parse_packet`] — the per-packet half of lines 1–3 of Algorithm 1;
//! * [`CompiledChain::compile`] — resolution into a *plan*: one step per
//!   FN triple, with registry lookups pinned to `Arc<dyn FieldOp>`s,
//!   pre-computed [`OpCost`]s, the unknown-FN policy decision and, for
//!   parallel-flagged packets, the plan depth from
//!   [`dip_fnops::parallel::plan`];
//! * [`DipRouter::process_parsed`] — the one walk that executes every plan.
//!
//! Every program compiles to the *identity plan* first: each router op
//! runs as written at its own cost. Each op's charge is a constant of the
//! program, so `compile` also decides the §2.4 budget stop once, from the
//! as-written charges: the step at which the packet's processing would
//! exceed the router's [`ResourceBudget`]. When dipopt is requested,
//! `compile` runs [`analyze`] and applies the proven rewrites to the plan
//! — an eliminated op leaves it, a fused or hoisted op keeps running with
//! a smaller timing-model cost — and the stop keeps counting every charge.
//! `process` is `parse → compile → execute` over the same walk a
//! cached-chain `process_parsed` uses, so the two cannot drift.
//!
//! [`DipRouter::process_parsed`]: crate::router::DipRouter::process_parsed

use crate::router::{RouterConfig, UnknownFnPolicy};
use dip_fnops::parallel::plan;
use dip_fnops::{FieldOp, FnRegistry, HoistState, OpCost, RouteKey};
use dip_verify::opt::{analyze, ProgramFacts, Rewrite};
use dip_verify::{FnProgram, ResourceBudget};
use dip_wire::triple::FnTriple;
use dip_wire::{DipPacket, BASIC_HEADER_LEN, FN_TRIPLE_LEN};
use std::sync::{Arc, OnceLock};

/// The per-packet parse result: lines 1–3 of Algorithm 1.
#[derive(Debug, Clone, Default)]
pub struct ParsedPacket {
    /// The FN triples, in chain order (host-tagged ones included).
    pub triples: Vec<FnTriple>,
    /// Byte offset of the FN locations area within the packet.
    pub loc_start: usize,
    /// Total header length (basic + triples + locations).
    pub header_len: usize,
    /// The packet parameter's parallel flag (§2.2).
    pub parallel: bool,
    /// Length of the FN locations area in bytes (`FN_LocLen`).
    pub loc_len: usize,
}

impl ParsedPacket {
    /// The raw bytes that determine this packet's *program*: the FN triple
    /// region of `buf` (which this packet was parsed from). Two packets
    /// with identical program bytes, `loc_len` and parallel flag compile
    /// to the same [`CompiledChain`] — the cache key a batching dataplane
    /// uses.
    pub fn program_bytes<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[BASIC_HEADER_LEN..self.loc_start]
    }
}

/// Parses the basic header, FN triples and locations geometry of `buf`.
///
/// Returns `None` for anything malformed (truncated header, bad triple
/// count, a triple whose target field does not fit the locations area) —
/// exactly the conditions `process` maps to
/// [`DropReason::MalformedField`](dip_fnops::DropReason::MalformedField).
/// A wrapper over [`parse_packet_into`] with fresh storage.
pub fn parse_packet(buf: &[u8]) -> Option<ParsedPacket> {
    let mut parsed = ParsedPacket::default();
    parse_packet_into(buf, &mut parsed).then_some(parsed)
}

/// [`parse_packet`] into caller-owned storage: `out`'s `triples` vector is
/// cleared and refilled, so a runtime that keeps one `ParsedPacket` per
/// batch slot parses without allocating once the vectors have grown to
/// the widest program seen. Returns `false` (leaving `out` unspecified)
/// for anything `parse_packet` answers `None` to.
pub fn parse_packet_into(buf: &[u8], out: &mut ParsedPacket) -> bool {
    let Ok(pkt) = DipPacket::new_checked(buf) else { return false };
    let Ok(hdr) = pkt.basic_header() else { return false };
    let loc_len = usize::from(hdr.param.fn_loc_len);
    out.triples.clear();
    for i in 0..usize::from(pkt.fn_num()) {
        match pkt.triple(i) {
            Ok(t) if t.fits(loc_len) => out.triples.push(t),
            _ => return false,
        }
    }
    out.loc_start = BASIC_HEADER_LEN + out.triples.len() * FN_TRIPLE_LEN;
    out.header_len = pkt.header_len();
    out.parallel = hdr.param.parallel;
    out.loc_len = loc_len;
    true
}

/// One step of a compiled plan, in FN-triple order.
pub(crate) enum Step {
    /// Host-tagged FN: skipped by routers (Algorithm 1 line 5).
    Host,
    /// No module installed for this key.
    Unsupported {
        /// The wire encoding of the missing key.
        key: u16,
        /// Whether the router must send an FN-unsupported notification
        /// (§2.4) instead of silently skipping.
        notify: bool,
        /// Chain position (goes into the notification verbatim).
        index: usize,
    },
    /// An operation that executes.
    Run {
        /// The selecting triple (target field + key).
        triple: FnTriple,
        /// The operation module, pinned so execution never re-consults the
        /// registry.
        op: Arc<dyn FieldOp>,
        /// Timing-model cost: the op's own cost in the identity plan; fused
        /// or hoisted under dipopt, zero for non-lead members of a fused
        /// group (the lead carries the merged cost).
        cost: OpCost,
        /// Index into the chain's hoist slots when setup was hoisted.
        hoist: Option<usize>,
    },
}

/// Per-rewrite-kind counts, surfaced to dataplane telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptSummary {
    /// Operations removed from the per-packet path.
    pub ops_eliminated: u32,
    /// Adjacent-pair fusions applied.
    pub fusions: u32,
    /// Packet-invariant setups hoisted to once per chain.
    pub hoists: u32,
}

/// A fully resolved FN program: one plan of [`Step`]s computed once for all
/// packets carrying the same program.
///
/// A chain is only valid for the `(registry, config)` pair it was compiled
/// against — callers that mutate either must recompile (the dataplane's
/// program cache is per-worker for exactly this reason). A chain with
/// hoisted steps additionally caches state derived from the executing
/// router's secrets, so it must not be shared across routers or across
/// secret rotation.
pub struct CompiledChain {
    pub(crate) steps: Vec<Step>,
    /// The §2.4 budget stop: the executor walks `steps[..stop]` and then
    /// drops the packet as over budget.
    pub(crate) stop: Option<usize>,
    /// The budget `stop` was computed against (the config's).
    pub(crate) budget: ResourceBudget,
    /// Lazily materialized hoisted state, one slot per hoisted step, built
    /// on first execution from the router's state.
    pub(crate) hoists: Vec<OnceLock<Option<HoistState>>>,
    /// Number of router-executed (non-host) triples.
    router_fns: usize,
    /// Plan depth under the §2.2 modular-parallelism planner, computed for
    /// parallel-flagged packets only.
    parallel_depth: Option<usize>,
    /// What dipopt rewrote; `None` for the identity plan.
    summary: Option<OptSummary>,
}

impl CompiledChain {
    /// Resolves `parsed`'s program against `registry` under `config` into
    /// the identity plan, decides its budget stop and, when `optimize` is
    /// set, applies the rewrites dipopt proves safe for it.
    ///
    /// Sequential packets never pay for the §2.2 parallel planner.
    pub fn compile(
        parsed: &ParsedPacket,
        registry: &FnRegistry,
        config: &RouterConfig,
        optimize: bool,
    ) -> Self {
        let triples = &parsed.triples;
        let steps: Vec<Step> = triples
            .iter()
            .enumerate()
            .map(|(index, t)| {
                if t.host {
                    return Step::Host;
                }
                match registry.get(t.key) {
                    Some(op) => {
                        let cost = op.cost(t.field_len);
                        Step::Run { triple: *t, op: Arc::clone(op), cost, hoist: None }
                    }
                    None => {
                        let key = t.key.to_wire();
                        let notify = config.participation_keys.contains(&key)
                            || config.unknown_fn_policy == UnknownFnPolicy::Notify;
                        Step::Unsupported { key, notify, index }
                    }
                }
            })
            .collect();
        let router_fns = triples.iter().filter(|t| !t.host).count();
        let parallel_depth = parsed.parallel.then(|| {
            let router_triples: Vec<FnTriple> =
                triples.iter().filter(|t| !t.host).copied().collect();
            plan(&router_triples, registry).depth()
        });
        let budget = config.budget;
        let stop = budget_stop(&steps, &budget);
        let mut chain = CompiledChain {
            steps,
            stop,
            budget,
            hoists: Vec::new(),
            router_fns,
            parallel_depth,
            summary: None,
        };
        if optimize {
            let program = FnProgram::new(triples.clone(), parsed.loc_len, parsed.parallel);
            let facts = analyze(&program, registry);
            // R1 is exact only on walks that get past the consumer's
            // charge: stopping there, Algorithm 1 would have run the parse
            // first and dropped a malformed DAG as such, not as over budget.
            let stops_at_a_parse_consumer = facts.rewrites.iter().any(|rw| {
                matches!(*rw, Rewrite::EliminateRedundantParse { into, .. } if Some(into) == stop)
            });
            if facts.optimizes() && !stops_at_a_parse_consumer {
                chain.rewrite(&facts);
            }
        }
        chain
    }

    /// Applies dipopt's proven rewrites to the identity plan in place.
    /// dipopt never fuses or hoists an op it eliminates, so eliminated ops
    /// leave the plan once every cost override is in; the stop moves with
    /// the steps it counts and still falls where their charges ran out.
    fn rewrite(&mut self, facts: &ProgramFacts) {
        let mut eliminated = vec![false; self.steps.len()];
        // fused_with[j] = Some(i) links j to the previous member of its
        // group; groups resolve once every cost override is in.
        let mut fused_with: Vec<Option<usize>> = vec![None; self.steps.len()];
        for rw in &facts.rewrites {
            match *rw {
                Rewrite::EliminateRedundantParse { parse, into, fused_model } => {
                    eliminated[parse] = true;
                    if let Some(cost) = self.cost_mut(into) {
                        *cost = fused_model;
                    }
                }
                Rewrite::EliminateDeadKeyWrite { index } => eliminated[index] = true,
                Rewrite::FuseAdjacent { first, second } => fused_with[second] = Some(first),
                Rewrite::HoistKeySchedule { index, hoisted_model } => {
                    if let Step::Run { cost, hoist, .. } = &mut self.steps[index] {
                        *cost = hoisted_model;
                        *hoist = Some(self.hoists.len());
                        self.hoists.push(OnceLock::new());
                    }
                }
            }
        }
        // The group lead (a member with no predecessor) carries the fused
        // cost of the whole group; later members go to zero in the timing
        // model. Execution order is untouched.
        for j in 0..fused_with.len() {
            let Some(mut lead) = fused_with[j] else { continue };
            while let Some(prev) = fused_with[lead] {
                lead = prev;
            }
            let member = self.cost_mut(j).map(std::mem::take).unwrap_or_default();
            if let Some(cost) = self.cost_mut(lead) {
                *cost = cost.fuse(member);
            }
        }
        self.stop = self.stop.map(|stop| stop - eliminated[..stop].iter().filter(|&&e| e).count());
        let mut kept = eliminated.iter().map(|&e| !e);
        self.steps.retain(|_| kept.next().unwrap_or(true));
        self.summary = Some(OptSummary {
            ops_eliminated: facts.ops_eliminated() as u32,
            fusions: facts.fusions() as u32,
            hoists: facts.hoists() as u32,
        });
    }

    fn cost_mut(&mut self, index: usize) -> Option<&mut OpCost> {
        match &mut self.steps[index] {
            Step::Run { cost, .. } => Some(cost),
            _ => None,
        }
    }

    /// The route lookups this chain's operations will make on a packet
    /// whose FN locations area is `locations`, in step order (see
    /// [`FieldOp::route_key`]). A batching runtime walks a batch's keys
    /// together before executing it; execution still makes every lookup
    /// itself, so this is a hint, never a decision.
    pub fn route_keys<'a>(&'a self, locations: &'a [u8]) -> impl Iterator<Item = RouteKey> + 'a {
        self.steps.iter().filter_map(move |step| match step {
            Step::Run { triple, op, .. } => op.route_key(triple, locations),
            _ => None,
        })
    }

    /// Per-rewrite-kind counts when dipopt rewrote the plan; `None` for the
    /// identity plan.
    pub fn opt_summary(&self) -> Option<OptSummary> {
        self.summary
    }

    /// Number of router-executed (non-host) steps.
    pub fn router_fns(&self) -> usize {
        self.router_fns
    }

    /// The sequential depth this chain reports when the parallel flag is
    /// clear, or the planned depth when it was computed.
    pub fn plan_depth(&self, parallel: bool) -> usize {
        match (parallel, self.parallel_depth) {
            (true, Some(d)) => d,
            _ => self.router_fns,
        }
    }
}

/// The index of the first charged step at which `budget` runs out: the
/// step that would be the `max_fns + 1`-th router op, or whose charge
/// takes the running cost past a limit. Charges are program constants, so
/// this is decided once per chain, on the identity plan.
fn budget_stop(steps: &[Step], budget: &ResourceBudget) -> Option<usize> {
    let (mut fns, mut total) = (0u32, OpCost::default());
    steps.iter().position(|step| {
        let Step::Run { cost, .. } = step else { return false };
        fns += 1;
        total = total + *cost;
        fns > budget.max_fns
            || total.stages > budget.max_stages
            || total.table_lookups > budget.max_table_lookups
            || total.cipher_blocks > budget.max_cipher_blocks
            || total.resubmits > budget.max_resubmits
    })
}

impl std::fmt::Debug for CompiledChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledChain")
            .field("len", &self.steps.len())
            .field("router_fns", &self.router_fns)
            .field("parallel_depth", &self.parallel_depth)
            .field("stop", &self.stop)
            .field("optimized", &self.summary)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_wire::packet::DipRepr;
    use dip_wire::triple::FnKey;

    fn dip32_repr() -> DipRepr {
        DipRepr {
            fns: vec![
                FnTriple::router(0, 32, FnKey::Match32),
                FnTriple::router(32, 32, FnKey::Source),
            ],
            locations: vec![10, 0, 0, 1, 192, 168, 0, 1],
            ..Default::default()
        }
    }

    #[test]
    fn parse_matches_repr_geometry() {
        let repr = dip32_repr();
        let buf = repr.to_bytes(b"payload").unwrap();
        let parsed = parse_packet(&buf).expect("well-formed");
        assert_eq!(parsed.triples, repr.fns);
        assert_eq!(parsed.header_len, repr.header_len());
        assert_eq!(parsed.loc_len, 8);
        assert!(!parsed.parallel);
        assert_eq!(parsed.loc_start + parsed.loc_len, parsed.header_len);
    }

    #[test]
    fn parse_rejects_truncation_and_bad_fit() {
        let buf = dip32_repr().to_bytes(&[]).unwrap();
        assert!(parse_packet(&buf[..5]).is_none());
        // Shrink the advertised locations area so the second triple's
        // [32, 64) target field no longer fits (builders refuse to
        // construct this, so corrupt the packet parameter in place).
        let mut bad = dip32_repr().to_bytes(&[]).unwrap();
        let param =
            dip_wire::basic::PacketParameter { fn_loc_len: 2, ..Default::default() }.to_wire();
        bad[4..6].copy_from_slice(&param.unwrap().to_be_bytes());
        assert!(parse_packet(&bad).is_none());
    }

    #[test]
    fn parse_into_reused_storage_matches_a_fresh_parse() {
        let wide = DipRepr {
            fns: vec![FnTriple::router(0, 32, FnKey::Match32); 5],
            locations: vec![10, 0, 0, 1],
            ..Default::default()
        }
        .to_bytes(&[])
        .unwrap();
        let narrow = dip32_repr().to_bytes(b"payload").unwrap();
        let mut slot = ParsedPacket::default();
        assert!(parse_packet_into(&wide, &mut slot));
        let capacity = slot.triples.capacity();
        // A failed parse in between leaves nothing behind for the next one.
        assert!(!parse_packet_into(&narrow[..5], &mut slot));
        assert!(parse_packet_into(&narrow, &mut slot));
        let fresh = parse_packet(&narrow).unwrap();
        assert_eq!(slot.triples, fresh.triples);
        assert_eq!(
            (slot.loc_start, slot.header_len, slot.parallel, slot.loc_len),
            (fresh.loc_start, fresh.header_len, fresh.parallel, fresh.loc_len)
        );
        assert_eq!(slot.triples.capacity(), capacity, "the slot's vector was reused");
    }

    #[test]
    fn program_bytes_identical_for_same_program() {
        let a = dip32_repr().to_bytes(b"aaaa").unwrap();
        let mut other = dip32_repr();
        other.locations = vec![99, 99, 99, 99, 1, 2, 3, 4]; // different flow
        let b = other.to_bytes(b"bbbb").unwrap();
        let pa = parse_packet(&a).unwrap();
        let pb = parse_packet(&b).unwrap();
        assert_eq!(pa.program_bytes(&a), pb.program_bytes(&b));
    }

    /// The parse result `compile` needs, for a program without a packet.
    fn program(fns: Vec<FnTriple>, loc_len: usize, parallel: bool) -> ParsedPacket {
        let loc_start = BASIC_HEADER_LEN + fns.len() * FN_TRIPLE_LEN;
        ParsedPacket { triples: fns, loc_start, header_len: loc_start + loc_len, parallel, loc_len }
    }

    #[test]
    fn compile_builds_the_identity_plan() {
        let registry = FnRegistry::standard();
        let config = RouterConfig::default();
        let p = program(
            vec![
                FnTriple::router(0, 32, FnKey::Match32),
                FnTriple::host(0, 32, FnKey::Ver),
                FnTriple::router(128, 128, FnKey::Parm),
                FnTriple::router(0, 8, FnKey::Other(0x300)),
            ],
            32,
            false,
        );
        let chain = CompiledChain::compile(&p, &registry, &config, false);
        assert_eq!(chain.steps.len(), 4);
        assert_eq!(chain.router_fns(), 3);
        assert!(chain.opt_summary().is_none());
        assert!(chain.hoists.is_empty());
        assert_eq!((chain.stop, chain.budget), (None, config.budget));
        for i in [0, 2] {
            match &chain.steps[i] {
                Step::Run { triple, op, cost, hoist } => {
                    assert_eq!(
                        *cost,
                        op.cost(triple.field_len),
                        "the identity plan runs as written"
                    );
                    assert!(hoist.is_none());
                }
                _ => panic!("step {i} must run"),
            }
        }
        assert!(matches!(chain.steps[1], Step::Host));
        // 0x300 is not a participation key and the default policy skips.
        assert!(matches!(chain.steps[3], Step::Unsupported { notify: false, index: 3, .. }));

        // A registry lacking Parm (a participation key) must notify.
        let bare = FnRegistry::with_keys(&[FnKey::Match32]);
        let chain = CompiledChain::compile(&p, &bare, &config, false);
        assert!(matches!(chain.steps[2], Step::Unsupported { notify: true, index: 2, .. }));
    }

    /// The stop under `budget` of `fns` over `loc_len` location bytes.
    fn stop(fns: Vec<FnTriple>, loc_len: usize, budget: ResourceBudget) -> Option<usize> {
        let config = RouterConfig { budget, ..RouterConfig::default() };
        CompiledChain::compile(
            &program(fns, loc_len, false),
            &FnRegistry::standard(),
            &config,
            false,
        )
        .stop
    }

    #[test]
    fn the_stop_is_the_first_charge_past_a_limit() {
        // Match32, Parm and Mark take one stage each: three fit exactly.
        let three = vec![
            FnTriple::router(0, 32, FnKey::Match32),
            FnTriple::router(0, 128, FnKey::Parm),
            FnTriple::router(0, 128, FnKey::Mark),
        ];
        let budget = ResourceBudget { max_stages: 3, ..ResourceBudget::unconstrained() };
        assert_eq!(stop(three.clone(), 16, budget), None);
        let mut four = three;
        four.push(FnTriple::router(0, 32, FnKey::Source));
        assert_eq!(stop(four, 16, budget), Some(3));
        // Parm's 3 cipher blocks and Mark's 2 sum past a 4-block limit.
        let crypto =
            vec![FnTriple::router(0, 128, FnKey::Parm), FnTriple::router(0, 128, FnKey::Mark)];
        let budget = ResourceBudget { max_cipher_blocks: 4, ..ResourceBudget::unconstrained() };
        assert_eq!(stop(crypto, 16, budget), Some(1));
    }

    #[test]
    fn max_fns_stops_at_the_first_charged_step_past_it() {
        // Host-tagged and unsupported steps charge nothing.
        let fns = vec![
            FnTriple::router(0, 32, FnKey::Source),
            FnTriple::host(0, 32, FnKey::Ver),
            FnTriple::router(0, 32, FnKey::Source),
            FnTriple::router(0, 32, FnKey::Other(0x300)),
            FnTriple::router(0, 32, FnKey::Source),
        ];
        let budget = ResourceBudget { max_fns: 2, ..ResourceBudget::unconstrained() };
        assert_eq!(stop(fns.clone(), 4, budget), Some(4), "the third charged step");
        let budget = ResourceBudget { max_fns: 3, ..ResourceBudget::unconstrained() };
        assert_eq!(stop(fns, 4, budget), None);
    }

    #[test]
    fn a_mac_flood_stops_by_step_12_unless_unconstrained() {
        let macs = vec![FnTriple::router(0, 416, FnKey::Mac); 255];
        // Five cipher blocks per MAC: the 13th takes 65 past 64.
        assert_eq!(stop(macs.clone(), 52, ResourceBudget::router()), Some(12));
        assert_eq!(stop(macs, 52, ResourceBudget::unconstrained()), None);
    }

    #[test]
    fn the_paper_protocols_have_no_stop_under_the_router_budget() {
        // NDN+OPT, the heaviest composition: PIT + parm + MAC + mark.
        let ndn_opt = vec![
            FnTriple::router(0, 32, FnKey::Pit),
            FnTriple::router(160, 128, FnKey::Parm),
            FnTriple::router(32, 416, FnKey::Mac),
            FnTriple::router(320, 128, FnKey::Mark),
            FnTriple::host(32, 544, FnKey::Ver),
        ];
        assert_eq!(stop(ndn_opt, 72, ResourceBudget::router()), None);
    }

    #[test]
    fn an_eliminated_op_leaves_the_plan_and_the_stop_still_counts_its_charge() {
        let registry = FnRegistry::standard();
        let config = RouterConfig::default();
        // XIA program: the F_DAG parse is eliminated, then a source read.
        let p = program(
            vec![
                FnTriple::router(0, 720, FnKey::Dag),
                FnTriple::router(0, 720, FnKey::Intent),
                FnTriple::router(720, 32, FnKey::Source),
            ],
            94,
            false,
        );
        let identity = CompiledChain::compile(&p, &registry, &config, false);
        assert!(identity.steps.iter().all(|s| matches!(s, Step::Run { .. })));
        let chain = CompiledChain::compile(&p, &registry, &config, true);
        assert_eq!(chain.steps.len(), 2, "the parse left the plan");
        match &chain.steps[0] {
            Step::Run { triple, cost, hoist, .. } => {
                assert_eq!(triple.key, FnKey::Intent);
                assert_eq!(*cost, OpCost::lookup(1, 2), "the fused parse + intent model");
                assert!(hoist.is_none());
            }
            _ => panic!("F_intent must run"),
        }
        assert_eq!(chain.opt_summary().unwrap().ops_eliminated, 1);
        assert_eq!(chain.stop, None);
        // Two FNs fit: the identity plan stops at F_source, its third
        // charge. The rewritten plan runs two steps but stops there too.
        let budget = ResourceBudget { max_fns: 2, ..ResourceBudget::router() };
        let config = RouterConfig { budget, ..RouterConfig::default() };
        assert_eq!(CompiledChain::compile(&p, &registry, &config, false).stop, Some(2));
        let chain = CompiledChain::compile(&p, &registry, &config, true);
        assert!(chain.opt_summary().is_some());
        assert_eq!((chain.steps.len(), chain.stop), (2, Some(1)));
    }

    #[test]
    fn a_budget_that_stops_at_the_parse_consumer_keeps_the_identity_plan() {
        let registry = FnRegistry::standard();
        let p = program(
            vec![FnTriple::router(0, 720, FnKey::Dag), FnTriple::router(0, 720, FnKey::Intent)],
            90,
            false,
        );
        // One FN fits: F_intent's charge fails, so Algorithm 1 would run
        // (and possibly drop at) the F_DAG parse the rewrite eliminates.
        let budget = ResourceBudget { max_fns: 1, ..ResourceBudget::router() };
        let config = RouterConfig { budget, ..RouterConfig::default() };
        let chain = CompiledChain::compile(&p, &registry, &config, true);
        assert!(chain.opt_summary().is_none());
        assert_eq!((chain.steps.len(), chain.stop), (2, Some(1)));
        // Stopping at the eliminated parse's own charge is exact either way.
        let budget = ResourceBudget { max_fns: 0, ..ResourceBudget::router() };
        let config = RouterConfig { budget, ..RouterConfig::default() };
        let chain = CompiledChain::compile(&p, &registry, &config, true);
        assert!(chain.opt_summary().is_some());
        assert_eq!((chain.steps.len(), chain.stop), (1, Some(0)));
    }

    #[test]
    fn dipopt_fuses_and_hoists_in_place() {
        let registry = FnRegistry::standard();
        let config = RouterConfig::default();
        // dip32: disjoint readers fuse — the lead carries the merged model.
        let p = program(
            vec![FnTriple::router(0, 32, FnKey::Match32), FnTriple::router(32, 32, FnKey::Source)],
            8,
            false,
        );
        let chain = CompiledChain::compile(&p, &registry, &config, true);
        match (&chain.steps[0], &chain.steps[1]) {
            (Step::Run { cost: lead, .. }, Step::Run { cost: member, .. }) => {
                // lookup(1,1) fused with stages(1): shared stage, one lookup.
                assert_eq!(*lead, OpCost::lookup(1, 1));
                assert_eq!(*member, OpCost::default());
            }
            _ => panic!("both steps must run"),
        }

        // Lone OPT derivation chain with a consumer: parm survives and is
        // hoisted with one lazy slot.
        let p = program(
            vec![
                FnTriple::router(128, 128, FnKey::Parm),
                FnTriple::router(0, 416, FnKey::Mac),
                FnTriple::router(288, 128, FnKey::Mark),
            ],
            68,
            false,
        );
        let chain = CompiledChain::compile(&p, &registry, &config, true);
        assert_eq!(chain.opt_summary().unwrap().hoists, 1);
        assert_eq!(chain.hoists.len(), 1);
        match &chain.steps[0] {
            Step::Run { cost, hoist, .. } => {
                assert_eq!(*cost, OpCost::cipher(1, 2, 0), "timing model sees the hoist");
                assert_eq!(*hoist, Some(0));
            }
            _ => panic!("parm must run"),
        }
        // The stop counts parm as written: 3 + 5 + 2 blocks pass 9 at the
        // mark, although the hoisted plan models only 9.
        let budget = ResourceBudget { max_cipher_blocks: 9, ..ResourceBudget::router() };
        let config = RouterConfig { budget, ..RouterConfig::default() };
        let chain = CompiledChain::compile(&p, &registry, &config, true);
        assert_eq!((chain.opt_summary().unwrap().hoists, chain.stop), (1, Some(2)));
    }

    #[test]
    fn dipopt_leaves_unoptimizable_programs_as_the_identity_plan() {
        let registry = FnRegistry::standard();
        let config = RouterConfig::default();
        for case in dip_verify::optimization_corpus() {
            let FnProgram { fns, loc_len, parallel } = case.program;
            let chain =
                CompiledChain::compile(&program(fns, loc_len, parallel), &registry, &config, true);
            assert!(chain.opt_summary().is_none(), "{} must not optimize", case.name);
            assert!(chain.steps.iter().all(|s| match s {
                Step::Run { triple, op, cost, hoist } => {
                    *cost == op.cost(triple.field_len) && hoist.is_none()
                }
                _ => true,
            }));
        }
    }

    #[test]
    fn route_keys_name_the_match_steps_lookups() {
        use dip_wire::ipv4::Ipv4Addr;
        let registry = FnRegistry::standard();
        let config = RouterConfig::default();
        let repr = dip32_repr();
        let chain = CompiledChain::compile(
            &program(repr.fns.clone(), repr.locations.len(), false),
            &registry,
            &config,
            false,
        );
        let keys: Vec<RouteKey> = chain.route_keys(&repr.locations).collect();
        assert_eq!(keys, vec![RouteKey::V4(Ipv4Addr::new(10, 0, 0, 1))]);
        // A truncated locations area decodes no key.
        assert_eq!(chain.route_keys(&repr.locations[..3]).count(), 0);
        // Host-tagged and unsupported steps name none either.
        let p = program(
            vec![FnTriple::host(0, 32, FnKey::Match32), FnTriple::router(0, 32, FnKey::Other(99))],
            8,
            false,
        );
        let chain = CompiledChain::compile(&p, &registry, &config, false);
        assert_eq!(chain.route_keys(&repr.locations).count(), 0);
    }

    #[test]
    fn plan_depth_is_planned_for_parallel_packets_only() {
        let registry = FnRegistry::standard();
        let config = RouterConfig::default();
        let fns =
            vec![FnTriple::router(0, 32, FnKey::Match32), FnTriple::router(32, 32, FnKey::Source)];
        let seq =
            CompiledChain::compile(&program(fns.clone(), 8, false), &registry, &config, false);
        assert_eq!(seq.plan_depth(false), 2);
        assert_eq!(seq.plan_depth(true), 2, "no plan computed -> sequential");
        let par = CompiledChain::compile(&program(fns, 8, true), &registry, &config, false);
        assert_eq!(par.plan_depth(true), 1, "disjoint reads share a wave");
        assert_eq!(par.plan_depth(false), 2);
    }
}
