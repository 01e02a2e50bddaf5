//! The executor's independent witness: a deliberately naive Algorithm 1.
//!
//! [`Reference`] re-derives everything per packet. It parses with the
//! `DipPacket` accessors, looks every triple up in the registry, applies
//! the §2.4 participation policy, charges each op's `cost` to a budget
//! meter of its own, calls `execute` (never `execute_hoisted`), keeps the first
//! routing decision and falls back to the default port. It uses no
//! compiled chain, parse cache, plan or program cache, so it shares
//! nothing with the executor but the operation modules themselves — not
//! even the budget test, which the executor decides once per compiled
//! chain.
//!
//! `DipRouter::process` must match it packet by packet — verdict, packet
//! bytes and router-state fingerprint — with dipopt off (the identity
//! plan, where the executed, host-skipped and unsupported-skipped FN
//! counts must match too) and on (the rewritten plans). The inputs:
//!
//! * the six workload traffic classes;
//! * generated FN programs over the standard keys plus one unregistered
//!   key, with random host bits and spans, admitted and refused alike;
//! * all of the above again under a tight processing budget, where an
//!   eliminated op's as-written charge still decides drops;
//! * the `dipcheck`-admitted generated programs through a recording
//!   threaded `Dataplane`.

use dip::core::{ControlMessage, UnknownFnPolicy};
use dip::crypto::DetRng;
use dip::dataplane::{Admission, Backpressure, Dataplane, DataplaneConfig};
use dip::fnops::OpCost;
use dip::prelude::*;
use dip::tables::{Ticks, XiaNextHop};
use dip::verify::{analyze, ResourceBudget, Rewrite};
use dip::wire::ipv4::Ipv4Addr;
use dip::wire::ipv6::Ipv6Addr;
use dip::workload::{Mix, TrafficClass, WorkloadSpec};
use dip_routes::RouteStore;

/// FN counts Algorithm 1 reports beside the verdict.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    executed: u32,
    skipped_host: u32,
    skipped_unsupported: u32,
}

/// Per-packet consumption against a [`ResourceBudget`], charged op by op.
#[derive(Default)]
struct Meter {
    fns: u32,
    cost: OpCost,
}

impl Meter {
    /// Charges one op; `false` (consuming nothing) when it would exceed
    /// `budget` — the packet must be dropped (§2.4).
    fn charge(&mut self, budget: &ResourceBudget, cost: OpCost) -> bool {
        let (fns, total) = (self.fns + 1, self.cost + cost);
        if fns > budget.max_fns
            || total.stages > budget.max_stages
            || total.table_lookups > budget.max_table_lookups
            || total.cipher_blocks > budget.max_cipher_blocks
            || total.resubmits > budget.max_resubmits
        {
            return false;
        }
        (self.fns, self.cost) = (fns, total);
        true
    }
}

/// Algorithm 1, written out the long way.
struct Reference {
    /// Holds the forwarding state the ops act on; its own `process` is
    /// never called.
    holder: DipRouter,
    registry: FnRegistry,
    config: RouterConfig,
}

impl Reference {
    fn new(router: DipRouter) -> Self {
        let registry = router.registry().clone();
        let config = router.config().clone();
        Reference { holder: router, registry, config }
    }

    fn process(&mut self, buf: &mut [u8], in_port: Port, now: Ticks) -> (Verdict, Counts) {
        let malformed = (Verdict::Drop(DropReason::MalformedField), Counts::default());
        // Lines 1–3: basic header, FN triples, locations.
        let pkt = match DipPacket::new_checked(&buf[..]) {
            Ok(pkt) => pkt,
            Err(_) => return malformed,
        };
        let (Ok(header), Ok(triples)) = (pkt.basic_header(), pkt.triples()) else {
            return malformed;
        };
        if triples.iter().any(|t| !t.fits(usize::from(header.param.fn_loc_len))) {
            return malformed;
        }
        let mut locations = pkt.locations().to_vec();
        let payload = pkt.payload().to_vec();
        if DipPacket::new_unchecked(&mut buf[..]).decrement_hop_limit().is_none() {
            return (Verdict::Drop(DropReason::HopLimitExceeded), Counts::default());
        }
        let result = self.walk(&triples, &mut locations, &payload, in_port, now);
        // Ops rewrite tags in place, even on a packet they go on to drop.
        DipPacket::new_unchecked(&mut buf[..]).locations_mut().copy_from_slice(&locations);
        result
    }

    /// Lines 4–18.
    fn walk(
        &mut self,
        triples: &[FnTriple],
        locations: &mut [u8],
        payload: &[u8],
        in_port: Port,
        now: Ticks,
    ) -> (Verdict, Counts) {
        let mut counts = Counts::default();
        let mut ctx = PacketCtx::new(locations, payload, in_port, now);
        let mut meter = Meter::default();
        let mut decision = None;
        for (i, t) in triples.iter().enumerate() {
            if t.host {
                counts.skipped_host += 1;
                continue;
            }
            let Some(op) = self.registry.get(t.key) else {
                let key = t.key.to_wire();
                if self.config.participation_keys.contains(&key)
                    || self.config.unknown_fn_policy == UnknownFnPolicy::Notify
                {
                    let node_id = self.holder.state().node_id;
                    let msg = ControlMessage::FnUnsupported { key, node_id, fn_index: i as u8 };
                    return (Verdict::Notify(msg), counts);
                }
                counts.skipped_unsupported += 1;
                continue;
            };
            if !meter.charge(&self.config.budget, op.cost(t.field_len)) {
                return (Verdict::Drop(DropReason::ProcessingBudgetExceeded), counts);
            }
            counts.executed += 1;
            let verdict = match op.execute(t, self.holder.state_mut(), &mut ctx) {
                Action::Continue => continue,
                Action::Forward(p) => Verdict::Forward(Ports::one(p)),
                Action::ForwardMulti(ps) => Verdict::Forward(ps),
                Action::Deliver => Verdict::Deliver,
                Action::Consumed => Verdict::Consumed,
                Action::RespondCached(data) => return (Verdict::RespondCached(data), counts),
                Action::Drop(reason) => return (Verdict::Drop(reason), counts),
            };
            decision.get_or_insert(verdict);
        }
        let fallback = match self.config.default_port {
            Some(p) => Verdict::Forward(Ports::one(p)),
            None => Verdict::Deliver,
        };
        (decision.unwrap_or(fallback), counts)
    }
}

/// The router-state fingerprint `dip::core::equiv` compares.
fn fingerprint(router: &DipRouter) -> String {
    let st = router.state();
    format!("{:?} pit={} cs={:?}", st, st.pit.len(), st.content_store.as_ref().map(|c| c.len()))
}

/// Runs `packets` through the reference and through `DipRouter::process`
/// with dipopt off and on — three routers from `make`, under `budget` when
/// given — asserts they agree on every packet, and returns the reference's
/// outcomes.
fn differential(
    what: &str,
    make: impl Fn() -> DipRouter,
    budget: Option<ResourceBudget>,
    packets: &[(Vec<u8>, Port, Ticks)],
) -> Vec<(Verdict, Counts)> {
    let configure = |optimize: bool| {
        let mut r = make();
        r.config_mut().optimize = optimize;
        if let Some(b) = budget {
            r.config_mut().budget = b;
        }
        r
    };
    let mut reference = Reference::new(configure(false));
    let mut plain = configure(false);
    let mut optimized = configure(true);
    let mut outcomes = Vec::with_capacity(packets.len());
    for (i, (bytes, in_port, now)) in packets.iter().enumerate() {
        let (mut a, mut b, mut c) = (bytes.clone(), bytes.clone(), bytes.clone());
        let (want, counts) = reference.process(&mut a, *in_port, *now);
        let (got, stats) = plain.process(&mut b, *in_port, *now);
        let (got_opt, _) = optimized.process(&mut c, *in_port, *now);
        assert_eq!(got, want, "{what} #{i}: identity-plan verdict");
        assert_eq!(got_opt, want, "{what} #{i}: rewritten-plan verdict");
        assert!(b == a && c == a, "{what} #{i}: packet bytes diverged after {want:?}");
        let reference_state = fingerprint(&reference.holder);
        assert_eq!(fingerprint(&plain), reference_state, "{what} #{i}: identity-plan state");
        assert_eq!(fingerprint(&optimized), reference_state, "{what} #{i}: rewritten state");
        let plain_counts = Counts {
            executed: stats.fns_executed,
            skipped_host: stats.skipped_host,
            skipped_unsupported: stats.skipped_unsupported,
        };
        assert_eq!(plain_counts, counts, "{what} #{i}: identity-plan FN counts");
        outcomes.push((want, counts));
    }
    outcomes
}

fn over_budget(verdict: &Verdict) -> bool {
    *verdict == Verdict::Drop(DropReason::ProcessingBudgetExceeded)
}

fn budget_drops(outcomes: &[(Verdict, Counts)]) -> usize {
    outcomes.iter().filter(|(v, _)| over_budget(v)).count()
}

/// Small enough that longer generated programs and the OPT chains run out
/// of it mid-chain.
fn tight_budget() -> ResourceBudget {
    ResourceBudget {
        max_fns: 3,
        max_stages: 6,
        max_table_lookups: 3,
        max_cipher_blocks: 8,
        max_resubmits: 0,
    }
}

/// A router with routes in every table and a content store.
fn loaded_router() -> DipRouter {
    let mut r = DipRouter::new(3, [0x5a; 16]);
    r.config_mut().default_port = Some(9);
    let mut routes = RouteStore::new();
    routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    routes.insert_v6(Ipv6Addr::new([0x0a0a, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(2));
    routes.insert_name(&Name::parse("/ref/content"), NextHop::port(3));
    routes.insert_xia(XidType::Ad, Xid::derive(b"ref-ad"), XiaNextHop::Port(4));
    r.state_mut().routes = routes.rebuild();
    r.state_mut().enable_content_store(64);
    r
}

const PROGRAMS: usize = 2_400;

/// One generated program and the packet carrying it.
struct Generated {
    repr: DipRepr,
    bytes: Vec<u8>,
}

/// Draws one FN program of 1–6 triples and a packet carrying it.
///
/// Keys come from the standard registry plus one key nothing installs.
/// Spans mix the widths the shipped ops expect with arbitrary ones, and a
/// triple often reuses its predecessor's span so that same-span pairs
/// (the shape redundant-parse elimination and aliasing bails need) occur.
fn generate(rng: &mut DetRng) -> Generated {
    let mut keys = FnKey::table1().to_vec();
    keys.extend([FnKey::Pass, FnKey::Other(0x200)]);
    const WIDTHS: [u16; 8] = [32, 32, 128, 128, 416, 544, 720, 64];
    let n = 1 + rng.gen_index(6);
    let mut fns: Vec<FnTriple> = Vec::with_capacity(n);
    for _ in 0..n {
        let (field_loc, field_len) = match fns.last() {
            Some(prev) if rng.gen_bool(0.3) => (prev.field_loc, prev.field_len),
            _ => {
                let len = if rng.gen_bool(0.8) {
                    WIDTHS[rng.gen_index(WIDTHS.len())]
                } else {
                    1 + rng.gen_index(600) as u16
                };
                let loc = if rng.gen_bool(0.8) {
                    8 * rng.gen_index(48) as u16
                } else {
                    rng.gen_index(400) as u16
                };
                (loc, len)
            }
        };
        let key = keys[rng.gen_index(keys.len())];
        let triple = if rng.gen_bool(0.15) {
            FnTriple::host(field_loc, field_len, key)
        } else {
            FnTriple::router(field_loc, field_len, key)
        };
        fns.push(triple);
    }
    let bits = fns.iter().map(FnTriple::field_end).max().unwrap_or(0);
    let loc_len = bits.div_ceil(8) + rng.gen_index(4);
    // Random bytes, zeros, or 10.10.10.10… (which the v4 and v6 routes
    // above match wherever a lookup lands).
    let fill = rng.gen_index(3);
    let locations: Vec<u8> = (0..loc_len)
        .map(|_| match fill {
            0 => rng.gen_index(256) as u8,
            1 => 0,
            _ => 10,
        })
        .collect();
    let mut repr = DipRepr { fns, locations, ..Default::default() };
    repr.parallel = rng.gen_bool(0.2);
    let payload: Vec<u8> = (0..rng.gen_index(24)).map(|_| rng.gen_index(256) as u8).collect();
    let bytes = repr.to_bytes(&payload).expect("generated programs fit the wire format");
    Generated { repr, bytes }
}

fn generated_corpus() -> Vec<Generated> {
    let mut rng = DetRng::seed_from_u64(0x0a1f_e11e);
    (0..PROGRAMS).map(|_| generate(&mut rng)).collect()
}

fn as_packets(corpus: &[Generated]) -> Vec<(Vec<u8>, Port, Ticks)> {
    corpus.iter().enumerate().map(|(i, g)| (g.bytes.clone(), (i % 4) as Port, i as Ticks)).collect()
}

fn program_of(g: &Generated) -> FnProgram {
    FnProgram::new(g.repr.fns.clone(), g.repr.locations.len(), g.repr.parallel)
}

#[test]
fn workload_traces_match_the_reference() {
    for (i, &class) in TrafficClass::ALL.iter().enumerate() {
        let spec = WorkloadSpec {
            seed: 0x4ef + i as u64,
            mix: Mix::single(class),
            catalog_size: 64,
            table_size: 512,
            pit_preseed: 256,
            ..Default::default()
        };
        let trace = spec.generate(1_000_000, 160);
        let packets: Vec<_> = trace.packets.iter().map(|p| (p.bytes.clone(), 7, p.at_ns)).collect();
        let make = || spec.build_router(1);
        differential(class.label(), make, None, &packets);
        differential(class.label(), make, Some(tight_budget()), &packets);
    }
}

#[test]
fn generated_programs_match_the_reference() {
    let corpus = generated_corpus();
    let packets = as_packets(&corpus);
    let roomy = differential("generated", loaded_router, None, &packets);
    let tight = differential("generated/tight", loaded_router, Some(tight_budget()), &packets);
    assert!(budget_drops(&tight) > budget_drops(&roomy), "the tight budget must drop more");

    // Every rewrite kind (R1–R4) must fire somewhere in the corpus, or the
    // rewritten side of the comparison proves less than it claims.
    let registry = FnRegistry::standard();
    let mut fired = [0usize; 4];
    // Programs with an eliminated op: (packet, router-order positions of
    // the eliminated ops, router FN count).
    let mut eliminating = Vec::new();
    for (g, packet) in corpus.iter().zip(&packets) {
        let facts = analyze(&program_of(g), &registry);
        let router_pos = |index: usize| g.repr.fns[..index].iter().filter(|t| !t.host).count();
        let mut eliminated = Vec::new();
        for rw in &facts.rewrites {
            let kind = match *rw {
                Rewrite::EliminateRedundantParse { parse, .. } => {
                    eliminated.push(router_pos(parse));
                    0
                }
                Rewrite::EliminateDeadKeyWrite { index } => {
                    eliminated.push(router_pos(index));
                    1
                }
                Rewrite::FuseAdjacent { .. } => 2,
                Rewrite::HoistKeySchedule { .. } => 3,
            };
            fired[kind] += 1;
        }
        if !eliminated.is_empty() {
            eliminating.push((packet.clone(), eliminated, router_pos(g.repr.fns.len())));
        }
    }
    assert!(fired.iter().all(|&n| n > 0), "rewrite kinds R1..R4 fired {fired:?} times");

    // An eliminated op runs nothing in the rewritten plan but is still
    // charged. Sweep the FN budget across those programs so that drops
    // land after an eliminated op's charge — drops the rewritten plan
    // matches only by replaying that charge.
    let mut residue_decided = 0;
    for max_fns in 0..6 {
        let cut: Vec<_> = eliminating.iter().filter(|(_, _, n)| *n > max_fns).collect();
        let packets: Vec<_> = cut.iter().map(|(p, _, _)| p.clone()).collect();
        let budget = ResourceBudget { max_fns: max_fns as u32, ..ResourceBudget::router() };
        let swept = differential("eliminating", loaded_router, Some(budget), &packets);
        for ((verdict, counts), (_, eliminated, _)) in swept.iter().zip(cut) {
            let charged = eliminated.iter().any(|&e| e < counts.executed as usize);
            if over_budget(verdict) && charged {
                residue_decided += 1;
            }
        }
    }
    assert!(residue_decided > 0, "no budget drop came after an eliminated op's charge");
}

#[test]
fn admitted_generated_programs_match_the_reference_on_the_dataplane() {
    let corpus = generated_corpus();
    let registry = FnRegistry::standard();
    let checker =
        Checker::new().with_semantics(registry.clone()).with_budget(ResourceBudget::software());
    let admitted: Vec<_> = as_packets(&corpus)
        .into_iter()
        .zip(&corpus)
        .filter(|(_, g)| !checker.check(&program_of(g)).has_errors())
        .map(|(p, _)| p)
        .collect();
    assert!(admitted.len() >= 200, "only {} generated programs admitted", admitted.len());

    // One worker, so every packet meets the state its predecessors left,
    // exactly as in the sequential reference. Workers run dipopt, as the
    // benchmark's do.
    let config = DataplaneConfig {
        workers: 1,
        batch_size: 8,
        ring_capacity: 64,
        backpressure: Backpressure::Block,
        admission: Admission::Lint,
        record_outcomes: true,
    };
    let mut dp = Dataplane::start(config, |_| {
        let mut r = loaded_router();
        r.config_mut().optimize = true;
        r
    });
    for (bytes, in_port, now) in &admitted {
        assert!(dp.submit_bytes(bytes, *in_port, *now).is_some());
    }
    let report = dp.shutdown();
    let outcomes = report.sorted_outcomes();
    assert_eq!(outcomes.len(), admitted.len());

    let mut reference = Reference::new(loaded_router());
    for (i, ((bytes, in_port, now), record)) in admitted.iter().zip(outcomes).enumerate() {
        let mut buf = bytes.clone();
        let (want, _) = reference.process(&mut buf, *in_port, *now);
        assert_eq!(record.verdict, want, "admitted #{i}: dataplane verdict");
        assert_eq!(record.bytes, buf, "admitted #{i}: dataplane packet bytes");
    }
    assert_eq!(fingerprint(&report.workers[0].router), fingerprint(&reference.holder));
}
