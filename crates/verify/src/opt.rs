//! # dipopt — abstract-interpretation optimizer passes over FN programs.
//!
//! Runs *after* the four admission passes and emits a [`ProgramFacts`]
//! artifact: per-hop def/use footprints on header bit ranges plus a small
//! constant lattice ([`AbstractVal`]) over FN operands, and a list of
//! [`Rewrite`]s each proven safe by that analysis. The dataplane's
//! `CompiledChain::compile` (in `dip-core`) applies the rewrites in place
//! to a program's identity plan; every transformation is also covered by a
//! differential equivalence gate (rewritten vs identity plan over a seeded
//! packet corpus, byte-identical outputs and verdicts).
//!
//! ## The lattice
//!
//! Operands are abstracted as `Unknown ⊒ Interval ⊒ Const`. Everything a
//! triple carries (`field_loc`, `field_len`, the operation key) is
//! program-constant — `Const` — because the chain is immutable once the
//! packet is parsed; field *values* are per-packet and stay `Unknown`.
//! Derived quantities fold through: a DAG-shaped field of `L` bits holds
//! between 1 and `(L/8 − 6)/28` nodes (`Interval`), and a MAC over an
//! `L`-bit field costs a `Const` number of cipher blocks. The rewrites
//! below only ever rely on `Const`/`Interval` facts, never on `Unknown`.
//!
//! ## Rewrite legality
//!
//! * **Redundant-parse elimination** — a hop whose only effect is
//!   publishing a parsed structure into per-packet scratch
//!   ([`FieldOp::writes_parsed_dag`]) may be deleted when the next router
//!   hop consumes that scratch *and* re-parses the same span with
//!   identical semantics on a miss
//!   ([`FieldOp::consumes_parsed_dag_with_fallback`]) — the triples must
//!   select byte-for-byte the same span, otherwise the pair is
//!   order-sensitive and dipopt bails ([`BailReason::SpanMismatch`]).
//! * **Dead-key-write elimination** — a hop that only writes the dynamic
//!   key slot, cannot drop ([`FieldOp::infallible_for`]), and has no
//!   later reader of the key is effect-free and deleted.
//! * **Fusion** — adjacent router hops whose footprints do not conflict
//!   (per the *same* [`dip_fnops::parallel::conflicts`] predicate the
//!   planner and the data-flow pass use) share pipeline stages; this is a
//!   pure cost rewrite — execution order is untouched.
//! * **Hoisting** — packet-invariant setup (the OPT key schedule) moves
//!   to once-per-compiled-chain via [`FieldOp::hoist`]; the per-packet
//!   residue must be byte-identical ([`FieldOp::execute_hoisted`]).
//!
//! Budget accounting is *replayed*, not optimized: the compiled plan
//! charges the original cost of every hop (eliminated hops become
//! charge-only steps) so the budget meter's drop decisions are identical
//! in both plans. Only the timing-model cost shrinks.
//!
//! Programs dipopt refuses to touch get a [`Bail`] with the reason and
//! run as their identity plan. The
//! [`optimization_corpus`] pins admissible-but-unoptimizable programs.
//!
//! [`FieldOp::writes_parsed_dag`]: dip_fnops::FieldOp::writes_parsed_dag
//! [`FieldOp::consumes_parsed_dag_with_fallback`]: dip_fnops::FieldOp::consumes_parsed_dag_with_fallback
//! [`FieldOp::infallible_for`]: dip_fnops::FieldOp::infallible_for
//! [`FieldOp::hoist`]: dip_fnops::FieldOp::hoist
//! [`FieldOp::execute_hoisted`]: dip_fnops::FieldOp::execute_hoisted

use crate::program::FnProgram;
use dip_fnops::parallel::{conflicts, footprint, Footprint};
use dip_fnops::{FnRegistry, OpCost};
use dip_wire::triple::FnKey;

/// A value in dipopt's three-level lattice: `Unknown ⊒ Interval ⊒ Const`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbstractVal {
    /// Per-packet: nothing is known statically.
    Unknown,
    /// Program-constant: the exact value is known at admission time.
    Const(u64),
    /// Bounded: the value is known to lie in `[lo, hi]`.
    Interval {
        /// Inclusive lower bound.
        lo: u64,
        /// Inclusive upper bound.
        hi: u64,
    },
}

impl AbstractVal {
    /// Least upper bound of two abstract values.
    pub fn join(self, other: AbstractVal) -> AbstractVal {
        use AbstractVal::*;
        match (self, other) {
            (Unknown, _) | (_, Unknown) => Unknown,
            (Const(a), Const(b)) if a == b => Const(a),
            (a, b) => {
                let (alo, ahi) = a.bounds();
                let (blo, bhi) = b.bounds();
                Interval { lo: alo.min(blo), hi: ahi.max(bhi) }
            }
        }
    }

    /// The exact value, when program-constant.
    pub fn as_const(self) -> Option<u64> {
        match self {
            AbstractVal::Const(v) => Some(v),
            _ => None,
        }
    }

    fn bounds(self) -> (u64, u64) {
        match self {
            AbstractVal::Unknown => (0, u64::MAX),
            AbstractVal::Const(v) => (v, v),
            AbstractVal::Interval { lo, hi } => (lo, hi),
        }
    }
}

/// Def/use and folded-operand facts for one hop of an FN program.
#[derive(Debug, Clone)]
pub struct HopFacts {
    /// Position in the chain.
    pub index: usize,
    /// The operation key.
    pub key: FnKey,
    /// Host-tagged (routers skip it).
    pub host: bool,
    /// Whether the registry has a module for the key.
    pub installed: bool,
    /// Bits read in the locations area, `[start, end)`.
    pub read_bits: (usize, usize),
    /// Bits written, or `None` for pure readers.
    pub write_bits: Option<(usize, usize)>,
    /// Reads the per-packet dynamic key.
    pub reads_key: bool,
    /// Writes the per-packet dynamic key.
    pub writes_key: bool,
    /// Unoptimized per-packet cost under the standard model.
    pub model: OpCost,
    /// Folded field offset (always `Const`: triples are program text).
    pub field_loc: AbstractVal,
    /// Folded field width (always `Const`).
    pub field_len: AbstractVal,
    /// The field's *value* — per-packet, so always `Unknown`.
    pub field_value: AbstractVal,
    /// Node count for DAG-shaped fields: `Interval{1, capacity}`.
    pub dag_nodes: AbstractVal,
    /// Cipher-block count for keyed-MAC hops: folded to `Const`.
    pub cipher_blocks: AbstractVal,
}

/// A transformation dipopt has proven safe for a specific program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rewrite {
    /// Delete the parse at `parse`; its consumer at `into` re-parses the
    /// same span on scratch miss. `fused_model` is the consumer's reduced
    /// timing-model cost (the pre-parse stage folds into the walk).
    EliminateRedundantParse {
        /// Index of the deleted publisher hop.
        parse: usize,
        /// Index of the consuming hop that absorbs it.
        into: usize,
        /// Consumer's cost with the parse folded in.
        fused_model: OpCost,
    },
    /// Delete the hop at `index`: it only writes the dynamic key, cannot
    /// drop, and no later hop reads the key.
    EliminateDeadKeyWrite {
        /// Index of the dead hop.
        index: usize,
    },
    /// Hops `first` and `second` share pipeline stages (cost-only rewrite;
    /// execution order unchanged).
    FuseAdjacent {
        /// Earlier hop of the fused pair.
        first: usize,
        /// Later hop of the fused pair.
        second: usize,
    },
    /// Hop `index`'s packet-invariant setup runs once per compiled chain;
    /// `hoisted_model` is its per-packet residue cost.
    HoistKeySchedule {
        /// Index of the hoisted hop.
        index: usize,
        /// Per-packet cost after hoisting.
        hoisted_model: OpCost,
    },
}

/// Why dipopt declined an optimization opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BailReason {
    /// The program requests parallel execution; the wave planner owns it.
    ParallelProgram,
    /// A router hop's key has no installed module — its semantics (and
    /// footprint) are unknown, so the whole program is left alone.
    UninstalledKey(FnKey),
    /// A parse/consume pair selects different bit spans; eliminating the
    /// parse would change which bytes the consumer walks.
    SpanMismatch,
    /// A parse's published value is consumed, but not by the immediately
    /// following hop; intervening effects make elimination unprovable.
    NotAdjacent,
    /// Two hops write overlapping bit spans (aliasing).
    AliasingWrites,
    /// One hop writes bits the other reads — the pair is order-dependent.
    OrderDependentWrites,
    /// The pair is linked through the dynamic-key slot.
    KeyDependency,
}

/// A declined opportunity: which hop(s), and why.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bail {
    /// First involved hop, when the bail is hop-specific.
    pub first: Option<usize>,
    /// Second involved hop, for pairwise bails.
    pub second: Option<usize>,
    /// The reason.
    pub reason: BailReason,
}

/// The artifact dipopt emits per program: facts plus proven rewrites.
#[derive(Debug, Clone)]
pub struct ProgramFacts {
    /// Per-hop def/use and folded-operand facts.
    pub hops: Vec<HopFacts>,
    /// Transformations proven safe for this program.
    pub rewrites: Vec<Rewrite>,
    /// Opportunities declined, with reasons.
    pub bails: Vec<Bail>,
}

impl ProgramFacts {
    /// Whether any rewrite applies.
    pub fn optimizes(&self) -> bool {
        !self.rewrites.is_empty()
    }

    /// Number of hops deleted from the per-packet path.
    pub fn ops_eliminated(&self) -> usize {
        self.rewrites
            .iter()
            .filter(|r| {
                matches!(
                    r,
                    Rewrite::EliminateRedundantParse { .. } | Rewrite::EliminateDeadKeyWrite { .. }
                )
            })
            .count()
    }

    /// Number of adjacent-pair fusions.
    pub fn fusions(&self) -> usize {
        self.rewrites.iter().filter(|r| matches!(r, Rewrite::FuseAdjacent { .. })).count()
    }

    /// Number of hoisted setups.
    pub fn hoists(&self) -> usize {
        self.rewrites.iter().filter(|r| matches!(r, Rewrite::HoistKeySchedule { .. })).count()
    }

    /// Whether a bail with `reason` was recorded.
    pub fn bailed(&self, reason: BailReason) -> bool {
        self.bails.iter().any(|b| b.reason == reason)
    }
}

/// Maximum node count a DAG-shaped field of `field_len` bits can carry
/// (6 header bytes, then 28 bytes per node).
pub fn dag_nodes_cap(field_len: u16) -> usize {
    (usize::from(field_len) / 8).saturating_sub(6) / 28
}

fn hop_facts(index: usize, program: &FnProgram, registry: &FnRegistry) -> HopFacts {
    let t = &program.fns[index];
    let fp = if t.host { None } else { footprint(t, registry) };
    let op = registry.get(t.key);
    let model = match (&op, t.host) {
        (Some(op), false) => op.cost(t.field_len),
        _ => OpCost::default(),
    };
    let dag_shaped =
        op.as_ref().is_some_and(|o| o.writes_parsed_dag() || o.consumes_parsed_dag_with_fallback());
    let cap = dag_nodes_cap(t.field_len);
    HopFacts {
        index,
        key: t.key,
        host: t.host,
        installed: op.is_some(),
        read_bits: fp.as_ref().map(|f| f.read).unwrap_or((usize::from(t.field_loc), t.field_end())),
        write_bits: fp.as_ref().and_then(|f| f.write),
        reads_key: fp.as_ref().is_some_and(|f| f.reads_key),
        writes_key: fp.as_ref().is_some_and(|f| f.writes_key),
        model,
        field_loc: AbstractVal::Const(u64::from(t.field_loc)),
        field_len: AbstractVal::Const(u64::from(t.field_len)),
        field_value: AbstractVal::Unknown,
        dag_nodes: if dag_shaped && cap >= 1 {
            AbstractVal::Interval { lo: 1, hi: cap as u64 }
        } else {
            AbstractVal::Unknown
        },
        cipher_blocks: if model.cipher_blocks > 0 {
            AbstractVal::Const(u64::from(model.cipher_blocks))
        } else {
            AbstractVal::Unknown
        },
    }
}

fn classify_conflict(a: &Footprint, b: &Footprint) -> BailReason {
    use dip_fnops::parallel::ranges_overlap;
    if let (Some(wa), Some(wb)) = (a.write, b.write) {
        if ranges_overlap(wa, wb) {
            return BailReason::AliasingWrites;
        }
    }
    let write_read = a.write.is_some_and(|wa| ranges_overlap(wa, b.read))
        || b.write.is_some_and(|wb| ranges_overlap(wb, a.read));
    if write_read {
        return BailReason::OrderDependentWrites;
    }
    BailReason::KeyDependency
}

/// Runs the dipopt passes over `program` against `registry`.
///
/// Always total: a program that cannot be optimized comes back with an
/// empty rewrite list and the reasons recorded in `bails`, never an error.
pub fn analyze(program: &FnProgram, registry: &FnRegistry) -> ProgramFacts {
    let mut facts = ProgramFacts {
        hops: (0..program.fns.len()).map(|i| hop_facts(i, program, registry)).collect(),
        rewrites: Vec::new(),
        bails: Vec::new(),
    };

    // The wave planner owns parallel-flagged programs (§2.2); a compile-time
    // re-ordering on top of a runtime one would have to prove commutativity
    // twice. Bail outright.
    if program.parallel {
        facts.bails.push(Bail { first: None, second: None, reason: BailReason::ParallelProgram });
        return facts;
    }

    let router: Vec<usize> =
        program.fns.iter().enumerate().filter(|(_, t)| !t.host).map(|(i, _)| i).collect();

    // Any uninstalled router key means unknown semantics somewhere in the
    // chain; every rewrite's legality argument assumes it knows all effects.
    let mut blocked = false;
    for &i in &router {
        if registry.get(program.fns[i].key).is_none() {
            facts.bails.push(Bail {
                first: Some(i),
                second: None,
                reason: BailReason::UninstalledKey(program.fns[i].key),
            });
            blocked = true;
        }
    }
    if blocked {
        return facts;
    }

    let mut eliminated = vec![false; program.fns.len()];

    // Pass 1: redundant-parse elimination (publisher → adjacent consumer).
    for w in router.windows(2) {
        let (i, j) = (w[0], w[1]);
        let (ti, tj) = (&program.fns[i], &program.fns[j]);
        let pi = registry.get(ti.key).expect("checked installed");
        let pj = registry.get(tj.key).expect("checked installed");
        if !pi.writes_parsed_dag() {
            continue;
        }
        if pj.consumes_parsed_dag_with_fallback() {
            if ti.field_loc == tj.field_loc && ti.field_len == tj.field_len {
                // Constant-folded from the triple: the consumer's walk visits
                // at most cap nodes and resolves a route in at most cap−1
                // lookups once the pre-parse stage is folded away.
                let cap = dag_nodes_cap(tj.field_len);
                let fused_model = OpCost::lookup(1, cap.saturating_sub(1).max(1) as u32);
                facts.rewrites.push(Rewrite::EliminateRedundantParse {
                    parse: i,
                    into: j,
                    fused_model,
                });
                eliminated[i] = true;
            } else {
                facts.bails.push(Bail {
                    first: Some(i),
                    second: Some(j),
                    reason: BailReason::SpanMismatch,
                });
            }
        } else if router.iter().any(|&k| {
            k > j
                && registry
                    .get(program.fns[k].key)
                    .is_some_and(|o| o.consumes_parsed_dag_with_fallback())
        }) {
            facts.bails.push(Bail {
                first: Some(i),
                second: None,
                reason: BailReason::NotAdjacent,
            });
        }
    }

    // Pass 2: dead-key-write elimination.
    for (pos, &i) in router.iter().enumerate() {
        if eliminated[i] {
            continue;
        }
        let t = &program.fns[i];
        let op = registry.get(t.key).expect("checked installed");
        let fp = footprint(t, registry).expect("checked installed");
        let dead = fp.writes_key
            && fp.write.is_none()
            && op.infallible_for(t)
            && !router[pos + 1..]
                .iter()
                .any(|&k| footprint(&program.fns[k], registry).is_some_and(|f| f.reads_key));
        if dead {
            facts.rewrites.push(Rewrite::EliminateDeadKeyWrite { index: i });
            eliminated[i] = true;
        }
    }

    // Pass 3: hoist packet-invariant setup on surviving hops.
    for &i in &router {
        if eliminated[i] {
            continue;
        }
        let t = &program.fns[i];
        let op = registry.get(t.key).expect("checked installed");
        if op.hoistable() {
            let hoisted_model = op.hoisted_cost(t.field_len);
            if hoisted_model != op.cost(t.field_len) {
                facts.rewrites.push(Rewrite::HoistKeySchedule { index: i, hoisted_model });
            }
        }
    }

    // Pass 4: stage fusion over surviving adjacent pairs. Fused hops share
    // stage occupancy on hardware, so members must be mutually
    // conflict-free; groups grow greedily and a conflict with *any* member
    // closes the group (and is recorded as a bail for the adjacent pair).
    let surviving: Vec<usize> = router.iter().copied().filter(|&i| !eliminated[i]).collect();
    let mut group: Vec<usize> = Vec::new();
    for w in surviving.windows(2) {
        let (i, j) = (w[0], w[1]);
        if group.is_empty() {
            group.push(i);
        }
        let fj = footprint(&program.fns[j], registry).expect("checked installed");
        let clash = group.iter().any(|&g| {
            let fg = footprint(&program.fns[g], registry).expect("checked installed");
            conflicts(&fg, &fj)
        });
        if clash {
            let fi = footprint(&program.fns[i], registry).expect("checked installed");
            let reason = if conflicts(&fi, &fj) {
                classify_conflict(&fi, &fj)
            } else {
                // The clash is with an earlier group member.
                BailReason::OrderDependentWrites
            };
            facts.bails.push(Bail { first: Some(i), second: Some(j), reason });
            group.clear();
        } else {
            facts.rewrites.push(Rewrite::FuseAdjacent { first: i, second: j });
            group.push(j);
        }
    }

    facts
}

/// One admissible-but-unoptimizable program, with the bail dipopt must
/// record for it.
pub struct OptCorpusCase {
    /// Short stable identifier.
    pub name: &'static str,
    /// Why the program must not be optimized.
    pub description: &'static str,
    /// The program (passes all four admission passes).
    pub program: FnProgram,
    /// The bail reason dipopt must record, with zero rewrites.
    pub expect: BailReason,
}

/// Programs that are *admissible* — all four admission passes accept them —
/// but that dipopt must provably refuse to optimize. The pinned contract:
/// `analyze` returns **zero rewrites** and records the expected bail.
pub fn optimization_corpus() -> Vec<OptCorpusCase> {
    use dip_wire::triple::FnTriple;
    vec![
        OptCorpusCase {
            name: "aliasing-spans",
            description: "two F_intent hops rewrite the same 720-bit span; \
                          write/write aliasing makes any reordering or fusion unsound",
            program: FnProgram::new(
                vec![
                    FnTriple::router(0, 720, FnKey::Intent),
                    FnTriple::router(0, 720, FnKey::Intent),
                ],
                90,
                false,
            ),
            expect: BailReason::AliasingWrites,
        },
        OptCorpusCase {
            name: "order-dependent-writes",
            description: "F_intent rewrites bits 0..720, then F_32_match reads bits 32..64 \
                          of the rewritten span; the pair is order-dependent",
            program: FnProgram::new(
                vec![
                    FnTriple::router(0, 720, FnKey::Intent),
                    FnTriple::router(32, 32, FnKey::Match32),
                ],
                90,
                false,
            ),
            expect: BailReason::OrderDependentWrites,
        },
        OptCorpusCase {
            name: "verdict-dependent-parse",
            description: "F_DAG parses span 0..720 but F_intent walks span 64..784; \
                          the intent's verdict depends on the published parse, so \
                          eliminating it would route on different bytes",
            program: FnProgram::new(
                vec![
                    FnTriple::router(0, 720, FnKey::Dag),
                    FnTriple::router(64, 720, FnKey::Intent),
                ],
                98,
                false,
            ),
            expect: BailReason::SpanMismatch,
        },
        OptCorpusCase {
            name: "parallel-program",
            description: "hazard-free parallel-flagged program; the wave planner owns it \
                          and dipopt must not second-guess the runtime schedule",
            program: FnProgram::new(
                vec![
                    FnTriple::router(0, 32, FnKey::Match32),
                    FnTriple::router(32, 32, FnKey::Source),
                ],
                8,
                true,
            ),
            expect: BailReason::ParallelProgram,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Checker;
    use dip_wire::triple::FnTriple;

    #[test]
    fn lattice_join_laws() {
        use AbstractVal::*;
        let samples = [Unknown, Const(3), Const(7), Interval { lo: 1, hi: 5 }];
        for a in samples {
            // Idempotent; Unknown is top.
            assert_eq!(a.join(a), a);
            assert_eq!(a.join(Unknown), Unknown);
            for b in samples {
                // Commutative.
                assert_eq!(a.join(b), b.join(a));
            }
        }
        assert_eq!(Const(3).join(Const(7)), Interval { lo: 3, hi: 7 });
        assert_eq!(Const(3).join(Interval { lo: 1, hi: 5 }), Interval { lo: 1, hi: 5 });
        assert_eq!(Const(3).as_const(), Some(3));
        assert_eq!(Interval { lo: 1, hi: 5 }.as_const(), None);
    }

    #[test]
    fn xia_chain_eliminates_the_redundant_parse() {
        // The XIA wire program: F_DAG then F_intent over the same 3-node
        // 720-bit span. The parse is redundant — F_intent re-parses
        // identically on a scratch miss — and the fused walk needs at most
        // nodes−1 lookups.
        let p = FnProgram::new(
            vec![FnTriple::router(0, 720, FnKey::Dag), FnTriple::router(0, 720, FnKey::Intent)],
            90,
            false,
        );
        let facts = analyze(&p, &FnRegistry::standard());
        assert_eq!(
            facts.rewrites,
            vec![Rewrite::EliminateRedundantParse {
                parse: 0,
                into: 1,
                fused_model: OpCost::lookup(1, 2),
            }]
        );
        assert_eq!(facts.ops_eliminated(), 1);
        // The folded node-count fact backs the fused model.
        assert_eq!(facts.hops[1].dag_nodes, AbstractVal::Interval { lo: 1, hi: 3 });
    }

    #[test]
    fn opt_chain_hoists_the_key_schedule_and_respects_key_deps() {
        // §3's OPT chain: parm → MAC → mark (+ host-tagged ver).
        let p = FnProgram::new(
            vec![
                FnTriple::router(128, 128, FnKey::Parm),
                FnTriple::router(0, 416, FnKey::Mac),
                FnTriple::router(288, 128, FnKey::Mark),
                FnTriple::host(0, 544, FnKey::Ver),
            ],
            68,
            false,
        );
        let facts = analyze(&p, &FnRegistry::standard());
        assert_eq!(facts.hoists(), 1);
        assert!(facts.rewrites.contains(&Rewrite::HoistKeySchedule {
            index: 0,
            hoisted_model: OpCost::cipher(1, 2, 0),
        }));
        // parm→MAC is a key dependency, MAC→mark an order-dependent write;
        // neither pair fuses and nothing is eliminated.
        assert!(facts.bailed(BailReason::KeyDependency));
        assert!(facts.bailed(BailReason::OrderDependentWrites));
        assert_eq!(facts.fusions(), 0);
        assert_eq!(facts.ops_eliminated(), 0);
    }

    #[test]
    fn lone_key_derivation_is_a_dead_write() {
        let p = FnProgram::new(vec![FnTriple::router(128, 128, FnKey::Parm)], 68, false);
        let facts = analyze(&p, &FnRegistry::standard());
        assert_eq!(facts.rewrites, vec![Rewrite::EliminateDeadKeyWrite { index: 0 }]);
        // The eliminated hop must not also be hoisted.
        assert_eq!(facts.hoists(), 0);
    }

    #[test]
    fn disjoint_readers_fuse() {
        // The dip32 chain: match then source touch disjoint spans, no keys.
        let p = FnProgram::new(
            vec![FnTriple::router(0, 32, FnKey::Match32), FnTriple::router(32, 32, FnKey::Source)],
            8,
            false,
        );
        let facts = analyze(&p, &FnRegistry::standard());
        assert_eq!(facts.rewrites, vec![Rewrite::FuseAdjacent { first: 0, second: 1 }]);
        assert_eq!(facts.fusions(), 1);
    }

    #[test]
    fn fusion_groups_require_mutual_compatibility() {
        // a reads 0..32, b reads 64..96, c rewrites 0..720: c conflicts with
        // a (already in the group) even though it could pair with b alone —
        // the group must close.
        let p = FnProgram::new(
            vec![
                FnTriple::router(0, 32, FnKey::Match32),
                FnTriple::router(64, 32, FnKey::Match32),
                FnTriple::router(0, 720, FnKey::Intent),
            ],
            90,
            false,
        );
        let facts = analyze(&p, &FnRegistry::standard());
        assert_eq!(facts.rewrites, vec![Rewrite::FuseAdjacent { first: 0, second: 1 }]);
        assert!(facts.bailed(BailReason::OrderDependentWrites));
    }

    #[test]
    fn distant_consumer_blocks_parse_elimination() {
        // F_DAG's publish is consumed two hops later; the intervening hop
        // makes adjacency-based elimination unprovable.
        let p = FnProgram::new(
            vec![
                FnTriple::router(0, 720, FnKey::Dag),
                FnTriple::router(720, 32, FnKey::Match32),
                FnTriple::router(0, 720, FnKey::Intent),
            ],
            94,
            false,
        );
        let facts = analyze(&p, &FnRegistry::standard());
        assert!(facts.bailed(BailReason::NotAdjacent));
        assert!(facts
            .rewrites
            .iter()
            .all(|r| !matches!(r, Rewrite::EliminateRedundantParse { .. })));
    }

    #[test]
    fn uninstalled_key_blocks_everything() {
        let p = FnProgram::new(
            vec![FnTriple::router(0, 32, FnKey::Match32), FnTriple::router(32, 32, FnKey::Source)],
            8,
            false,
        );
        let facts = analyze(&p, &FnRegistry::with_keys(&[FnKey::Match32]));
        assert!(facts.bailed(BailReason::UninstalledKey(FnKey::Source)));
        assert!(facts.rewrites.is_empty());
    }

    #[test]
    fn corpus_cases_are_admissible_yet_never_optimized() {
        let checker = Checker::new();
        for case in optimization_corpus() {
            let report = checker.check(&case.program);
            assert!(report.is_clean(), "corpus case {} must be admissible: {report}", case.name);
            let facts = analyze(&case.program, &FnRegistry::standard());
            assert!(
                facts.rewrites.is_empty(),
                "corpus case {} must not be optimized, got {:?}",
                case.name,
                facts.rewrites
            );
            assert!(
                facts.bailed(case.expect),
                "corpus case {} must bail with {:?}, got {:?}",
                case.name,
                case.expect,
                facts.bails
            );
        }
    }

    #[test]
    fn hop_facts_fold_program_constants() {
        let p = FnProgram::new(
            vec![FnTriple::router(0, 416, FnKey::Mac), FnTriple::host(0, 544, FnKey::Ver)],
            68,
            false,
        );
        let facts = analyze(&p, &FnRegistry::standard());
        let mac = &facts.hops[0];
        assert_eq!(mac.field_loc, AbstractVal::Const(0));
        assert_eq!(mac.field_len, AbstractVal::Const(416));
        assert_eq!(mac.field_value, AbstractVal::Unknown);
        // 52 bytes of coverage → 1 length block + 4 message blocks.
        assert_eq!(mac.cipher_blocks, AbstractVal::Const(5));
        assert!(mac.reads_key && !mac.writes_key);
        assert!(facts.hops[1].host);
    }
}
