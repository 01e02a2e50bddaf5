//! What one operation touches: the [`Effects`] of an (op, triple) pair —
//! location bits, per-packet slots and router tables read and written,
//! whether it may drop or decide the packet's fate, and its timing-model
//! cost. The value is computed once when a program is compiled or checked;
//! the wave planner ([`crate::parallel`]), `dip-verify`'s passes, dipopt's
//! rewrite preconditions and a compiled chain's route phase all read it.
//!
//! Two ops *depend* on each other — must run in program order — when their
//! fields overlap with at least one side writing, or when one writes a slot
//! or table the other reads or writes ([`Effects::dependency`]).

use crate::cost::OpCost;
use dip_wire::triple::FnTriple;

/// State an op reads or writes besides the FN locations area: a per-packet
/// slot of [`PacketCtx`](crate::PacketCtx) or a table of
/// [`RouterState`](crate::RouterState).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Resource {
    /// `ctx.dynamic_key`: `F_parm` derives it, `F_MAC` and `F_mark` use it.
    DynamicKey,
    /// `ctx.dag`: `F_DAG` parses into it, `F_intent` walks it.
    ParsedDag,
    /// `ctx.pass_verified`: `F_pass` sets it, `F_PIT` may require it.
    PassVerdict,
    /// The IPv4 routes (`F_32_match`).
    V4Routes,
    /// The IPv6 routes (`F_128_match`).
    V6Routes,
    /// The name routes (`F_FIB`).
    NameRoutes,
    /// The XIA routes (`F_intent`).
    XiaRoutes,
    /// The pending interest table.
    Pit,
    /// The content store, LRU order included.
    ContentStore,
    /// Custom ops' tables in `state.ext`.
    Ext,
}

impl Resource {
    /// Every resource, in declaration order.
    pub const ALL: [Resource; 10] = [
        Resource::DynamicKey,
        Resource::ParsedDag,
        Resource::PassVerdict,
        Resource::V4Routes,
        Resource::V6Routes,
        Resource::NameRoutes,
        Resource::XiaRoutes,
        Resource::Pit,
        Resource::ContentStore,
        Resource::Ext,
    ];

    const fn bit(self) -> u16 {
        1 << self as u16
    }
}

/// A set of [`Resource`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Resources(u16);

impl Resources {
    /// The empty set.
    pub const NONE: Resources = Resources(0);

    /// This set with `r` added.
    pub const fn with(self, r: Resource) -> Resources {
        Resources(self.0 | r.bit())
    }

    /// Whether `r` is in the set.
    pub const fn contains(self, r: Resource) -> bool {
        self.0 & r.bit() != 0
    }
}

/// Whether two half-open bit ranges `[start, end)` share at least one bit.
///
/// Zero-length (empty) ranges overlap **nothing** — including when an
/// empty range sits strictly inside a non-empty one. Without the explicit
/// emptiness guards the pure interval test `a.0 < b.1 && b.0 < a.1` would
/// claim `(5, 5)` overlaps `(0, 10)`. An op with a zero-length field
/// touches no bits, so it cannot be part of a field-level data hazard.
pub fn ranges_overlap(a: (usize, usize), b: (usize, usize)) -> bool {
    a.0 < b.1 && b.0 < a.1 && a.0 != a.1 && b.0 != b.1
}

/// Why two ops must keep their program order: the first dependency found,
/// field-level before slots and tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dependency {
    /// Both write overlapping bits.
    AliasingWrites,
    /// One writes bits the other reads.
    WriteRead,
    /// One writes a slot or table the other reads or writes.
    Shared(Resource),
}

/// Everything one op does for one triple, as the op declares it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Effects {
    /// Bits read: the triple's target field, `[start, end)`.
    pub read: (usize, usize),
    /// Bits written, or `None` for an op that writes no location bit.
    pub write: Option<(usize, usize)>,
    /// Slots and tables read.
    pub reads: Resources,
    /// Slots and tables written (and possibly read: a write conflicts with
    /// any other access, so a read of the same resource adds nothing).
    pub writes: Resources,
    /// Whether a [`Resource::ParsedDag`] read falls back, on an empty slot,
    /// to parsing the op's own span exactly as `F_DAG` does.
    pub dag_fallback: bool,
    /// Whether the op may drop the packet, given a target field in bounds
    /// (admission's structural pass and `parse_packet` both guarantee it).
    pub may_drop: bool,
    /// Whether the op may decide the packet's fate otherwise: forward,
    /// deliver, consume or respond.
    pub may_decide: bool,
    /// Timing-model cost of one invocation (§4.1 / Figure 2).
    pub cost: OpCost,
    /// The per-packet residue cost when [`FieldOp::hoist`](crate::FieldOp::hoist)
    /// can move the op's setup to once per compiled chain.
    pub residue: Option<OpCost>,
}

impl Effects {
    /// An op that reads `triple`'s target field, costs `cost`, may drop,
    /// and touches nothing else.
    pub fn new(triple: &FnTriple, cost: OpCost) -> Effects {
        Effects {
            read: (usize::from(triple.field_loc), triple.field_end()),
            write: None,
            reads: Resources::NONE,
            writes: Resources::NONE,
            dag_fallback: false,
            may_drop: true,
            may_decide: false,
            cost,
            residue: None,
        }
    }

    /// These effects, rewriting the target field in place.
    pub fn writing_field(self) -> Effects {
        Effects { write: Some(self.read), ..self }
    }

    /// These effects, reading `r`.
    pub fn reading(self, r: Resource) -> Effects {
        Effects { reads: self.reads.with(r), ..self }
    }

    /// These effects, writing `r`.
    pub fn writing(self, r: Resource) -> Effects {
        Effects { writes: self.writes.with(r), ..self }
    }

    /// These effects, for an op that may decide the packet's fate.
    pub fn deciding(self) -> Effects {
        Effects { may_decide: true, ..self }
    }

    /// Whether the op reads or writes the dynamic key: a member of §3's
    /// `F_parm` → `F_MAC`/`F_mark` chain.
    pub fn in_key_chain(&self) -> bool {
        self.reads.contains(Resource::DynamicKey) || self.writes.contains(Resource::DynamicKey)
    }

    /// The dependency between these effects and `other`'s, or `None` when
    /// the two ops may run in either order or concurrently. Symmetric.
    pub fn dependency(&self, other: &Effects) -> Option<Dependency> {
        if let (Some(a), Some(b)) = (self.write, other.write) {
            if ranges_overlap(a, b) {
                return Some(Dependency::AliasingWrites);
            }
        }
        if self.write.is_some_and(|w| ranges_overlap(w, other.read))
            || other.write.is_some_and(|w| ranges_overlap(w, self.read))
        {
            return Some(Dependency::WriteRead);
        }
        let shared = Resources(
            self.writes.0 & (other.reads.0 | other.writes.0) | other.writes.0 & self.reads.0,
        );
        Resource::ALL.into_iter().find(|&r| shared.contains(r)).map(Dependency::Shared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_wire::triple::FnKey;

    fn on(loc: u16, len: u16) -> Effects {
        Effects::new(&FnTriple::router(loc, len, FnKey::Source), OpCost::stages(1))
    }

    #[test]
    fn ranges_overlap_zero_length_semantics() {
        // Non-empty overlapping.
        assert!(ranges_overlap((0, 10), (5, 15)));
        assert!(ranges_overlap((5, 15), (0, 10)));
        assert!(ranges_overlap((0, 10), (0, 10)));
        // Touching-but-disjoint half-open ranges.
        assert!(!ranges_overlap((0, 10), (10, 20)));
        // Empty ranges overlap nothing — even strictly inside the other.
        assert!(!ranges_overlap((5, 5), (0, 10)));
        assert!(!ranges_overlap((0, 10), (5, 5)));
        assert!(!ranges_overlap((5, 5), (5, 5)));
        assert!(!ranges_overlap((0, 0), (0, 10)));
    }

    #[test]
    fn zero_length_field_never_conflicts_at_field_level() {
        // A zero-length write inside another op's field must not
        // serialize: it touches no bits.
        let a = on(5, 0).writing_field();
        let b = on(0, 32).writing_field();
        assert_eq!(a.dependency(&b), None);
        assert_eq!(b.dependency(&a), None);
    }

    #[test]
    fn fields_come_before_slots_and_tables() {
        let a = on(0, 32).writing_field().writing(Resource::Pit);
        let b = on(0, 32).writing_field().reading(Resource::Pit);
        assert_eq!(a.dependency(&b), Some(Dependency::AliasingWrites));
        let c = on(0, 32).reading(Resource::Pit);
        assert_eq!(a.dependency(&c), Some(Dependency::WriteRead));
        let d = on(64, 32).reading(Resource::Pit);
        assert_eq!(a.dependency(&d), Some(Dependency::Shared(Resource::Pit)));
    }

    #[test]
    fn a_write_conflicts_with_any_touch_but_reads_share() {
        let w = on(0, 32).writing(Resource::PassVerdict);
        let r = on(64, 32).reading(Resource::PassVerdict);
        assert_eq!(w.dependency(&r), Some(Dependency::Shared(Resource::PassVerdict)));
        assert_eq!(r.dependency(&w), Some(Dependency::Shared(Resource::PassVerdict)));
        assert_eq!(w.dependency(&w), Some(Dependency::Shared(Resource::PassVerdict)));
        assert_eq!(r.dependency(&r), None, "two readers share");
        // The lowest shared resource names the dependency.
        let k = w.writing(Resource::DynamicKey);
        let kr = r.reading(Resource::DynamicKey);
        assert_eq!(k.dependency(&kr), Some(Dependency::Shared(Resource::DynamicKey)));
        assert_eq!(kr.dependency(&k), Some(Dependency::Shared(Resource::DynamicKey)));
    }
}
