//! # dip-fnops — the Field Operation primitive (§2.1)
//!
//! > "Each FN consists of two elements: a target field and an operation to
//! > be applied on the corresponding target field."
//!
//! This crate supplies the *operations*. Each operation module implements
//! [`FieldOp`]: given the FN triple that selected it, mutable access to the
//! packet's FN locations area, the router's forwarding state and a
//! per-packet scratch context, it performs its calculation/match and returns
//! an [`Action`] — continue, forward, deliver, or discard — exactly the
//! "modify the packet field or determine the packet fate" contract of §2.1.
//!
//! The twelve bundled modules are the eleven of Table 1 plus `F_pass`
//! (§2.4's source-label verification):
//!
//! | key | op | module |
//! |-----|----|--------|
//! | 1 | `F_32_match` | [`ops::match_addr::Match32Op`] |
//! | 2 | `F_128_match` | [`ops::match_addr::Match128Op`] |
//! | 3 | `F_source` | [`ops::source::SourceOp`] |
//! | 4 | `F_FIB` | [`ops::fib::FibOp`] |
//! | 5 | `F_PIT` | [`ops::pit::PitOp`] |
//! | 6 | `F_parm` | [`ops::parm::ParmOp`] |
//! | 7 | `F_MAC` | [`ops::mac_op::MacOp`] |
//! | 8 | `F_mark` | [`ops::mark::MarkOp`] |
//! | 9 | `F_ver` | [`ops::ver::VerOp`] |
//! | 10 | `F_DAG` | [`ops::dag::DagOp`] |
//! | 11 | `F_intent` | [`ops::intent::IntentOp`] |
//! | 12 | `F_pass` | [`ops::pass::PassOp`] |
//!
//! [`registry::FnRegistry`] maps operation keys to modules (the bootstrap
//! mechanism of §2.3 advertises its contents), and [`parallel`] implements
//! the modular-parallelism planner behind the packet parameter's parallel
//! flag (§2.2).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod context;
pub mod cost;
pub mod ops;
pub mod parallel;
pub mod registry;

pub use context::{Action, DropReason, PacketCtx, RouterState, SourceAddr};
pub use cost::OpCost;
/// `RouterState::routes` is a `RouteTables`; re-exported with the store
/// that builds it so crates above this one install routes without their
/// own dependency on `dip-routes`.
pub use dip_routes::{RouteKey, RouteStore, RouteTables};
pub use registry::FnRegistry;

use dip_wire::triple::FnTriple;

/// A Field Operation module: the functional half of the FN primitive.
///
/// Implementations must be pure with respect to everything except the
/// explicitly passed state: the same `(triple, locations, state, ctx)`
/// produces the same result, which is what lets the planner reorder
/// non-conflicting operations.
pub trait FieldOp: Send + Sync {
    /// The operation key this module serves.
    fn key(&self) -> dip_wire::triple::FnKey;

    /// Executes the operation on the target field selected by `triple`.
    ///
    /// `ctx.locations` is the packet's FN locations area; the target field
    /// is the bit range `[triple.field_loc, triple.field_loc +
    /// triple.field_len)` within it.
    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action;

    /// Hardware cost of one invocation on a field of `field_bits` bits, for
    /// the PISA pipeline timing model (§4.1 / Figure 2).
    fn cost(&self, field_bits: u16) -> OpCost;

    /// The bit range this operation *writes* in the locations area, given
    /// its triple, or `None` for read-only operations. Used by the parallel
    /// planner for conflict analysis.
    fn write_range(&self, _triple: &FnTriple) -> Option<(usize, usize)> {
        None
    }

    /// The route lookup this operation will make for `triple` on a packet
    /// whose FN locations area is `locations`, or `None` when it makes
    /// none. A batching runtime uses it to walk a whole batch's route keys
    /// together before executing; a wrong answer only costs speed, because
    /// [`execute`](FieldOp::execute) still makes its own lookup.
    fn route_key(&self, _triple: &FnTriple, _locations: &[u8]) -> Option<RouteKey> {
        None
    }

    /// Whether this operation reads the per-packet dynamic-key slot.
    fn reads_dynamic_key(&self) -> bool {
        false
    }

    /// Whether this operation writes the per-packet dynamic-key slot.
    fn writes_dynamic_key(&self) -> bool {
        false
    }

    /// Whether this operation's only job is to *publish* a parsed structure
    /// into the per-packet scratch context (e.g. `F_DAG` parsing the packet's
    /// DAG into `ctx.dag`) without touching router tables, the packet, or the
    /// verdict. Such a hop is eliminable when its immediate consumer re-parses
    /// the same span on a scratch miss (see
    /// [`consumes_parsed_dag_with_fallback`](FieldOp::consumes_parsed_dag_with_fallback)).
    fn writes_parsed_dag(&self) -> bool {
        false
    }

    /// Whether this operation consumes the scratch DAG slot and, when it is
    /// empty, falls back to parsing its *own* target span with semantics
    /// identical to the publisher (same decode, same malformed-field drop).
    /// This is the contract that makes `F_DAG → F_intent` elimination an
    /// exact rewrite when — and only when — the two triples select the same
    /// span.
    fn consumes_parsed_dag_with_fallback(&self) -> bool {
        false
    }

    /// Whether, for `triple`, `execute` always returns [`Action::Continue`]
    /// provided the target field is in bounds (which admission's structural
    /// pass and `parse_packet` both guarantee). Operations that can drop,
    /// forward, or deliver must return `false`; dipopt only dead-write
    /// eliminates hops that are infallible in this sense.
    fn infallible_for(&self, _triple: &FnTriple) -> bool {
        false
    }

    /// Whether per-packet-invariant setup of this operation can be hoisted
    /// to once per compiled chain via [`hoist`](FieldOp::hoist).
    fn hoistable(&self) -> bool {
        false
    }

    /// Precomputes the packet-invariant part of this operation from router
    /// state (e.g. the OPT key schedule from `state.local_secret`). Returns
    /// `None` when nothing is hoistable for this router. The result is cached
    /// on the compiled chain, so it must stay valid for as long as the state
    /// it was derived from (the router's secrets) is unchanged.
    fn hoist(&self, _state: &RouterState) -> Option<HoistState> {
        None
    }

    /// Executes with previously hoisted state; must be byte-identical to
    /// [`execute`](FieldOp::execute). The default ignores the hoist.
    fn execute_hoisted(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
        _hoisted: &HoistState,
    ) -> Action {
        self.execute(triple, state, ctx)
    }

    /// Hardware cost of one invocation when the hoisted setup has already
    /// run — the per-packet residue. Defaults to the full cost.
    fn hoisted_cost(&self, field_bits: u16) -> OpCost {
        self.cost(field_bits)
    }
}

/// Packet-invariant state hoisted out of the per-packet path by dipopt,
/// computed once per compiled chain by [`FieldOp::hoist`].
#[derive(Debug, Clone)]
pub enum HoistState {
    /// A precomputed OPT session-key schedule (`F_parm`).
    SessionKdf(dip_crypto::SessionKdf),
}
