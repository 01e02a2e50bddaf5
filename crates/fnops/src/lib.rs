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
//! mechanism of §2.3 advertises its contents). Each module declares what
//! it touches for a given triple as one [`Effects`] value — bits, per-packet
//! slots, router tables, fate, cost — and [`parallel`] plans the packet
//! parameter's parallel flag (§2.2) from those declarations.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod context;
pub mod cost;
pub mod effects;
pub mod ops;
pub mod parallel;
pub mod registry;

pub use context::{Action, DropReason, PacketCtx, RouterState};
pub use cost::OpCost;
/// `RouterState::routes` is a `RouteTables`; re-exported with the store
/// that builds it so crates above this one install routes without their
/// own dependency on `dip-routes`.
pub use dip_routes::{RouteKey, RouteStore, RouteTables};
pub use effects::{Dependency, Effects, Resource, Resources};
pub use registry::FnRegistry;

use dip_wire::triple::FnTriple;

/// A Field Operation module: the functional half of the FN primitive.
///
/// Implementations must be pure with respect to everything except the
/// explicitly passed state: the same `(triple, locations, state, ctx)`
/// produces the same result, and an op touches only what its
/// [`effects`](FieldOp::effects) declare — which is what lets the planner
/// reorder non-conflicting operations.
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

    /// What `execute` touches for `triple`, and what it costs.
    fn effects(&self, triple: &FnTriple) -> Effects;

    /// Precomputes the packet-invariant part of this operation from router
    /// state (e.g. the OPT key schedule from `state.local_secret`). Returns
    /// `None` when nothing can be hoisted for this router. The result is cached
    /// on the compiled chain, so it must stay valid for as long as the state
    /// it was derived from (the router's secrets) is unchanged. dipopt only
    /// hoists ops whose [`Effects::residue`] is set.
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
}

/// Packet-invariant state hoisted out of the per-packet path by dipopt,
/// computed once per compiled chain by [`FieldOp::hoist`].
#[derive(Debug, Clone)]
pub enum HoistState {
    /// A precomputed OPT session-key schedule (`F_parm`).
    SessionKdf(dip_crypto::SessionKdf),
}
