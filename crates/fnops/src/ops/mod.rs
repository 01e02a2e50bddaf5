//! The bundled operation modules (Table 1 + `F_pass`).

pub mod dag;
pub mod fib;
pub mod intent;
pub mod mac_op;
pub mod mark;
pub mod match_addr;
pub mod parm;
pub mod pass;
pub mod pit;
pub mod source;
pub mod ver;

pub use dag::DagOp;
pub use fib::FibOp;
pub use intent::IntentOp;
pub use mac_op::MacOp;
pub use mark::MarkOp;
pub use match_addr::{Match128Op, Match32Op};
pub use parm::ParmOp;
pub use pass::PassOp;
pub use pit::PitOp;
pub use source::SourceOp;
pub use ver::VerOp;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared fixtures for op tests.
    use crate::context::{PacketCtx, RouterState};
    use dip_routes::RouteStore;

    pub fn state() -> RouterState {
        RouterState::new(1, [0x11u8; 16])
    }

    /// [`state`] with the routes `seed` puts into a store installed.
    pub fn state_with(seed: impl FnOnce(&mut RouteStore)) -> RouterState {
        let mut store = RouteStore::new();
        seed(&mut store);
        let mut st = state();
        st.routes = store.rebuild();
        st
    }

    pub fn ctx<'a>(locations: &'a mut [u8], payload: &'a [u8]) -> PacketCtx<'a> {
        PacketCtx::new(locations, payload, 7, 1_000)
    }
}
