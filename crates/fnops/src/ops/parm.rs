//! `F_parm` (key 6): load parameters / derive the dynamic key.
//!
//! §3 (OPT): "the router will derive a dynamic key from session ID in the
//! packet header with its local key" — the DRKey-style stateless derivation
//! `K_i = PRF(S_i, session_id)`. The key is deposited in the packet context
//! for `F_MAC` and `F_mark` to consume; no per-flow state is created.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::{FieldOp, HoistState};
use dip_crypto::{derive_session_key, SessionKdf};
use dip_wire::triple::{FnKey, FnTriple};

/// Parameter-loading / key-derivation op.
#[derive(Debug, Default, Clone, Copy)]
pub struct ParmOp;

impl FieldOp for ParmOp {
    fn key(&self) -> FnKey {
        FnKey::Parm
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        if triple.field_len != 128 {
            return Action::Drop(DropReason::MalformedField);
        }
        let mut session_id = [0u8; 16];
        if ctx.read_field_into(triple, &mut session_id).is_err() {
            return Action::Drop(DropReason::MalformedField);
        }
        ctx.dynamic_key = Some(derive_session_key(&state.local_secret, &session_id));
        Action::Continue
    }

    fn cost(&self, _field_bits: u16) -> OpCost {
        // One PRF = one short CBC-MAC: ~3 cipher blocks.
        OpCost::cipher(1, 3, 0)
    }

    fn writes_dynamic_key(&self) -> bool {
        true
    }

    fn infallible_for(&self, triple: &FnTriple) -> bool {
        // With a 128-bit field and the span in bounds, execute() cannot take
        // either MalformedField path: it always derives and continues.
        triple.field_len == 128
    }

    fn hoistable(&self) -> bool {
        true
    }

    fn hoist(&self, state: &RouterState) -> Option<HoistState> {
        Some(HoistState::SessionKdf(SessionKdf::new(&state.local_secret)))
    }

    fn execute_hoisted(
        &self,
        triple: &FnTriple,
        _state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
        hoisted: &HoistState,
    ) -> Action {
        let HoistState::SessionKdf(kdf) = hoisted;
        if triple.field_len != 128 {
            return Action::Drop(DropReason::MalformedField);
        }
        let mut session_id = [0u8; 16];
        if ctx.read_field_into(triple, &mut session_id).is_err() {
            return Action::Drop(DropReason::MalformedField);
        }
        ctx.dynamic_key = Some(kdf.derive(&session_id));
        Action::Continue
    }

    fn hoisted_cost(&self, _field_bits: u16) -> OpCost {
        // The length-prefix block of the CBC-MAC PRF is folded at hoist
        // time: 2 cipher blocks per packet instead of 3.
        OpCost::cipher(1, 2, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state};
    use dip_wire::opt::triple_bits;

    #[test]
    fn derives_key_matching_host_computation() {
        let mut st = state();
        let mut locs = vec![0u8; 68];
        locs[16..32].copy_from_slice(&[0xaa; 16]); // SessionID field
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(triple_bits::PARM.0, triple_bits::PARM.1, FnKey::Parm);
        assert_eq!(ParmOp.execute(&t, &mut st, &mut c), Action::Continue);
        let expected = derive_session_key(&st.local_secret, &[0xaa; 16]);
        assert_eq!(c.dynamic_key, Some(expected));
    }

    #[test]
    fn different_sessions_different_keys() {
        let mut st = state();
        let t = FnTriple::router(128, 128, FnKey::Parm);
        let mut locs_a = vec![0u8; 68];
        locs_a[16..32].fill(0xaa);
        let mut ca = ctx(&mut locs_a, &[]);
        ParmOp.execute(&t, &mut st, &mut ca);
        let ka = ca.dynamic_key;
        let mut locs_b = vec![0u8; 68];
        locs_b[16..32].fill(0xbb);
        let mut cb = ctx(&mut locs_b, &[]);
        ParmOp.execute(&t, &mut st, &mut cb);
        assert_ne!(ka, cb.dynamic_key);
    }

    #[test]
    fn hoisted_execution_is_byte_identical() {
        let mut st = state();
        let hoisted = ParmOp.hoist(&st).expect("parm is hoistable");
        let t = FnTriple::router(128, 128, FnKey::Parm);
        for fill in [0x00u8, 0x5a, 0xaa, 0xff] {
            let mut locs_a = vec![0u8; 68];
            locs_a[16..32].fill(fill);
            let mut locs_b = locs_a.clone();
            let mut ca = ctx(&mut locs_a, &[]);
            let plain = ParmOp.execute(&t, &mut st, &mut ca);
            let key_plain = ca.dynamic_key;
            let mut cb = ctx(&mut locs_b, &[]);
            let fast = ParmOp.execute_hoisted(&t, &mut st, &mut cb, &hoisted);
            assert_eq!(plain, fast);
            assert_eq!(key_plain, cb.dynamic_key);
        }
        // And the hoisted model is strictly cheaper in cipher blocks.
        assert!(ParmOp.hoisted_cost(128).cipher_blocks < ParmOp.cost(128).cipher_blocks);
    }

    #[test]
    fn wrong_width_rejected() {
        let mut st = state();
        let mut locs = vec![0u8; 68];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(128, 64, FnKey::Parm);
        assert_eq!(ParmOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
    }
}
