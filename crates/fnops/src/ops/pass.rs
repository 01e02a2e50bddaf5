//! `F_pass` (key 12): source label verification (§2.4).
//!
//! The paper's defense against strategically combined FNs — e.g. an
//! attacker carrying both `F_FIB` and `F_PIT` with "maliciously constructed
//! data to pollute the node's content cache". Producers obtain a *source
//! label* from their AS (a MAC over their identity under the AS secret,
//! following the NDN cached-content defenses of \[15\]); `F_pass` recomputes
//! and checks it. "Although enabling F_pass all the time is expensive, DIP
//! allows the network operators to dynamically adjust security policies" —
//! that dynamic toggle is `RouterState::require_pass_for_cache` plus
//! inserting/removing this FN from the chain (experiment E6).
//!
//! Target field layout (256 bits): `[0,128)` source identifier, `[128,256)`
//! label = `PRF(as_secret, "pass-label", source_id)`.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::{Effects, FieldOp, Resource};
use dip_crypto::ct_eq;
use dip_crypto::kdf::derive_pass_key;
use dip_wire::triple::{FnKey, FnTriple};

/// Source-label verification op.
#[derive(Debug, Default, Clone, Copy)]
pub struct PassOp;

/// Bit width of the `F_pass` target field.
pub const PASS_FIELD_BITS: u16 = 256;

/// Computes the label an AS issues to `source_id` — used by producers when
/// constructing packets, and by this op when checking them.
pub fn issue_label(as_secret: &dip_crypto::Block, source_id: &[u8; 16]) -> dip_crypto::Block {
    derive_pass_key(as_secret, source_id)
}

impl FieldOp for PassOp {
    fn key(&self) -> FnKey {
        FnKey::Pass
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        if triple.field_len != PASS_FIELD_BITS {
            return Action::Drop(DropReason::MalformedField);
        }
        let Ok(bytes) = ctx.read_field(triple) else {
            return Action::Drop(DropReason::MalformedField);
        };
        let mut source_id = [0u8; 16];
        source_id.copy_from_slice(&bytes[..16]);
        let expected = issue_label(&state.as_secret, &source_id);
        if ct_eq(&expected, &bytes[16..32]) {
            ctx.pass_verified = true;
            Action::Continue
        } else {
            Action::Drop(DropReason::BadSourceLabel)
        }
    }

    fn effects(&self, triple: &FnTriple) -> Effects {
        // One PRF over ~32 bytes: expensive relative to a match, which is
        // why the paper gates it behind dynamic policy.
        Effects::new(triple, OpCost::cipher(2, 4, 0)).writing(Resource::PassVerdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state};

    fn pass_field(as_secret: &[u8; 16], source_id: [u8; 16]) -> Vec<u8> {
        let mut f = source_id.to_vec();
        f.extend_from_slice(&issue_label(as_secret, &source_id));
        f
    }

    #[test]
    fn valid_label_passes_and_marks_ctx() {
        let mut st = state();
        let mut locs = pass_field(&st.as_secret.clone(), [5u8; 16]);
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, PASS_FIELD_BITS, FnKey::Pass);
        assert_eq!(PassOp.execute(&t, &mut st, &mut c), Action::Continue);
        assert!(c.pass_verified);
    }

    #[test]
    fn forged_label_dropped() {
        let mut st = state();
        let mut locs = pass_field(&[0x99u8; 16], [5u8; 16]); // wrong AS secret
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, PASS_FIELD_BITS, FnKey::Pass);
        assert_eq!(PassOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::BadSourceLabel));
        assert!(!c.pass_verified);
    }

    #[test]
    fn label_is_bound_to_source_id() {
        let mut st = state();
        let secret = st.as_secret;
        let mut field = pass_field(&secret, [5u8; 16]);
        field[0] ^= 1; // claim a different source with the old label
        let mut c = ctx(&mut field, &[]);
        let t = FnTriple::router(0, PASS_FIELD_BITS, FnKey::Pass);
        assert_eq!(PassOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::BadSourceLabel));
    }

    #[test]
    fn wrong_width_rejected() {
        let mut st = state();
        let mut locs = vec![0u8; 32];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 128, FnKey::Pass);
        assert_eq!(PassOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
    }
}
