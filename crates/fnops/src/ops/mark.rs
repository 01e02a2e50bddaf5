//! `F_mark` (key 8): in-place mark/tag chaining.
//!
//! §3 (OPT): the triple `(loc: 288, len: 128, key: 8)` updates the Path
//! Verification Field. Each on-path router folds itself into the chain:
//!
//! ```text
//! PVF_i = MAC_{K_i}(PVF_{i-1})
//! ```
//!
//! so the destination, knowing every `K_i`, can recompute the chain and
//! detect any skipped, reordered, or injected hop (path validation).

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::FieldOp;
use dip_wire::triple::{FnKey, FnTriple};

/// Mark-update op.
#[derive(Debug, Default, Clone, Copy)]
pub struct MarkOp;

impl FieldOp for MarkOp {
    fn key(&self) -> FnKey {
        FnKey::Mark
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        let Some(key) = ctx.dynamic_key else {
            return Action::Drop(DropReason::MissingDynamicKey);
        };
        if triple.field_len != 128 {
            return Action::Drop(DropReason::MalformedField);
        }
        let mut current = [0u8; 16];
        if ctx.read_field_into(triple, &mut current).is_err() {
            return Action::Drop(DropReason::MalformedField);
        }
        let next = ctx.mac(state.mac_choice, &key, &current);
        match ctx.write_field(triple, &next) {
            Ok(()) => Action::Continue,
            Err(_) => Action::Drop(DropReason::MalformedField),
        }
    }

    fn cost(&self, _field_bits: u16) -> OpCost {
        // One 16-byte CBC-MAC: 2 cipher blocks.
        OpCost::cipher(1, 2, 0)
    }

    fn write_range(&self, triple: &FnTriple) -> Option<(usize, usize)> {
        Some((usize::from(triple.field_loc), triple.field_end()))
    }

    fn reads_dynamic_key(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MacChoice;
    use crate::ops::mac_op::mac_bytes;
    use crate::ops::testutil::{ctx, state};
    use dip_wire::opt::{field, triple_bits};

    #[test]
    fn chains_pvf_in_place() {
        let mut st = state();
        let mut locs = vec![0u8; 68];
        locs[field::PVF].fill(0x55);
        let key = [9u8; 16];
        let expected = mac_bytes(MacChoice::TwoRoundEm, &key, &[0x55u8; 16]);
        let mut c = ctx(&mut locs, &[]);
        c.dynamic_key = Some(key);
        let t = FnTriple::router(triple_bits::MARK.0, triple_bits::MARK.1, FnKey::Mark);
        assert_eq!(MarkOp.execute(&t, &mut st, &mut c), Action::Continue);
        assert_eq!(&c.locations[field::PVF], &expected);
        // Neighbouring fields untouched.
        assert_eq!(&c.locations[field::TIMESTAMP], &[0u8; 4]);
        assert_eq!(&c.locations[field::OPV], &[0u8; 16]);
    }

    #[test]
    fn two_hops_compose() {
        let k1 = [1u8; 16];
        let k2 = [2u8; 16];
        let mut st = state();
        let mut locs = vec![0u8; 68];
        let t = FnTriple::router(288, 128, FnKey::Mark);
        let pvf0 = locs[field::PVF].to_vec();
        {
            let mut c = ctx(&mut locs, &[]);
            c.dynamic_key = Some(k1);
            MarkOp.execute(&t, &mut st, &mut c);
        }
        {
            let mut c = ctx(&mut locs, &[]);
            c.dynamic_key = Some(k2);
            MarkOp.execute(&t, &mut st, &mut c);
        }
        let step1 = mac_bytes(MacChoice::TwoRoundEm, &k1, &pvf0);
        let step2 = mac_bytes(MacChoice::TwoRoundEm, &k2, &step1);
        assert_eq!(&locs[field::PVF], &step2);
    }

    #[test]
    fn missing_key_rejected() {
        let mut st = state();
        let mut locs = vec![0u8; 68];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(288, 128, FnKey::Mark);
        assert_eq!(
            MarkOp.execute(&t, &mut st, &mut c),
            Action::Drop(DropReason::MissingDynamicKey)
        );
    }

    #[test]
    fn wrong_width_rejected() {
        let mut st = state();
        let mut locs = vec![0u8; 68];
        let mut c = ctx(&mut locs, &[]);
        c.dynamic_key = Some([1; 16]);
        let t = FnTriple::router(288, 64, FnKey::Mark);
        assert_eq!(MarkOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
    }
}
