//! `F_MAC` (key 7): keyed MAC over the target field.
//!
//! §3 (OPT): the triple `(loc: 0, len: 416, key: 7)` instructs the router to
//! "recalculate and update the tags". The op computes a CBC-MAC (over 2EM
//! by default, §4.1; AES as the resubmission-costing baseline) of the
//! target field under the dynamic key from `F_parm` and deposits the
//! 128-bit tag **immediately after the target field** — for OPT's layout
//! that is exactly the OPV slot.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::context::{MacChoice, MacSchedule};
use crate::cost::OpCost;
use crate::{Effects, FieldOp, Resource};
use dip_crypto::mac::cbc_mac_blocks;
use dip_crypto::Block;
use dip_wire::bits::byte_len;
use dip_wire::triple::{FnKey, FnTriple};

/// Computes a MAC under the router's configured cipher choice, expanding
/// the key schedule afresh (host-side verification walks many keys).
pub(crate) fn mac_bytes(choice: MacChoice, key: &Block, data: &[u8]) -> Block {
    MacSchedule::new(choice, key).mac(data)
}

/// Tag-computation op.
#[derive(Debug, Default, Clone, Copy)]
pub struct MacOp;

/// Width of the deposited tag, in bits.
pub const TAG_BITS: u16 = 128;

impl FieldOp for MacOp {
    fn key(&self) -> FnKey {
        FnKey::Mac
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
        let Ok(tag) = ctx.mac_field(state.mac_choice, &key, triple) else {
            return Action::Drop(DropReason::MalformedField);
        };
        // Deposit after the covered field.
        let tag_triple = FnTriple::router(
            triple.field_loc.saturating_add(triple.field_len),
            TAG_BITS,
            FnKey::Mac,
        );
        if usize::from(tag_triple.field_loc) + usize::from(TAG_BITS) > ctx.locations.len() * 8 {
            return Action::Drop(DropReason::MalformedField);
        }
        match ctx.write_field(&tag_triple, &tag) {
            Ok(()) => Action::Continue,
            Err(_) => Action::Drop(DropReason::MalformedField),
        }
    }

    fn effects(&self, triple: &FnTriple) -> Effects {
        // The coverage is read as whole bytes, pad bits included.
        let blocks = cbc_mac_blocks(byte_len(usize::from(triple.field_len))) as u32;
        // Resubmission cost is applied by the pipeline model per the
        // router's cipher choice; report blocks here.
        let tag = triple.field_end();
        Effects {
            write: Some((tag, tag + usize::from(TAG_BITS))),
            ..Effects::new(triple, OpCost::cipher(2, blocks, 0)).reading(Resource::DynamicKey)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state};
    use dip_wire::opt::{field, triple_bits};

    #[test]
    fn writes_tag_into_opv_slot() {
        let mut st = state();
        let mut locs = vec![0u8; 68];
        locs[..52].iter_mut().enumerate().for_each(|(i, b)| *b = i as u8);
        let coverage: Vec<u8> = locs[..52].to_vec();
        let mut c = ctx(&mut locs, &[]);
        let key = [7u8; 16];
        c.dynamic_key = Some(key);
        let t = FnTriple::router(triple_bits::MAC.0, triple_bits::MAC.1, FnKey::Mac);
        assert_eq!(MacOp.execute(&t, &mut st, &mut c), Action::Continue);
        let expected = mac_bytes(MacChoice::TwoRoundEm, &key, &coverage);
        assert_eq!(&c.locations[field::OPV], &expected);
        // Coverage bytes untouched.
        assert_eq!(&c.locations[..52], &coverage[..]);
    }

    #[test]
    fn tags_read_in_place_equal_tags_of_the_copied_field() {
        // F_MAC reads its coverage without a heap copy: in place when the
        // field is byte-aligned, through a stack buffer otherwise. The tag
        // must equal the MAC of what `read_field` returns, pad bits zeroed,
        // at an unaligned offset and at a length that is not whole bytes.
        let key = [7u8; 16];
        for (loc, len) in [(0, 416), (3, 416), (0, 413), (5, 100), (8, 0), (13, 1)] {
            for choice in [MacChoice::TwoRoundEm, MacChoice::Aes] {
                let mut st = state();
                st.mac_choice = choice;
                let mut locs: Vec<u8> = (0..80u8).map(|i| i.wrapping_mul(37) ^ 0xa5).collect();
                let mut c = ctx(&mut locs, &[]);
                c.dynamic_key = Some(key);
                let t = FnTriple::router(loc, len, FnKey::Mac);
                let expected = mac_bytes(choice, &key, &c.read_field(&t).unwrap());
                assert_eq!(c.mac_field(choice, &key, &t), Ok(expected), "({loc}, {len})");
                assert_eq!(MacOp.execute(&t, &mut st, &mut c), Action::Continue);
                let tag = FnTriple::router(loc + len, TAG_BITS, FnKey::Mac);
                assert_eq!(c.read_field(&tag).unwrap(), expected, "({loc}, {len}) {choice:?}");
            }
        }
    }

    #[test]
    fn missing_key_is_an_error() {
        let mut st = state();
        let mut locs = vec![0u8; 68];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 416, FnKey::Mac);
        assert_eq!(MacOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MissingDynamicKey));
    }

    #[test]
    fn tag_slot_must_fit() {
        let mut st = state();
        let mut locs = vec![0u8; 52]; // no room for the tag
        let mut c = ctx(&mut locs, &[]);
        c.dynamic_key = Some([1; 16]);
        let t = FnTriple::router(0, 416, FnKey::Mac);
        assert_eq!(MacOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
    }

    #[test]
    fn aes_choice_changes_tag() {
        let mut st = state();
        let key = [7u8; 16];
        let run = |st: &mut crate::RouterState| {
            let mut locs = vec![0u8; 68];
            let mut c = ctx(&mut locs, &[]);
            c.dynamic_key = Some(key);
            let t = FnTriple::router(0, 416, FnKey::Mac);
            MacOp.execute(&t, st, &mut c);
            locs[52..68].to_vec()
        };
        let em = run(&mut st);
        st.mac_choice = MacChoice::Aes;
        let aes = run(&mut st);
        assert_ne!(em, aes);
    }

    /// `F_MAC`'s cost over a `bits`-bit field at offset 0.
    fn cost(bits: u16) -> OpCost {
        MacOp.effects(&FnTriple::router(0, bits, FnKey::Mac)).cost
    }

    #[test]
    fn the_tag_is_written_after_the_field() {
        let t = FnTriple::router(32, 416, FnKey::Mac);
        assert_eq!(MacOp.effects(&t).write, Some((448, 576)));
    }

    #[test]
    fn cost_scales_with_coverage() {
        assert!(cost(416).cipher_blocks > cost(128).cipher_blocks);
    }

    #[test]
    fn one_schedule_serves_mac_and_mark_until_key_or_choice_changes() {
        use crate::ops::{MarkOp, ParmOp};
        let parm = FnTriple::router(triple_bits::PARM.0, triple_bits::PARM.1, FnKey::Parm);
        let mac = FnTriple::router(triple_bits::MAC.0, triple_bits::MAC.1, FnKey::Mac);
        let mark = FnTriple::router(triple_bits::MARK.0, triple_bits::MARK.1, FnKey::Mark);
        let mut st = state();
        let mut locs: Vec<u8> = (0..68).collect();
        let mut c = ctx(&mut locs, &[]);
        // F_MAC then F_mark, each checked against a fresh expansion of the
        // same inputs; returns the expansion count afterwards.
        let mac_then_mark = |st: &mut RouterState, c: &mut PacketCtx<'_>| {
            let key = c.dynamic_key.expect("F_parm ran");
            let coverage = c.locations[..52].to_vec();
            assert_eq!(MacOp.execute(&mac, st, c), Action::Continue);
            assert_eq!(c.locations[field::OPV], mac_bytes(st.mac_choice, &key, &coverage));
            let pvf = c.locations[field::PVF].to_vec();
            assert_eq!(MarkOp.execute(&mark, st, c), Action::Continue);
            assert_eq!(c.locations[field::PVF], mac_bytes(st.mac_choice, &key, &pvf));
            c.mac_memo.expansions
        };

        assert_eq!(ParmOp.execute(&parm, &mut st, &mut c), Action::Continue);
        assert_eq!(c.mac_memo.expansions, 0, "F_parm derives the key, it does not expand it");
        assert_eq!(mac_then_mark(&mut st, &mut c), 1, "F_MAC expands, F_mark reuses");

        // A new session id in between: a new dynamic key, a new schedule.
        c.locations[field::SESSION_ID].fill(0xee);
        assert_eq!(ParmOp.execute(&parm, &mut st, &mut c), Action::Continue);
        assert_eq!(mac_then_mark(&mut st, &mut c), 2);

        // The same key under the other cipher, and back: both re-expand.
        st.mac_choice = MacChoice::Aes;
        assert_eq!(mac_then_mark(&mut st, &mut c), 3);
        st.mac_choice = MacChoice::TwoRoundEm;
        assert_eq!(mac_then_mark(&mut st, &mut c), 4);
    }

    #[test]
    fn cost_counts_the_padded_final_byte() {
        // 129 bits are read as 17 bytes, which CBC-MAC runs as 3 blocks.
        assert_eq!(cost(129).cipher_blocks, cbc_mac_blocks(17) as u32);
        assert_eq!(cost(128).cipher_blocks, cbc_mac_blocks(16) as u32);
    }
}
