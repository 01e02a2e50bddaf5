//! `F_source` (key 3): the source address field.
//!
//! §3: IP forwarding "uses F_source to specify the source address" — the
//! triple marks which bits of the locations area carry the source. The
//! router checks that the field is a 32- or 128-bit address inside the
//! locations area and drops the packet as malformed otherwise. It records
//! nothing, looks nothing up and never decides the packet's fate.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::{Effects, FieldOp};
use dip_wire::triple::{FnKey, FnTriple};

/// Source-address check op.
#[derive(Debug, Default, Clone, Copy)]
pub struct SourceOp;

impl FieldOp for SourceOp {
    fn key(&self) -> FnKey {
        FnKey::Source
    }

    fn execute(
        &self,
        triple: &FnTriple,
        _state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        let mut bytes = [0u8; 16];
        match (triple.field_len, ctx.read_field_into(triple, &mut bytes)) {
            (32 | 128, Ok(_)) => Action::Continue,
            _ => Action::Drop(DropReason::MalformedField),
        }
    }

    fn effects(&self, triple: &FnTriple) -> Effects {
        let may_drop = !matches!(triple.field_len, 32 | 128);
        Effects { may_drop, ..Effects::new(triple, OpCost::stages(1)) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state};

    #[test]
    fn accepts_32_and_128_bit_sources() {
        let mut st = state();
        // DIP-32 layout (§3): dst at bits [0,32), src at bits [32,64).
        let mut locs = vec![192, 168, 0, 1, 10, 0, 0, 9];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(32, 32, FnKey::Source);
        assert_eq!(SourceOp.execute(&t, &mut st, &mut c), Action::Continue);
        let mut locs = vec![0u8; 32];
        locs[16] = 0xfd;
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(128, 128, FnKey::Source);
        assert_eq!(SourceOp.execute(&t, &mut st, &mut c), Action::Continue);
        assert_eq!(c.locations[16], 0xfd, "the field is left as it was");
    }

    #[test]
    fn rejects_odd_widths_and_fields_past_the_end() {
        let mut st = state();
        let mut locs = vec![0u8; 8];
        let mut c = ctx(&mut locs, &[]);
        for t in [FnTriple::router(0, 48, FnKey::Source), FnTriple::router(64, 32, FnKey::Source)] {
            assert_eq!(
                SourceOp.execute(&t, &mut st, &mut c),
                Action::Drop(DropReason::MalformedField)
            );
        }
    }
}
