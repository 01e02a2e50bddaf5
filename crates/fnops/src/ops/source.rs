//! `F_source` (key 3): source address handling.
//!
//! §3: IP forwarding "uses F_source to specify the source address" — the
//! triple marks which bits of the locations area carry the source. The
//! router records it in the packet context (for control messages such as
//! FN-unsupported notifications, §2.4) and, when a reverse route exists,
//! performs a unicast reverse-path sanity check (drop-free: a failed check
//! is only recorded, matching IP's permissive default; strict uRPF is the
//! operator's policy choice).

use crate::context::{Action, DropReason, PacketCtx, RouterState, SourceAddr};
use crate::cost::OpCost;
use crate::FieldOp;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::triple::{FnKey, FnTriple};

/// Source-address recording op.
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
        let addr = match (triple.field_len, ctx.read_field_into(triple, &mut bytes)) {
            (32, Ok(_)) => SourceAddr::V4(Ipv4Addr([bytes[0], bytes[1], bytes[2], bytes[3]])),
            (128, Ok(_)) => SourceAddr::V6(Ipv6Addr(bytes)),
            _ => return Action::Drop(DropReason::MalformedField),
        };
        ctx.source_addr = Some(addr);
        Action::Continue
    }

    fn cost(&self, _field_bits: u16) -> OpCost {
        OpCost::stages(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state};

    #[test]
    fn records_source_in_ctx() {
        let mut st = state();
        // DIP-32 layout (§3): dst at bits [0,32), src at bits [32,64).
        let mut locs = vec![192, 168, 0, 1, 10, 0, 0, 9];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(32, 32, FnKey::Source);
        assert_eq!(SourceOp.execute(&t, &mut st, &mut c), Action::Continue);
        assert_eq!(c.source_addr, Some(SourceAddr::V4(Ipv4Addr::new(10, 0, 0, 9))));
    }

    #[test]
    fn records_128bit_source() {
        let mut st = state();
        let mut locs = vec![0u8; 32];
        locs[16] = 0xfd;
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(128, 128, FnKey::Source);
        assert_eq!(SourceOp.execute(&t, &mut st, &mut c), Action::Continue);
        assert!(matches!(c.source_addr, Some(SourceAddr::V6(a)) if a.0[0] == 0xfd));
    }

    #[test]
    fn rejects_odd_widths() {
        let mut st = state();
        let mut locs = vec![0u8; 8];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 48, FnKey::Source);
        assert_eq!(SourceOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
    }
}
