//! `F_32_match` (key 1) and `F_128_match` (key 2): address matching and
//! forwarding.
//!
//! §3, IP forwarding: "we use F_128_match and F_32_match to instruct the
//! router to perform 128-bit/32-bit address matching and forwarding". The
//! target field is the destination address; the op performs a
//! longest-prefix match in the corresponding FIB and decides the egress.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::FieldOp;
use dip_routes::RouteKey;
use dip_tables::fib::NextHop;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::triple::{FnKey, FnTriple};

/// The destination a match op looks up: the target field decoded into an
/// `N`-byte address, or `None` when the triple is not exactly `N * 8` bits
/// wide or the field lies outside `locations`. Both `execute` and
/// `route_key` decode through here, so they always agree on the key.
fn destination<const N: usize>(triple: &FnTriple, locations: &[u8]) -> Option<[u8; N]> {
    if usize::from(triple.field_len) != N * 8 {
        return None;
    }
    let mut addr = [0u8; N];
    dip_wire::bits::read_bits_into(
        locations,
        usize::from(triple.field_loc),
        usize::from(triple.field_len),
        &mut addr,
    )
    .ok()?;
    Some(addr)
}

/// A match op's action on its lookup: `None` when the destination did
/// not decode, else the lookup's answer.
fn forward(lookup: Option<Option<NextHop>>) -> Action {
    match lookup {
        None => Action::Drop(DropReason::MalformedField),
        Some(Some(nh)) => Action::Forward(nh.port),
        Some(None) => Action::Drop(DropReason::NoRoute),
    }
}

/// 32-bit destination address match.
#[derive(Debug, Default, Clone, Copy)]
pub struct Match32Op;

impl FieldOp for Match32Op {
    fn key(&self) -> FnKey {
        FnKey::Match32
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        forward(destination(triple, ctx.locations).map(|a| state.lookup_v4(Ipv4Addr(a))))
    }

    fn route_key(&self, triple: &FnTriple, locations: &[u8]) -> Option<RouteKey> {
        destination(triple, locations).map(|a| RouteKey::V4(Ipv4Addr(a)))
    }

    fn cost(&self, _field_bits: u16) -> OpCost {
        OpCost::lookup(1, 1)
    }
}

/// 128-bit destination address match.
#[derive(Debug, Default, Clone, Copy)]
pub struct Match128Op;

impl FieldOp for Match128Op {
    fn key(&self) -> FnKey {
        FnKey::Match128
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        forward(destination(triple, ctx.locations).map(|a| state.lookup_v6(Ipv6Addr(a))))
    }

    fn route_key(&self, triple: &FnTriple, locations: &[u8]) -> Option<RouteKey> {
        destination(triple, locations).map(|a| RouteKey::V6(Ipv6Addr(a)))
    }

    fn cost(&self, _field_bits: u16) -> OpCost {
        // Wider key: costs an extra stage on PISA (two 64-bit slices).
        OpCost::lookup(2, 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state, state_with};
    use dip_tables::fib::NextHop;

    #[test]
    fn match32_forwards_on_lpm_hit() {
        let mut st = state_with(|r| r.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(4)));
        let mut locs = vec![10, 1, 2, 3, 0, 0, 0, 0];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 32, FnKey::Match32);
        assert_eq!(Match32Op.execute(&t, &mut st, &mut c), Action::Forward(4));
    }

    #[test]
    fn match32_drops_on_miss() {
        let mut st = state();
        let mut locs = vec![10, 1, 2, 3];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 32, FnKey::Match32);
        assert_eq!(Match32Op.execute(&t, &mut st, &mut c), Action::Drop(DropReason::NoRoute));
    }

    #[test]
    fn match32_rejects_wrong_width() {
        let mut st = state();
        let mut locs = vec![0u8; 16];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 64, FnKey::Match32);
        assert_eq!(
            Match32Op.execute(&t, &mut st, &mut c),
            Action::Drop(DropReason::MalformedField)
        );
    }

    #[test]
    fn match32_rejects_field_past_end() {
        let mut st = state();
        let mut locs = vec![0u8; 2];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 32, FnKey::Match32);
        assert_eq!(
            Match32Op.execute(&t, &mut st, &mut c),
            Action::Drop(DropReason::MalformedField)
        );
    }

    #[test]
    fn match128_forwards() {
        let prefix = Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]);
        let mut st = state_with(|r| r.insert_v6(prefix, 16, NextHop::port(9)));
        let dst = Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0x100]);
        let mut locs = dst.0.to_vec();
        locs.extend_from_slice(&[0u8; 16]);
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 128, FnKey::Match128);
        assert_eq!(Match128Op.execute(&t, &mut st, &mut c), Action::Forward(9));
    }

    #[test]
    fn route_key_names_the_lookup_execute_makes() {
        let dst = Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0x100]);
        let mut locs = dst.0.to_vec();
        locs.extend_from_slice(&[10, 1, 2, 3]);
        let v4 = FnTriple::router(128, 32, FnKey::Match32);
        let v6 = FnTriple::router(0, 128, FnKey::Match128);
        assert_eq!(Match32Op.route_key(&v4, &locs), Some(RouteKey::V4(Ipv4Addr::new(10, 1, 2, 3))));
        assert_eq!(Match128Op.route_key(&v6, &locs), Some(RouteKey::V6(dst)));
        // Wrong width, field past the end: no key, and execute drops.
        let mut st = state();
        for (op, t) in [
            (&Match32Op as &dyn FieldOp, FnTriple::router(0, 64, FnKey::Match32)),
            (&Match32Op, FnTriple::router(136, 32, FnKey::Match32)),
            (&Match128Op, FnTriple::router(0, 32, FnKey::Match128)),
            (&Match128Op, FnTriple::router(64, 128, FnKey::Match128)),
        ] {
            assert_eq!(op.route_key(&t, &locs), None, "{t:?}");
            let mut c = ctx(&mut locs, &[]);
            assert_eq!(op.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
        }
        // Ops that look nothing up name no key.
        assert_eq!(crate::ops::source::SourceOp.route_key(&v4, &locs), None);
    }

    #[test]
    fn paper_triples_for_ip_forwarding() {
        // §3: DIP-32 = (loc:0,len:32,key F_32_match) with dst in the low 32
        // bits of the locations; DIP-128 = (loc:0,len:128,key F_128_match).
        let mut st =
            state_with(|r| r.insert_v4(Ipv4Addr::new(192, 168, 69, 0), 24, NextHop::port(2)));
        // locations = dst(4B) || src(4B)
        let mut locs = vec![192, 168, 69, 100, 10, 0, 0, 1];
        let mut c = ctx(&mut locs, &[]);
        assert_eq!(
            Match32Op.execute(&FnTriple::router(0, 32, FnKey::Match32), &mut st, &mut c),
            Action::Forward(2)
        );
    }
}
