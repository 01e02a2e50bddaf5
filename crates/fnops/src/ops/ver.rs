//! `F_ver` (key 9): destination verification (host-tagged).
//!
//! §3 (OPT): "we use the triple (loc: 0, len: 544, key: 9) to instruct the
//! destination host to verify the packet source and path". Routers skip
//! this FN (tag bit = 1, Algorithm 1 line 5); the destination host executes
//! it with the session's key material in the packet context:
//!
//! * `ctx.source_key` — the source↔destination session key `K_S` that
//!   seeds the PVF chain (`PVF_0 = MAC_{K_S}(DataHash)`);
//! * `ctx.path_keys` — the dynamic keys `K_1..K_n` of the on-path routers,
//!   in path order (the destination can derive them, §3: the dynamic key
//!   "is shared with the host").
//!
//! Verification recomputes (1) the payload hash, (2) the full PVF chain,
//! and (3) the final hop's OPV, comparing in constant time.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::ops::mac_op::mac_bytes;
use crate::{Effects, FieldOp};
use dip_crypto::{ct_eq, mmo_hash};
use dip_wire::opt::OptRepr;
use dip_wire::triple::{FnKey, FnTriple};

/// Destination verification op.
#[derive(Debug, Default, Clone, Copy)]
pub struct VerOp;

impl FieldOp for VerOp {
    fn key(&self) -> FnKey {
        FnKey::Ver
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        if triple.field_len != dip_wire::opt::OPT_BLOCK_BITS {
            return Action::Drop(DropReason::MalformedField);
        }
        let Ok(bytes) = ctx.read_field(triple) else {
            return Action::Drop(DropReason::MalformedField);
        };
        let Ok(block) = OptRepr::parse(&bytes) else {
            return Action::Drop(DropReason::MalformedField);
        };
        let Some(source_key) = ctx.source_key else {
            return Action::Drop(DropReason::MissingDynamicKey);
        };

        // (1) Source authentication: payload hash must match DataHash.
        let payload_hash = mmo_hash(ctx.payload);
        if !ct_eq(&payload_hash, &block.data_hash) {
            return Action::Drop(DropReason::AuthenticationFailed);
        }

        // (2) Path validation: recompute the PVF chain, remembering the
        // next-to-last value — each router computes its OPV (F_MAC) *before*
        // chaining the PVF (F_mark), per the §3 triple order.
        let mut pvf = mac_bytes(state.mac_choice, &source_key, &block.data_hash);
        let mut pvf_before_last_hop = pvf;
        for k in &ctx.path_keys {
            pvf_before_last_hop = pvf;
            pvf = mac_bytes(state.mac_choice, k, &pvf);
        }
        if !ct_eq(&pvf, &block.pvf) {
            return Action::Drop(DropReason::AuthenticationFailed);
        }

        // (3) Last-hop OPV over the MAC coverage (first 52 bytes), with the
        // PVF field as the last hop saw it (pre-mark).
        if let Some(last_key) = ctx.path_keys.last() {
            let mut coverage = bytes[..52].to_vec();
            coverage[dip_wire::opt::field::PVF].copy_from_slice(&pvf_before_last_hop);
            let expected_opv = mac_bytes(state.mac_choice, last_key, &coverage);
            if !ct_eq(&expected_opv, &block.opv) {
                return Action::Drop(DropReason::AuthenticationFailed);
            }
        }

        Action::Deliver
    }

    fn effects(&self, triple: &FnTriple) -> Effects {
        // Host-side; charged per path hop. The pipeline model never runs
        // this on routers, but report a representative cost.
        Effects::new(triple, OpCost::cipher(2, u32::from(triple.field_len / 128) + 2, 0)).deciding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::MacChoice;
    use crate::ops::testutil::state;
    use crate::PacketCtx;
    use dip_wire::opt::{OptRepr, OPT_BLOCK_BITS};

    /// Builds a block exactly as the source + two honest routers would.
    fn honest_block(payload: &[u8], source_key: [u8; 16], path: &[[u8; 16]]) -> Vec<u8> {
        let data_hash = mmo_hash(payload);
        let mut pvf = mac_bytes(MacChoice::TwoRoundEm, &source_key, &data_hash);
        let mut block =
            OptRepr { data_hash, session_id: [0xab; 16], timestamp: 42, pvf, opv: [0; 16] };
        for k in path {
            // Router order (§3): F_MAC (OPV over pre-mark coverage), then
            // F_mark (PVF chain).
            let bytes = block.to_bytes();
            block.opv = mac_bytes(MacChoice::TwoRoundEm, k, &bytes[..52]);
            pvf = mac_bytes(MacChoice::TwoRoundEm, k, &pvf);
            block.pvf = pvf;
        }
        block.to_bytes().to_vec()
    }

    fn ver_triple() -> FnTriple {
        FnTriple::host(0, OPT_BLOCK_BITS, FnKey::Ver)
    }

    #[test]
    fn honest_path_verifies() {
        let mut st = state();
        let source_key = [1u8; 16];
        let path = [[2u8; 16], [3u8; 16]];
        let mut locs = honest_block(b"payload", source_key, &path);
        let mut c = PacketCtx::new(&mut locs, b"payload", 0, 0);
        c.source_key = Some(source_key);
        c.path_keys = path.to_vec();
        assert_eq!(VerOp.execute(&ver_triple(), &mut st, &mut c), Action::Deliver);
    }

    #[test]
    fn tampered_payload_detected() {
        let mut st = state();
        let source_key = [1u8; 16];
        let path = [[2u8; 16]];
        let mut locs = honest_block(b"payload", source_key, &path);
        let mut c = PacketCtx::new(&mut locs, b"tampered", 0, 0);
        c.source_key = Some(source_key);
        c.path_keys = path.to_vec();
        assert_eq!(
            VerOp.execute(&ver_triple(), &mut st, &mut c),
            Action::Drop(DropReason::AuthenticationFailed)
        );
    }

    #[test]
    fn skipped_hop_detected() {
        let mut st = state();
        let source_key = [1u8; 16];
        // Packet only traversed router 2, but the path should include 2 and 3.
        let mut locs = honest_block(b"p", source_key, &[[2u8; 16]]);
        let mut c = PacketCtx::new(&mut locs, b"p", 0, 0);
        c.source_key = Some(source_key);
        c.path_keys = vec![[2u8; 16], [3u8; 16]];
        assert_eq!(
            VerOp.execute(&ver_triple(), &mut st, &mut c),
            Action::Drop(DropReason::AuthenticationFailed)
        );
    }

    #[test]
    fn reordered_path_detected() {
        let mut st = state();
        let source_key = [1u8; 16];
        let mut locs = honest_block(b"p", source_key, &[[3u8; 16], [2u8; 16]]);
        let mut c = PacketCtx::new(&mut locs, b"p", 0, 0);
        c.source_key = Some(source_key);
        c.path_keys = vec![[2u8; 16], [3u8; 16]];
        assert_eq!(
            VerOp.execute(&ver_triple(), &mut st, &mut c),
            Action::Drop(DropReason::AuthenticationFailed)
        );
    }

    #[test]
    fn forged_opv_detected() {
        let mut st = state();
        let source_key = [1u8; 16];
        let path = [[2u8; 16]];
        let mut locs = honest_block(b"p", source_key, &path);
        locs[60] ^= 0xff; // corrupt the OPV
        let mut c = PacketCtx::new(&mut locs, b"p", 0, 0);
        c.source_key = Some(source_key);
        c.path_keys = path.to_vec();
        assert_eq!(
            VerOp.execute(&ver_triple(), &mut st, &mut c),
            Action::Drop(DropReason::AuthenticationFailed)
        );
    }

    #[test]
    fn missing_session_material_rejected() {
        let mut st = state();
        let mut locs = honest_block(b"p", [1; 16], &[[2; 16]]);
        let mut c = PacketCtx::new(&mut locs, b"p", 0, 0);
        assert_eq!(
            VerOp.execute(&ver_triple(), &mut st, &mut c),
            Action::Drop(DropReason::MissingDynamicKey)
        );
    }

    #[test]
    fn empty_path_source_only_verifies() {
        // Degenerate but legal: direct delivery, no on-path routers.
        let mut st = state();
        let source_key = [1u8; 16];
        let mut locs = honest_block(b"p", source_key, &[]);
        let mut c = PacketCtx::new(&mut locs, b"p", 0, 0);
        c.source_key = Some(source_key);
        assert_eq!(VerOp.execute(&ver_triple(), &mut st, &mut c), Action::Deliver);
    }
}
