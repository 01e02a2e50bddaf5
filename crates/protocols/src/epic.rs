//! EPIC-style per-hop dataplane verification as a custom Field Operation.
//!
//! EPIC \[17\] ("Every Packet Is Checked in the Data Plane", cited alongside
//! OPT in §1) shifts verification from the destination into the network:
//! the *source* precomputes one hop validation field (HVF) per on-path
//! router from the same DRKey-style keys OPT uses, and each router
//! **verifies its HVF before forwarding**, dropping bogus traffic at the
//! first honest hop instead of letting the destination discover it. This is
//! the complementary design point to [`crate::opt`] (routers update,
//! destination verifies), and composing the two FNs is exactly the kind of
//! merge §2.1 promises.
//!
//! ## Field layout (38 + 8·n bytes)
//!
//! ```text
//! [0)        number of hops n
//! [1)        current hop index (advanced in place)
//! [2..18)    session id
//! [18..34)   payload hash
//! [34..38)   timestamp
//! then per hop: HVF (8B) = trunc8( MAC_{K_i}( hash ‖ ts ‖ i ) )
//! ```

use dip_crypto::{ct_eq, derive_session_key, mmo_hash, Block, CbcMac, MacAlgorithm};
use dip_fnops::{Action, DropReason, FieldOp, OpCost, PacketCtx, RouterState};
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};

/// The experimental operation key `F_epic` registers under.
pub const EPIC_KEY: FnKey = FnKey::Other(0x103);

/// Fixed part of the EPIC field.
pub const EPIC_PREAMBLE_LEN: usize = 38;
/// Per-hop validation field size.
pub const HVF_LEN: usize = 8;

fn hvf(key: &Block, data_hash: &[u8; 16], timestamp: u32, index: u8) -> [u8; 8] {
    let mut msg = Vec::with_capacity(21);
    msg.extend_from_slice(data_hash);
    msg.extend_from_slice(&timestamp.to_be_bytes());
    msg.push(index);
    let full = CbcMac::new_2em(key).mac(&msg);
    full[..8].try_into().expect("8 bytes")
}

/// An established EPIC session (source side).
#[derive(Debug, Clone)]
pub struct EpicSession {
    /// The session identifier carried in every packet.
    pub session_id: Block,
    /// Per-hop dynamic keys, in path order.
    pub path_keys: Vec<Block>,
}

impl EpicSession {
    /// Key setup — identical derivation to OPT's (§3): the host learns
    /// `K_i = PRF(S_i, session_id)` for every on-path router.
    pub fn establish(session_id: Block, router_secrets: &[Block]) -> Self {
        EpicSession {
            session_id,
            path_keys: router_secrets.iter().map(|s| derive_session_key(s, &session_id)).collect(),
        }
    }

    /// Builds the EPIC field for `payload` at `timestamp`: the source
    /// precomputes every hop's HVF.
    pub fn field(&self, payload: &[u8], timestamp: u32) -> Vec<u8> {
        let data_hash = mmo_hash(payload);
        let mut out = Vec::with_capacity(EPIC_PREAMBLE_LEN + HVF_LEN * self.path_keys.len());
        out.push(self.path_keys.len() as u8);
        out.push(0);
        out.extend_from_slice(&self.session_id);
        out.extend_from_slice(&data_hash);
        out.extend_from_slice(&timestamp.to_be_bytes());
        for (i, k) in self.path_keys.iter().enumerate() {
            out.extend_from_slice(&hvf(k, &data_hash, timestamp, i as u8));
        }
        out
    }

    /// Width in bits of this session's EPIC field.
    pub fn field_bits(&self) -> u16 {
        ((EPIC_PREAMBLE_LEN + HVF_LEN * self.path_keys.len()) * 8) as u16
    }

    /// Builds a standalone EPIC packet (compose the triple with addressing
    /// FNs for routed traffic).
    pub fn packet(&self, payload: &[u8], timestamp: u32, hop_limit: u8) -> DipRepr {
        DipRepr {
            next_header: 0,
            hop_limit,
            parallel: false,
            fns: vec![FnTriple::router(0, self.field_bits(), EPIC_KEY)],
            locations: self.field(payload, timestamp),
        }
    }
}

/// The per-hop verification operation module.
#[derive(Debug, Default, Clone, Copy)]
pub struct EpicOp;

impl FieldOp for EpicOp {
    fn key(&self) -> FnKey {
        EPIC_KEY
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        let Ok(mut field) = ctx.read_field(triple) else {
            return Action::Drop(DropReason::MalformedField);
        };
        if field.len() < EPIC_PREAMBLE_LEN {
            return Action::Drop(DropReason::MalformedField);
        }
        let n = usize::from(field[0]);
        let cur = usize::from(field[1]);
        if field.len() < EPIC_PREAMBLE_LEN + n * HVF_LEN {
            return Action::Drop(DropReason::MalformedField);
        }
        if cur >= n {
            // More routers on the path than HVFs — the source did not
            // authorize this hop.
            return Action::Drop(DropReason::AuthenticationFailed);
        }
        let mut session_id = [0u8; 16];
        session_id.copy_from_slice(&field[2..18]);
        let mut data_hash = [0u8; 16];
        data_hash.copy_from_slice(&field[18..34]);
        let timestamp = u32::from_be_bytes(field[34..38].try_into().expect("4 bytes"));

        // EPIC's defining step: *this router verifies* before forwarding.
        // (1) the payload actually hashes to the carried DataHash;
        let actual_hash = mmo_hash(ctx.payload);
        if !ct_eq(&actual_hash, &data_hash) {
            return Action::Drop(DropReason::AuthenticationFailed);
        }
        // (2) the source knew this router's session key.
        let key = derive_session_key(&state.local_secret, &session_id);
        let expected = hvf(&key, &data_hash, timestamp, cur as u8);
        let off = EPIC_PREAMBLE_LEN + cur * HVF_LEN;
        if !ct_eq(&expected, &field[off..off + HVF_LEN]) {
            return Action::Drop(DropReason::AuthenticationFailed);
        }

        field[1] = (cur + 1) as u8;
        if ctx.write_field(triple, &field).is_err() {
            return Action::Drop(DropReason::MalformedField);
        }
        Action::Continue
    }

    fn cost(&self, field_bits: u16) -> OpCost {
        // Key derivation + one short MAC + the payload hash. The payload
        // hash is the expensive part EPIC's real design replaces with a
        // per-packet MAC over a short header; we report the conservative
        // cost.
        OpCost::cipher(3, 6 + u32::from(field_bits / 512), 0)
    }

    fn write_range(&self, triple: &FnTriple) -> Option<(usize, usize)> {
        Some((usize::from(triple.field_loc), triple.field_end()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_core::{DipRouter, Verdict};
    use dip_fnops::RouteStore;
    use dip_tables::Ports;
    use std::sync::Arc;

    fn epic_router(secret: Block) -> DipRouter {
        let mut r = DipRouter::new(0, secret);
        r.config_mut().default_port = Some(1);
        r.registry_mut().install(Arc::new(EpicOp));
        r
    }

    const SECRETS: [Block; 3] = [[1; 16], [2; 16], [3; 16]];

    #[test]
    fn honest_packet_passes_every_hop() {
        let session = EpicSession::establish([0x5a; 16], &SECRETS);
        let payload = b"checked everywhere".to_vec();
        let mut buf = session.packet(&payload, 7, 64).to_bytes(&payload).unwrap();
        for s in SECRETS {
            let mut r = epic_router(s);
            let (v, _) = r.process(&mut buf, 0, 0);
            assert_eq!(v, Verdict::Forward(Ports::one(1)));
        }
        // Index advanced to 3 on the wire.
        let pkt = dip_wire::DipPacket::new_checked(&buf[..]).unwrap();
        assert_eq!(pkt.locations()[1], 3);
    }

    #[test]
    fn tampered_payload_dropped_at_the_first_hop_unlike_opt() {
        // The EPIC pitch: bogus traffic dies in the dataplane immediately.
        let session = EpicSession::establish([0x5a; 16], &SECRETS);
        let payload = b"genuine".to_vec();
        let mut buf = session.packet(&payload, 7, 64).to_bytes(&payload).unwrap();
        let n = buf.len();
        buf[n - 1] ^= 1;
        let mut first = epic_router(SECRETS[0]);
        let (v, _) = first.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));

        // Contrast: the same tampering under OPT sails through the router
        // and is only caught by the destination (see opt::tests).
        let opt = crate::opt::OptSession::establish([0x5a; 16], &[9; 16], &[SECRETS[0]]);
        let mut obuf = opt.packet(&payload, 7, 64).to_bytes(&payload).unwrap();
        let m = obuf.len();
        obuf[m - 1] ^= 1;
        let mut r = DipRouter::new(0, SECRETS[0]);
        r.config_mut().default_port = Some(1);
        let (v, _) = r.process(&mut obuf, 0, 0);
        assert!(matches!(v, Verdict::Forward(_)), "OPT routers forward blindly");
    }

    #[test]
    fn unauthorized_router_rejects() {
        let session = EpicSession::establish([0x5a; 16], &SECRETS);
        let payload = b"p".to_vec();
        let mut buf = session.packet(&payload, 7, 64).to_bytes(&payload).unwrap();
        let mut rogue = epic_router([0xEE; 16]);
        let (v, _) = rogue.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));
    }

    #[test]
    fn path_longer_than_authorized_rejects() {
        let session = EpicSession::establish([0x5a; 16], &SECRETS[..1]);
        let payload = b"p".to_vec();
        let mut buf = session.packet(&payload, 7, 64).to_bytes(&payload).unwrap();
        let mut r1 = epic_router(SECRETS[0]);
        assert!(matches!(r1.process(&mut buf, 0, 0).0, Verdict::Forward(_)));
        // A second router — not in the HVF list — must refuse.
        let mut r2 = epic_router(SECRETS[1]);
        let (v, _) = r2.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));
    }

    #[test]
    fn hvfs_are_position_bound() {
        // Swap two HVFs: both hops fail (index is MAC'd).
        let session = EpicSession::establish([0x5a; 16], &SECRETS[..2]);
        let payload = b"p".to_vec();
        let mut repr = session.packet(&payload, 7, 64);
        let (a, b) = (EPIC_PREAMBLE_LEN, EPIC_PREAMBLE_LEN + HVF_LEN);
        let hvf0: Vec<u8> = repr.locations[a..a + HVF_LEN].to_vec();
        let hvf1: Vec<u8> = repr.locations[b..b + HVF_LEN].to_vec();
        repr.locations[a..a + HVF_LEN].copy_from_slice(&hvf1);
        repr.locations[b..b + HVF_LEN].copy_from_slice(&hvf0);
        let mut buf = repr.to_bytes(&payload).unwrap();
        let mut r = epic_router(SECRETS[0]);
        let (v, _) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));
    }

    #[test]
    fn composes_with_ndn_forwarding() {
        // EPIC verification + name-based forwarding in one header: the
        // "secure NDN with in-network filtering" composition.
        use dip_tables::fib::NextHop;
        use dip_wire::ndn::Name;
        let session = EpicSession::establish([0x5a; 16], &SECRETS[..1]);
        let name = Name::parse("/filtered");
        let payload = b"data".to_vec();

        let mut locations = name.compact32().to_be_bytes().to_vec();
        let epic_off = (locations.len() * 8) as u16;
        locations.extend_from_slice(&session.field(&payload, 1));
        let repr = DipRepr {
            fns: vec![
                FnTriple::router(epic_off, session.field_bits(), EPIC_KEY),
                FnTriple::router(0, 32, FnKey::Pit),
            ],
            locations,
            ..Default::default()
        };

        let mut r = epic_router(SECRETS[0]);
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(4));
        r.state_mut().routes = routes.rebuild();
        // Pending interest so the data has a face to follow.
        let mut ibuf = crate::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
        r.process(&mut ibuf, 6, 0);

        let mut buf = repr.to_bytes(&payload).unwrap();
        let (v, stats) = r.process(&mut buf, 4, 10);
        assert_eq!(v, Verdict::Forward(Ports::one(6)));
        assert_eq!(stats.fns_executed, 2);

        // Tampered copy never reaches the PIT.
        let mut ibuf2 = crate::ndn::interest(&name, 64).to_bytes(b"rq2").unwrap();
        r.process(&mut ibuf2, 6, 20);
        let mut bad = repr.to_bytes(b"dataX").unwrap();
        let (v, _) = r.process(&mut bad, 4, 30);
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));
        assert!(r.state().pit.contains(&name.compact32(), 31), "PIT entry untouched");
    }
}
