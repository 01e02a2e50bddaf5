//! SCION-style stateless path forwarding as a custom Field Operation.
//!
//! OPT (and EPIC) are "designed based on SCION" (§1), whose routers forward
//! on *hop fields* carried in the packet — per-AS `(ingress, egress)`
//! directives each protected by a MAC under that AS's secret — instead of
//! FIB lookups. §5 also names "stateless guaranteed services \[29, 30\]" as
//! a DIP opportunity; this module is that primitive: `F_hopfield`
//! (registered under [`HOPFIELD_KEY`]) forwards with **zero per-router
//! routing state**, and the chained MACs make paths unforgeable and
//! unspliceable.
//!
//! ## Field layout
//!
//! ```text
//! [0)    number of hops
//! [1)    current hop index (advanced in place at each hop)
//! then per hop: ingress port (1B) | egress port (1B) | MAC (8B)
//! MAC_i = trunc8( CBC-MAC_{K_ASi}( "hopfield" ‖ i ‖ in ‖ out ‖ MAC_{i-1} ) )
//! ```
//!
//! Chaining `MAC_{i-1}` into `MAC_i` binds each hop to its position *and*
//! its predecessor, so an attacker cannot cut two authorized paths and
//! splice them into a new one.

use dip_crypto::{ct_eq, Block, CbcMac, MacAlgorithm};
use dip_fnops::{Action, DropReason, FieldOp, OpCost, PacketCtx, RouterState};
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};

/// The experimental operation key `F_hopfield` registers under.
pub const HOPFIELD_KEY: FnKey = FnKey::Other(0x101);

/// Encoded size of one hop field.
pub const HOP_FIELD_LEN: usize = 10;

/// Preamble size (num hops + current index).
pub const PATH_PREAMBLE_LEN: usize = 2;

/// One hop directive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopField {
    /// Expected ingress port at this AS (checked against the actual one).
    pub ingress: u8,
    /// Egress port to forward on.
    pub egress: u8,
    /// Truncated chained MAC.
    pub mac: [u8; 8],
}

fn hop_mac(secret: &Block, index: u8, ingress: u8, egress: u8, prev: &[u8; 8]) -> [u8; 8] {
    let mut msg = Vec::with_capacity(20);
    msg.extend_from_slice(b"hopfield");
    msg.push(index);
    msg.push(ingress);
    msg.push(egress);
    msg.extend_from_slice(prev);
    let full = CbcMac::new_2em(secret).mac(&msg);
    full[..8].try_into().expect("8 bytes")
}

/// A constructed, authenticated forwarding path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScionPath {
    /// The hop fields, in traversal order.
    pub hops: Vec<HopField>,
}

impl ScionPath {
    /// Control-plane path construction: the beaconing service, knowing each
    /// on-path AS secret, stamps the chained MACs.
    pub fn construct(hops: &[(u8, u8, Block)]) -> ScionPath {
        let mut prev = [0u8; 8];
        let hops = hops
            .iter()
            .enumerate()
            .map(|(i, (ingress, egress, secret))| {
                let mac = hop_mac(secret, i as u8, *ingress, *egress, &prev);
                prev = mac;
                HopField { ingress: *ingress, egress: *egress, mac }
            })
            .collect();
        ScionPath { hops }
    }

    /// Encodes the path (current index 0).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![self.hops.len() as u8, 0];
        for h in &self.hops {
            out.push(h.ingress);
            out.push(h.egress);
            out.extend_from_slice(&h.mac);
        }
        out
    }

    /// Encoded width in bits (for the FN triple).
    pub fn encoded_bits(&self) -> u16 {
        ((PATH_PREAMBLE_LEN + self.hops.len() * HOP_FIELD_LEN) * 8) as u16
    }

    /// Builds the full DIP packet carrying this path.
    pub fn packet(&self, hop_limit: u8) -> DipRepr {
        DipRepr {
            next_header: 0,
            hop_limit,
            parallel: false,
            fns: vec![FnTriple::router(0, self.encoded_bits(), HOPFIELD_KEY)],
            locations: self.encode(),
        }
    }
}

/// The hop-field forwarding operation module.
#[derive(Debug, Default, Clone, Copy)]
pub struct HopFieldOp;

impl FieldOp for HopFieldOp {
    fn key(&self) -> FnKey {
        HOPFIELD_KEY
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
        if field.len() < PATH_PREAMBLE_LEN {
            return Action::Drop(DropReason::MalformedField);
        }
        let num = usize::from(field[0]);
        let cur = usize::from(field[1]);
        if field.len() < PATH_PREAMBLE_LEN + num * HOP_FIELD_LEN {
            return Action::Drop(DropReason::MalformedField);
        }
        if cur >= num {
            // Path exhausted: the packet has reached its final AS.
            return Action::Deliver;
        }
        let off = PATH_PREAMBLE_LEN + cur * HOP_FIELD_LEN;
        let ingress = field[off];
        let egress = field[off + 1];
        let mac: [u8; 8] = field[off + 2..off + 10].try_into().expect("8 bytes");
        let prev: [u8; 8] = if cur == 0 {
            [0u8; 8]
        } else {
            let poff = PATH_PREAMBLE_LEN + (cur - 1) * HOP_FIELD_LEN;
            field[poff + 2..poff + 10].try_into().expect("8 bytes")
        };

        // Verify this hop was authorized by *this* AS, in this position,
        // after exactly the previous hop.
        let expected = hop_mac(&state.as_secret, cur as u8, ingress, egress, &prev);
        if !ct_eq(&expected, &mac) {
            return Action::Drop(DropReason::AuthenticationFailed);
        }
        // Ingress check: the packet must arrive where the path says.
        if u32::from(ingress) != ctx.in_port {
            return Action::Drop(DropReason::AuthenticationFailed);
        }

        // Advance the index in place and forward — no FIB consulted.
        field[1] = (cur + 1) as u8;
        if ctx.write_field(triple, &field).is_err() {
            return Action::Drop(DropReason::MalformedField);
        }
        Action::Forward(u32::from(egress))
    }

    fn cost(&self, _field_bits: u16) -> OpCost {
        // One short MAC verification, no table lookup at all.
        OpCost { stages: 2, table_lookups: 0, cipher_blocks: 3, resubmits: 0 }
    }

    fn write_range(&self, triple: &FnTriple) -> Option<(usize, usize)> {
        // Only the index byte is written, but report the field for safety.
        Some((usize::from(triple.field_loc), triple.field_end()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_core::{DipRouter, Verdict};
    use dip_tables::Ports;
    use std::sync::Arc;

    fn as_router(secret: Block) -> DipRouter {
        let mut r = DipRouter::new(0, secret);
        r.registry_mut().install(Arc::new(HopFieldOp));
        r
    }

    const S1: Block = [1; 16];
    const S2: Block = [2; 16];
    const S3: Block = [3; 16];

    fn three_as_path() -> ScionPath {
        ScionPath::construct(&[(0, 5, S1), (2, 6, S2), (3, 7, S3)])
    }

    #[test]
    fn forwards_along_the_authorized_path_with_no_fib() {
        let path = three_as_path();
        let mut buf = path.packet(64).to_bytes(b"payload").unwrap();

        let mut r1 = as_router(S1);
        let (v, stats) = r1.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(5)));
        assert_eq!(stats.cost.table_lookups, 0, "stateless forwarding");

        let mut r2 = as_router(S2);
        let (v, _) = r2.process(&mut buf, 2, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(6)));

        let mut r3 = as_router(S3);
        let (v, _) = r3.process(&mut buf, 3, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(7)));

        // Past the last hop: delivered.
        let mut r_dst = as_router(S3);
        let (v, _) = r_dst.process(&mut buf, 7, 0);
        assert_eq!(v, Verdict::Deliver);
    }

    #[test]
    fn wrong_as_secret_rejects() {
        let path = three_as_path();
        let mut buf = path.packet(64).to_bytes(&[]).unwrap();
        let mut rogue = as_router([0xEE; 16]);
        let (v, _) = rogue.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));
    }

    #[test]
    fn wrong_ingress_port_rejects() {
        let path = three_as_path();
        let mut buf = path.packet(64).to_bytes(&[]).unwrap();
        let mut r1 = as_router(S1);
        let (v, _) = r1.process(&mut buf, 9, 0); // path says ingress 0
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));
    }

    #[test]
    fn forged_hop_field_rejects() {
        let mut path = three_as_path();
        path.hops[1].egress = 9; // attacker redirects mid-path
        let mut buf = path.packet(64).to_bytes(&[]).unwrap();
        let mut r1 = as_router(S1);
        assert!(matches!(r1.process(&mut buf, 0, 0).0, Verdict::Forward(_)));
        let mut r2 = as_router(S2);
        let (v, _) = r2.process(&mut buf, 2, 0);
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));
    }

    #[test]
    fn spliced_paths_reject() {
        // Take hop 0 of path A and hop 1 of path B — both individually
        // authorized — and splice them. The chained MAC kills it.
        let a = ScionPath::construct(&[(0, 5, S1), (2, 6, S2)]);
        let b = ScionPath::construct(&[(0, 9, S1), (2, 6, S2)]);
        let spliced = ScionPath { hops: vec![a.hops[0], b.hops[1]] };
        let mut buf = spliced.packet(64).to_bytes(&[]).unwrap();
        let mut r1 = as_router(S1);
        assert!(matches!(r1.process(&mut buf, 0, 0).0, Verdict::Forward(_)));
        let mut r2 = as_router(S2);
        let (v, _) = r2.process(&mut buf, 2, 0);
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));
    }

    #[test]
    fn index_manipulation_cannot_skip_hops() {
        // Jumping the index forward lands on a MAC whose chained
        // predecessor check fails at that AS position... unless the path
        // genuinely authorizes it. Set cur=1 before hop 0 ran: AS2 verifies
        // hop 1's MAC correctly chained — but the ingress check now runs at
        // the *wrong router* (AS1 holds a different secret), so hop
        // skipping still fails everywhere except the legitimate AS2.
        let path = three_as_path();
        let mut repr = path.packet(64);
        repr.locations[1] = 1; // skip hop 0
        let mut buf = repr.to_bytes(&[]).unwrap();
        let mut r1 = as_router(S1);
        let (v, _) = r1.process(&mut buf, 2, 0);
        assert_eq!(v, Verdict::Drop(DropReason::AuthenticationFailed));
    }

    #[test]
    fn empty_path_delivers() {
        let path = ScionPath::construct(&[]);
        let mut buf = path.packet(64).to_bytes(&[]).unwrap();
        let mut r = as_router(S1);
        let (v, _) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Deliver);
    }

    #[test]
    fn encode_roundtrip_width() {
        let path = three_as_path();
        let enc = path.encode();
        assert_eq!(enc.len(), 2 + 3 * 10);
        assert_eq!(usize::from(path.encoded_bits()), enc.len() * 8);
    }
}
