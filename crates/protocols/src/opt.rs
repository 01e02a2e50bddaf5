//! OPT over DIP (§3, *OPT*): source authentication and path validation.
//!
//! The session layer reproduces OPT's key model: during negotiation (out of
//! band, like OPT's setup protocol) the source and destination agree on a
//! random `session_id` and learn each on-path router's *dynamic key*
//! `K_i = PRF(S_i, session_id)` — the same value each router re-derives per
//! packet in `F_parm` (§3: the dynamic key "is shared with the host").
//!
//! Per packet, the source computes `DataHash = H(payload)` and seeds the
//! chain `PVF_0 = MAC_{K_S}(DataHash)`; every router then runs the FN chain
//! `(parm, MAC, mark)`, and the destination verifies with `F_ver`.

use dip_core::host::HostContext;
use dip_crypto::{derive_session_key, mmo_hash, Block, CbcMac, MacAlgorithm};
use dip_wire::opt::{triple_bits, OptRepr, OPT_BLOCK_LEN};
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};

/// An established OPT session between a source/destination pair across a
/// fixed router path.
///
/// ```
/// use dip_core::host::deliver;
/// use dip_core::{DipRouter, Verdict};
/// use dip_fnops::{FnRegistry, RouterState};
/// use dip_protocols::opt::OptSession;
///
/// // Key negotiation across one router.
/// let router_secret = [9u8; 16];
/// let session = OptSession::establish([0x5A; 16], &[7; 16], &[router_secret]);
///
/// // Source -> router (parm, MAC, mark run; F_ver is host-tagged).
/// let mut router = DipRouter::new(1, router_secret);
/// router.config_mut().default_port = Some(1);
/// let mut buf = session.packet(b"hello", 42, 64).to_bytes(b"hello").unwrap();
/// assert!(matches!(router.process(&mut buf, 0, 0).0, Verdict::Forward(_)));
///
/// // Destination verifies source + path.
/// let mut host_state = RouterState::new(99, [0; 16]);
/// let d = deliver(&mut buf, &session.host_context(), &mut host_state,
///                 &FnRegistry::standard(), 0).unwrap();
/// assert!(d.verified);
/// ```
#[derive(Debug, Clone)]
pub struct OptSession {
    /// The session identifier carried in every packet.
    pub session_id: Block,
    /// Key shared by source and destination, seeding the PVF chain.
    pub source_key: Block,
    /// Dynamic keys of the on-path routers, in path order.
    pub path_keys: Vec<Block>,
}

impl OptSession {
    /// Key negotiation: derives the session's key material from the
    /// source↔destination shared secret and the local secrets of the
    /// on-path routers (which the setup protocol collects in real OPT).
    pub fn establish(session_id: Block, src_dst_secret: &Block, router_secrets: &[Block]) -> Self {
        OptSession {
            session_id,
            source_key: derive_session_key(src_dst_secret, &session_id),
            path_keys: router_secrets.iter().map(|s| derive_session_key(s, &session_id)).collect(),
        }
    }

    /// The verification material the destination host needs for `F_ver`.
    pub fn host_context(&self) -> HostContext {
        HostContext { source_key: Some(self.source_key), path_keys: self.path_keys.clone() }
    }

    /// Builds the source-side OPT block for `payload` at `timestamp`.
    pub fn initial_block(&self, payload: &[u8], timestamp: u32) -> OptRepr {
        let data_hash = mmo_hash(payload);
        let pvf = CbcMac::new_2em(&self.source_key).mac(&data_hash);
        OptRepr { data_hash, session_id: self.session_id, timestamp, pvf, opv: [0; 16] }
    }

    /// Builds the full OPT-over-DIP header for `payload` (§3's four
    /// triples; 98-byte header, Table 2).
    pub fn packet(&self, payload: &[u8], timestamp: u32, hop_limit: u8) -> DipRepr {
        let block = self.initial_block(payload, timestamp);
        DipRepr {
            next_header: 0,
            hop_limit,
            parallel: false,
            fns: opt_triples(0),
            locations: block.to_bytes().to_vec(),
        }
    }
}

/// The §3 OPT triples, with the OPT block starting at bit `base` of the
/// locations area (`base = 0` for plain OPT, `32` for NDN+OPT where the
/// content name comes first).
pub fn opt_triples(base: u16) -> Vec<FnTriple> {
    vec![
        FnTriple::router(base + triple_bits::PARM.0, triple_bits::PARM.1, FnKey::Parm),
        FnTriple::router(base + triple_bits::MAC.0, triple_bits::MAC.1, FnKey::Mac),
        FnTriple::router(base + triple_bits::MARK.0, triple_bits::MARK.1, FnKey::Mark),
        FnTriple::host(base + triple_bits::VER.0, triple_bits::VER.1, FnKey::Ver),
    ]
}

/// Parses the OPT block back out of a locations area at byte offset
/// `base_bytes`.
pub fn parse_block(locations: &[u8], base_bytes: usize) -> Option<OptRepr> {
    let slice = locations.get(base_bytes..base_bytes + OPT_BLOCK_LEN)?;
    OptRepr::parse(slice).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header_sizes;
    use dip_core::host::deliver;
    use dip_core::{DipRouter, Verdict};
    use dip_fnops::{DropReason, FnRegistry, RouterState};
    use dip_tables::Ports;

    fn session(n_routers: usize) -> (OptSession, Vec<DipRouter>) {
        let router_secrets: Vec<Block> = (0..n_routers).map(|i| [(i as u8) + 10; 16]).collect();
        let session = OptSession::establish([0x5a; 16], &[7; 16], &router_secrets);
        let routers = router_secrets
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut r = DipRouter::new(i as u64, *s);
                r.config_mut().default_port = Some(1); // static forwarding like the testbed
                r
            })
            .collect();
        (session, routers)
    }

    #[test]
    fn opt_header_is_98_bytes() {
        let (s, _) = session(1);
        assert_eq!(s.packet(b"x", 1, 64).header_len(), header_sizes::OPT);
    }

    #[test]
    fn end_to_end_one_hop_verifies() {
        let (s, mut routers) = session(1);
        let mut buf = s.packet(b"payload", 123, 64).to_bytes(b"payload").unwrap();
        let (v, stats) = routers[0].process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(1)));
        assert_eq!(stats.fns_executed, 3); // parm, mac, mark
        assert_eq!(stats.skipped_host, 1); // ver

        let mut host_state = RouterState::new(999, [0; 16]);
        let d = deliver(&mut buf, &s.host_context(), &mut host_state, &FnRegistry::standard(), 0)
            .unwrap();
        assert!(d.verified);
    }

    #[test]
    fn end_to_end_three_hops_verifies() {
        let (s, mut routers) = session(3);
        let mut buf = s.packet(b"multi-hop", 9, 64).to_bytes(b"multi-hop").unwrap();
        for r in routers.iter_mut() {
            let (v, _) = r.process(&mut buf, 0, 0);
            assert!(matches!(v, Verdict::Forward(_)));
        }
        let mut host_state = RouterState::new(999, [0; 16]);
        let d = deliver(&mut buf, &s.host_context(), &mut host_state, &FnRegistry::standard(), 0)
            .unwrap();
        assert!(d.verified);
    }

    #[test]
    fn on_path_tampering_is_detected() {
        let (s, mut routers) = session(2);
        let payload = b"sensitive".to_vec();
        let mut buf = s.packet(&payload, 9, 64).to_bytes(&payload).unwrap();
        routers[0].process(&mut buf, 0, 0);
        // A man-in-the-middle rewrites the payload between hops.
        let n = buf.len();
        buf[n - 1] ^= 0xff;
        routers[1].process(&mut buf, 0, 0);
        let mut host_state = RouterState::new(999, [0; 16]);
        assert_eq!(
            deliver(&mut buf, &s.host_context(), &mut host_state, &FnRegistry::standard(), 0),
            Err(DropReason::AuthenticationFailed)
        );
    }

    #[test]
    fn path_deviation_is_detected() {
        // Packet routed through a different (attacker) router than the
        // session negotiated: PVF chain cannot match.
        let (s, _) = session(2);
        let mut rogue = DipRouter::new(66, [0x66; 16]);
        rogue.config_mut().default_port = Some(1);
        let mut buf = s.packet(b"p", 1, 64).to_bytes(b"p").unwrap();
        rogue.process(&mut buf, 0, 0);
        // Second legit hop.
        let mut legit = DipRouter::new(1, [11; 16]);
        legit.config_mut().default_port = Some(1);
        legit.process(&mut buf, 0, 0);
        let mut host_state = RouterState::new(999, [0; 16]);
        assert_eq!(
            deliver(&mut buf, &s.host_context(), &mut host_state, &FnRegistry::standard(), 0),
            Err(DropReason::AuthenticationFailed)
        );
    }

    #[test]
    fn skipping_a_hop_is_detected() {
        let (s, mut routers) = session(2);
        let mut buf = s.packet(b"p", 1, 64).to_bytes(b"p").unwrap();
        // Only the first router processes it; the second is bypassed.
        routers[0].process(&mut buf, 0, 0);
        let mut host_state = RouterState::new(999, [0; 16]);
        assert_eq!(
            deliver(&mut buf, &s.host_context(), &mut host_state, &FnRegistry::standard(), 0),
            Err(DropReason::AuthenticationFailed)
        );
    }

    #[test]
    fn session_keys_match_router_derivation() {
        // What establish() predicts must equal what F_parm derives.
        let secret = [42u8; 16];
        let sid = [0x5a; 16];
        let s = OptSession::establish(sid, &[7; 16], &[secret]);
        assert_eq!(s.path_keys[0], derive_session_key(&secret, &sid));
    }

    #[test]
    fn parse_block_roundtrip() {
        let (s, _) = session(1);
        let repr = s.packet(b"x", 5, 64);
        let block = parse_block(&repr.locations, 0).unwrap();
        assert_eq!(block.session_id, s.session_id);
        assert_eq!(block.timestamp, 5);
        assert!(parse_block(&repr.locations, 60).is_none());
    }
}
