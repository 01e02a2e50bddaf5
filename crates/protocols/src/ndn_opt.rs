//! NDN+OPT — the derived secure content delivery protocol (§3).
//!
//! "With FNs, we can integrate OPT with NDN to derive a secure content
//! delivery network ... we compose the FN modules (F_FIB, F_PIT, F_parm,
//! F_MAC, F_mark and F_ver) to construct the DIP packet header for
//! NDN+OPT."
//!
//! The composition per packet type:
//!
//! * **interest** — `F_FIB` routes by content name (16-byte header, like
//!   plain NDN: the request needs no path authentication);
//! * **data** — `F_PIT` fans the content back along the recorded faces
//!   while `F_parm`/`F_MAC`/`F_mark` build the OPT authentication chain
//!   and `F_ver` lets the consumer verify source and path. Locations =
//!   32-bit content name followed by the 544-bit OPT block → 4 + 68 bytes,
//!   header = 6 + 5·6 + 72 = **108 bytes** (Table 2).
//!
//! This is the paper's §2.3 walkthrough scenario: "a host requests content
//! with content name, and meanwhile it verifies the content's source and
//! the network path used to deliver the content are secure."

use crate::opt::{opt_triples, OptSession};
use dip_wire::ndn::Name;
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};

/// Bit offset of the OPT block inside NDN+OPT locations (after the 32-bit
/// content name).
pub const OPT_BASE_BITS: u16 = 32;

/// Builds an NDN+OPT interest (identical shape to plain NDN; the secure
/// part rides on the returning data).
pub fn interest(name: &Name, hop_limit: u8) -> DipRepr {
    crate::ndn::interest(name, hop_limit)
}

/// Builds an NDN+OPT data packet: content name + OPT block, five FN
/// triples. Header is 108 bytes (Table 2).
pub fn data(
    session: &OptSession,
    name: &Name,
    payload: &[u8],
    timestamp: u32,
    hop_limit: u8,
) -> DipRepr {
    let block = session.initial_block(payload, timestamp);
    let mut locations = name.compact32().to_be_bytes().to_vec();
    locations.extend_from_slice(&block.to_bytes());
    let mut fns = vec![FnTriple::router(0, 32, FnKey::Pit)];
    fns.extend(opt_triples(OPT_BASE_BITS));
    DipRepr { next_header: 0, hop_limit, parallel: false, fns, locations }
}

/// Builds an NDN+OPT data packet keyed by an already-compacted name
/// (simulator producers answer interests that carry only the compact form).
pub fn data_compact(
    session: &OptSession,
    compact: u32,
    payload: &[u8],
    timestamp: u32,
    hop_limit: u8,
) -> DipRepr {
    let block = session.initial_block(payload, timestamp);
    let mut locations = compact.to_be_bytes().to_vec();
    locations.extend_from_slice(&block.to_bytes());
    let mut fns = vec![FnTriple::router(0, 32, FnKey::Pit)];
    fns.extend(opt_triples(OPT_BASE_BITS));
    DipRepr { next_header: 0, hop_limit, parallel: false, fns, locations }
}

/// Like [`data`] but with the parallel flag set (§2.2): the PIT lookup and
/// the key derivation may overlap in a parallelism-capable pipeline.
pub fn data_parallel(
    session: &OptSession,
    name: &Name,
    payload: &[u8],
    timestamp: u32,
    hop_limit: u8,
) -> DipRepr {
    let mut repr = data(session, name, payload, timestamp, hop_limit);
    repr.parallel = true;
    repr
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header_sizes;
    use dip_core::host::deliver;
    use dip_core::{DipRouter, Verdict};
    use dip_crypto::Block;
    use dip_fnops::RouteStore;
    use dip_fnops::{DropReason, FnRegistry, RouterState};
    use dip_tables::fib::NextHop;
    use dip_tables::Ports;

    fn setup() -> (OptSession, DipRouter, Name) {
        let router_secret: Block = [33; 16];
        let session = OptSession::establish([0x77; 16], &[3; 16], &[router_secret]);
        let mut router = DipRouter::new(0, router_secret);
        let name = Name::parse("hotnets.org");
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(8));
        router.state_mut().routes = routes.rebuild();
        (session, router, name)
    }

    #[test]
    fn data_header_is_108_bytes() {
        let (s, _, name) = setup();
        assert_eq!(data(&s, &name, b"x", 1, 64).header_len(), header_sizes::NDN_OPT);
    }

    #[test]
    fn interest_header_is_16_bytes() {
        let (_, _, name) = setup();
        assert_eq!(interest(&name, 64).header_len(), header_sizes::NDN);
    }

    #[test]
    fn full_secure_content_delivery_roundtrip() {
        // The §2.3 walkthrough: interest out, authenticated data back.
        let (session, mut router, name) = setup();

        // Consumer (port 3) asks for the content.
        let mut ibuf = interest(&name, 64).to_bytes(&[]).unwrap();
        let (v, _) = router.process(&mut ibuf, 3, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(8)));

        // Producer (port 8) answers with authenticated data.
        let payload = b"the secure content".to_vec();
        let mut dbuf = data(&session, &name, &payload, 42, 64).to_bytes(&payload).unwrap();
        let (v, stats) = router.process(&mut dbuf, 8, 100);
        assert_eq!(v, Verdict::Forward(Ports::one(3))); // PIT fan-out to consumer
        assert_eq!(stats.fns_executed, 4); // PIT + parm + MAC + mark
        assert_eq!(stats.skipped_host, 1); // ver

        // Consumer verifies source and path.
        let mut host_state = RouterState::new(999, [0; 16]);
        let d = deliver(
            &mut dbuf,
            &session.host_context(),
            &mut host_state,
            &FnRegistry::standard(),
            200,
        )
        .unwrap();
        assert!(d.verified);
    }

    #[test]
    fn tampered_content_fails_verification_but_still_forwards() {
        let (session, mut router, name) = setup();
        let mut ibuf = interest(&name, 64).to_bytes(&[]).unwrap();
        router.process(&mut ibuf, 3, 0);

        let payload = b"genuine".to_vec();
        let mut dbuf = data(&session, &name, &payload, 1, 64).to_bytes(&payload).unwrap();
        // Attacker swaps the payload before the router.
        let n = dbuf.len();
        dbuf[n - 1] ^= 1;
        let (v, _) = router.process(&mut dbuf, 8, 100);
        assert!(matches!(v, Verdict::Forward(_))); // routers don't verify
        let mut host_state = RouterState::new(999, [0; 16]);
        assert_eq!(
            deliver(
                &mut dbuf,
                &session.host_context(),
                &mut host_state,
                &FnRegistry::standard(),
                0
            ),
            Err(DropReason::AuthenticationFailed)
        );
    }

    #[test]
    fn unsolicited_secure_data_still_dropped_by_pit() {
        let (session, mut router, name) = setup();
        let payload = b"push".to_vec();
        let mut dbuf = data(&session, &name, &payload, 1, 64).to_bytes(&payload).unwrap();
        let (v, _) = router.process(&mut dbuf, 8, 0);
        assert_eq!(v, Verdict::Drop(DropReason::PitMiss));
    }

    #[test]
    fn parallel_variant_sets_flag_and_shrinks_plan() {
        let (session, mut router, name) = setup();
        let mut ibuf = interest(&name, 64).to_bytes(&[]).unwrap();
        router.process(&mut ibuf, 3, 0);
        let payload = b"p".to_vec();
        let repr = data_parallel(&session, &name, &payload, 1, 64);
        assert!(repr.parallel);
        let mut dbuf = repr.to_bytes(&payload).unwrap();
        let (_, stats) = router.process(&mut dbuf, 8, 10);
        // 4 router FNs collapse into 3 waves (PIT ∥ parm, then MAC, mark).
        assert_eq!(stats.plan_depth, 3);
    }
}
