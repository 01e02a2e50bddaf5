//! Security-property integration tests: the OPT threat model and the §2.4
//! defenses, exercised through the full pipeline.

use dip::fnops::ops::pass::{issue_label, PASS_FIELD_BITS};
use dip::prelude::*;
use dip::protocols::ndn;
use dip_routes::RouteStore;

fn one_hop(session: &OptSession, secret: [u8; 16], payload: &[u8]) -> Vec<u8> {
    let mut router = DipRouter::new(0, secret);
    router.config_mut().default_port = Some(1);
    let mut buf = session.packet(payload, 7, 64).to_bytes(payload).unwrap();
    let (v, _) = router.process(&mut buf, 0, 0);
    assert!(matches!(v, Verdict::Forward(_)));
    buf
}

fn verify(buf: &mut [u8], session: &OptSession) -> Result<bool, DropReason> {
    let mut host_state = RouterState::new(99, [0; 16]);
    deliver(buf, &session.host_context(), &mut host_state, &FnRegistry::standard(), 0)
        .map(|d| d.verified)
}

#[test]
fn honest_traffic_verifies() {
    let secret = [3; 16];
    let session = OptSession::establish([1; 16], &[2; 16], &[secret]);
    let mut buf = one_hop(&session, secret, b"ok");
    assert_eq!(verify(&mut buf, &session), Ok(true));
}

#[test]
fn every_single_bitflip_in_the_opt_block_is_detected() {
    // Flip each bit of the 68-byte OPT block in turn: verification must
    // fail for all of them (the whole block is either MAC'd or is the tag
    // itself).
    let secret = [3; 16];
    let session = OptSession::establish([1; 16], &[2; 16], &[secret]);
    let reference = one_hop(&session, secret, b"payload");
    let header_start = 6 + 4 * 6; // basic + 4 triples -> locations
    for byte in 0..68 {
        for bit in 0..8 {
            let mut buf = reference.clone();
            buf[header_start + byte] ^= 1 << bit;
            let r = verify(&mut buf, &session);
            assert_ne!(r, Ok(true), "bit {bit} of block byte {byte} not detected");
        }
    }
}

#[test]
fn source_spoofing_is_detected() {
    // An attacker who does not know the source key cannot fabricate a
    // packet that verifies, even with a cooperating (honest) router.
    let secret = [3; 16];
    let session = OptSession::establish([1; 16], &[2; 16], &[secret]);
    let attacker_session = OptSession::establish([1; 16], &[0xEE; 16], &[secret]);
    // Attacker builds with their own guessed source key...
    let mut buf = one_hop(&attacker_session, secret, b"forged");
    // ...and the real destination verifies with the negotiated one.
    assert_eq!(verify(&mut buf, &session), Err(DropReason::AuthenticationFailed));
}

#[test]
fn replay_to_a_different_session_fails() {
    let secret = [3; 16];
    let s1 = OptSession::establish([1; 16], &[2; 16], &[secret]);
    let s2 = OptSession::establish([9; 16], &[2; 16], &[secret]);
    let mut buf = one_hop(&s1, secret, b"replayed");
    assert_eq!(verify(&mut buf, &s2), Err(DropReason::AuthenticationFailed));
}

#[test]
fn wrong_cipher_configuration_fails_closed() {
    use dip::fnops::context::MacChoice;
    let secret = [3; 16];
    let session = OptSession::establish([1; 16], &[2; 16], &[secret]);
    // Router MACs with AES while the session layer (and host) use 2EM:
    // heterogeneous cipher config must fail verification, not silently pass.
    let mut router = DipRouter::new(0, secret);
    router.config_mut().default_port = Some(1);
    router.state_mut().mac_choice = MacChoice::Aes;
    let mut buf = session.packet(b"x", 7, 64).to_bytes(b"x").unwrap();
    router.process(&mut buf, 0, 0);
    assert_eq!(verify(&mut buf, &session), Err(DropReason::AuthenticationFailed));
}

#[test]
fn cache_poisoning_blocked_by_dynamic_policy() {
    let name = Name::parse("/target");
    let combo = DipRepr {
        fns: vec![FnTriple::router(0, 32, FnKey::Fib), FnTriple::router(0, 32, FnKey::Pit)],
        locations: name.compact32().to_be_bytes().to_vec(),
        ..Default::default()
    };

    let mut r = DipRouter::new(1, [7; 16]);
    r.state_mut().enable_content_store(16);
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(9));
    r.state_mut().routes = routes.rebuild();

    // Undefended: poisoned.
    let mut pkt = combo.to_bytes(b"EVIL").unwrap();
    r.process(&mut pkt, 2, 0);
    assert!(r.state().content_store.as_ref().unwrap().peek(&name.compact32()).is_some());

    // Operator flips the policy at runtime and purges.
    r.state_mut().require_pass_for_cache = true;
    r.state_mut().content_store.as_mut().unwrap().clear();
    let mut pkt = combo.to_bytes(b"EVIL AGAIN").unwrap();
    r.process(&mut pkt, 2, 10);
    assert!(r.state().content_store.as_ref().unwrap().peek(&name.compact32()).is_none());
}

#[test]
fn pass_labels_gate_caching_per_source() {
    let name = Name::parse("/n");
    let mut r = DipRouter::new(1, [7; 16]);
    r.state_mut().enable_content_store(16);
    r.state_mut().require_pass_for_cache = true;
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(9));
    r.state_mut().routes = routes.rebuild();
    let as_secret = r.state().as_secret;

    let make_data = |label: [u8; 16]| {
        let mut locations = name.compact32().to_be_bytes().to_vec();
        locations.extend_from_slice(&[0x0A; 16]);
        locations.extend_from_slice(&label);
        DipRepr {
            fns: vec![
                FnTriple::router(32, PASS_FIELD_BITS, FnKey::Pass),
                FnTriple::router(0, 32, FnKey::Pit),
            ],
            locations,
            ..Default::default()
        }
        .to_bytes(b"data")
        .unwrap()
    };

    // Forged label: dropped before the PIT op even runs.
    let mut interest = ndn::interest(&name, 64).to_bytes(&[]).unwrap();
    r.process(&mut interest, 3, 0);
    let mut forged = make_data([0xFF; 16]);
    let (v, _) = r.process(&mut forged, 9, 1);
    assert_eq!(v, Verdict::Drop(DropReason::BadSourceLabel));
    // The PIT entry is still pending (the drop happened first).
    assert!(r.state().pit.contains(&name.compact32(), 2));

    // Valid label: delivered and cached.
    let mut valid = make_data(issue_label(&as_secret, &[0x0A; 16]));
    let (v, _) = r.process(&mut valid, 9, 3);
    assert_eq!(v, Verdict::Forward(Ports::one(3)));
    assert!(r.state().content_store.as_ref().unwrap().peek(&name.compact32()).is_some());
}

#[test]
fn hop_limit_prevents_forwarding_loops() {
    // Two routers pointing at each other: the packet must die, not orbit.
    let name = Name::parse("/loop");
    let mut a = DipRouter::new(1, [1; 16]);
    let mut b = DipRouter::new(2, [2; 16]);
    let mut routes = RouteStore::new();
    routes.insert_v4(dip_wire::ipv4::Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    a.state_mut().routes = routes.rebuild();
    b.state_mut().routes = a.state().routes.clone();
    let _ = name;
    let mut buf = dip::protocols::ip::dip32_packet(
        dip_wire::ipv4::Ipv4Addr::new(10, 0, 0, 1),
        dip_wire::ipv4::Ipv4Addr::new(11, 0, 0, 1),
        8, // small hop limit
    )
    .to_bytes(&[])
    .unwrap();
    let mut hops = 0;
    loop {
        let (v, _) =
            if hops % 2 == 0 { a.process(&mut buf, 0, 0) } else { b.process(&mut buf, 0, 0) };
        match v {
            Verdict::Forward(_) => hops += 1,
            Verdict::Drop(DropReason::HopLimitExceeded) => break,
            other => panic!("unexpected {other:?}"),
        }
        assert!(hops < 100, "loop not terminated");
    }
    assert_eq!(hops, 8);
}

#[test]
fn interest_loop_suppressed_by_nonce() {
    // The same interest bytes visiting the same router twice (a routing
    // loop) are dropped the second time.
    let name = Name::parse("/n");
    let mut r = DipRouter::new(1, [1; 16]);
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(1));
    r.state_mut().routes = routes.rebuild();
    let template = ndn::interest(&name, 64).to_bytes(b"same-request").unwrap();
    let mut first = template.clone();
    assert!(matches!(r.process(&mut first, 0, 0).0, Verdict::Forward(_)));
    let mut second = template.clone();
    assert_eq!(r.process(&mut second, 2, 1).0, Verdict::Drop(DropReason::DuplicateInterest));
}
