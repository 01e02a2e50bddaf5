//! Cross-crate integration: every §3 protocol realization pushed through
//! multi-hop router chains via the facade crate.

use dip::prelude::*;
use dip::protocols::{ip, ndn, ndn_opt, xia};
use dip_routes::RouteStore;
use dip_tables::XiaNextHop;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;

fn chain_of(n: usize) -> Vec<DipRouter> {
    (0..n).map(|i| DipRouter::new(i as u64, [i as u8 + 1; 16])).collect()
}

#[test]
fn dip32_across_five_hops() {
    let mut routers = chain_of(5);
    let mut routes = RouteStore::new();
    routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    let tables = routes.rebuild();
    for r in routers.iter_mut() {
        r.state_mut().routes = tables.clone();
    }
    let mut buf = ip::dip32_packet(Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(172, 16, 0, 1), 64)
        .to_bytes(b"p")
        .unwrap();
    for r in routers.iter_mut() {
        let (v, _) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(1)));
    }
    // Five hop-limit decrements visible on the wire.
    assert_eq!(DipPacket::new_checked(&buf[..]).unwrap().hop_limit(), 59);
}

#[test]
fn dip128_and_source_recording() {
    let mut r = DipRouter::new(0, [1; 16]);
    let mut routes = RouteStore::new();
    routes.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(4));
    r.state_mut().routes = routes.rebuild();
    let repr = ip::dip128_packet(
        Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 2]),
        Ipv6Addr::new([0xfdbb, 0, 0, 0, 0, 0, 0, 1]),
        64,
    );
    assert_eq!(repr.header_len(), 50);
    let mut buf = repr.to_bytes(&[]).unwrap();
    let (v, stats) = r.process(&mut buf, 0, 0);
    assert_eq!(v, Verdict::Forward(Ports::one(4)));
    assert_eq!(stats.fns_executed, 2);
}

#[test]
fn ndn_interest_data_across_three_hops() {
    let name = Name::parse("/conf/hotnets/dip");
    let mut routers = chain_of(3);
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(1));
    let tables = routes.rebuild();
    for r in routers.iter_mut() {
        r.state_mut().routes = tables.clone();
    }
    // Interest travels consumer -> producer, arriving on port 0 everywhere.
    let mut ibuf = ndn::interest(&name, 64).to_bytes(&[]).unwrap();
    for r in routers.iter_mut() {
        let (v, _) = r.process(&mut ibuf, 0, 100);
        assert_eq!(v, Verdict::Forward(Ports::one(1)));
    }
    // Data travels back, arriving on port 1, following PIT state.
    let mut dbuf = ndn::data(&name, 64).to_bytes(b"content").unwrap();
    for r in routers.iter_mut().rev() {
        let (v, _) = r.process(&mut dbuf, 1, 200);
        assert_eq!(v, Verdict::Forward(Ports::one(0)));
    }
    // All PIT entries consumed.
    for r in &routers {
        assert!(!r.state().pit.contains(&name.compact32(), 201));
    }
}

#[test]
fn opt_three_hop_chain_verifies_and_binds_path_order() {
    let secrets: Vec<[u8; 16]> = vec![[10; 16], [20; 16], [30; 16]];
    let session = OptSession::establish([0x77; 16], &[5; 16], &secrets);
    let mut routers: Vec<DipRouter> = secrets
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut r = DipRouter::new(i as u64, *s);
            r.config_mut().default_port = Some(1);
            r
        })
        .collect();

    let payload = b"authenticated".to_vec();
    let mut buf = session.packet(&payload, 42, 64).to_bytes(&payload).unwrap();
    for r in routers.iter_mut() {
        let (v, _) = r.process(&mut buf, 0, 0);
        assert!(matches!(v, Verdict::Forward(_)));
    }
    let mut host_state = RouterState::new(99, [0; 16]);
    let d = deliver(&mut buf, &session.host_context(), &mut host_state, &FnRegistry::standard(), 0)
        .unwrap();
    assert!(d.verified);

    // The same packet traversing the routers in the wrong order fails.
    let mut buf2 = session.packet(&payload, 42, 64).to_bytes(&payload).unwrap();
    for r in routers.iter_mut().rev() {
        r.process(&mut buf2, 0, 0);
    }
    assert_eq!(
        deliver(&mut buf2, &session.host_context(), &mut host_state, &FnRegistry::standard(), 0),
        Err(DropReason::AuthenticationFailed)
    );
}

#[test]
fn ndn_opt_composition_runs_both_protocol_halves() {
    let name = Name::parse("hotnets.org");
    let session = OptSession::establish([0xAB; 16], &[5; 16], &[[10; 16]]);
    let mut router = DipRouter::new(0, [10; 16]);
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(8));
    router.state_mut().routes = routes.rebuild();

    let mut ibuf = ndn_opt::interest(&name, 64).to_bytes(&[]).unwrap();
    let (v, _) = router.process(&mut ibuf, 3, 0);
    assert_eq!(v, Verdict::Forward(Ports::one(8)));

    let payload = b"secure content".to_vec();
    let mut dbuf = ndn_opt::data(&session, &name, &payload, 1, 64).to_bytes(&payload).unwrap();
    let (v, stats) = router.process(&mut dbuf, 8, 10);
    assert_eq!(v, Verdict::Forward(Ports::one(3)));
    // NDN half: PIT consumed. OPT half: 3 auth FNs ran, ver skipped.
    assert_eq!(stats.fns_executed, 4);
    assert_eq!(stats.skipped_host, 1);

    let mut host_state = RouterState::new(99, [0; 16]);
    let d =
        deliver(&mut dbuf, &session.host_context(), &mut host_state, &FnRegistry::standard(), 20)
            .unwrap();
    assert!(d.verified);
}

#[test]
fn xia_multi_domain_walk() {
    let movie = Xid::derive(b"movie");
    let ad1 = Xid::derive(b"ad1");
    let hid = Xid::derive(b"hid");
    let dag = Dag::direct_with_fallback(DagNode::sink(XidType::Cid, movie), ad1, hid).unwrap();

    // Hop 1 only knows the AD; hop 2 is the AD; hop 3 owns everything.
    let mut r1 = DipRouter::new(1, [1; 16]);
    let mut routes = RouteStore::new();
    routes.insert_xia(XidType::Ad, ad1, XiaNextHop::Port(1));
    r1.state_mut().routes = routes.rebuild();
    let mut r2 = DipRouter::new(2, [2; 16]);
    let mut routes = RouteStore::new();
    routes.insert_xia(XidType::Ad, ad1, XiaNextHop::Local);
    routes.insert_xia(XidType::Hid, hid, XiaNextHop::Port(2));
    r2.state_mut().routes = routes.rebuild();
    let mut r3 = DipRouter::new(3, [3; 16]);
    let mut routes = RouteStore::new();
    routes.insert_xia(XidType::Hid, hid, XiaNextHop::Local);
    routes.insert_xia(XidType::Cid, movie, XiaNextHop::Local);
    r3.state_mut().routes = routes.rebuild();

    let mut buf = xia::packet(&dag, 64).to_bytes(b"stream").unwrap();
    let (v, _) = r1.process(&mut buf, 0, 0);
    assert_eq!(v, Verdict::Forward(Ports::one(1)));
    let (v, _) = r2.process(&mut buf, 0, 0);
    assert_eq!(v, Verdict::Forward(Ports::one(2)));
    let (v, _) = r3.process(&mut buf, 0, 0);
    assert_eq!(v, Verdict::Deliver);
}

#[test]
fn mixed_traffic_one_router() {
    // A single router handling all five protocols interleaved — the
    // narrow-waist unification claim.
    let name = Name::parse("/n");
    let session = OptSession::establish([1; 16], &[2; 16], &[[9; 16]]);
    let mut r = DipRouter::new(0, [9; 16]);
    r.config_mut().default_port = Some(5);
    let mut routes = RouteStore::new();
    routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    routes.insert_v6(Ipv6Addr::new([1, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(2));
    routes.insert_name(&name, NextHop::port(3));
    routes.insert_xia(XidType::Cid, Xid::derive(b"c"), XiaNextHop::Port(4));
    r.state_mut().routes = routes.rebuild();

    for round in 0..50u64 {
        let mut a =
            ip::dip32_packet(Ipv4Addr::new(10, 0, 0, round as u8), Ipv4Addr::new(1, 1, 1, 1), 64)
                .to_bytes(&round.to_be_bytes())
                .unwrap();
        assert_eq!(r.process(&mut a, 0, round).0, Verdict::Forward(Ports::one(1)));

        let mut b = ndn::interest(&name, 64).to_bytes(&round.to_be_bytes()).unwrap();
        let v = r.process(&mut b, 7, round).0;
        assert!(matches!(v, Verdict::Forward(_) | Verdict::Consumed), "round {round}: {v:?}");

        let mut c = session
            .packet(&round.to_be_bytes(), round as u32, 64)
            .to_bytes(&round.to_be_bytes())
            .unwrap();
        assert_eq!(r.process(&mut c, 0, round).0, Verdict::Forward(Ports::one(5)));

        let dag = Dag::direct_with_fallback(
            DagNode::sink(XidType::Cid, Xid::derive(b"c")),
            Xid::derive(b"a"),
            Xid::derive(b"h"),
        )
        .unwrap();
        let mut d = xia::packet(&dag, 64).to_bytes(&[]).unwrap();
        assert_eq!(r.process(&mut d, 0, round).0, Verdict::Forward(Ports::one(4)));
    }
}
