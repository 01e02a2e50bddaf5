//! Quickstart: one router, all five paper protocols, ten minutes.
//!
//! Builds each of §3's protocol realizations, pushes a packet of each
//! through a single DIP router, and prints what the FN chain did — the
//! fastest way to see the decompose/compose story end to end.
//!
//! Run with: `cargo run --example quickstart`

use dip::prelude::*;
use dip::protocols::{ip, ndn, ndn_opt, opt::OptSession, xia};
use dip_routes::RouteStore;
use dip_tables::XiaNextHop;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;

fn show(label: &str, repr: &DipRepr, verdict: &Verdict, fns: u32) {
    let triples: Vec<String> = repr
        .fns
        .iter()
        .map(|t| {
            format!(
                "{}(loc:{},len:{}{})",
                t.key.notation(),
                t.field_loc,
                t.field_len,
                if t.host { ",host" } else { "" }
            )
        })
        .collect();
    println!("{label}");
    println!("  header {:>3} bytes | FNs: {}", repr.header_len(), triples.join(" "));
    println!("  router executed {fns} FN(s) -> {verdict:?}");
    println!();
}

fn main() {
    // --- One DIP-capable router with state for every protocol. ----------
    let router_secret = [0x42u8; 16];
    let mut router = DipRouter::new(1, router_secret);
    let name = Name::parse("hotnets.org");
    let mut routes = RouteStore::new();
    routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    routes.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(2));
    routes.insert_name(&name, NextHop::port(3));
    routes.insert_xia(XidType::Cid, Xid::derive(b"a-movie"), XiaNextHop::Port(4));
    router.state_mut().routes = routes.rebuild();
    router.config_mut().default_port = Some(5); // for chains with no addressing FN

    println!("=== DIP quickstart: five L3 protocols through one router ===\n");

    // --- 1. IPv4 over DIP (DIP-32). --------------------------------------
    let repr = ip::dip32_packet(Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(192, 168, 0, 1), 64);
    let mut buf = repr.to_bytes(b"ipv4 payload").unwrap();
    let (verdict, stats) = router.process(&mut buf, 0, 0);
    show("1. IP forwarding (DIP-32)", &repr, &verdict, stats.fns_executed);

    // --- 2. IPv6 over DIP (DIP-128). --------------------------------------
    let repr = ip::dip128_packet(
        Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 9]),
        Ipv6Addr::new([0xfd00, 0, 0, 0, 0, 0, 0, 1]),
        64,
    );
    let mut buf = repr.to_bytes(b"ipv6 payload").unwrap();
    let (verdict, stats) = router.process(&mut buf, 0, 1);
    show("2. IP forwarding (DIP-128)", &repr, &verdict, stats.fns_executed);

    // --- 3. NDN: interest out, data back. ---------------------------------
    let repr = ndn::interest(&name, 64);
    let mut buf = repr.to_bytes(&[]).unwrap();
    let (verdict, stats) = router.process(&mut buf, /*consumer port*/ 7, 2);
    show("3a. NDN interest", &repr, &verdict, stats.fns_executed);

    let repr = ndn::data(&name, 64);
    let mut buf = repr.to_bytes(b"the content").unwrap();
    let (verdict, stats) = router.process(&mut buf, /*producer port*/ 3, 3);
    show("3b. NDN data (follows the PIT back)", &repr, &verdict, stats.fns_executed);

    // --- 4. OPT: source authentication + path validation. -----------------
    let session = OptSession::establish([0xA5; 16], &[7; 16], &[router_secret]);
    let payload = b"authenticated payload";
    let repr = session.packet(payload, 1, 64);
    let mut buf = repr.to_bytes(payload).unwrap();
    let (verdict, stats) = router.process(&mut buf, 0, 4);
    show("4. OPT", &repr, &verdict, stats.fns_executed);

    // The destination host verifies source and path.
    let mut host_state = RouterState::new(99, [0; 16]);
    let delivery =
        deliver(&mut buf, &session.host_context(), &mut host_state, &FnRegistry::standard(), 5)
            .expect("verification");
    println!("   destination F_ver: verified = {}\n", delivery.verified);

    // --- 5. XIA: DAG with fallback. ---------------------------------------
    let dag = Dag::direct_with_fallback(
        DagNode::sink(XidType::Cid, Xid::derive(b"a-movie")),
        Xid::derive(b"ad-east"),
        Xid::derive(b"server-9"),
    )
    .unwrap();
    let repr = xia::packet(&dag, 64);
    let mut buf = repr.to_bytes(b"xia payload").unwrap();
    let (verdict, stats) = router.process(&mut buf, 0, 6);
    show("5. XIA (DAG + intent)", &repr, &verdict, stats.fns_executed);

    // --- 6. The derived protocol: NDN+OPT. --------------------------------
    let mut interest = ndn_opt::interest(&name, 64).to_bytes(&[]).unwrap();
    let _ = router.process(&mut interest, 7, 7); // re-arm the PIT
    let repr = ndn_opt::data(&session, &name, payload, 2, 64);
    let mut buf = repr.to_bytes(payload).unwrap();
    let (verdict, stats) = router.process(&mut buf, 3, 8);
    show("6. NDN+OPT (derived: secure content delivery)", &repr, &verdict, stats.fns_executed);
    let delivery =
        deliver(&mut buf, &session.host_context(), &mut host_state, &FnRegistry::standard(), 9)
            .expect("verification");
    println!("   consumer F_ver on the content: verified = {}", delivery.verified);

    println!("\nSame router, same twelve operation modules — five different network layers.");
}
