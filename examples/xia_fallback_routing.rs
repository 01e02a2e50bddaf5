//! XIA over DIP: evolvable addressing with fallback.
//!
//! Demonstrates XIA's signature property through the DIP realization: a
//! content packet whose intent is a CID routes *directly* at CID-aware
//! routers, while legacy routers that have never heard of content
//! addressing still deliver it via the AD→HID fallback path — no flag day.
//!
//! Run with: `cargo run --example xia_fallback_routing`

use dip::prelude::*;
use dip::protocols::xia;
use dip_routes::RouteStore;
use dip_tables::XiaNextHop;

fn route(router: &mut DipRouter, buf: &mut [u8]) -> Verdict {
    let (verdict, _) = router.process(buf, 0, 0);
    verdict
}

fn main() {
    println!("=== XIA fallback routing over DIP ===\n");

    let movie = Xid::derive(b"cid:the-matrix");
    let ad = Xid::derive(b"ad:campus");
    let server = Xid::derive(b"hid:media-server");

    // Destination address: intent = the content, fallback via AD -> HID.
    let dag = Dag::direct_with_fallback(DagNode::sink(XidType::Cid, movie), ad, server).unwrap();
    println!("address DAG: src -> CID (intent)");
    println!("             src -> AD -> HID -> CID (fallback)\n");

    // --- Router A: modern, content-aware. --------------------------------
    let mut modern = DipRouter::new(1, [1; 16]);
    let mut routes = RouteStore::new();
    routes.insert_xia(XidType::Cid, movie, XiaNextHop::Port(7));
    routes.insert_xia(XidType::Ad, ad, XiaNextHop::Port(1));
    modern.state_mut().routes = routes.rebuild();
    let mut buf = xia::packet(&dag, 64).to_bytes(b"bits").unwrap();
    let v = route(&mut modern, &mut buf);
    println!("content-aware router : {v:?}   (routed on the CID intent directly)");
    assert_eq!(v, Verdict::Forward(Ports::one(7)));

    // --- Router B: legacy, only understands ADs. --------------------------
    let mut legacy = DipRouter::new(2, [2; 16]);
    let mut routes = RouteStore::new();
    routes.insert_xia(XidType::Ad, ad, XiaNextHop::Port(2));
    legacy.state_mut().routes = routes.rebuild();
    let mut buf = xia::packet(&dag, 64).to_bytes(b"bits").unwrap();
    let v = route(&mut legacy, &mut buf);
    println!("legacy (AD-only)     : {v:?}   (CID unknown -> AD fallback)");
    assert_eq!(v, Verdict::Forward(Ports::one(2)));

    // --- The AD's border router: advances the DAG and hands to the HID. ---
    let mut border = DipRouter::new(3, [3; 16]);
    let mut routes = RouteStore::new();
    routes.insert_xia(XidType::Ad, ad, XiaNextHop::Local);
    routes.insert_xia(XidType::Hid, server, XiaNextHop::Port(4));
    border.state_mut().routes = routes.rebuild();
    let mut buf = xia::packet(&dag, 64).to_bytes(b"bits").unwrap();
    let v = route(&mut border, &mut buf);
    let updated = xia::parse_dag(DipPacket::new_checked(&buf[..]).unwrap().locations()).unwrap();
    println!(
        "AD border router     : {v:?}   (last_visited advanced to node {} in the packet)",
        updated.last_visited
    );
    assert_eq!(v, Verdict::Forward(Ports::one(4)));
    assert_eq!(updated.last_visited, 1);

    // --- The media server: owns the HID and the content. ------------------
    let mut host = DipRouter::new(4, [4; 16]);
    let mut routes = RouteStore::new();
    routes.insert_xia(XidType::Hid, server, XiaNextHop::Local);
    routes.insert_xia(XidType::Cid, movie, XiaNextHop::Local);
    host.state_mut().routes = routes.rebuild();
    let v = route(&mut host, &mut buf); // continue with the updated packet
    println!("media server         : {v:?}    (walked HID -> CID locally)");
    assert_eq!(v, Verdict::Deliver);

    println!(
        "\nSame packet, same two FNs (F_DAG, F_intent) — four routers with four\n\
         different capability levels all moved it toward the intent."
    );
}
