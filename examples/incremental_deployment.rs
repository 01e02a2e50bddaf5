//! Incremental deployment (§2.4): bootstrap, capability propagation,
//! heterogeneous ASes, FN-unsupported notifications, tunneling, and
//! border-router backward compatibility — the whole §2.3/§2.4 operations
//! story in one run.
//!
//! Run with: `cargo run --example incremental_deployment`

use dip::core::bootstrap::{CapabilityMap, FnDiscover, FnOffer};
use dip::core::border;
use dip::core::control::ControlMessage;
use dip::core::tunnel;
use dip::prelude::*;
use dip_routes::RouteStore;
use dip_wire::ipv6::{Ipv6Addr, Ipv6Repr};

fn main() {
    println!("=== Incremental deployment of DIP (§2.3–§2.4) ===\n");

    // --- 1. Bootstrap: a host discovers its access AS's FN set. ----------
    println!("1. bootstrap (DHCP-like FN discovery)");
    let full_as = FnRegistry::standard();
    let partial_as = FnRegistry::with_keys(&[FnKey::Match32, FnKey::Match128, FnKey::Source]);
    let discover = FnDiscover { xid: 7 };
    let offer = FnOffer::from_registry(discover.xid, 65001, &partial_as);
    let parsed = FnOffer::decode(&offer.encode()).unwrap();
    println!(
        "   AS 65001 offers: {:?}",
        parsed.fn_keys().iter().map(|k| k.notation()).collect::<Vec<_>>()
    );

    // --- 2. Capability propagation (BGP-communities substitute). ---------
    println!("\n2. capability propagation across a 4-AS path");
    let mut caps = CapabilityMap::new();
    caps.announce_offer(&FnOffer::from_registry(1, 65001, &partial_as));
    caps.announce_offer(&FnOffer::from_registry(1, 65002, &full_as));
    caps.announce_offer(&FnOffer::from_registry(1, 65003, &full_as));
    caps.announce_offer(&FnOffer::from_registry(1, 65004, &full_as));
    let path = [65001u32, 65002, 65003, 65004];
    println!("   end-to-end usable keys: {:?}", caps.end_to_end(&path));
    println!("   OPT possible on path? {}", caps.path_supports(&path, FnKey::Mac));

    // --- 3. A participation FN hits a non-supporting AS. ------------------
    println!("\n3. FN-unsupported notification (ICMP-like)");
    let mut old_router =
        DipRouter::new(65001, [1; 16]).with_registry(FnRegistry::with_keys(&[FnKey::Match32]));
    let session = OptSession::establish([5; 16], &[6; 16], &[[1; 16]]);
    let mut buf = session.packet(b"x", 1, 64).to_bytes(b"x").unwrap();
    let (verdict, _) = old_router.process(&mut buf, 0, 0);
    match verdict {
        Verdict::Notify(ControlMessage::FnUnsupported { key, node_id, fn_index }) => {
            println!(
                "   router {node_id} returned FnUnsupported(key={key} = {}, fn #{fn_index})",
                FnKey::from_wire(key).notation()
            );
        }
        other => panic!("expected a notification, got {other:?}"),
    }

    // --- 4. Tunneling across a DIP-agnostic core. --------------------------
    println!("\n4. DIP-in-IPv6 tunnel across a legacy core");
    let inner = dip::protocols::ip::dip32_packet(
        dip_wire::ipv4::Ipv4Addr::new(10, 2, 0, 9),
        dip_wire::ipv4::Ipv4Addr::new(10, 1, 0, 9),
        64,
    )
    .to_bytes(b"island to island")
    .unwrap();
    let a = Ipv6Addr::new([0x2001, 0xdb8, 0, 1, 0, 0, 0, 1]);
    let b = Ipv6Addr::new([0x2001, 0xdb8, 0, 2, 0, 0, 0, 1]);
    let outer = tunnel::encap(&inner, a, b, 64).unwrap();
    println!(
        "   encap: {}B DIP -> {}B IPv6 (legacy core sees plain IPv6)",
        inner.len(),
        outer.len()
    );
    // A legacy core router forwards on the outer header only:
    let outer_hdr = Ipv6Repr::parse(&outer).unwrap();
    println!("   legacy core routes on outer dst {}", outer_hdr.dst);
    let recovered = tunnel::decap(&outer).unwrap();
    assert_eq!(recovered, inner);
    println!("   decap at the far island: inner packet intact");

    // --- 5. Border router backward compatibility. --------------------------
    println!("\n5. border router: legacy IPv6 traffic through a DIP domain");
    let legacy = Ipv6Repr {
        src: Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 1]),
        dst: Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 2]),
        next_header: 17,
        hop_limit: 60,
        payload_len: 0,
    }
    .to_bytes(b"legacy udp")
    .unwrap();
    let mut dip_form = border::encap_ipv6(&legacy).unwrap();
    println!(
        "   inbound border: +{}B DIP framing, IPv6 header now an FN location",
        dip_form.len() - legacy.len()
    );

    // DIP routers forward it with F_128_match on the embedded header.
    let mut core_router = DipRouter::new(2, [2; 16]);
    let mut routes = RouteStore::new();
    routes.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(3));
    core_router.state_mut().routes = routes.rebuild();
    let (verdict, _) = core_router.process(&mut dip_form, 0, 0);
    println!("   DIP core forwards it: {verdict:?}");
    assert_eq!(verdict, Verdict::Forward(Ports::one(3)));

    let back = border::decap_ipv6(&dip_form).unwrap();
    assert_eq!(back, legacy);
    println!("   outbound border: original IPv6 packet restored byte-for-byte");

    println!("\nDeployment story: partial ASes skip what they can, notify on what they");
    println!("must run, tunnel across what they don't speak, and translate at borders.");
}
