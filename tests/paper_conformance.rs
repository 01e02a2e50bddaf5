//! Paper conformance suite: every concrete number and behaviour the paper
//! states, asserted verbatim against this implementation.
//!
//! Each test cites the paper section it checks. If the implementation
//! drifts from the paper, this file is what fails.

use dip::prelude::*;
use dip::protocols::{header_sizes, ip, ndn, ndn_opt, opt::opt_triples, opt::OptSession};
use dip_routes::RouteStore;

/// Table 1: "Field operations in the DIP prototype" — notation, key.
#[test]
fn table1_operations_and_keys() {
    let expected: [(&str, &str, u16); 11] = [
        ("32-bit address match", "F_32_match", 1),
        ("128-bit address match", "F_128_match", 2),
        ("source address", "F_source", 3),
        ("forwarding information base match", "F_FIB", 4),
        ("pending interest table match", "F_PIT", 5),
        ("load parameters", "F_parm", 6),
        ("calculate MAC", "F_MAC", 7),
        ("mark update", "F_mark", 8),
        ("destination verification", "F_ver", 9),
        ("parse the directed acyclic graph", "F_DAG", 10),
        ("handle intent", "F_intent", 11),
    ];
    for (description, notation, key) in expected {
        let k = FnKey::from_wire(key);
        assert_eq!(k.description(), description, "key {key}");
        assert_eq!(k.notation(), notation, "key {key}");
        assert_eq!(k.to_wire(), key);
        // And the standard registry actually implements it.
        assert!(FnRegistry::standard().supports(k), "key {key} not installed");
    }
}

/// Table 2: "The packet header size overhead" — all seven rows.
#[test]
fn table2_header_sizes() {
    let session = OptSession::establish([1; 16], &[2; 16], &[[3; 16]]);
    let name = Name::parse("hotnets.org");
    assert_eq!(dip::wire::ipv6::IPV6_HEADER_LEN, 40, "IPv6 forwarding");
    assert_eq!(dip::wire::ipv4::IPV4_HEADER_LEN, 20, "IPv4 forwarding");
    assert_eq!(
        ip::dip128_packet(
            dip::wire::ipv6::Ipv6Addr::new([1, 0, 0, 0, 0, 0, 0, 2]),
            dip::wire::ipv6::Ipv6Addr::new([3, 0, 0, 0, 0, 0, 0, 4]),
            64
        )
        .header_len(),
        50,
        "DIP-128 forwarding"
    );
    assert_eq!(
        ip::dip32_packet(
            dip::wire::ipv4::Ipv4Addr::new(1, 2, 3, 4),
            dip::wire::ipv4::Ipv4Addr::new(5, 6, 7, 8),
            64
        )
        .header_len(),
        26,
        "DIP-32 forwarding"
    );
    assert_eq!(ndn::interest(&name, 64).header_len(), 16, "NDN forwarding");
    assert_eq!(session.packet(b"x", 1, 64).header_len(), 98, "OPT forwarding");
    assert_eq!(ndn_opt::data(&session, &name, b"x", 1, 64).header_len(), 108, "NDN+OPT forwarding");
    // The library constants agree.
    assert_eq!(header_sizes::IPV6, 40);
    assert_eq!(header_sizes::IPV4, 20);
    assert_eq!(header_sizes::DIP_128, 50);
    assert_eq!(header_sizes::DIP_32, 26);
    assert_eq!(header_sizes::NDN, 16);
    assert_eq!(header_sizes::OPT, 98);
    assert_eq!(header_sizes::NDN_OPT, 108);
}

/// §2.2: "The basic DIP header occupies 6 bytes" (Table 2 paragraph) and
/// "we can use the FN number and the FN locations length to derive the DIP
/// header length."
#[test]
fn basic_header_is_six_bytes_and_length_is_derivable() {
    assert_eq!(dip::wire::BASIC_HEADER_LEN, 6);
    let repr = DipRepr {
        fns: vec![FnTriple::router(0, 32, FnKey::Fib); 3],
        locations: vec![0u8; 20],
        ..Default::default()
    };
    let bytes = repr.to_bytes(&[]).unwrap();
    let hdr = dip::wire::BasicHeader::parse(&bytes).unwrap();
    assert_eq!(hdr.header_len(), 6 + 3 * 6 + 20);
    assert_eq!(hdr.header_len(), bytes.len());
}

/// §2.2: "The highest bit of the operation key field is a tag bit to
/// indicate whether the operation should be performed by the router or the
/// host."
#[test]
fn operation_key_tag_bit_is_the_msb() {
    let mut buf = [0u8; 6];
    FnTriple::host(0, 544, FnKey::Ver).emit(&mut buf).unwrap();
    assert_eq!(buf[4] & 0x80, 0x80);
    FnTriple::router(0, 544, FnKey::Ver).emit(&mut buf).unwrap();
    assert_eq!(buf[4] & 0x80, 0x00);
}

/// §2.2: "The lowest bit [of the packet parameter] indicates whether the
/// operation modules can be executed in parallel ... The higher ten bits
/// represent the length of FN locations."
#[test]
fn packet_parameter_bit_layout() {
    use dip::wire::PacketParameter;
    let p = PacketParameter { parallel: true, fn_loc_len: 0, reserved: 0 };
    assert_eq!(p.to_wire().unwrap(), 0b1);
    let p = PacketParameter { parallel: false, fn_loc_len: 1, reserved: 0 };
    assert_eq!(p.to_wire().unwrap(), 0b10);
    // Ten bits: max 1023.
    assert!(PacketParameter { parallel: false, fn_loc_len: 1023, reserved: 0 }.to_wire().is_ok());
    assert!(PacketParameter { parallel: false, fn_loc_len: 1024, reserved: 0 }.to_wire().is_err());
}

/// §3, IP forwarding: "the FN triples used in our prototype are
/// (loc: 0, len: 128/32, match) and (loc: 128/32, len: 128/32, source)"
/// with the destination in the lower bits and source in the upper bits.
#[test]
fn section3_ip_triples() {
    let v4 = ip::dip32_packet(
        dip::wire::ipv4::Ipv4Addr::new(1, 2, 3, 4),
        dip::wire::ipv4::Ipv4Addr::new(5, 6, 7, 8),
        64,
    );
    assert_eq!(v4.fns[0], FnTriple::router(0, 32, FnKey::Match32));
    assert_eq!(v4.fns[1], FnTriple::router(32, 32, FnKey::Source));
    assert_eq!(&v4.locations[..4], &[1, 2, 3, 4], "dst in the lower 32 bits");
    assert_eq!(&v4.locations[4..], &[5, 6, 7, 8], "src in the upper 32 bits");

    let v6 = ip::dip128_packet(
        dip::wire::ipv6::Ipv6Addr::new([1, 0, 0, 0, 0, 0, 0, 0]),
        dip::wire::ipv6::Ipv6Addr::new([2, 0, 0, 0, 0, 0, 0, 0]),
        64,
    );
    assert_eq!(v6.fns[0], FnTriple::router(0, 128, FnKey::Match128));
    assert_eq!(v6.fns[1], FnTriple::router(128, 128, FnKey::Source));
}

/// §3, NDN: "use the following two FN triples (loc: 0, len: 32, key: 4)
/// and (loc: 0, len: 32, key: 5) to explicitly customize NDN packet
/// processing and set the content name in the FN locations."
#[test]
fn section3_ndn_triples() {
    let name = Name::parse("hotnets.org");
    let interest = ndn::interest(&name, 64);
    assert_eq!(interest.fns, vec![FnTriple::router(0, 32, FnKey::Fib)]);
    assert_eq!(interest.locations, name.compact32().to_be_bytes().to_vec());
    let data = ndn::data(&name, 64);
    assert_eq!(data.fns, vec![FnTriple::router(0, 32, FnKey::Pit)]);
}

/// §3, OPT: "we use the triple (loc: 128, len: 128, key: 6) ... the FN
/// triples (loc: 0, len: 416, key: 7) and (loc: 288, len: 128, key: 8) ...
/// the triple (loc: 0, len: 544, key: 9)".
#[test]
fn section3_opt_triples() {
    let fns = opt_triples(0);
    assert_eq!(fns[0], FnTriple::router(128, 128, FnKey::Parm));
    assert_eq!(fns[0].key.to_wire(), 6);
    assert_eq!(fns[1], FnTriple::router(0, 416, FnKey::Mac));
    assert_eq!(fns[1].key.to_wire(), 7);
    assert_eq!(fns[2], FnTriple::router(288, 128, FnKey::Mark));
    assert_eq!(fns[2].key.to_wire(), 8);
    assert_eq!(fns[3], FnTriple::host(0, 544, FnKey::Ver));
    assert_eq!(fns[3].key.to_wire(), 9);
    assert!(fns[3].host, "F_ver instructs the *destination host* to verify");
}

/// §3, NDN+OPT: "we compose the following FN modules (F_FIB, F_PIT,
/// F_parm, F_MAC, F_mark and F_ver)". Interest carries F_FIB; the data
/// packet carries the other five.
#[test]
fn section3_ndn_opt_composition() {
    let session = OptSession::establish([1; 16], &[2; 16], &[[3; 16]]);
    let name = Name::parse("hotnets.org");
    let interest_keys: Vec<FnKey> =
        ndn_opt::interest(&name, 64).fns.iter().map(|t| t.key).collect();
    assert_eq!(interest_keys, vec![FnKey::Fib]);
    let data_keys: Vec<FnKey> =
        ndn_opt::data(&session, &name, b"x", 1, 64).fns.iter().map(|t| t.key).collect();
    assert_eq!(data_keys, vec![FnKey::Pit, FnKey::Parm, FnKey::Mac, FnKey::Mark, FnKey::Ver]);
    let all: std::collections::BTreeSet<u16> =
        interest_keys.iter().chain(&data_keys).map(|k| k.to_wire()).collect();
    assert_eq!(all, std::collections::BTreeSet::from([4, 5, 6, 7, 8, 9]));
}

/// Algorithm 1 line 5: "if FN[i].tag == 1 then continue" — routers skip
/// host operations.
#[test]
fn algorithm1_skips_host_tagged_fns() {
    let mut router = DipRouter::new(1, [1; 16]);
    router.config_mut().default_port = Some(1);
    let repr = DipRepr {
        fns: vec![FnTriple::host(0, 32, FnKey::Fib)], // host-tagged FIB: skipped
        locations: vec![0u8; 4],
        ..Default::default()
    };
    let mut buf = repr.to_bytes(&[]).unwrap();
    let (verdict, stats) = router.process(&mut buf, 0, 0);
    assert_eq!(verdict, Verdict::Forward(Ports::one(1)));
    assert_eq!(stats.fns_executed, 0);
    assert_eq!(stats.skipped_host, 1);
    // The PIT/FIB state is untouched: the op really did not run.
    assert!(router.state().pit.is_empty());
}

/// §3 NDN data-packet rule: "forwards it to the recorded request port
/// (match hit) or discards the packet (match miss)".
#[test]
fn ndn_data_hit_and_miss_behaviour() {
    let name = Name::parse("/n");
    let mut r = DipRouter::new(1, [1; 16]);
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(9));
    r.state_mut().routes = routes.rebuild();
    // Miss first.
    let mut miss = ndn::data(&name, 64).to_bytes(b"d").unwrap();
    assert_eq!(r.process(&mut miss, 9, 0).0, Verdict::Drop(DropReason::PitMiss));
    // Then a hit after an interest recorded port 5.
    let mut interest = ndn::interest(&name, 64).to_bytes(&[]).unwrap();
    r.process(&mut interest, 5, 1);
    let mut hit = ndn::data(&name, 64).to_bytes(b"d").unwrap();
    assert_eq!(r.process(&mut hit, 9, 2).0, Verdict::Forward(Ports::one(5)));
}

/// §2.4: "the router should return an FN unsupported message to notify the
/// source through a mechanism similar to ICMP" for participation FNs, and
/// "Otherwise, the router can simply ignore this FN."
#[test]
fn section24_unsupported_fn_policy() {
    let mut limited =
        DipRouter::new(9, [1; 16]).with_registry(FnRegistry::with_keys(&[FnKey::Match32]));
    limited.config_mut().default_port = Some(1);

    // Participation-required (OPT chain member): notify.
    let opt_pkt = DipRepr {
        fns: vec![FnTriple::router(128, 128, FnKey::Parm)],
        locations: vec![0u8; 68],
        ..Default::default()
    };
    let mut buf = opt_pkt.to_bytes(&[]).unwrap();
    assert!(matches!(limited.process(&mut buf, 0, 0).0, Verdict::Notify(_)));

    // Optional unknown FN: ignored.
    let custom_pkt = DipRepr {
        fns: vec![FnTriple::router(0, 8, FnKey::Other(0x7000))],
        locations: vec![0u8; 1],
        ..Default::default()
    };
    let mut buf = custom_pkt.to_bytes(&[]).unwrap();
    let (verdict, stats) = limited.process(&mut buf, 0, 0);
    assert_eq!(verdict, Verdict::Forward(Ports::one(1)));
    assert_eq!(stats.skipped_unsupported, 1);
}

/// §1/§3: the five protocols the paper demonstrates all run through one
/// router with the standard twelve-module registry — the unification claim
/// itself.
#[test]
fn five_protocols_one_registry() {
    use dip::tables::XiaNextHop;
    let secret = [0x42u8; 16];
    let mut router = DipRouter::new(1, secret);
    router.config_mut().default_port = Some(7);
    let name = Name::parse("hotnets.org");
    let st = router.state_mut();
    let mut routes = RouteStore::new();
    routes.insert_v4(dip::wire::ipv4::Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    routes.insert_v6(
        dip::wire::ipv6::Ipv6Addr::new([0xfd00, 0, 0, 0, 0, 0, 0, 0]),
        8,
        NextHop::port(2),
    );
    routes.insert_name(&name, NextHop::port(3));
    routes.insert_xia(XidType::Cid, Xid::derive(b"c"), XiaNextHop::Port(4));
    st.routes = routes.rebuild();

    let session = OptSession::establish([9; 16], &[8; 16], &[secret]);
    let dag = Dag::direct_with_fallback(
        DagNode::sink(XidType::Cid, Xid::derive(b"c")),
        Xid::derive(b"ad"),
        Xid::derive(b"h"),
    )
    .unwrap();

    let packets: Vec<(&str, Vec<u8>, Verdict)> = vec![
        (
            "IPv4/DIP-32",
            ip::dip32_packet(
                dip::wire::ipv4::Ipv4Addr::new(10, 1, 1, 1),
                dip::wire::ipv4::Ipv4Addr::new(1, 1, 1, 1),
                64,
            )
            .to_bytes(&[])
            .unwrap(),
            Verdict::Forward(Ports::one(1)),
        ),
        (
            "IPv6/DIP-128",
            ip::dip128_packet(
                dip::wire::ipv6::Ipv6Addr::new([0xfd00, 0, 0, 0, 0, 0, 0, 1]),
                dip::wire::ipv6::Ipv6Addr::new([0xfe80, 0, 0, 0, 0, 0, 0, 1]),
                64,
            )
            .to_bytes(&[])
            .unwrap(),
            Verdict::Forward(Ports::one(2)),
        ),
        ("NDN", ndn::interest(&name, 64).to_bytes(&[]).unwrap(), Verdict::Forward(Ports::one(3))),
        (
            "OPT",
            session.packet(b"x", 1, 64).to_bytes(b"x").unwrap(),
            Verdict::Forward(Ports::one(7)),
        ),
        (
            "XIA",
            dip::protocols::xia::packet(&dag, 64).to_bytes(&[]).unwrap(),
            Verdict::Forward(Ports::one(4)),
        ),
    ];
    for (label, mut buf, expected) in packets {
        let (verdict, _) = router.process(&mut buf, 0, 0);
        assert_eq!(verdict, expected, "{label}");
    }
}
