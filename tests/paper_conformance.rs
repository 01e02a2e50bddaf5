//! Paper conformance suite: every concrete number and behaviour the paper
//! states, asserted verbatim against this implementation.
//!
//! Each test cites the paper section it checks. If the implementation
//! drifts from the paper, this file is what fails. The `e*` tests are the
//! experiments of EXPERIMENTS.md, E1–E11, one assertion per deterministic
//! claim; `cargo test --test paper_conformance -- --nocapture` prints
//! E1's PISA table and E7's deployment table.

use dip::core::ProcessStats;
use dip::fnops::context::MacChoice;
use dip::prelude::*;
use dip::protocols::{header_sizes, ip, ndn, ndn_opt, opt::opt_triples, opt::OptSession};
use dip::sim::TofinoModel;
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
    assert_eq!(ndn::interest(&name, 64).header_len(), 16, "NDN forwarding (interest)");
    assert_eq!(ndn::data(&name, 64).header_len(), 16, "NDN forwarding (data)");
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

// ---------------------------------------------------------------------
// The evaluation (§4.2) and the §2.4 mechanism experiments, E1–E11 of
// EXPERIMENTS.md. Fig. 2 is a Tofino measurement; this repo prices the
// same pipelines with the deterministic `TofinoModel`, so every number
// below is a fixed value. Software speed is measured by `benchmark/`.

/// Fig. 2's packet sizes.
const FIG2_SIZES: [usize; 3] = [128, 768, 1500];

/// Fig. 2's series, baselines first.
const FIG2_SERIES: [&str; 7] =
    ["IPv4 (native)", "IPv6 (native)", "DIP-32", "DIP-128", "NDN", "OPT", "NDN+OPT"];

/// The pipeline stats of one Fig. 2 packet of `series` at `size` wire
/// bytes, run through a router holding the routes the packets need. The
/// native baselines are one destination lookup, no DIP machinery, priced
/// as the model prices a match of that width: IPv6's 128-bit key takes
/// two 64-bit slices, so one stage more than IPv4's.
fn fig2_stats(series: &str, size: usize, mac: MacChoice) -> ProcessStats {
    const SECRET: [u8; 16] = [0x42; 16];
    if series.ends_with("(native)") {
        let (key, bits) =
            if series.starts_with("IPv6") { (FnKey::Match128, 128) } else { (FnKey::Match32, 32) };
        return ProcessStats {
            fns_executed: 1,
            plan_depth: 1,
            cost: FnRegistry::standard().get(key).expect("a standard op").cost(bits),
            ..Default::default()
        };
    }
    let name = Name::parse("hotnets.org");
    let dst4 = dip::wire::ipv4::Ipv4Addr::new(10, 1, 2, 3);
    let src4 = dip::wire::ipv4::Ipv4Addr::new(192, 168, 0, 1);
    let dst6 = dip::wire::ipv6::Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 9]);
    let src6 = dip::wire::ipv6::Ipv6Addr::new([0xfd00, 0, 0, 0, 0, 0, 0, 1]);
    let session = OptSession::establish([0x5a; 16], &[7; 16], &[SECRET]);
    let mut routes = RouteStore::new();
    routes.insert_v4(dip::wire::ipv4::Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    routes.insert_v6(
        dip::wire::ipv6::Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]),
        16,
        NextHop::port(1),
    );
    routes.insert_name(&name, NextHop::port(1));
    let mut router = DipRouter::new(1, SECRET);
    router.config_mut().default_port = Some(1);
    router.state_mut().routes = routes.rebuild();
    router.state_mut().mac_choice = mac;
    let mut pkt = match series {
        "DIP-32" => ip::dip32_packet(dst4, src4, 64).to_bytes_padded(size).unwrap(),
        "DIP-128" => ip::dip128_packet(dst6, src6, 64).to_bytes_padded(size).unwrap(),
        "NDN" => ndn::interest(&name, 64).to_bytes_padded(size).unwrap(),
        "OPT" => {
            let payload = vec![0u8; size - header_sizes::OPT];
            session.packet(&payload, 0, 64).to_bytes(&payload).unwrap()
        }
        "NDN+OPT" => {
            // A data packet consumes the interest it answers.
            let _ = router.state_mut().pit.record_interest(name.compact32(), 7, 1, 0);
            let payload = vec![0u8; size - header_sizes::NDN_OPT];
            ndn_opt::data(&session, &name, &payload, 0, 64).to_bytes(&payload).unwrap()
        }
        other => panic!("no Fig. 2 series {other}"),
    };
    assert_eq!(pkt.len(), size, "{series} packet size");
    let (verdict, stats) = router.process(&mut pkt, 7, 10);
    assert!(matches!(verdict, Verdict::Forward(_)), "{series}/{size}: {verdict:?}");
    stats
}

/// Fig. 2 on the PISA axis: all 21 cells, and the shape the paper states
/// — "processing times of DIP packets are close to the baseline", "OPT
/// and NDN+OPT take more processing time since the MAC operations are
/// expensive", NDN+OPT slightly above OPT, and size costing every
/// protocol the same serialization time.
#[test]
fn e1_fig2_pisa_cells_and_shape() {
    let expected: [[u64; 3]; 7] = [
        [450, 501, 560],
        [465, 516, 575],
        [465, 516, 575],
        [480, 531, 590],
        [475, 526, 585],
        [870, 921, 980],
        [910, 961, 1020],
    ];
    let model = TofinoModel::tofino();
    let price = |series: &str, size: usize| {
        model.process_ns(
            &fig2_stats(series, size, MacChoice::TwoRoundEm),
            size,
            MacChoice::TwoRoundEm,
        )
    };
    let cells: Vec<Vec<u64>> = FIG2_SERIES
        .iter()
        .map(|series| FIG2_SIZES.iter().map(|&size| price(series, size).round() as u64).collect())
        .collect();
    let mut table = String::from("E1 — Fig. 2 on the PISA axis (TofinoModel, ns/packet)\n");
    table += &format!("{:<14} {:>7} {:>7} {:>7}\n", "protocol", "128 B", "768 B", "1500 B");
    for (series, row) in FIG2_SERIES.iter().zip(&cells) {
        table += &format!("{series:<14} {:>7} {:>7} {:>7}\n", row[0], row[1], row[2]);
    }
    print!("{table}");
    for ((series, row), expected) in FIG2_SERIES.iter().zip(&cells).zip(expected) {
        assert_eq!(row[..], expected, "{series}");
        assert_eq!(row[2] - row[0], 110, "{series}: +110 ns from 128 to 1500 B");
    }
    let ratio = |a: &str, b: &str| format!("{:.2}", price(a, 768) / price(b, 768));
    assert_eq!(ratio("DIP-32", "IPv4 (native)"), "1.03", "DIP-32 / IPv4 at 768 B");
    assert_eq!(ratio("DIP-128", "IPv6 (native)"), "1.03", "DIP-128 / IPv6 at 768 B");
    assert_eq!(ratio("OPT", "IPv4 (native)"), "1.84", "OPT / IPv4 at 768 B");
    assert_eq!(ratio("NDN+OPT", "OPT"), "1.04", "NDN+OPT / OPT at 768 B");

    // The MAC chains run in full: OPT executes parm, MAC and mark and
    // leaves F_ver to the host; NDN+OPT adds F_PIT.
    let opt = fig2_stats("OPT", 768, MacChoice::TwoRoundEm);
    assert_eq!((opt.fns_executed, opt.skipped_host), (3, 1));
    assert!(opt.cost.cipher_blocks > 0);
    assert_eq!(fig2_stats("NDN+OPT", 768, MacChoice::TwoRoundEm).fns_executed, 4);
}

/// §4.1: "AES needs to resubmit the packet" while 2EM does not — on the
/// PISA axis AES costs an OPT packet one resubmission, +450 ns.
#[test]
fn e3_aes_pays_a_450_ns_resubmission() {
    let model = TofinoModel::tofino();
    for size in FIG2_SIZES {
        let price = |mac| model.process_ns(&fig2_stats("OPT", size, mac), size, mac);
        let penalty = price(MacChoice::Aes) - price(MacChoice::TwoRoundEm);
        assert_eq!(penalty.round() as u64, 450, "OPT at {size} B");
    }
}

/// A packet of `n` cheap `F_source` FNs on disjoint 32-bit fields.
fn chain_of_sources(n: u16) -> Vec<u8> {
    let fns = (0..n).map(|i| FnTriple::router(32 * i, 32, FnKey::Source)).collect();
    DipRepr { fns, locations: vec![0u8; usize::from(n) * 4], ..Default::default() }
        .to_bytes(&[0u8; 64])
        .unwrap()
}

/// §4.1 unrolls the FN loop into an if-else chain over `FN_Num`: the
/// model's price grows linearly with chain length, 1 to 16 FNs.
#[test]
fn e4_price_grows_linearly_with_chain_length() {
    let model = TofinoModel::tofino();
    let price = |n: u16| {
        let mut router = DipRouter::new(1, [0; 16]);
        router.config_mut().default_port = Some(1);
        let mut pkt = chain_of_sources(n);
        let (verdict, stats) = router.process(&mut pkt, 0, 0);
        assert_eq!(verdict, Verdict::Forward(Ports::one(1)), "{n} FNs");
        assert_eq!(stats.fns_executed, u32::from(n));
        model.process_ns(&stats, pkt.len(), MacChoice::TwoRoundEm)
    };
    let (one, step) = (price(1), price(2) - price(1));
    assert!(step > 0.0);
    for n in [4u16, 8, 16] {
        let linear = one + f64::from(n - 1) * step;
        assert!((price(n) - linear).abs() < 1e-6, "{n} FNs: {} vs {linear}", price(n));
    }
}

/// §2.2's parallel flag: 16 FNs on disjoint fields form one wave. (That
/// NDN+OPT's 4 router FNs form 3 waves, PIT ∥ parm, is
/// `dip_fnops::parallel::tests::ndn_opt_lets_pit_run_with_parm`.)
#[test]
fn e5_sixteen_independent_fns_run_in_one_wave() {
    let triples: Vec<FnTriple> =
        (0..16).map(|i| FnTriple::router(32 * i, 32, FnKey::Source)).collect();
    let plan = dip::fnops::parallel::plan(&triples, &FnRegistry::standard());
    assert_eq!(plan.depth(), 1);
}

/// §2.4's content-poisoning attack over 64 names: an attacker's packet
/// carrying F_FIB and F_PIT together seeds the cache undefended; the
/// F_pass cache policy forwards it but never caches it; a forged source
/// label is dropped; a producer with a valid AS-issued label is still
/// cached. (The single-name mechanics are
/// `security_properties::cache_poisoning_blocked_by_dynamic_policy` and
/// `pass_labels_gate_caching_per_source`.)
#[test]
fn e6_content_poisoning_table() {
    use dip::fnops::ops::pass::{issue_label, PASS_FIELD_BITS};
    const NAMES: usize = 64;
    let victim = |i: usize| Name::parse(&format!("/victim/content{i}"));
    let attack = |name: &Name, forged_label: bool| {
        let mut fns =
            vec![FnTriple::router(0, 32, FnKey::Fib), FnTriple::router(0, 32, FnKey::Pit)];
        let mut locations = name.compact32().to_be_bytes().to_vec();
        if forged_label {
            fns.insert(0, FnTriple::router(32, PASS_FIELD_BITS, FnKey::Pass));
            locations.extend_from_slice(&[0xEE; 32]);
        }
        DipRepr { fns, locations, ..Default::default() }.to_bytes(b"BOGUS CONTENT").unwrap()
    };
    let router = |defended: bool| {
        let mut r = DipRouter::new(1, [0x11; 16]);
        r.state_mut().enable_content_store(256);
        r.state_mut().require_pass_for_cache = defended;
        let mut routes = RouteStore::new();
        for i in 0..NAMES {
            routes.insert_name(&victim(i), NextHop::port(9));
        }
        r.state_mut().routes = routes.rebuild();
        r
    };
    // (bogus entries cached, honest interests answered with bogus bytes,
    //  attack packets dropped)
    let run = |r: &mut DipRouter, forged_label: bool| {
        let dropped = (0..NAMES)
            .filter(|&i| {
                let mut pkt = attack(&victim(i), forged_label);
                matches!(r.process(&mut pkt, 2, 1_000 + i as u64).0, Verdict::Drop(_))
            })
            .count();
        let cs = |r: &DipRouter, i: usize| {
            let cs = r.state().content_store.as_ref().unwrap();
            cs.peek(&victim(i).compact32()).is_some_and(|d| d.starts_with(b"BOGUS"))
        };
        let cached = (0..NAMES).filter(|&i| cs(r, i)).count();
        let poisoned = (0..NAMES)
            .filter(|&i| {
                let mut interest = ndn::interest(&victim(i), 64).to_bytes(&[]).unwrap();
                match r.process(&mut interest, 3, 100_000 + i as u64).0 {
                    Verdict::RespondCached(data) => data.starts_with(b"BOGUS"),
                    _ => false,
                }
            })
            .count();
        (cached, poisoned, dropped)
    };
    assert_eq!(run(&mut router(false), false), (64, 64, 0), "no defense");
    assert_eq!(run(&mut router(true), false), (0, 0, 0), "F_pass cache policy");
    assert_eq!(run(&mut router(true), true), (0, 0, 64), "forged label, defended");

    let mut r = router(true);
    let name = victim(0);
    let mut interest = ndn::interest(&name, 64).to_bytes(&[]).unwrap();
    r.process(&mut interest, 3, 1);
    let source_id = [0x0A; 16];
    let mut locations = name.compact32().to_be_bytes().to_vec();
    locations.extend_from_slice(&source_id);
    locations.extend_from_slice(&issue_label(&r.state().as_secret, &source_id));
    let legit = DipRepr {
        fns: vec![
            FnTriple::router(32, PASS_FIELD_BITS, FnKey::Pass),
            FnTriple::router(0, 32, FnKey::Pit),
        ],
        locations,
        ..Default::default()
    };
    let mut data = legit.to_bytes(b"genuine content").unwrap();
    assert_eq!(r.process(&mut data, 9, 2).0, Verdict::Forward(Ports::one(3)));
    let cs = r.state().content_store.as_ref().unwrap();
    assert!(cs.peek(&name.compact32()).is_some_and(|d| **d == *b"genuine content"));
}

/// §2.4 incremental deployment over 1000 seeded 8-AS paths per point:
/// plain DIP needs every AS capable, DIP-in-IPv6 tunnels need only the
/// endpoints, and participation FNs (OPT's MAC) need every AS, tunnels
/// or not. Counts are paths out of 1000.
#[test]
fn e7_incremental_deployment_table() {
    use dip::core::bootstrap::CapabilityMap;
    use dip::crypto::DetRng;
    const PATH_LEN: usize = 8;
    const TRIALS: usize = 1000;
    // (DIP-capable percent, [no tunnel, with tunnel, OPT end to end])
    let expected: [(u32, [usize; 3]); 7] = [
        (0, [0, 0, 0]),
        (10, [0, 13, 0]),
        (25, [0, 65, 0]),
        (50, [2, 267, 2]),
        (75, [105, 552, 105]),
        (90, [460, 804, 460]),
        (100, [1000, 1000, 1000]),
    ];
    let mut rng = DetRng::seed_from_u64(2022);
    let path: Vec<u32> = (0..PATH_LEN as u32).collect();
    let measured: Vec<[usize; 3]> = expected
        .iter()
        .map(|&(pct, _)| {
            let p = f64::from(pct) / 100.0;
            let mut counts = [0usize; 3];
            for _ in 0..TRIALS {
                let mut caps = CapabilityMap::new();
                let dip: Vec<bool> = (0..PATH_LEN).map(|_| rng.gen_bool(p)).collect();
                for (i, &is_dip) in dip.iter().enumerate() {
                    // A legacy AS announces no FN keys.
                    caps.announce(i as u32, (1..=12).filter(|_| is_dip));
                }
                counts[0] += usize::from(caps.path_supports(&path, FnKey::Match32));
                counts[1] += usize::from(dip[0] && dip[PATH_LEN - 1]);
                counts[2] += usize::from(caps.path_supports(&path, FnKey::Mac));
            }
            counts
        })
        .collect();
    let pc = |n: usize| format!("{:.1}%", 100.0 * n as f64 / TRIALS as f64);
    let mut table =
        format!("E7 — heterogeneous deployment, {PATH_LEN}-AS paths, {TRIALS} trials per point\n");
    table +=
        &format!("{:>8} {:>10} {:>12} {:>8}\n", "DIP ASes", "no tunnel", "with tunnel", "OPT e2e");
    for ((pct, _), c) in expected.iter().zip(&measured) {
        table += &format!("{pct:>7}% {:>10} {:>12} {:>8}\n", pc(c[0]), pc(c[1]), pc(c[2]));
    }
    print!("{table}");
    for ((pct, row), counts) in expected.iter().zip(&measured) {
        assert_eq!(counts, row, "{pct}% DIP-capable");
    }

    // One tunnel across a legacy core: 40 bytes of IPv6 around the exact
    // inner packet.
    let inner = ip::dip32_packet(
        dip::wire::ipv4::Ipv4Addr::new(10, 2, 0, 1),
        dip::wire::ipv4::Ipv4Addr::new(10, 1, 0, 1),
        64,
    )
    .to_bytes(b"across the legacy core")
    .unwrap();
    let a = dip::wire::ipv6::Ipv6Addr::new([0x2001, 0xdb8, 0, 1, 0, 0, 0, 1]);
    let b = dip::wire::ipv6::Ipv6Addr::new([0x2001, 0xdb8, 0, 2, 0, 0, 0, 1]);
    let outer = dip::core::tunnel::encap(&inner, a, b, 64).unwrap();
    assert_eq!((inner.len(), outer.len()), (48, 88));
    assert_eq!(dip::core::tunnel::decap(&outer).unwrap(), inner);
}

/// §2.4's exhaustion defenses. An interest flood of 5000 distinct names
/// against a 1000-entry PIT: exactly 1000 accepted, 4000 refused, an
/// honest interest refused during the flood and forwarded again once the
/// entries expire. A bomb of 30 MACs is cut off by the default processing
/// budget after 13 FNs and 63 cipher blocks; without a budget it runs all
/// 31 FNs and 153 blocks.
#[test]
fn e9_state_and_processing_exhaustion() {
    const TTL: u64 = 1_000_000;
    let mut r = DipRouter::new(1, [1; 16]);
    r.state_mut().install_pit(Pit::new(1_000, TTL));
    let mut routes = RouteStore::new();
    routes.insert_name(&Name::parse("/attack"), NextHop::port(9));
    routes.insert_name(&Name::parse("/honest"), NextHop::port(9));
    r.state_mut().routes = routes.rebuild();
    let interest =
        |name: &str| ndn::interest_full(&Name::parse(name), 64).unwrap().to_bytes(&[]).unwrap();
    let (mut accepted, mut refused) = (0, 0);
    for i in 0..5_000u64 {
        match r.process(&mut interest(&format!("/attack/{i}")), 2, i).0 {
            Verdict::Forward(_) => accepted += 1,
            Verdict::Drop(DropReason::StateBudgetExhausted) => refused += 1,
            other => panic!("flood interest {i}: {other:?}"),
        }
    }
    assert_eq!((accepted, refused, r.state().pit.len()), (1_000, 4_000, 1_000));
    let during = r.process(&mut interest("/honest/page"), 3, 5_000).0;
    assert_eq!(during, Verdict::Drop(DropReason::StateBudgetExhausted));
    r.state_mut().pit.expire(2 * TTL);
    assert_eq!(
        r.process(&mut interest("/honest/page"), 3, 2 * TTL).0,
        Verdict::Forward(Ports::one(9))
    );

    let mut fns = vec![FnTriple::router(16 * 8, 128, FnKey::Parm)];
    fns.extend((0..30).map(|_| FnTriple::router(0, 416, FnKey::Mac)));
    let bomb = DipRepr { fns, locations: vec![0u8; 68], ..Default::default() };
    let run = |budget: Option<ResourceBudget>| {
        let mut r = DipRouter::new(1, [1; 16]);
        r.config_mut().default_port = Some(1);
        if let Some(budget) = budget {
            r.config_mut().budget = budget;
        }
        let (verdict, stats) = r.process(&mut bomb.to_bytes(&[]).unwrap(), 0, 0);
        (verdict, stats.fns_executed, stats.cost.cipher_blocks)
    };
    assert_eq!(run(None), (Verdict::Drop(DropReason::ProcessingBudgetExceeded), 13, 63));
    assert_eq!(
        run(Some(ResourceBudget::unconstrained())),
        (Verdict::Forward(Ports::one(1)), 31, 153)
    );
}

/// §2.3 at network scale: a consumer retrieves 200 items across a
/// 3-router chain (50 µs links) with plain NDN and with NDN+OPT, then
/// with NDN+OPT under an on-path bit-flipper. Returns (delivered,
/// verified, genuine payloads, mean latency in tenths of a µs).
fn e10_run(secure: bool, tamper: bool) -> (usize, usize, usize, u64) {
    use dip::sim::engine::{Host, Network};
    use std::collections::HashMap;
    const ITEMS: usize = 200;
    const LINK_NS: u64 = 50_000;
    let item = |i: usize| Name::parse(&format!("/library/item{i}"));
    let secrets: Vec<[u8; 16]> = (0..3).map(|i| [i as u8 + 1; 16]).collect();
    // OPT authenticates the data path, producer to consumer.
    let data_path: Vec<[u8; 16]> = secrets.iter().rev().copied().collect();
    let session = OptSession::establish([0xCC; 16], &[9; 16], &data_path);
    let contents: HashMap<u32, Vec<u8>> =
        (0..ITEMS).map(|i| (item(i).compact32(), format!("content #{i}").into_bytes())).collect();
    let (consumer, producer) = if secure {
        (
            Host::verifying_consumer(100, session.host_context()),
            Host::secure_producer(101, contents, session.clone()),
        )
    } else {
        (Host::consumer(100), Host::producer(101, contents))
    };
    let mut net = Network::new(7);
    let (consumer, routers, _) =
        dip::sim::topology::chain(&mut net, 3, consumer, producer, |i| secrets[i], LINK_NS);
    let mut routes = RouteStore::new();
    for i in 0..ITEMS {
        routes.insert_name(&item(i), NextHop::port(1));
    }
    let tables = routes.rebuild();
    for &r in &routers {
        net.router_mut(r).unwrap().state_mut().routes = tables.clone();
    }
    if tamper {
        let faults = dip::sim::FaultConfig { corrupt_chance: 1.0, ..Default::default() };
        net.connect_with(routers[0], 1, routers[1], 0, LINK_NS, 10_000_000_000, faults);
    }
    for i in 0..ITEMS {
        let interest =
            if secure { ndn_opt::interest(&item(i), 64) } else { ndn::interest(&item(i), 64) };
        net.send(consumer, 0, interest.to_bytes(&[]).unwrap(), i as u64 * 1_000_000);
    }
    net.run();
    let delivered = &net.host(consumer).unwrap().delivered;
    let latency_sum: u64 =
        delivered.iter().enumerate().map(|(i, d)| d.time - i as u64 * 1_000_000).sum();
    (
        delivered.len(),
        delivered.iter().filter(|d| d.verified).count(),
        delivered.iter().filter(|d| d.payload.starts_with(b"content #")).count(),
        (latency_sum as f64 / delivered.len().max(1) as f64 / 100.0).round() as u64,
    )
}

/// E10's table: NDN delivers 200/200 at a mean 402.9 µs; NDN+OPT
/// delivers and verifies 200/200 at 404.6 µs (+0.4 %); under a
/// bit-flipper 195 of 200 flips are rejected and the 5 delivered packets
/// (flips in unauthenticated mutable header fields) carry genuine
/// payloads.
#[test]
fn e10_ndn_vs_ndn_opt_end_to_end() {
    assert_eq!(e10_run(false, false), (200, 0, 200, 4_029), "NDN");
    assert_eq!(e10_run(true, false), (200, 200, 200, 4_046), "NDN+OPT");
    let (delivered, verified, genuine, _) = e10_run(true, true);
    assert_eq!((delivered, verified, genuine), (5, 5, 5), "NDN+OPT + bit-flipper");
}

/// §5's opportunities as custom FNs. NetFence (`F_cong`): a policing
/// access router and a marking bottleneck, 100 packets of 1 kB a second,
/// congestion in seconds 3–5 and 8–9 — the rate climbs additively,
/// collapses within a second of congestion marks and recovers additively.
/// SCION hop fields (`F_hopfield`): the honest path forwards end to end;
/// a forged egress, a wrong ingress port and a spliced path are each
/// dropped at the first AS that checks them. (Telemetry's path
/// reconstruction is `dip_protocols::telemetry::tests::
/// records_accumulate_across_hops` and `extensions::
/// telemetry_reconstructs_the_path_in_the_simulator`.)
#[test]
fn e11_netfence_sawtooth_and_scion_attack_matrix() {
    use dip::protocols::{netfence, scion_path};
    use std::sync::Arc;
    let nf_router = |id: u64| {
        let mut r = DipRouter::new(id, [id as u8; 16]);
        r.config_mut().default_port = Some(1);
        r.registry_mut().install(Arc::new(netfence::CongestionOp));
        r
    };
    let mut access = nf_router(1);
    let nf = access.state_mut().ext.get_or_default::<netfence::NetFenceState>();
    nf.police = true;
    nf.params = Some(netfence::AimdParams {
        initial_rate_bps: 400_000.0,
        min_rate_bps: 20_000.0,
        max_rate_bps: 2_000_000.0,
        additive_increase_bps: 200_000.0,
    });
    let mut bottleneck = nf_router(2);
    // (permitted rate in B/s at the end of each second, packets admitted)
    let expected: [(u64, u32); 12] = [
        (598_000, 100),
        (798_000, 100),
        (998_000, 100),
        (26_000, 30),
        (22_000, 25),
        (26_000, 24),
        (226_000, 86),
        (426_000, 100),
        (20_000, 30),
        (24_000, 24),
        (224_000, 85),
        (424_000, 100),
    ];
    let mut now = 0u64;
    for (second, row) in expected.into_iter().enumerate() {
        let congested = (3..6).contains(&second) || (8..10).contains(&second);
        bottleneck.state_mut().ext.get_or_default::<netfence::NetFenceState>().congested =
            congested;
        let mut admitted = 0;
        for _ in 0..100 {
            now += 10_000_000;
            let mut pkt = netfence::packet(9, 64).to_bytes(&[0u8; 1_000]).unwrap();
            match access.process(&mut pkt, 0, now).0 {
                Verdict::Forward(_) => admitted += 1,
                Verdict::Drop(DropReason::RateLimited) => continue,
                other => panic!("second {second}: {other:?}"),
            }
            assert!(matches!(bottleneck.process(&mut pkt, 0, now).0, Verdict::Forward(_)));
            // The receiver echoes a congestion mark straight back.
            let locations = DipPacket::new_checked(&pkt[..]).unwrap().locations().to_vec();
            if netfence::parse_field(&locations).unwrap().1 == 1 {
                let fns = vec![FnTriple::router(0, netfence::CONG_FIELD_BITS, netfence::CONG_KEY)];
                let echo = DipRepr { fns, locations, ..Default::default() };
                access.process(&mut echo.to_bytes(&[]).unwrap(), 1, now);
            }
        }
        let state = access.state_mut().ext.get_or_default::<netfence::NetFenceState>();
        let rate = state.flow_rate(9).unwrap().round() as u64;
        assert_eq!((rate, admitted), row, "second {second}");
    }

    const S1: [u8; 16] = [1; 16];
    const S2: [u8; 16] = [2; 16];
    let path = scion_path::ScionPath::construct(&[(0, 5, S1), (2, 6, S2)]);
    let spliced_from = scion_path::ScionPath::construct(&[(0, 9, S1), (2, 6, S2)]);
    let outcome = |path: &scion_path::ScionPath, in_port: u32| {
        let mut buf = path.packet(64).to_bytes(&[]).unwrap();
        for (hop, (id, secret, port)) in [(1u64, S1, in_port), (2, S2, 2)].into_iter().enumerate() {
            let mut r = DipRouter::new(id, secret);
            r.registry_mut().install(Arc::new(scion_path::HopFieldOp));
            match r.process(&mut buf, port, 0).0 {
                Verdict::Forward(_) => {}
                Verdict::Drop(reason) => return format!("dropped at hop {}: {reason:?}", hop + 1),
                other => return format!("{other:?}"),
            }
        }
        "forwarded end to end".to_string()
    };
    let mut forged = path.clone();
    forged.hops[1].egress = 9;
    let mut spliced = path.clone();
    spliced.hops[1] = spliced_from.hops[1];
    assert_eq!(outcome(&path, 0), "forwarded end to end");
    assert_eq!(outcome(&forged, 0), "dropped at hop 2: AuthenticationFailed");
    assert_eq!(outcome(&path, 7), "dropped at hop 1: AuthenticationFailed");
    assert_eq!(outcome(&spliced, 0), "dropped at hop 2: AuthenticationFailed");
}
