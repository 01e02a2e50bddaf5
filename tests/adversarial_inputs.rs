//! Adversarial-input regression: no packet-reachable bytes may panic the
//! router, and the telemetry registry must account for every mangled
//! packet exactly once.
//!
//! Three mangling families over valid packets of all five protocols:
//! truncation at every length, deterministic bit flips at every byte, and
//! pure random noise. Everything goes through the single [`DipRouter`]
//! (metrics attached) and the threaded [`Dataplane`] — the
//! `field_to_names` short-field guard and the typed drops instead of
//! `unwrap` are reached on both.

use dip::controlplane::{agent::control_packet, AgentConfig, ControlAgent, ControlNode};
use dip::core::control::{Announcements, ControlMessage, Lsa, LsaLink};
use dip::crypto::DetRng;
use dip::dataplane::{Backpressure, Dataplane, DataplaneConfig};
use dip::prelude::*;
use dip::protocols::{ip, ndn, xia};
use dip::tables::XiaNextHop;
use dip::telemetry::{Registry, Snapshot};
use dip::wire::ipv4::Ipv4Addr;
use dip::wire::ipv6::Ipv6Addr;
use dip_routes::RouteStore;

/// A router with routes in every table, so mangled packets reach deep
/// into each op before failing.
fn loaded_router(node: u64) -> DipRouter {
    let mut r = DipRouter::new(node, [0x5a; 16]);
    let mut routes = RouteStore::new();
    routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    routes.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(2));
    routes.insert_name(&Name::parse("/adv/content"), NextHop::port(3));
    routes.insert_xia(XidType::Ad, Xid::derive(b"adv-ad"), XiaNextHop::Port(4));
    r.state_mut().routes = routes.rebuild();
    r.state_mut().enable_content_store(64);
    r
}

/// One valid packet per protocol family.
fn seed_packets() -> Vec<Vec<u8>> {
    let name = Name::parse("/adv/content");
    let ad = Xid::derive(b"adv-ad");
    let hid = Xid::derive(b"adv-hid");
    let cid = Xid::derive(b"adv-cid");
    let dag = Dag::direct_with_fallback(DagNode::sink(XidType::Cid, cid), ad, hid).unwrap();
    vec![
        ip::dip32_packet(Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(1, 1, 1, 1), 64)
            .to_bytes(b"payload")
            .unwrap(),
        ip::dip128_packet(
            Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 2]),
            Ipv6Addr::new([0xfdcc, 0, 0, 0, 0, 0, 0, 1]),
            64,
        )
        .to_bytes(b"payload")
        .unwrap(),
        ndn::interest(&name, 64).to_bytes(&[]).unwrap(),
        ndn::data(&name, 64).to_bytes(&name.compact32().to_be_bytes()).unwrap(),
        xia::packet(&dag, 64).to_bytes(b"stream").unwrap(),
    ]
}

/// Every truncation, every single-byte bit flip, and a batch of random
/// noise, for every seed packet.
fn mangled_corpus() -> Vec<Vec<u8>> {
    let mut corpus = Vec::new();
    let mut rng = DetRng::seed_from_u64(0xadde7);
    for seed in seed_packets() {
        for len in 0..seed.len() {
            corpus.push(seed[..len].to_vec());
        }
        for pos in 0..seed.len() {
            let mut flipped = seed.clone();
            flipped[pos] ^= 1 << (pos % 8);
            corpus.push(flipped);
        }
        corpus.push(seed);
    }
    for _ in 0..200 {
        let len = rng.gen_index(96);
        corpus.push((0..len).map(|_| rng.gen_index(256) as u8).collect());
    }
    corpus
}

/// The corpus through one bare `DipRouter`, which exports router metrics
/// but no per-hop packet accounting.
fn through_single_router(corpus: &[Vec<u8>]) -> Snapshot {
    let registry = Registry::new();
    let mut router = loaded_router(0);
    router.attach_metrics(&registry, &[("node", "0")]);
    for (i, pkt) in corpus.iter().enumerate() {
        let mut buf = pkt.clone();
        // Must not panic, whatever the bytes.
        let _ = router.process(&mut buf, (i % 5) as u32, i as u64);
    }
    registry.snapshot()
}

/// The corpus through the threaded dataplane (two workers, `dipcheck`
/// admission).
fn through_dataplane(corpus: &[Vec<u8>]) -> Snapshot {
    let config = DataplaneConfig {
        workers: 2,
        batch_size: 8,
        ring_capacity: 256,
        backpressure: Backpressure::Block,
        ..Default::default()
    };
    let mut dp = Dataplane::start(config, |i| loaded_router(i as u64));
    for pkt in corpus {
        assert!(dp.submit_bytes(pkt, 0, 0).is_some());
    }
    dp.shutdown().registry.snapshot()
}

#[test]
fn single_router_survives_and_accounts_for_mangled_packets() {
    let corpus = mangled_corpus();
    let snap = through_single_router(&corpus);
    // Malformed packets and refused programs never reach execution; they
    // still get exactly one router verdict each.
    assert_eq!(
        snap.get("dip_router_verdicts_total"),
        corpus.len() as u64,
        "every mangled packet gets exactly one verdict"
    );
}

#[test]
fn dataplane_survives_and_accounts_for_mangled_packets() {
    let corpus = mangled_corpus();
    let n = corpus.len() as u64;
    let dataplane = through_dataplane(&corpus);
    assert_eq!(
        dataplane.get("dip_router_verdicts_total"),
        n,
        "every mangled packet gets exactly one verdict"
    );
    // The dataplane also accounts per packet (a bare router does not).
    assert_eq!(dataplane.get("dip_packets_total"), n, "router verdicts == dip_packets_total");
    let forwarded = dataplane.sum_where("dip_packets_total", &[("outcome", "forwarded")]);
    let consumed = dataplane.sum_where("dip_packets_total", &[("outcome", "consumed")]);
    assert_eq!(
        forwarded + consumed + dataplane.get("dip_drops_total"),
        n,
        "accounting identity must survive adversarial input"
    );
    // Garbage must actually be dropping, not sneaking through as valid,
    // and the corpus must reach the admission refusal.
    for reason in ["malformed_field", "program_rejected"] {
        assert!(
            dataplane.sum_where("dip_drops_total", &[("reason", reason)]) > 0,
            "the corpus must produce {reason} drops"
        );
    }
}

/// One valid wire packet per control-message type, with the LSA carrying
/// announcements in every table so mangled copies reach every decode arm.
fn control_seed_packets() -> Vec<Vec<u8>> {
    let lsa = Lsa {
        origin: 7,
        seq: 3,
        age: 1,
        links: vec![LsaLink { neighbor: 8, cost: 1 }, LsaLink { neighbor: 9, cost: 4 }],
        announce: Announcements {
            v4: vec![(Ipv4Addr::new(10, 0, 0, 0), 8, 1)],
            v6: vec![(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, 2)],
            names: vec![(Name::parse("/adv/ctrl"), 3)],
            xia: vec![(XidType::Cid, Xid::derive(b"adv-ctrl"), XiaNextHop::Port(4))],
        },
    };
    vec![
        control_packet(&ControlMessage::Hello { node_id: 77 }),
        control_packet(&ControlMessage::LinkStateAdvertisement(lsa)),
        control_packet(&ControlMessage::LsaAck { origin: 7, seq: 3 }),
    ]
}

#[test]
fn truncated_control_payloads_error_and_never_panic() {
    for msg in [ControlMessage::Hello { node_id: 77 }, ControlMessage::LsaAck { origin: 7, seq: 3 }]
    {
        let encoded = msg.encode();
        for len in 0..encoded.len() {
            assert!(
                ControlMessage::decode(&encoded[..len]).is_err(),
                "truncation to {len} bytes must be a wire error"
            );
        }
        // Bit flips must decode to *something* (Ok or Err) without panicking.
        for pos in 0..encoded.len() {
            let mut flipped = encoded.clone();
            flipped[pos] ^= 1 << (pos % 8);
            let _ = ControlMessage::decode(&flipped);
        }
    }
}

#[test]
fn control_node_survives_and_accounts_for_mangled_control_packets() {
    // Mangle the control seeds exactly like the dataplane corpus:
    // truncation at every length, a bit flip at every byte.
    let mut corpus = Vec::new();
    for seed in control_seed_packets() {
        for len in 0..seed.len() {
            corpus.push(seed[..len].to_vec());
        }
        for pos in 0..seed.len() {
            let mut flipped = seed.clone();
            flipped[pos] ^= 1 << (pos % 8);
            corpus.push(flipped);
        }
        corpus.push(seed);
    }

    // Drive everything through the simulator so the per-hop outcome
    // accounting sees each packet exactly once.
    let mut net = dip::sim::engine::Network::new(0xadc);
    let node =
        ControlNode::new(loaded_router(0), ControlAgent::new(1, vec![0], AgentConfig::default()));
    let r0 = net.add_router_node(Box::new(node));
    let h = net.add_host(dip::sim::engine::Host::consumer(100));
    net.connect(h, 0, r0, 0, 1_000);
    for (i, pkt) in corpus.iter().enumerate() {
        net.send(h, 0, pkt.clone(), i as u64 * 1_000);
    }
    net.run();

    let snap = net.metrics_snapshot();
    assert_eq!(
        snap.sum_where("dip_packets_total", &[("node", "0")]),
        corpus.len() as u64,
        "the router accounts every mangled control packet exactly once"
    );
    assert!(
        snap.sum_where("dip_drops_total", &[("node", "0"), ("reason", "malformed_field")]) > 0,
        "mangled control payloads are counted drops"
    );
    // The network-wide identity holds even under adversarial control input.
    assert_eq!(
        snap.get("dip_packets_total"),
        snap.get("dip_node_sent_total") - snap.get("dip_link_dropped_total"),
        "accounting identity"
    );
}
