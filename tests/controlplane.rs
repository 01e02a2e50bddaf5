//! Control-plane integration: a six-node topology converges from nothing,
//! carries all five protocol realizations, loses its primary link
//! mid-run, detects the failure over HELLO dead intervals, refloods,
//! reruns SPF, and resumes traffic on the alternate path — with the
//! network-wide accounting identity intact throughout.
//!
//! Topology (ids in parentheses are control-plane node ids):
//!
//! ```text
//!   h ── r0(1) ── r1(2) ── p
//!          │        │
//!        r2(3) ── r3(4)
//! ```
//!
//! Primary path h→r0→r1→p (cost 2); after the r0–r1 link dies the only
//! path is h→r0→r2→r3→r1→p (cost 4). All announcements originate at r1
//! (the producer's attachment point) and reach every other router purely
//! via LSA flooding — nothing is installed by hand.

use dip::controlplane::{AgentConfig, ControlAgent, ControlNode};
use dip::prelude::*;
use dip::protocols::opt::opt_triples;
use dip::protocols::{ip, ndn, xia};
use dip::sim::engine::{Host, Network, NodeId};
use dip::tables::XiaNextHop;
use dip::wire::ipv4::Ipv4Addr;
use dip::wire::ipv6::Ipv6Addr;
use dip::wire::opt::OPT_BLOCK_LEN;
use std::collections::HashMap;

fn control_router(id: u64, ports: Vec<u32>) -> ControlNode {
    ControlNode::new(
        DipRouter::new(id, [id as u8; 16]),
        ControlAgent::new(id, ports, AgentConfig::default()),
    )
}

/// An OPT packet that is actually *routed*: the usual four OPT triples
/// plus a `Match32` over an IPv4 destination appended after the OPT
/// block, so the path is chosen by the control-plane-installed FIB
/// rather than a static default port.
fn routed_opt(session: &OptSession, payload: &[u8], timestamp: u32, dst: Ipv4Addr) -> DipRepr {
    let block = session.initial_block(payload, timestamp);
    let mut locations = block.to_bytes().to_vec();
    locations.extend_from_slice(&dst.0);
    let mut fns = opt_triples(0);
    fns.push(FnTriple::router((OPT_BLOCK_LEN * 8) as u16, 32, FnKey::Match32));
    DipRepr { next_header: 0, hop_limit: 64, parallel: false, fns, locations }
}

fn agent_of(net: &mut Network, id: NodeId) -> &ControlNode {
    net.router_node_mut(id).unwrap().as_any_mut().downcast_mut::<ControlNode>().unwrap()
}

#[test]
fn six_node_reconvergence_reroutes_all_five_protocols() {
    let name_one = Name::parse("/ctrl/content/one");
    let name_two = Name::parse("/ctrl/content/two");
    let movie = Xid::derive(b"ctrl-movie");
    let dag = Dag::direct_with_fallback(
        DagNode::sink(XidType::Cid, movie),
        Xid::derive(b"ctrl-ad"),
        Xid::derive(b"ctrl-hid"),
    )
    .unwrap();
    let dst4 = Ipv4Addr::new(10, 0, 0, 7);
    let dst6 = Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 9]);
    let src6 = Ipv6Addr::new([0xfdbb, 0, 0, 0, 0, 0, 0, 1]);

    let mut net = Network::new(42);
    let r0 = net.add_router_node(Box::new(control_router(1, vec![0, 1, 2])));
    let r1 = {
        let mut n = control_router(2, vec![0, 1, 2]);
        // r1 fronts the producer on its port 1 and announces every
        // protocol's reachability; the rest of the network learns these
        // only through flooding.
        n.agent_mut().announce_v4(Ipv4Addr::new(10, 0, 0, 0), 8, 1);
        n.agent_mut().announce_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, 1);
        n.agent_mut().announce_name(name_one.clone(), 1);
        n.agent_mut().announce_name(name_two.clone(), 1);
        n.agent_mut().announce_xia(XidType::Cid, movie, XiaNextHop::Port(1));
        net.add_router_node(Box::new(n))
    };
    let r2 = net.add_router_node(Box::new(control_router(3, vec![0, 1])));
    let r3 = net.add_router_node(Box::new(control_router(4, vec![0, 1])));

    let h = net.add_host(Host::consumer(100));
    let mut contents = HashMap::new();
    contents.insert(name_one.compact32(), b"first copy".to_vec());
    contents.insert(name_two.compact32(), b"second copy".to_vec());
    let p = net.add_host(Host::producer(200, contents));

    net.connect(h, 0, r0, 0, 1_000);
    net.connect(r0, 1, r1, 0, 1_000);
    net.connect(r0, 2, r2, 0, 1_000);
    net.connect(r1, 1, p, 0, 1_000);
    net.connect(r1, 2, r3, 1, 1_000);
    net.connect(r2, 1, r3, 0, 1_000);

    // OPT binds the exact router sequence: one session per path.
    let secret = [0x55; 16];
    let session_a = OptSession::establish([0xa1; 16], &secret, &[[1; 16], [2; 16]]);
    let session_b =
        OptSession::establish([0xb2; 16], &secret, &[[1; 16], [3; 16], [4; 16], [2; 16]]);

    // ---- Segment 1: cold start, converge, run traffic on the primary path.
    for r in [r0, r1, r2, r3] {
        net.schedule_control_ticks(r, 0, 50_000, 900_000);
    }
    net.host_mut(p).unwrap().host_ctx = session_a.host_context();

    let opt_payload = b"opt phase one".to_vec();
    net.send(
        h,
        0,
        ip::dip32_packet(dst4, Ipv4Addr::new(192, 168, 0, 1), 64)
            .to_bytes(b"v4 phase one")
            .unwrap(),
        500_000,
    );
    net.send(h, 0, ip::dip128_packet(dst6, src6, 64).to_bytes(b"v6 phase one").unwrap(), 500_000);
    net.send(h, 0, ndn::interest(&name_one, 64).to_bytes(&[]).unwrap(), 500_000);
    net.send(
        h,
        0,
        routed_opt(&session_a, &opt_payload, 1, dst4).to_bytes(&opt_payload).unwrap(),
        500_000,
    );
    net.send(h, 0, xia::packet(&dag, 64).to_bytes(b"xia phase one").unwrap(), 500_000);
    net.run();

    {
        let delivered = &net.host(p).unwrap().delivered;
        assert_eq!(delivered.len(), 4, "v4, v6, OPT, XIA reach the producer");
        assert!(
            delivered.iter().any(|d| d.payload == b"opt phase one" && d.verified),
            "session A verifies over the primary path"
        );
        assert_eq!(net.host(h).unwrap().delivered.len(), 1, "NDN data returns");
        assert_eq!(net.host(h).unwrap().delivered[0].payload, b"first copy");
    }
    {
        let cn0 = agent_of(&mut net, r0);
        assert_eq!(cn0.agent().neighbors(), vec![(1, 2), (2, 3)], "full adjacency at r0");
        assert_eq!(cn0.agent().lsdb_len(), 4, "every origin flooded to r0");
    }
    let before = net.metrics_snapshot();
    assert_eq!(
        before.sum_where("dip_packets_total", &[("node", "2"), ("outcome", "forwarded")]),
        0,
        "r2 is idle while the primary path is up"
    );

    // ---- Segment 2: kill the primary link, let HELLO timeouts + LSA
    // floods reconverge, then rerun all five protocols.
    net.link_down(r0, 1);
    for r in [r0, r1, r2, r3] {
        net.schedule_control_ticks(r, 1_000_000, 50_000, 2_200_000);
    }
    net.host_mut(p).unwrap().host_ctx = session_b.host_context();

    let opt_payload = b"opt phase two".to_vec();
    net.send(
        h,
        0,
        ip::dip32_packet(dst4, Ipv4Addr::new(192, 168, 0, 1), 64)
            .to_bytes(b"v4 phase two")
            .unwrap(),
        2_500_000,
    );
    net.send(h, 0, ip::dip128_packet(dst6, src6, 64).to_bytes(b"v6 phase two").unwrap(), 2_500_000);
    net.send(h, 0, ndn::interest(&name_two, 64).to_bytes(&[]).unwrap(), 2_500_000);
    net.send(
        h,
        0,
        routed_opt(&session_b, &opt_payload, 2, dst4).to_bytes(&opt_payload).unwrap(),
        2_500_000,
    );
    net.send(h, 0, xia::packet(&dag, 64).to_bytes(b"xia phase two").unwrap(), 2_500_000);
    net.run();

    {
        let delivered = &net.host(p).unwrap().delivered;
        assert_eq!(delivered.len(), 8, "all four direct deliveries repeat post-failure");
        assert!(
            delivered.iter().any(|d| d.payload == b"opt phase two" && d.verified),
            "session B verifies over the r0→r2→r3→r1 detour"
        );
        assert_eq!(net.host(h).unwrap().delivered.len(), 2, "NDN data returns post-failure");
        assert!(net.host(h).unwrap().delivered.iter().any(|d| d.payload == b"second copy"));
    }
    {
        let cn0 = agent_of(&mut net, r0);
        assert_eq!(cn0.agent().neighbors(), vec![(2, 3)], "dead interval tore down r0–r1");
    }

    let snap = net.metrics_snapshot();
    // The detour actually carried the rerouted traffic.
    assert!(
        snap.sum_where("dip_packets_total", &[("node", "2"), ("outcome", "forwarded")]) > 0,
        "r2 forwards on the alternate path"
    );
    assert!(
        snap.sum_where("dip_packets_total", &[("node", "3"), ("outcome", "forwarded")]) > 0,
        "r3 forwards on the alternate path"
    );
    // Accounting identity over the whole run, failure included: every
    // packet put on a link was either lost to the downed link (counted)
    // or accounted exactly once by its receiver.
    let accounted = snap.get("dip_packets_total");
    let sent = snap.get("dip_node_sent_total");
    let link_dropped = snap.get("dip_link_dropped_total");
    assert_eq!(accounted, sent - link_dropped, "accounting identity");
    assert!(link_dropped > 0, "HELLOs on the severed link are counted drops");
    // Control-plane telemetry saw the whole story.
    assert!(snap.get("dip_ctrl_hello_total") > 0);
    assert!(snap.get("dip_ctrl_lsa_flood_total") > 0);
    assert!(snap.get("dip_ctrl_spf_runs_total") >= 8, "every node republished after the failure");
    assert!(snap.get("dip_ctrl_convergence_ns_count") > 0, "convergence histogram recorded");
    assert!(snap.get("dip_ctrl_route_epoch") >= 8, "route epochs advanced on every node");
}

/// The same failure scripted through the event queue instead of between
/// `run()` segments: `schedule_link_down` plus a single tick horizon.
#[test]
fn scheduled_link_down_reconverges_within_one_run() {
    let mut net = Network::new(7);
    let r0 = net.add_router_node(Box::new(control_router(1, vec![0, 1, 2])));
    let r1 = {
        let mut n = control_router(2, vec![0, 1, 2]);
        n.agent_mut().announce_v4(Ipv4Addr::new(10, 0, 0, 0), 8, 1);
        net.add_router_node(Box::new(n))
    };
    let r2 = net.add_router_node(Box::new(control_router(3, vec![0, 1])));
    let r3 = net.add_router_node(Box::new(control_router(4, vec![0, 1])));
    let h = net.add_host(Host::consumer(100));
    let p = net.add_host(Host::consumer(200));
    net.connect(h, 0, r0, 0, 1_000);
    net.connect(r0, 1, r1, 0, 1_000);
    net.connect(r0, 2, r2, 0, 1_000);
    net.connect(r1, 1, p, 0, 1_000);
    net.connect(r1, 2, r3, 1, 1_000);
    net.connect(r2, 1, r3, 0, 1_000);

    for r in [r0, r1, r2, r3] {
        net.schedule_control_ticks(r, 0, 50_000, 2_200_000);
    }
    net.schedule_link_down(1_000_000, r0, 1);
    let pkt = ip::dip32_packet(dst(), Ipv4Addr::new(192, 168, 0, 1), 64).to_bytes(b"x").unwrap();
    net.send(h, 0, pkt, 2_000_000);
    net.run();

    assert_eq!(net.host(p).unwrap().delivered.len(), 1, "traffic rerouted within the same run");
    let snap = net.metrics_snapshot();
    assert!(
        snap.sum_where("dip_packets_total", &[("node", "2"), ("outcome", "forwarded")]) > 0,
        "the packet went via r2"
    );
    assert_eq!(
        snap.get("dip_packets_total"),
        snap.get("dip_node_sent_total") - snap.get("dip_link_dropped_total"),
        "accounting identity"
    );
}

fn dst() -> Ipv4Addr {
    Ipv4Addr::new(10, 0, 0, 7)
}
