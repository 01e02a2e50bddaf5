//! Integration tests driving the discrete-event simulator: multi-hop
//! retrieval, caching, fault injection, and control-plane notifications.

use dip::prelude::*;
use dip::sim::engine::{Host, Network};
use dip::sim::topology::{chain, star};
use dip::sim::FaultConfig;
use dip_routes::RouteStore;
use std::collections::HashMap;

fn catalog(names: &[Name]) -> HashMap<u32, Vec<u8>> {
    names
        .iter()
        .enumerate()
        .map(|(i, n)| (n.compact32(), format!("data-{i}").into_bytes()))
        .collect()
}

#[test]
fn five_hop_chain_retrieval() {
    let name = Name::parse("/deep/content");
    let mut net = Network::new(1);
    let (consumer, routers, _) = chain(
        &mut net,
        5,
        Host::consumer(100),
        Host::producer(200, catalog(std::slice::from_ref(&name))),
        |i| [i as u8 + 1; 16],
        10_000,
    );
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(1));
    let tables = routes.rebuild();
    for &r in &routers {
        net.router_mut(r).unwrap().state_mut().routes = tables.clone();
    }
    net.send(consumer, 0, dip::protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap(), 0);
    net.run();
    assert_eq!(net.host(consumer).unwrap().delivered.len(), 1);
    assert_eq!(net.host(consumer).unwrap().delivered[0].payload, b"data-0");
    // 10 link traversals at 10µs plus processing: at least 100µs.
    assert!(net.host(consumer).unwrap().delivered[0].time >= 100_000);
}

#[test]
fn router_content_store_shortcuts_the_path() {
    let name = Name::parse("/popular");
    let mut net = Network::new(2);
    let (consumer, routers, _) = chain(
        &mut net,
        2,
        Host::consumer(100),
        Host::producer(200, catalog(std::slice::from_ref(&name))),
        |i| [i as u8 + 1; 16],
        10_000,
    );
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(1));
    let tables = routes.rebuild();
    for &r in &routers {
        let rt = net.router_mut(r).unwrap();
        rt.state_mut().routes = tables.clone();
        rt.state_mut().enable_content_store(8);
    }
    // First retrieval populates caches on the way back.
    let mk = |tag: u8| dip::protocols::ndn::interest(&name, 64).to_bytes(&[tag]).unwrap();
    net.send(consumer, 0, mk(1), 0);
    net.run();
    assert_eq!(net.host(consumer).unwrap().delivered.len(), 1);
    assert_eq!(net.trace().cache_hits(), 0);

    // Second retrieval (distinct nonce) is served by the first router.
    net.send(consumer, 0, mk(2), net.now() + 1_000_000);
    net.run();
    assert_eq!(net.host(consumer).unwrap().delivered.len(), 2);
    assert_eq!(net.trace().cache_hits(), 1);
    assert_eq!(net.host(consumer).unwrap().delivered[1].payload, b"data-0");
}

#[test]
fn lossy_link_drops_show_in_trace() {
    let name = Name::parse("/x");
    let mut net = Network::new(3);
    let r = net.add_router({
        let mut r = DipRouter::new(1, [1; 16]);
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(1));
        r.state_mut().routes = routes.rebuild();
        r
    });
    let consumer = net.add_host(Host::consumer(100));
    let producer = net.add_host(Host::producer(200, catalog(std::slice::from_ref(&name))));
    // 100% loss on the producer side.
    net.connect(consumer, 0, r, 0, 1_000);
    net.connect_with(producer, 0, r, 1, 1_000, 1_000_000_000, FaultConfig::lossy(100.0));
    net.send(consumer, 0, dip::protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap(), 0);
    net.run();
    assert_eq!(net.host(consumer).unwrap().delivered.len(), 0);
    assert!(net.trace().link_drops() >= 1);
}

#[test]
fn heterogeneous_router_notifies_source_host() {
    // A star with one OPT-incapable core: the host's OPT packet triggers an
    // FN-unsupported control message delivered back to it (§2.4).
    let mut net = Network::new(4);
    let hosts = vec![Host::consumer(100), Host::consumer(101)];
    let (core, ids) = star(&mut net, [9; 16], hosts, 1_000);
    let limited = FnRegistry::with_keys(&[FnKey::Match32, FnKey::Source]);
    *net.router_mut(core).unwrap().registry_mut() = limited;

    let session = OptSession::establish([1; 16], &[2; 16], &[[9; 16]]);
    net.send(ids[0], 0, session.packet(b"x", 1, 64).to_bytes(b"x").unwrap(), 0);
    net.run();

    let msgs = &net.host(ids[0]).unwrap().control_messages;
    assert_eq!(msgs.len(), 1);
    match &msgs[0] {
        dip::core::control::ControlMessage::FnUnsupported { key, node_id, .. } => {
            assert_eq!(*key, FnKey::Parm.to_wire());
            // star() gives its core router node_id 0.
            assert_eq!(*node_id, 0);
        }
        other => panic!("unexpected control message {other:?}"),
    }
}

#[test]
fn star_many_consumers_share_one_producer() {
    let name = Name::parse("/shared");
    let mut net = Network::new(5);
    let consumers: Vec<Host> = (0..4).map(Host::consumer).collect();
    let mut hosts = consumers;
    hosts.push(Host::producer(99, catalog(std::slice::from_ref(&name))));
    let (core, ids) = star(&mut net, [1; 16], hosts, 2_000);
    let producer_port = (ids.len() - 1) as u32;
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(producer_port));
    net.router_mut(core).unwrap().state_mut().routes = routes.rebuild();

    for (i, id) in ids[..4].iter().enumerate() {
        let interest = dip::protocols::ndn::interest(&name, 64).to_bytes(&[i as u8]).unwrap();
        net.send(*id, 0, interest, i as u64 * 100);
    }
    net.run();
    // PIT aggregation: all four consumers got the data...
    let total: usize = ids[..4].iter().map(|id| net.host(*id).unwrap().delivered.len()).sum();
    assert_eq!(total, 4);
    // ...but the producer answered only once (later interests aggregated).
    let producer_sends = net
        .trace()
        .events()
        .iter()
        .filter(|(_, e)| matches!(e, dip::sim::TraceEvent::Sent { node, .. } if *node == ids[4].0))
        .count();
    assert_eq!(producer_sends, 1);
}

#[test]
fn deterministic_given_a_seed() {
    let run = || {
        let name = Name::parse("/det");
        let mut net = Network::new(77);
        let (consumer, routers, _) = chain(
            &mut net,
            3,
            Host::consumer(1),
            Host::producer(2, catalog(std::slice::from_ref(&name))),
            |i| [i as u8 + 1; 16],
            7_000,
        );
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(1));
        let tables = routes.rebuild();
        for &r in &routers {
            net.router_mut(r).unwrap().state_mut().routes = tables.clone();
        }
        for i in 0..10u8 {
            net.send(
                consumer,
                0,
                dip::protocols::ndn::interest(&name, 64).to_bytes(&[i]).unwrap(),
                u64::from(i) * 50_000,
            );
        }
        net.run();
        (net.now(), net.host(consumer).unwrap().delivered.len(), net.trace().events().len())
    };
    assert_eq!(run(), run());
}
