//! Canned topologies for the experiment harness.

use crate::engine::{Host, Network, NodeId};
use dip_core::DipRouter;
use dip_crypto::Block;

/// A linear chain: `host -- r1 -- r2 -- ... -- rN -- host`.
///
/// Port convention: routers use port 0 toward the consumer side and port 1
/// toward the producer side. Returns `(consumer, routers, producer)`.
pub fn chain(
    net: &mut Network,
    n_routers: usize,
    consumer: Host,
    producer: Host,
    router_secret: impl Fn(usize) -> Block,
    link_latency_ns: u64,
) -> (NodeId, Vec<NodeId>, NodeId) {
    assert!(n_routers >= 1, "a chain needs at least one router");
    let consumer_id = net.add_host(consumer);
    let producer_id = net.add_host(producer);
    let routers: Vec<NodeId> = (0..n_routers)
        .map(|i| net.add_router(DipRouter::new(i as u64 + 1, router_secret(i))))
        .collect();
    net.connect(consumer_id, 0, routers[0], 0, link_latency_ns);
    for w in routers.windows(2) {
        net.connect(w[0], 1, w[1], 0, link_latency_ns);
    }
    net.connect(routers[n_routers - 1], 1, producer_id, 0, link_latency_ns);
    (consumer_id, routers, producer_id)
}

/// A star: one core router with `n_hosts` hosts on ports `0..n`.
/// Returns `(core, hosts)`.
pub fn star(
    net: &mut Network,
    core_secret: Block,
    hosts: Vec<Host>,
    link_latency_ns: u64,
) -> (NodeId, Vec<NodeId>) {
    let core = net.add_router(DipRouter::new(0, core_secret));
    let ids: Vec<NodeId> = hosts
        .into_iter()
        .enumerate()
        .map(|(i, h)| {
            let id = net.add_host(h);
            net.connect(core, i as u32, id, 0, link_latency_ns);
            id
        })
        .collect();
    (core, ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_fnops::RouteStore;
    use dip_tables::fib::NextHop;
    use dip_wire::ndn::Name;
    use std::collections::HashMap;

    #[test]
    fn chain_wires_ports_consistently() {
        let name = Name::parse("/x");
        let mut contents = HashMap::new();
        contents.insert(name.compact32(), b"c".to_vec());
        let mut net = Network::new(1);
        let (consumer, routers, _producer) = chain(
            &mut net,
            3,
            Host::consumer(100),
            Host::producer(101, contents),
            |_| [7; 16],
            500,
        );
        // Every router forwards interests toward the producer (port 1).
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(1));
        let tables = routes.rebuild();
        for &r in &routers {
            net.router_mut(r).unwrap().state_mut().routes = tables.clone();
        }
        let interest = dip_protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
        net.send(consumer, 0, interest, 0);
        net.run();
        assert_eq!(net.host(consumer).unwrap().delivered.len(), 1);
        assert_eq!(net.host(consumer).unwrap().delivered[0].payload, b"c");
    }

    #[test]
    fn star_connects_all_hosts() {
        let mut net = Network::new(1);
        let hosts = vec![Host::consumer(1), Host::consumer(2), Host::consumer(3)];
        let (_core, ids) = star(&mut net, [0; 16], hosts, 100);
        assert_eq!(ids.len(), 3);
    }
}
