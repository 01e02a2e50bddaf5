//! Control-plane reconvergence: four routers in a diamond discover each
//! other via HELLOs, flood LSAs, run SPF, and publish route snapshots —
//! then the primary link dies mid-run, the dead interval fires, and the
//! network reroutes a packet around the failure without any manual
//! table edits.
//!
//! Run with: `cargo run --example reconvergence`

use dip::controlplane::{AgentConfig, ControlAgent, ControlNode};
use dip::prelude::*;
use dip::protocols::ip;
use dip::sim::engine::{Host, Network};
use dip::wire::ipv4::Ipv4Addr;

fn router(id: u64, ports: Vec<u32>) -> ControlNode {
    ControlNode::new(
        DipRouter::new(id, [id as u8; 16]),
        ControlAgent::new(id, ports, AgentConfig::default()),
    )
}

fn main() {
    println!("=== Distributed routing + failure reconvergence ===\n");

    //   h ── r0 ── r1 ── p        primary: h→r0→r1→p
    //         │     │
    //        r2 ── r3             detour:  h→r0→r2→r3→r1→p
    let mut net = Network::new(1);
    let r0 = net.add_router_node(Box::new(router(1, vec![0, 1, 2])));
    let r1 = {
        let mut n = router(2, vec![0, 1, 2]);
        n.agent_mut().announce_v4(Ipv4Addr::new(10, 0, 0, 0), 8, 1);
        net.add_router_node(Box::new(n))
    };
    let r2 = net.add_router_node(Box::new(router(3, vec![0, 1])));
    let r3 = net.add_router_node(Box::new(router(4, vec![0, 1])));
    let h = net.add_host(Host::consumer(100));
    let p = net.add_host(Host::consumer(200));
    net.connect(h, 0, r0, 0, 1_000);
    net.connect(r0, 1, r1, 0, 1_000);
    net.connect(r0, 2, r2, 0, 1_000);
    net.connect(r1, 1, p, 0, 1_000);
    net.connect(r1, 2, r3, 1, 1_000);
    net.connect(r2, 1, r3, 0, 1_000);

    // One run: converge cold, verify a packet, kill the r0–r1 link at
    // t=1ms, and send a second packet after reconvergence.
    for r in [r0, r1, r2, r3] {
        net.schedule_control_ticks(r, 0, 50_000, 2_200_000);
    }
    net.schedule_link_down(1_000_000, r0, 1);
    let packet = |tag: u8| {
        ip::dip32_packet(Ipv4Addr::new(10, 0, 0, tag), Ipv4Addr::new(192, 168, 0, 1), 64)
            .to_bytes(&[tag])
            .unwrap()
    };
    net.send(h, 0, packet(1), 800_000); // while the primary path is up
    net.send(h, 0, packet(2), 2_000_000); // after the failure
    net.run();

    let snap = net.metrics_snapshot();
    println!("deliveries at p:            {}", net.host(p).unwrap().delivered.len());
    println!("HELLOs sent:                {}", snap.get("dip_ctrl_hello_total"));
    println!("LSA floods:                 {}", snap.get("dip_ctrl_lsa_flood_total"));
    println!("SPF runs published:         {}", snap.get("dip_ctrl_spf_runs_total"));
    println!(
        "convergence samples (mean): {} ({} ns)",
        snap.get("dip_ctrl_convergence_ns_count"),
        snap.get("dip_ctrl_convergence_ns_sum") / snap.get("dip_ctrl_convergence_ns_count").max(1)
    );
    println!(
        "r2 forwarded (detour only): {}",
        snap.sum_where("dip_packets_total", &[("node", "2"), ("outcome", "forwarded")])
    );
    println!("link drops on severed link: {}", snap.get("dip_link_dropped_total"));
    assert_eq!(net.host(p).unwrap().delivered.len(), 2, "both packets must arrive");
    assert_eq!(
        snap.get("dip_packets_total"),
        snap.get("dip_node_sent_total") - snap.get("dip_link_dropped_total"),
        "accounting identity"
    );
    println!("\nBoth packets delivered; the second took the r2/r3 detour.");
}
