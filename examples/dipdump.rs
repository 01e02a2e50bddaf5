//! dipdump — a tiny tcpdump for DIP (smoltcp ships the same demo).
//!
//! Runs a short NDN+OPT session in the simulator with packet capture
//! enabled, writes the capture to `dipdump.pcap` (libpcap format,
//! DLT_USER0 — openable in Wireshark), then reads the file back and
//! dissects every frame with the wire-level pretty printer.
//!
//! Run with: `cargo run --example dipdump`
//! Optionally pass an output path: `cargo run --example dipdump -- /tmp/x.pcap`
//! Pass `--metrics` to also print the network's telemetry registry in
//! Prometheus text exposition format after the dissection.

use dip::prelude::*;
use dip::sim::engine::{Host, Network};
use dip::sim::pcap;
use dip::sim::topology::chain;
use dip::wire::pretty::dissect;
use dip_routes::RouteStore;
use std::collections::HashMap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let show_metrics = args.iter().any(|a| a == "--metrics");
    let out_path = args
        .iter()
        .find(|a| !a.starts_with("--"))
        .cloned()
        .unwrap_or_else(|| "dipdump.pcap".to_string());

    // --- A short secure content retrieval, captured. ----------------------
    let name = Name::parse("/hotnets/org/dip");
    let router_secret = [0x21u8; 16];
    let session = OptSession::establish([0x44; 16], &[5; 16], &[router_secret]);
    let mut contents = HashMap::new();
    contents.insert(name.compact32(), b"the captured content".to_vec());

    let mut net = Network::new(11);
    net.enable_capture();
    let (consumer, routers, _) = chain(
        &mut net,
        1,
        Host::verifying_consumer(1, session.host_context()),
        Host::secure_producer(2, contents, session.clone()),
        |_| router_secret,
        15_000,
    );
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(1));
    net.router_mut(routers[0]).unwrap().state_mut().routes = routes.rebuild();

    net.send(consumer, 0, dip::protocols::ndn_opt::interest(&name, 64).to_bytes(&[]).unwrap(), 0);
    net.run();
    assert_eq!(net.host(consumer).unwrap().delivered.len(), 1, "retrieval must succeed");

    // --- Write the pcap. ---------------------------------------------------
    let mut file = Vec::new();
    let frames = net.write_pcap(&mut file).expect("pcap serialization");
    std::fs::write(&out_path, &file).expect("write pcap file");
    println!("captured {frames} frames -> {out_path} ({} bytes)\n", file.len());

    // --- Read it back and dissect, tcpdump style. --------------------------
    let bytes = std::fs::read(&out_path).expect("read pcap back");
    let packets = pcap::parse(&bytes).expect("valid pcap");
    for (i, (at, frame)) in packets.iter().enumerate() {
        println!("frame {i} @ {:.3} ms, {} bytes", *at as f64 / 1e6, frame.len());
        for line in dissect(frame).lines() {
            println!("    {line}");
        }
    }

    println!("(open {out_path} in Wireshark: link type DLT_USER0, raw DIP bytes)");

    // --- Per-hop telemetry (--metrics). ------------------------------------
    if show_metrics {
        println!("\n--- metrics (Prometheus text exposition) ---");
        print!("{}", net.metrics_report());
    }
}
