//! Experiment E10 — end-to-end NDN vs NDN+OPT in the network simulator.
//!
//! The §2.3 walkthrough at network scale: a consumer retrieves 200 content
//! items across a 3-router chain, once with plain NDN and once with
//! NDN+OPT. Reports retrieval latency and the security overhead, then
//! repeats the NDN+OPT run with an on-path tamperer to show detection.

use dip_bench::summarize;
use dip_fnops::RouteStore;
use dip_protocols::opt::OptSession;
use dip_sim::engine::{Host, Network};
use dip_sim::topology::chain;
use dip_sim::FaultConfig;
use dip_tables::fib::NextHop;
use dip_wire::ndn::Name;
use std::collections::HashMap;

const N_ROUTERS: usize = 3;
const N_ITEMS: usize = 200;
const LINK_NS: u64 = 50_000; // 50 µs per link

fn content_name(i: usize) -> Name {
    Name::parse(&format!("/library/item{i}"))
}

struct RunResult {
    latencies_ns: Vec<f64>,
    delivered: usize,
    verified: usize,
    /// Delivered payloads that are NOT genuine content — must stay zero:
    /// OPT may let a bit flip in an unauthenticated mutable header field
    /// (hop limit, parallel flag) through, but never a payload change.
    corrupted_accepted: usize,
}

fn run(secure: bool, tamper: bool) -> RunResult {
    let router_secrets: Vec<[u8; 16]> = (0..N_ROUTERS).map(|i| [i as u8 + 1; 16]).collect();
    // OPT authenticates the *data* path, which runs producer -> consumer:
    // the session's path keys are the routers in that (reverse) order.
    let data_path_secrets: Vec<[u8; 16]> = router_secrets.iter().rev().copied().collect();
    let session = OptSession::establish([0xCC; 16], &[9; 16], &data_path_secrets);

    let mut contents = HashMap::new();
    for i in 0..N_ITEMS {
        contents.insert(content_name(i).compact32(), format!("content #{i}").into_bytes());
    }

    let consumer = if secure {
        Host::verifying_consumer(100, session.host_context())
    } else {
        Host::consumer(100)
    };
    let producer = if secure {
        Host::secure_producer(101, contents, session.clone())
    } else {
        Host::producer(101, contents)
    };

    let mut net = Network::new(7);
    let secrets = router_secrets.clone();
    let (consumer_id, routers, _producer_id) =
        chain(&mut net, N_ROUTERS, consumer, producer, |i| secrets[i], LINK_NS);
    let mut routes = RouteStore::new();
    for i in 0..N_ITEMS {
        routes.insert_name(&content_name(i), NextHop::port(1));
    }
    let tables = routes.rebuild();
    for (idx, &r) in routers.iter().enumerate() {
        let rt = net.router_mut(r).expect("router node");
        rt.state_mut().routes = tables.clone();
        // Optional tamperer: the middle router flips payload bytes by
        // corrupting its producer-side link.
        let _ = idx;
    }
    if tamper {
        // Reconnect the middle link with full corruption.
        net.connect_with(
            routers[0],
            1,
            routers[1],
            0,
            LINK_NS,
            10_000_000_000,
            FaultConfig { corrupt_chance: 1.0, ..FaultConfig::default() },
        );
    }

    // Issue all interests up front; the sim serializes them in time.
    for i in 0..N_ITEMS {
        let interest = if secure {
            dip_protocols::ndn_opt::interest(&content_name(i), 64)
        } else {
            dip_protocols::ndn::interest(&content_name(i), 64)
        };
        let at = (i as u64) * 1_000_000; // 1 ms apart
        net.send(consumer_id, 0, interest.to_bytes(&[]).unwrap(), at);
    }
    net.run();

    let host = net.host(consumer_id).expect("consumer host");
    let latencies: Vec<f64> = host
        .delivered
        .iter()
        .enumerate()
        .map(|(i, d)| (d.time - (i as u64) * 1_000_000) as f64)
        .collect();
    RunResult {
        latencies_ns: latencies,
        delivered: host.delivered.len(),
        verified: host.delivered.iter().filter(|d| d.verified).count(),
        corrupted_accepted: host
            .delivered
            .iter()
            .filter(|d| !d.payload.starts_with(b"content #"))
            .count(),
    }
}

fn main() {
    println!("E10 — NDN vs NDN+OPT end-to-end ({N_ROUTERS}-router chain, {N_ITEMS} items)\n");

    let plain = run(false, false);
    let secure = run(true, false);
    println!(
        "{:<24} {:>10} {:>10} {:>16} {:>12}",
        "run", "delivered", "verified", "mean latency", "p.latency/NDN"
    );
    println!("{}", "-".repeat(78));
    let m_plain = summarize(&plain.latencies_ns).mean;
    let m_secure = summarize(&secure.latencies_ns).mean;
    println!(
        "{:<24} {:>10} {:>10} {:>13.1} µs {:>11.2}x",
        "NDN",
        plain.delivered,
        plain.verified,
        m_plain / 1000.0,
        1.0
    );
    println!(
        "{:<24} {:>10} {:>10} {:>13.1} µs {:>11.2}x",
        "NDN+OPT",
        secure.delivered,
        secure.verified,
        m_secure / 1000.0,
        m_secure / m_plain
    );
    assert_eq!(plain.delivered, N_ITEMS);
    assert_eq!(secure.delivered, N_ITEMS);
    assert_eq!(secure.verified, N_ITEMS, "every secure delivery must verify");
    assert_eq!(plain.verified, 0);

    let tampered = run(true, true);
    println!(
        "{:<24} {:>10} {:>10}",
        "NDN+OPT + bit-flipper", tampered.delivered, tampered.verified
    );
    println!(
        "  (each packet on the corrupted link had one random bit flipped: {} of {} flips\n\
         \u{20}  were detected and rejected; the rest hit unauthenticated mutable header\n\
         \u{20}  fields such as the hop limit — every *delivered* payload is genuine)",
        N_ITEMS - tampered.delivered,
        N_ITEMS
    );
    assert_eq!(tampered.corrupted_accepted, 0, "no corrupted payload may be accepted");
    assert!(
        tampered.delivered < N_ITEMS / 10,
        "almost all flips must be caught ({}/{N_ITEMS} delivered)",
        tampered.delivered
    );

    println!(
        "\nresult: NDN+OPT delivers everything with source+path verification at a\n\
         {:.1}% latency premium over NDN; under an on-path bit-flipper, no corrupted\n\
         payload is ever accepted ({} of {} flips rejected outright)",
        (m_secure / m_plain - 1.0) * 100.0,
        N_ITEMS - tampered.delivered,
        N_ITEMS
    );
}
