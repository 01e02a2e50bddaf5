//! Determinism property: the sharded, batched dataplane is
//! behavior-equivalent to a sequential single-router run.
//!
//! For each of the five paper protocols (DIP-32, DIP-128, NDN, OPT, XIA)
//! and the NDN+OPT composition a deterministic workload is executed twice:
//!
//! * **reference** — one [`DipRouter`] processes every packet in
//!   submission order on the caller thread;
//! * **dataplane** — [`dip::dataplane::Dataplane`] with every
//!   combination of worker count {1, 2, 3, 4} and batch size
//!   {1, 7, 32, 33}, workers fed over SPSC rings under lossless
//!   backpressure. Three is in the sweep because the flow hash modulo a
//!   power of two depends only on the low bits of each hashed byte; the
//!   batch sizes put a flush after every packet, after an odd run, at the
//!   default size and one past it.
//!
//! Equivalence is checked three ways: identical verdicts in submission
//! order, byte-identical packets after FN execution, and identical
//! PIT / content-store state (the per-worker tables merged across shards
//! must equal the reference router's). This holds because flow affinity
//! keeps every flow's packets FIFO on one worker and DIP's per-flow
//! state never crosses a flow boundary; the content store is sized so
//! capacity eviction — a legitimately global-order-dependent behavior —
//! never triggers.
//!
//! The IP case over a trie of thousands of prefixes drives the batch
//! route walk through chunk nodes, with malformed and unrouted packets
//! mixed in; every case also checks the per-key FN invocation counts and
//! that the counters the workers flush once per batch come out exact: one
//! router verdict per accounted packet, one per processed packet, and one
//! execute-time observation per batch.
//!
//! A last case runs generated workload traces (IPv4 and NDN) while a
//! route storm publishes snapshots mid-run: the flap pools cover no
//! trace route, so however snapshot pick-up races the workers, nothing
//! observable may change.

use dip::crypto::DetRng;
use dip::dataplane::{Admission, Backpressure, Dataplane, DataplaneConfig, DataplaneReport};
use dip::prelude::*;
use dip::protocols::{ip, ndn, ndn_opt, xia};
use dip::tables::{Port, Ticks, XiaNextHop};
use dip::telemetry::{PacketOutcome, Registry, Snapshot};
use dip::wire::ipv4::Ipv4Addr;
use dip::wire::ipv6::Ipv6Addr;
use dip::workload::trace::INGRESS_PORT;
use dip::workload::{ChurnGen, ChurnSpec, Mix, Trace, TrafficClass, WorkloadSpec};
use dip_routes::RouteStore;

/// One packet of workload: bytes as submitted, ingress port, arrival time.
type Packet = (Vec<u8>, Port, Ticks);

const WORKERS: [usize; 4] = [1, 2, 3, 4];
const BATCHES: [usize; 4] = [1, 7, 32, 33];

/// PIT state as a comparable value: (name, faces, expiry, nonces), sorted.
fn pit_digest(router: &DipRouter) -> Vec<(u32, Vec<Port>, Ticks, Vec<u64>)> {
    let mut d: Vec<_> = router
        .state()
        .pit
        .iter()
        .map(|e| (*e.name, e.faces.to_vec(), e.expires_at, e.sorted_nonces()))
        .collect();
    d.sort();
    d
}

/// Content-store state as a comparable value: (name, bytes, inserted_at).
fn cs_digest(router: &DipRouter) -> Vec<(u32, Vec<u8>, Ticks)> {
    let mut d: Vec<_> = router
        .state()
        .content_store
        .as_ref()
        .map(|cs| cs.iter().map(|(k, v, t)| (*k, v.to_vec(), t)).collect())
        .unwrap_or_default();
    d.sort();
    d
}

/// `dip_fn_invocations_total` per standard key, then over every key.
fn fn_invocations(snap: &Snapshot) -> Vec<u64> {
    let mut counts: Vec<u64> = (1..=12)
        .map(|wire| {
            let label = format!("{:?}", FnKey::from_wire(wire));
            snap.sum_where("dip_fn_invocations_total", &[("fn", label.as_str())])
        })
        .collect();
    counts.push(snap.get("dip_fn_invocations_total"));
    counts
}

/// Runs the workload on a single reference router and on the dataplane at
/// every (workers × batch) point, asserting equivalence at each.
fn assert_deterministic(proto: &str, factory: impl Fn(usize) -> DipRouter, packets: &[Packet]) {
    assert_deterministic_under(proto, factory, packets, Admission::Lint);
}

/// [`assert_deterministic`] with the dataplane's program admission policy
/// chosen: a program `dipcheck` refuses is dropped unexecuted under
/// `Lint`, and executes like the reference router's under `Open`.
fn assert_deterministic_under(
    proto: &str,
    factory: impl Fn(usize) -> DipRouter,
    packets: &[Packet],
    admission: Admission,
) {
    // Sequential reference, counting its FN invocations.
    let mut reference = factory(0);
    let reference_registry = Registry::new();
    reference.attach_metrics(&reference_registry, &[]);
    let expected: Vec<(Verdict, Vec<u8>)> = packets
        .iter()
        .map(|(bytes, in_port, now)| {
            let mut buf = bytes.clone();
            let (verdict, _) = reference.process(&mut buf, *in_port, *now);
            (verdict, buf)
        })
        .collect();
    let expected_pit = pit_digest(&reference);
    let expected_cs = cs_digest(&reference);
    let expected_invocations = fn_invocations(&reference_registry.snapshot());

    for workers in WORKERS {
        for batch in BATCHES {
            let config = DataplaneConfig {
                workers,
                batch_size: batch,
                ring_capacity: 64,
                backpressure: Backpressure::Block,
                admission,
                record_outcomes: true,
            };
            let mut dp = Dataplane::start(config, &factory);
            for (bytes, in_port, now) in packets {
                let accepted = dp.submit_bytes(bytes, *in_port, *now);
                assert!(accepted.is_some(), "lossless submit refused a packet");
            }
            let report = dp.shutdown();
            let tag = format!("{proto} workers={workers} batch={batch}");

            // Telemetry accounting identity: the registry must account
            // for every injected packet exactly once — forwarded,
            // consumed, or dropped with a reason (no ring drops under
            // lossless backpressure).
            let snap = report.registry.snapshot();
            let forwarded = snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]);
            let consumed = snap.sum_where("dip_packets_total", &[("outcome", "consumed")]);
            let drops = snap.get("dip_drops_total");
            assert_eq!(
                forwarded + consumed + drops,
                packets.len() as u64,
                "{tag}: forwarded + consumed + drops must equal injected"
            );
            assert_eq!(
                snap.sum_where("dip_drops_total", &[("reason", "queue_full")]),
                0,
                "{tag}: lossless backpressure cannot ring-drop"
            );
            assert_eq!(
                fn_invocations(&snap),
                expected_invocations,
                "{tag}: FN invocations by key, then in total"
            );
            // The per-batch flush loses and doubles nothing.
            let packets_total = snap.get("dip_packets_total");
            assert_eq!(
                snap.get("dip_router_verdicts_total"),
                packets_total,
                "{tag}: one router verdict per accounted packet"
            );
            assert_eq!(
                packets_total,
                snap.get("dip_worker_processed_total"),
                "{tag}: every processed packet accounted"
            );
            assert_eq!(
                snap.get("dip_router_execute_ns_count"),
                snap.get("dip_worker_batches_total"),
                "{tag}: one execute-time observation per batch"
            );

            let outcomes = report.sorted_outcomes();
            assert_eq!(outcomes.len(), expected.len(), "{tag}: packet count");
            for (i, outcome) in outcomes.iter().enumerate() {
                assert_eq!(outcome.seq, i as u64, "{tag}: submission order");
                assert_eq!(outcome.verdict, expected[i].0, "{tag}: verdict of packet {i}");
                assert_eq!(outcome.bytes, expected[i].1, "{tag}: bytes of packet {i}");
            }

            let mut pit: Vec<_> =
                report.workers.iter().flat_map(|w| pit_digest(&w.router)).collect();
            pit.sort();
            assert_eq!(pit, expected_pit, "{tag}: merged PIT state");
            let mut cs: Vec<_> = report.workers.iter().flat_map(|w| cs_digest(&w.router)).collect();
            cs.sort();
            assert_eq!(cs, expected_cs, "{tag}: merged content-store state");
        }
    }
}

#[test]
fn dip32_sharded_equals_sequential() {
    let factory = |_| {
        let mut r = DipRouter::new(0, [7; 16]);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        routes.insert_v4(Ipv4Addr::new(10, 9, 0, 0), 16, NextHop::port(2));
        r.state_mut().routes = routes.rebuild();
        r
    };
    let mut rng = DetRng::seed_from_u64(0xd1001);
    let packets: Vec<Packet> = (0..240u64)
        .map(|i| {
            // ~32 repeating flows, two route prefixes, some unrouted.
            let flow = rng.gen_index(32) as u8;
            let first = if rng.gen_bool(0.1) { 172 } else { 10 };
            let repr = ip::dip32_packet(
                Ipv4Addr::new(first, flow % 12, flow, 1),
                Ipv4Addr::new(1, 1, 1, 1),
                64,
            );
            (repr.to_bytes(&i.to_be_bytes()).unwrap(), flow as Port % 3, i)
        })
        .collect();
    assert_deterministic("dip32", factory, &packets);
}

#[test]
fn dip128_sharded_equals_sequential() {
    let factory = |_| {
        let mut r = DipRouter::new(0, [8; 16]);
        let mut routes = RouteStore::new();
        routes.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(4));
        r.state_mut().routes = routes.rebuild();
        r
    };
    let mut rng = DetRng::seed_from_u64(0xd1002);
    let packets: Vec<Packet> = (0..160u64)
        .map(|i| {
            let flow = rng.gen_index(24) as u16;
            let prefix = if rng.gen_bool(0.15) { 0xfdbb } else { 0xfdaa };
            let repr = ip::dip128_packet(
                Ipv6Addr::new([prefix, flow, 0, 0, 0, 0, 0, 2]),
                Ipv6Addr::new([0xfdcc, 0, 0, 0, 0, 0, 0, 1]),
                64,
            );
            (repr.to_bytes(&i.to_be_bytes()).unwrap(), 0, i)
        })
        .collect();
    assert_deterministic("dip128", factory, &packets);
}

/// DIP-32 and DIP-128 over a trie deep enough that lookups walk chunk
/// nodes — the batch route walk's real work — with the inputs that must
/// not disturb it: unrouted destinations, an `F_32_match` over a 64-bit
/// field (no route key; execution drops it) and a packet cut inside its
/// locations area (it never parses).
#[test]
fn ip_on_a_large_trie_sharded_equals_sequential() {
    let mut rng = DetRng::seed_from_u64(0xd1007);
    let mut store = RouteStore::new();
    let mut v4 = Vec::new();
    let mut v6 = Vec::new();
    // Few top-16-bit slots, so the longer prefixes pile into deep chunks.
    let v4_tops = [0x0a00u32, 0x0a01, 0xac10, 0xc0a8];
    let v6_tops = [0xfdaau128, 0xfdab, 0x2001];
    for _ in 0..3_000 {
        let top = v4_tops[rng.gen_index(v4_tops.len())];
        let addr = Ipv4Addr::from_u32(top << 16 | (rng.next_u32() & 0xffff));
        let len = rng.gen_range_inclusive(8, 32) as u8;
        store.insert_v4(addr, len, NextHop::port(rng.gen_range_inclusive(1, 64) as u32));
        v4.push((addr, len));
    }
    for _ in 0..2_000 {
        let top = v6_tops[rng.gen_index(v6_tops.len())];
        let low = u128::from(rng.next_u64()) << 48 | u128::from(rng.next_u64() & 0xffff_ffff_ffff);
        let addr = Ipv6Addr::from_u128(top << 112 | low);
        let len = rng.gen_range_inclusive(16, 128) as u8;
        store.insert_v6(addr, len, NextHop::port(rng.gen_range_inclusive(1, 64) as u32));
        v6.push((addr, len));
    }
    let tables = store.rebuild();
    let (chunks, nodes, _) = tables.v6.footprint();
    assert!(chunks > 0 && nodes > chunks, "the v6 table must have chunks below the root");
    let factory = move |_| {
        let mut r = DipRouter::new(0, [0x11; 16]);
        r.state_mut().routes = tables.clone();
        r
    };

    let src4 = Ipv4Addr::new(1, 1, 1, 1);
    let src6 = Ipv6Addr::new([0xfdcc, 0, 0, 0, 0, 0, 0, 1]);
    let mut packets: Vec<Packet> = Vec::new();
    for i in 0..600u64 {
        let payload = i.to_be_bytes();
        let bytes = match rng.gen_index(20) {
            // Unrouted destinations.
            0 => ip::dip32_packet(Ipv4Addr::new(203, 0, 113, i as u8), src4, 64)
                .to_bytes(&payload)
                .unwrap(),
            1 => ip::dip128_packet(Ipv6Addr::new([0x3fff, 0, 0, 0, 0, 0, 0, 1]), src6, 64)
                .to_bytes(&payload)
                .unwrap(),
            // F_32_match over a 64-bit field: no key, a malformed-field drop.
            2 => {
                let mut repr = ip::dip32_packet(Ipv4Addr::new(10, 0, 0, 1), src4, 64);
                repr.fns[0] = FnTriple::router(0, 64, FnKey::Match32);
                repr.to_bytes(&payload).unwrap()
            }
            // Cut inside the locations area: it never parses.
            3 => {
                let repr = ip::dip128_packet(v6[0].0, src6, 64);
                let mut bytes = repr.to_bytes(&[]).unwrap();
                bytes.truncate(repr.header_len() - 8);
                bytes
            }
            // Otherwise a destination under an installed prefix, the
            // families interleaved packet by packet.
            _ if i % 2 == 0 => {
                let (addr, len) = v4[rng.gen_index(v4.len())];
                let host = rng.next_u32().checked_shr(u32::from(len)).unwrap_or(0);
                let dst = Ipv4Addr::from_u32(addr.to_u32() | host);
                ip::dip32_packet(dst, src4, 64).to_bytes(&payload).unwrap()
            }
            _ => {
                let (addr, len) = v6[rng.gen_index(v6.len())];
                let noise = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
                let host = noise.checked_shr(u32::from(len)).unwrap_or(0);
                let dst = Ipv6Addr::from_u128(addr.to_u128() | host);
                ip::dip128_packet(dst, src6, 64).to_bytes(&payload).unwrap()
            }
        };
        packets.push((bytes, 0, i));
    }
    let mut probe = factory(0);
    let verdicts: Vec<Verdict> = packets
        .iter()
        .map(|(bytes, port, now)| probe.process(&mut bytes.clone(), *port, *now).0)
        .collect();
    assert!(verdicts.iter().any(|v| matches!(v, Verdict::Forward(_))), "some packets route");
    for reason in [DropReason::NoRoute, DropReason::MalformedField] {
        assert!(verdicts.contains(&Verdict::Drop(reason)), "some packets drop for {reason:?}");
    }
    assert_deterministic_under("ip-trie", factory, &packets, Admission::Open);
}

#[test]
fn ndn_sharded_equals_sequential() {
    let names: Vec<Name> = (0..24).map(|i| Name::parse(&format!("/det/content/{i}"))).collect();
    let names_for_factory = names.clone();
    let factory = move |_| {
        let mut r = DipRouter::new(0, [9; 16]);
        // Capacity far above the distinct-name count: no LRU eviction, so
        // the merged per-shard stores must equal the reference store.
        r.state_mut().enable_content_store(1024);
        let mut routes = RouteStore::new();
        for name in &names_for_factory {
            routes.insert_name(name, NextHop::port(1));
        }
        r.state_mut().routes = routes.rebuild();
        r
    };
    let mut rng = DetRng::seed_from_u64(0xd1003);
    let mut packets: Vec<Packet> = Vec::new();
    let mut now = 0u64;
    // Interleaved interests (repeats exercise PIT aggregation and
    // duplicate suppression) and data (PIT consumption + CS insert); late
    // interests for already-answered names hit the content store.
    for round in 0..3 {
        for _ in 0..80 {
            now += 1;
            let name = &names[rng.gen_index(names.len())];
            if round > 0 && rng.gen_bool(0.35) {
                let payload = name.compact32().to_be_bytes();
                packets.push((ndn::data(name, 64).to_bytes(&payload).unwrap(), 9, now));
            } else {
                let face = rng.gen_index(4) as Port;
                packets.push((ndn::interest(name, 64).to_bytes(&[]).unwrap(), face, now));
            }
        }
    }
    assert_deterministic("ndn", factory, &packets);
}

#[test]
fn opt_sharded_equals_sequential() {
    let factory = |_| {
        let mut r = DipRouter::new(0, [0x42; 16]);
        r.config_mut().default_port = Some(1);
        r
    };
    let session = OptSession::establish([5; 16], &[6; 16], &[[0x42; 16]]);
    let packets: Vec<Packet> = (0..120u32)
        .map(|i| {
            let payload = u64::from(i).to_be_bytes();
            let repr = session.packet(&payload, i, 64);
            (repr.to_bytes(&payload).unwrap(), 0, u64::from(i))
        })
        .collect();
    assert_deterministic("opt", factory, &packets);
}

#[test]
fn ndn_opt_sharded_equals_sequential() {
    // An NDN+OPT interest carries the 4-byte name; its data carries the
    // name plus the 68-byte OPT block, so only a flow hash over the name
    // itself brings the data to the worker holding the interest's PIT
    // entry.
    let names: Vec<Name> = (0..64).map(|i| Name::parse(&format!("/secure/content/{i}"))).collect();
    let names_for_factory = names.clone();
    let factory = move |_| {
        let mut r = DipRouter::new(0, [0x42; 16]);
        r.state_mut().enable_content_store(1024);
        let mut routes = RouteStore::new();
        for name in &names_for_factory {
            routes.insert_name(name, NextHop::port(1));
        }
        r.state_mut().routes = routes.rebuild();
        r
    };
    let session = OptSession::establish([5; 16], &[6; 16], &[[0x42; 16]]);
    let mut rng = DetRng::seed_from_u64(0xd1006);
    let mut packets: Vec<Packet> = Vec::new();
    let mut now = 0u64;
    // Interests (repeats aggregate in the PIT), then authenticated data;
    // late interests for answered names hit the content store.
    for round in 0..3 {
        for _ in 0..96 {
            now += 1;
            let name = &names[rng.gen_index(names.len())];
            if round > 0 && rng.gen_bool(0.4) {
                let payload = name.compact32().to_be_bytes();
                let repr = ndn_opt::data(&session, name, &payload, now as u32, 64);
                packets.push((repr.to_bytes(&payload).unwrap(), 9, now));
            } else {
                let face = rng.gen_index(4) as Port;
                packets.push((ndn_opt::interest(name, 64).to_bytes(&[]).unwrap(), face, now));
            }
        }
    }
    assert_deterministic("ndn+opt", factory, &packets);
}

#[test]
fn xia_sharded_equals_sequential() {
    let ad = Xid::derive(b"det-ad");
    let hid = Xid::derive(b"det-hid");
    let local_cid = Xid::derive(b"cid-7");
    let factory = move |_| {
        let mut r = DipRouter::new(0, [3; 16]);
        let mut routes = RouteStore::new();
        routes.insert_xia(XidType::Ad, ad, XiaNextHop::Port(1));
        routes.insert_xia(XidType::Cid, local_cid, XiaNextHop::Local);
        r.state_mut().routes = routes.rebuild();
        r
    };
    let mut rng = DetRng::seed_from_u64(0xd1005);
    let packets: Vec<Packet> = (0..120u64)
        .map(|i| {
            // 16 distinct CIDs; cid-7 terminates locally, the rest fall
            // back to the AD route.
            let cid = Xid::derive(format!("cid-{}", rng.gen_index(16)).as_bytes());
            let dag = Dag::direct_with_fallback(DagNode::sink(XidType::Cid, cid), ad, hid).unwrap();
            (xia::packet(&dag, 64).to_bytes(b"stream").unwrap(), 0, i)
        })
        .collect();
    assert_deterministic("xia", factory, &packets);
}

/// (forwarded, consumed, dropped) as the registry counted them.
fn outcome_counts(snap: &Snapshot) -> (u64, u64, u64) {
    (
        snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]),
        snap.sum_where("dip_packets_total", &[("outcome", "consumed")]),
        snap.get("dip_drops_total"),
    )
}

/// One threaded run of `trace` while a 1 M updates/s route storm commits
/// deltas on the packets' timestamps and publishes each snapshot before
/// the packet that triggered it. Returns the report and the deltas
/// committed.
fn run_under_storm(spec: &WorkloadSpec, trace: &Trace, workers: usize) -> (DataplaneReport, u64) {
    let config = DataplaneConfig {
        workers,
        ring_capacity: 64,
        backpressure: Backpressure::Block,
        record_outcomes: true,
        ..Default::default()
    };
    let mut dp = Dataplane::start(config, |_| spec.build_router(0));
    let mut storm = ChurnGen::new(spec, &ChurnSpec { rate_ups: 1_000_000 });
    dp.publish_routes(storm.initial_snapshot());
    for p in &trace.packets {
        if let Some(snap) = storm.poll(p.at_ns) {
            dp.publish_routes(snap);
        }
        assert!(dp.submit_bytes(&p.bytes, INGRESS_PORT, p.at_ns).is_some());
    }
    (dp.shutdown(), storm.deltas())
}

/// Generated IPv4 and NDN traces on the dataplane at every worker count
/// while a route storm swaps epochs under it: the accounting identity is
/// exact with no ring drop, and outcome counts, verdicts and bytes equal
/// a sequential router's that never saw the storm, run after run.
#[test]
fn workload_traces_under_a_route_storm_equal_sequential() {
    for class in [TrafficClass::Ipv4, TrafficClass::Ndn] {
        let spec = WorkloadSpec {
            seed: 41,
            mix: Mix::single(class),
            table_size: 300,
            pit_preseed: 512,
            ..Default::default()
        };
        let trace = spec.generate(1_000_000, 3_000);
        let injected = trace.len() as u64;

        // Sequential reference: one router that never sees the storm.
        let mut reference = spec.build_router(0);
        let mut expected_counts = (0, 0, 0);
        let expected: Vec<(Verdict, Vec<u8>)> = trace
            .packets
            .iter()
            .map(|p| {
                let mut buf = p.bytes.clone();
                let (verdict, _) = reference.process(&mut buf, INGRESS_PORT, p.at_ns);
                match verdict.outcome() {
                    PacketOutcome::Forwarded => expected_counts.0 += 1,
                    PacketOutcome::Consumed => expected_counts.1 += 1,
                    PacketOutcome::Dropped(_) => expected_counts.2 += 1,
                }
                (verdict, buf)
            })
            .collect();

        for workers in WORKERS {
            let tag = format!("{class:?} workers={workers}");
            let (first, deltas) = run_under_storm(&spec, &trace, workers);
            let (second, deltas_again) = run_under_storm(&spec, &trace, workers);
            assert!(deltas > 0, "{tag}: the storm must commit deltas");
            assert_eq!(deltas, deltas_again, "{tag}: the storm is a function of the trace");
            let snap = first.registry.snapshot();
            assert!(
                (0..workers).all(|w| {
                    let w = w.to_string();
                    snap.sum_where("dip_worker_epoch_refreshes_total", &[("worker", &w)]) > 0
                }),
                "{tag}: every worker picked up a storm snapshot"
            );

            let counts = outcome_counts(&snap);
            assert_eq!(counts.0 + counts.1 + counts.2, injected, "{tag}: accounting identity");
            assert_eq!(
                snap.sum_where("dip_drops_total", &[("reason", "queue_full")]),
                0,
                "{tag}: lossless backpressure cannot ring-drop"
            );
            assert_eq!(counts, expected_counts, "{tag}: outcome counts of the sequential router");
            assert_eq!(
                outcome_counts(&second.registry.snapshot()),
                counts,
                "{tag}: outcome counts reproduce run to run"
            );

            let outcomes = first.sorted_outcomes();
            assert_eq!(outcomes.len(), expected.len(), "{tag}: packet count");
            for (i, outcome) in outcomes.iter().enumerate() {
                assert_eq!(outcome.verdict, expected[i].0, "{tag}: verdict of packet {i}");
                assert_eq!(outcome.bytes, expected[i].1, "{tag}: bytes of packet {i}");
            }
        }
    }
}
