//! Integration tests for the extension protocols (§5's "providers can
//! support new services by only upgrading FNs") and runtime FN upgrades.

use dip::prelude::*;
use dip::protocols::{netfence, scion_path, telemetry};
use dip::sim::engine::{Host, Network};
use dip_routes::RouteStore;
use dip_tables::fib::NextHop;
use std::sync::Arc;

#[test]
fn runtime_fn_upgrade_while_traffic_flows() {
    // A router first skips the unknown telemetry FN, then the operator
    // installs the module at runtime and the same traffic starts getting
    // telemetry — no restart, no repaving (§5).
    let mut r = DipRouter::new(7, [1; 16]);
    r.config_mut().default_port = Some(1);

    let mut before = telemetry::probe(4, 64).to_bytes(&[]).unwrap();
    let (v, stats) = r.process(&mut before, 0, 1_000);
    assert_eq!(v, Verdict::Forward(Ports::one(1)));
    assert_eq!(stats.skipped_unsupported, 1);
    let pkt = DipPacket::new_checked(&before[..]).unwrap();
    assert_eq!(telemetry::parse_records(pkt.locations()).unwrap().0.len(), 0);

    // The runtime upgrade.
    r.registry_mut().install(Arc::new(telemetry::TelemetryOp));

    let mut after = telemetry::probe(4, 64).to_bytes(&[]).unwrap();
    let (v, stats) = r.process(&mut after, 5, 2_000);
    assert_eq!(v, Verdict::Forward(Ports::one(1)));
    assert_eq!(stats.fns_executed, 1);
    let pkt = DipPacket::new_checked(&after[..]).unwrap();
    let (records, _) = telemetry::parse_records(pkt.locations()).unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(records[0].node_id, 7);

    // And downgrade: uninstall returns to skipping.
    assert!(r.registry_mut().uninstall(telemetry::TELE_KEY));
    let mut again = telemetry::probe(4, 64).to_bytes(&[]).unwrap();
    let (_, stats) = r.process(&mut again, 0, 3_000);
    assert_eq!(stats.skipped_unsupported, 1);
}

#[test]
fn telemetry_reconstructs_the_path_in_the_simulator() {
    let name = Name::parse("/telemetered/item");
    let mut net = Network::new(9);
    let mut contents = std::collections::HashMap::new();
    contents.insert(name.compact32(), b"bytes".to_vec());
    let (consumer, routers, _producer) = dip::sim::topology::chain(
        &mut net,
        3,
        Host::consumer(100),
        Host::producer(200, contents),
        |i| [i as u8 + 1; 16],
        30_000, // 30 µs per link
    );
    let mut routes = RouteStore::new();
    routes.insert_name(&name, NextHop::port(1));
    let tables = routes.rebuild();
    for &r in &routers {
        let rt = net.router_mut(r).unwrap();
        rt.state_mut().routes = tables.clone();
        rt.registry_mut().install(Arc::new(telemetry::TelemetryOp));
    }

    // An interest carrying telemetry space: F_FIB + F_tele composed.
    let mut locations = name.compact32().to_be_bytes().to_vec();
    let tele_off = (locations.len() * 8) as u16;
    locations.extend_from_slice(&telemetry::tele_field(4));
    let repr = DipRepr {
        fns: vec![
            FnTriple::router(0, 32, FnKey::Fib),
            FnTriple::router(tele_off, telemetry::tele_field_bits(4), telemetry::TELE_KEY),
        ],
        locations,
        ..Default::default()
    };
    net.enable_capture();
    net.send(consumer, 0, repr.to_bytes(&[]).unwrap(), 0);
    net.run();

    // The last interest transmission before the producer carries all
    // three records; reconstruct per-hop latency from the capture.
    let interest_frames: Vec<&(u64, Vec<u8>)> = net
        .captured()
        .iter()
        .filter(|(_, bytes)| {
            DipPacket::new_checked(&bytes[..])
                .ok()
                .and_then(|p| p.triples().ok())
                .is_some_and(|ts| ts.iter().any(|t| t.key == FnKey::Fib))
        })
        .collect();
    let last = interest_frames.last().expect("interest reached the producer side");
    let pkt = DipPacket::new_checked(&last.1[..]).unwrap();
    let tele_bytes = &pkt.locations()[4..];
    let (records, overflow) = telemetry::parse_records(tele_bytes).unwrap();
    assert!(!overflow);
    assert_eq!(records.len(), 3, "one record per router");
    assert_eq!(
        records.iter().map(|r| r.node_id).collect::<Vec<_>>(),
        vec![1, 2, 3],
        "chain() numbers routers 1..=n"
    );
    // Hops are ≥ one link latency apart.
    for w in records.windows(2) {
        assert!(w[1].arrival_us >= w[0].arrival_us + 30);
    }
}

#[test]
fn scion_path_composes_with_telemetry() {
    // Stateless forwarding + INT in one header: two custom FNs.
    let s1: [u8; 16] = [1; 16];
    let s2: [u8; 16] = [2; 16];
    let path = scion_path::ScionPath::construct(&[(0, 5, s1), (2, 6, s2)]);

    let mut locations = path.encode();
    let tele_off = (locations.len() * 8) as u16;
    locations.extend_from_slice(&telemetry::tele_field(2));
    let repr = DipRepr {
        fns: vec![
            FnTriple::router(0, path.encoded_bits(), scion_path::HOPFIELD_KEY),
            FnTriple::router(tele_off, telemetry::tele_field_bits(2), telemetry::TELE_KEY),
        ],
        locations,
        ..Default::default()
    };

    let mut buf = repr.to_bytes(b"payload").unwrap();
    let mk = |id: u64, secret: [u8; 16]| {
        let mut r = DipRouter::new(id, secret);
        r.registry_mut().install(Arc::new(scion_path::HopFieldOp));
        r.registry_mut().install(Arc::new(telemetry::TelemetryOp));
        r
    };
    let mut r1 = mk(11, s1);
    let (v, stats) = r1.process(&mut buf, 0, 1_000);
    assert_eq!(v, Verdict::Forward(Ports::one(5)));
    assert_eq!(stats.fns_executed, 2);
    assert_eq!(stats.cost.table_lookups, 0, "fully stateless hop");

    let mut r2 = mk(22, s2);
    let (v, _) = r2.process(&mut buf, 2, 2_000);
    assert_eq!(v, Verdict::Forward(Ports::one(6)));

    let pkt = DipPacket::new_checked(&buf[..]).unwrap();
    let tele_bytes = &pkt.locations()[path.encode().len()..];
    let (records, _) = telemetry::parse_records(tele_bytes).unwrap();
    assert_eq!(records.iter().map(|r| r.node_id).collect::<Vec<_>>(), vec![11, 22]);
}

#[test]
fn netfence_closed_loop_congestion_control() {
    // Sender -> access (police) -> bottleneck (congested) over raw router
    // calls: the forward path gets marked, the echo halves the permitted
    // rate, recovery is additive.
    let mut access = DipRouter::new(1, [1; 16]);
    access.config_mut().default_port = Some(1);
    access.registry_mut().install(Arc::new(netfence::CongestionOp));
    {
        let nf = access.state_mut().ext.get_or_default::<netfence::NetFenceState>();
        nf.police = true;
        nf.params = Some(netfence::AimdParams {
            initial_rate_bps: 100_000.0,
            min_rate_bps: 1_000.0,
            max_rate_bps: 10_000_000.0,
            additive_increase_bps: 10_000.0,
        });
    }
    let mut bottleneck = DipRouter::new(2, [2; 16]);
    bottleneck.config_mut().default_port = Some(1);
    bottleneck.registry_mut().install(Arc::new(netfence::CongestionOp));
    bottleneck.state_mut().ext.get_or_default::<netfence::NetFenceState>().congested = true;
    let bottleneck_secret = bottleneck.state().local_secret;

    // Forward path: access admits, bottleneck marks.
    let mut pkt = netfence::packet(9, 64).to_bytes(&[0u8; 100]).unwrap();
    assert!(matches!(access.process(&mut pkt, 0, 0).0, Verdict::Forward(_)));
    assert!(matches!(bottleneck.process(&mut pkt, 0, 1).0, Verdict::Forward(_)));
    let marked = DipPacket::new_checked(&pkt[..]).unwrap().locations().to_vec();
    assert_eq!(netfence::parse_field(&marked).unwrap().1, 1);
    // Receiver checks the mark is authentic before echoing.
    assert!(netfence::verify_mark(&marked, &bottleneck_secret));

    // Echo back through the access router: rate halves.
    let before =
        access.state_mut().ext.get_or_default::<netfence::NetFenceState>().flow_rate(9).unwrap();
    let echo = DipRepr {
        fns: vec![FnTriple::router(0, netfence::CONG_FIELD_BITS, netfence::CONG_KEY)],
        locations: marked,
        ..Default::default()
    };
    let mut echo_buf = echo.to_bytes(&[]).unwrap();
    access.process(&mut echo_buf, 1, 2);
    let after =
        access.state_mut().ext.get_or_default::<netfence::NetFenceState>().flow_rate(9).unwrap();
    assert!((after - before / 2.0).abs() < 1.0, "{before} -> {after}");
}

#[test]
fn extension_state_does_not_leak_between_types() {
    // Two custom ops on one router keep independent extension slots.
    let mut r = DipRouter::new(1, [1; 16]);
    r.state_mut().ext.get_or_default::<netfence::NetFenceState>().police = true;
    assert_eq!(r.state().ext.len(), 1);
    #[derive(Default)]
    struct OtherState(u32);
    r.state_mut().ext.get_or_default::<OtherState>().0 = 5;
    assert_eq!(r.state().ext.len(), 2);
    assert!(r.state_mut().ext.get_or_default::<netfence::NetFenceState>().police);
    assert_eq!(r.state_mut().ext.get_or_default::<OtherState>().0, 5);
}
