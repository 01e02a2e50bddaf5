//! Property-based tests for the extension protocols and the dissector.
//!
//! Deterministically seeded via [`dip_crypto::DetRng`] (no `proptest`), so
//! the suite runs fully offline and failures reproduce exactly.

use dip::prelude::*;
use dip::protocols::{netfence, scion_path, telemetry};
use dip::wire::pretty::dissect;
use dip_crypto::DetRng;
use std::sync::Arc;

fn rng(seed: u64) -> DetRng {
    DetRng::seed_from_u64(seed)
}

// ---------------------------------------------------------------------
// Dissector: total on arbitrary input
// ---------------------------------------------------------------------

#[test]
fn dissect_never_panics() {
    let mut r = rng(0x20);
    for _ in 0..512 {
        let mut bytes = vec![0u8; r.gen_index(256)];
        r.fill_bytes(&mut bytes);
        let _ = dissect(&bytes);
    }
}

#[test]
fn dissect_always_renders_valid_packets() {
    let mut r = rng(0x21);
    for case in 0..256 {
        let bytes = valid_packet(&mut r);
        let s = dissect(&bytes);
        assert!(s.starts_with("DIP v1"), "case {case}: {s}");
    }
}

fn valid_packet(r: &mut DetRng) -> Vec<u8> {
    let mut locations = vec![0u8; r.gen_index(64)];
    r.fill_bytes(&mut locations);
    let loc_bits = (locations.len() * 8) as u16;
    let fns = (0..r.gen_index(5))
        .map(|_| FnTriple {
            field_loc: 0,
            field_len: loc_bits,
            key: FnKey::from_wire((r.next_u32() % 0x7fff) as u16),
            host: r.gen_bool(0.5),
        })
        .collect();
    DipRepr { fns, locations, ..Default::default() }.to_bytes(b"pp").unwrap()
}

// ---------------------------------------------------------------------
// SCION paths
// ---------------------------------------------------------------------

#[test]
fn random_scion_paths_forward_hop_by_hop() {
    let mut r = rng(0x22);
    for case in 0..40 {
        let hops: Vec<(u8, u8, [u8; 16])> = (0..1 + r.gen_index(5))
            .map(|_| {
                let mut secret = [0u8; 16];
                r.fill_bytes(&mut secret);
                (r.next_u32() as u8, r.next_u32() as u8, secret)
            })
            .collect();
        let path = scion_path::ScionPath::construct(&hops);
        let mut buf = path.packet(64).to_bytes(&[]).unwrap();
        for (i, (ingress, egress, secret)) in hops.iter().enumerate() {
            let mut router = DipRouter::new(i as u64, *secret);
            router.registry_mut().install(Arc::new(scion_path::HopFieldOp));
            let (v, _) = router.process(&mut buf, u32::from(*ingress), 0);
            assert_eq!(v, Verdict::Forward(Ports::one(u32::from(*egress))), "case {case}, hop {i}");
        }
    }
}

#[test]
fn any_single_byte_corruption_of_a_hop_field_is_caught() {
    // One-hop path; corrupt one byte of its hop field (offset 2..12 of
    // the encoding). The hop must reject — unless the flip cancels out
    // (it can't: every byte is covered by the MAC or IS the MAC).
    for byte in 0usize..10 {
        for bit in 0u8..8 {
            let secret = [7u8; 16];
            let path = scion_path::ScionPath::construct(&[(3, 5, secret)]);
            let mut repr = path.packet(64);
            repr.locations[2 + byte] ^= 1 << bit;
            let mut buf = repr.to_bytes(&[]).unwrap();
            let mut r = DipRouter::new(0, secret);
            r.registry_mut().install(Arc::new(scion_path::HopFieldOp));
            let (v, _) = r.process(&mut buf, 3, 0);
            assert!(
                matches!(v, Verdict::Drop(DropReason::AuthenticationFailed)),
                "corruption of hop-field byte {byte} bit {bit} slipped through: {v:?}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// NetFence AIMD invariants
// ---------------------------------------------------------------------

#[test]
fn aimd_rate_stays_within_bounds() {
    let mut rgen = rng(0x23);
    for case in 0..40 {
        let events: Vec<bool> = (0..1 + rgen.gen_index(199)).map(|_| rgen.gen_bool(0.5)).collect();
        let params = netfence::AimdParams {
            initial_rate_bps: 50_000.0,
            min_rate_bps: 5_000.0,
            max_rate_bps: 200_000.0,
            additive_increase_bps: 20_000.0,
        };
        let mut r = DipRouter::new(1, [1; 16]);
        r.config_mut().default_port = Some(1);
        r.registry_mut().install(Arc::new(netfence::CongestionOp));
        {
            let nf = r.state_mut().ext.get_or_default::<netfence::NetFenceState>();
            nf.police = true;
            nf.params = Some(params);
        }
        let mut now = 0u64;
        for is_echo in events {
            now += 50_000_000; // 50 ms apart
            let mut repr = netfence::packet(1, 64);
            if is_echo {
                repr.locations[8] = 1;
            }
            let mut buf = repr.to_bytes(&[0u8; 100]).unwrap();
            let _ = r.process(&mut buf, 0, now);
            if let Some(rate) =
                r.state_mut().ext.get_or_default::<netfence::NetFenceState>().flow_rate(1)
            {
                assert!(rate >= params.min_rate_bps - 1e-9, "case {case}: rate {rate} below floor");
                assert!(
                    rate <= params.max_rate_bps + 1e-9,
                    "case {case}: rate {rate} above ceiling"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------
// Telemetry
// ---------------------------------------------------------------------

#[test]
fn telemetry_count_equals_min_hops_capacity() {
    for capacity in 0u8..6 {
        for n_hops in 0usize..10 {
            let mut buf = telemetry::probe(capacity, 64).to_bytes(&[]).unwrap();
            for i in 0..n_hops {
                let mut r = DipRouter::new(i as u64, [0; 16]);
                r.config_mut().default_port = Some(1);
                r.registry_mut().install(Arc::new(telemetry::TelemetryOp));
                let (v, _) = r.process(&mut buf, 0, i as u64 * 1000);
                assert!(matches!(v, Verdict::Forward(_)));
            }
            let pkt = DipPacket::new_checked(&buf[..]).unwrap();
            let (records, overflow) = telemetry::parse_records(pkt.locations()).unwrap();
            assert_eq!(records.len(), n_hops.min(usize::from(capacity)));
            assert_eq!(overflow, n_hops > usize::from(capacity));
            // Node ids in visit order.
            for (i, rec) in records.iter().enumerate() {
                assert_eq!(rec.node_id, i as u32);
            }
        }
    }
}
