//! In-band network telemetry (INT) as a custom Field Operation.
//!
//! §5 lists "efficient network telemetry \[14, 33\]" among DIP's
//! opportunities. `F_tele` (registered under [`TELE_KEY`]) implements the
//! INT pattern: the source reserves space in the FN locations and every
//! on-path router appends a fixed-size record — node id, arrival
//! timestamp, ingress port — which the destination reads back to
//! reconstruct the path and per-hop latency. Pure header rewriting, no
//! router state at all.
//!
//! ## Field layout
//!
//! ```text
//! [0)  capacity (max records)
//! [1)  count (records written so far)
//! then per record (12 B): node id (4B) | arrival time µs (4B) | ingress (4B)
//! ```
//!
//! When the reserved space is full the packet keeps forwarding and the
//! high bit of `count` is set as an overflow marker (telemetry must never
//! break the dataplane).

use dip_fnops::{Action, DropReason, FieldOp, OpCost, PacketCtx, RouterState};
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};

/// The experimental operation key `F_tele` registers under.
pub const TELE_KEY: FnKey = FnKey::Other(0x102);

/// Encoded size of one telemetry record.
pub const RECORD_LEN: usize = 12;

/// Preamble size (capacity + count).
pub const TELE_PREAMBLE_LEN: usize = 2;

/// Overflow marker in the count byte.
pub const OVERFLOW_BIT: u8 = 0x80;

/// One per-hop telemetry record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TelemetryRecord {
    /// The reporting node.
    pub node_id: u32,
    /// Arrival time at that node, in microseconds of virtual time.
    pub arrival_us: u32,
    /// Ingress port the packet arrived on.
    pub ingress: u32,
}

/// The telemetry operation module.
#[derive(Debug, Default, Clone, Copy)]
pub struct TelemetryOp;

impl FieldOp for TelemetryOp {
    fn key(&self) -> FnKey {
        TELE_KEY
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        let Ok(mut field) = ctx.read_field(triple) else {
            return Action::Drop(DropReason::MalformedField);
        };
        if field.len() < TELE_PREAMBLE_LEN {
            return Action::Drop(DropReason::MalformedField);
        }
        let capacity = usize::from(field[0]);
        let count = usize::from(field[1] & !OVERFLOW_BIT);
        if field.len() < TELE_PREAMBLE_LEN + capacity * RECORD_LEN {
            return Action::Drop(DropReason::MalformedField);
        }
        if count >= capacity {
            // Full: mark overflow, never block the packet.
            field[1] |= OVERFLOW_BIT;
        } else {
            let off = TELE_PREAMBLE_LEN + count * RECORD_LEN;
            field[off..off + 4].copy_from_slice(&(state.node_id as u32).to_be_bytes());
            field[off + 4..off + 8].copy_from_slice(&((ctx.now / 1_000) as u32).to_be_bytes());
            field[off + 8..off + 12].copy_from_slice(&ctx.in_port.to_be_bytes());
            field[1] = (count + 1) as u8 | (field[1] & OVERFLOW_BIT);
        }
        if ctx.write_field(triple, &field).is_err() {
            return Action::Drop(DropReason::MalformedField);
        }
        Action::Continue
    }

    fn cost(&self, _field_bits: u16) -> OpCost {
        OpCost::stages(1)
    }

    fn write_range(&self, triple: &FnTriple) -> Option<(usize, usize)> {
        Some((usize::from(triple.field_loc), triple.field_end()))
    }
}

/// Reserves telemetry space for up to `capacity` hops.
pub fn tele_field(capacity: u8) -> Vec<u8> {
    let mut f = vec![0u8; TELE_PREAMBLE_LEN + usize::from(capacity) * RECORD_LEN];
    f[0] = capacity;
    f
}

/// Width in bits of a telemetry field with `capacity` slots.
pub fn tele_field_bits(capacity: u8) -> u16 {
    ((TELE_PREAMBLE_LEN + usize::from(capacity) * RECORD_LEN) * 8) as u16
}

/// Builds a standalone telemetry probe packet (compose the triple with
/// other FNs for piggybacked telemetry).
pub fn probe(capacity: u8, hop_limit: u8) -> DipRepr {
    DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![FnTriple::router(0, tele_field_bits(capacity), TELE_KEY)],
        locations: tele_field(capacity),
    }
}

/// Destination-side decode: the collected records plus the overflow flag.
pub fn parse_records(field: &[u8]) -> Option<(Vec<TelemetryRecord>, bool)> {
    if field.len() < TELE_PREAMBLE_LEN {
        return None;
    }
    let capacity = usize::from(field[0]);
    let overflow = field[1] & OVERFLOW_BIT != 0;
    let count = usize::from(field[1] & !OVERFLOW_BIT).min(capacity);
    if field.len() < TELE_PREAMBLE_LEN + capacity * RECORD_LEN {
        return None;
    }
    let records = (0..count)
        .map(|i| {
            let off = TELE_PREAMBLE_LEN + i * RECORD_LEN;
            TelemetryRecord {
                node_id: u32::from_be_bytes(field[off..off + 4].try_into().expect("4")),
                arrival_us: u32::from_be_bytes(field[off + 4..off + 8].try_into().expect("4")),
                ingress: u32::from_be_bytes(field[off + 8..off + 12].try_into().expect("4")),
            }
        })
        .collect();
    Some((records, overflow))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_core::{DipRouter, Verdict};
    use dip_fnops::RouteStore;
    use dip_tables::Ports;
    use dip_wire::DipPacket;
    use std::sync::Arc;

    fn tele_router(node_id: u64) -> DipRouter {
        let mut r = DipRouter::new(node_id, [0; 16]);
        r.config_mut().default_port = Some(1);
        r.registry_mut().install(Arc::new(TelemetryOp));
        r
    }

    #[test]
    fn records_accumulate_across_hops() {
        let mut buf = probe(4, 64).to_bytes(&[]).unwrap();
        for (i, now) in [(1u64, 10_000u64), (2, 25_000), (3, 47_000)] {
            let mut r = tele_router(i);
            let (v, _) = r.process(&mut buf, i as u32 * 10, now);
            assert_eq!(v, Verdict::Forward(Ports::one(1)));
        }
        let pkt = DipPacket::new_checked(&buf[..]).unwrap();
        let (records, overflow) = parse_records(pkt.locations()).unwrap();
        assert!(!overflow);
        assert_eq!(
            records,
            vec![
                TelemetryRecord { node_id: 1, arrival_us: 10, ingress: 10 },
                TelemetryRecord { node_id: 2, arrival_us: 25, ingress: 20 },
                TelemetryRecord { node_id: 3, arrival_us: 47, ingress: 30 },
            ]
        );
        // Per-hop latency reconstruction.
        assert_eq!(records[1].arrival_us - records[0].arrival_us, 15);
    }

    #[test]
    fn overflow_marks_but_never_drops() {
        let mut buf = probe(2, 64).to_bytes(&[]).unwrap();
        for i in 1..=5u64 {
            let mut r = tele_router(i);
            let (v, _) = r.process(&mut buf, 0, i * 1000);
            assert_eq!(v, Verdict::Forward(Ports::one(1)), "hop {i}");
        }
        let pkt = DipPacket::new_checked(&buf[..]).unwrap();
        let (records, overflow) = parse_records(pkt.locations()).unwrap();
        assert_eq!(records.len(), 2);
        assert!(overflow);
    }

    #[test]
    fn zero_capacity_probe_just_flows() {
        let mut buf = probe(0, 64).to_bytes(&[]).unwrap();
        let mut r = tele_router(1);
        let (v, _) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(1)));
        let pkt = DipPacket::new_checked(&buf[..]).unwrap();
        let (records, overflow) = parse_records(pkt.locations()).unwrap();
        assert!(records.is_empty());
        assert!(overflow);
    }

    #[test]
    fn undersized_field_is_malformed() {
        let repr = DipRepr {
            fns: vec![FnTriple::router(0, 16, TELE_KEY)],
            locations: vec![4, 0], // claims capacity 4, no room
            ..Default::default()
        };
        let mut buf = repr.to_bytes(&[]).unwrap();
        let mut r = tele_router(1);
        let (v, _) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Drop(DropReason::MalformedField));
    }

    #[test]
    fn piggybacks_on_ndn_opt() {
        // Telemetry + the paper's flagship composition in one header.
        use crate::opt::{opt_triples, OptSession};
        use dip_tables::fib::NextHop;
        use dip_wire::ndn::Name;

        let name = Name::parse("/telemetered");
        let session = OptSession::establish([1; 16], &[2; 16], &[[9; 16]]);
        let mut router = DipRouter::new(5, [9; 16]);
        router.registry_mut().install(Arc::new(TelemetryOp));
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(3));
        router.state_mut().routes = routes.rebuild();

        // Interest first so the PIT has a face.
        let mut ibuf = crate::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
        router.process(&mut ibuf, 8, 0);

        // Data = name + OPT block + telemetry space, 6 FNs + F_tele.
        let payload = b"payload".to_vec();
        let block = session.initial_block(&payload, 1);
        let mut locations = name.compact32().to_be_bytes().to_vec();
        locations.extend_from_slice(&block.to_bytes());
        let tele_off = (locations.len() * 8) as u16;
        locations.extend_from_slice(&tele_field(2));
        let mut fns = vec![FnTriple::router(0, 32, FnKey::Pit)];
        fns.extend(opt_triples(32));
        fns.push(FnTriple::router(tele_off, tele_field_bits(2), TELE_KEY));
        let repr = DipRepr { fns, locations, ..Default::default() };
        let mut buf = repr.to_bytes(&payload).unwrap();

        let (v, stats) = router.process(&mut buf, 3, 77_000);
        assert_eq!(v, Verdict::Forward(Ports::one(8)));
        assert_eq!(stats.fns_executed, 5); // PIT + parm + MAC + mark + tele

        let pkt = DipPacket::new_checked(&buf[..]).unwrap();
        let tele_bytes = &pkt.locations()[4 + 68..];
        let (records, _) = parse_records(tele_bytes).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].node_id, 5);
        assert_eq!(records[0].arrival_us, 77);
    }
}
