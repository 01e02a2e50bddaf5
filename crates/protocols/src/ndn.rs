//! NDN over DIP (§3, *NDN*).
//!
//! Interest packets carry `F_FIB` (the router records the receiving port in
//! the PIT and FIB-matches the content name); data packets carry `F_PIT`
//! (look up and consume, forward to the recorded faces). With the
//! prototype's 32-bit compact content name each header is 16 bytes
//! (Table 2); [`interest_full`]/[`data_full`] build the variable-length
//! hierarchical-name variants for component-wise longest prefix matching.

use dip_wire::ndn::Name;
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};
use dip_wire::Result;

/// Builds an interest for `name` using the compact 32-bit encoding.
/// Header is 16 bytes (Table 2).
pub fn interest(name: &Name, hop_limit: u8) -> DipRepr {
    DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![FnTriple::router(0, 32, FnKey::Fib)],
        locations: name.compact32().to_be_bytes().to_vec(),
    }
}

/// Builds the data packet answering `name` (payload is passed at
/// serialization time). Header is 16 bytes (Table 2).
pub fn data(name: &Name, hop_limit: u8) -> DipRepr {
    DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![FnTriple::router(0, 32, FnKey::Pit)],
        locations: name.compact32().to_be_bytes().to_vec(),
    }
}

/// Interest carrying the full TLV-encoded hierarchical name (enables
/// longest-prefix FIB matching at routers).
pub fn interest_full(name: &Name, hop_limit: u8) -> Result<DipRepr> {
    let tlv = name.encode_tlv()?;
    let bits = (tlv.len() * 8) as u16;
    Ok(DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![FnTriple::router(0, bits, FnKey::Fib)],
        locations: tlv,
    })
}

/// Data packet carrying the full TLV-encoded name.
pub fn data_full(name: &Name, hop_limit: u8) -> Result<DipRepr> {
    let tlv = name.encode_tlv()?;
    let bits = (tlv.len() * 8) as u16;
    Ok(DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![FnTriple::router(0, bits, FnKey::Pit)],
        locations: tlv,
    })
}

/// Builds a data packet keyed by an already-compacted 32-bit name (used by
/// routers answering from the content store and by simulator producers).
pub fn data_compact(compact: u32, hop_limit: u8) -> DipRepr {
    DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![FnTriple::router(0, 32, FnKey::Pit)],
        locations: compact.to_be_bytes().to_vec(),
    }
}

/// Extracts the compact name from an NDN-over-DIP locations area.
pub fn compact_name(locations: &[u8]) -> Option<u32> {
    locations.get(..4).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header_sizes;
    use dip_core::{DipRouter, Verdict};
    use dip_fnops::DropReason;
    use dip_fnops::RouteStore;
    use dip_tables::fib::NextHop;
    use dip_tables::Ports;

    fn name() -> Name {
        Name::parse("hotnets.org")
    }

    #[test]
    fn ndn_headers_are_16_bytes() {
        assert_eq!(interest(&name(), 64).header_len(), header_sizes::NDN);
        assert_eq!(data(&name(), 64).header_len(), header_sizes::NDN);
    }

    #[test]
    fn interest_then_data_through_one_router() {
        let mut r = DipRouter::new(1, [0; 16]);
        let mut routes = RouteStore::new();
        routes.insert_name(&name(), NextHop::port(8));
        r.state_mut().routes = routes.rebuild();

        // Interest from consumer on port 3.
        let mut ibuf = interest(&name(), 64).to_bytes(&[]).unwrap();
        let (v1, _) = r.process(&mut ibuf, 3, 100);
        assert_eq!(v1, Verdict::Forward(Ports::one(8)));

        // Data back from the producer on port 8.
        let mut dbuf = data(&name(), 64).to_bytes(b"the content").unwrap();
        let (v2, _) = r.process(&mut dbuf, 8, 200);
        assert_eq!(v2, Verdict::Forward(Ports::one(3)));

        // A second copy has no PIT entry left.
        let mut dbuf2 = data(&name(), 64).to_bytes(b"the content").unwrap();
        let (v3, _) = r.process(&mut dbuf2, 8, 300);
        assert_eq!(v3, Verdict::Drop(DropReason::PitMiss));
    }

    #[test]
    fn full_name_interest_uses_lpm() {
        let mut r = DipRouter::new(1, [0; 16]);
        let mut routes = RouteStore::new();
        routes.insert_name(&Name::parse("/hotnets"), NextHop::port(2));
        r.state_mut().routes = routes.rebuild();
        let full = Name::parse("/hotnets/org/papers/dip");
        let mut buf = interest_full(&full, 64).unwrap().to_bytes(&[]).unwrap();
        let (v, _) = r.process(&mut buf, 1, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(2)));
    }

    #[test]
    fn data_follows_full_name_interest() {
        // Compact and full-name packets interoperate: the PIT is keyed by
        // compact32 in both paths.
        let mut r = DipRouter::new(1, [0; 16]);
        let n = Name::parse("/a/b");
        let mut routes = RouteStore::new();
        routes.insert_name(&n, NextHop::port(2));
        r.state_mut().routes = routes.rebuild();
        let mut ibuf = interest_full(&n, 64).unwrap().to_bytes(&[]).unwrap();
        r.process(&mut ibuf, 5, 0);
        let mut dbuf = data(&n, 64).to_bytes(b"x").unwrap();
        let (v, _) = r.process(&mut dbuf, 2, 10);
        assert_eq!(v, Verdict::Forward(Ports::one(5)));
    }

    #[test]
    fn compact_name_accessor() {
        let repr = interest(&name(), 64);
        assert_eq!(compact_name(&repr.locations), Some(name().compact32()));
        assert_eq!(compact_name(&[1, 2]), None);
    }
}
