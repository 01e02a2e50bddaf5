//! IP forwarding over DIP (§3, *IP Forwarding*).
//!
//! "We set the destination address in the lower 128/32 bits of the FN
//! locations and the source address in the upper 128/32 bits, so the FN
//! triples used in our prototype are (loc: 0, len: 32/128, match) and
//! (loc: 32/128, len: 32/128, source)."
//!
//! (The paper's prose swaps the key numbers 1/2 relative to its Table 1;
//! we follow Table 1: key 1 = 32-bit match, key 2 = 128-bit match.)

use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};

/// Builds a DIP-32 packet: IPv4 forwarding semantics over DIP.
/// Header is 26 bytes (Table 2).
pub fn dip32_packet(dst: Ipv4Addr, src: Ipv4Addr, hop_limit: u8) -> DipRepr {
    let mut locations = dst.0.to_vec();
    locations.extend_from_slice(&src.0);
    DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![FnTriple::router(0, 32, FnKey::Match32), FnTriple::router(32, 32, FnKey::Source)],
        locations,
    }
}

/// Builds a DIP-128 packet: IPv6 forwarding semantics over DIP.
/// Header is 50 bytes (Table 2).
pub fn dip128_packet(dst: Ipv6Addr, src: Ipv6Addr, hop_limit: u8) -> DipRepr {
    let mut locations = dst.0.to_vec();
    locations.extend_from_slice(&src.0);
    DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![
            FnTriple::router(0, 128, FnKey::Match128),
            FnTriple::router(128, 128, FnKey::Source),
        ],
        locations,
    }
}

/// Reads the destination address back out of a DIP-32 locations area.
pub fn dip32_dst(locations: &[u8]) -> Option<Ipv4Addr> {
    locations.get(..4).map(|b| Ipv4Addr([b[0], b[1], b[2], b[3]]))
}

/// Reads the source address back out of a DIP-32 locations area.
pub fn dip32_src(locations: &[u8]) -> Option<Ipv4Addr> {
    locations.get(4..8).map(|b| Ipv4Addr([b[0], b[1], b[2], b[3]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header_sizes;
    use dip_core::{DipRouter, Verdict};
    use dip_fnops::RouteStore;
    use dip_tables::fib::NextHop;
    use dip_tables::Ports;

    #[test]
    fn dip32_header_is_26_bytes() {
        let repr = dip32_packet(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 64);
        assert_eq!(repr.header_len(), header_sizes::DIP_32);
    }

    #[test]
    fn dip128_header_is_50_bytes() {
        let repr = dip128_packet(
            Ipv6Addr::new([1, 0, 0, 0, 0, 0, 0, 2]),
            Ipv6Addr::new([3, 0, 0, 0, 0, 0, 0, 4]),
            64,
        );
        assert_eq!(repr.header_len(), header_sizes::DIP_128);
    }

    #[test]
    fn dip32_forwards_through_a_router() {
        let mut r = DipRouter::new(1, [0; 16]);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(2));
        r.state_mut().routes = routes.rebuild();
        let repr = dip32_packet(Ipv4Addr::new(10, 9, 8, 7), Ipv4Addr::new(1, 1, 1, 1), 64);
        let mut buf = repr.to_bytes(b"hello").unwrap();
        let (verdict, stats) = r.process(&mut buf, 0, 0);
        assert_eq!(verdict, Verdict::Forward(Ports::one(2)));
        assert_eq!(stats.fns_executed, 2);
    }

    #[test]
    fn dip128_forwards_through_a_router() {
        let mut r = DipRouter::new(1, [0; 16]);
        let prefix = Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]);
        let mut routes = RouteStore::new();
        routes.insert_v6(prefix, 16, NextHop::port(5));
        r.state_mut().routes = routes.rebuild();
        let repr = dip128_packet(
            Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 9]),
            Ipv6Addr::new([0xfd00, 0, 0, 0, 0, 0, 0, 1]),
            64,
        );
        let mut buf = repr.to_bytes(&[]).unwrap();
        let (verdict, _) = r.process(&mut buf, 0, 0);
        assert_eq!(verdict, Verdict::Forward(Ports::one(5)));
    }

    #[test]
    fn address_accessors() {
        let repr = dip32_packet(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 64);
        assert_eq!(dip32_dst(&repr.locations), Some(Ipv4Addr::new(1, 2, 3, 4)));
        assert_eq!(dip32_src(&repr.locations), Some(Ipv4Addr::new(5, 6, 7, 8)));
        assert_eq!(dip32_dst(&[]), None);
    }

    #[test]
    fn padded_to_figure2_sizes() {
        let repr = dip32_packet(Ipv4Addr::new(1, 2, 3, 4), Ipv4Addr::new(5, 6, 7, 8), 64);
        for size in [128usize, 768, 1500] {
            assert_eq!(repr.to_bytes_padded(size).unwrap().len(), size);
        }
    }
}
