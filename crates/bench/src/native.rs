//! Native IPv4/IPv6 forwarding — the Figure 2 baselines.
//!
//! These are the "forwarding times of IPv4 and IPv6 packets" the paper
//! measures against: parse the legacy header, decrement TTL/hop limit
//! (updating the IPv4 checksum), and look up the destination — no DIP
//! machinery involved. The lookup is the same compiled table a DIP
//! router uses, so the comparison isolates the DIP pipeline.

use dip_fnops::RouteTables;
use dip_tables::Port;
use dip_wire::checksum;
use dip_wire::ipv4::{Ipv4Addr, Ipv4Repr, IPV4_HEADER_LEN};
use dip_wire::ipv6::{Ipv6Addr, Ipv6Repr};

/// One native IPv4 forwarding step. Returns the egress port, or `None` on
/// drop (bad packet, TTL expiry, no route).
pub fn native_ipv4_forward(buf: &mut [u8], fib: &RouteTables) -> Option<Port> {
    let repr = Ipv4Repr::parse(buf).ok()?;
    if repr.ttl <= 1 {
        return None;
    }
    buf[8] = repr.ttl - 1;
    // Recompute the header checksum after the TTL change.
    buf[10..12].fill(0);
    let ck = checksum::internet_checksum(&buf[..IPV4_HEADER_LEN]);
    buf[10..12].copy_from_slice(&ck.to_be_bytes());
    fib.lookup_v4(repr.dst).map(|nh| nh.port)
}

/// One native IPv6 forwarding step.
pub fn native_ipv6_forward(buf: &mut [u8], fib: &RouteTables) -> Option<Port> {
    let repr = Ipv6Repr::parse(buf).ok()?;
    if repr.hop_limit <= 1 {
        return None;
    }
    buf[7] = repr.hop_limit - 1;
    fib.lookup_v6(repr.dst).map(|nh| nh.port)
}

/// Builds a native IPv4 packet of exactly `total_len` bytes to `dst`.
pub fn ipv4_packet(dst: Ipv4Addr, src: Ipv4Addr, total_len: usize) -> Vec<u8> {
    assert!(total_len >= IPV4_HEADER_LEN);
    let payload = vec![0u8; total_len - IPV4_HEADER_LEN];
    Ipv4Repr { src, dst, protocol: 17, ttl: 64, payload_len: payload.len() }
        .to_bytes(&payload)
        .expect("ipv4 construction")
}

/// Builds a native IPv6 packet of exactly `total_len` bytes to `dst`.
pub fn ipv6_packet(dst: Ipv6Addr, src: Ipv6Addr, total_len: usize) -> Vec<u8> {
    assert!(total_len >= dip_wire::ipv6::IPV6_HEADER_LEN);
    let payload = vec![0u8; total_len - dip_wire::ipv6::IPV6_HEADER_LEN];
    Ipv6Repr { src, dst, next_header: 17, hop_limit: 64, payload_len: payload.len() }
        .to_bytes(&payload)
        .expect("ipv6 construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_fnops::RouteStore;
    use dip_tables::fib::NextHop;

    #[test]
    fn v4_forwarding_decrements_ttl_and_fixes_checksum() {
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
        let fib = routes.rebuild();
        let mut pkt = ipv4_packet(Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(1, 1, 1, 1), 128);
        assert_eq!(native_ipv4_forward(&mut pkt, &fib), Some(3));
        assert_eq!(pkt[8], 63);
        // The packet remains valid for the next hop.
        assert!(Ipv4Repr::parse(&pkt).is_ok());
    }

    #[test]
    fn v4_ttl_expiry_drops() {
        let fib = RouteTables::default();
        let mut pkt = ipv4_packet(Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(1, 1, 1, 1), 64);
        pkt[8] = 1;
        // Fix checksum for the modified TTL.
        pkt[10..12].fill(0);
        let ck = checksum::internet_checksum(&pkt[..20]);
        pkt[10..12].copy_from_slice(&ck.to_be_bytes());
        assert_eq!(native_ipv4_forward(&mut pkt, &fib), None);
    }

    #[test]
    fn v6_forwarding() {
        let mut routes = RouteStore::new();
        routes.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(9));
        let fib = routes.rebuild();
        let mut pkt = ipv6_packet(
            Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 7]),
            Ipv6Addr::new([0xfd00, 0, 0, 0, 0, 0, 0, 1]),
            128,
        );
        assert_eq!(native_ipv6_forward(&mut pkt, &fib), Some(9));
        assert_eq!(pkt[7], 63);
    }

    #[test]
    fn no_route_drops() {
        let fib = RouteTables::default();
        let mut pkt = ipv4_packet(Ipv4Addr::new(10, 1, 1, 1), Ipv4Addr::new(1, 1, 1, 1), 64);
        assert_eq!(native_ipv4_forward(&mut pkt, &fib), None);
    }
}
