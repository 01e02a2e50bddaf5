//! Border-router backward compatibility (§2.4).
//!
//! "The existing network protocol header can be viewed as an FN location in
//! the DIP. For example, when a DIP host connects to another host using
//! IPv6, we set the IPv6 header in the FN location part and define the
//! corresponding forwarding operations. Afterward, the border router can
//! remove the basic header and FN definitions, so that the packet is routed
//! only based on the FN operations that are recognized by the legacy
//! devices. Similarly, to process packets from a legacy domain, the inbound
//! border router needs to add back the DIP basic header and FN
//! definitions."
//!
//! [`encap_ipv6`]/[`decap_ipv6`] (and the IPv4 pair) implement exactly that
//! transformation; both directions are loss-free inverses.

use dip_wire::ipv4::{Ipv4Repr, IPV4_HEADER_LEN};
use dip_wire::ipv6::{Ipv6Repr, IPV6_HEADER_LEN};
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};
use dip_wire::{DipPacket, Result, WireError};

/// Wraps a legacy IPv6 packet into a DIP packet: the whole 40-byte IPv6
/// header becomes the FN locations area, with `F_128_match` pointing at the
/// destination address and `F_source` at the source (inbound border
/// router).
pub fn encap_ipv6(ipv6_packet: &[u8]) -> Result<Vec<u8>> {
    let repr = Ipv6Repr::parse(ipv6_packet)?;
    let header = &ipv6_packet[..IPV6_HEADER_LEN];
    let payload = &ipv6_packet[IPV6_HEADER_LEN..];
    let dip = DipRepr {
        next_header: repr.next_header,
        hop_limit: repr.hop_limit,
        parallel: false,
        fns: vec![
            // dst at byte 24 = bit 192, src at byte 8 = bit 64 of the header.
            FnTriple::router(192, 128, FnKey::Match128),
            FnTriple::router(64, 128, FnKey::Source),
        ],
        locations: header.to_vec(),
    };
    dip.to_bytes(payload)
}

/// Strips the DIP header from a packet whose FN locations carry a legacy
/// IPv6 header, recovering the original IPv6 packet (outbound border
/// router).
pub fn decap_ipv6(dip_packet: &[u8]) -> Result<Vec<u8>> {
    let pkt = DipPacket::new_checked(dip_packet)?;
    let locs = pkt.locations();
    if locs.len() != IPV6_HEADER_LEN {
        return Err(WireError::Malformed("locations do not hold an IPv6 header"));
    }
    // Validate it actually parses as IPv6.
    Ipv6Repr::parse(locs)?;
    let mut out = locs.to_vec();
    out.extend_from_slice(pkt.payload());
    Ok(out)
}

/// IPv4 analogue of [`encap_ipv6`].
pub fn encap_ipv4(ipv4_packet: &[u8]) -> Result<Vec<u8>> {
    let repr = Ipv4Repr::parse(ipv4_packet)?;
    let header = &ipv4_packet[..IPV4_HEADER_LEN];
    let payload = &ipv4_packet[IPV4_HEADER_LEN..];
    let dip = DipRepr {
        next_header: repr.protocol,
        hop_limit: repr.ttl,
        parallel: false,
        fns: vec![
            // dst at byte 16 = bit 128, src at byte 12 = bit 96.
            FnTriple::router(128, 32, FnKey::Match32),
            FnTriple::router(96, 32, FnKey::Source),
        ],
        locations: header.to_vec(),
    };
    dip.to_bytes(payload)
}

/// IPv4 analogue of [`decap_ipv6`].
pub fn decap_ipv4(dip_packet: &[u8]) -> Result<Vec<u8>> {
    let pkt = DipPacket::new_checked(dip_packet)?;
    let locs = pkt.locations();
    if locs.len() != IPV4_HEADER_LEN {
        return Err(WireError::Malformed("locations do not hold an IPv4 header"));
    }
    Ipv4Repr::parse(locs)?;
    let mut out = locs.to_vec();
    out.extend_from_slice(pkt.payload());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_fnops::RouteStore;
    use dip_tables::Ports;
    use dip_wire::ipv4::Ipv4Addr;
    use dip_wire::ipv6::Ipv6Addr;

    fn v6_packet() -> Vec<u8> {
        Ipv6Repr {
            src: Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 1]),
            dst: Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 2]),
            next_header: 17,
            hop_limit: 61,
            payload_len: 0,
        }
        .to_bytes(b"legacy payload")
        .unwrap()
    }

    #[test]
    fn ipv6_encap_decap_is_lossless() {
        let original = v6_packet();
        let dip = encap_ipv6(&original).unwrap();
        assert_eq!(decap_ipv6(&dip).unwrap(), original);
    }

    #[test]
    fn encapsulated_v6_routes_via_match128() {
        use dip_fnops::FnRegistry;
        use dip_tables::fib::NextHop;
        let dip = encap_ipv6(&v6_packet()).unwrap();
        let mut router =
            crate::router::DipRouter::new(1, [0; 16]).with_registry(FnRegistry::standard());
        let mut routes = RouteStore::new();
        routes.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(5));
        router.state_mut().routes = routes.rebuild();
        let mut buf = dip.clone();
        let (verdict, _) = router.process(&mut buf, 0, 0);
        assert_eq!(verdict, crate::router::Verdict::Forward(Ports::one(5)));
    }

    #[test]
    fn encap_preserves_hop_limit_and_next_header() {
        let dip = encap_ipv6(&v6_packet()).unwrap();
        let pkt = DipPacket::new_checked(&dip[..]).unwrap();
        let hdr = pkt.basic_header().unwrap();
        assert_eq!(hdr.hop_limit, 61);
        assert_eq!(hdr.next_header, 17);
    }

    #[test]
    fn ipv4_encap_decap_is_lossless() {
        let original = Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(10, 0, 0, 2),
            protocol: 6,
            ttl: 33,
            payload_len: 0,
        }
        .to_bytes(b"tcp-ish")
        .unwrap();
        let dip = encap_ipv4(&original).unwrap();
        assert_eq!(decap_ipv4(&dip).unwrap(), original);
    }

    #[test]
    fn decap_rejects_non_legacy_locations() {
        let dip = DipRepr { locations: vec![0u8; 12], ..Default::default() }.to_bytes(&[]).unwrap();
        assert!(decap_ipv6(&dip).is_err());
        assert!(decap_ipv4(&dip).is_err());
    }

    #[test]
    fn encap_rejects_garbage() {
        assert!(encap_ipv6(&[0u8; 10]).is_err());
        assert!(encap_ipv4(&[0u8; 10]).is_err());
    }
}
