//! Minimal IPv4 header codec.
//!
//! Used (a) as the *IPv4 forwarding* baseline of Figure 2 / Table 2 and
//! (b) by the border router (§2.4) when a legacy IPv4 header rides inside
//! the DIP FN locations area. Options are not supported (matching the DIP
//! prototype, which forwards plain 20-byte headers).

use crate::checksum;
use crate::error::{ensure_len, Result, WireError};

/// Length of an option-less IPv4 header.
pub const IPV4_HEADER_LEN: usize = 20;

/// An IPv4 address. (A local newtype rather than `std::net::Ipv4Addr` so the
/// wire crate stays self-contained and trivially `no_std`-portable.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Builds an address from dotted octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// The address as a big-endian integer (the LPM key).
    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// Builds from a big-endian integer.
    pub fn from_u32(v: u32) -> Self {
        Ipv4Addr(v.to_be_bytes())
    }
}

impl core::fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

/// Owned representation of an option-less IPv4 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Repr {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Payload protocol number.
    pub protocol: u8,
    /// Time to live.
    pub ttl: u8,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl Ipv4Repr {
    /// Parses and checksum-verifies a header.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        ensure_len(buf, IPV4_HEADER_LEN)?;
        if buf[0] >> 4 != 4 {
            return Err(WireError::BadVersion(buf[0] >> 4));
        }
        let ihl = usize::from(buf[0] & 0x0f) * 4;
        if ihl != IPV4_HEADER_LEN {
            return Err(WireError::Malformed("IPv4 options unsupported"));
        }
        if !checksum::verify(&buf[..IPV4_HEADER_LEN]) {
            return Err(WireError::BadChecksum);
        }
        let total_len = usize::from(u16::from_be_bytes([buf[2], buf[3]]));
        if total_len < IPV4_HEADER_LEN {
            return Err(WireError::Malformed("total length shorter than header"));
        }
        Ok(Ipv4Repr {
            src: Ipv4Addr([buf[12], buf[13], buf[14], buf[15]]),
            dst: Ipv4Addr([buf[16], buf[17], buf[18], buf[19]]),
            protocol: buf[9],
            ttl: buf[8],
            payload_len: total_len - IPV4_HEADER_LEN,
        })
    }

    /// Emits the header (with checksum) into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        ensure_len(buf, IPV4_HEADER_LEN)?;
        let total = self.payload_len + IPV4_HEADER_LEN;
        if total > usize::from(u16::MAX) {
            return Err(WireError::FieldOverflow("IPv4 total length"));
        }
        buf[0] = 0x45;
        buf[1] = 0; // DSCP/ECN
        buf[2..4].copy_from_slice(&(total as u16).to_be_bytes());
        buf[4..8].fill(0); // identification + flags/fragment
        buf[8] = self.ttl;
        buf[9] = self.protocol;
        buf[10..12].fill(0);
        buf[12..16].copy_from_slice(&self.src.0);
        buf[16..20].copy_from_slice(&self.dst.0);
        let ck = checksum::internet_checksum(&buf[..IPV4_HEADER_LEN]);
        buf[10..12].copy_from_slice(&ck.to_be_bytes());
        Ok(())
    }

    /// Serializes header + payload into a fresh buffer.
    pub fn to_bytes(&self, payload: &[u8]) -> Result<Vec<u8>> {
        let mut repr = *self;
        repr.payload_len = payload.len();
        let mut out = vec![0u8; IPV4_HEADER_LEN + payload.len()];
        repr.emit(&mut out)?;
        out[IPV4_HEADER_LEN..].copy_from_slice(payload);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv4Repr {
        Ipv4Repr {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(192, 168, 69, 100),
            protocol: 17,
            ttl: 64,
            payload_len: 0,
        }
    }

    #[test]
    fn roundtrip_with_checksum() {
        let bytes = sample().to_bytes(b"hello").unwrap();
        assert_eq!(bytes.len(), 25);
        let parsed = Ipv4Repr::parse(&bytes).unwrap();
        assert_eq!(parsed.src, sample().src);
        assert_eq!(parsed.dst, sample().dst);
        assert_eq!(parsed.payload_len, 5);
    }

    #[test]
    fn corrupt_byte_fails_checksum() {
        let mut bytes = sample().to_bytes(&[]).unwrap();
        bytes[16] ^= 0xff;
        assert_eq!(Ipv4Repr::parse(&bytes), Err(WireError::BadChecksum));
    }

    #[test]
    fn emit_into_dirty_buffer_still_verifies() {
        // Recompute-on-emit must not be poisoned by whatever the buffer
        // held before — in particular a stale checksum in bytes 10..12
        // (the reuse pattern: emitting over a previously parsed header).
        let mut buf = [0xde; IPV4_HEADER_LEN];
        buf[10] = 0xde;
        buf[11] = 0xad;
        sample().emit(&mut buf).unwrap();
        assert!(checksum::verify(&buf), "emit must zero the checksum field before summing");
        assert!(Ipv4Repr::parse(&buf).is_ok());
        // And the result is identical to emitting into a clean buffer.
        let mut clean = [0u8; IPV4_HEADER_LEN];
        sample().emit(&mut clean).unwrap();
        assert_eq!(buf, clean);
    }

    #[test]
    fn rejects_v6() {
        let mut bytes = sample().to_bytes(&[]).unwrap();
        bytes[0] = 0x65;
        assert_eq!(Ipv4Repr::parse(&bytes), Err(WireError::BadVersion(6)));
    }

    #[test]
    fn rejects_options() {
        let mut bytes = sample().to_bytes(&[]).unwrap();
        bytes[0] = 0x46; // ihl = 24
                         // fix checksum so we reach the IHL check... the IHL check fires first.
        assert_eq!(Ipv4Repr::parse(&bytes), Err(WireError::Malformed("IPv4 options unsupported")));
    }

    #[test]
    fn header_is_20_bytes_for_table2() {
        assert_eq!(IPV4_HEADER_LEN, 20);
    }

    #[test]
    fn addr_u32_roundtrip() {
        let a = Ipv4Addr::new(1, 2, 3, 4);
        assert_eq!(a.to_u32(), 0x0102_0304);
        assert_eq!(Ipv4Addr::from_u32(0x0102_0304), a);
        assert_eq!(a.to_string(), "1.2.3.4");
    }
}
