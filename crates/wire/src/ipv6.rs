//! Minimal IPv6 header codec — the 40-byte fixed header.
//!
//! Serves as the *IPv6 forwarding* baseline (Figure 2, Table 2) and as the
//! legacy header carried in FN locations for the §2.4 backward-compatibility
//! path ("when a DIP host connects to another host using IPv6, we set the
//! IPv6 header in the FN location part").

use crate::error::{ensure_len, Result, WireError};

/// Length of the fixed IPv6 header.
pub const IPV6_HEADER_LEN: usize = 40;

/// An IPv6 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv6Addr(pub [u8; 16]);

impl Ipv6Addr {
    /// Builds an address from eight 16-bit groups.
    pub fn new(groups: [u16; 8]) -> Self {
        let mut b = [0u8; 16];
        for (i, g) in groups.iter().enumerate() {
            b[2 * i..2 * i + 2].copy_from_slice(&g.to_be_bytes());
        }
        Ipv6Addr(b)
    }

    /// The address as a big-endian u128 (the LPM key).
    pub fn to_u128(self) -> u128 {
        u128::from_be_bytes(self.0)
    }

    /// Builds from a big-endian u128.
    pub fn from_u128(v: u128) -> Self {
        Ipv6Addr(v.to_be_bytes())
    }
}

impl core::fmt::Display for Ipv6Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        for i in 0..8 {
            if i > 0 {
                write!(f, ":")?;
            }
            write!(f, "{:x}", u16::from_be_bytes([self.0[2 * i], self.0[2 * i + 1]]))?;
        }
        Ok(())
    }
}

/// Owned representation of the fixed IPv6 header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv6Repr {
    /// Source address.
    pub src: Ipv6Addr,
    /// Destination address.
    pub dst: Ipv6Addr,
    /// Next header protocol number.
    pub next_header: u8,
    /// Hop limit.
    pub hop_limit: u8,
    /// Payload length in bytes.
    pub payload_len: usize,
}

impl Ipv6Repr {
    /// Parses the fixed header.
    pub fn parse(buf: &[u8]) -> Result<Self> {
        ensure_len(buf, IPV6_HEADER_LEN)?;
        if buf[0] >> 4 != 6 {
            return Err(WireError::BadVersion(buf[0] >> 4));
        }
        let mut src = [0u8; 16];
        let mut dst = [0u8; 16];
        src.copy_from_slice(&buf[8..24]);
        dst.copy_from_slice(&buf[24..40]);
        Ok(Ipv6Repr {
            src: Ipv6Addr(src),
            dst: Ipv6Addr(dst),
            next_header: buf[6],
            hop_limit: buf[7],
            payload_len: usize::from(u16::from_be_bytes([buf[4], buf[5]])),
        })
    }

    /// Emits the fixed header into the front of `buf`.
    pub fn emit(&self, buf: &mut [u8]) -> Result<()> {
        ensure_len(buf, IPV6_HEADER_LEN)?;
        if self.payload_len > usize::from(u16::MAX) {
            return Err(WireError::FieldOverflow("IPv6 payload length"));
        }
        buf[0] = 0x60;
        buf[1..4].fill(0); // traffic class + flow label
        buf[4..6].copy_from_slice(&(self.payload_len as u16).to_be_bytes());
        buf[6] = self.next_header;
        buf[7] = self.hop_limit;
        buf[8..24].copy_from_slice(&self.src.0);
        buf[24..40].copy_from_slice(&self.dst.0);
        Ok(())
    }

    /// Serializes header + payload into a fresh buffer.
    pub fn to_bytes(&self, payload: &[u8]) -> Result<Vec<u8>> {
        let mut repr = *self;
        repr.payload_len = payload.len();
        let mut out = vec![0u8; IPV6_HEADER_LEN + payload.len()];
        repr.emit(&mut out)?;
        out[IPV6_HEADER_LEN..].copy_from_slice(payload);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Ipv6Repr {
        Ipv6Repr {
            src: Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 1]),
            dst: Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0x100]),
            next_header: 17,
            hop_limit: 64,
            payload_len: 0,
        }
    }

    #[test]
    fn roundtrip() {
        let bytes = sample().to_bytes(b"abc").unwrap();
        assert_eq!(bytes.len(), 43);
        let parsed = Ipv6Repr::parse(&bytes).unwrap();
        assert_eq!(parsed.src, sample().src);
        assert_eq!(parsed.dst, sample().dst);
        assert_eq!(parsed.payload_len, 3);
        assert_eq!(parsed.hop_limit, 64);
    }

    #[test]
    fn rejects_v4() {
        let mut b = sample().to_bytes(&[]).unwrap();
        b[0] = 0x45;
        assert_eq!(Ipv6Repr::parse(&b), Err(WireError::BadVersion(4)));
    }

    #[test]
    fn header_is_40_bytes_for_table2() {
        assert_eq!(IPV6_HEADER_LEN, 40);
    }

    #[test]
    fn display_groups() {
        let a = Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 1]);
        assert_eq!(a.to_string(), "fdaa:0:0:0:0:0:0:1");
    }

    #[test]
    fn u128_roundtrip() {
        let a = Ipv6Addr::new([1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(Ipv6Addr::from_u128(a.to_u128()), a);
    }
}
