//! Deterministic *distinct* synthetic route generators.
//!
//! Drawing with replacement (as the workload tables do) collides a
//! million draws down to ~650 k distinct prefixes — fine for seeding a
//! workload table, useless for proving "this structure holds ≥1M
//! routes". These generators loop until exactly `n` distinct
//! `(prefix, len)` pairs exist; identical `(n, seed)` always produce
//! the identical route list, in insertion order.

use dip_crypto::DetRng;
use dip_tables::fib::NextHop;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use std::collections::HashSet;

/// `n` distinct IPv4 routes (lengths 8..=32, ports 1..=64).
pub fn synthesize_v4(n: usize, seed: u64) -> Vec<(Ipv4Addr, u8, NextHop)> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x5bd1_e995_7b79_f611);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = rng.gen_range_inclusive(8, 32) as u8;
        let addr = rng.next_u32() & (u32::MAX << (32 - u32::from(len)));
        if seen.insert((addr, len)) {
            let port = rng.gen_range_inclusive(1, 64) as u32;
            out.push((Ipv4Addr::from_u32(addr), len, NextHop::port(port)));
        }
    }
    out
}

/// `n` distinct IPv6 routes (lengths 16..=128, ports 1..=64).
pub fn synthesize_v6(n: usize, seed: u64) -> Vec<(Ipv6Addr, u8, NextHop)> {
    let mut rng = DetRng::seed_from_u64(seed ^ 0x2545_f491_4f6c_dd1d);
    let mut seen = HashSet::with_capacity(n);
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let len = rng.gen_range_inclusive(16, 128) as u8;
        let raw = u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        let addr = raw & crate::lpm::mask_bits(len);
        if seen.insert((addr, len)) {
            let port = rng.gen_range_inclusive(1, 64) as u32;
            out.push((Ipv6Addr::from_u128(addr), len, NextHop::port(port)));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_distinct_and_deterministic() {
        let a = synthesize_v4(5_000, 42);
        let b = synthesize_v4(5_000, 42);
        assert_eq!(a, b);
        let distinct: HashSet<_> = a.iter().map(|&(addr, len, _)| (addr.to_u32(), len)).collect();
        assert_eq!(distinct.len(), 5_000);

        let v6 = synthesize_v6(2_000, 42);
        let distinct6: HashSet<_> = v6.iter().map(|&(a, l, _)| (a.to_u128(), l)).collect();
        assert_eq!(distinct6.len(), 2_000);
    }
}
