//! The scale gate: the compressed LPM must hold ≥1M distinct IPv4 and
//! ≥500k distinct IPv6 routes and agree with the linear-scan oracle on
//! sampled *and* adversarial keys (default route, host routes, nested
//! overlapping covers, prefix-edge probes).
//!
//! Sizes scale down in debug builds so the workspace suite stays
//! fast; `scripts/check.sh` runs `million_route_oracle_v4_v6` under
//! `--release` at full scale.

use dip_crypto::DetRng;
use dip_routes::{synthesize_v4, synthesize_v6, RouteDelta, RouteKey, RouteStore, RouteTables};
use dip_tables::fib::NextHop;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;

fn mask32(len: u8) -> u32 {
    if len == 0 {
        0
    } else {
        u32::MAX << (32 - u32::from(len))
    }
}

fn mask128(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - u32::from(len))
    }
}

/// Linear scan over the full route list: the longest covering prefix.
fn oracle_v4(routes: &[(Ipv4Addr, u8, NextHop)], key: u32) -> Option<NextHop> {
    routes
        .iter()
        .filter(|&&(p, len, _)| (key ^ p.to_u32()) & mask32(len) == 0)
        .max_by_key(|&&(_, len, _)| len)
        .map(|&(_, _, nh)| nh)
}

fn oracle_v6(routes: &[(Ipv6Addr, u8, NextHop)], key: u128) -> Option<NextHop> {
    routes
        .iter()
        .filter(|&&(p, len, _)| (key ^ p.to_u128()) & mask128(len) == 0)
        .max_by_key(|&&(_, len, _)| len)
        .map(|&(_, _, nh)| nh)
}

/// The batch walk over `keys`, cut into batches of 0 (an empty call), 1,
/// 31, 32 and 33 keys, must give the oracle's answers.
fn assert_batches_match(tables: &RouteTables, keys: &[RouteKey], expected: &[Option<NextHop>]) {
    tables.lookup_many(&[], &mut []);
    for size in [1, 31, 32, 33] {
        for (batch, want) in keys.chunks(size).zip(expected.chunks(size)) {
            let mut out = vec![None; batch.len()];
            tables.lookup_many(batch, &mut out);
            assert_eq!(out, want, "batch of {size} starting at {:?}", batch[0]);
        }
    }
}

#[test]
fn million_route_oracle_v4_v6() {
    let (n_v4, n_v6, n_probes) =
        if cfg!(debug_assertions) { (20_000, 10_000, 200) } else { (1_000_000, 500_000, 1_500) };

    // Adversarial overlay on top of the synthetic bulk: a default
    // route, nested covers of the same address, and host routes at
    // both widths.
    let mut v4: Vec<(Ipv4Addr, u8, NextHop)> = vec![
        (Ipv4Addr::new(0, 0, 0, 0), 0, NextHop::port(99)),
        (Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(81)),
        (Ipv4Addr::new(10, 64, 0, 0), 10, NextHop::port(82)),
        (Ipv4Addr::new(10, 64, 0, 0), 16, NextHop::port(83)),
        (Ipv4Addr::new(10, 64, 0, 0), 17, NextHop::port(84)),
        (Ipv4Addr::new(10, 64, 7, 0), 24, NextHop::port(85)),
        (Ipv4Addr::new(10, 64, 7, 42), 32, NextHop::port(86)),
    ];
    v4.extend(synthesize_v4(n_v4, 0xa11ce));
    let mut v6: Vec<(Ipv6Addr, u8, NextHop)> = vec![
        (Ipv6Addr::new([0, 0, 0, 0, 0, 0, 0, 0]), 0, NextHop::port(99)),
        (Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(81)),
        (Ipv6Addr::new([0xfdaa, 0xbb00, 0, 0, 0, 0, 0, 0]), 24, NextHop::port(82)),
        (Ipv6Addr::new([0xfdaa, 0xbbcc, 0, 0, 0, 0, 0, 0]), 32, NextHop::port(83)),
        (Ipv6Addr::new([0xfdaa, 0xbbcc, 0xdd00, 0, 0, 0, 0, 1]), 128, NextHop::port(84)),
    ];
    v6.extend(synthesize_v6(n_v6, 0xb0b));

    let mut store = RouteStore::new();
    for &(addr, len, nh) in &v4 {
        store.insert_v4(addr, len, nh);
    }
    for &(addr, len, nh) in &v6 {
        store.insert_v6(addr, len, nh);
    }
    let tables = store.rebuild();
    assert!(tables.v4.len() >= n_v4, "v4 table holds the full distinct set");
    assert!(tables.v6.len() >= n_v6, "v6 table holds the full distinct set");

    let mut rng = DetRng::seed_from_u64(0x0c0ffee);
    // Adversarial fixed probes: exact prefix addresses, the host
    // routes, the default-route fallback, and prefix-edge neighbors.
    let v4_fixed = [
        0u32,
        u32::MAX,
        Ipv4Addr::new(10, 64, 7, 42).to_u32(),
        Ipv4Addr::new(10, 64, 7, 43).to_u32(),
        Ipv4Addr::new(10, 64, 128, 0).to_u32(),
        Ipv4Addr::new(10, 63, 255, 255).to_u32(),
        Ipv4Addr::new(203, 0, 113, 9).to_u32(),
    ];
    // Every probe and its oracle answer, both families, for the batch walk.
    let mut probes: Vec<(RouteKey, Option<NextHop>)> = Vec::new();
    for key in v4_fixed {
        let want = oracle_v4(&v4, key);
        assert_eq!(tables.lookup_v4(Ipv4Addr::from_u32(key)), want, "v4 fixed {key:#x}");
        probes.push((RouteKey::V4(Ipv4Addr::from_u32(key)), want));
    }
    for i in 0..n_probes {
        // Alternate prefix-targeted probes (randomize uncovered bits,
        // then also probe the off-by-one neighbor) with uniform keys.
        let key = if i % 2 == 0 {
            let (addr, len, _) = v4[rng.gen_index(v4.len())];
            let noise = rng.next_u32() & !mask32(len);
            (addr.to_u32() | noise) ^ u32::from(i % 4 == 0)
        } else {
            rng.next_u32()
        };
        let want = oracle_v4(&v4, key);
        assert_eq!(tables.lookup_v4(Ipv4Addr::from_u32(key)), want, "v4 key {key:#x}");
        probes.push((RouteKey::V4(Ipv4Addr::from_u32(key)), want));
    }
    let v6_fixed = [
        0u128,
        u128::MAX,
        Ipv6Addr::new([0xfdaa, 0xbbcc, 0xdd00, 0, 0, 0, 0, 1]).to_u128(),
        Ipv6Addr::new([0xfdaa, 0xbbcc, 0xdd00, 0, 0, 0, 0, 2]).to_u128(),
        Ipv6Addr::new([0xfdaa, 0xbbcc, 0xffff, 0, 0, 0, 0, 0]).to_u128(),
        Ipv6Addr::new([0x2001, 0xdb8, 0, 0, 0, 0, 0, 1]).to_u128(),
    ];
    for key in v6_fixed {
        let want = oracle_v6(&v6, key);
        assert_eq!(tables.lookup_v6(Ipv6Addr::from_u128(key)), want, "v6 fixed {key:#x}");
        probes.push((RouteKey::V6(Ipv6Addr::from_u128(key)), want));
    }
    for i in 0..n_probes {
        let key = if i % 2 == 0 {
            let (addr, len, _) = v6[rng.gen_index(v6.len())];
            let noise =
                (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) & !mask128(len);
            (addr.to_u128() | noise) ^ u128::from(i % 4 == 0)
        } else {
            u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())
        };
        let want = oracle_v6(&v6, key);
        assert_eq!(tables.lookup_v6(Ipv6Addr::from_u128(key)), want, "v6 key {key:#x}");
        probes.push((RouteKey::V6(Ipv6Addr::from_u128(key)), want));
    }

    // The batch walk, one family at a time and with the families
    // interleaved key by key.
    let (keys, expected): (Vec<RouteKey>, Vec<Option<NextHop>>) = probes.iter().copied().unzip();
    assert_batches_match(&tables, &keys, &expected);
    let (v4_probes, v6_probes): (Vec<_>, Vec<_>) =
        probes.into_iter().partition(|(key, _)| matches!(key, RouteKey::V4(_)));
    let (keys, expected): (Vec<RouteKey>, Vec<Option<NextHop>>) =
        v4_probes.into_iter().zip(v6_probes).flat_map(|(a, b)| [a, b]).unzip();
    assert_batches_match(&tables, &keys, &expected);

    // Deltas keep working at full scale: withdraw a host route, check
    // the next-longest cover takes over, re-announce, check it's back.
    let host = Ipv4Addr::new(10, 64, 7, 42);
    let mut withdraw = RouteDelta::new();
    withdraw.withdraw_v4(host, 32);
    let after = store.commit(&withdraw);
    let mut v4_without: Vec<_> =
        v4.iter().copied().filter(|&(a, l, _)| !(a == host && l == 32)).collect();
    assert_eq!(after.lookup_v4(host), oracle_v4(&v4_without, host.to_u32()));
    let mut announce = RouteDelta::new();
    announce.announce_v4(host, 32, NextHop::port(86));
    v4_without.push((host, 32, NextHop::port(86)));
    let back = store.commit(&announce);
    assert_eq!(back.lookup_v4(host), Some(NextHop::port(86)));
    assert_eq!(store.stats().full_rebuilds, 1, "scale deltas never fall back to rebuild");
}
