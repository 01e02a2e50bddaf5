//! The delta-equivalence property: for random churn sequences over
//! every family, `snapshot + delta ≡ rebuilt snapshot` — a store that
//! commits deltas copy-on-write must answer every lookup exactly like
//! a fresh store rebuilt from the same ground truth.

use dip_crypto::DetRng;
use dip_routes::{synthesize_v4, synthesize_v6, RouteDelta, RouteKey, RouteStore, RouteTables};
use dip_tables::fib::NextHop;
use dip_tables::XiaNextHop;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::ndn::Name;
use dip_wire::xia::{Xid, XidType};
use std::collections::BTreeSet;

/// The churn universe: fixed prefix pools per family; `live` tracks
/// which pool entries are currently announced. Pool next-hops mutate
/// on replace ops so the reference rebuild sees the same ground truth.
struct Universe {
    v4: Vec<(Ipv4Addr, u8, NextHop)>,
    v6: Vec<(Ipv6Addr, u8, NextHop)>,
    names: Vec<(Name, NextHop)>,
    xia: Vec<(XidType, Xid, XiaNextHop)>,
    live_v4: BTreeSet<usize>,
    live_v6: BTreeSet<usize>,
    live_names: BTreeSet<usize>,
    live_xia: BTreeSet<usize>,
}

fn universe(seed: u64) -> Universe {
    let mut rng = DetRng::seed_from_u64(seed);
    let names: Vec<_> = (0..300)
        .map(|_| {
            let depth = rng.gen_range_inclusive(2, 4);
            let mut text = String::from("/churn");
            for _ in 0..depth {
                text.push_str(&format!("/{:03x}", rng.next_u32() & 0xfff));
            }
            (Name::parse(&text), NextHop::port(rng.gen_range_inclusive(1, 64) as u32))
        })
        .collect();
    let xia: Vec<_> = (0..200)
        .map(|i: usize| {
            let ty = if i.is_multiple_of(3) { XidType::Ad } else { XidType::Cid };
            let nh = if i.is_multiple_of(7) {
                XiaNextHop::Local
            } else {
                XiaNextHop::Port((i % 16) as u32 + 1)
            };
            (ty, Xid::derive(format!("eq-{i}").as_bytes()), nh)
        })
        .collect();
    let v4 = synthesize_v4(800, seed ^ 4);
    let v6 = synthesize_v6(800, seed ^ 6);
    Universe {
        live_v4: (0..v4.len()).collect(),
        live_v6: (0..v6.len()).collect(),
        live_names: (0..names.len()).collect(),
        live_xia: (0..xia.len()).collect(),
        v4,
        v6,
        names,
        xia,
    }
}

/// A fresh store compiled from the universe's current ground truth.
fn reference_rebuild(u: &Universe) -> RouteTables {
    let mut fresh = RouteStore::new();
    for &i in &u.live_v4 {
        let (a, l, nh) = u.v4[i];
        fresh.insert_v4(a, l, nh);
    }
    for &i in &u.live_v6 {
        let (a, l, nh) = u.v6[i];
        fresh.insert_v6(a, l, nh);
    }
    for &i in &u.live_names {
        let (ref n, nh) = u.names[i];
        fresh.insert_name(n, nh);
    }
    fresh.declare_xia_type(XidType::Ad);
    fresh.declare_xia_type(XidType::Cid);
    for &i in &u.live_xia {
        let (ty, xid, nh) = u.xia[i];
        fresh.insert_xia(ty, xid, nh);
    }
    fresh.rebuild()
}

#[test]
fn snapshot_plus_delta_equals_rebuilt_snapshot() {
    let mut u = universe(0xde17a);
    let mut rng = DetRng::seed_from_u64(0x5eed);

    let mut store = RouteStore::new();
    for &(a, l, nh) in &u.v4 {
        store.insert_v4(a, l, nh);
    }
    for &(a, l, nh) in &u.v6 {
        store.insert_v6(a, l, nh);
    }
    for (n, nh) in &u.names {
        store.insert_name(n, *nh);
    }
    store.declare_xia_type(XidType::Ad);
    store.declare_xia_type(XidType::Cid);
    for &(ty, xid, nh) in &u.xia {
        store.insert_xia(ty, xid, nh);
    }
    store.rebuild();

    let rounds: u64 = if cfg!(debug_assertions) { 12 } else { 40 };
    for round in 0..rounds {
        // One random churn batch: flaps (withdraw live / re-announce
        // dead) and replaces (live route, new next hop) per family.
        let mut delta = RouteDelta::new();
        for _ in 0..rng.gen_range_inclusive(1, 24) {
            match rng.gen_index(4) {
                0 => {
                    let i = rng.gen_index(u.v4.len());
                    if u.live_v4.contains(&i) && rng.gen_bool(0.3) {
                        u.v4[i].2 = NextHop::port(rng.gen_range_inclusive(1, 64) as u32);
                        let (a, l, nh) = u.v4[i];
                        delta.announce_v4(a, l, nh); // replace
                    } else if u.live_v4.remove(&i) {
                        let (a, l, _) = u.v4[i];
                        delta.withdraw_v4(a, l);
                    } else {
                        u.live_v4.insert(i);
                        let (a, l, nh) = u.v4[i];
                        delta.announce_v4(a, l, nh);
                    }
                }
                1 => {
                    let i = rng.gen_index(u.v6.len());
                    if u.live_v6.remove(&i) {
                        let (a, l, _) = u.v6[i];
                        delta.withdraw_v6(a, l);
                    } else {
                        u.live_v6.insert(i);
                        let (a, l, nh) = u.v6[i];
                        delta.announce_v6(a, l, nh);
                    }
                }
                2 => {
                    let i = rng.gen_index(u.names.len());
                    if u.live_names.remove(&i) {
                        delta.withdraw_name(u.names[i].0.clone());
                    } else {
                        u.live_names.insert(i);
                        let (ref n, nh) = u.names[i];
                        delta.announce_name(n.clone(), nh);
                    }
                }
                _ => {
                    let i = rng.gen_index(u.xia.len());
                    let (ty, xid, nh) = u.xia[i];
                    if u.live_xia.remove(&i) {
                        delta.withdraw_xia(ty, xid);
                    } else {
                        u.live_xia.insert(i);
                        delta.announce_xia(ty, xid, nh);
                    }
                }
            }
        }
        let incremental = store.commit(&delta);
        let reference = reference_rebuild(&u);

        // Probe every pool prefix — live and withdrawn — with the
        // uncovered bits randomized, plus the exact prefix address.
        let mut probes = Vec::new();
        for &(a, l, _) in &u.v4 {
            let mask = if l == 0 { 0 } else { u32::MAX << (32 - u32::from(l)) };
            for key in [a.to_u32(), a.to_u32() | (rng.next_u32() & !mask)] {
                let probe = Ipv4Addr::from_u32(key);
                assert_eq!(
                    incremental.lookup_v4(probe),
                    reference.lookup_v4(probe),
                    "round {round} v4 {probe:?}"
                );
                probes.push(RouteKey::V4(probe));
            }
        }
        for &(a, l, _) in &u.v6 {
            let mask = if l == 0 { 0 } else { u128::MAX << (128 - u32::from(l)) };
            let noise = (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64())) & !mask;
            for key in [a.to_u128(), a.to_u128() | noise] {
                let probe = Ipv6Addr::from_u128(key);
                assert_eq!(
                    incremental.lookup_v6(probe),
                    reference.lookup_v6(probe),
                    "round {round} v6 {probe:?}"
                );
                probes.push(RouteKey::V6(probe));
            }
        }
        // The committed tables' batch walk answers like the rebuild's
        // single lookups, in batches of 0, 1, 31, 32 and 33.
        let expected: Vec<_> = probes
            .iter()
            .map(|key| match *key {
                RouteKey::V4(a) => reference.lookup_v4(a),
                RouteKey::V6(a) => reference.lookup_v6(a),
            })
            .collect();
        incremental.lookup_many(&[], &mut []);
        for size in [1, 31, 32, 33] {
            for (batch, want) in probes.chunks(size).zip(expected.chunks(size)) {
                let mut out = vec![None; batch.len()];
                incremental.lookup_many(batch, &mut out);
                assert_eq!(out, want, "round {round} batch of {size}");
            }
        }
        for (n, _) in &u.names {
            assert_eq!(incremental.lookup_name(n), reference.lookup_name(n), "round {round} {n:?}");
            assert_eq!(
                incremental.lookup_name_compact(n.compact32()),
                reference.lookup_name_compact(n.compact32()),
                "round {round} compact {n:?}"
            );
        }
        for &(ty, xid, _) in &u.xia {
            assert_eq!(
                incremental.lookup_xia(ty, &xid),
                reference.lookup_xia(ty, &xid),
                "round {round} xia"
            );
        }
        assert_eq!(incremental.version, round + 2, "one version per commit after the seed build");
        assert_eq!(incremental.route_count(), reference.route_count());
    }
    let stats = store.stats();
    assert_eq!(stats.full_rebuilds, 1, "churn must never trigger a rebuild");
    assert_eq!(stats.deltas_applied, rounds);
}

/// `/c/1866` and `/c/652400` share the compact hash `0x72862df2`. The
/// compact index must answer from the live routes whatever order they
/// came and went in: a delta announcing or withdrawing one of the pair
/// must leave the index exactly as a rebuild from the same routes does.
#[test]
fn compact_hash_collisions_survive_announce_and_withdraw() {
    let (low, high) = (Name::parse("/c/1866"), Name::parse("/c/652400"));
    assert_eq!(low.compact32(), high.compact32());
    assert_eq!(low.compact32(), 0x7286_2df2);
    let compact = low.compact32();

    let mut store = RouteStore::new();
    store.insert_name(&high, NextHop::port(2));
    store.rebuild();

    let mut announce = RouteDelta::new();
    announce.announce_name(low.clone(), NextHop::port(1));
    let announced = store.commit(&announce);
    let mut withdraw = RouteDelta::new();
    withdraw.withdraw_name(low.clone());
    let withdrawn = store.commit(&withdraw);
    assert_eq!(
        withdrawn.lookup_name_compact(compact),
        store.rebuild().lookup_name_compact(compact)
    );
    assert_eq!(withdrawn.lookup_name_compact(compact), Some(NextHop::port(2)));

    let mut both = RouteStore::new();
    both.insert_name(&low, NextHop::port(1));
    both.insert_name(&high, NextHop::port(2));
    assert_eq!(announced.lookup_name_compact(compact), both.rebuild().lookup_name_compact(compact));
    let withdrawn = both.commit(&withdraw);
    assert_eq!(withdrawn.lookup_name_compact(compact), Some(NextHop::port(2)));
    assert_eq!(withdrawn.lookup_name(&low), None);
    assert_eq!(withdrawn.lookup_name(&high), Some(NextHop::port(2)));
}
