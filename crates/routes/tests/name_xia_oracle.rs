//! Oracles for the compiled name and XIA tables, the witnesses
//! `million_oracle.rs` is for the LPMs: every answer of a rebuilt and of
//! a delta-committed [`RouteTables`] must equal a linear scan over (for
//! XIA, a plain map of) the route list.

use dip_crypto::DetRng;
use dip_routes::{RouteDelta, RouteStore, RouteTables};
use dip_tables::fib::NextHop;
use dip_tables::XiaNextHop;
use dip_wire::ndn::Name;
use dip_wire::xia::{Xid, XidType};
use std::collections::BTreeMap;

/// A name of depth 1–5 over a small alphabet per level, so routes share
/// prefixes and probes land under them.
fn random_name(rng: &mut DetRng) -> Name {
    let depth = rng.gen_range_inclusive(1, 5);
    let mut text = String::new();
    for level in 0..depth {
        text.push_str(&format!("/l{level}-{}", rng.gen_index(6)));
    }
    Name::parse(&text)
}

/// Longest component-prefix match over every route.
fn oracle_lpm(routes: &BTreeMap<Name, NextHop>, name: &Name) -> Option<NextHop> {
    routes
        .iter()
        .filter(|(p, _)| p.is_prefix_of(name))
        .max_by_key(|(p, _)| p.len())
        .map(|(_, &nh)| nh)
}

/// Exact compact-hash match over `(compact32, next hop)` in name order:
/// among routes sharing the hash, the greatest name wins.
fn oracle_compact(hashed: &[(u32, NextHop)], compact: u32) -> Option<NextHop> {
    hashed.iter().rev().find(|(c, _)| *c == compact).map(|&(_, nh)| nh)
}

fn check_names<'a>(
    tables: &RouteTables,
    routes: &BTreeMap<Name, NextHop>,
    probes: impl Iterator<Item = &'a Name>,
) {
    let hashed: Vec<(u32, NextHop)> = routes.iter().map(|(n, &nh)| (n.compact32(), nh)).collect();
    for probe in probes {
        assert_eq!(tables.lookup_name(probe), oracle_lpm(routes, probe), "lpm {probe}");
        let compact = probe.compact32();
        assert_eq!(
            tables.lookup_name_compact(compact),
            oracle_compact(&hashed, compact),
            "compact {probe}"
        );
    }
}

#[test]
fn compiled_names_match_the_linear_scan_oracle() {
    let mut rng = DetRng::seed_from_u64(0x0a_3e5);
    let mut routes = BTreeMap::new();
    while routes.len() < 2_000 {
        routes.insert(random_name(&mut rng), NextHop::port(rng.gen_range_inclusive(1, 64) as u32));
    }
    // A known compact-hash collision rides along.
    routes.insert(Name::parse("/c/1866"), NextHop::port(70));
    routes.insert(Name::parse("/c/652400"), NextHop::port(71));

    let mut store = RouteStore::new();
    for (name, &nh) in &routes {
        store.insert_name(name, nh);
    }
    let mut probes: Vec<Name> = (0..2_000).map(|_| random_name(&mut rng)).collect();
    probes.extend(routes.keys().take(500).map(|n| n.child(b"leaf")));
    probes.extend(routes.keys().cloned());
    check_names(&store.rebuild(), &routes, probes.iter());

    // The same oracle holds after every commit of a churn sequence (on a
    // sample of the probes, to keep the debug suite quick).
    let installed: Vec<Name> = routes.keys().cloned().collect();
    for _ in 0..8 {
        let mut delta = RouteDelta::new();
        for _ in 0..40 {
            let name = if rng.gen_bool(0.5) {
                installed[rng.gen_index(installed.len())].clone()
            } else {
                random_name(&mut rng)
            };
            if rng.gen_bool(0.5) {
                routes.remove(&name);
                delta.withdraw_name(name);
            } else {
                let nh = NextHop::port(rng.gen_range_inclusive(1, 64) as u32);
                routes.insert(name.clone(), nh);
                delta.announce_name(name, nh);
            }
        }
        let mut withdraw_one = RouteDelta::new();
        withdraw_one.withdraw_name(Name::parse("/c/1866"));
        routes.remove(&Name::parse("/c/1866"));
        store.commit(&delta);
        check_names(&store.commit(&withdraw_one), &routes, probes.iter().step_by(7));
    }
}

#[test]
fn compiled_xia_separates_undeclared_from_routeless_types() {
    let mut rng = DetRng::seed_from_u64(0x0a_3e6);
    let types = [XidType::Ad, XidType::Hid, XidType::Cid, XidType::Sid, XidType::Other(0x77)];
    // Ad/Hid/Cid carry routes, Sid is declared without any, Other(0x77)
    // is never declared.
    let mut routes = BTreeMap::new();
    let mut store = RouteStore::new();
    store.declare_xia_type(XidType::Sid);
    for i in 0..600 {
        let ty = types[i % 3];
        let xid = Xid::derive(format!("oracle-{i}").as_bytes());
        let nh = if rng.gen_bool(0.1) {
            XiaNextHop::Local
        } else {
            XiaNextHop::Port(rng.gen_range_inclusive(1, 64) as u32)
        };
        routes.insert((ty.to_wire(), xid), nh);
        store.insert_xia(ty, xid, nh);
    }
    let tables = store.rebuild();
    for ty in types {
        assert_eq!(tables.xia.supports_type(ty), ty != XidType::Other(0x77), "{ty:?}");
    }
    for i in 0..1_200 {
        let xid = Xid::derive(format!("oracle-{}", i % 800).as_bytes());
        for ty in types {
            let oracle = routes.get(&(ty.to_wire(), xid)).copied();
            assert_eq!(tables.lookup_xia(ty, &xid), oracle, "{ty:?} {i}");
        }
    }
    assert_eq!(tables.xia.len(), routes.len());

    // Withdrawing every route of a type keeps it declared but routeless.
    let mut delta = RouteDelta::new();
    for (&(ty, xid), _) in routes.iter().filter(|((ty, _), _)| *ty == XidType::Cid.to_wire()) {
        delta.withdraw_xia(XidType::from_wire(ty), xid);
    }
    let after = store.commit(&delta);
    assert!(after.xia.supports_type(XidType::Cid));
    for (&(ty, xid), &nh) in &routes {
        let expect = (ty != XidType::Cid.to_wire()).then_some(nh);
        assert_eq!(after.lookup_xia(XidType::from_wire(ty), &xid), expect);
    }
}
