//! `RouteStore` — the authoritative route state, its compiled
//! [`RouteTables`], and the delta/rebuild machinery that connects them.
//!
//! The store owns the ground truth (ordered maps per family); the
//! compiled tables are immutable, `Arc`-shared views derived from it.
//! `commit` is the common path: apply a [`RouteDelta`] to the ground
//! truth, then derive the next table version copy-on-write, touching
//! only what changed. `rebuild` is the escape hatch (first build,
//! oversized delta) and is what `dip_routes_full_rebuilds_total`
//! counts — a healthy system commits deltas and almost never rebuilds.

use crate::delta::RouteDelta;
use crate::lpm::{mask_bits, CompressedLpm, PrefixStore, WALK_GROUP};
use crate::name_fib::{CompactNameFib, NameRoutes};
use crate::xia_fib::CompactXia;
use dip_tables::fib::NextHop;
use dip_tables::XiaNextHop;
use dip_telemetry::{Counter, Histogram, Registry};
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::ndn::Name;
use dip_wire::xia::{Xid, XidType};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// The destination an IP lookup is made on: what
/// [`RouteTables::lookup_many`] walks, one key per lookup.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RouteKey {
    /// An IPv4 destination (answered by [`RouteTables::lookup_v4`]).
    V4(Ipv4Addr),
    /// An IPv6 destination (answered by [`RouteTables::lookup_v6`]).
    V6(Ipv6Addr),
}

/// Longest prefix length each family can hold.
const V4_MAX_LEN: u8 = 32;
const V6_MAX_LEN: u8 = 128;

/// One immutable version of every protocol's compiled forwarding
/// table. `Clone` is a handful of `Arc` bumps — this is the value the
/// control plane ships inside a route snapshot and a worker installs
/// at an epoch boundary.
#[derive(Clone, Debug, Default)]
pub struct RouteTables {
    /// Compressed IPv4 LPM.
    pub v4: CompressedLpm,
    /// Compressed IPv6 LPM.
    pub v6: CompressedLpm,
    /// Hash-compacted NDN name FIB.
    pub names: CompactNameFib,
    /// Compacted XIA route table.
    pub xia: CompactXia,
    /// Monotone version, bumped by every commit/rebuild.
    pub version: u64,
}

impl RouteTables {
    /// IPv4 longest-prefix match.
    #[inline]
    pub fn lookup_v4(&self, addr: Ipv4Addr) -> Option<NextHop> {
        self.v4.lookup_bits(u128::from(addr.to_u32()) << 96)
    }

    /// IPv6 longest-prefix match.
    #[inline]
    pub fn lookup_v6(&self, addr: Ipv6Addr) -> Option<NextHop> {
        self.v6.lookup_bits(addr.to_u128())
    }

    /// The IPv4 or IPv6 longest-prefix match of every key, answer `i`
    /// into `out[i]` — the same answers as [`lookup_v4`](Self::lookup_v4)
    /// and [`lookup_v6`](Self::lookup_v6), with the keys of each family
    /// walked together by [`CompressedLpm::lookup_many`] so their cache
    /// misses overlap. Allocates nothing.
    ///
    /// # Panics
    ///
    /// If `out` and `keys` differ in length.
    pub fn lookup_many(&self, keys: &[RouteKey], out: &mut [Option<NextHop>]) {
        assert_eq!(keys.len(), out.len(), "lookup_many: one answer slot per key");
        for (keys, out) in keys.chunks(WALK_GROUP).zip(out.chunks_mut(WALK_GROUP)) {
            // Split the group by family, remembering where each key came
            // from, walk each family's keys together, and scatter back.
            let mut bits = [[0u128; WALK_GROUP]; 2];
            let mut from = [[0usize; WALK_GROUP]; 2];
            let mut count = [0usize; 2];
            for (i, key) in keys.iter().enumerate() {
                let (family, b) = match *key {
                    RouteKey::V4(a) => (0, u128::from(a.to_u32()) << 96),
                    RouteKey::V6(a) => (1, a.to_u128()),
                };
                bits[family][count[family]] = b;
                from[family][count[family]] = i;
                count[family] += 1;
            }
            for (family, lpm) in [&self.v4, &self.v6].into_iter().enumerate() {
                let n = count[family];
                if n == 0 {
                    continue;
                }
                let mut answers = [None; WALK_GROUP];
                lpm.lookup_many(&bits[family][..n], &mut answers[..n]);
                for (&i, answer) in from[family][..n].iter().zip(answers) {
                    out[i] = answer;
                }
            }
        }
    }

    /// NDN longest-name-prefix match.
    #[inline]
    pub fn lookup_name(&self, name: &Name) -> Option<NextHop> {
        self.names.lookup(name)
    }

    /// NDN exact match on a 32-bit compact name.
    #[inline]
    pub fn lookup_name_compact(&self, compact: u32) -> Option<NextHop> {
        self.names.lookup_compact(compact)
    }

    /// XIA per-principal lookup.
    #[inline]
    pub fn lookup_xia(&self, ty: XidType, xid: &Xid) -> Option<XiaNextHop> {
        self.xia.lookup(ty, xid)
    }

    /// Total routes across all families.
    pub fn route_count(&self) -> usize {
        self.v4.len() + self.v6.len() + self.names.len() + self.xia.len()
    }

    /// Heap bytes this version holds: exact for the two LPMs, estimated
    /// from capacity for the name and XIA maps. Versions sharing
    /// structure each count it in full.
    pub fn heap_bytes(&self) -> usize {
        self.v4.heap_bytes()
            + self.v6.heap_bytes()
            + self.names.heap_bytes()
            + self.xia.heap_bytes()
    }
}

/// Deterministic commit/rebuild counters (mirrored into telemetry when
/// a registry is attached; kept as plain integers so reports stay
/// reproducible without one).
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// Deltas committed.
    pub deltas_applied: u64,
    /// Individual route operations carried by those deltas.
    pub delta_routes: u64,
    /// Full table rebuilds (first build + oversized-delta fallbacks).
    pub full_rebuilds: u64,
    /// Epoch publications noted via [`RouteStore::note_epoch_swap`].
    pub epoch_swaps: u64,
    /// IP route insertions and delta operations refused because their
    /// prefix length exceeds the family's width (above 32 for IPv4, above
    /// 128 for IPv6).
    pub invalid_routes: u64,
}

/// The `dip_routes_*` telemetry family.
struct RoutesMetrics {
    delta_routes: Arc<Counter>,
    deltas_applied: Arc<Counter>,
    apply_ns: Arc<Histogram>,
    epoch_swaps: Arc<Counter>,
    full_rebuilds: Arc<Counter>,
}

/// Log-spaced bounds for the delta-apply latency histogram: 1 µs to
/// ~67 ms by powers of two.
fn apply_bounds() -> Vec<u64> {
    (0..17).map(|i| 1_000u64 << i).collect()
}

/// Authoritative, incrementally-updatable forwarding state for every
/// protocol, plus its current compiled [`RouteTables`].
#[derive(Default)]
pub struct RouteStore {
    v4: PrefixStore,
    v6: PrefixStore,
    names: NameRoutes,
    xia_routes: BTreeMap<(u32, Xid), XiaNextHop>,
    xia_types: BTreeSet<u32>,
    tables: RouteTables,
    stats: StoreStats,
    metrics: Option<RoutesMetrics>,
}

impl std::fmt::Debug for RouteStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouteStore")
            .field("v4", &self.v4.len())
            .field("v6", &self.v6.len())
            .field("names", &self.names.len())
            .field("xia", &self.xia_routes.len())
            .field("version", &self.tables.version)
            .field("stats", &self.stats)
            .finish()
    }
}

impl RouteStore {
    /// An empty store with empty compiled tables at version 0.
    pub fn new() -> Self {
        RouteStore::default()
    }

    /// Registers the `dip_routes_*` family under `labels`: delta size
    /// and count counters, the wall-clock apply-latency histogram,
    /// epoch swaps, and full-rebuild fallbacks. Until called, only the
    /// deterministic [`StoreStats`] are kept.
    pub fn attach_metrics(&mut self, registry: &Registry, labels: &[(&str, &str)]) {
        self.metrics = Some(RoutesMetrics {
            delta_routes: registry.counter(
                "dip_routes_delta_routes_total",
                "Individual route operations carried by committed deltas",
                labels,
            ),
            deltas_applied: registry.counter(
                "dip_routes_deltas_applied_total",
                "Route deltas committed copy-on-write",
                labels,
            ),
            apply_ns: registry.histogram(
                "dip_routes_apply_ns",
                "Wall-clock nanoseconds to commit one route delta",
                labels,
                &apply_bounds(),
            ),
            epoch_swaps: registry.counter(
                "dip_routes_epoch_swaps_total",
                "Compiled tables published through an epoch cell",
                labels,
            ),
            full_rebuilds: registry.counter(
                "dip_routes_full_rebuilds_total",
                "Full table rebuilds (first build and oversized-delta fallbacks)",
                labels,
            ),
        });
    }

    /// Records that the current tables were published through an epoch
    /// cell (called by whoever performs the publish).
    pub fn note_epoch_swap(&mut self) {
        self.stats.epoch_swaps += 1;
        if let Some(m) = &self.metrics {
            m.epoch_swaps.inc();
        }
    }

    /// Inserts an IPv4 route into the ground truth (compile later via
    /// [`RouteStore::rebuild`] — seeding path). A length above 32 is
    /// refused and counted in [`StoreStats::invalid_routes`].
    pub fn insert_v4(&mut self, addr: Ipv4Addr, len: u8, next_hop: NextHop) {
        if self.admit_len(len, V4_MAX_LEN) {
            self.v4.insert(u128::from(addr.to_u32()) << 96, len, next_hop);
        }
    }

    /// Inserts an IPv6 route into the ground truth. A length above 128
    /// is refused and counted in [`StoreStats::invalid_routes`].
    pub fn insert_v6(&mut self, addr: Ipv6Addr, len: u8, next_hop: NextHop) {
        if self.admit_len(len, V6_MAX_LEN) {
            self.v6.insert(addr.to_u128(), len, next_hop);
        }
    }

    /// Whether a prefix of `len` bits fits a family `max` bits wide;
    /// counts the refusal when it does not. This is the one gate in front
    /// of the prefix maps, so the compiled tables never hold a node below
    /// bit 128.
    fn admit_len(&mut self, len: u8, max: u8) -> bool {
        let fits = len <= max;
        if !fits {
            self.stats.invalid_routes += 1;
        }
        fits
    }

    /// Inserts an NDN name route into the ground truth.
    pub fn insert_name(&mut self, name: &Name, next_hop: NextHop) {
        self.names.insert((name.compact32(), name.components().to_vec()), next_hop);
    }

    /// Inserts an XIA route into the ground truth (declares its type).
    pub fn insert_xia(&mut self, ty: XidType, xid: Xid, next_hop: XiaNextHop) {
        self.xia_types.insert(ty.to_wire());
        self.xia_routes.insert((ty.to_wire(), xid), next_hop);
    }

    /// Declares an XIA principal type understood even without routes.
    pub fn declare_xia_type(&mut self, ty: XidType) {
        self.xia_types.insert(ty.to_wire());
    }

    /// Drops all ground truth (the compiled tables stay until the next
    /// rebuild/commit).
    pub fn clear(&mut self) {
        self.v4.clear();
        self.v6.clear();
        self.names.clear();
        self.xia_routes.clear();
        self.xia_types.clear();
    }

    /// Compiles every table from scratch. This is the counted fallback
    /// path: first build after seeding, or a delta so large that
    /// incremental application would touch most of the table anyway.
    pub fn rebuild(&mut self) -> RouteTables {
        let t0 = Instant::now();
        self.tables = RouteTables {
            v4: CompressedLpm::build_from(&self.v4),
            v6: CompressedLpm::build_from(&self.v6),
            names: CompactNameFib::build_from(&self.names),
            xia: CompactXia::build_from(&self.xia_routes, &self.xia_types),
            version: self.tables.version + 1,
        };
        self.stats.full_rebuilds += 1;
        if let Some(m) = &self.metrics {
            m.full_rebuilds.inc();
            m.apply_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        self.tables.clone()
    }

    /// Commits a delta: applies it to the ground truth, then derives
    /// the next compiled version copy-on-write — only the touched LPM
    /// chunks and slot leaves are rebuilt, only the root pages holding
    /// them are copied, and untouched pages and families are shared
    /// with the previous version by `Arc`. An IP operation
    /// whose length exceeds its family's width is skipped and counted in
    /// [`StoreStats::invalid_routes`].
    pub fn commit(&mut self, delta: &RouteDelta) -> RouteTables {
        let t0 = Instant::now();

        let mut v4_slots = BTreeSet::new();
        let mut v4_shorts = Vec::new();
        for &(addr, len, action) in &delta.v4 {
            if !self.admit_len(len, V4_MAX_LEN) {
                continue;
            }
            let bits = u128::from(addr.to_u32()) << 96;
            let changed = match action {
                Some(nh) => self.v4.insert(bits, len, nh),
                None => self.v4.remove(bits, len),
            };
            if changed {
                if len <= 16 {
                    v4_shorts.push((bits & mask_bits(len), len));
                } else {
                    v4_slots.insert((bits >> 112) as u16);
                }
            }
        }
        let mut v6_slots = BTreeSet::new();
        let mut v6_shorts = Vec::new();
        for &(addr, len, action) in &delta.v6 {
            if !self.admit_len(len, V6_MAX_LEN) {
                continue;
            }
            let bits = addr.to_u128();
            let changed = match action {
                Some(nh) => self.v6.insert(bits, len, nh),
                None => self.v6.remove(bits, len),
            };
            if changed {
                if len <= 16 {
                    v6_shorts.push((bits & mask_bits(len), len));
                } else {
                    v6_slots.insert((bits >> 112) as u16);
                }
            }
        }
        for (name, action) in &delta.names {
            let key = (name.compact32(), name.components().to_vec());
            match action {
                Some(nh) => {
                    self.names.insert(key, *nh);
                }
                None => {
                    self.names.remove(&key);
                }
            }
        }
        for &(ty, xid, action) in &delta.xia {
            match action {
                Some(nh) => {
                    self.xia_types.insert(ty.to_wire());
                    self.xia_routes.insert((ty.to_wire(), xid), nh);
                }
                None => {
                    self.xia_routes.remove(&(ty.to_wire(), xid));
                }
            }
        }

        let v4 = if v4_slots.is_empty() && v4_shorts.is_empty() {
            self.tables.v4.clone()
        } else {
            self.tables.v4.apply_delta(&self.v4, &v4_slots, &v4_shorts)
        };
        let v6 = if v6_slots.is_empty() && v6_shorts.is_empty() {
            self.tables.v6.clone()
        } else {
            self.tables.v6.apply_delta(&self.v6, &v6_slots, &v6_shorts)
        };
        let names = if delta.names.is_empty() {
            self.tables.names.clone()
        } else {
            self.tables.names.apply_delta(&delta.names, &self.names)
        };
        let xia = if delta.xia.is_empty() {
            self.tables.xia.clone()
        } else {
            self.tables.xia.apply_delta(&delta.xia)
        };
        self.tables = RouteTables { v4, v6, names, xia, version: self.tables.version + 1 };

        self.stats.deltas_applied += 1;
        self.stats.delta_routes += delta.len() as u64;
        if let Some(m) = &self.metrics {
            m.deltas_applied.inc();
            m.delta_routes.add(delta.len() as u64);
            m.apply_ns.observe(t0.elapsed().as_nanos() as u64);
        }
        self.tables.clone()
    }

    /// The current compiled tables (cheap clone).
    pub fn tables(&self) -> RouteTables {
        self.tables.clone()
    }

    /// Total ground-truth routes across all families.
    pub fn route_count(&self) -> usize {
        self.v4.len() + self.v6.len() + self.names.len() + self.xia_routes.len()
    }

    /// The deterministic commit/rebuild counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// FNV-1a over the ground truth in canonical order: v4 then v6
    /// routes sorted by prefix, names sorted by components, declared XIA
    /// types, XIA routes. Equal route sets give equal digests, which is
    /// how seeded route sets are pinned across refactors.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (tag, family) in [(4u8, &self.v4), (6, &self.v6)] {
            fold(&[tag]);
            let mut routes: Vec<_> = family.routes().collect();
            routes.sort_unstable_by_key(|&(bits, len, _)| (bits, len));
            for (bits, len, nh) in routes {
                fold(&bits.to_be_bytes());
                fold(&[len]);
                fold(&nh.port.to_be_bytes());
            }
        }
        fold(b"n");
        let mut names: Vec<_> = self.names.iter().map(|((_, c), nh)| (c, nh)).collect();
        names.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (components, nh) in names {
            fold(&(components.len() as u32).to_be_bytes());
            for c in components {
                fold(&(c.len() as u32).to_be_bytes());
                fold(c);
            }
            fold(&nh.port.to_be_bytes());
        }
        fold(b"x");
        for ty in &self.xia_types {
            fold(&ty.to_be_bytes());
        }
        for (&(ty, xid), nh) in &self.xia_routes {
            fold(&ty.to_be_bytes());
            fold(&xid.0);
            match nh {
                XiaNextHop::Local => fold(&[0]),
                XiaNextHop::Port(p) => {
                    fold(&[1]);
                    fold(&p.to_be_bytes());
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tables_allocate_nothing() {
        assert_eq!(RouteTables::default().heap_bytes(), 0);
        assert_eq!(RouteStore::new().rebuild().heap_bytes(), 0);
        // Withdrawing the last name and XIA route frees their maps too.
        let mut store = RouteStore::new();
        let name = Name::parse("/wl/cat/1");
        let xid = Xid::derive(b"ad");
        store.insert_name(&name, NextHop::port(3));
        store.insert_xia(XidType::Ad, xid, XiaNextHop::Port(4));
        let full = store.rebuild();
        assert!(full.names.heap_bytes() > 0 && full.xia.heap_bytes() > 0);
        let mut delta = RouteDelta::new();
        delta.withdraw_name(name.clone());
        delta.withdraw_xia(XidType::Ad, xid);
        let emptied = store.commit(&delta);
        assert_eq!(emptied.names.heap_bytes(), 0);
        assert_eq!(
            (emptied.lookup_name(&name), emptied.lookup_xia(XidType::Ad, &xid)),
            (None, None)
        );
        assert!(emptied.xia.supports_type(XidType::Ad), "the type stays declared");
    }

    #[test]
    fn commit_shares_untouched_families_and_counts_honestly() {
        let mut store = RouteStore::new();
        store.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        store.insert_name(&Name::parse("/wl/cat/1"), NextHop::port(3));
        let t1 = store.rebuild();
        assert_eq!(store.stats().full_rebuilds, 1);
        assert_eq!(t1.version, 1);

        let mut delta = RouteDelta::new();
        delta.announce_v4(Ipv4Addr::new(10, 1, 2, 0), 24, NextHop::port(7));
        let t2 = store.commit(&delta);
        assert_eq!(t2.version, 2);
        assert_eq!(store.stats().deltas_applied, 1);
        assert_eq!(store.stats().delta_routes, 1);
        assert_eq!(store.stats().full_rebuilds, 1, "a commit is not a rebuild");
        assert_eq!(t2.lookup_v4(Ipv4Addr::new(10, 1, 2, 9)), Some(NextHop::port(7)));
        assert_eq!(t2.lookup_v4(Ipv4Addr::new(10, 9, 9, 9)), Some(NextHop::port(1)));
        assert_eq!(t2.lookup_name(&Name::parse("/wl/cat/1/seg0")), Some(NextHop::port(3)));
    }

    #[test]
    fn impossible_prefix_lengths_are_refused_and_counted() {
        let mut store = RouteStore::new();
        store.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        store.insert_v4(Ipv4Addr::new(10, 1, 2, 3), 33, NextHop::port(9));
        store.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(2));
        store.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 1]), 129, NextHop::port(9));
        let t = store.rebuild();
        assert_eq!(t.lookup_v4(Ipv4Addr::new(10, 1, 2, 3)), Some(NextHop::port(1)));
        assert_eq!(store.route_count(), 2);
        assert_eq!(store.stats().invalid_routes, 2);

        // Through a delta: a /129 and a /200 announce, a /33 withdraw.
        let host = Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 1]);
        let mut delta = RouteDelta::new();
        delta.announce_v6(host, 129, NextHop::port(9));
        delta.announce_v6(host, 200, NextHop::port(9));
        delta.withdraw_v4(Ipv4Addr::new(10, 0, 0, 0), 33);
        delta.announce_v4(Ipv4Addr::new(10, 1, 2, 0), 24, NextHop::port(7));
        let t = store.commit(&delta);
        assert_eq!(t.lookup_v6(host), Some(NextHop::port(2)));
        assert_eq!(t.lookup_v4(Ipv4Addr::new(10, 1, 2, 3)), Some(NextHop::port(7)));
        assert_eq!(store.route_count(), 3);
        assert_eq!(store.stats().invalid_routes, 5);
    }

    #[test]
    fn lookup_many_answers_each_family_like_its_single_lookup() {
        let mut store = RouteStore::new();
        store.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        store.insert_v4(Ipv4Addr::new(10, 1, 2, 0), 24, NextHop::port(2));
        store.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(3));
        store.insert_v6(Ipv6Addr::new([0xfdaa, 7, 0, 0, 0, 0, 0, 0]), 48, NextHop::port(4));
        let t = store.rebuild();
        // Interleaved families, more keys than one walk group.
        let keys: Vec<RouteKey> = (0..70u16)
            .map(|i| match i % 3 {
                0 => RouteKey::V4(Ipv4Addr::new(10, 1, (i % 4) as u8, 1)),
                1 => RouteKey::V6(Ipv6Addr::new([0xfdaa, i % 9, 0, 0, 0, 0, 0, 1])),
                _ => RouteKey::V4(Ipv4Addr::new(11, 0, 0, i as u8)),
            })
            .collect();
        let mut out = vec![None; keys.len()];
        t.lookup_many(&keys, &mut out);
        for (key, answer) in keys.iter().zip(out) {
            let single = match *key {
                RouteKey::V4(a) => t.lookup_v4(a),
                RouteKey::V6(a) => t.lookup_v6(a),
            };
            assert_eq!(answer, single, "{key:?}");
        }
    }

    #[test]
    fn metrics_mirror_the_stats() {
        let registry = Registry::new();
        let mut store = RouteStore::new();
        store.attach_metrics(&registry, &[("node", "t")]);
        store.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(2));
        store.rebuild();
        let mut delta = RouteDelta::new();
        delta.announce_v6(Ipv6Addr::new([0xfdaa, 1, 0, 0, 0, 0, 0, 0]), 32, NextHop::port(5));
        delta.withdraw_v6(Ipv6Addr::new([0xfdaa, 2, 0, 0, 0, 0, 0, 0]), 32);
        store.commit(&delta);
        store.note_epoch_swap();
        let snap = registry.snapshot();
        assert_eq!(snap.sum_where("dip_routes_full_rebuilds_total", &[]), 1);
        assert_eq!(snap.sum_where("dip_routes_deltas_applied_total", &[]), 1);
        assert_eq!(snap.sum_where("dip_routes_delta_routes_total", &[]), 2);
        assert_eq!(snap.sum_where("dip_routes_epoch_swaps_total", &[]), 1);
    }
}
