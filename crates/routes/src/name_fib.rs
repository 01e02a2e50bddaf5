//! Hash-compacted NDN name FIB.
//!
//! One flat hash map keyed by `(depth, 64-bit prefix hash)`. A
//! longest-prefix lookup computes the rolling prefix hashes of the
//! queried name in a single pass (FNV-1a over length-prefixed
//! components, so `/ab/c` and `/a/bc` never merge) and probes
//! deepest-first — at most `max_depth` map probes, no pointer chasing,
//! and the map itself is `Arc`-shared between table versions so a delta
//! clones it only when a name actually changed. The witness is the
//! linear-scan oracle in `tests/name_xia_oracle.rs`.
//!
//! The 32-bit compact index (`Name::compact32`, the prototype's wire
//! fast path) is mirrored next to it. Distinct names can share a
//! compact hash; the index then holds the route of the greatest such
//! name in component order, a function of the live route set alone, so
//! a delta and a rebuild always agree on it.

use dip_tables::fib::NextHop;
use dip_wire::ndn::Name;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;
use std::sync::Arc;

/// The authoritative name routes, keyed `(compact32, components)` so the
/// names sharing one compact hash are adjacent and the greatest is last.
pub(crate) type NameRoutes = BTreeMap<(u32, Vec<Vec<u8>>), NextHop>;

/// What the compact index holds for `compact`: the route of the greatest
/// live name hashing to it.
fn compact_winner(names: &NameRoutes, compact: u32) -> Option<NextHop> {
    let end = match compact.checked_add(1) {
        Some(next) => Bound::Excluded((next, Vec::new())),
        None => Bound::Unbounded,
    };
    names.range((Bound::Included((compact, Vec::new())), end)).next_back().map(|(_, &nh)| nh)
}

const FNV64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds one length-prefixed component into a rolling FNV-1a hash.
fn fold(mut h: u64, component: &[u8]) -> u64 {
    for b in (component.len() as u32).to_be_bytes().into_iter().chain(component.iter().copied()) {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV64_PRIME);
    }
    h
}

/// The `(depth, hash)` key of a full name (all its components).
pub(crate) fn name_key(name: &Name) -> (u8, u64) {
    let mut h = FNV64_OFFSET;
    for c in name.components() {
        h = fold(h, c);
    }
    (name.len() as u8, h)
}

/// A compiled, immutable, cheaply-clonable name FIB.
#[derive(Clone, Debug, Default)]
pub struct CompactNameFib {
    by_depth: Arc<HashMap<(u8, u64), NextHop>>,
    compact: Arc<HashMap<u32, NextHop>>,
    max_depth: u8,
    len: usize,
}

impl CompactNameFib {
    /// Heap bytes of this version's two maps (estimated from their
    /// capacity, as `std`'s hash table lays it out).
    pub fn heap_bytes(&self) -> usize {
        crate::shared_map_bytes(&self.by_depth) + crate::shared_map_bytes(&self.compact)
    }

    /// Compiles the FIB from the authoritative name map (full-rebuild
    /// path). Names sharing a compact hash arrive in component order, so
    /// the last insert — the greatest name — wins, as [`compact_winner`]
    /// says.
    pub(crate) fn build_from(names: &NameRoutes) -> Self {
        let mut by_depth = HashMap::with_capacity(names.len());
        let mut compact = HashMap::with_capacity(names.len());
        let mut max_depth = 0u8;
        for ((hash, components), &nh) in names {
            let name = Name::from_components(components.clone());
            by_depth.insert(name_key(&name), nh);
            compact.insert(*hash, nh);
            max_depth = max_depth.max(name.len() as u8);
        }
        CompactNameFib {
            by_depth: Arc::new(by_depth),
            compact: Arc::new(compact),
            max_depth,
            len: names.len(),
        }
    }

    /// Applies name ops copy-on-write: clones the maps once and edits
    /// only the changed entries. `names` is the authoritative map with
    /// the ops already applied; each touched compact hash is re-derived
    /// from it, so a withdraw leaves a colliding live name indexed.
    pub(crate) fn apply_delta(&self, ops: &[(Name, Option<NextHop>)], names: &NameRoutes) -> Self {
        let mut by_depth = (*self.by_depth).clone();
        let mut compact = (*self.compact).clone();
        let mut max_depth = self.max_depth;
        for (name, action) in ops {
            match action {
                Some(nh) => {
                    by_depth.insert(name_key(name), *nh);
                    // max_depth only grows on withdraws-then-readds; a
                    // stale upper bound costs probes, never correctness.
                    max_depth = max_depth.max(name.len() as u8);
                }
                None => {
                    by_depth.remove(&name_key(name));
                }
            }
            let hash = name.compact32();
            match compact_winner(names, hash) {
                Some(nh) => compact.insert(hash, nh),
                None => compact.remove(&hash),
            };
        }
        CompactNameFib {
            by_depth: Arc::new(by_depth),
            compact: Arc::new(compact),
            max_depth,
            len: names.len(),
        }
    }

    /// Longest-prefix match on a full name: deepest-first probes over
    /// the rolling prefix hashes.
    pub fn lookup(&self, name: &Name) -> Option<NextHop> {
        let components = name.components();
        let depth = components.len().min(self.max_depth as usize);
        let mut hashes = Vec::with_capacity(depth);
        let mut h = FNV64_OFFSET;
        for c in components.iter().take(depth) {
            h = fold(h, c);
            hashes.push(h);
        }
        (1..=depth).rev().find_map(|d| self.by_depth.get(&(d as u8, hashes[d - 1])).copied())
    }

    /// Exact match on a 32-bit compact name.
    pub fn lookup_compact(&self, compact: u32) -> Option<NextHop> {
        self.compact.get(&compact).copied()
    }

    /// Number of installed name routes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no name routes are installed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn routes(entries: &[(&str, u32)]) -> NameRoutes {
        let mut names = NameRoutes::new();
        for &(text, port) in entries {
            let name = Name::parse(text);
            names.insert((name.compact32(), name.components().to_vec()), NextHop::port(port));
        }
        names
    }

    fn table(entries: &[(&str, u32)]) -> CompactNameFib {
        CompactNameFib::build_from(&routes(entries))
    }

    #[test]
    fn longest_prefix_wins_and_misses_are_none() {
        let fib = table(&[("/wl/cat", 1), ("/wl/cat/5", 2), ("/syn/aa/bb", 3)]);
        assert_eq!(fib.lookup(&Name::parse("/wl/cat/5")), Some(NextHop::port(2)));
        assert_eq!(fib.lookup(&Name::parse("/wl/cat/6")), Some(NextHop::port(1)));
        assert_eq!(fib.lookup(&Name::parse("/wl/cat/5/extra")), Some(NextHop::port(2)));
        assert_eq!(fib.lookup(&Name::parse("/syn/aa")), None);
        assert_eq!(fib.lookup(&Name::parse("/other")), None);
        assert_eq!(
            fib.lookup_compact(Name::parse("/syn/aa/bb").compact32()),
            Some(NextHop::port(3))
        );
        assert_eq!(fib.len(), 3);
    }

    #[test]
    fn component_boundaries_do_not_merge() {
        let fib = table(&[("/ab/c", 1)]);
        assert_eq!(fib.lookup(&Name::parse("/a/bc")), None);
        assert_eq!(fib.lookup(&Name::parse("/ab/c")), Some(NextHop::port(1)));
    }

    #[test]
    fn delta_matches_rebuild() {
        let fib = table(&[("/a/b", 1), ("/a/b/c", 2)]);
        let ops =
            vec![(Name::parse("/a/b"), None), (Name::parse("/x/y/z/w"), Some(NextHop::port(9)))];
        let names = routes(&[("/a/b/c", 2), ("/x/y/z/w", 9)]);
        let applied = fib.apply_delta(&ops, &names);
        let rebuilt = CompactNameFib::build_from(&names);
        for probe in ["/a/b", "/a/b/c", "/a/b/c/d", "/x/y/z/w", "/x/y"] {
            let probe = Name::parse(probe);
            assert_eq!(applied.lookup(&probe), rebuilt.lookup(&probe));
            assert_eq!(
                applied.lookup_compact(probe.compact32()),
                rebuilt.lookup_compact(probe.compact32())
            );
        }
        assert_eq!(applied.len(), rebuilt.len());
    }
}
