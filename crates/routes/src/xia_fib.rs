//! Compacted XIA route table.
//!
//! One hash map per principal type would cost a heap allocation and an
//! indirection per type for no information, so every route lives in a
//! single `(type, XID)`-keyed map plus the set of *declared* types —
//! XIA's evolvability contract distinguishes "I do not understand this
//! principal type" (no table) from "no route" (empty table), and that
//! distinction must survive compaction. Both maps are `Arc`-shared
//! between table versions; an empty one is not allocated at all.

use dip_tables::XiaNextHop;
use dip_wire::xia::{Xid, XidType};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// A compiled, immutable, cheaply-clonable XIA route table.
#[derive(Clone, Debug, Default)]
pub struct CompactXia {
    routes: Option<Arc<HashMap<(u32, Xid), XiaNextHop>>>,
    declared: Option<Arc<HashSet<u32>>>,
}

impl CompactXia {
    /// Heap bytes of this version's route map and declared-type set
    /// (estimated from their capacity, as `std`'s hash table lays it out).
    pub fn heap_bytes(&self) -> usize {
        let declared = self.declared.as_ref().map_or(0, |declared| {
            crate::ARC_COUNTS
                + size_of::<HashSet<u32>>()
                + crate::hash_table_bytes(declared.capacity(), size_of::<u32>())
        });
        crate::shared_map_bytes(&self.routes) + declared
    }

    /// Compiles from the authoritative route map and declared-type set
    /// (full-rebuild path).
    pub(crate) fn build_from(
        routes: &std::collections::BTreeMap<(u32, Xid), XiaNextHop>,
        declared: &std::collections::BTreeSet<u32>,
    ) -> Self {
        CompactXia::share(
            routes.iter().map(|(&k, &v)| (k, v)).collect(),
            declared.iter().copied().collect(),
        )
    }

    /// Applies XIA ops copy-on-write. Announcing a route implicitly
    /// declares its type, exactly like `RouteStore::insert_xia`.
    pub(crate) fn apply_delta(&self, ops: &[(XidType, Xid, Option<XiaNextHop>)]) -> Self {
        let mut routes = self.routes.as_deref().cloned().unwrap_or_default();
        let mut declared = self.declared.as_deref().cloned().unwrap_or_default();
        for &(ty, xid, action) in ops {
            match action {
                Some(nh) => {
                    declared.insert(ty.to_wire());
                    routes.insert((ty.to_wire(), xid), nh);
                }
                None => {
                    routes.remove(&(ty.to_wire(), xid));
                }
            }
        }
        CompactXia::share(routes, declared)
    }

    fn share(routes: HashMap<(u32, Xid), XiaNextHop>, declared: HashSet<u32>) -> Self {
        CompactXia {
            routes: (!routes.is_empty()).then(|| Arc::new(routes)),
            declared: (!declared.is_empty()).then(|| Arc::new(declared)),
        }
    }

    /// Looks up an XID: `None` both for an undeclared principal type
    /// and for a declared type with no such route.
    pub fn lookup(&self, ty: XidType, xid: &Xid) -> Option<XiaNextHop> {
        if !self.supports_type(ty) {
            return None;
        }
        self.routes.as_ref()?.get(&(ty.to_wire(), *xid)).copied()
    }

    /// Whether this router understands principal type `ty`.
    pub fn supports_type(&self, ty: XidType) -> bool {
        self.declared.as_ref().is_some_and(|declared| declared.contains(&ty.to_wire()))
    }

    /// Total number of routes across all principal types.
    pub fn len(&self) -> usize {
        self.routes.as_ref().map_or(0, |routes| routes.len())
    }

    /// Whether no routes exist.
    pub fn is_empty(&self) -> bool {
        self.routes.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, BTreeSet};

    fn xid(s: &str) -> Xid {
        Xid::derive(s.as_bytes())
    }

    #[test]
    fn declared_types_gate_lookups() {
        let mut routes = BTreeMap::new();
        routes.insert((XidType::Ad.to_wire(), xid("ad1")), XiaNextHop::Port(4));
        let mut declared = BTreeSet::new();
        declared.insert(XidType::Ad.to_wire());
        declared.insert(XidType::Hid.to_wire());
        let t = CompactXia::build_from(&routes, &declared);
        assert_eq!(t.lookup(XidType::Ad, &xid("ad1")), Some(XiaNextHop::Port(4)));
        assert_eq!(t.lookup(XidType::Hid, &xid("ad1")), None, "declared but routeless");
        assert!(t.supports_type(XidType::Hid));
        assert!(!t.supports_type(XidType::Cid), "undeclared type is not understood");
        assert_eq!(t.lookup(XidType::Cid, &xid("ad1")), None);
    }

    #[test]
    fn delta_announce_withdraw_round_trip() {
        let t = CompactXia::default();
        let up = t.apply_delta(&[(XidType::Cid, xid("c"), Some(XiaNextHop::Local))]);
        assert_eq!(up.lookup(XidType::Cid, &xid("c")), Some(XiaNextHop::Local));
        assert!(up.supports_type(XidType::Cid), "announce implies declare");
        let down = up.apply_delta(&[(XidType::Cid, xid("c"), None)]);
        assert_eq!(down.lookup(XidType::Cid, &xid("c")), None);
        assert!(down.supports_type(XidType::Cid), "withdraw keeps the type declared");
        assert!(down.is_empty());
    }
}
