//! How the flow-state maps hash and grow.
//!
//! The PIT and the content-store index are hash maps that insert and
//! remove on every NDN packet. Two properties keep them deterministic and
//! cheap:
//!
//! * they hash with a [`TableHasher`], SipHash-1-3 ([`crate::siphash`])
//!   under a key derived
//!   from the router's secret through the KDF — the same layout on every
//!   run of one router, and one that a sender who does not know the
//!   secret cannot aim at a bucket;
//! * they grow ahead of each new high-water mark to twice it
//!   (`reserve_for_new_key`). The map rehashes in place, allocating
//!   nothing, whenever its live entries fit in half its table, so once
//!   the peak is reached a steady churn of inserts and removals never
//!   allocates. A map left to grow on its own also ends up that large,
//!   but at an insert that depends on where removals left tombstones.

use crate::siphash::SipHasher13;
use dip_crypto::Block;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash};

/// The keyed [`BuildHasher`] of a router's flow-state maps.
///
/// `Default` is the all-zero key: deterministic, but public, so a table
/// that faces senders should be keyed with [`TableHasher::from_secret`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct TableHasher {
    k0: u64,
    k1: u64,
}

impl TableHasher {
    /// The hasher keyed by `secret`: `PRF(secret, "table-hash")`, split
    /// into SipHash's two key words.
    pub fn from_secret(secret: &Block) -> Self {
        let key = dip_crypto::prf(secret, "table-hash", &[]);
        let (k0, k1) = key.split_at(8);
        TableHasher {
            k0: u64::from_le_bytes(k0.try_into().expect("8 bytes")),
            k1: u64::from_le_bytes(k1.try_into().expect("8 bytes")),
        }
    }
}

impl std::fmt::Debug for TableHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The key stays out of logs.
        f.write_str("TableHasher { .. }")
    }
}

impl BuildHasher for TableHasher {
    type Hasher = SipHasher13;

    fn build_hasher(&self) -> SipHasher13 {
        SipHasher13::new_with_keys(self.k0, self.k1)
    }
}

/// Call before inserting a key `map` does not hold. `peak` is the most
/// entries the map has held; when this insert sets a new peak, the table
/// grows to hold twice it, so that it rehashes in place from then on.
pub(crate) fn reserve_for_new_key<K: Hash + Eq, V>(
    map: &mut HashMap<K, V, TableHasher>,
    peak: &mut usize,
) {
    if map.len() >= *peak {
        *peak = map.len() + 1;
        map.reserve(2 * *peak - map.len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secrets_key_the_hash_and_the_key_is_not_printed() {
        let hash = |h: &TableHasher| h.hash_one(42u32);
        let (a, b) = (TableHasher::from_secret(&[1; 16]), TableHasher::from_secret(&[2; 16]));
        assert_eq!(hash(&a), hash(&TableHasher::from_secret(&[1; 16])), "one key per secret");
        assert_ne!(hash(&a), hash(&b));
        assert_ne!(hash(&a), hash(&TableHasher::default()));
        assert_eq!(format!("{a:?}"), "TableHasher { .. }");
    }

    #[test]
    fn a_churning_map_stops_allocating_once_it_reached_its_peak() {
        let mut map: HashMap<u32, u32, TableHasher> =
            HashMap::with_hasher(TableHasher::from_secret(&[7; 16]));
        let mut peak = 0;
        let insert = |map: &mut HashMap<u32, u32, TableHasher>, peak: &mut usize, key: u32| {
            reserve_for_new_key(map, peak);
            map.insert(key, key);
        };
        for key in 0..100 {
            insert(&mut map, &mut peak, key);
        }
        assert!(map.capacity() >= 2 * peak, "grown to twice the peak");
        // Sliding window: remove the oldest, insert a new key, for many
        // times the table's size. Every tombstone-forced rehash happens in
        // place, so the table never grows.
        let table = map.capacity();
        for key in 100..10_100 {
            map.remove(&(key - 100));
            insert(&mut map, &mut peak, key);
            assert!(map.capacity() <= table, "the table grew");
        }
        assert_eq!((peak, map.len()), (100, 100));
    }
}
