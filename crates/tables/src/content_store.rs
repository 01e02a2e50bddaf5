//! The NDN content store — an LRU cache of named data.
//!
//! The paper's prototype router "has no cached data, so there is no matching
//! content store", but footnote 2 notes the FIB module "can be slightly
//! modified to first match the local content store and then match the FIB".
//! This store provides that option, and is the attack surface exercised by
//! the §2.4 content-poisoning experiment (E6): without `F_pass`, a malicious
//! data packet can pollute it.

use crate::Ticks;
use dip_telemetry::Counter;
use std::collections::HashMap;
use std::sync::Arc;

/// "No node": terminates the recency list and the free list.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct Entry<K, V> {
    key: K,
    value: V,
    inserted_at: Ticks,
}

/// One slab slot. A live node (`entry` is `Some`) sits on the recency
/// list through `prev`/`next`; a free one (`entry` is `None`) sits on the
/// free list through `next` alone.
#[derive(Debug, Clone)]
struct Node<K, V> {
    prev: u32,
    next: u32,
    entry: Option<Entry<K, V>>,
}

/// An LRU content store keyed by `K` with a capacity bound.
///
/// Every per-packet operation (`insert`, `get`, `remove`, eviction)
/// touches a constant number of nodes: `index` maps a key to its slot in
/// `slab`, and the live slots are doubly linked in recency order, so the
/// eviction victim is always `head`. The invariants the operations keep:
///
/// * `index` and the live slots are in bijection: `index[k] == i` iff
///   `slab[i].entry` is `Some` with key `k`;
/// * walking `next` from `head` visits exactly the live slots, least
///   recently used first, and ends at `tail` (`prev` is the mirror);
/// * walking `next` from `free` visits exactly the slots whose `entry`
///   is `None`, so the two lists are disjoint and cover the slab.
#[derive(Debug, Clone)]
pub struct ContentStore<K: std::hash::Hash + Eq + Clone, V> {
    index: HashMap<K, u32>,
    slab: Vec<Node<K, V>>,
    /// Least recently used live slot (the eviction victim), or `NIL`.
    head: u32,
    /// Most recently used live slot, or `NIL`.
    tail: u32,
    /// First reusable slot, or `NIL`.
    free: u32,
    capacity: usize,
    /// LRU entries displaced by at-capacity inserts. Private by default;
    /// [`ContentStore::set_eviction_counter`] wires it into a telemetry
    /// registry so soaks can watch the cache hold its memory bound.
    evictions: Arc<Counter>,
}

impl<K: std::hash::Hash + Eq + Clone, V> ContentStore<K, V> {
    /// Creates a store holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        ContentStore {
            index: HashMap::new(),
            slab: Vec::new(),
            head: NIL,
            tail: NIL,
            free: NIL,
            capacity,
            evictions: Arc::new(Counter::new()),
        }
    }

    /// Routes LRU-eviction counts into `counter` (typically a
    /// `dip_cs_evictions_total` instance from a telemetry registry)
    /// instead of the private default counter.
    pub fn set_eviction_counter(&mut self, counter: Arc<Counter>) {
        self.evictions = counter;
    }

    /// Items evicted so far to hold the capacity bound.
    pub fn lru_evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Number of cached items.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Inserts (or refreshes) a cached item, evicting the least recently
    /// used item when full. Returns the evicted key, if any.
    pub fn insert(&mut self, key: K, value: V, now: Ticks) -> Option<K> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&i) = self.index.get(&key) {
            let entry = self.entry_mut(i);
            entry.value = value;
            entry.inserted_at = now;
            self.touch(i);
            return None;
        }
        let entry = Entry { key: key.clone(), value, inserted_at: now };
        let (i, evicted) = if self.index.len() >= self.capacity {
            // Full: the victim's slot takes the new entry in place.
            let i = self.head;
            self.unlink(i);
            let victim = self.slab[i as usize].entry.replace(entry).expect("head is live").key;
            self.index.remove(&victim);
            self.evictions.inc();
            (i, Some(victim))
        } else {
            (self.alloc(entry), None)
        };
        self.link_tail(i);
        self.index.insert(key, i);
        evicted
    }

    /// Looks up a cached item, refreshing its recency.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let i = *self.index.get(key)?;
        self.touch(i);
        Some(&self.entry(i).value)
    }

    /// Non-refreshing peek (for inspection in tests/experiments).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.index.get(key).map(|&i| &self.entry(i).value)
    }

    /// Removes an item (e.g. after detecting poisoning).
    pub fn remove(&mut self, key: &K) -> Option<V> {
        let i = self.index.remove(key)?;
        self.unlink(i);
        Some(self.release(i).value)
    }

    /// Purges every item inserted at or after `since` — the operator
    /// response to a detected poisoning attack (E6). Returns how many items
    /// were purged. Survivors keep their relative recency.
    pub fn purge_since(&mut self, since: Ticks) -> usize {
        let before = self.index.len();
        let mut i = self.head;
        while i != NIL {
            let next = self.slab[i as usize].next;
            if self.entry(i).inserted_at >= since {
                self.unlink(i);
                let purged = self.release(i);
                self.index.remove(&purged.key);
            }
            i = next;
        }
        before - self.index.len()
    }

    /// Clears the store.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slab.clear();
        (self.head, self.tail, self.free) = (NIL, NIL, NIL);
    }

    /// Read-only iteration over `(key, value, inserted_at)`, least
    /// recently used first (diagnostics and state comparison).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V, Ticks)> {
        let mut i = self.head;
        std::iter::from_fn(move || {
            (i != NIL).then(|| {
                let entry = self.entry(i);
                i = self.slab[i as usize].next;
                (&entry.key, &entry.value, entry.inserted_at)
            })
        })
    }

    /// Keys ordered least- to most-recently used — the exact eviction
    /// order the store would follow if filled to capacity right now.
    pub fn lru_order(&self) -> Vec<K> {
        self.iter().map(|(key, _, _)| key.clone()).collect()
    }

    fn entry(&self, i: u32) -> &Entry<K, V> {
        self.slab[i as usize].entry.as_ref().expect("indexed and listed slots are live")
    }

    fn entry_mut(&mut self, i: u32) -> &mut Entry<K, V> {
        self.slab[i as usize].entry.as_mut().expect("indexed and listed slots are live")
    }

    /// Puts `entry` into a free slot (or a new one); the slot is not yet
    /// on the recency list.
    fn alloc(&mut self, entry: Entry<K, V>) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let node = &mut self.slab[i as usize];
            self.free = node.next;
            node.entry = Some(entry);
            return i;
        }
        let i = self.slab.len();
        assert!(i < NIL as usize, "a content store holds fewer than 2^32 - 1 items");
        self.slab.push(Node { prev: NIL, next: NIL, entry: Some(entry) });
        i as u32
    }

    /// Empties an already unlinked slot onto the free list.
    fn release(&mut self, i: u32) -> Entry<K, V> {
        let node = &mut self.slab[i as usize];
        node.next = self.free;
        self.free = i;
        node.entry.take().expect("released slot was live")
    }

    /// Takes slot `i` off the recency list.
    fn unlink(&mut self, i: u32) {
        let Node { prev, next, .. } = self.slab[i as usize];
        match prev {
            NIL => self.head = next,
            p => self.slab[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.slab[n as usize].prev = prev,
        }
    }

    /// Appends slot `i` at the most-recently-used end.
    fn link_tail(&mut self, i: u32) {
        let node = &mut self.slab[i as usize];
        (node.prev, node.next) = (self.tail, NIL);
        match self.tail {
            NIL => self.head = i,
            t => self.slab[t as usize].next = i,
        }
        self.tail = i;
    }

    /// Marks slot `i` most recently used.
    fn touch(&mut self, i: u32) {
        if self.tail != i {
            self.unlink(i);
            self.link_tail(i);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_roundtrip() {
        let mut cs: ContentStore<u32, &str> = ContentStore::new(4);
        cs.insert(1, "one", 0);
        assert_eq!(cs.get(&1), Some(&"one"));
        assert_eq!(cs.get(&2), None);
    }

    #[test]
    fn lru_eviction_order() {
        let mut cs: ContentStore<u32, u32> = ContentStore::new(2);
        cs.insert(1, 10, 0);
        cs.insert(2, 20, 0);
        cs.get(&1); // 2 is now LRU
        let evicted = cs.insert(3, 30, 0);
        assert_eq!(evicted, Some(2));
        assert!(cs.peek(&1).is_some());
        assert!(cs.peek(&3).is_some());
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut cs: ContentStore<u32, u32> = ContentStore::new(2);
        cs.insert(1, 10, 0);
        cs.insert(2, 20, 0);
        assert_eq!(cs.insert(1, 11, 5), None); // update, no eviction
        assert_eq!(cs.peek(&1), Some(&11));
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn purge_since_removes_recent_insertions() {
        let mut cs: ContentStore<u32, u32> = ContentStore::new(8);
        cs.insert(1, 10, 0);
        cs.insert(2, 20, 100);
        cs.insert(3, 30, 200);
        assert_eq!(cs.purge_since(100), 2);
        assert!(cs.peek(&1).is_some());
        assert!(cs.peek(&2).is_none());
    }

    #[test]
    fn purge_then_reinsert_preserves_lru_and_capacity() {
        let mut cs: ContentStore<u32, u32> = ContentStore::new(3);
        cs.insert(1, 10, 0);
        cs.insert(2, 20, 10);
        cs.insert(3, 30, 20);
        cs.get(&1); // recency now: 2 (LRU), 3, 1 (MRU)
        assert_eq!(cs.lru_order(), vec![2, 3, 1]);

        // Operator response to poisoning at t=15: entry 3 goes.
        assert_eq!(cs.purge_since(15), 1);
        assert_eq!(cs.len(), 2);
        assert_eq!(cs.lru_order(), vec![2, 1], "purge must not disturb survivors' recency");

        // Reinsertions fill the freed slot before any eviction happens.
        assert_eq!(cs.insert(4, 40, 30), None);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs.lru_order(), vec![2, 1, 4]);

        // At capacity again, eviction resumes from the true LRU (2), not
        // from any stale bookkeeping left by the purge.
        assert_eq!(cs.insert(5, 50, 40), Some(2));
        assert_eq!(cs.lru_order(), vec![1, 4, 5]);

        // A purged key reinserted is a fresh entry: MRU recency and a new
        // insertion time, so a later purge window catches it again.
        assert_eq!(cs.insert(3, 31, 50), Some(1));
        assert_eq!(cs.lru_order(), vec![4, 5, 3]);
        assert_eq!(cs.len(), 3);
        assert_eq!(cs.purge_since(45), 1);
        assert!(cs.peek(&3).is_none());
        assert_eq!(cs.len(), 2);
    }

    #[test]
    fn evictions_are_counted_and_routable() {
        let mut cs: ContentStore<u32, u32> = ContentStore::new(2);
        cs.insert(1, 10, 0);
        cs.insert(2, 20, 0);
        assert_eq!(cs.lru_evictions(), 0);
        cs.insert(3, 30, 0); // displaces 1
        cs.insert(4, 40, 0); // displaces 2
        assert_eq!(cs.lru_evictions(), 2);
        // Refreshing an existing key never evicts.
        cs.insert(3, 31, 1);
        assert_eq!(cs.lru_evictions(), 2);
        // An external counter picks up where the private one left off.
        let shared = Arc::new(Counter::new());
        cs.set_eviction_counter(shared.clone());
        cs.insert(5, 50, 2);
        assert_eq!(shared.get(), 1);
        assert_eq!(cs.lru_evictions(), 1);
        assert_eq!(cs.len(), 2, "capacity bound holds across all of it");
    }

    #[test]
    fn zero_capacity_caches_nothing() {
        let mut cs: ContentStore<u32, u32> = ContentStore::new(0);
        assert_eq!(cs.insert(1, 10, 0), None);
        assert!(cs.is_empty());
        assert_eq!(cs.get(&1), None);
    }

    #[test]
    fn remove_and_clear() {
        let mut cs: ContentStore<u32, u32> = ContentStore::new(4);
        cs.insert(1, 10, 0);
        assert_eq!(cs.remove(&1), Some(10));
        cs.insert(2, 20, 0);
        cs.clear();
        assert!(cs.is_empty());
    }
}

/// The scan-based store this module shipped before the slab layout: a map
/// of entries stamped by a use clock, the victim found by scanning every
/// entry. Too slow for the dataplane (55 µs per insert at 8 192 entries)
/// and too simple to be wrong, so it stays as the reference the
/// differential test drives the real store against.
#[cfg(test)]
mod model {
    use super::*;
    use dip_crypto::DetRng;

    struct ModelEntry {
        value: u64,
        last_used: u64,
        inserted_at: Ticks,
    }

    struct ModelStore {
        entries: HashMap<u32, ModelEntry>,
        capacity: usize,
        clock: u64,
        evictions: u64,
    }

    impl ModelStore {
        fn new(capacity: usize) -> Self {
            ModelStore { entries: HashMap::new(), capacity, clock: 0, evictions: 0 }
        }

        fn insert(&mut self, key: u32, value: u64, now: Ticks) -> Option<u32> {
            if self.capacity == 0 {
                return None;
            }
            self.clock += 1;
            let mut evicted = None;
            if !self.entries.contains_key(&key) && self.entries.len() >= self.capacity {
                if let Some(lru) =
                    self.entries.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| *k)
                {
                    self.entries.remove(&lru);
                    self.evictions += 1;
                    evicted = Some(lru);
                }
            }
            self.entries.insert(key, ModelEntry { value, last_used: self.clock, inserted_at: now });
            evicted
        }

        fn get(&mut self, key: &u32) -> Option<&u64> {
            self.clock += 1;
            let clock = self.clock;
            self.entries.get_mut(key).map(|e| {
                e.last_used = clock;
                &e.value
            })
        }

        fn peek(&self, key: &u32) -> Option<&u64> {
            self.entries.get(key).map(|e| &e.value)
        }

        fn remove(&mut self, key: &u32) -> Option<u64> {
            self.entries.remove(key).map(|e| e.value)
        }

        fn purge_since(&mut self, since: Ticks) -> usize {
            let before = self.entries.len();
            self.entries.retain(|_, e| e.inserted_at < since);
            before - self.entries.len()
        }

        fn clear(&mut self) {
            self.entries.clear();
        }

        /// `(key, value, inserted_at)`, least recently used first.
        fn by_recency(&self) -> Vec<(u32, u64, Ticks)> {
            let mut all: Vec<_> = self
                .entries
                .iter()
                .map(|(k, e)| (e.last_used, (*k, e.value, e.inserted_at)))
                .collect();
            all.sort_unstable();
            all.into_iter().map(|(_, entry)| entry).collect()
        }
    }

    impl ContentStore<u32, u64> {
        /// The three layout invariants of the type's documentation.
        fn check_layout(&self) {
            let mut live = 0;
            let (mut prev, mut i) = (NIL, self.head);
            while i != NIL {
                let node = &self.slab[i as usize];
                let entry = node.entry.as_ref().expect("listed slot is live");
                assert_eq!(self.index.get(&entry.key), Some(&i), "index points at the slot");
                assert_eq!(node.prev, prev, "prev mirrors next");
                live += 1;
                (prev, i) = (i, node.next);
            }
            assert_eq!(self.tail, prev, "the walk ends at tail");
            assert_eq!(live, self.index.len(), "the list covers exactly the indexed slots");
            let mut free = 0;
            let mut i = self.free;
            while i != NIL {
                assert!(self.slab[i as usize].entry.is_none(), "free slot is empty");
                free += 1;
                i = self.slab[i as usize].next;
            }
            assert_eq!(live + free, self.slab.len(), "live and free slots cover the slab");
            assert!(live <= self.capacity, "capacity bound holds");
        }
    }

    fn drive(capacity: usize, steps: usize, seed: u64) {
        let mut rng = DetRng::seed_from_u64(seed);
        let mut fast: ContentStore<u32, u64> = ContentStore::new(capacity);
        let mut model = ModelStore::new(capacity);
        // Twice the capacity in keys: hits, refreshes and evictions all occur.
        let keys = 2 * capacity + 3;
        let mut now: Ticks = 0;
        for step in 0..steps {
            now += rng.gen_index(3) as u64;
            let key = rng.gen_index(keys) as u32;
            let ctx = || format!("capacity {capacity} seed {seed} step {step}");
            match rng.gen_index(1000) {
                // Over half the steps insert: the store spends its time full.
                0..=543 => {
                    let value = rng.next_u64();
                    assert_eq!(
                        fast.insert(key, value, now),
                        model.insert(key, value, now),
                        "{}",
                        ctx()
                    )
                }
                544..=793 => assert_eq!(fast.get(&key), model.get(&key), "{}", ctx()),
                794..=893 => assert_eq!(fast.peek(&key), model.peek(&key), "{}", ctx()),
                894..=983 => assert_eq!(fast.remove(&key), model.remove(&key), "{}", ctx()),
                984..=993 => {
                    let since = now.saturating_sub(rng.gen_index(12) as u64);
                    assert_eq!(fast.purge_since(since), model.purge_since(since), "{}", ctx())
                }
                // A clone carries layout, recency and the shared counter.
                994..=998 => fast = fast.clone(),
                _ => {
                    fast.clear();
                    model.clear();
                }
            }
            if step % 8 == 0 {
                fast.check_layout();
            }
            assert_eq!(fast.len(), model.entries.len(), "{}", ctx());
            assert_eq!(fast.is_empty(), model.entries.is_empty(), "{}", ctx());
            assert_eq!(fast.lru_evictions(), model.evictions, "{}", ctx());
            // One ordered comparison pins both the entry set and the recency.
            let listed: Vec<_> = fast.iter().map(|(k, v, at)| (*k, *v, at)).collect();
            assert_eq!(listed, model.by_recency(), "{}", ctx());
            let keys: Vec<u32> = listed.iter().map(|entry| entry.0).collect();
            assert_eq!(fast.lru_order(), keys, "{}", ctx());
        }
        fast.check_layout();
        assert!(capacity == 0 || model.evictions > steps as u64 / 8, "the run exercised eviction");
    }

    #[test]
    fn slab_store_matches_the_scan_model_step_by_step() {
        // 100 000 operations over the degenerate and the ordinary sizes.
        for (capacity, steps) in [(0, 2_000), (1, 30_000), (2, 38_000), (64, 30_000)] {
            drive(capacity, steps, 0xD1B0 + capacity as u64);
        }
    }
}
