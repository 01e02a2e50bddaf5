//! Poptrie-style compressed multibit LPM with copy-on-write deltas.
//!
//! The CRAM lens (PAPERS.md): a million-route FIB is *compressible*
//! because next-hop information is massively redundant — long runs of
//! adjacent prefixes share a hop. The layout here is the classic
//! direct-pointing + poptrie split:
//!
//! * a 2^16-entry **root array** direct-indexes the top 16 destination
//!   bits. Routes of length ≤ 16 are leaf-pushed into a flat
//!   `root_leaf` table (one `Option<NextHop>` per slot); routes longer
//!   than 16 bits live in an immutable per-slot [`Chunk`];
//! * a **chunk** is a stride-8 multibit trie in poptrie encoding: each
//!   node holds a 256-bit `vector` bitmap (set ⇒ the byte value
//!   descends into a child node) and a 256-bit `leafvec` bitmap marking
//!   the start of each run of equal leaf values, so popcount arithmetic
//!   replaces pointers and equal-next-hop runs cost one stored leaf.
//!
//! A lookup is: index the root by the top 16 bits, walk the chunk one
//! byte at a time (`vector` bit set ⇒ popcount into the child; clear ⇒
//! popcount into the leaf run), and fall back to `root_leaf` when the
//! chunk has no covering route — a chunk only ever holds len > 16
//! routes, so a chunk hit is always the longer match.
//!
//! Each of those steps is a dependent memory access, and over a large
//! table most of them miss the cache. [`CompressedLpm::lookup_many`]
//! walks a batch of keys *level-synchronously* — every key's root slot
//! first, then every still-descending key one chunk level down, and so
//! on — so the misses of independent keys are in flight together instead
//! of one key at a time (the CRAM lens again: count dependent accesses,
//! then overlap them). Both walks drive the one level step,
//! `Chunk::step`, so a node is decoded in exactly one place.
//!
//! Updates never mutate published state. The authoritative routes live
//! in a [`PrefixStore`] (two ordered maps, short/long); applying a
//! delta clones the 65 536-slot chunk vector (cheap: `Option<Arc>`s),
//! rebuilds only the touched chunks from the store, and recomputes only
//! the `root_leaf` ranges covered by changed short prefixes. Readers
//! holding the previous [`CompressedLpm`] keep a consistent table —
//! the epoch swap machinery in the dataplane decides when they move.

use dip_tables::fib::NextHop;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Number of direct-pointing root slots (top 16 bits).
pub(crate) const SLOTS: usize = 1 << 16;

/// Keys walked together by [`CompressedLpm::lookup_many`]: a dataplane
/// worker's default batch, and few enough that the walk state stays in
/// registers and one stack frame.
pub const WALK_GROUP: usize = 32;

/// Left-aligned mask of the top `len` bits of a `u128`.
#[inline]
pub(crate) fn mask_bits(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - u32::from(len))
    }
}

/// The byte covering bits `[depth, depth + 8)` of a left-aligned key.
#[inline]
fn byte_at(bits: u128, depth: u8) -> usize {
    ((bits >> (120 - u32::from(depth))) & 0xff) as usize
}

#[inline]
fn bm_get(bm: &[u64; 4], v: usize) -> bool {
    (bm[v >> 6] >> (v & 63)) & 1 == 1
}

#[inline]
fn bm_set(bm: &mut [u64; 4], v: usize) {
    bm[v >> 6] |= 1 << (v & 63);
}

/// Number of set bits strictly below position `v`.
#[inline]
fn bm_rank(bm: &[u64; 4], v: usize) -> usize {
    let word = v >> 6;
    let off = v & 63;
    let mut r = 0usize;
    for w in bm.iter().take(word) {
        r += w.count_ones() as usize;
    }
    if off > 0 {
        r += (bm[word] & ((1u64 << off) - 1)).count_ones() as usize;
    }
    r
}

/// The authoritative (uncompressed) prefix map for one address family:
/// ordered maps keyed by `(left-aligned bits, length)`, split at the
/// direct-pointing boundary so a chunk rebuild is one range scan and a
/// `root_leaf` recompute never touches long routes.
#[derive(Clone, Debug, Default)]
pub(crate) struct PrefixStore {
    /// Routes with length ≤ 16 (leaf-pushed into the root array).
    short: BTreeMap<(u128, u8), NextHop>,
    /// Routes with length > 16 (compiled into per-slot chunks).
    long: BTreeMap<(u128, u8), NextHop>,
}

impl PrefixStore {
    /// Inserts (or replaces) a route; returns whether anything changed.
    pub(crate) fn insert(&mut self, bits: u128, len: u8, next_hop: NextHop) -> bool {
        let bits = bits & mask_bits(len);
        let map = if len <= 16 { &mut self.short } else { &mut self.long };
        map.insert((bits, len), next_hop) != Some(next_hop)
    }

    /// Removes a route; returns whether it existed.
    pub(crate) fn remove(&mut self, bits: u128, len: u8) -> bool {
        let bits = bits & mask_bits(len);
        let map = if len <= 16 { &mut self.short } else { &mut self.long };
        map.remove(&(bits, len)).is_some()
    }

    pub(crate) fn len(&self) -> usize {
        self.short.len() + self.long.len()
    }

    pub(crate) fn clear(&mut self) {
        self.short.clear();
        self.long.clear();
    }

    /// Every route, as `(bits, len, next_hop)`: short routes, then long.
    pub(crate) fn routes(&self) -> impl Iterator<Item = (u128, u8, NextHop)> + '_ {
        self.short.iter().chain(self.long.iter()).map(|(&(bits, len), &nh)| (bits, len, nh))
    }

    /// The long routes whose top 16 bits equal `slot`, in key order.
    fn slot_routes(&self, slot: u16) -> Vec<(u128, u8, NextHop)> {
        let start = (u128::from(slot) << 112, 0u8);
        let iter = if slot == u16::MAX {
            self.long.range(start..)
        } else {
            self.long.range(start..((u128::from(slot) + 1) << 112, 0u8))
        };
        iter.map(|(&(bits, len), &nh)| (bits, len, nh)).collect()
    }

    /// The longest short route covering `slot` (what `root_leaf[slot]`
    /// must hold).
    fn best_short(&self, slot: u16) -> Option<NextHop> {
        let bits = u128::from(slot) << 112;
        (0..=16u8).rev().find_map(|len| self.short.get(&(bits & mask_bits(len), len)).copied())
    }
}

/// One poptrie node: stride-8, popcount-navigated.
#[derive(Clone, Copy, Debug, Default)]
struct PNode {
    /// Bit `v` set ⇒ byte value `v` descends into a child node.
    vector: [u64; 4],
    /// Bit `v` set ⇒ a new run of equal leaf values starts at `v`.
    leafvec: [u64; 4],
    /// Index of this node's first leaf run in `Chunk::leaves`.
    base0: u32,
    /// Index of this node's first child in `Chunk::nodes`.
    base1: u32,
}

/// The outcome of one level of a chunk walk.
enum Level {
    /// The key descends into this child node, one level deeper.
    Descend(usize),
    /// The walk ends here: the leaf run's value (`None` ⇒ fall back to
    /// the root leaf).
    Leaf(Option<NextHop>),
}

/// An immutable compiled sub-trie holding every len > 16 route of one
/// root slot. Chunks are shared (`Arc`) between table versions and
/// rebuilt whole when a delta touches their slot.
#[derive(Debug)]
pub(crate) struct Chunk {
    nodes: Vec<PNode>,
    /// Run-compressed leaves; `None` means "no len > 16 route covers
    /// this range — fall back to the root leaf table".
    leaves: Vec<Option<NextHop>>,
}

impl Chunk {
    /// Compiles the chunk for one slot from its long routes, in key
    /// order. All routes must share the slot's top 16 bits and have
    /// `len > 16`.
    fn build(routes: &[(u128, u8, NextHop)]) -> Chunk {
        debug_assert!(routes.is_sorted_by_key(|&(bits, len, _)| (bits, len)));
        debug_assert!(routes.iter().all(|&(_, len, _)| len > 16));
        let mut chunk = Chunk { nodes: vec![PNode::default()], leaves: Vec::new() };
        chunk.fill(0, routes, 16, None);
        // A chunk is immutable once built: drop the growth slack.
        chunk.nodes.shrink_to_fit();
        chunk.leaves.shrink_to_fit();
        chunk
    }

    /// Fills node `node_idx` covering bits `[depth, depth + 8)`, with
    /// `inherited` the best route already matched above this node
    /// (leaf pushing).
    fn fill(
        &mut self,
        node_idx: usize,
        routes: &[(u128, u8, NextHop)],
        depth: u8,
        inherited: Option<NextHop>,
    ) {
        // For each of the 256 byte values: the best route terminating
        // within this stride, and the run of `routes` a deeper node needs
        // (`(start, end)`, `end == 0` for none). `routes` is in key order,
        // so the routes sharing this node's byte value are contiguous: a
        // child gets its whole run, stack-only, and skips the routes that
        // already ended in this stride.
        let mut best = [None::<(u8, NextHop)>; 256];
        let mut deeper = [(0usize, 0usize); 256];
        for (i, &(bits, len, nh)) in routes.iter().enumerate() {
            if len <= depth {
                continue;
            }
            let v = byte_at(bits, depth);
            if len <= depth + 8 {
                let span = 1usize << (depth + 8 - len);
                for slot in best.iter_mut().skip(v).take(span) {
                    if slot.is_none_or(|(l, _)| l < len) {
                        *slot = Some((len, nh));
                    }
                }
            } else {
                let run = &mut deeper[v];
                if run.1 == 0 {
                    run.0 = i;
                }
                run.1 = i + 1;
            }
        }
        let mut vector = [0u64; 4];
        let mut leafvec = [0u64; 4];
        let base0 = self.leaves.len() as u32;
        let mut prev: Option<Option<NextHop>> = None;
        let mut children = 0u32;
        for v in 0..256 {
            if deeper[v].1 != 0 {
                bm_set(&mut vector, v);
                children += 1;
            } else {
                let val = best[v].map(|(_, nh)| nh).or(inherited);
                if prev != Some(val) {
                    bm_set(&mut leafvec, v);
                    self.leaves.push(val);
                    prev = Some(val);
                }
            }
        }
        let base1 = self.nodes.len() as u32;
        self.nodes[node_idx] = PNode { vector, leafvec, base0, base1 };
        self.nodes.extend((0..children).map(|_| PNode::default()));
        let mut child = 0u32;
        for (v, &(start, end)) in deeper.iter().enumerate() {
            if end == 0 {
                continue;
            }
            let pushed = best[v].map(|(_, nh)| nh).or(inherited);
            self.fill((base1 + child) as usize, &routes[start..end], depth + 8, pushed);
            child += 1;
        }
    }

    /// One level of a walk: decodes node `idx` (covering bits
    /// `[depth, depth + 8)`) for `bits`. Every lookup, single or batched,
    /// goes through here.
    #[inline]
    fn step(&self, idx: usize, bits: u128, depth: u8) -> Level {
        let node = &self.nodes[idx];
        let v = byte_at(bits, depth);
        if bm_get(&node.vector, v) {
            Level::Descend(node.base1 as usize + bm_rank(&node.vector, v))
        } else {
            let run = bm_rank(&node.leafvec, v) + usize::from(bm_get(&node.leafvec, v));
            Level::Leaf(self.leaves[node.base0 as usize + run - 1])
        }
    }

    /// Longest len > 16 match, or `None` (fall back to the root leaf).
    fn lookup(&self, bits: u128) -> Option<NextHop> {
        let mut idx = 0usize;
        let mut depth = 16u8;
        loop {
            match self.step(idx, bits, depth) {
                Level::Descend(child) => {
                    idx = child;
                    depth += 8;
                }
                Level::Leaf(nh) => return nh,
            }
        }
    }

    fn node_count(&self) -> usize {
        self.nodes.len()
    }

    fn leaf_count(&self) -> usize {
        self.leaves.len()
    }
}

/// A compiled, immutable, cheaply-clonable LPM table for one address
/// family (`Clone` is two `Arc` bumps — this is what rides inside a
/// route snapshot through the epoch cell).
///
/// The empty table's arrays are zero-length, meaning "no slot holds
/// anything": every router starts with one, and it allocates nothing.
/// The first delta materialises the full arrays.
#[derive(Clone, Debug, Default)]
pub struct CompressedLpm {
    chunks: Arc<Vec<Option<Arc<Chunk>>>>,
    root_leaf: Arc<Vec<Option<NextHop>>>,
    len: usize,
}

/// `v` copied for writing, materialised to its full [`SLOTS`] first if it
/// is the zero-length "all empty" form.
fn slots_for_write<T: Clone>(v: &[Option<T>]) -> Vec<Option<T>> {
    if v.is_empty() {
        vec![None; SLOTS]
    } else {
        v.to_vec()
    }
}

impl CompressedLpm {
    /// Compiles the whole table from the authoritative store (the
    /// full-rebuild path — the delta path is [`CompressedLpm::apply_delta`]).
    pub(crate) fn build_from(store: &PrefixStore) -> CompressedLpm {
        if store.len() == 0 {
            return CompressedLpm::default();
        }
        let mut chunks: Vec<Option<Arc<Chunk>>> = vec![None; SLOTS];
        let mut acc: Vec<(u128, u8, NextHop)> = Vec::new();
        let mut cur: Option<u16> = None;
        for (&(bits, len), &nh) in &store.long {
            let slot = (bits >> 112) as u16;
            if cur != Some(slot) {
                if let Some(s) = cur {
                    chunks[s as usize] = Some(Arc::new(Chunk::build(&acc)));
                    acc.clear();
                }
                cur = Some(slot);
            }
            acc.push((bits, len, nh));
        }
        if let Some(s) = cur {
            chunks[s as usize] = Some(Arc::new(Chunk::build(&acc)));
        }
        // Leaf-push short routes by ascending length so longer prefixes
        // overwrite the slots they cover.
        let mut root_leaf: Vec<Option<NextHop>> = vec![None; SLOTS];
        let mut shorts: Vec<(u128, u8, NextHop)> =
            store.short.iter().map(|(&(bits, len), &nh)| (bits, len, nh)).collect();
        shorts.sort_by_key(|&(_, len, _)| len);
        for (bits, len, nh) in shorts {
            let start = (bits >> 112) as usize;
            let span = 1usize << (16 - len);
            for slot in root_leaf.iter_mut().skip(start).take(span) {
                *slot = Some(nh);
            }
        }
        CompressedLpm { chunks: Arc::new(chunks), root_leaf: Arc::new(root_leaf), len: store.len() }
    }

    /// Applies a committed delta copy-on-write: rebuilds only the
    /// chunks in `slots` and the `root_leaf` ranges covered by the
    /// changed short prefixes in `shorts`; everything else is shared
    /// with `self` by `Arc`. `store` must already reflect the delta.
    pub(crate) fn apply_delta(
        &self,
        store: &PrefixStore,
        slots: &BTreeSet<u16>,
        shorts: &[(u128, u8)],
    ) -> CompressedLpm {
        let chunks = if slots.is_empty() {
            Arc::clone(&self.chunks)
        } else {
            let mut v = slots_for_write(&self.chunks);
            for &slot in slots {
                let routes = store.slot_routes(slot);
                v[slot as usize] =
                    if routes.is_empty() { None } else { Some(Arc::new(Chunk::build(&routes))) };
            }
            Arc::new(v)
        };
        let root_leaf = if shorts.is_empty() {
            Arc::clone(&self.root_leaf)
        } else {
            let mut rl = slots_for_write(&self.root_leaf);
            for &(bits, len) in shorts {
                let start = (bits >> 112) as usize;
                let span = 1usize << (16 - len);
                for (off, slot) in rl.iter_mut().skip(start).take(span).enumerate() {
                    *slot = store.best_short((start + off) as u16);
                }
            }
            Arc::new(rl)
        };
        CompressedLpm { chunks, root_leaf, len: store.len() }
    }

    /// Longest-prefix match on a left-aligned 128-bit key (IPv4 keys
    /// are `addr << 96`). A chunk hit always wins: chunks hold only
    /// len > 16 routes, strictly longer than anything leaf-pushed into
    /// the root.
    #[inline]
    pub fn lookup_bits(&self, bits: u128) -> Option<NextHop> {
        let slot = (bits >> 112) as usize;
        if let Some(Some(chunk)) = self.chunks.get(slot) {
            if let Some(nh) = chunk.lookup(bits) {
                return Some(nh);
            }
        }
        self.root_leaf.get(slot).copied().flatten()
    }

    /// Longest-prefix match on every key of `keys` (left-aligned, as for
    /// [`lookup_bits`](CompressedLpm::lookup_bits)), answer `i` into
    /// `out[i]`. The answers equal `lookup_bits`'s; what differs is the
    /// memory access order. Keys are walked in groups of [`WALK_GROUP`]
    /// one trie level at a time, so a group's independent cache misses
    /// overlap instead of queueing behind each other. Any number of keys
    /// is accepted and nothing is allocated.
    ///
    /// # Panics
    ///
    /// If `out` and `keys` differ in length.
    pub fn lookup_many(&self, keys: &[u128], out: &mut [Option<NextHop>]) {
        assert_eq!(keys.len(), out.len(), "lookup_many: one answer slot per key");
        for (keys, out) in keys.chunks(WALK_GROUP).zip(out.chunks_mut(WALK_GROUP)) {
            self.walk_group(keys, out);
        }
    }

    /// One level-synchronous walk over at most [`WALK_GROUP`] keys.
    fn walk_group(&self, keys: &[u128], out: &mut [Option<NextHop>]) {
        // Each key's chunk and current node while it is still descending.
        let mut lanes: [Option<(&Chunk, usize)>; WALK_GROUP] = [None; WALK_GROUP];
        // First level: every key's root slot, and its root-leaf fallback
        // read eagerly as an independent load.
        for ((&bits, answer), lane) in keys.iter().zip(out.iter_mut()).zip(lanes.iter_mut()) {
            let slot = (bits >> 112) as usize;
            *answer = self.root_leaf.get(slot).copied().flatten();
            if let Some(Some(chunk)) = self.chunks.get(slot) {
                *lane = Some((chunk, 0));
            }
        }
        // Every later level advances each still-descending key by one
        // chunk node. Routes are at most 128 bits long, so the deepest
        // node covers bits [120, 128) and the walk ends by then.
        let mut depth = 16u8;
        let mut descending = true;
        while descending {
            descending = false;
            for ((&bits, answer), lane) in keys.iter().zip(out.iter_mut()).zip(lanes.iter_mut()) {
                let Some((chunk, idx)) = lane else { continue };
                match chunk.step(*idx, bits, depth) {
                    Level::Descend(child) => {
                        *idx = child;
                        descending = true;
                    }
                    Level::Leaf(nh) => {
                        if nh.is_some() {
                            *answer = nh;
                        }
                        *lane = None;
                    }
                }
            }
            depth += 8;
        }
    }

    /// Number of routes compiled into this table.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no routes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `(chunks, nodes, leaves)` — the compressed footprint, for
    /// diagnostics and the scale benchmarks.
    pub fn footprint(&self) -> (usize, usize, usize) {
        let mut chunks = 0;
        let mut nodes = 0;
        let mut leaves = 0;
        for c in self.chunks.iter().flatten() {
            chunks += 1;
            nodes += c.node_count();
            leaves += c.leaf_count();
        }
        (chunks, nodes, leaves)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_crypto::DetRng;

    fn v4_bits(a: u8, b: u8, c: u8, d: u8) -> u128 {
        u128::from(u32::from_be_bytes([a, b, c, d])) << 96
    }

    fn build(routes: &[(u128, u8, NextHop)]) -> (PrefixStore, CompressedLpm) {
        let mut store = PrefixStore::default();
        for &(bits, len, nh) in routes {
            store.insert(bits, len, nh);
        }
        let lpm = CompressedLpm::build_from(&store);
        (store, lpm)
    }

    /// Linear-scan oracle: the longest route whose masked bits cover
    /// the key.
    fn oracle(store: &PrefixStore, bits: u128) -> Option<NextHop> {
        store
            .routes()
            .filter(|&(p, len, _)| (bits ^ p) & mask_bits(len) == 0)
            .max_by_key(|&(_, len, _)| len)
            .map(|(_, _, nh)| nh)
    }

    #[test]
    fn default_route_host_routes_and_overlapping_covers() {
        let (_, lpm) = build(&[
            (0, 0, NextHop::port(1)),                     // default
            (v4_bits(10, 0, 0, 0), 8, NextHop::port(2)),  // short cover
            (v4_bits(10, 1, 0, 0), 16, NextHop::port(3)), // short, longer
            (v4_bits(10, 1, 2, 0), 24, NextHop::port(4)), // long cover
            (v4_bits(10, 1, 2, 3), 32, NextHop::port(5)), // host route
        ]);
        assert_eq!(lpm.lookup_bits(v4_bits(192, 0, 2, 1)), Some(NextHop::port(1)));
        assert_eq!(lpm.lookup_bits(v4_bits(10, 9, 9, 9)), Some(NextHop::port(2)));
        assert_eq!(lpm.lookup_bits(v4_bits(10, 1, 9, 9)), Some(NextHop::port(3)));
        assert_eq!(lpm.lookup_bits(v4_bits(10, 1, 2, 9)), Some(NextHop::port(4)));
        assert_eq!(lpm.lookup_bits(v4_bits(10, 1, 2, 3)), Some(NextHop::port(5)));
        assert_eq!(lpm.len(), 5);
    }

    #[test]
    fn slot_boundary_len16_vs_len17() {
        // /16 is leaf-pushed into the root, /17 lives in a chunk; the
        // chunk must win exactly on its half of the slot.
        let (_, lpm) = build(&[
            (v4_bits(10, 1, 0, 0), 16, NextHop::port(1)),
            (v4_bits(10, 1, 128, 0), 17, NextHop::port(2)),
        ]);
        assert_eq!(lpm.lookup_bits(v4_bits(10, 1, 0, 1)), Some(NextHop::port(1)));
        assert_eq!(lpm.lookup_bits(v4_bits(10, 1, 200, 1)), Some(NextHop::port(2)));
        assert_eq!(lpm.lookup_bits(v4_bits(10, 2, 0, 0)), None);
    }

    #[test]
    fn empty_table_and_single_slash128() {
        let (_, empty) = build(&[]);
        assert_eq!(empty.lookup_bits(0), None);
        assert!(empty.is_empty());

        let key = 0xfdaa_0123_4567_89ab_cdef_0011_2233_4455u128;
        let (_, lpm) = build(&[(key, 128, NextHop::port(9))]);
        assert_eq!(lpm.lookup_bits(key), Some(NextHop::port(9)));
        assert_eq!(lpm.lookup_bits(key ^ 1), None);
        assert_eq!(lpm.lookup_bits(key ^ (1 << 127)), None);
    }

    /// `lookup_many` over `keys` in one call, then key by key; both
    /// must equal `lookup_bits`.
    fn assert_walk_matches(lpm: &CompressedLpm, keys: &[u128]) -> Vec<Option<NextHop>> {
        let mut out = vec![Some(NextHop::port(u32::MAX)); keys.len()];
        lpm.lookup_many(keys, &mut out);
        for (&key, &answer) in keys.iter().zip(&out) {
            assert_eq!(answer, lpm.lookup_bits(key), "key {key:x}");
            let mut one = [None];
            lpm.lookup_many(&[key], &mut one);
            assert_eq!(one[0], answer, "key {key:x} alone");
        }
        out
    }

    #[test]
    fn batch_walk_answers_like_single_lookups_at_every_boundary() {
        let v6 = 0xfdaa_0123_4567_89ab_cdef_0011_2233_4455u128;
        let keys: Vec<u128> = vec![
            0,
            v4_bits(10, 1, 0, 1),
            v4_bits(10, 1, 200, 1),
            v4_bits(10, 2, 3, 4),
            v4_bits(192, 0, 2, 1),
            v6,
            v6 ^ 1,
            v6 ^ 0x100,
            v6 ^ (1 << 127),
            u128::MAX,
        ];
        // Empty table: every answer is `None`, and an empty batch is fine.
        let (_, empty) = build(&[]);
        assert!(assert_walk_matches(&empty, &keys).iter().all(Option::is_none));
        empty.lookup_many(&[], &mut []);

        // Only ≤ /16 routes: no chunk exists, every answer is a root leaf.
        let (_, short) = build(&[
            (0, 0, NextHop::port(1)),
            (v4_bits(10, 0, 0, 0), 8, NextHop::port(2)),
            (v4_bits(10, 1, 0, 0), 16, NextHop::port(3)),
        ]);
        assert_eq!(short.footprint().0, 0, "no chunks");
        let got = assert_walk_matches(&short, &keys);
        assert_eq!(&got[..5], &[1, 3, 3, 2, 1].map(|p| Some(NextHop::port(p))));

        // The /16 | /17 boundary, and the /120 | /128 one at the bottom of
        // the deepest chunk.
        let (_, deep) = build(&[
            (v4_bits(10, 1, 0, 0), 16, NextHop::port(1)),
            (v4_bits(10, 1, 128, 0), 17, NextHop::port(2)),
            (v6 & mask_bits(120), 120, NextHop::port(3)),
            (v6, 128, NextHop::port(4)),
        ]);
        let got = assert_walk_matches(&deep, &keys);
        assert_eq!(got[1], Some(NextHop::port(1)));
        assert_eq!(got[2], Some(NextHop::port(2)));
        assert_eq!(got[3], None);
        assert_eq!(got[5], Some(NextHop::port(4)));
        assert_eq!(got[6], Some(NextHop::port(3)));
        assert_eq!(got[7], None);

        // More keys than one walk group, in one call.
        let many: Vec<u128> = keys.iter().cycle().take(3 * WALK_GROUP + 5).copied().collect();
        assert_walk_matches(&deep, &many);
    }

    /// Every router and every published snapshot starts from an empty
    /// table, so it must cost no slot arrays — until a delta gives it a
    /// route, and then answer like a rebuild.
    #[test]
    fn empty_tables_allocate_no_slot_arrays_until_a_delta() {
        let tables = crate::RouteTables::default();
        for lpm in [&tables.v4, &tables.v6, &CompressedLpm::build_from(&PrefixStore::default())] {
            assert!(lpm.chunks.is_empty() && lpm.root_leaf.is_empty());
            assert_eq!(lpm.lookup_bits(v4_bits(10, 1, 2, 3)), None);
        }

        let mut store = PrefixStore::default();
        for (a, len) in [(v4_bits(10, 0, 0, 0), 8), (v4_bits(10, 1, 2, 0), 24)] {
            store.insert(a, len, NextHop::port(u32::from(len)));
        }
        let mut slots = BTreeSet::new();
        slots.insert(0x0a01);
        let lpm = tables.v4.apply_delta(&store, &slots, &[(v4_bits(10, 0, 0, 0), 8)]);
        assert_eq!((lpm.chunks.len(), lpm.root_leaf.len()), (SLOTS, SLOTS));
        let rebuilt = CompressedLpm::build_from(&store);
        for key in [v4_bits(10, 1, 2, 3), v4_bits(10, 9, 9, 9), v4_bits(11, 0, 0, 1)] {
            assert_eq!(lpm.lookup_bits(key), rebuilt.lookup_bits(key));
        }
    }

    #[test]
    fn random_tables_match_linear_scan_oracle() {
        let (n_routes, n_probes) =
            if cfg!(debug_assertions) { (3_000, 400) } else { (60_000, 2_000) };
        for (width, lens) in [(32u8, 1u8..=32u8), (128, 12..=128)] {
            let mut rng = DetRng::seed_from_u64(0x9e37_79b9 ^ u64::from(width));
            let mut store = PrefixStore::default();
            let mut inserted = Vec::new();
            while inserted.len() < n_routes {
                let bits = (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()))
                    & mask_bits(width);
                let len =
                    rng.gen_range_inclusive(u64::from(*lens.start()), u64::from(*lens.end())) as u8;
                let nh = NextHop::port(rng.gen_range_inclusive(1, 64) as u32);
                if store.insert(bits, len, nh) {
                    inserted.push((bits & mask_bits(len), len));
                }
            }
            let lpm = CompressedLpm::build_from(&store);
            assert_eq!(lpm.len(), store.len());
            for i in 0..n_probes {
                // Half the probes target an installed prefix (with the
                // uncovered bits randomized), half are uniform.
                let key = if i % 2 == 0 {
                    let (bits, len) = inserted[rng.gen_index(inserted.len())];
                    let noise = (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()))
                        & !mask_bits(len);
                    (bits | noise) & mask_bits(width)
                } else {
                    (u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64()))
                        & mask_bits(width)
                };
                assert_eq!(lpm.lookup_bits(key), oracle(&store, key), "width {width} key {key:x}");
            }
        }
    }

    #[test]
    fn apply_delta_equals_full_rebuild() {
        let mut rng = DetRng::seed_from_u64(7);
        let mut store = PrefixStore::default();
        for _ in 0..500 {
            let bits = v4_bits(10, rng.next_u32() as u8, rng.next_u32() as u8, 0);
            let len = rng.gen_range_inclusive(8, 28) as u8;
            store.insert(bits, len, NextHop::port(rng.gen_range_inclusive(1, 64) as u32));
        }
        let mut lpm = CompressedLpm::build_from(&store);
        for round in 0..20 {
            let mut slots = BTreeSet::new();
            let mut shorts = Vec::new();
            for _ in 0..16 {
                let bits = v4_bits(10, rng.next_u32() as u8, rng.next_u32() as u8, 0);
                let len = rng.gen_range_inclusive(4, 28) as u8;
                let changed = if rng.gen_bool(0.4) {
                    store.remove(bits, len)
                } else {
                    store.insert(bits, len, NextHop::port(rng.gen_range_inclusive(1, 64) as u32))
                };
                if changed {
                    if len <= 16 {
                        shorts.push((bits & mask_bits(len), len));
                    } else {
                        slots.insert((bits >> 112) as u16);
                    }
                }
            }
            lpm = lpm.apply_delta(&store, &slots, &shorts);
            let rebuilt = CompressedLpm::build_from(&store);
            for _ in 0..200 {
                let key =
                    v4_bits(10, rng.next_u32() as u8, rng.next_u32() as u8, rng.next_u32() as u8);
                assert_eq!(lpm.lookup_bits(key), rebuilt.lookup_bits(key), "round {round}");
            }
            assert_eq!(lpm.len(), rebuilt.len());
        }
    }
}
