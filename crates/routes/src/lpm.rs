//! Poptrie-style compressed multibit LPM with copy-on-write deltas.
//!
//! The CRAM lens (PAPERS.md): count the bytes and the dependent memory
//! accesses each operation touches — a lookup's chain of loads, and what
//! a commit copies. The layout here is direct pointing + poptrie chunks,
//! with the root paged so that a commit copies what it changed, and the
//! chunks path-compressed so that a lone long prefix is one node:
//!
//! * the **root** direct-indexes the top 16 destination bits. Each of its
//!   65 536 `Slot`s holds the slot's leaf-pushed answer from the routes
//!   of length ≤ 16 and, when the slot has longer routes, the immutable
//!   `Chunk` they compile to, in 16 bytes, so a lookup's first level
//!   reads both from one line. The slots live in pages of `PAGE` (32),
//!   reached through one spine of page pointers held inline in its `Arc`,
//!   so a lookup chases the spine, the page and the chunk, as many
//!   pointers as a flat root behind an `Arc<Vec>` costs;
//! * a **chunk** is a stride-8 multibit trie in poptrie encoding: each
//!   node holds a 256-bit `vector` bitmap (set ⇒ the byte value
//!   descends into a child node) and a 256-bit `leafvec` bitmap marking
//!   the start of each run of equal leaf values, so popcount arithmetic
//!   replaces pointers and equal-next-hop runs cost one stored leaf. A
//!   chunk's first node sits inline in the chunk, so the slot's pointer
//!   leads straight to it;
//! * chunks are **path-compressed**: a stride that every route still to
//!   place crosses on one byte value gets no node. The node below it
//!   records the stride it decodes and, out of line in a `Path`, the
//!   key bits its path fixed and the answer it inherited; a key that
//!   leaves the path gets that answer. An un-skipped node stays 72 bytes.
//!
//! A lookup is: index the root by the top 16 bits, walk the chunk (at
//! each node: check the path if the node skipped strides, then `vector`
//! bit set ⇒ popcount into the child; clear ⇒ popcount into the leaf
//! run), and fall back to the slot's leaf when the chunk has no covering
//! route — a chunk only ever holds len > 16 routes, so a chunk hit is
//! always the longer match.
//!
//! Each of those steps is a dependent memory access, and over a large
//! table most of them miss the cache. [`CompressedLpm::lookup_many`]
//! walks a batch of keys *level-synchronously* — every key's root slot
//! first, then every still-descending key one chunk node down, and so on
//! — so the misses of independent keys are in flight together instead
//! of one key at a time. Both walks drive the one level step,
//! `Chunk::step`, so a node is decoded in exactly one place, and
//! [`CompressedLpm::lookup_depth`] counts the levels a walk visits.
//!
//! Updates never mutate published state. The authoritative routes live
//! in a `PrefixStore` (two ordered maps, short/long); applying a delta
//! copies the spine (2 048 page pointers), rebuilds only the touched
//! chunks from the store, recomputes only the slot leaves covered by
//! changed short prefixes, and copies only the pages holding either
//! (`Arc::make_mut`). Every other page and chunk is shared with the
//! previous version. Readers holding that version keep a consistent
//! table; the dataplane's epoch cell hands the superseded one back to
//! the publishing thread to free.

use crate::ARC_COUNTS;
use dip_tables::fib::NextHop;
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::Arc;

/// Number of direct-pointing root slots (top 16 bits).
pub(crate) const SLOTS: usize = 1 << 16;

/// Root slots per copy-on-write page. A commit copies the whole spine
/// (`SLOTS / PAGE` pointers, each an `Arc` bump) plus `PAGE` slots (each
/// a chunk `Arc` bump) per page it touches; for the ~70 IPv4 and ~35 IPv6
/// slots a 100-route storm delta touches, the two terms balance near 32.
/// Measured on that storm (375 k routes, 300 deltas, one thread), a
/// commit took 0.7–1.0 ms at 16 and 32, 0.8–1.2 ms at 64, 1.0–1.3 ms at
/// 128 and 1.3–1.7 ms at 256, and freeing the superseded version grew
/// the same way (0.14–0.25 ms at 32, 0.39–0.58 ms at 256). 16 buys
/// nothing over 32 and doubles the spine; 32 gives a 2 048-entry spine
/// and 512-byte pages.
pub(crate) const PAGE: usize = 32;

/// Pages in a full spine.
const PAGES: usize = SLOTS / PAGE;

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
/// slot-leaf recompute never touches long routes.
#[derive(Clone, Debug, Default)]
pub(crate) struct PrefixStore {
    /// Routes with length ≤ 16 (leaf-pushed into the root slots).
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

    /// The longest short route covering `slot` (what the slot's leaf
    /// must hold).
    fn best_short(&self, slot: u16) -> Option<NextHop> {
        let bits = u128::from(slot) << 112;
        (0..=16u8).rev().find_map(|len| self.short.get(&(bits & mask_bits(len), len)).copied())
    }
}

/// `PNode::base1` bit set on a node whose path skipped strides: its
/// `base0` then indexes `Chunk::paths`, which holds the leaf base.
const COMPRESSED: u32 = 1 << 31;
/// `PNode::base1` bits 27..31: the node's stride as `(120 - depth) / 8`,
/// the key's right shift in bytes (0 ..= 13).
const STRIDE_AT: u32 = 27;
/// `PNode::base1` bits 0..27: the first child's index in `Chunk::nodes`.
/// A chunk therefore holds at most 2^27 nodes (9 GiB of them, far past
/// any one /16).
const CHILD_MASK: u32 = (1 << STRIDE_AT) - 1;

/// One poptrie node: stride-8, popcount-navigated, 72 bytes. The two
/// words a step reads first — the stride, then the bitmap word for the
/// key's byte — lead, so they tend to share a cache line.
#[derive(Clone, Copy, Debug, Default)]
#[repr(C)]
struct PNode {
    /// Index of this node's first leaf run in `Chunk::leaves` — or, on a
    /// [`COMPRESSED`] node, of its [`Path`] in `Chunk::paths`.
    base0: u32,
    /// The first child's index, the stride and the [`COMPRESSED`] flag
    /// (see the constants).
    base1: u32,
    /// Bit `v` set ⇒ byte value `v` descends into a child node.
    vector: [u64; 4],
    /// Bit `v` set ⇒ a new run of equal leaf values starts at `v`.
    leafvec: [u64; 4],
}

impl PNode {
    /// Right shift that brings the node's byte to the bottom of a key.
    #[inline]
    fn shift(&self) -> u32 {
        ((self.base1 >> STRIDE_AT) & 0xf) * 8
    }
}

/// What a path-compressed node keeps out of line.
#[derive(Clone, Copy, Debug)]
struct Path {
    /// Every key bit above the node's stride that its routes share (the
    /// bits at and below the stride are zero).
    bits: u128,
    /// The answer for a key that leaves the path: the best route matched
    /// above the node (`None` ⇒ fall back to the slot's leaf).
    inherited: Option<NextHop>,
    /// Index of the node's first leaf run in `Chunk::leaves`.
    base0: u32,
}

/// The outcome of one level of a chunk walk.
enum Level {
    /// The key descends into this child node.
    Descend(usize),
    /// The walk ends here: the leaf run's value (`None` ⇒ fall back to
    /// the slot's leaf).
    Leaf(Option<NextHop>),
}

/// An immutable compiled sub-trie holding every len > 16 route of one
/// root slot. Chunks are shared (`Arc`) between table versions and
/// rebuilt whole when a delta touches their slot.
#[derive(Debug)]
#[repr(C)]
pub(crate) struct Chunk {
    /// The first node, inline and first, with the leaves' pointer right
    /// after it: a lookup reads both from the lines the slot points at,
    /// without first loading where the nodes are.
    root: PNode,
    /// Run-compressed leaves; `None` means "no len > 16 route covers
    /// this range — fall back to the slot's leaf".
    leaves: Box<[Option<NextHop>]>,
    /// Every other node.
    nodes: Box<[PNode]>,
    /// One entry per path-compressed node.
    paths: Box<[Path]>,
}

/// A chunk under construction: `nodes[0]` is the root.
#[derive(Default)]
struct ChunkBuilder {
    nodes: Vec<PNode>,
    leaves: Vec<Option<NextHop>>,
    paths: Vec<Path>,
}

/// Whether every route of `routes` longer than `depth` crosses the
/// stride `[depth, depth + 8)` entirely, all on one byte value — the
/// stride a path-compressed node skips.
fn one_way_through(routes: &[(u128, u8, NextHop)], depth: u8) -> bool {
    let mut byte = None;
    for &(bits, len, _) in routes {
        if len <= depth {
            continue;
        }
        if len <= depth + 8 {
            return false;
        }
        let v = byte_at(bits, depth);
        if byte.is_some_and(|b| b != v) {
            return false;
        }
        byte = Some(v);
    }
    byte.is_some()
}

impl ChunkBuilder {
    /// Fills node `node_idx`, whose parent's stride ended at `start`,
    /// with `inherited` the best route already matched above it (leaf
    /// pushing). Strides every route crosses on one byte are skipped, so
    /// the node may decode a stride deeper than `start`.
    fn fill(
        &mut self,
        node_idx: usize,
        routes: &[(u128, u8, NextHop)],
        start: u8,
        inherited: Option<NextHop>,
    ) {
        let mut depth = start;
        while one_way_through(routes, depth) {
            depth += 8;
        }
        // For each of the 256 byte values: the best route terminating
        // within this stride, and the run of `routes` a deeper node needs
        // (`(start, end)`, `end == 0` for none). `routes` is in key order,
        // so the routes sharing this node's byte value are contiguous: a
        // child gets its whole run, stack-only, and skips the routes that
        // already ended in this stride.
        let mut best = [None::<(u8, NextHop)>; 256];
        let mut deeper = [(0usize, 0usize); 256];
        let mut first_live = None;
        for (i, &(bits, len, nh)) in routes.iter().enumerate() {
            if len <= depth {
                continue;
            }
            first_live.get_or_insert(bits);
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
        let leaf_base = self.leaves.len() as u32;
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
        // Children land after the root, which the chunk keeps apart, so
        // their index in `Chunk::nodes` is one less than here.
        let first_child = self.nodes.len() as u32;
        assert!(
            self.nodes.len() + children as usize <= CHILD_MASK as usize,
            "a chunk holds at most 2^27 nodes"
        );
        let stride = u32::from((120 - depth) / 8) << STRIDE_AT;
        let (base0, base1) = if depth == start {
            (leaf_base, (first_child - 1) | stride)
        } else {
            let bits = first_live.expect("a skipped stride has routes") & mask_bits(depth);
            self.paths.push(Path { bits, inherited, base0: leaf_base });
            ((self.paths.len() - 1) as u32, (first_child - 1) | stride | COMPRESSED)
        };
        self.nodes[node_idx] = PNode { vector, leafvec, base0, base1 };
        self.nodes.extend((0..children).map(|_| PNode::default()));
        let mut child = 0u32;
        for (v, &(lo, hi)) in deeper.iter().enumerate() {
            if hi == 0 {
                continue;
            }
            let pushed = best[v].map(|(_, nh)| nh).or(inherited);
            self.fill((first_child + child) as usize, &routes[lo..hi], depth + 8, pushed);
            child += 1;
        }
    }
}

impl Chunk {
    /// Compiles the chunk for one slot from its long routes, in key
    /// order. All routes must share the slot's top 16 bits and have
    /// `len > 16`.
    fn build(routes: &[(u128, u8, NextHop)]) -> Chunk {
        debug_assert!(routes.is_sorted_by_key(|&(bits, len, _)| (bits, len)));
        debug_assert!(routes.iter().all(|&(_, len, _)| len > 16));
        let mut b = ChunkBuilder { nodes: vec![PNode::default()], ..ChunkBuilder::default() };
        b.fill(0, routes, 16, None);
        // A chunk is immutable once built: boxing drops the growth slack.
        Chunk {
            root: b.nodes[0],
            nodes: b.nodes.drain(1..).collect(),
            leaves: b.leaves.into_boxed_slice(),
            paths: b.paths.into_boxed_slice(),
        }
    }

    /// One level of a walk: decodes `node` (the root or one of `nodes`)
    /// for `bits`. Every lookup, single or batched, goes through here.
    #[inline]
    fn step(&self, node: &PNode, bits: u128) -> Level {
        let shift = node.shift();
        let mut base0 = node.base0;
        if node.base1 & COMPRESSED != 0 {
            let path = &self.paths[base0 as usize];
            // Every bit above the node's stride: the ones its ancestors
            // decoded match already, so a difference is in the skip.
            if (bits ^ path.bits) >> (shift + 8) != 0 {
                return Level::Leaf(path.inherited);
            }
            base0 = path.base0;
        }
        let v = ((bits >> shift) & 0xff) as usize;
        if bm_get(&node.vector, v) {
            Level::Descend((node.base1 & CHILD_MASK) as usize + bm_rank(&node.vector, v))
        } else {
            let run = bm_rank(&node.leafvec, v) + usize::from(bm_get(&node.leafvec, v));
            Level::Leaf(self.leaves[base0 as usize + run - 1])
        }
    }

    /// Longest len > 16 match, or `None` (fall back to the slot's leaf),
    /// and the nodes the walk visited.
    fn lookup(&self, bits: u128) -> (Option<NextHop>, usize) {
        let mut node = &self.root;
        let mut visited = 1;
        loop {
            match self.step(node, bits) {
                Level::Descend(child) => {
                    node = &self.nodes[child];
                    visited += 1;
                }
                Level::Leaf(nh) => return (nh, visited),
            }
        }
    }

    /// Heap bytes of the chunk's arrays and of the chunk itself.
    fn heap_bytes(&self) -> usize {
        size_of::<Chunk>()
            + size_of_val(&*self.nodes)
            + size_of_val(&*self.leaves)
            + size_of_val(&*self.paths)
    }
}

/// One root slot.
#[derive(Clone, Debug, Default)]
struct Slot {
    /// The longest route of length ≤ 16 covering the slot.
    leaf: Option<NextHop>,
    /// Every longer route of the slot, compiled.
    chunk: Option<Arc<Chunk>>,
}

/// One copy-on-write page of root slots.
type Page = [Slot; PAGE];

fn empty_page() -> Arc<Page> {
    Arc::new(std::array::from_fn(|_| Slot::default()))
}

/// The slot `slot` of `spine`, its page copied first unless this version
/// owns it alone.
fn slot_mut(spine: &mut [Arc<Page>], slot: usize) -> &mut Slot {
    &mut Arc::make_mut(&mut spine[slot / PAGE])[slot % PAGE]
}

/// A compiled, immutable, cheaply-clonable LPM table for one address
/// family (`Clone` is one `Arc` bump — this is what rides inside a route
/// snapshot through the epoch cell).
///
/// The empty table's spine is zero-length, meaning "no slot holds
/// anything": every router starts with one, and it allocates nothing.
/// The first delta materialises the spine, every page sharing one empty
/// page until a route lands in it.
#[derive(Clone, Debug, Default)]
pub struct CompressedLpm {
    pages: Arc<[Arc<Page>]>,
    len: usize,
}

impl CompressedLpm {
    /// Compiles the whole table from the authoritative store (the
    /// full-rebuild path — the delta path is [`CompressedLpm::apply_delta`]).
    pub(crate) fn build_from(store: &PrefixStore) -> CompressedLpm {
        if store.len() == 0 {
            return CompressedLpm::default();
        }
        let mut slots = vec![Slot::default(); SLOTS];
        let mut acc: Vec<(u128, u8, NextHop)> = Vec::new();
        let mut cur: Option<u16> = None;
        for (&(bits, len), &nh) in &store.long {
            let slot = (bits >> 112) as u16;
            if cur != Some(slot) {
                if let Some(s) = cur {
                    slots[usize::from(s)].chunk = Some(Arc::new(Chunk::build(&acc)));
                    acc.clear();
                }
                cur = Some(slot);
            }
            acc.push((bits, len, nh));
        }
        if let Some(s) = cur {
            slots[usize::from(s)].chunk = Some(Arc::new(Chunk::build(&acc)));
        }
        // Leaf-push short routes by ascending length so longer prefixes
        // overwrite the slots they cover.
        let mut shorts: Vec<(u128, u8, NextHop)> =
            store.short.iter().map(|(&(bits, len), &nh)| (bits, len, nh)).collect();
        shorts.sort_by_key(|&(_, len, _)| len);
        for (bits, len, nh) in shorts {
            let start = (bits >> 112) as usize;
            for slot in &mut slots[start..start + (1usize << (16 - len))] {
                slot.leaf = Some(nh);
            }
        }
        // The pages are allocated back to back, after the chunks, so the
        // root spans as few memory pages as a flat array would.
        let empty = empty_page();
        let mut slots = slots.into_iter();
        let pages = (0..PAGES).map(|_| {
            let page: Page = std::array::from_fn(|_| slots.next().unwrap_or_default());
            let used = page.iter().any(|s| s.leaf.is_some() || s.chunk.is_some());
            if used {
                Arc::new(page)
            } else {
                Arc::clone(&empty)
            }
        });
        CompressedLpm { pages: pages.collect(), len: store.len() }
    }

    /// Applies a committed delta copy-on-write: rebuilds only the chunks
    /// in `slots` and the slot leaves covered by the changed short
    /// prefixes in `shorts`, copying only the pages that hold them;
    /// every other page is shared with `self` by `Arc`. `store` must
    /// already reflect the delta.
    pub(crate) fn apply_delta(
        &self,
        store: &PrefixStore,
        slots: &BTreeSet<u16>,
        shorts: &[(u128, u8)],
    ) -> CompressedLpm {
        if store.len() == 0 {
            return CompressedLpm::default();
        }
        let mut spine: Vec<Arc<Page>> =
            if self.pages.is_empty() { vec![empty_page(); PAGES] } else { self.pages.to_vec() };
        for &slot in slots {
            let routes = store.slot_routes(slot);
            let chunk = (!routes.is_empty()).then(|| Arc::new(Chunk::build(&routes)));
            slot_mut(&mut spine, slot.into()).chunk = chunk;
        }
        for &(bits, len) in shorts {
            let start = (bits >> 112) as usize;
            for slot in start..start + (1usize << (16 - len)) {
                let leaf = store.best_short(slot as u16);
                // A covering route that still wins leaves the page shared.
                if spine[slot / PAGE][slot % PAGE].leaf != leaf {
                    slot_mut(&mut spine, slot).leaf = leaf;
                }
            }
        }
        CompressedLpm { pages: spine.into(), len: store.len() }
    }

    /// The root slot of `bits` (`None` in the empty table).
    #[inline]
    fn slot(&self, bits: u128) -> Option<&Slot> {
        let slot = (bits >> 112) as usize;
        self.pages.get(slot / PAGE).map(|page| &page[slot % PAGE])
    }

    /// Longest-prefix match on a left-aligned 128-bit key (IPv4 keys
    /// are `addr << 96`). A chunk hit always wins: chunks hold only
    /// len > 16 routes, strictly longer than anything leaf-pushed into
    /// the root.
    #[inline]
    pub fn lookup_bits(&self, bits: u128) -> Option<NextHop> {
        let slot = self.slot(bits)?;
        if let Some(chunk) = &slot.chunk {
            if let (Some(nh), _) = chunk.lookup(bits) {
                return Some(nh);
            }
        }
        slot.leaf
    }

    /// The levels a lookup of `bits` visits: the root slot, then each
    /// chunk node down to the answer (0 in the empty table). Every level
    /// is a dependent load — the count the CRAM lens asks for.
    pub fn lookup_depth(&self, bits: u128) -> usize {
        match self.slot(bits) {
            None => 0,
            Some(Slot { chunk: None, .. }) => 1,
            Some(Slot { chunk: Some(chunk), .. }) => 1 + chunk.lookup(bits).1,
        }
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
        let mut lanes: [Option<(&Chunk, &PNode)>; WALK_GROUP] = [None; WALK_GROUP];
        // First level: every key's root slot, its leaf and its chunk.
        for ((&bits, answer), lane) in keys.iter().zip(out.iter_mut()).zip(lanes.iter_mut()) {
            let slot = self.slot(bits);
            *answer = slot.and_then(|s| s.leaf);
            *lane = slot.and_then(|s| s.chunk.as_deref()).map(|chunk| (chunk, &chunk.root));
        }
        // Every later level advances each still-descending key by one
        // chunk node. A child always decodes a deeper stride than its
        // parent and no node lies below bit 120, so the walk ends.
        let mut descending = true;
        while descending {
            descending = false;
            for ((&bits, answer), lane) in keys.iter().zip(out.iter_mut()).zip(lanes.iter_mut()) {
                let Some((chunk, node)) = lane else { continue };
                match chunk.step(node, bits) {
                    Level::Descend(child) => {
                        *node = &chunk.nodes[child];
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

    /// The distinct pages of the spine (pages no route has landed in
    /// share one empty page).
    fn distinct_pages(&self) -> impl Iterator<Item = &Page> + '_ {
        let mut seen = HashSet::new();
        self.pages.iter().filter(move |page| seen.insert(Arc::as_ptr(page))).map(|page| &**page)
    }

    /// `(chunks, nodes, leaves)` — the compressed footprint, for
    /// diagnostics and the scale benchmarks.
    pub fn footprint(&self) -> (usize, usize, usize) {
        let mut chunks = 0;
        let mut nodes = 0;
        let mut leaves = 0;
        for c in self.distinct_pages().flatten().filter_map(|s| s.chunk.as_deref()) {
            chunks += 1;
            nodes += 1 + c.nodes.len();
            leaves += c.leaves.len();
        }
        (chunks, nodes, leaves)
    }

    /// Heap bytes this version holds: the spine, every distinct page,
    /// every chunk. Versions that share pages and chunks each count them
    /// in full.
    pub fn heap_bytes(&self) -> usize {
        if self.pages.is_empty() {
            return 0;
        }
        let mut bytes = ARC_COUNTS + size_of_val(&*self.pages);
        for page in self.distinct_pages() {
            bytes += ARC_COUNTS + size_of::<Page>();
            for chunk in page.iter().filter_map(|s| s.chunk.as_deref()) {
                bytes += ARC_COUNTS + chunk.heap_bytes();
            }
        }
        bytes
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
    /// table, so it must cost no spine — until a delta gives it a route,
    /// and then answer like a rebuild, from one page per route.
    #[test]
    fn empty_tables_allocate_no_slot_arrays_until_a_delta() {
        let tables = crate::RouteTables::default();
        for lpm in [&tables.v4, &tables.v6, &CompressedLpm::build_from(&PrefixStore::default())] {
            assert!(lpm.pages.is_empty());
            assert_eq!(lpm.heap_bytes(), 0);
            assert_eq!(lpm.lookup_bits(v4_bits(10, 1, 2, 3)), None);
            assert_eq!(lpm.lookup_depth(v4_bits(10, 1, 2, 3)), 0);
        }

        let mut store = PrefixStore::default();
        for (a, len) in [(v4_bits(10, 0, 0, 0), 8), (v4_bits(10, 1, 2, 0), 24)] {
            store.insert(a, len, NextHop::port(u32::from(len)));
        }
        let mut slots = BTreeSet::new();
        slots.insert(0x0a01);
        let lpm = tables.v4.apply_delta(&store, &slots, &[(v4_bits(10, 0, 0, 0), 8)]);
        assert_eq!(lpm.pages.len(), PAGES);
        // The /8 covers 256 slots; every other page is the one shared
        // empty page.
        assert_eq!(lpm.distinct_pages().count(), 256 / PAGE + 1);
        let rebuilt = CompressedLpm::build_from(&store);
        assert_eq!(rebuilt.distinct_pages().count(), 256 / PAGE + 1);
        for key in [v4_bits(10, 1, 2, 3), v4_bits(10, 9, 9, 9), v4_bits(11, 0, 0, 1)] {
            assert_eq!(lpm.lookup_bits(key), rebuilt.lookup_bits(key));
        }
        // Withdrawing everything gives the empty table back.
        store.clear();
        assert!(lpm.apply_delta(&store, &slots, &[]).pages.is_empty());
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

    #[test]
    fn nodes_stay_small_and_slots_fit_two_words() {
        assert_eq!(size_of::<PNode>(), 72, "an un-skipped node costs what it did");
        assert_eq!(size_of::<Slot>(), 16, "a slot's leaf and chunk share one read");
        assert_eq!(size_of::<Page>(), PAGE * 16);
    }

    /// Applies `changes` (`Some` announces, `None` withdraws) to `store`
    /// and `lpm` as `RouteStore::commit` does.
    fn commit(
        store: &mut PrefixStore,
        lpm: &CompressedLpm,
        changes: &[(u128, u8, Option<NextHop>)],
    ) -> (CompressedLpm, BTreeSet<u16>) {
        let mut slots = BTreeSet::new();
        let mut shorts = Vec::new();
        for &(bits, len, action) in changes {
            let changed = match action {
                Some(nh) => store.insert(bits, len, nh),
                None => store.remove(bits, len),
            };
            if changed && len <= 16 {
                shorts.push((bits & mask_bits(len), len));
            } else if changed {
                slots.insert((bits >> 112) as u16);
            }
        }
        (lpm.apply_delta(store, &slots, &shorts), slots)
    }

    /// `lookup_bits`, `lookup_many` and a fresh rebuild all answer every
    /// key like the linear scan.
    fn assert_oracle(store: &PrefixStore, lpm: &CompressedLpm, keys: &[u128]) {
        let rebuilt = CompressedLpm::build_from(store);
        for (&key, got) in keys.iter().zip(assert_walk_matches(lpm, keys)) {
            let want = oracle(store, key);
            assert_eq!(got, want, "key {key:032x}");
            assert_eq!(rebuilt.lookup_bits(key), want, "rebuilt, key {key:032x}");
        }
    }

    #[test]
    fn commits_copy_only_the_pages_they_touch() {
        let mut rng = DetRng::seed_from_u64(0x9a9e);
        let mut store = PrefixStore::default();
        let random =
            |rng: &mut DetRng| u128::from(rng.next_u64()) << 64 | u128::from(rng.next_u64());
        for _ in 0..4_000 {
            let len = rng.gen_range_inclusive(17, 64) as u8;
            store.insert(random(&mut rng), len, NextHop::port(1));
        }
        let mut lpm = CompressedLpm::build_from(&store);
        for round in 0..20 {
            let changes: Vec<_> = (0..rng.gen_range_inclusive(1, 40))
                .map(|_| {
                    let len = rng.gen_range_inclusive(17, 64) as u8;
                    let nh = rng.gen_bool(0.5).then(|| NextHop::port(2));
                    (random(&mut rng), len, nh)
                })
                .collect();
            let (next, slots) = commit(&mut store, &lpm, &changes);
            let touched: BTreeSet<usize> = slots.iter().map(|&s| usize::from(s) / PAGE).collect();
            let mut differ = 0;
            for (p, (old, new)) in lpm.pages.iter().zip(next.pages.iter()).enumerate() {
                if Arc::ptr_eq(old, new) {
                    continue;
                }
                differ += 1;
                assert!(touched.contains(&p), "round {round}: untouched page {p} was copied");
            }
            assert!(
                differ <= slots.len(),
                "round {round}: {differ} pages for {} slots",
                slots.len()
            );
            lpm = next;
        }
        let probes: Vec<u128> = (0..500).map(|_| random(&mut rng)).collect();
        assert_oracle(&store, &lpm, &probes);
    }

    #[test]
    fn a_lone_long_prefix_is_one_node() {
        let key = 0x2001_0db8_aaaa_bbbb_0000_0000_0000_0001u128;
        let (_, lpm) = build(&[(key & mask_bits(64), 64, NextHop::port(6))]);
        assert_eq!(lpm.footprint(), (1, 1, 3), "one node: before, on and after the path");
        assert_eq!(lpm.lookup_depth(key), 2, "the root slot and one node");
        assert_eq!(lpm.lookup_bits(key), Some(NextHop::port(6)));
        // Leaving the path anywhere in its skipped 40 bits misses.
        for bit in 16..56 {
            assert_eq!(lpm.lookup_bits(key ^ (1 << (127 - bit))), None, "bit {bit}");
        }
    }

    #[test]
    fn compression_answers_right_at_its_edges() {
        let base = 0xfd00_1122_3344_5566_7788_99aa_bbcc_ddeeu128;
        let nh = NextHop::port;
        // Two /64s diverging exactly at the stride edge of bit 48 (the
        // first bit of the stride [48, 56)), and two diverging at its last
        // bit (55): either way the node decodes [48, 56).
        let at_edge = base & mask_bits(48);
        let first = 1u128 << (127 - 48);
        let last = 1u128 << (127 - 55);
        // A /128 alone in its slot, under a 104-bit skip, with a /12 cover.
        let host = 0xfd11_0000_0000_0000_0000_0000_0000_0042u128;
        let routes = [
            (at_edge, 64, nh(1)),
            (at_edge | first, 64, nh(2)),
            (at_edge | last, 64, nh(3)),
            (base & mask_bits(24), 24, nh(4)),
            (host, 128, nh(5)),
            (host & mask_bits(12), 12, nh(6)),
        ];
        let (store, lpm) = build(&routes);
        let mut keys = vec![0, u128::MAX, base, host, host ^ 1, host ^ 0x100];
        for &(bits, len, _) in &routes {
            // The route itself, every bit of its path flipped (from the
            // slot's first bit to its last), and the bits just past it.
            keys.push(bits | 0x7);
            for bit in 16..len {
                keys.push(bits ^ (1 << (127 - bit)));
            }
            if len < 128 {
                keys.push(bits | (1 << (127 - len)));
            }
        }
        assert_oracle(&store, &lpm, &keys);
        assert_eq!(lpm.lookup_bits(host), Some(nh(5)));
        assert_eq!(lpm.lookup_bits(host ^ (1 << 8)), Some(nh(6)), "leaves it at its last bit");
        assert_eq!(lpm.lookup_bits(host ^ (1 << 111)), Some(nh(6)), "leaves it at its first bit");
        assert_eq!(lpm.lookup_depth(host), 2, "a /128 alone in its slot is one node");
    }

    #[test]
    fn deltas_split_a_compressed_path_and_merge_it_back() {
        let nh = NextHop::port;
        let lone = 0xfd22_3344_5566_7788_0000_0000_0000_0000u128;
        let (mut store, lpm) = build(&[(lone, 64, nh(1)), (lone & mask_bits(16), 16, nh(9))]);
        assert_eq!(lpm.lookup_depth(lone), 2);
        let mut keys: Vec<u128> = (16..72).map(|bit| lone ^ (1 << (127 - bit))).collect();
        keys.extend([lone, lone | 1]);
        // Splits at successive strides: each new route branches the path
        // one stride further up, then everything but the lone route goes.
        let mut lpm = lpm;
        let splits: Vec<(u128, u8, Option<NextHop>)> = [24u8, 40, 56, 63]
            .iter()
            .map(|&bit| (lone ^ (1 << (127 - bit)), 64, Some(nh(u32::from(bit)))))
            .collect();
        for change in &splits {
            lpm = commit(&mut store, &lpm, &[*change]).0;
            assert_oracle(&store, &lpm, &keys);
        }
        assert!(lpm.lookup_depth(lone) > 2, "the split path has more than one node");
        for &(bits, len, _) in &splits {
            lpm = commit(&mut store, &lpm, &[(bits, len, None)]).0;
            assert_oracle(&store, &lpm, &keys);
        }
        assert_eq!(lpm.lookup_depth(lone), 2, "merged back into one node");
        // A route ending inside the skipped stretch splits it too.
        lpm = commit(&mut store, &lpm, &[(lone, 36, Some(nh(7)))]).0;
        assert_oracle(&store, &lpm, &keys);
        lpm = commit(&mut store, &lpm, &[(lone, 36, None)]).0;
        assert_oracle(&store, &lpm, &keys);
        assert_eq!(lpm.lookup_depth(lone), 2);
    }
}
