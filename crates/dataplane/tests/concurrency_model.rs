//! Exhaustive-interleaving model check of the dataplane's two lock-free
//! protocols: the Lamport SPSC ring (`ring.rs`) and the epoch-swap
//! publication cell (`snapshot.rs`).
//!
//! Each protocol is abstracted into a small state machine whose steps are
//! exactly the shared-memory accesses of the real implementation (one
//! atomic load/store or one slot access per step; purely thread-local
//! work is folded into the adjacent step, which removes no interleavings).
//! A memoized depth-first search then drives **every** schedule of the
//! two threads up to a bounded operation count and asserts the protocol
//! invariants in every reachable state:
//!
//! * the consumer never reads an unwritten/already-consumed slot (the
//!   memory-safety claim behind ring.rs's `SAFETY` comments);
//! * the producer never overwrites a slot the consumer has not taken;
//! * delivery is FIFO (popped sequence numbers strictly increase);
//! * conservation at quiescence: `pushed = delivered + drops + occupancy`
//!   — the drop/delivery/occupancy balance the telemetry ledger pins;
//! * epoch-swap visibility: a reader that observes epoch `k` and then
//!   refreshes never receives a value older than publication `k`;
//! * epoch-swap liveness: wherever the reader's creation falls among the
//!   publications, the last published value is *applied* (reported by a
//!   `refresh`) once both sides are quiet — never merely cached.
//!
//! The search explores sequentially consistent interleavings. The real
//! code uses Release/Acquire, which is sufficient here because each
//! protocol synchronizes through a single publication edge per direction:
//! the ring's slot write happens-before the Release tail store, whose
//! Acquire load happens-before the slot read (and symmetrically for
//! head); the cell's slot swap happens-before the Release epoch bump,
//! whose Acquire load happens-before the locked slot clone. Weaker-than-SC
//! executions can only delay *when* a flag value becomes visible — every
//! such delayed observation is equivalent to an SC schedule in which the
//! load simply ran earlier, which the exhaustive search already covers.
//! What Release/Acquire must not permit is observing the flag *without*
//! the payload — exactly the reordering the two `_bug` models inject, and
//! the search proves those are caught.

use std::collections::HashSet;

// ---------------------------------------------------------------------------
// Lamport SPSC ring
// ---------------------------------------------------------------------------

/// Ring capacity (power of two, as in `spsc`). Two slots keeps the state
/// space tight while still exercising wraparound (4 pushes cross the
/// slot array twice).
const CAP: usize = 2;
const MASK: u8 = (CAP as u8) - 1;
/// Pushes the producer attempts (`push_or_drop` semantics: full ring
/// drops and counts).
const PUSHES: u8 = 4;
/// Pop attempts the consumer makes (empty attempts count, as in a worker
/// polling its ring).
const POPS: u8 = 5;

/// Which store order the producer's hot path uses.
#[derive(Clone, Copy, PartialEq)]
enum RingVariant {
    /// slot write, then Release tail store — the real protocol.
    Correct,
    /// tail store before the slot write — the torn-publication bug the
    /// Release/Acquire pair exists to prevent. The checker must catch it.
    PublishBeforeWrite,
}

/// One interleaving point per shared-memory access; everything else is
/// thread-local and folded into the neighboring step.
#[derive(Clone, PartialEq, Eq, Hash)]
struct RingState {
    // Shared memory.
    slots: [Option<u8>; CAP],
    head: u8,
    tail: u8,
    // Producer thread: pc 0 = deciding/full-checking, 1 = first hot-path
    // store, 2 = second hot-path store, 3 = done.
    ppc: u8,
    cached_head: u8,
    next_seq: u8,
    pushed: u8,
    drops: u8,
    // Consumer thread: pc 0 = deciding/empty-checking, 1 = slot read,
    // 2 = head publish, 3 = done.
    cpc: u8,
    cached_tail: u8,
    pops: u8,
    delivered: u8,
    /// Last delivered sequence number plus one (0 = nothing yet), for the
    /// FIFO check.
    watermark: u8,
}

impl RingState {
    fn initial() -> Self {
        RingState {
            slots: [None; CAP],
            head: 0,
            tail: 0,
            ppc: 0,
            cached_head: 0,
            next_seq: 0,
            pushed: 0,
            drops: 0,
            cpc: 0,
            cached_tail: 0,
            pops: 0,
            delivered: 0,
            watermark: 0,
        }
    }

    fn producer_done(&self) -> bool {
        self.ppc == 3
    }

    fn consumer_done(&self) -> bool {
        self.cpc == 3
    }

    /// Advances the producer by one shared-memory access.
    fn step_producer(&self, variant: RingVariant) -> Result<RingState, String> {
        let mut s = self.clone();
        match self.ppc {
            0 => {
                if s.pushed == PUSHES {
                    s.ppc = 3;
                    return Ok(s);
                }
                // try_push's fast full-check reads only producer-owned
                // state (tail, cached_head): no interleaving point. When
                // it looks full, the *one* shared access is the Acquire
                // refresh of head, with the local re-check folded in.
                if s.tail.wrapping_sub(s.cached_head) > MASK {
                    s.cached_head = s.head;
                    if s.tail.wrapping_sub(s.cached_head) > MASK {
                        // Still full: drop and count, value lost.
                        s.drops += 1;
                        s.next_seq += 1;
                        s.pushed += 1;
                        return Ok(s);
                    }
                }
                s.ppc = 1;
                Ok(s)
            }
            1 => {
                match variant {
                    RingVariant::Correct => {
                        let slot = &mut s.slots[(s.tail & MASK) as usize];
                        if slot.is_some() {
                            return Err(format!(
                                "producer overwrote unconsumed slot {}",
                                s.tail & MASK
                            ));
                        }
                        *slot = Some(s.next_seq);
                    }
                    RingVariant::PublishBeforeWrite => s.tail = s.tail.wrapping_add(1),
                }
                s.ppc = 2;
                Ok(s)
            }
            2 => {
                match variant {
                    RingVariant::Correct => s.tail = s.tail.wrapping_add(1),
                    RingVariant::PublishBeforeWrite => {
                        let idx = (s.tail.wrapping_sub(1) & MASK) as usize;
                        if s.slots[idx].is_some() {
                            return Err(format!("producer overwrote unconsumed slot {idx}"));
                        }
                        s.slots[idx] = Some(s.next_seq);
                    }
                }
                s.next_seq += 1;
                s.pushed += 1;
                s.ppc = 0;
                Ok(s)
            }
            _ => unreachable!("producer stepped after done"),
        }
    }

    /// Advances the consumer by one shared-memory access.
    fn step_consumer(&self) -> Result<RingState, String> {
        let mut s = self.clone();
        match self.cpc {
            0 => {
                if s.pops == POPS {
                    s.cpc = 3;
                    return Ok(s);
                }
                // Mirror of the producer: the fast empty-check is local
                // (head is consumer-owned); the shared access is the
                // Acquire refresh of tail.
                if s.head == s.cached_tail {
                    s.cached_tail = s.tail;
                    if s.head == s.cached_tail {
                        s.pops += 1; // empty poll
                        return Ok(s);
                    }
                }
                s.cpc = 1;
                Ok(s)
            }
            1 => {
                let slot = &mut s.slots[(s.head & MASK) as usize];
                let Some(v) = slot.take() else {
                    return Err(format!(
                        "consumer read unwritten slot {} (head={}, tail published)",
                        s.head & MASK,
                        s.head
                    ));
                };
                if v < s.watermark {
                    return Err(format!("FIFO violated: got {v} after watermark {}", s.watermark));
                }
                s.watermark = v + 1;
                s.delivered += 1;
                s.cpc = 2;
                Ok(s)
            }
            2 => {
                s.head = s.head.wrapping_add(1);
                s.pops += 1;
                s.cpc = 0;
                Ok(s)
            }
            _ => unreachable!("consumer stepped after done"),
        }
    }

    /// Invariants asserted in terminal states (both threads finished).
    fn check_quiescent(&self) -> Result<(), String> {
        let occupancy = self.tail.wrapping_sub(self.head);
        if self.pushed != self.delivered + self.drops + occupancy {
            return Err(format!(
                "conservation violated: pushed {} != delivered {} + drops {} + occupancy {}",
                self.pushed, self.delivered, self.drops, occupancy
            ));
        }
        for pos in self.head..self.tail {
            if self.slots[(pos & MASK) as usize].is_none() {
                return Err(format!("queued position {pos} holds no value"));
            }
        }
        Ok(())
    }
}

/// Explores every 2-thread schedule from the initial state; returns the
/// number of distinct states visited, or the first invariant violation.
fn explore_ring(variant: RingVariant) -> Result<usize, String> {
    let mut seen: HashSet<RingState> = HashSet::new();
    let mut stack = vec![RingState::initial()];
    seen.insert(stack[0].clone());
    let mut terminals = 0usize;
    while let Some(state) = stack.pop() {
        if state.producer_done() && state.consumer_done() {
            state.check_quiescent()?;
            terminals += 1;
            continue;
        }
        if !state.producer_done() {
            let next = state.step_producer(variant)?;
            if seen.insert(next.clone()) {
                stack.push(next);
            }
        }
        if !state.consumer_done() {
            let next = state.step_consumer()?;
            if seen.insert(next.clone()) {
                stack.push(next);
            }
        }
    }
    assert!(terminals > 0, "exploration reached no terminal state");
    Ok(seen.len())
}

#[test]
fn ring_protocol_holds_under_every_interleaving() {
    let states = explore_ring(RingVariant::Correct).expect("ring invariant violated");
    // The bound must be large enough that the search is actually doing
    // work: full/empty refreshes, drops, and wraparound all reachable.
    assert!(states > 500, "suspiciously small state space: {states}");
}

#[test]
fn ring_checker_catches_publish_before_write() {
    // Teeth: publishing tail ahead of the slot write must be caught as a
    // consumer read of an unwritten slot in *some* schedule.
    let err = explore_ring(RingVariant::PublishBeforeWrite)
        .expect_err("reordered publication must violate an invariant");
    assert!(err.contains("unwritten slot"), "unexpected violation: {err}");
}

// ---------------------------------------------------------------------------
// EpochCell swap publication
// ---------------------------------------------------------------------------

/// Publications the writer performs (values 1..=PUBLISHES; 0 is initial).
const PUBLISHES: u8 = 3;
/// Refresh attempts the reader makes.
const REFRESHES: u8 = 4;

#[derive(Clone, Copy, PartialEq)]
enum CellVariant {
    /// slot swap, then Release epoch bump — the real `EpochCell::publish`.
    Correct,
    /// epoch bump before the slot swap: a reader can observe the new
    /// epoch yet clone the old value. The checker must catch it.
    BumpBeforeSwap,
}

/// How `EpochCell::reader` initialises the reader's `seen` epoch.
#[derive(Clone, Copy, PartialEq)]
enum ReaderStart {
    /// `seen = 0`: the real constructor. Whatever was published before the
    /// reader existed is reported by its first refresh.
    OwesFirstRefresh,
    /// `seen` = the epoch loaded at creation: the constructor before the
    /// fix. A publication that precedes the creation is cached but never
    /// reported, so a worker that applies on `refresh() == true` never
    /// applies it. The checker must catch it.
    PrimedAtCreation,
}

#[derive(Clone, PartialEq, Eq, Hash)]
struct CellState {
    // Shared: the published value (slot, mutex-guarded in the real code,
    // so one access = one step) and the epoch counter.
    slot: u8,
    epoch: u8,
    // Publisher: pc 0 = first store, 1 = second store, 2 = done.
    published: u8,
    ppc: u8,
    // Reader: pc 3 = creation's epoch load (`PrimedAtCreation` only),
    // 4 = creation's slot clone, 0 = epoch load, 1 = conditional slot
    // clone, 2 = done.
    seen: u8,
    cached: u8,
    /// The value the reader's owner last acted on: set only when a refresh
    /// reports a change, as `worker_loop` applies a snapshot.
    applied: u8,
    loaded_epoch: u8,
    attempts: u8,
    rpc: u8,
}

impl CellState {
    fn initial(start: ReaderStart) -> Self {
        CellState {
            slot: 0,
            epoch: 0,
            published: 0,
            ppc: 0,
            seen: 0,
            cached: 0,
            applied: 0,
            loaded_epoch: 0,
            attempts: 0,
            rpc: match start {
                ReaderStart::OwesFirstRefresh => 4,
                ReaderStart::PrimedAtCreation => 3,
            },
        }
    }

    fn step_publisher(&self, variant: CellVariant) -> CellState {
        let mut s = self.clone();
        let value = s.published + 1;
        match (self.ppc, variant) {
            (0, CellVariant::Correct) | (1, CellVariant::BumpBeforeSwap) => {
                s.slot = value;
                s.ppc = if self.ppc == 0 { 1 } else { 0 };
            }
            (0, CellVariant::BumpBeforeSwap) | (1, CellVariant::Correct) => {
                s.epoch = value;
                s.ppc = if self.ppc == 0 { 1 } else { 0 };
            }
            _ => unreachable!(),
        }
        if s.ppc == 0 {
            s.published += 1;
            if s.published == PUBLISHES {
                s.ppc = 2;
            }
        }
        s
    }

    fn step_reader(&self) -> Result<CellState, String> {
        let mut s = self.clone();
        match self.rpc {
            3 => {
                // The old `EpochCell::reader`: prime `seen` from the cell.
                s.seen = s.epoch;
                s.rpc = 4;
                Ok(s)
            }
            4 => {
                // `EpochCell::reader`: the locked clone of the current value.
                s.cached = s.slot;
                s.rpc = 0;
                Ok(s)
            }
            0 => {
                // `EpochReader::refresh`: the Acquire epoch load.
                s.loaded_epoch = s.epoch;
                s.rpc = 1;
                Ok(s)
            }
            1 => {
                s.refresh_tail()?;
                s.attempts += 1;
                s.rpc = if s.attempts == REFRESHES { 2 } else { 0 };
                Ok(s)
            }
            _ => unreachable!("reader stepped after done"),
        }
    }

    /// The second half of `refresh`: the conditional locked slot clone.
    /// Visibility invariant: having observed epoch k, the value must be
    /// from publication k or newer (the publisher may have advanced in
    /// between — never regressed).
    fn refresh_tail(&mut self) -> Result<(), String> {
        if self.loaded_epoch != self.seen {
            self.cached = self.slot;
            if self.cached < self.loaded_epoch {
                return Err(format!(
                    "snapshot visibility violated: epoch {} delivered value {}",
                    self.loaded_epoch, self.cached
                ));
            }
            self.seen = self.loaded_epoch;
            self.applied = self.cached;
        }
        Ok(())
    }

    /// Liveness at quiescence: with the publisher finished, one more
    /// refresh (a worker's next batch boundary) must leave the last
    /// publication applied.
    fn check_quiescent(&self) -> Result<(), String> {
        let mut s = self.clone();
        s.loaded_epoch = s.epoch;
        s.refresh_tail()?;
        if s.applied != s.slot {
            return Err(format!(
                "publication lost: value {} is cached ({}) but the last applied is {}",
                s.slot, s.cached, s.applied
            ));
        }
        Ok(())
    }
}

fn explore_cell(variant: CellVariant, start: ReaderStart) -> Result<usize, String> {
    let mut seen: HashSet<CellState> = HashSet::new();
    let mut stack = vec![CellState::initial(start)];
    seen.insert(stack[0].clone());
    while let Some(state) = stack.pop() {
        if state.ppc == 2 && state.rpc == 2 {
            state.check_quiescent()?;
            continue;
        }
        if state.ppc != 2 {
            let next = state.step_publisher(variant);
            if seen.insert(next.clone()) {
                stack.push(next);
            }
        }
        if state.rpc != 2 {
            let next = state.step_reader()?;
            if seen.insert(next.clone()) {
                stack.push(next);
            }
        }
    }
    Ok(seen.len())
}

#[test]
fn epoch_swap_visibility_holds_under_every_interleaving() {
    let states = explore_cell(CellVariant::Correct, ReaderStart::OwesFirstRefresh)
        .expect("epoch-cell invariant violated");
    assert!(states > 100, "suspiciously small state space: {states}");
}

#[test]
fn epoch_checker_catches_bump_before_swap() {
    let err = explore_cell(CellVariant::BumpBeforeSwap, ReaderStart::OwesFirstRefresh)
        .expect_err("reordered publication must violate visibility");
    assert!(err.contains("visibility violated"), "unexpected violation: {err}");
}

#[test]
fn epoch_checker_catches_publish_before_reader_creation() {
    // Teeth for the liveness invariant: a reader primed with the epoch it
    // was created at never reports the publications that preceded it (the
    // `publish_routes`-right-after-`Dataplane::start` race).
    let err = explore_cell(CellVariant::Correct, ReaderStart::PrimedAtCreation)
        .expect_err("a publication before reader creation must be lost");
    assert!(err.contains("publication lost"), "unexpected violation: {err}");
}
