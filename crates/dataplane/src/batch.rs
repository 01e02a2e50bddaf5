//! `PacketBatch` — a fixed-capacity, index-recycling arena of packet
//! buffers.
//!
//! Batching is the second throughput lever of software dataplanes (after
//! sharding): a worker drains up to `capacity` packets from its ring,
//! executes them back-to-back so program compilation, route-snapshot
//! refresh, and cache-warm table state amortize across the whole batch,
//! then recycles every slot *without freeing the buffers*. Admitting a
//! packet ([`PacketBatch::adopt`]) hands back the buffer it displaces, so
//! the caller can refill that allocation and the steady state performs no
//! per-packet allocation at all.

use dip_tables::{Port, Ticks};

/// One occupied slot of a [`PacketBatch`].
#[derive(Debug, Default)]
pub struct PacketSlot {
    /// The packet bytes (mutated in place by FN execution).
    pub buf: Vec<u8>,
    /// Global admission sequence number (set by the dispatcher; total
    /// order across all workers for deterministic result merging).
    pub seq: u64,
    /// Ingress port.
    pub in_port: Port,
    /// Virtual arrival time.
    pub now: Ticks,
}

/// A fixed-capacity arena of packet slots with index recycling.
#[derive(Debug)]
pub struct PacketBatch {
    slots: Vec<PacketSlot>,
    /// Recycled slot indexes available for the next admission.
    free: Vec<usize>,
    /// Occupied slot indexes, in admission order.
    live: Vec<usize>,
}

impl PacketBatch {
    /// An empty batch of `capacity` slots (buffers allocated lazily on
    /// first use, then recycled forever).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        let mut slots = Vec::with_capacity(capacity);
        slots.resize_with(capacity, PacketSlot::default);
        PacketBatch {
            slots,
            free: (0..capacity).rev().collect(),
            live: Vec::with_capacity(capacity),
        }
    }

    /// Slot capacity.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Occupied slots.
    pub fn len(&self) -> usize {
        self.live.len()
    }

    /// Whether no slot is occupied.
    pub fn is_empty(&self) -> bool {
        self.live.is_empty()
    }

    /// Whether every slot is occupied (time to execute the batch).
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Admits an already-owned buffer (zero-copy handoff from a ring job).
    /// The displaced recycled buffer is returned so the caller can reuse
    /// its allocation. `None` when the batch is full.
    pub fn adopt(&mut self, buf: Vec<u8>, seq: u64, in_port: Port, now: Ticks) -> Option<Vec<u8>> {
        let idx = self.free.pop()?;
        let slot = &mut self.slots[idx];
        let old = std::mem::replace(&mut slot.buf, buf);
        slot.seq = seq;
        slot.in_port = in_port;
        slot.now = now;
        self.live.push(idx);
        Some(old)
    }

    /// The occupied slot indexes in admission order.
    pub fn live(&self) -> &[usize] {
        &self.live
    }

    /// Read access to a slot.
    pub fn slot(&self, idx: usize) -> &PacketSlot {
        &self.slots[idx]
    }

    /// Write access to a slot (FN execution mutates the buffer in place).
    pub fn slot_mut(&mut self, idx: usize) -> &mut PacketSlot {
        &mut self.slots[idx]
    }

    /// Recycles every occupied slot without touching the buffers.
    pub fn recycle_all(&mut self) {
        // Reverse keeps pop order equal to ascending slot index, matching
        // the initial free-list layout.
        while let Some(idx) = self.live.pop() {
            self.free.push(idx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_rejects_then_recycles() {
        let mut b = PacketBatch::new(2);
        assert!(b.adopt(b"one".to_vec(), 1, 0, 0).is_some());
        assert!(b.adopt(b"two".to_vec(), 2, 0, 0).is_some());
        assert!(b.is_full());
        assert!(b.adopt(b"three".to_vec(), 3, 0, 0).is_none());
        b.recycle_all();
        assert!(b.is_empty());
        assert!(b.adopt(b"four".to_vec(), 4, 0, 0).is_some());
    }

    #[test]
    fn live_is_admission_order_and_recycling_keeps_buffers() {
        let mut b = PacketBatch::new(4);
        for i in 0..4u64 {
            b.adopt(vec![i as u8; 8], i, i as u32, i);
        }
        let seen: Vec<u64> = b.live().iter().map(|&idx| b.slot(idx).seq).collect();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        b.recycle_all();

        // Refill: the displaced buffers are the recycled 8-byte ones.
        for i in 0..4u64 {
            let old = b.adopt(vec![0xff; 4], i + 10, 0, 0).unwrap();
            assert_eq!(old.capacity(), 8, "recycling must not free allocations");
        }
    }

    #[test]
    fn adopt_swaps_buffers() {
        let mut b = PacketBatch::new(1);
        b.adopt(vec![1, 2, 3], 0, 0, 0);
        b.recycle_all();
        let recycled = b.adopt(vec![9; 16], 1, 2, 3).unwrap();
        assert_eq!(recycled, vec![1, 2, 3], "displaced buffer handed back");
        let idx = b.live()[0];
        assert_eq!(b.slot(idx).buf, vec![9; 16]);
        assert_eq!(b.slot(idx).in_port, 2);
    }
}
