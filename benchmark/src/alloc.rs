//! A counting allocator for the traced binary.
//!
//! `dipbench-traced` installs [`Counting`] as its `#[global_allocator]`;
//! the untraced `dipbench` does not, so end-to-end numbers never pay for
//! the two relaxed atomic adds per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);

/// Forwards to the system allocator and counts calls and bytes.
pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics (relaxed
// atomics) and publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        FREED_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: same contract as `dealloc` for `ptr`/`layout`; the caller
        // guarantees `new_size` is non-zero and does not overflow.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A reading of the process-wide counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllocSnapshot {
    pub allocs: u64,
    pub bytes: u64,
    /// Bytes allocated and not yet freed.
    pub live: u64,
}

/// Whether [`Counting`] is this process's allocator (it has seen a call).
pub fn installed() -> bool {
    ALLOCS.load(Ordering::Relaxed) > 0
}

pub fn snapshot() -> AllocSnapshot {
    let bytes = ALLOC_BYTES.load(Ordering::Relaxed);
    AllocSnapshot {
        allocs: ALLOCS.load(Ordering::Relaxed),
        bytes,
        live: bytes.saturating_sub(FREED_BYTES.load(Ordering::Relaxed)),
    }
}
