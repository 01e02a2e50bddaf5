//! # dip-routes — scalable, incrementally-updatable forwarding state
//!
//! The paper's single shared L3 core only matters if its forwarding
//! state survives real scale: a million IP routes, hundreds of
//! thousands of names, and a control plane that flaps prefixes under
//! live traffic. This crate owns that state for every protocol
//! (DESIGN.md §14):
//!
//! * [`lpm`] — a compressed multibit/poptrie-style LPM (a 2^16 root in
//!   copy-on-write pages, path-compressed stride-8 popcount-navigated
//!   chunks, run-compressed leaves) holding ≥1M IPv4 and ≥500k IPv6
//!   routes; an empty table allocates nothing; a batch of keys walks it
//!   level by level so their cache misses overlap;
//! * [`name_fib`] / [`xia_fib`] — a hash-compacted NDN name FIB
//!   (rolling per-depth prefix hashes, deepest-first probes) and a
//!   flattened XIA route table that preserves the declared-type
//!   distinction;
//! * [`delta`] — [`RouteDelta`] add/withdraw/replace batches, the unit
//!   of incremental update;
//! * [`store`] — [`RouteStore`], the authoritative ground truth whose
//!   `commit` derives the next immutable [`RouteTables`] version
//!   copy-on-write (only touched chunks rebuilt and the root pages
//!   holding them copied, untouched pages and families `Arc`-shared),
//!   plus the `dip_routes_*` telemetry family;
//! * [`synth`] — deterministic distinct-route generators for the scale
//!   tests and benches.
//!
//! These are the only forwarding tables in the workspace: every router
//! answers `F_32_match`, `F_128_match`, `F_FIB` and `F_intent` from one
//! [`RouteTables`], built by a [`RouteStore`] — by hand-configured
//! routers, the control plane and the benchmark alike. The witnesses
//! are linear-scan oracles (`tests/million_oracle.rs`,
//! `tests/name_xia_oracle.rs`) and `tests/delta_equivalence.rs`.
//!
//! Everything published to a dataplane is immutable: workers swap
//! whole [`RouteTables`] values at epoch boundaries and never observe
//! a half-applied delta. `diplint` pins delta application and
//! compressed-table construction to this crate.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod delta;
pub mod lpm;
pub mod name_fib;
pub mod store;
pub mod synth;
pub mod xia_fib;

pub use delta::RouteDelta;
pub use lpm::CompressedLpm;
pub use name_fib::CompactNameFib;
pub use store::{RouteKey, RouteStore, RouteTables, StoreStats};
pub use synth::{synthesize_v4, synthesize_v6};
pub use xia_fib::CompactXia;

use std::collections::HashMap;
use std::sync::Arc;

/// The bytes an `Arc` allocation adds to its value: the two counts.
pub(crate) const ARC_COUNTS: usize = 2 * size_of::<usize>();

/// Heap bytes of the table `std`'s hashbrown allocates for `capacity`
/// entries of `entry` bytes: a power-of-two bucket count at most 7/8
/// full, each bucket an entry and a control byte, plus one group of
/// trailing control bytes.
pub(crate) fn hash_table_bytes(capacity: usize, entry: usize) -> usize {
    match capacity {
        0 => 0,
        cap => {
            let buckets = if cap < 8 { 8 } else { (cap * 8 / 7).next_power_of_two() };
            buckets * (entry + 1) + 16
        }
    }
}

/// Heap bytes of an `Arc`-shared hash map: the `Arc` around the map and
/// its table. An empty table shares nothing (`None`) and costs nothing.
pub(crate) fn shared_map_bytes<K, V, S>(map: &Option<Arc<HashMap<K, V, S>>>) -> usize {
    map.as_ref().map_or(0, |map| {
        ARC_COUNTS
            + size_of::<HashMap<K, V, S>>()
            + hash_table_bytes(map.capacity(), size_of::<(K, V)>())
    })
}
