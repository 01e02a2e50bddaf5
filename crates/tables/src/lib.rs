//! # dip-tables — per-router flow state for DIP
//!
//! The operation modules of Table 1 consult per-router state:
//!
//! * `F_PIT` — the pending interest table ([`pit::Pit`]) with per-entry
//!   faces, nonces and expiry, plus the state budget of §2.4;
//! * the optional NDN content store ([`content_store::ContentStore`],
//!   footnote 2 of the paper);
//! * the routing decisions the lookup FNs return — [`fib::NextHop`] for
//!   `F_32_match` / `F_128_match` / `F_FIB` and [`XiaNextHop`] for
//!   `F_intent`. The forwarding tables that hold them are compiled by
//!   `dip-routes` (`RouteStore` → `RouteTables`).
//!
//! All time is *virtual*: methods that expire state take a `now` tick so the
//! tables work identically under the discrete-event simulator and in
//! benchmarks (no wall-clock reads on the datapath).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod content_store;
pub mod fib;
pub mod keyed;
pub mod pit;
pub mod siphash;
pub mod xia_table;

pub use content_store::ContentStore;
pub use keyed::TableHasher;
pub use pit::{Pit, PitConsume, PitError, PitOutcome, Ports};
pub use xia_table::XiaNextHop;

/// A router port / face identifier.
pub type Port = u32;

/// Virtual time in nanoseconds, as driven by the simulator or benchmarks.
pub type Ticks = u64;
