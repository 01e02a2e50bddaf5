//! # dip-routes — scalable, incrementally-updatable forwarding state
//!
//! The paper's single shared L3 core only matters if its forwarding
//! state survives real scale: a million IP routes, hundreds of
//! thousands of names, and a control plane that flaps prefixes under
//! live traffic. This crate owns that state for every protocol
//! (DESIGN.md §14):
//!
//! * [`lpm`] — a compressed multibit/poptrie-style LPM (direct 2^16
//!   root, stride-8 popcount-navigated chunks, run-compressed leaves)
//!   holding ≥1M IPv4 and ≥500k IPv6 routes; an empty table allocates
//!   nothing; a batch of keys walks it level by level so their cache
//!   misses overlap;
//! * [`name_fib`] / [`xia_fib`] — a hash-compacted NDN name FIB
//!   (rolling per-depth prefix hashes, deepest-first probes) and a
//!   flattened XIA route table that preserves the declared-type
//!   distinction;
//! * [`delta`] — [`RouteDelta`] add/withdraw/replace batches, the unit
//!   of incremental update;
//! * [`store`] — [`RouteStore`], the authoritative ground truth whose
//!   `commit` derives the next immutable [`RouteTables`] version
//!   copy-on-write (only touched chunks rebuilt, untouched families
//!   `Arc`-shared), plus the `dip_routes_*` telemetry family;
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
