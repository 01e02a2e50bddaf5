//! # dip-workload — deterministic load generation
//!
//! Seeded traffic for the simulator, the threaded dataplane's tests and the
//! PISA-model pins (DESIGN.md §11):
//!
//! * [`models`] — the statistical ingredients: Zipf content popularity
//!   (NDN interests concentrate on few names), bounded-Pareto flow sizes
//!   (heavy-tailed elephants and mice), and Poisson / bursty on-off
//!   (MMPP-style) arrival processes. Everything draws from the in-repo
//!   [`dip_crypto::DetRng`], so identical seeds yield byte-identical
//!   traces;
//! * [`trace`] — [`WorkloadSpec`] turns a seed, a protocol [`Mix`] over
//!   the five paper protocols (+ NDN+OPT), and a rate into a concrete
//!   [`Trace`] of timestamped packets, plus [`WorkloadSpec::build_router`]
//!   which seeds a [`dip_core::DipRouter`] with the covering routes and
//!   CRAM-scale synthetic tables the trace assumes;
//! * [`churn`] — seeded BGP-style route-update storms (flap pools,
//!   hot-set locality) committed as `dip-routes` deltas and published as
//!   tables-only snapshots while traffic runs;
//! * [`openloop`] — replays a trace through one
//!   [`dip_core::DipRouter`] and prices every packet with the
//!   [`dip_sim::TofinoModel`]: verdict counts, the accounting identity,
//!   the trace fingerprints and the p50 / p99 / sum of the modeled price.
//!   Those are PISA-model numbers, a behaviour pin (`tests/pins.rs`), not
//!   software speed: the repo benchmark (`python3 benchmark/run.py`) is
//!   the one measurement of the threaded dataplane;
//! * [`closedloop`] — request/response rounds over [`dip_sim`]'s
//!   discrete-event network for NDN interest/data and NDN+OPT sessions.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod churn;
pub mod closedloop;
pub mod models;
pub mod openloop;
pub mod trace;

pub use churn::{ChurnGen, ChurnSpec};
pub use closedloop::{run_closed_loop, ClosedLoopConfig, ClosedLoopReport, ExchangeKind};
pub use models::{ArrivalGen, ArrivalModel, BoundedPareto, Zipf};
pub use openloop::{run_open_loop, OpenLoopReport};
pub use trace::{Mix, Trace, TracePacket, TrafficClass, WorkloadSpec};
