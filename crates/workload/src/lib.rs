//! # dip-workload — deterministic load generation & SLO measurement
//!
//! The ROADMAP's north star is a system that "serves heavy traffic from
//! millions of users"; this crate is the principled way to *offer* that
//! traffic and decide whether the dataplane survived it (DESIGN.md §11):
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
//! * [`openloop`] — offers a trace at a fixed rate to one
//!   [`dip_core::DipRouter`] behind a deterministic virtual-time queue
//!   model over the [`dip_sim::TofinoModel`] service times, counting
//!   injection-side overload through the shared drop taxonomy. Its
//!   latencies are PISA-model numbers, a behaviour pin, not software
//!   speed: the repo benchmark (`python3 benchmark/run.py`) is the one
//!   measurement of the threaded dataplane;
//! * [`closedloop`] — request/response rounds over [`dip_sim`]'s
//!   discrete-event network for NDN interest/data and NDN+OPT sessions;
//! * [`slo`] — the SLO evaluator and the max-sustainable-throughput
//!   binary search ([`slo::find_mst`]): the highest offered rate with
//!   `p99 ≤ bound` and `drop fraction ≤ bound`, validating the packet
//!   accounting identity (forwarded + consumed + drops == injected) on
//!   every trial.
//!
//! The `dipload` CLI (workspace root) prints the results as `dip_bench`
//! JSON lines.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod churn;
pub mod closedloop;
pub mod models;
pub mod openloop;
pub mod slo;
pub mod trace;

pub use churn::{ChurnGen, ChurnSpec};
pub use closedloop::{run_closed_loop, ClosedLoopConfig, ClosedLoopReport, ExchangeKind};
pub use models::{ArrivalGen, ArrivalModel, BoundedPareto, Zipf};
pub use openloop::{run_open_loop, OpenLoopConfig, OpenLoopReport};
pub use slo::{find_mst, MstConfig, MstResult, Slo, Trial};
pub use trace::{Mix, Trace, TracePacket, TrafficClass, WorkloadSpec};
