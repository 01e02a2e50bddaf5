//! # dip-dataplane — a multi-worker batched software dataplane runtime
//!
//! The paper's prototype forwards at line rate because a PISA pipeline is
//! hardware-parallel; a software reproduction gets its throughput the way
//! DPDK-class frameworks do, with exactly two ideas (DESIGN.md §8):
//!
//! * **flow sharding** — [`shard::FlowShard`] hashes the FN *locations
//!   area* (DIP's protocol-agnostic flow identity: IP address pairs, NDN
//!   names, XIA DAGs all live there) to one of N run-to-completion
//!   workers, each owning a private [`dip_core::DipRouter`]. Per-flow
//!   state (PIT entries, content-store lines) never crosses a shard
//!   boundary, so workers share nothing mutable;
//! * **batching** — each worker drains its [`ring`] into a
//!   [`batch::PacketBatch`] (a fixed-capacity, index-recycling buffer
//!   arena) and executes up to `batch_size` packets back-to-back. The
//!   per-worker [`program::ProgramCache`] compiles each distinct FN
//!   program once — registry lookups, per-op costs, the §2.2
//!   parallel-plan hazard analysis — and `dipcheck`-lints it before the
//!   shard accepts it, so the per-packet hot path is parse + execute.
//!
//! Control-plane updates ride [`snapshot::EpochCell`]: complete
//! [`snapshot::RouteSnapshot`]s swapped in with an atomic epoch bump and
//! picked up by workers at batch boundaries — the hot path never takes a
//! lock.
//!
//! One front end drives those pieces: [`runtime::Dataplane`], real worker
//! threads fed over lock-free SPSC rings with explicit backpressure
//! ([`runtime::Backpressure`]) and one ledger, the telemetry
//! [`dip_telemetry::Registry`] every worker reports into (what
//! `python3 benchmark/run.py` measures).
//!
//! The determinism property — sharded batched execution produces
//! byte-identical results and identical PIT/CS state to a sequential
//! single-router run — is pinned by `tests/dataplane_determinism.rs` at
//! the workspace root for all five paper protocols.

#![deny(unsafe_code)] // `ring` opts back in locally, with safety comments.
#![deny(missing_docs)]

pub mod batch;
pub mod cputime;
pub mod program;
pub mod ring;
pub mod runtime;
pub mod shard;
pub mod snapshot;

pub use batch::{PacketBatch, PacketSlot};
pub use cputime::ThreadCpuProbe;
pub use program::{Admission, CacheStats, ProgramCache};
pub use runtime::{
    Backpressure, Dataplane, DataplaneConfig, DataplaneReport, PacketRecord, WorkerReport,
};
pub use shard::FlowShard;
pub use snapshot::{EpochCell, EpochReader, RouteSnapshot};
