//! Zero-dependency metrics substrate for the DIP workspace.
//!
//! Every layer of the reproduction — the batched dataplane, the Algorithm-1
//! router core, the forwarding tables and the discrete-event simulator —
//! used to self-count with private structs and enums, so a packet's fate
//! could not be explained across the shared L3 core the paper is about.
//! This crate unifies that accounting:
//!
//! * [`Counter`] / [`Gauge`] / [`Histogram`] — lock-free atomic metric
//!   primitives, shared across threads as `Arc`s;
//! * [`Registry`] — a named, labeled collection of metrics rendering both
//!   Prometheus text exposition ([`Registry::render_prometheus`]) and a
//!   flat [`Snapshot`] whose [`Snapshot::to_json`] is one JSON line;
//! * [`DropReason`] / [`PacketOutcome`] — the single workspace-wide
//!   taxonomy of what happened to a packet (forwarded / consumed /
//!   dropped-with-reason), replacing the per-crate drop enums;
//! * [`OutcomeCounters`] — the canonical per-entity (worker, router,
//!   sim node) counter set over that taxonomy, with the invariant that
//!   `forwarded + consumed + Σ per-reason drops == packets accounted`.
//!
//! The crate has **no dependencies** (not even on `dip-wire`), so any
//! crate in the workspace can use it without cycles.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

mod metrics;
mod outcome;
mod registry;

pub use metrics::{Counter, Gauge, Histogram};
pub use outcome::{DropReason, OutcomeCounters, OutcomeTally, PacketOutcome};
pub use registry::{Registry, Sample, Snapshot};
