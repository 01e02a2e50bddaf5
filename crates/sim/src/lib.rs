//! # dip-sim — discrete-event network simulator + PISA timing model
//!
//! The paper evaluates DIP on a Barefoot Tofino switch with a hardware
//! traffic generator. Neither is available to a library reproduction, so
//! this crate substitutes both (see DESIGN.md §3):
//!
//! * [`engine::Network`] — a deterministic discrete-event simulator:
//!   routers and hosts connected by links with bandwidth, propagation
//!   delay, and optional fault injection (drop/corrupt, smoltcp-style).
//!   It drives the *same* [`dip_core::DipRouter`] dataplane code used by
//!   the benchmarks, so end-to-end experiments (NDN+OPT content retrieval,
//!   content poisoning, heterogeneous deployment) exercise the real
//!   pipeline;
//! * [`tofino::TofinoModel`] — converts the architecture costs reported by
//!   the router ([`dip_core::ProcessStats`]) into per-packet processing
//!   times for a PISA pipeline, reproducing §4.1's constraints: unrolled
//!   if-else FN dispatch, per-stage costs, and the AES-needs-a-resubmission
//!   penalty that motivated 2EM;
//! * [`topology`] — canned topologies (chains, stars, multi-AS) used by
//!   the experiment harness.
//!
//! The multi-core software dataplane (flow-sharded workers over SPSC
//! rings) is `dip-dataplane`; the simulator drives single routers, with
//! or without `dip-controlplane`'s `ControlNode` wrapped around them.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod engine;
pub mod faults;
pub mod pcap;
pub mod tofino;
pub mod topology;
pub mod trace;

pub use engine::{Host, Network, NodeId, Producer, RouterNode, SimError};
pub use faults::FaultConfig;
pub use tofino::TofinoModel;
pub use trace::{Trace, TraceEvent};

/// Virtual time in nanoseconds.
pub type SimTime = u64;
