//! # DIP — Dynamic Internet Protocol
//!
//! A from-scratch Rust reproduction of *DIP: Unifying Network Layer
//! Innovations using Shared L3 Core Functions* (HotNets '22).
//!
//! DIP's idea: instead of a fixed L3 protocol, every packet carries a list
//! of **Field Operations (FNs)** — `(field location, field length,
//! operation key)` triples — and routers execute exactly the operations the
//! packet asks for. Radically different network layers (IP, NDN, OPT, XIA)
//! *decompose* into FNs, and FNs *compose* into new derived protocols
//! (NDN+OPT: secure content delivery).
//!
//! ## Quick start
//!
//! ```
//! use dip::prelude::*;
//! use dip::fnops::RouteStore;
//!
//! // A router with a name route (the paper's §2.3 walkthrough).
//! let name = Name::parse("hotnets.org");
//! let mut routes = RouteStore::new();
//! routes.insert_name(&name, NextHop::port(8));
//! let mut router = DipRouter::new(1, [7; 16]);
//! router.state_mut().routes = routes.rebuild();
//!
//! // A consumer builds an NDN interest — one FN triple, 16-byte header.
//! let interest = dip::protocols::ndn::interest(&name, 64);
//! assert_eq!(interest.header_len(), 16);
//!
//! // The router runs Algorithm 1: record PIT, match FIB, forward.
//! let mut buf = interest.to_bytes(&[]).unwrap();
//! let (verdict, _) = router.process(&mut buf, /*in_port*/ 3, /*now*/ 0);
//! assert_eq!(verdict, Verdict::Forward(Ports::one(8)));
//! ```
//!
//! ## Crate map
//!
//! | re-export | crate | contents |
//! |---|---|---|
//! | [`wire`] | `dip-wire` | DIP header codec, FN triples, IPv4/IPv6/NDN/OPT/XIA layouts |
//! | [`crypto`] | `dip-crypto` | AES-128, 2EM, CBC-MAC, KDF, MMO hash |
//! | [`tables`] | `dip-tables` | PIT, content store, next-hop types |
//! | [`fnops`] | `dip-fnops` | the `FieldOp` trait, registry, the 12 operation modules |
//! | [`core`] | `dip-core` | Algorithm-1 router, host delivery, budgets, border/tunnel/bootstrap |
//! | [`verify`] | `dip-verify` | `dipcheck`: static FN-program verification (structure, registries, data flow, resources) |
//! | [`protocols`] | `dip-protocols` | IP, NDN, OPT, XIA and NDN+OPT realizations |
//! | [`sim`] | `dip-sim` | discrete-event network simulator + Tofino/PISA timing model |
//! | [`dataplane`] | `dip-dataplane` | multi-worker batched software dataplane: flow sharding, SPSC rings, program caches |
//! | [`controlplane`] | `dip-controlplane` | distributed routing: HELLO adjacencies, LSA flooding, Dijkstra SPF, epoch-swap route publication |
//! | [`telemetry`] | `dip-telemetry` | zero-dependency metrics: counters/gauges/histograms, the packet-outcome taxonomy, Prometheus + JSON rendering |
//! | [`workload`] | `dip-workload` | deterministic load generation: Zipf/Pareto/MMPP traffic models, seeded traces, route churn, a PISA-priced open-loop replay, closed-loop exchanges |
//! | [`scenario`] | `dip-scenario` | internet-scale scenarios: fat-tree / AS-graph generators, partition + flash-crowd scripts over the real control plane, per-protocol delivery measurement |
//!
//! See `DESIGN.md` for the full system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results of every table and figure. The paper's
//! deterministic results are asserted by `tests/paper_conformance.rs`;
//! software speed is measured only by the stand-alone `benchmark/`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use dip_controlplane as controlplane;
pub use dip_core as core;
pub use dip_crypto as crypto;
pub use dip_dataplane as dataplane;
pub use dip_fnops as fnops;
pub use dip_protocols as protocols;
pub use dip_scenario as scenario;
pub use dip_sim as sim;
pub use dip_tables as tables;
pub use dip_telemetry as telemetry;
pub use dip_verify as verify;
pub use dip_wire as wire;
pub use dip_workload as workload;

/// The most commonly used items in one import.
pub mod prelude {
    pub use dip_core::host::{deliver, HostContext};
    pub use dip_core::{DipHost, DipRouter, ProcessingBudget, ProtocolId, RouterConfig, Verdict};
    pub use dip_fnops::{Action, DropReason, FnRegistry, PacketCtx, RouterState};
    pub use dip_protocols::opt::OptSession;
    pub use dip_tables::fib::NextHop;
    pub use dip_tables::{Pit, Port, Ports};
    pub use dip_verify::{Checker, FnProgram, Report};
    pub use dip_wire::ndn::Name;
    pub use dip_wire::packet::{DipBuilder, DipPacket, DipRepr};
    pub use dip_wire::triple::{FnKey, FnTriple};
    pub use dip_wire::xia::{Dag, DagNode, Xid, XidType};
}

#[cfg(test)]
mod tests {
    #[test]
    fn facade_reexports_compile() {
        use crate::prelude::*;
        let _ = DipRouter::new(0, [0; 16]);
        let _ = Name::parse("/x");
        let _ = FnKey::Fib;
    }
}
