//! # dip-controlplane — distributed routing over the DIP dataplane
//!
//! The paper's routers share one protocol-independent L3 core; this
//! crate gives each of them the missing other half: a control-plane
//! agent that *computes* the tables the core executes. The division of
//! labor mirrors P4's — a control plane installs entries, the pipeline
//! forwards — but the control traffic itself rides the DIP dataplane as
//! control messages under `CONTROL_NEXT_HEADER`:
//!
//! 1. **Adjacency**: periodic `Hello` beacons per port; a silent
//!    dead-interval tears the adjacency down ([`agent`]).
//! 2. **Flooding**: sequence-numbered LSAs with hop-count aging and
//!    hop-by-hop acks carry every node's links *and* its IPv4/IPv6
//!    prefixes, NDN name prefixes, and XIA principals ([`agent`]).
//! 3. **SPF**: deterministic Dijkstra with the OSPF two-way check
//!    ([`spf`]).
//! 4. **Publication**: SPF output is compiled into one five-protocol
//!    [`RouteSnapshot`](dip_dataplane::snapshot::RouteSnapshot) and
//!    applied to the [`DipRouter`](dip_core::DipRouter) a [`ControlNode`]
//!    wraps, flow state intact ([`node`]); a threaded
//!    [`Dataplane`](dip_dataplane::runtime::Dataplane) takes the same
//!    snapshots through `publish_routes`.
//!
//! Telemetry (HELLOs, LSA floods, SPF runs, route epoch, convergence
//! time) lands in the shared [`Registry`](dip_telemetry::Registry) under
//! `dip_ctrl_*`.

pub mod agent;
pub mod node;
pub mod spf;

pub use agent::{AgentConfig, ControlAgent, ControlOutput, TickOutput};
pub use node::ControlNode;
pub use spf::{shortest_paths, SpfRoute};
