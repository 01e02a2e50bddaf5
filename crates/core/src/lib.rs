//! # dip-core — DIP node logic
//!
//! The pieces of §2.3–2.4 that sit *around* the FN primitive:
//!
//! * [`router::DipRouter`] — the per-hop packet processing loop of
//!   **Algorithm 1**: parse the basic header, parse the FN triples, extract
//!   the locations, skip host-tagged FNs, dispatch the rest through the
//!   [`dip_fnops::FnRegistry`], and combine the resulting actions into a
//!   routing verdict;
//! * [`chain`] — the parse/compile/execute split behind `process`:
//!   [`chain::ParsedPacket`] (per-packet) and [`chain::CompiledChain`]
//!   (per-program, cacheable) let a batching dataplane amortize registry
//!   resolution and the §2.2 parallel plan across packets. Every program
//!   compiles to one plan — the identity plan, or the plan dipopt
//!   rewrote — and one walk executes both. The plan also fixes where the
//!   §2.4 defense, "enforcing a hard limit for packet processing time and
//!   per-packet state consumption", stops the packet;
//! * [`equiv`] — the differential gate proving a dipopt-rewritten plan
//!   byte-equivalent to the identity plan;
//! * [`host`] — destination-side execution of host-tagged FNs (`F_ver`)
//!   and source-side sanity helpers;
//! * [`control`] — the ICMP-like *FN unsupported* notification of §2.4;
//! * [`border`] — backward compatibility: encapsulating legacy IPv4/IPv6
//!   headers as FN locations at the inbound border router and stripping
//!   the DIP header at the outbound one;
//! * [`tunnel`] — DIP-in-IPv6 tunneling across DIP-agnostic domains
//!   (incremental deployment, §2.4);
//! * [`bootstrap`] — the DHCP-like FN discovery of §2.3 and the
//!   BGP-community-style propagation of per-AS FN capability sets;
//! * [`stack`] — the host endpoint ([`stack::DipHost`]): bootstrap,
//!   protocol planning against learned capabilities, host-FN execution.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod bootstrap;
pub mod border;
pub mod chain;
pub mod control;
pub mod equiv;
pub mod host;
pub mod metrics;
pub mod router;
pub mod stack;
pub mod tunnel;

pub use chain::{parse_packet, parse_packet_into, CompiledChain, OptSummary, ParsedPacket};
pub use control::ControlMessage;
pub use equiv::{differential_check, differential_smoke, EquivReport};
pub use metrics::RouterMetrics;
pub use router::{DipRouter, ProcessStats, RouterConfig, UnknownFnPolicy, Verdict};
pub use stack::{DipHost, ProtocolId};
