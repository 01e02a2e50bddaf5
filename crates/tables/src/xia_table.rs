//! The routing decision of an XIA lookup (`F_DAG` / `F_intent`).
//!
//! An XIA router keeps one routing table per principal type it understands
//! (AD, HID, SID, CID, ...); `F_intent` asks, for each candidate node of the
//! address DAG in priority order, whether it can route on that XID (§3, XIA
//! \[12\]). The table is `dip-routes`' `CompactXia`, which keeps the
//! "unknown type" vs "no route" distinction XIA's evolvability rests on.

use crate::Port;

/// Routing decision for an XID.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum XiaNextHop {
    /// The XID names this node (or a locally attached service/content):
    /// deliver locally.
    Local,
    /// Forward on a port.
    Port(Port),
}
