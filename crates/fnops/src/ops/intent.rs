//! `F_intent` (key 11): XIA intent handling with fallback.
//!
//! The routing half of XIA (§3). Starting from the DAG position recorded in
//! the packet (`last_visited`), try the out-edges in priority order:
//!
//! * a node this router can forward towards → `Forward(port)`;
//! * a node that is *local* (this router/host is responsible for it) →
//!   advance `last_visited` (persisted back into the packet header, so the
//!   next hop resumes from there) and keep walking; reaching a local sink
//!   delivers the packet;
//! * an unroutable node → try the next (fallback) edge — this is XIA's
//!   evolvability mechanism: routers that don't understand a new principal
//!   type simply fall back.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::FieldOp;
use dip_tables::XiaNextHop;
use dip_wire::triple::{FnKey, FnTriple};
use dip_wire::xia::Dag;

/// Intent-handling op.
#[derive(Debug, Default, Clone, Copy)]
pub struct IntentOp;

impl FieldOp for IntentOp {
    fn key(&self) -> FnKey {
        FnKey::Intent
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        // Use the DAG parsed by F_DAG, or parse it ourselves (the op pair
        // is composable but F_intent alone must still work).
        let mut dag = match ctx.dag.take() {
            Some(d) => d,
            None => {
                let Ok(bytes) = ctx.read_field(triple) else {
                    return Action::Drop(DropReason::MalformedField);
                };
                match Dag::decode(&bytes) {
                    Ok((d, _)) => d,
                    Err(_) => return Action::Drop(DropReason::MalformedField),
                }
            }
        };

        let mut moved = false;
        let result = 'walk: loop {
            let edges = dag.current_edges();
            if edges.is_empty() {
                // At a sink we already own: the packet has arrived.
                break 'walk Action::Deliver;
            }
            for e in edges {
                let node = &dag.nodes[usize::from(e)];
                match state.lookup_xia(node.ty, &node.xid) {
                    Some(XiaNextHop::Port(p)) => break 'walk Action::Forward(p),
                    Some(XiaNextHop::Local) => {
                        dag.last_visited = e;
                        moved = true;
                        if node.is_sink() {
                            break 'walk Action::Deliver;
                        }
                        continue 'walk;
                    }
                    None => { /* fallback: try the next edge */ }
                }
            }
            break 'walk Action::Drop(DropReason::DagUnroutable);
        };

        // Persist navigation progress into the packet so downstream hops
        // resume from the right node.
        if moved {
            let encoded = dag.encode();
            if ctx.write_field(triple, &encoded).is_err() {
                ctx.dag = Some(dag);
                return Action::Drop(DropReason::MalformedField);
            }
        }
        ctx.dag = Some(dag);
        result
    }

    fn cost(&self, field_bits: u16) -> OpCost {
        // Up to one route lookup per candidate edge.
        let nodes = ((usize::from(field_bits) / 8).saturating_sub(6) / 28).max(1);
        OpCost::lookup(2, nodes as u32)
    }

    fn write_range(&self, triple: &FnTriple) -> Option<(usize, usize)> {
        Some((usize::from(triple.field_loc), triple.field_end()))
    }

    fn consumes_parsed_dag_with_fallback(&self) -> bool {
        // On a ctx.dag miss, F_intent parses its own span with the same
        // decode and the same MalformedField drop as F_DAG — eliminating a
        // same-span F_DAG immediately before it is an exact rewrite.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state, state_with};
    use dip_wire::xia::{DagNode, Xid, XidType, NO_EDGE};

    fn xid(s: &str) -> Xid {
        Xid::derive(s.as_bytes())
    }

    fn dag() -> Dag {
        Dag::direct_with_fallback(
            DagNode::sink(XidType::Cid, xid("content")),
            xid("ad"),
            xid("hid"),
        )
        .unwrap()
    }

    fn run(st: &mut crate::RouterState, d: &Dag) -> (Action, Dag) {
        let mut locs = d.encode();
        let bits = (locs.len() * 8) as u16;
        let t = FnTriple::router(0, bits, FnKey::Intent);
        let action = {
            let mut c = ctx(&mut locs, &[]);
            IntentOp.execute(&t, st, &mut c)
        };
        let (reparsed, _) = Dag::decode(&locs).unwrap();
        (action, reparsed)
    }

    #[test]
    fn intent_route_wins_over_fallback() {
        let mut st = state_with(|r| {
            r.insert_xia(XidType::Cid, xid("content"), XiaNextHop::Port(5));
            r.insert_xia(XidType::Ad, xid("ad"), XiaNextHop::Port(9));
        });
        let (action, d) = run(&mut st, &dag());
        assert_eq!(action, Action::Forward(5));
        assert_eq!(d.last_visited, NO_EDGE); // no local advance happened
    }

    #[test]
    fn falls_back_to_ad_when_intent_unknown() {
        let mut st = state_with(|r| r.insert_xia(XidType::Ad, xid("ad"), XiaNextHop::Port(9)));
        let (action, _) = run(&mut st, &dag());
        assert_eq!(action, Action::Forward(9));
    }

    #[test]
    fn local_ad_advances_and_persists() {
        // We are the AD; the HID is reachable via port 2.
        let mut st = state_with(|r| {
            r.insert_xia(XidType::Ad, xid("ad"), XiaNextHop::Local);
            r.insert_xia(XidType::Hid, xid("hid"), XiaNextHop::Port(2));
        });
        let (action, d) = run(&mut st, &dag());
        assert_eq!(action, Action::Forward(2));
        // last_visited advanced to the AD node (index 1) and was persisted.
        assert_eq!(d.last_visited, 1);
    }

    #[test]
    fn local_sink_delivers() {
        let mut st = state_with(|r| r.insert_xia(XidType::Cid, xid("content"), XiaNextHop::Local));
        let (action, d) = run(&mut st, &dag());
        assert_eq!(action, Action::Deliver);
        assert_eq!(d.last_visited, 0);
    }

    #[test]
    fn multi_step_local_walk() {
        // We are both the AD and the HID; content is local too: the whole
        // walk happens here and the packet is delivered.
        let mut st = state_with(|r| {
            r.insert_xia(XidType::Ad, xid("ad"), XiaNextHop::Local);
            r.insert_xia(XidType::Hid, xid("hid"), XiaNextHop::Local);
            r.insert_xia(XidType::Cid, xid("content"), XiaNextHop::Local);
        });
        let (action, d) = run(&mut st, &dag());
        assert_eq!(action, Action::Deliver);
        assert_eq!(d.last_visited, 0); // ended at the intent node
    }

    #[test]
    fn unroutable_everywhere_drops() {
        let mut st = state();
        let (action, _) = run(&mut st, &dag());
        assert_eq!(action, Action::Drop(DropReason::DagUnroutable));
    }

    #[test]
    fn resumes_from_last_visited() {
        let mut st = state_with(|r| r.insert_xia(XidType::Hid, xid("hid"), XiaNextHop::Port(4)));
        let mut d = dag();
        d.last_visited = 1; // already at the AD
        let (action, _) = run(&mut st, &d);
        assert_eq!(action, Action::Forward(4));
    }

    #[test]
    fn uses_ctx_dag_when_present() {
        let mut st =
            state_with(|r| r.insert_xia(XidType::Cid, xid("content"), XiaNextHop::Port(1)));
        let d = dag();
        let mut locs = d.encode();
        let bits = (locs.len() * 8) as u16;
        let t = FnTriple::router(0, bits, FnKey::Intent);
        let mut c = ctx(&mut locs, &[]);
        c.dag = Some(d);
        assert_eq!(IntentOp.execute(&t, &mut st, &mut c), Action::Forward(1));
    }
}
