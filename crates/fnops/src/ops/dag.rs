//! `F_DAG` (key 10): parse the XIA directed acyclic graph.
//!
//! §3 (XIA): "We set the header of XIA in the FN locations and use these
//! two operation modules to parse the directed acyclic graph and handle the
//! intent." `F_DAG` is the parsing half: it decodes and validates the DAG
//! and leaves it in the packet context for `F_intent`.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::{Effects, FieldOp, Resource};
use dip_wire::triple::{FnKey, FnTriple};
use dip_wire::xia::Dag;

/// DAG-parsing op.
#[derive(Debug, Default, Clone, Copy)]
pub struct DagOp;

impl FieldOp for DagOp {
    fn key(&self) -> FnKey {
        FnKey::Dag
    }

    fn execute(
        &self,
        triple: &FnTriple,
        _state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        let Ok(bytes) = ctx.read_field(triple) else {
            return Action::Drop(DropReason::MalformedField);
        };
        match Dag::decode(&bytes) {
            Ok((dag, _)) => {
                ctx.dag = Some(dag);
                Action::Continue
            }
            Err(_) => Action::Drop(DropReason::MalformedField),
        }
    }

    fn effects(&self, triple: &FnTriple) -> Effects {
        // Parsing cost grows with the number of nodes (28B each). The only
        // effect is publishing the parsed DAG into ctx.dag (or dropping on a
        // malformed field) — the contract dipopt's redundant-parse
        // elimination relies on.
        let nodes = (usize::from(triple.field_len) / 8).saturating_sub(6) / 28;
        Effects::new(triple, OpCost::stages(1 + nodes as u32)).writing(Resource::ParsedDag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state};
    use dip_wire::xia::{DagNode, Xid, XidType};

    fn sample_dag() -> Dag {
        Dag::direct_with_fallback(
            DagNode::sink(XidType::Sid, Xid::derive(b"svc")),
            Xid::derive(b"ad"),
            Xid::derive(b"hid"),
        )
        .unwrap()
    }

    #[test]
    fn parses_into_ctx() {
        let mut st = state();
        let dag = sample_dag();
        let mut locs = dag.encode();
        let bits = (locs.len() * 8) as u16;
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, bits, FnKey::Dag);
        assert_eq!(DagOp.execute(&t, &mut st, &mut c), Action::Continue);
        assert_eq!(c.dag, Some(dag));
    }

    #[test]
    fn garbage_rejected() {
        let mut st = state();
        let mut locs = vec![0xffu8; 40];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 320, FnKey::Dag);
        assert_eq!(DagOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
    }

    #[test]
    fn truncated_field_rejected() {
        let mut st = state();
        let dag = sample_dag();
        let mut locs = dag.encode();
        locs.truncate(20);
        let bits = (locs.len() * 8) as u16;
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, bits, FnKey::Dag);
        assert_eq!(DagOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
    }
}
