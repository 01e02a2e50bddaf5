//! `F_FIB` (key 4): interest processing — PIT record + FIB match.
//!
//! §3 (NDN): "the router records its receiving port in the PIT and matches
//! it in the FIB with the content name to determine the forwarding port."
//! Footnote 2: with caching enabled, "the FIB matching module can be
//! slightly modified to first match the local content store and then match
//! the FIB" — implemented here behind `RouterState::content_store`.
//!
//! The target field is the content name: 32 bits = the prototype's compact
//! name; wider fields carry a TLV-encoded hierarchical name, matched by
//! component-wise longest prefix.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::{Effects, FieldOp, Resource};
use dip_tables::pit::{PitError, PitOutcome};
use dip_wire::ndn::Name;
use dip_wire::triple::{FnKey, FnTriple};
use std::sync::Arc;

/// Interest-side NDN op.
#[derive(Debug, Default, Clone, Copy)]
pub struct FibOp;

/// Extracts the compact name from a field: a 32-bit field is the compact
/// name itself; a wider field is TLV-decoded and hashed.
///
/// Returns `None` (callers drop with `MalformedField`) instead of
/// panicking on short input: `read_field` guarantees 4 bytes for a 32-bit
/// field today, but a packet-reachable path must not rely on a caller
/// invariant for memory safety.
pub(crate) fn field_to_names(bytes: &[u8], field_len: u16) -> Option<(u32, Option<Name>)> {
    if field_len == 32 {
        let b = bytes.get(..4)?;
        Some((u32::from_be_bytes([b[0], b[1], b[2], b[3]]), None))
    } else {
        let (name, _) = Name::decode_tlv(bytes).ok()?;
        Some((name.compact32(), Some(name)))
    }
}

/// Reads `triple`'s name field and extracts its names, as
/// [`field_to_names`] does. The prototype's 32-bit compact name is read
/// into a stack buffer, so the common case allocates nothing; a TLV name
/// keeps its decode path.
pub(crate) fn read_names(ctx: &PacketCtx<'_>, triple: &FnTriple) -> Option<(u32, Option<Name>)> {
    if triple.field_len == 32 {
        let mut compact = [0u8; 4];
        ctx.read_field_into(triple, &mut compact).ok()?;
        Some((u32::from_be_bytes(compact), None))
    } else {
        field_to_names(&ctx.read_field(triple).ok()?, triple.field_len)
    }
}

impl FieldOp for FibOp {
    fn key(&self) -> FnKey {
        FnKey::Fib
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        let Some((compact, full)) = read_names(ctx, triple) else {
            return Action::Drop(DropReason::MalformedField);
        };

        // Footnote 2: content store first.
        if let Some(cs) = state.content_store.as_mut() {
            if let Some(data) = cs.get(&compact) {
                return Action::RespondCached(Arc::clone(data));
            }
        }

        // PIT record (receiving port) ...
        let nonce = ctx.nonce();
        match state.pit.record_interest(compact, ctx.in_port, nonce, ctx.now) {
            Ok(PitOutcome::Forward) => {}
            Ok(PitOutcome::Aggregated) => return Action::Consumed,
            Ok(PitOutcome::DuplicateNonce) => return Action::Drop(DropReason::DuplicateInterest),
            Err(PitError::CapacityExhausted) => {
                return Action::Drop(DropReason::StateBudgetExhausted)
            }
        }

        // ... then FIB match.
        let hit = match &full {
            Some(name) => state.lookup_name(name),
            None => state.lookup_name_compact(compact),
        };
        match hit {
            Some(nh) => Action::Forward(nh.port),
            None => {
                // Undo the PIT entry: an unroutable interest must not
                // occupy state (§2.4 budget hygiene).
                state.pit.consume(&compact, ctx.now);
                Action::Drop(DropReason::NoRoute)
            }
        }
    }

    fn effects(&self, triple: &FnTriple) -> Effects {
        // One PIT write + one FIB lookup; hierarchical names burn an extra
        // stage for TLV parsing. A content-store hit refreshes its LRU rank.
        let parse_stages = if triple.field_len > 32 { 2 } else { 1 };
        Effects::new(triple, OpCost::lookup(parse_stages, 2))
            .writing(Resource::ContentStore)
            .writing(Resource::Pit)
            .reading(Resource::NameRoutes)
            .deciding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state, state_with};
    use dip_tables::fib::NextHop;

    fn interest_locs(name: &Name) -> Vec<u8> {
        name.compact32().to_be_bytes().to_vec()
    }

    #[test]
    fn interest_records_pit_and_forwards() {
        let name = Name::parse("hotnets.org");
        let mut st = state_with(|r| r.insert_name(&name, NextHop::port(5)));
        let mut locs = interest_locs(&name);
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 32, FnKey::Fib);
        assert_eq!(FibOp.execute(&t, &mut st, &mut c), Action::Forward(5));
        assert!(st.pit.contains(&name.compact32(), 1_000));
    }

    #[test]
    fn unroutable_interest_leaves_no_pit_state() {
        let mut st = state();
        let name = Name::parse("/nowhere");
        let mut locs = interest_locs(&name);
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 32, FnKey::Fib);
        assert_eq!(FibOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::NoRoute));
        assert!(!st.pit.contains(&name.compact32(), 1_000));
    }

    #[test]
    fn second_interest_aggregates() {
        let name = Name::parse("/a");
        let mut st = state_with(|r| r.insert_name(&name, NextHop::port(5)));
        let t = FnTriple::router(0, 32, FnKey::Fib);
        let mut locs1 = interest_locs(&name);
        let mut c1 = ctx(&mut locs1, b"req1");
        assert_eq!(FibOp.execute(&t, &mut st, &mut c1), Action::Forward(5));
        // Different requester (different payload -> different nonce).
        let mut locs2 = interest_locs(&name);
        let mut c2 = ctx(&mut locs2, b"req2");
        c2.in_port = 9;
        assert_eq!(FibOp.execute(&t, &mut st, &mut c2), Action::Consumed);
    }

    #[test]
    fn looped_interest_dropped_as_duplicate() {
        let name = Name::parse("/a");
        let mut st = state_with(|r| r.insert_name(&name, NextHop::port(5)));
        let t = FnTriple::router(0, 32, FnKey::Fib);
        let mut locs1 = interest_locs(&name);
        let mut c1 = ctx(&mut locs1, b"same");
        FibOp.execute(&t, &mut st, &mut c1);
        // Identical bytes loop back: same nonce.
        let mut locs2 = interest_locs(&name);
        let mut c2 = ctx(&mut locs2, b"same");
        assert_eq!(
            FibOp.execute(&t, &mut st, &mut c2),
            Action::Drop(DropReason::DuplicateInterest)
        );
    }

    #[test]
    fn content_store_answers_before_fib() {
        let mut st = state();
        let name = Name::parse("/cached");
        st.enable_content_store(8);
        st.content_store.as_mut().unwrap().insert(name.compact32(), Arc::from(&b"data!"[..]), 0);
        // No FIB route at all — the cache must still answer.
        let mut locs = interest_locs(&name);
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 32, FnKey::Fib);
        let Action::RespondCached(data) = FibOp.execute(&t, &mut st, &mut c) else {
            panic!("the content store must answer");
        };
        assert_eq!(&*data, b"data!");
        let stored = st.content_store.as_ref().unwrap().peek(&name.compact32()).unwrap();
        assert!(Arc::ptr_eq(&data, stored), "a hit shares the stored payload, it does not copy it");
        assert!(st.pit.is_empty());
    }

    #[test]
    fn hierarchical_name_lpm() {
        let mut st = state_with(|r| r.insert_name(&Name::parse("/hotnets"), NextHop::port(3)));
        let full = Name::parse("/hotnets/org/paper7");
        let tlv = full.encode_tlv().unwrap();
        let bits = (tlv.len() * 8) as u16;
        let mut locs = tlv;
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, bits, FnKey::Fib);
        assert_eq!(FibOp.execute(&t, &mut st, &mut c), Action::Forward(3));
    }

    #[test]
    fn pit_exhaustion_is_reported() {
        let mut st = state_with(|r| {
            r.insert_name(&Name::parse("/a"), NextHop::port(1));
            r.insert_name(&Name::parse("/b"), NextHop::port(1));
        });
        st.pit = dip_tables::Pit::new(1, 1_000_000);
        let t = FnTriple::router(0, 32, FnKey::Fib);
        let mut l1 = interest_locs(&Name::parse("/a"));
        let mut c1 = ctx(&mut l1, &[]);
        assert_eq!(FibOp.execute(&t, &mut st, &mut c1), Action::Forward(1));
        let mut l2 = interest_locs(&Name::parse("/b"));
        let mut c2 = ctx(&mut l2, &[]);
        assert_eq!(
            FibOp.execute(&t, &mut st, &mut c2),
            Action::Drop(DropReason::StateBudgetExhausted)
        );
    }

    #[test]
    fn garbage_tlv_is_malformed() {
        let mut st = state();
        let mut locs = vec![0xff; 8];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 64, FnKey::Fib);
        assert_eq!(FibOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
    }
}
