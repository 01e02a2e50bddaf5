//! `F_PIT` (key 5): data-packet processing — PIT consume + fan-out.
//!
//! §3 (NDN): "For the data packets, the router looks up the content name in
//! the PIT and forwards it to the recorded request port (match hit) or
//! discards the packet (match miss)."
//!
//! With a content store enabled the data is also cached on the way through
//! — which is the §2.4 content-poisoning vector: a malicious producer can
//! seed the cache with bogus bytes. When
//! `RouterState::require_pass_for_cache` is set (the dynamically enabled
//! `F_pass` policy), only packets whose source label has been verified in
//! this FN chain are cached.

use crate::context::{Action, DropReason, PacketCtx, RouterState};
use crate::cost::OpCost;
use crate::ops::fib::read_names;
use crate::{Effects, FieldOp, Resource};
use dip_tables::PitConsume;
use dip_wire::triple::{FnKey, FnTriple};
use std::sync::Arc;

/// Data-side NDN op.
#[derive(Debug, Default, Clone, Copy)]
pub struct PitOp;

impl FieldOp for PitOp {
    fn key(&self) -> FnKey {
        FnKey::Pit
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        let Some((compact, _)) = read_names(ctx, triple) else {
            return Action::Drop(DropReason::MalformedField);
        };
        match state.pit.consume_classified(&compact, ctx.now) {
            PitConsume::Hit(faces) => {
                if let Some(cs) = state.content_store.as_mut() {
                    if !state.require_pass_for_cache || ctx.pass_verified {
                        cs.insert(compact, Arc::from(ctx.payload), ctx.now);
                    }
                }
                Action::ForwardMulti(faces)
            }
            // The interest existed but lapsed under virtual time — the
            // long-partition case. Accounted distinctly so aged-out
            // entries are never mistaken for unsolicited data.
            PitConsume::Expired => Action::Drop(DropReason::PitExpired),
            PitConsume::Miss => Action::Drop(DropReason::PitMiss),
        }
    }

    fn effects(&self, triple: &FnTriple) -> Effects {
        let parse_stages = if triple.field_len > 32 { 2 } else { 1 };
        Effects::new(triple, OpCost::lookup(parse_stages, 1))
            .writing(Resource::Pit)
            .writing(Resource::ContentStore)
            .reading(Resource::PassVerdict)
            .deciding()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::testutil::{ctx, state};
    use dip_tables::Ports;
    use dip_wire::ndn::Name;

    fn data_locs(name: &Name) -> Vec<u8> {
        name.compact32().to_be_bytes().to_vec()
    }

    #[test]
    fn data_follows_pit_faces() {
        let mut st = state();
        let name = Name::parse("/a");
        st.pit.record_interest(name.compact32(), 3, 1, 0).unwrap();
        st.pit.record_interest(name.compact32(), 8, 2, 0).unwrap();
        let mut locs = data_locs(&name);
        let mut c = ctx(&mut locs, b"the data");
        let t = FnTriple::router(0, 32, FnKey::Pit);
        assert_eq!(
            PitOp.execute(&t, &mut st, &mut c),
            Action::ForwardMulti(Ports::from(vec![3, 8]))
        );
        // Entry consumed: a second data packet misses.
        let mut locs2 = data_locs(&name);
        let mut c2 = ctx(&mut locs2, b"the data");
        assert_eq!(PitOp.execute(&t, &mut st, &mut c2), Action::Drop(DropReason::PitMiss));
    }

    #[test]
    fn late_data_for_expired_interest_is_pit_expired() {
        let mut st = state();
        // A tight TTL so the pending interest ages out under virtual time
        // (the mid-partition case): the data is late, not unsolicited.
        st.pit = dip_tables::Pit::new(16, 100);
        let name = Name::parse("/a");
        st.pit.record_interest(name.compact32(), 3, 1, 0).unwrap();
        let mut locs = data_locs(&name);
        let mut c = ctx(&mut locs, b"too late");
        c.now = 5_000;
        let t = FnTriple::router(0, 32, FnKey::Pit);
        assert_eq!(PitOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::PitExpired));
        assert_eq!(st.pit.expired_evictions(), 1, "the lapse is a counted eviction");
    }

    #[test]
    fn unsolicited_data_dropped() {
        let mut st = state();
        let mut locs = data_locs(&Name::parse("/nobody/asked"));
        let mut c = ctx(&mut locs, b"spam");
        let t = FnTriple::router(0, 32, FnKey::Pit);
        assert_eq!(PitOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::PitMiss));
    }

    #[test]
    fn data_populates_content_store() {
        let mut st = state();
        st.enable_content_store(8);
        let name = Name::parse("/a");
        st.pit.record_interest(name.compact32(), 3, 1, 0).unwrap();
        let mut locs = data_locs(&name);
        let mut c = ctx(&mut locs, b"cache me");
        let t = FnTriple::router(0, 32, FnKey::Pit);
        PitOp.execute(&t, &mut st, &mut c);
        assert_eq!(
            st.content_store.as_ref().unwrap().peek(&name.compact32()),
            Some(&Arc::from(&b"cache me"[..]))
        );
    }

    #[test]
    fn pass_policy_gates_caching() {
        let mut st = state();
        st.enable_content_store(8);
        st.require_pass_for_cache = true;
        let name = Name::parse("/a");
        let t = FnTriple::router(0, 32, FnKey::Pit);

        // Unverified data: forwarded but NOT cached.
        st.pit.record_interest(name.compact32(), 3, 1, 0).unwrap();
        let mut locs = data_locs(&name);
        let mut c = ctx(&mut locs, b"bogus");
        assert!(matches!(PitOp.execute(&t, &mut st, &mut c), Action::ForwardMulti(_)));
        assert!(st.content_store.as_ref().unwrap().peek(&name.compact32()).is_none());

        // Verified data: cached.
        st.pit.record_interest(name.compact32(), 3, 2, 10).unwrap();
        let mut locs2 = data_locs(&name);
        let mut c2 = ctx(&mut locs2, b"genuine");
        c2.pass_verified = true;
        assert!(matches!(PitOp.execute(&t, &mut st, &mut c2), Action::ForwardMulti(_)));
        assert_eq!(
            st.content_store.as_ref().unwrap().peek(&name.compact32()),
            Some(&Arc::from(&b"genuine"[..]))
        );
    }

    #[test]
    fn short_field_is_malformed() {
        let mut st = state();
        let mut locs = vec![0u8; 1];
        let mut c = ctx(&mut locs, &[]);
        let t = FnTriple::router(0, 32, FnKey::Pit);
        assert_eq!(PitOp.execute(&t, &mut st, &mut c), Action::Drop(DropReason::MalformedField));
    }
}
