//! XIA over DIP (§3, *XIA*).
//!
//! "We use the F_DAG and F_intent FN modules to realize the complex packet
//! processing logic in XIA. We set the header of XIA in the FN locations
//! and use these two operation modules to parse the directed acyclic graph
//! and handle the intent."

use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};
use dip_wire::xia::Dag;

/// Builds an XIA-over-DIP packet for destination DAG `dag`.
pub fn packet(dag: &Dag, hop_limit: u8) -> DipRepr {
    let encoded = dag.encode();
    let bits = dag.encoded_bits();
    DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![FnTriple::router(0, bits, FnKey::Dag), FnTriple::router(0, bits, FnKey::Intent)],
        locations: encoded,
    }
}

/// Reads the (possibly navigation-updated) DAG back out of a packet's
/// locations area.
pub fn parse_dag(locations: &[u8]) -> Option<Dag> {
    Dag::decode(locations).ok().map(|(d, _)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_core::{DipRouter, Verdict};
    use dip_fnops::DropReason;
    use dip_fnops::RouteStore;
    use dip_tables::Ports;
    use dip_tables::XiaNextHop;
    use dip_wire::xia::{DagNode, Xid, XidType};

    fn xid(s: &str) -> Xid {
        Xid::derive(s.as_bytes())
    }

    fn content_dag() -> Dag {
        Dag::direct_with_fallback(
            DagNode::sink(XidType::Cid, xid("the-content")),
            xid("ad-1"),
            xid("host-1"),
        )
        .unwrap()
    }

    #[test]
    fn header_size_scales_with_dag() {
        let repr = packet(&content_dag(), 64);
        // 6 basic + 2*6 triples + (6 + 3*28) locations.
        assert_eq!(repr.header_len(), 6 + 12 + 90);
    }

    #[test]
    fn cid_aware_router_forwards_on_intent() {
        let mut r = DipRouter::new(1, [0; 16]);
        let mut routes = RouteStore::new();
        routes.insert_xia(XidType::Cid, xid("the-content"), XiaNextHop::Port(4));
        r.state_mut().routes = routes.rebuild();
        let mut buf = packet(&content_dag(), 64).to_bytes(&[]).unwrap();
        let (v, stats) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(4)));
        assert_eq!(stats.fns_executed, 2);
    }

    #[test]
    fn legacy_router_falls_back_to_ad_path() {
        // A router with no CID table at all — XIA's evolvability case.
        let mut r = DipRouter::new(1, [0; 16]);
        let mut routes = RouteStore::new();
        routes.insert_xia(XidType::Ad, xid("ad-1"), XiaNextHop::Port(9));
        r.state_mut().routes = routes.rebuild();
        let mut buf = packet(&content_dag(), 64).to_bytes(&[]).unwrap();
        let (v, _) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(9)));
    }

    #[test]
    fn navigation_progress_travels_in_the_packet() {
        // Hop 1 is the AD: it advances last_visited and forwards to the HID.
        let mut ad_router = DipRouter::new(1, [0; 16]);
        let mut routes = RouteStore::new();
        routes.insert_xia(XidType::Ad, xid("ad-1"), XiaNextHop::Local);
        routes.insert_xia(XidType::Hid, xid("host-1"), XiaNextHop::Port(2));
        ad_router.state_mut().routes = routes.rebuild();
        let mut buf = packet(&content_dag(), 64).to_bytes(&[]).unwrap();
        let (v, _) = ad_router.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(2)));

        // The updated DAG is visible to the next hop.
        let pkt = dip_wire::DipPacket::new_checked(&buf[..]).unwrap();
        let dag = parse_dag(pkt.locations()).unwrap();
        assert_eq!(dag.last_visited, 1);

        // Hop 2 is the HID and owns the content: deliver.
        let mut host = DipRouter::new(2, [0; 16]);
        let mut routes = RouteStore::new();
        routes.insert_xia(XidType::Hid, xid("host-1"), XiaNextHop::Local);
        routes.insert_xia(XidType::Cid, xid("the-content"), XiaNextHop::Local);
        host.state_mut().routes = routes.rebuild();
        let (v, _) = host.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Deliver);
    }

    #[test]
    fn totally_unroutable_dag_drops() {
        let mut r = DipRouter::new(1, [0; 16]);
        let mut buf = packet(&content_dag(), 64).to_bytes(&[]).unwrap();
        let (v, _) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Drop(DropReason::DagUnroutable));
    }
}
