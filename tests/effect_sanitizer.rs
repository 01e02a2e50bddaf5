//! The effect sanitizer: every shipped operation keeps to the [`Effects`]
//! it declares.
//!
//! Each op of `FnRegistry::standard()` and the four S13 ops runs on seeded
//! triples and contexts: the protocol packets that reach its success paths,
//! then random spans over random bytes, each with random per-packet slots
//! and router-table settings. Around every call the sanitizer checks that
//!
//! * no location bit outside the declared write range changed;
//! * no per-packet slot (dynamic key, parsed DAG, pass verdict) changed
//!   unless the op declares writing it;
//! * no router table changed unless the op declares writing it: the PIT's
//!   entries, faces and nonces, the content store's entries and LRU order,
//!   and the `ext` entries;
//! * an op declared unable to drop never drops, and one declared unable to
//!   decide only continues or drops.

use dip::crypto::DetRng;
use dip::fnops::ops::pass::issue_label;
use dip::fnops::{Effects, FieldOp, Resource};
use dip::prelude::*;
use dip::protocols::netfence::{self, CongestionOp, NetFenceState};
use dip::protocols::scion_path::{HopFieldOp, ScionPath};
use dip::protocols::telemetry::{self, TelemetryOp};
use dip::protocols::{epic, ip, ndn, xia};
use dip::tables::XiaNextHop;
use dip::wire::ipv4::Ipv4Addr;
use dip::wire::ipv6::Ipv6Addr;
use dip_routes::RouteStore;
use std::sync::Arc;

/// Random cases per op, beside its protocol packets.
const RANDOM_CASES: usize = 120;

/// Runs of each protocol packet, each under freshly drawn slots.
const PROTOCOL_RUNS: usize = 16;

/// One call of an op: a triple over a locations area, with the payload
/// and ingress port it arrives with.
struct Case {
    triple: FnTriple,
    locations: Vec<u8>,
    payload: Vec<u8>,
    in_port: Port,
}

/// What the sanitizer compares around a call, one entry per resource it
/// can observe.
fn observe(state: &RouterState, ctx: &PacketCtx<'_>) -> Vec<(Resource, String)> {
    let cs = state.content_store.as_ref().map(|cs| {
        let entries: Vec<_> = cs.iter().map(|(k, v, at)| (*k, v.to_vec(), at)).collect();
        (entries, cs.lru_order())
    });
    let mut pit: Vec<_> =
        state.pit.iter().map(|e| (*e.name, e.faces.to_vec(), e.sorted_nonces())).collect();
    pit.sort();
    let ext = state.ext.get::<NetFenceState>().map(|nf| format!("{nf:?}"));
    vec![
        (Resource::DynamicKey, format!("{:?}", ctx.dynamic_key)),
        (Resource::ParsedDag, format!("{:?}", ctx.dag)),
        (Resource::PassVerdict, format!("{:?}", ctx.pass_verified)),
        (Resource::Pit, format!("{pit:?}")),
        (Resource::ContentStore, format!("{cs:?}")),
        (Resource::Ext, format!("{} {ext:?}", state.ext.len())),
    ]
}

/// Whether bit `i` of `bytes` is set.
fn bit(bytes: &[u8], i: usize) -> bool {
    bytes[i / 8] & (0x80 >> (i % 8)) != 0
}

/// Runs `op` on `case` under `state` with randomly set slots, and checks
/// the call against `op`'s declared effects. `Err` names the first breach.
fn sanitize(
    op: &dyn FieldOp,
    case: &Case,
    state: &mut RouterState,
    rng: &mut DetRng,
    dag: &Dag,
) -> Result<(), String> {
    let declared: Effects = op.effects(&case.triple);
    let mut locations = case.locations.clone();
    let mut ctx = PacketCtx::new(&mut locations, &case.payload, case.in_port, 5_000);
    ctx.dynamic_key = rng.gen_bool(0.7).then(|| [rng.gen_index(256) as u8; 16]);
    ctx.dag = rng.gen_bool(0.3).then(|| dag.clone());
    ctx.pass_verified = rng.gen_bool(0.5);
    ctx.source_key = rng.gen_bool(0.5).then_some([7; 16]);
    state.require_pass_for_cache = rng.gen_bool(0.5);
    let netfence = state.ext.get_or_default::<NetFenceState>();
    netfence.congested = rng.gen_bool(0.5);
    netfence.police = rng.gen_bool(0.3);

    let before = observe(state, &ctx);
    let action = op.execute(&case.triple, state, &mut ctx);
    let after = observe(state, &ctx);
    let what = format!("{:?} on {:?}", op.key(), case.triple);
    for ((resource, old), (_, new)) in before.iter().zip(&after) {
        if old != new && !declared.writes.contains(*resource) {
            return Err(format!("{what} changed undeclared {resource:?}: {old} -> {new}"));
        }
    }
    drop(ctx);
    for i in 0..case.locations.len() * 8 {
        let declared_write = declared.write.is_some_and(|(start, end)| (start..end).contains(&i));
        if !declared_write && bit(&case.locations, i) != bit(&locations, i) {
            return Err(format!("{what} wrote bit {i} outside {:?}", declared.write));
        }
    }
    match action {
        Action::Drop(reason) if !declared.may_drop => {
            Err(format!("{what} dropped ({reason:?}) but declares it cannot"))
        }
        Action::Continue | Action::Drop(_) => Ok(()),
        decided if !declared.may_decide => {
            Err(format!("{what} decided {decided:?} but declares it cannot"))
        }
        _ => Ok(()),
    }
}

/// A router whose tables answer the protocol cases: routes in every
/// family, a content store and pending interests for `names`.
fn router_state(names: &[u32]) -> RouterState {
    let mut state = RouterState::new(4, [0x5a; 16]);
    let mut routes = RouteStore::new();
    routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    routes.insert_v6(Ipv6Addr::new([0x0a0a, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(2));
    routes.insert_name(&Name::parse("/san/content"), NextHop::port(3));
    routes.insert_xia(XidType::Ad, Xid::derive(b"san-ad"), XiaNextHop::Local);
    routes.insert_xia(XidType::Hid, Xid::derive(b"san-hid"), XiaNextHop::Port(5));
    state.routes = routes.rebuild();
    state.enable_content_store(8);
    let mut cs = state.content_store.take().expect("enabled");
    cs.insert(names[0], Arc::from(&b"cached"[..]), 0);
    state.content_store = Some(cs);
    for (i, &name) in names.iter().enumerate() {
        state.pit.record_interest(name, 2, i as u64, 0).expect("room");
    }
    state
}

/// The protocol packets whose triples reach each op's success paths.
fn protocol_cases(state: &RouterState, dag: &Dag) -> Vec<Case> {
    let name = Name::parse("/san/content/1");
    let payload = b"sanitizer payload".to_vec();
    let opt = OptSession::establish([3; 16], &[4; 16], &[state.local_secret]);
    let scion = ScionPath::construct(&[(6, 7, state.as_secret), (7, 8, state.as_secret)]);
    let epic_session = epic::EpicSession::establish([9; 16], &[state.local_secret]);
    let source_id = [0x42; 16];
    let mut pass = source_id.to_vec();
    pass.extend_from_slice(&issue_label(&state.as_secret, &source_id));
    let reprs = [
        ip::dip32_packet(Ipv4Addr::new(10, 1, 2, 3), Ipv4Addr::new(192, 168, 0, 1), 64),
        ip::dip128_packet(
            Ipv6Addr::new([0x0a0a, 0, 0, 0, 0, 0, 0, 1]),
            Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 1]),
            64,
        ),
        ndn::interest(&name, 64),
        ndn::interest(&Name::parse("/san/content/2"), 64),
        ndn::data(&name, 64),
        opt.packet(&payload, 7, 64),
        xia::packet(dag, 64),
        DipRepr {
            fns: vec![FnTriple::router(0, 256, FnKey::Pass), FnTriple::router(256, 32, FnKey::Pit)],
            locations: [pass, name.compact32().to_be_bytes().to_vec()].concat(),
            ..Default::default()
        },
        netfence::packet(11, 64),
        scion.packet(64),
        telemetry::probe(3, 64),
        epic_session.packet(&payload, 1, 64),
    ];
    reprs
        .into_iter()
        .flat_map(|repr| {
            let payload = payload.clone();
            repr.fns.clone().into_iter().map(move |triple| Case {
                triple,
                locations: repr.locations.clone(),
                payload: payload.clone(),
                in_port: 6,
            })
        })
        .collect()
}

/// A random in-bounds triple for `key` over random bytes.
fn random_case(key: FnKey, rng: &mut DetRng) -> Case {
    const WIDTHS: [u16; 8] = [32, 128, 200, 256, 416, 544, 720, 64];
    let len = if rng.gen_bool(0.8) {
        WIDTHS[rng.gen_index(WIDTHS.len())]
    } else {
        1 + rng.gen_index(300) as u16
    };
    let loc =
        if rng.gen_bool(0.7) { 8 * rng.gen_index(16) as u16 } else { rng.gen_index(130) as u16 };
    let bytes = (usize::from(loc) + usize::from(len)).div_ceil(8) + rng.gen_index(20);
    let fill = rng.gen_index(3);
    let locations = (0..bytes)
        .map(|_| match fill {
            0 => rng.gen_index(256) as u8,
            1 => 0,
            _ => 10,
        })
        .collect();
    let payload = (0..rng.gen_index(32)).map(|_| rng.gen_index(256) as u8).collect();
    Case { triple: FnTriple::router(loc, len, key), locations, payload, in_port: 6 }
}

/// Every op the sanitizer covers.
fn ops() -> Vec<Arc<dyn FieldOp>> {
    let registry = FnRegistry::standard();
    let mut ops: Vec<Arc<dyn FieldOp>> = registry
        .supported_keys()
        .into_iter()
        .map(|k| Arc::clone(registry.get(k).expect("listed")))
        .collect();
    ops.extend([
        Arc::new(CongestionOp) as Arc<dyn FieldOp>,
        Arc::new(HopFieldOp),
        Arc::new(TelemetryOp),
        Arc::new(epic::EpicOp),
    ]);
    ops
}

#[test]
fn every_op_keeps_to_its_declared_effects() {
    let dag = Dag::direct_with_fallback(
        DagNode::sink(XidType::Cid, Xid::derive(b"san-cid")),
        Xid::derive(b"san-ad"),
        Xid::derive(b"san-hid"),
    )
    .expect("static dag");
    let names = [Name::parse("/san/content/1").compact32(), 0x0a0a_0a0a, 0];
    let mut rng = DetRng::seed_from_u64(0x5a17_12e5);
    let mut checked = 0;
    for op in ops() {
        let mut state = router_state(&names);
        let protocol: Vec<Case> =
            protocol_cases(&state, &dag).into_iter().filter(|c| c.triple.key == op.key()).collect();
        assert!(!protocol.is_empty(), "no protocol packet carries {:?}", op.key());
        for run in 0..PROTOCOL_RUNS {
            for case in &protocol {
                // Pending again, so every run of a data packet can hit.
                for &name in &names {
                    let _ = state.pit.record_interest(name, 2, 100 + run as u64, 0);
                }
                sanitize(op.as_ref(), case, &mut state, &mut rng, &dag)
                    .unwrap_or_else(|b| panic!("{b}"));
                checked += 1;
            }
        }
        for _ in 0..RANDOM_CASES {
            let case = random_case(op.key(), &mut rng);
            sanitize(op.as_ref(), &case, &mut state, &mut rng, &dag)
                .unwrap_or_else(|b| panic!("{b}"));
            checked += 1;
        }
    }
    assert!(checked >= 16 * RANDOM_CASES, "only {checked} calls checked");
}

/// The sanitizer itself catches an op that writes past its declaration.
#[test]
fn an_undeclared_write_is_caught() {
    struct Overreach;
    impl FieldOp for Overreach {
        fn key(&self) -> FnKey {
            FnKey::Other(0x3ff)
        }
        fn execute(&self, t: &FnTriple, _s: &mut RouterState, c: &mut PacketCtx<'_>) -> Action {
            c.locations[usize::from(t.field_loc) / 8 + 1] ^= 1;
            c.pass_verified = true;
            Action::Continue
        }
        fn effects(&self, t: &FnTriple) -> Effects {
            Effects::new(t, dip::fnops::OpCost::stages(1)).writing(Resource::PassVerdict)
        }
    }
    let case = Case {
        triple: FnTriple::router(0, 8, FnKey::Other(0x3ff)),
        locations: vec![0; 4],
        payload: Vec::new(),
        in_port: 0,
    };
    let dag = Dag::direct_with_fallback(
        DagNode::sink(XidType::Cid, Xid::derive(b"c")),
        Xid::derive(b"a"),
        Xid::derive(b"h"),
    )
    .expect("static dag");
    let mut state = router_state(&[1]);
    let mut rng = DetRng::seed_from_u64(1);
    let breach = sanitize(&Overreach, &case, &mut state, &mut rng, &dag).unwrap_err();
    assert!(breach.contains("wrote bit 15"), "{breach}");
}
