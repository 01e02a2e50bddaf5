//! The scenario runner: compiles a [`ScenarioSpec`] into a live
//! [`Network`] of [`ControlNode`]s, drives its phases from the sim
//! clock, and measures per-protocol delivery through partitions.
//!
//! Every router runs the real control-plane stack — routes come from
//! HELLO adjacencies, LSA flooding, and SPF, never from hand-written
//! FIBs. The producer's edge router announces IPv4/IPv6/name/XIA
//! reachability at its host port; the rest of the graph learns all of it
//! purely by flooding. Partition windows are scheduled
//! `link_down`/`link_up` events on every uplink of that edge router, so
//! the producer island genuinely disappears mid-run while traffic
//! continues — which is exactly where NDN's in-network caches and IPv4's
//! lack of them diverge.

use crate::script::{PhaseSpec, ScenarioProtocol, ScenarioSpec};
use dip_controlplane::{AgentConfig, ControlAgent, ControlNode};
use dip_core::{border, DipRouter};
use dip_crypto::DetRng;
use dip_fnops::DropReason;
use dip_protocols::opt::{opt_triples, OptSession};
use dip_protocols::{ip, ndn, xia};
use dip_sim::engine::{Host, Network, NodeId};
use dip_sim::SimTime;
use dip_tables::{Pit, XiaNextHop};
use dip_wire::ipv4::{Ipv4Addr, Ipv4Repr};
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::ndn::Name;
use dip_wire::opt::OPT_BLOCK_LEN;
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};
use dip_wire::xia::{Dag, DagNode, Xid, XidType};
use dip_workload::Zipf;
use std::collections::HashMap;

/// Control tick (= HELLO) period, matching [`AgentConfig::default`].
const HELLO_TICK: SimTime = 50_000;
/// Host attachment latency (virtual ns).
const HOST_LINK_NS: u64 = 1_000;

/// Per-protocol traffic accounting for one phase.
#[derive(Debug, Clone)]
pub struct ProtocolCount {
    /// Protocol label ([`ScenarioProtocol::label`]).
    pub protocol: &'static str,
    /// Requests injected during the phase.
    pub injected: u64,
    /// Requests whose payload (or data) reached the destination
    /// application — for OPT, *verified* deliveries only.
    pub delivered: u64,
}

/// What one phase measured.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// Phase name from the spec.
    pub name: String,
    /// Phase start (virtual ns).
    pub start: SimTime,
    /// Scheduled phase end (the event queue fully drains past it).
    pub end: SimTime,
    /// Partition window length, if this phase opened one.
    pub partition_window: Option<SimTime>,
    /// Per-protocol injected/delivered counts.
    pub traffic: Vec<ProtocolCount>,
    /// Content-store answers during the phase (any router).
    pub cache_hits: u64,
    /// Nonzero drop counts by reason label.
    pub drops: Vec<(String, u64)>,
    /// Packets lost to downed/faulty links during the phase.
    pub link_dropped: u64,
    /// Live PIT entries across all routers at phase end (post-sweep).
    pub pit_entries: u64,
    /// PIT entries aged out during the phase (data-path `PitExpired`
    /// consumes plus the end-of-phase garbage-collection sweep).
    pub pit_expired_evictions: u64,
    /// Cached objects across all routers at phase end.
    pub cs_entries: u64,
    /// Largest per-node unacked-LSA retransmit backlog at phase end.
    pub retransmit_depth_max: u64,
    /// For partition phases: heal time → first IPv4 delivery whose
    /// request was injected after the heal. `None` when not measurable.
    pub reconvergence_ns: Option<u64>,
}

impl PhaseReport {
    /// Injected count for a protocol label (0 when absent).
    pub fn injected(&self, protocol: &str) -> u64 {
        self.traffic.iter().find(|t| t.protocol == protocol).map_or(0, |t| t.injected)
    }

    /// Delivered count for a protocol label (0 when absent).
    pub fn delivered(&self, protocol: &str) -> u64 {
        self.traffic.iter().find(|t| t.protocol == protocol).map_or(0, |t| t.delivered)
    }

    /// delivered / injected, or `None` when the protocol sent nothing.
    pub fn delivery_fraction(&self, protocol: &str) -> Option<f64> {
        let injected = self.injected(protocol);
        (injected > 0).then(|| self.delivered(protocol) as f64 / injected as f64)
    }
}

/// The full result of one scenario run.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// Scenario name from the spec.
    pub name: String,
    /// Topology label (e.g. `fat_tree(k=12)`).
    pub topology: String,
    /// Router count.
    pub routers: usize,
    /// Link count (router-router; host links excluded).
    pub links: usize,
    /// Master seed.
    pub seed: u64,
    /// Whether every router's LSDB held every origin after the initial
    /// convergence segment.
    pub converged: bool,
    /// Per-phase measurements, in phase order.
    pub phases: Vec<PhaseReport>,
    /// SPF recomputations published network-wide over the whole run.
    pub spf_runs: u64,
    /// Samples in the convergence-time histogram (> 0 once any topology
    /// change has been absorbed).
    pub convergence_samples: u64,
    /// `dip_packets_total` at the end of the run.
    pub accounted: u64,
    /// `dip_node_sent_total` at the end of the run.
    pub sent: u64,
    /// `dip_link_dropped_total` at the end of the run.
    pub link_dropped: u64,
    /// The network-wide accounting identity
    /// `accounted == sent - link_dropped`, asserted over every phase,
    /// partitions included.
    pub identity_ok: bool,
    /// Legacy IPv4 packets for which `decap(encap(pkt)) == pkt` held.
    pub legacy_roundtrips: u64,
    /// FNV-1a digest over every integer counter above — two runs of the
    /// same spec must produce the same value (byte determinism).
    pub fingerprint: u64,
}

impl ScenarioReport {
    /// The phase named `name`, if present.
    pub fn phase(&self, name: &str) -> Option<&PhaseReport> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Renders the report as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(2_048);
        s.push('{');
        push_str_field(&mut s, "scenario", &self.name);
        push_str_field(&mut s, "topology", &self.topology);
        push_u64_field(&mut s, "routers", self.routers as u64);
        push_u64_field(&mut s, "links", self.links as u64);
        push_u64_field(&mut s, "seed", self.seed);
        push_bool_field(&mut s, "converged", self.converged);
        s.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push('{');
            push_str_field(&mut s, "name", &p.name);
            push_u64_field(&mut s, "start_ns", p.start);
            push_u64_field(&mut s, "end_ns", p.end);
            match p.partition_window {
                Some(w) => push_u64_field(&mut s, "partition_window_ns", w),
                None => s.push_str("\"partition_window_ns\":null,"),
            }
            s.push_str("\"traffic\":[");
            for (j, t) in p.traffic.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                let fraction = p.delivery_fraction(t.protocol).unwrap_or(0.0);
                s.push_str(&format!(
                    "{{\"protocol\":\"{}\",\"injected\":{},\"delivered\":{},\"delivery_fraction\":{:.4}}}",
                    t.protocol, t.injected, t.delivered, fraction
                ));
            }
            s.push_str("],");
            push_u64_field(&mut s, "cache_hits", p.cache_hits);
            s.push_str("\"drops\":{");
            for (j, (reason, n)) in p.drops.iter().enumerate() {
                if j > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{reason}\":{n}"));
            }
            s.push_str("},");
            push_u64_field(&mut s, "link_dropped", p.link_dropped);
            push_u64_field(&mut s, "pit_entries", p.pit_entries);
            push_u64_field(&mut s, "pit_expired_evictions", p.pit_expired_evictions);
            push_u64_field(&mut s, "cs_entries", p.cs_entries);
            push_u64_field(&mut s, "retransmit_depth_max", p.retransmit_depth_max);
            match p.reconvergence_ns {
                Some(ns) => s.push_str(&format!("\"reconvergence_ns\":{ns}")),
                None => s.push_str("\"reconvergence_ns\":null"),
            }
            s.push('}');
        }
        s.push_str("],");
        push_u64_field(&mut s, "spf_runs", self.spf_runs);
        push_u64_field(&mut s, "convergence_samples", self.convergence_samples);
        push_u64_field(&mut s, "accounted", self.accounted);
        push_u64_field(&mut s, "sent", self.sent);
        push_u64_field(&mut s, "link_dropped", self.link_dropped);
        push_bool_field(&mut s, "identity_ok", self.identity_ok);
        push_u64_field(&mut s, "legacy_roundtrips", self.legacy_roundtrips);
        s.push_str(&format!("\"fingerprint\":\"{:016x}\"", self.fingerprint));
        s.push('}');
        s
    }
}

fn push_str_field(s: &mut String, key: &str, value: &str) {
    s.push_str(&format!("\"{key}\":\"{value}\","));
}

fn push_u64_field(s: &mut String, key: &str, value: u64) {
    s.push_str(&format!("\"{key}\":{value},"));
}

fn push_bool_field(s: &mut String, key: &str, value: bool) {
    s.push_str(&format!("\"{key}\":{value},"));
}

/// One point of a partition-length sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Partition window length (virtual ns).
    pub window: SimTime,
    /// The full report of the fresh network run at this window.
    pub report: ScenarioReport,
}

// ---------------------------------------------------------------------
// Link-admin wrappers.
//
// `diplint` pins raw `link_down` / `link_up` / scheduled variants to the
// sim and scenario crates; any other layer (benches, experiment drivers)
// scripts outages through these.

/// Immediately severs both directions of the link on `node.port`.
pub fn sever_link(net: &mut Network, node: NodeId, port: u32) {
    net.link_down(node, port);
}

/// Immediately restores both directions of the link on `node.port`.
pub fn restore_link(net: &mut Network, node: NodeId, port: u32) {
    net.link_up(node, port);
}

/// Schedules a full outage window `[down_at, up_at)` on `node.port`.
pub fn schedule_outage(
    net: &mut Network,
    down_at: SimTime,
    up_at: SimTime,
    node: NodeId,
    port: u32,
) {
    net.schedule_link_down(down_at, node, port);
    net.schedule_link_up(up_at, node, port);
}

// ---------------------------------------------------------------------
// The compiled scenario.

struct Built {
    net: Network,
    routers: Vec<NodeId>,
    consumer_router: usize,
    consumer_host: NodeId,
    producer_host: NodeId,
    /// `(endpoint, port)` of every router-router link at the producer's
    /// edge router — the set a partition window takes down.
    producer_uplinks: Vec<(NodeId, u32)>,
    names: Vec<Name>,
    dag: Dag,
    dst4: Ipv4Addr,
    src4: Ipv4Addr,
    dst6: Ipv6Addr,
    src6: Ipv6Addr,
    links: usize,
}

fn control_node(net: &mut Network, id: NodeId) -> &mut ControlNode {
    net.router_node_mut(id)
        .expect("scenario node is a router")
        .as_any_mut()
        .downcast_mut::<ControlNode>()
        .expect("scenario routers are ControlNodes")
}

fn catalog_payload(i: usize, payload: usize) -> Vec<u8> {
    let mut bytes = format!("obj-{i}-").into_bytes();
    bytes.resize(bytes.len().max(payload), b'x');
    bytes
}

fn build(spec: &ScenarioSpec) -> Built {
    let topo = spec.topology.generate(spec.seed);
    assert!(topo.edge_routers.len() >= 2, "scenario needs two host attachment points");
    let consumer_router = topo.edge_routers[0];
    let producer_router = *topo.edge_routers.last().expect("nonempty edge set");
    assert_ne!(consumer_router, producer_router);

    // Assign ports in link order; hosts get the next free port after.
    let mut next_port = vec![0u32; topo.routers];
    let mut wiring = Vec::with_capacity(topo.links.len());
    for l in &topo.links {
        let pa = next_port[l.a];
        next_port[l.a] += 1;
        let pb = next_port[l.b];
        next_port[l.b] += 1;
        wiring.push((l.a, pa, l.b, pb, l.class.latency_ns()));
    }

    let names: Vec<Name> =
        (0..spec.catalog).map(|i| Name::parse(&format!("/scn/content/{i}"))).collect();
    let movie = Xid::derive(b"scenario-movie");
    let dag = Dag::direct_with_fallback(
        DagNode::sink(XidType::Cid, movie),
        Xid::derive(b"scenario-ad"),
        Xid::derive(b"scenario-hid"),
    )
    .expect("static DAG");
    let dst4 = Ipv4Addr::new(10, 0, 0, 7);
    let src4 = Ipv4Addr::new(192, 168, 0, 1);
    let dst6 = Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 9]);
    let src6 = Ipv6Addr::new([0xfdbb, 0, 0, 0, 0, 0, 0, 1]);

    let mut net = Network::new(spec.seed);
    // Internet-scale graphs flood O(routers · links) control events; the
    // default valve is sized for protocol microbenchmarks.
    net.max_events = 50_000_000;

    let mut routers = Vec::with_capacity(topo.routers);
    for (i, &ports) in next_port.iter().enumerate() {
        let id = (i + 1) as u64;
        let mut router = DipRouter::new(id, [id as u8; 16]);
        // Table sizing must precede add_router_node: attaching wires the
        // PIT eviction counter into the network registry. `install_pit`
        // keys the table under this router's secret.
        router.state_mut().install_pit(Pit::new(spec.pit_capacity, spec.pit_ttl));
        if spec.content_store > 0 {
            router.state_mut().enable_content_store(spec.content_store);
        }
        let agent_ports: Vec<u32> = (0..ports).collect();
        let mut node =
            ControlNode::new(router, ControlAgent::new(id, agent_ports, AgentConfig::default()));
        if i == producer_router {
            let host_port = ports;
            node.agent_mut().announce_v4(Ipv4Addr::new(10, 0, 0, 0), 8, host_port);
            node.agent_mut().announce_v6(
                Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]),
                16,
                host_port,
            );
            for name in &names {
                node.agent_mut().announce_name(name.clone(), host_port);
            }
            node.agent_mut().announce_xia(XidType::Cid, movie, XiaNextHop::Port(host_port));
        }
        routers.push(net.add_router_node(Box::new(node)));
    }

    let consumer_host = net.add_host(Host::consumer(1_000));
    let mut contents = HashMap::new();
    for (i, name) in names.iter().enumerate() {
        contents.insert(name.compact32(), catalog_payload(i, spec.payload));
    }
    let producer_host = net.add_host(Host::producer(2_000, contents));

    let mut producer_uplinks = Vec::new();
    for &(a, pa, b, pb, latency) in &wiring {
        net.connect(routers[a], pa, routers[b], pb, latency);
        if a == producer_router {
            producer_uplinks.push((routers[a], pa));
        } else if b == producer_router {
            producer_uplinks.push((routers[b], pb));
        }
    }
    net.connect(
        consumer_host,
        0,
        routers[consumer_router],
        next_port[consumer_router],
        HOST_LINK_NS,
    );
    net.connect(
        producer_host,
        0,
        routers[producer_router],
        next_port[producer_router],
        HOST_LINK_NS,
    );

    Built {
        net,
        routers,
        consumer_router,
        consumer_host,
        producer_host,
        producer_uplinks,
        names,
        dag,
        dst4,
        src4,
        dst6,
        src6,
        links: topo.links.len(),
    }
}

/// Lets the control plane converge from a cold start: HELLO adjacency
/// formation, full LSA flooding, SPF on every node. Returns whether
/// every router's LSDB ended up holding every origin.
fn converge(built: &mut Built) -> bool {
    // Flooding is event-driven and fast; the horizon just needs enough
    // tick rounds for hellos, triggered floods, and one retransmit pass.
    let horizon = 400_000 + built.routers.len() as u64 * 2_000;
    for round in 0..3 {
        let start = built.net.now() + if round == 0 { 0 } else { HELLO_TICK };
        for &r in &built.routers.clone() {
            built.net.schedule_control_ticks(r, start, HELLO_TICK, start + horizon);
        }
        built.net.run();
        if lsdb_full(built) {
            return true;
        }
    }
    lsdb_full(built)
}

fn lsdb_full(built: &mut Built) -> bool {
    let want = built.routers.len();
    let ids = built.routers.clone();
    ids.iter().all(|&r| control_node(&mut built.net, r).agent().lsdb_len() == want)
}

/// An OPT packet routed by the control-plane-installed FIB: the OPT
/// triples plus a `Match32` over the IPv4 destination after the block.
fn routed_opt(session: &OptSession, payload: &[u8], timestamp: u32, dst: Ipv4Addr) -> DipRepr {
    let block = session.initial_block(payload, timestamp);
    let mut locations = block.to_bytes().to_vec();
    locations.extend_from_slice(&dst.0);
    let mut fns = opt_triples(0);
    fns.push(FnTriple::router((OPT_BLOCK_LEN * 8) as u16, 32, FnKey::Match32));
    DipRepr { next_header: 0, hop_limit: 64, parallel: false, fns, locations }
}

/// Walks the converged IPv4 forwarding state hop by hop from the
/// consumer's edge router toward `dst4`, collecting router secrets in
/// path order — the sequence a path-bound OPT session must commit to.
fn trace_v4_path(built: &mut Built) -> Option<Vec<[u8; 16]>> {
    let mut secrets = Vec::new();
    let mut node = built.routers[built.consumer_router];
    for _ in 0..64 {
        let cn = control_node(&mut built.net, node);
        let id = cn.inner().state().node_id;
        secrets.push([id as u8; 16]);
        let port = cn.inner().state().lookup_v4(built.dst4)?.port;
        let (next, _) = built.net.link_peer(node, port)?;
        if next == built.producer_host {
            return Some(secrets);
        }
        node = next;
    }
    None
}

struct PhaseOutcome {
    report: PhaseReport,
    legacy_roundtrips: u64,
}

#[allow(clippy::too_many_lines)]
fn run_phase(
    built: &mut Built,
    spec: &ScenarioSpec,
    phase_idx: usize,
    phase: &PhaseSpec,
) -> PhaseOutcome {
    let start = built.net.now() + HELLO_TICK;
    let end = start + phase.duration;
    for &r in &built.routers.clone() {
        built.net.schedule_control_ticks(r, start, HELLO_TICK, end);
    }
    let heal_at = phase.partition.map(|window| {
        let up_at = start + window;
        for &(node, port) in &built.producer_uplinks.clone() {
            built.net.schedule_link_down(start, node, port);
            built.net.schedule_link_up(up_at, node, port);
        }
        up_at
    });

    // Path-bound OPT: commit to whatever route SPF chose right now.
    let opt_session = if phase.protocols.contains(&ScenarioProtocol::Opt) {
        trace_v4_path(built).map(|router_secrets| {
            let mut key = [0u8; 16];
            key[0] = (phase_idx + 1) as u8;
            key[1] = spec.seed as u8;
            let session = OptSession::establish(key, &[0x55; 16], &router_secrets);
            built.net.host_mut(built.producer_host).expect("producer host").host_ctx =
                session.host_context();
            session
        })
    } else {
        None
    };

    // Baselines for the deltas this phase reports.
    let ndn_before = built.net.host(built.consumer_host).expect("consumer").delivered.len();
    let cache_before = built.net.trace().cache_hits();
    let drops_before: Vec<usize> =
        DropReason::ALL.iter().map(|&r| built.net.trace().drops_with(r)).collect();
    let snap_before = built.net.metrics_snapshot();
    let pit_expired_before = sum_routers(built, |cn| cn.inner().state().pit.expired_evictions());
    let mut legacy_roundtrips = 0u64;

    let mut rng = DetRng::seed_from_u64(spec.seed ^ ((phase_idx as u64 + 1) << 32));
    let zipf = Zipf::new(spec.catalog.max(1), phase.zipf_s);
    let step = phase.duration / (phase.requests.max(1) as u64);
    let mut injected: Vec<(ScenarioProtocol, u64)> =
        phase.protocols.iter().map(|&p| (p, 0)).collect();
    let mut v4_send_times: Vec<SimTime> = Vec::with_capacity(phase.requests);

    for i in 0..phase.requests {
        let at = start + i as u64 * step;
        for (proto, count) in injected.iter_mut() {
            let tag = format!("{}|{phase_idx}|{i}", short_tag(*proto)).into_bytes();
            let packet = match proto {
                ScenarioProtocol::Ipv4 => {
                    v4_send_times.push(at);
                    ip::dip32_packet(built.dst4, built.src4, 64).to_bytes(&tag).ok()
                }
                ScenarioProtocol::Ipv6 => {
                    ip::dip128_packet(built.dst6, built.src6, 64).to_bytes(&tag).ok()
                }
                ScenarioProtocol::Ndn => {
                    let idx = if phase.sweep_catalog {
                        i % spec.catalog.max(1)
                    } else {
                        zipf.sample(&mut rng)
                    };
                    ndn::interest(&built.names[idx], 64).to_bytes(&[]).ok()
                }
                ScenarioProtocol::Opt => opt_session.as_ref().and_then(|session| {
                    routed_opt(session, &tag, (phase_idx + 1) as u32, built.dst4)
                        .to_bytes(&tag)
                        .ok()
                }),
                ScenarioProtocol::Xia => xia::packet(&built.dag, 64).to_bytes(&tag).ok(),
                ScenarioProtocol::LegacyV4 => {
                    let legacy = Ipv4Repr {
                        src: Ipv4Addr::new(192, 168, 9, 9),
                        dst: built.dst4,
                        protocol: 17,
                        ttl: 32,
                        payload_len: tag.len(),
                    }
                    .to_bytes(&tag)
                    .expect("legacy packet");
                    let encapped = border::encap_ipv4(&legacy).expect("border encap");
                    // The border transform must be lossless before the
                    // packet is allowed onto the shared core.
                    if border::decap_ipv4(&encapped).as_deref() == Ok(&legacy[..]) {
                        legacy_roundtrips += 1;
                    }
                    Some(encapped)
                }
            };
            if let Some(bytes) = packet {
                *count += 1;
                built.net.send(built.consumer_host, 0, bytes, at);
            }
        }
    }
    built.net.run();

    // Attribute deliveries back to protocols via payload tags.
    let producer_delivered = &built.net.host(built.producer_host).expect("producer").delivered;
    let mut traffic = Vec::with_capacity(injected.len());
    let mut reconvergence_ns = None;
    for &(proto, sent) in &injected {
        let delivered = match proto {
            ScenarioProtocol::Ndn => {
                (built.net.host(built.consumer_host).expect("consumer").delivered.len()
                    - ndn_before) as u64
            }
            _ => {
                let prefix = format!("{}|{phase_idx}|", short_tag(proto)).into_bytes();
                producer_delivered
                    .iter()
                    .filter(|d| {
                        d.payload.starts_with(&prefix)
                            && (proto != ScenarioProtocol::Opt || d.verified)
                    })
                    .count() as u64
            }
        };
        if proto == ScenarioProtocol::Ipv4 {
            if let Some(heal) = heal_at {
                let prefix = format!("{}|{phase_idx}|", short_tag(proto)).into_bytes();
                reconvergence_ns = producer_delivered
                    .iter()
                    .filter(|d| d.payload.starts_with(&prefix))
                    .filter_map(|d| {
                        let i: usize =
                            std::str::from_utf8(&d.payload[prefix.len()..]).ok()?.parse().ok()?;
                        let sent_at = *v4_send_times.get(i)?;
                        (sent_at >= heal).then(|| d.time.saturating_sub(heal))
                    })
                    .min();
            }
        }
        traffic.push(ProtocolCount { protocol: proto.label(), injected: sent, delivered });
    }

    // Age out PIT entries the phase left behind — the accounting-honest
    // end of a long partition: every one is a counted eviction, not a
    // silent disappearance.
    let now = built.net.now();
    for &r in &built.routers.clone() {
        control_node(&mut built.net, r).inner_mut().state_mut().pit.expire(now);
    }

    let drops = DropReason::ALL
        .iter()
        .zip(&drops_before)
        .filter_map(|(&reason, &before)| {
            let delta = (built.net.trace().drops_with(reason) - before) as u64;
            (delta > 0).then(|| (reason.as_str().to_string(), delta))
        })
        .collect();
    let snap_after = built.net.metrics_snapshot();
    let report = PhaseReport {
        name: phase.name.clone(),
        start,
        end,
        partition_window: phase.partition,
        traffic,
        cache_hits: (built.net.trace().cache_hits() - cache_before) as u64,
        drops,
        link_dropped: snap_after.get("dip_link_dropped_total")
            - snap_before.get("dip_link_dropped_total"),
        pit_entries: sum_routers(built, |cn| cn.inner().state().pit.len() as u64),
        pit_expired_evictions: sum_routers(built, |cn| cn.inner().state().pit.expired_evictions())
            - pit_expired_before,
        cs_entries: sum_routers(built, |cn| {
            cn.inner().state().content_store.as_ref().map_or(0, |cs| cs.len() as u64)
        }),
        retransmit_depth_max: built
            .routers
            .clone()
            .iter()
            .map(|&r| control_node(&mut built.net, r).agent().retransmit_queue_depth() as u64)
            .max()
            .unwrap_or(0),
        reconvergence_ns,
    };
    PhaseOutcome { report, legacy_roundtrips }
}

fn short_tag(proto: ScenarioProtocol) -> &'static str {
    match proto {
        ScenarioProtocol::Ipv4 => "v4",
        ScenarioProtocol::Ipv6 => "v6",
        ScenarioProtocol::Ndn => "nd",
        ScenarioProtocol::Opt => "op",
        ScenarioProtocol::Xia => "xa",
        ScenarioProtocol::LegacyV4 => "lg",
    }
}

fn sum_routers(built: &mut Built, f: impl Fn(&ControlNode) -> u64) -> u64 {
    let ids = built.routers.clone();
    ids.iter().map(|&r| f(control_node(&mut built.net, r))).sum()
}

fn fnv1a(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

fn fingerprint(report: &ScenarioReport) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |s: String| h = fnv1a(s.as_bytes(), h);
    eat(format!("{}/{}/{}/{}", report.name, report.topology, report.routers, report.seed));
    for p in &report.phases {
        eat(format!("|{}@{}..{}", p.name, p.start, p.end));
        for t in &p.traffic {
            eat(format!(";{}={}:{}", t.protocol, t.injected, t.delivered));
        }
        for (reason, n) in &p.drops {
            eat(format!(";d:{reason}={n}"));
        }
        eat(format!(
            ";c={};l={};p={};x={};s={}",
            p.cache_hits, p.link_dropped, p.pit_entries, p.pit_expired_evictions, p.cs_entries
        ));
    }
    eat(format!(
        "|t:{}:{}:{}:{}:{}",
        report.spf_runs,
        report.accounted,
        report.sent,
        report.link_dropped,
        report.legacy_roundtrips
    ));
    h
}

/// Compiles and runs `spec` end to end: build the topology, converge the
/// control plane from nothing, execute every phase, and assemble the
/// measurement report (byte-deterministic in the spec).
pub fn run_scenario(spec: &ScenarioSpec) -> ScenarioReport {
    let mut built = build(spec);
    let converged = converge(&mut built);

    let mut phases = Vec::with_capacity(spec.phases.len());
    let mut legacy_roundtrips = 0;
    for (idx, phase) in spec.phases.iter().enumerate() {
        let outcome = run_phase(&mut built, spec, idx, phase);
        legacy_roundtrips += outcome.legacy_roundtrips;
        phases.push(outcome.report);
    }

    let snap = built.net.metrics_snapshot();
    let accounted = snap.get("dip_packets_total");
    let sent = snap.get("dip_node_sent_total");
    let link_dropped = snap.get("dip_link_dropped_total");
    let topo = spec.topology.generate(spec.seed);
    let mut report = ScenarioReport {
        name: spec.name.clone(),
        topology: topo.label,
        routers: built.routers.len(),
        links: built.links,
        seed: spec.seed,
        converged,
        phases,
        spf_runs: snap.get("dip_ctrl_spf_runs_total"),
        convergence_samples: snap.get("dip_ctrl_convergence_ns_count"),
        accounted,
        sent,
        link_dropped,
        identity_ok: accounted == sent - link_dropped,
        legacy_roundtrips,
        fingerprint: 0,
    };
    report.fingerprint = fingerprint(&report);
    report
}

/// Runs one fresh network per partition window, holding the outage
/// phase's duration fixed across the sweep so delivery fractions are
/// comparable: the only variable is how long the producer island stays
/// dark. `window == 0` runs the identical scenario with no partition.
pub fn partition_sweep(
    k: usize,
    windows: &[SimTime],
    requests: usize,
    seed: u64,
) -> Vec<SweepPoint> {
    let max_window = windows.iter().copied().max().unwrap_or(0);
    let fixed_duration = (max_window + 800_000).max(1_600_000);
    windows
        .iter()
        .map(|&window| {
            let mut spec = ScenarioSpec::partition(k, window.max(1), requests, seed);
            spec.name = format!("partition_k{k}_w{window}");
            spec.phases[1].duration = fixed_duration;
            if window == 0 {
                spec.phases[1].partition = None;
            }
            SweepPoint { window, report: run_scenario(&spec) }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_tables::TableHasher;

    /// Every scenario router's PIT hashes under that router's own secret:
    /// after the same inserts it lays out like a table keyed from the
    /// secret and unlike one from `Pit::new`'s public key.
    #[test]
    fn built_routers_key_their_pits_under_their_own_secrets() {
        let spec = ScenarioSpec::fat_tree(2, 8, 7);
        let mut built = build(&spec);
        let names: Vec<u32> =
            (0..64).map(|i| Name::parse(&format!("/probe/{i}")).compact32()).collect();
        let fill = |pit: &mut Pit<u32>| {
            for (i, &name) in names.iter().enumerate() {
                let _ = pit.record_interest(name, 0, i as u64, 0);
            }
        };
        let order = |pit: &Pit<u32>| pit.iter().map(|e| *e.name).collect::<Vec<_>>();
        for &id in &built.routers.clone() {
            let state = control_node(&mut built.net, id).inner_mut().state_mut();
            fill(&mut state.pit);
            let mut keyed = Pit::with_hasher(
                spec.pit_capacity,
                spec.pit_ttl,
                TableHasher::from_secret(&state.local_secret),
            );
            fill(&mut keyed);
            let mut public = Pit::new(spec.pit_capacity, spec.pit_ttl);
            fill(&mut public);
            assert_eq!(order(&state.pit), order(&keyed), "router {id:?}: keyed by its secret");
            assert_ne!(order(&keyed), order(&public), "router {id:?}: the public key differs");
        }
    }
}
