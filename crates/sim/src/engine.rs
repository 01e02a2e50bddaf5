//! The discrete-event engine: nodes, links, and the event loop.
//!
//! Nodes are either DIP routers (running the real
//! [`dip_core::DipRouter`] pipeline) or hosts (consumers that verify and
//! record deliveries, and producers that answer interests). Links carry
//! packets with a serialization + propagation delay and optional fault
//! injection. Router processing time comes from the PISA timing model, so
//! simulated end-to-end latencies are consistent with the Figure-2
//! experiment.

use crate::faults::FaultConfig;
use crate::tofino::TofinoModel;
use crate::trace::{Trace, TraceEvent};
use crate::SimTime;
use dip_core::control::{ControlMessage, CONTROL_NEXT_HEADER};
use dip_core::host::{deliver, HostContext};
use dip_core::{DipRouter, ProcessStats, Verdict};
use dip_crypto::DetRng;
use dip_fnops::context::MacChoice;
use dip_fnops::{FnRegistry, RouterState};
use dip_protocols::opt::OptSession;
use dip_telemetry::{Counter, OutcomeCounters, PacketOutcome, Registry, Snapshot};
use dip_wire::packet::DipRepr;
use dip_wire::triple::FnKey;
use dip_wire::DipPacket;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Identifies a node in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeId(pub usize);

/// Errors surfaced by the simulator's typed node accessors.
///
/// A misconfigured topology (addressing a host as a router, or vice
/// versa) used to abort the whole run with a panic; it now degrades to a
/// recoverable error the experiment driver can report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimError {
    /// The node exists but is not the kind the accessor expected.
    WrongNodeKind {
        /// The offending node index.
        node: usize,
        /// What the caller expected the node to be.
        expected: &'static str,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::WrongNodeKind { node, expected } => {
                write!(f, "node {node} is not a {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A packet-forwarding node the event loop can drive.
///
/// [`DipRouter`] is the canonical implementation (one packet at a time,
/// Algorithm 1); `dip-controlplane`'s `ControlNode` wraps one and plugs in
/// through the same trait, consuming control packets before the router
/// sees them.
pub trait RouterNode {
    /// Runs the router pipeline over `buf` in place, returning the verdict
    /// and the architecture stats the PISA timing model consumes.
    fn process_packet(
        &mut self,
        buf: &mut [u8],
        in_port: u32,
        now: SimTime,
    ) -> (Verdict, ProcessStats);

    /// Which MAC implementation the node models (timing input).
    fn mac_choice(&self) -> MacChoice;

    /// The node's installed FN registry, consulted by [`Network::lint`].
    fn registry(&self) -> &FnRegistry;

    /// Downcast hook so typed accessors like [`Network::router_mut`] can
    /// recover the concrete node.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;

    /// Wires the node's internal counters (verdicts, FN invocations, PIT
    /// evictions, …) to the network's [`Registry`] under a `node` label.
    /// Called once by [`Network::add_router_node`]; the default is a
    /// no-op for implementations without internal telemetry.
    fn attach_metrics(&mut self, _registry: &Registry, _node: usize) {}

    /// Periodic control-plane timer, driven by
    /// [`Network::schedule_control_ticks`]: the node returns zero or more
    /// `(port, packet)` pairs to transmit (HELLOs, LSA floods,
    /// retransmissions). The default is a no-op for pure dataplane nodes.
    fn control_tick(&mut self, _now: SimTime) -> Vec<(u32, Vec<u8>)> {
        Vec::new()
    }

    /// Drains packets the node *originated* while processing the last
    /// packet (LSA acks, triggered floods): unlike
    /// [`Verdict::Forward`], which re-transmits the processed buffer,
    /// these are new packets addressed to specific ports. Called by the
    /// event loop right after every `process_packet`.
    fn drain_control(&mut self) -> Vec<(u32, Vec<u8>)> {
        Vec::new()
    }
}

impl RouterNode for DipRouter {
    fn process_packet(
        &mut self,
        buf: &mut [u8],
        in_port: u32,
        now: SimTime,
    ) -> (Verdict, ProcessStats) {
        self.process(buf, in_port, now)
    }

    fn mac_choice(&self) -> MacChoice {
        self.state().mac_choice
    }

    fn registry(&self) -> &FnRegistry {
        DipRouter::registry(self)
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn attach_metrics(&mut self, registry: &Registry, node: usize) {
        let n = node.to_string();
        DipRouter::attach_metrics(self, registry, &[("node", n.as_str())]);
    }
}

/// A content producer attached to a host: answers interests from its
/// catalog, optionally with OPT authentication (NDN+OPT).
pub struct Producer {
    /// compact name → content payload.
    pub contents: HashMap<u32, Vec<u8>>,
    /// When set, data packets carry the OPT chain (NDN+OPT).
    pub session: Option<OptSession>,
}

/// A packet delivered to a host application.
#[derive(Debug, Clone)]
pub struct DeliveredPacket {
    /// The payload bytes.
    pub payload: Vec<u8>,
    /// Whether host verification ran and succeeded.
    pub verified: bool,
    /// Delivery time.
    pub time: SimTime,
}

/// An end host.
pub struct Host {
    /// Stable identifier.
    pub node_id: u64,
    /// Verification material for host-tagged FNs.
    pub host_ctx: HostContext,
    /// Host-side state (hosts run FNs too).
    pub state: RouterState,
    /// Host-side registry.
    pub registry: FnRegistry,
    /// Producer role, if any.
    pub producer: Option<Producer>,
    /// Packets delivered to the application.
    pub delivered: Vec<DeliveredPacket>,
    /// Control messages received (§2.4 notifications).
    pub control_messages: Vec<ControlMessage>,
}

impl Host {
    /// A plain consumer host.
    pub fn consumer(node_id: u64) -> Self {
        Host {
            node_id,
            host_ctx: HostContext::default(),
            state: RouterState::new(node_id, [0; 16]),
            registry: FnRegistry::standard(),
            producer: None,
            delivered: Vec::new(),
            control_messages: Vec::new(),
        }
    }

    /// A consumer that verifies with the given session material.
    pub fn verifying_consumer(node_id: u64, host_ctx: HostContext) -> Self {
        Host { host_ctx, ..Host::consumer(node_id) }
    }

    /// A producer host serving `contents` (compact name → payload).
    pub fn producer(node_id: u64, contents: HashMap<u32, Vec<u8>>) -> Self {
        Host { producer: Some(Producer { contents, session: None }), ..Host::consumer(node_id) }
    }

    /// A producer whose data packets carry the NDN+OPT chain.
    pub fn secure_producer(
        node_id: u64,
        contents: HashMap<u32, Vec<u8>>,
        session: OptSession,
    ) -> Self {
        Host {
            producer: Some(Producer { contents, session: Some(session) }),
            ..Host::consumer(node_id)
        }
    }
}

enum NodeKind {
    Router(Box<dyn RouterNode>),
    Host(Box<Host>),
}

struct LinkEnd {
    peer: usize,
    peer_port: u32,
    latency_ns: u64,
    bandwidth_bps: u64,
    faults: FaultConfig,
    /// Administrative state: a downed link drops every packet at egress
    /// (counted as `dip_link_dropped_total`) until brought back up.
    up: bool,
}

struct NodeSlot {
    kind: NodeKind,
    ports: Vec<Option<LinkEnd>>,
    /// Per-hop accounting: `dip_packets_total{node=…}` / `dip_drops_total`.
    outcomes: OutcomeCounters,
    /// Packets put on a link by this node (`dip_node_sent_total`).
    sent: Arc<Counter>,
    /// Packets lost to link faults on egress (`dip_link_dropped_total`).
    link_dropped: Arc<Counter>,
}

impl NodeSlot {
    fn new(kind: NodeKind, registry: &Registry, node: usize) -> Self {
        let n = node.to_string();
        let kind_label = match kind {
            NodeKind::Router(_) => "router",
            NodeKind::Host(_) => "host",
        };
        let labels = [("node", n.as_str()), ("kind", kind_label)];
        NodeSlot {
            kind,
            ports: Vec::new(),
            outcomes: OutcomeCounters::register(registry, &labels),
            sent: registry.counter(
                "dip_node_sent_total",
                "Packets transmitted onto links",
                &labels,
            ),
            link_dropped: registry.counter(
                "dip_link_dropped_total",
                "Packets lost to egress link faults",
                &labels,
            ),
        }
    }
}

/// What a queued event does when it fires.
#[derive(PartialEq, Eq)]
enum EventKind {
    /// A packet arriving at `port`.
    Packet { port: u32, packet: Vec<u8> },
    /// A periodic control-plane timer at the node; re-arms itself every
    /// `interval` until `horizon` so [`Network::run`] still terminates.
    ControlTick { interval: SimTime, horizon: SimTime },
    /// Administrative link state change on the node's `port` (applied to
    /// both directions of the link).
    LinkAdmin { port: u32, up: bool },
}

#[derive(PartialEq, Eq)]
struct QueuedEvent {
    time: SimTime,
    seq: u64,
    node: usize,
    kind: EventKind,
}

impl Ord for QueuedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for QueuedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The simulated network.
///
/// ```
/// use dip_sim::engine::{Host, Network};
/// use dip_core::DipRouter;
/// use dip_fnops::RouteStore;
/// use dip_tables::fib::NextHop;
/// use dip_wire::ndn::Name;
/// use std::collections::HashMap;
///
/// let name = Name::parse("/demo");
/// let mut net = Network::new(42);
/// let mut r = DipRouter::new(0, [1; 16]);
/// let mut routes = RouteStore::new();
/// routes.insert_name(&name, NextHop::port(1));
/// r.state_mut().routes = routes.rebuild();
/// let router = net.add_router(r);
/// let consumer = net.add_host(Host::consumer(10));
/// let producer = net.add_host(Host::producer(
///     11,
///     HashMap::from([(name.compact32(), b"content".to_vec())]),
/// ));
/// net.connect(consumer, 0, router, 0, 1_000);
/// net.connect(producer, 0, router, 1, 1_000);
///
/// let interest = dip_protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
/// net.send(consumer, 0, interest, 0);
/// net.run();
/// assert_eq!(net.host(consumer).unwrap().delivered[0].payload, b"content");
/// ```
pub struct Network {
    nodes: Vec<NodeSlot>,
    queue: BinaryHeap<Reverse<QueuedEvent>>,
    now: SimTime,
    seq: u64,
    rng: DetRng,
    trace: Trace,
    model: TofinoModel,
    /// Safety valve against runaway packet storms.
    pub max_events: u64,
    events_processed: u64,
    capture: Option<Vec<(SimTime, Vec<u8>)>>,
    registry: Registry,
}

impl Network {
    /// A new network with a deterministic RNG seed.
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            queue: BinaryHeap::new(),
            now: 0,
            seq: 0,
            rng: DetRng::seed_from_u64(seed),
            trace: Trace::default(),
            model: TofinoModel::tofino(),
            max_events: 1_000_000,
            events_processed: 0,
            capture: None,
            registry: Registry::new(),
        }
    }

    /// The telemetry registry every node reports into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// A point-in-time snapshot of every counter in the network.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// The full metrics state in Prometheus text exposition format
    /// (`dipdump --metrics` prints exactly this).
    pub fn metrics_report(&self) -> String {
        self.registry.render_prometheus()
    }

    /// Starts capturing every transmitted packet (for pcap export).
    pub fn enable_capture(&mut self) {
        self.capture = Some(Vec::new());
    }

    /// The captured packets, in transmission order.
    pub fn captured(&self) -> &[(SimTime, Vec<u8>)] {
        self.capture.as_deref().unwrap_or(&[])
    }

    /// Writes the capture as a libpcap stream (smoltcp-style `--pcap`).
    pub fn write_pcap<W: std::io::Write>(&self, sink: W) -> std::io::Result<u64> {
        let mut w = crate::pcap::PcapWriter::new(sink)?;
        for (at, bytes) in self.captured() {
            w.write_packet(*at, bytes)?;
        }
        let n = w.packets();
        w.finish()?;
        Ok(n)
    }

    /// Adds a classic per-packet router node.
    pub fn add_router(&mut self, router: DipRouter) -> NodeId {
        self.add_router_node(Box::new(router))
    }

    /// Adds any [`RouterNode`] implementation (e.g. the batched
    /// multi-worker dataplane) and wires it to the network registry.
    pub fn add_router_node(&mut self, mut node: Box<dyn RouterNode>) -> NodeId {
        let idx = self.nodes.len();
        node.attach_metrics(&self.registry, idx);
        self.nodes.push(NodeSlot::new(NodeKind::Router(node), &self.registry, idx));
        NodeId(idx)
    }

    /// Adds a host node.
    pub fn add_host(&mut self, host: Host) -> NodeId {
        let idx = self.nodes.len();
        self.nodes.push(NodeSlot::new(NodeKind::Host(Box::new(host)), &self.registry, idx));
        NodeId(idx)
    }

    /// Connects `a.port_a` ↔ `b.port_b` with symmetric characteristics.
    pub fn connect(&mut self, a: NodeId, port_a: u32, b: NodeId, port_b: u32, latency_ns: u64) {
        self.connect_with(
            a,
            port_a,
            b,
            port_b,
            latency_ns,
            10_000_000_000,
            FaultConfig::reliable(),
        );
    }

    /// Connects with explicit bandwidth and fault configuration.
    #[allow(clippy::too_many_arguments)]
    pub fn connect_with(
        &mut self,
        a: NodeId,
        port_a: u32,
        b: NodeId,
        port_b: u32,
        latency_ns: u64,
        bandwidth_bps: u64,
        faults: FaultConfig,
    ) {
        let set = |slot: &mut NodeSlot, port: u32, end: LinkEnd| {
            let idx = port as usize;
            if slot.ports.len() <= idx {
                slot.ports.resize_with(idx + 1, || None);
            }
            slot.ports[idx] = Some(end);
        };
        set(
            &mut self.nodes[a.0],
            port_a,
            LinkEnd {
                peer: b.0,
                peer_port: port_b,
                latency_ns,
                bandwidth_bps,
                faults: faults.clone(),
                up: true,
            },
        );
        set(
            &mut self.nodes[b.0],
            port_b,
            LinkEnd { peer: a.0, peer_port: port_a, latency_ns, bandwidth_bps, faults, up: true },
        );
    }

    /// Administratively sets both directions of the link on `a.port_a`.
    /// A downed link drops every packet at egress time; packets already
    /// in flight still arrive (the wire drains).
    pub fn set_link_state(&mut self, a: NodeId, port_a: u32, up: bool) {
        let Some(Some(end)) = self.nodes[a.0].ports.get(port_a as usize) else {
            return;
        };
        let (peer, peer_port) = (end.peer, end.peer_port);
        if let Some(Some(end)) = self.nodes[a.0].ports.get_mut(port_a as usize) {
            end.up = up;
        }
        if let Some(Some(end)) = self.nodes[peer].ports.get_mut(peer_port as usize) {
            end.up = up;
        }
    }

    /// Takes the link on `a.port_a` down (both directions), immediately.
    pub fn link_down(&mut self, a: NodeId, port_a: u32) {
        self.set_link_state(a, port_a, false);
    }

    /// Brings the link on `a.port_a` back up (both directions).
    pub fn link_up(&mut self, a: NodeId, port_a: u32) {
        self.set_link_state(a, port_a, true);
    }

    /// Schedules an administrative link-down at virtual time `at` — the
    /// deterministic mid-run failure the reconvergence scenarios script.
    pub fn schedule_link_down(&mut self, at: SimTime, a: NodeId, port_a: u32) {
        self.push_event(at, a.0, EventKind::LinkAdmin { port: port_a, up: false });
    }

    /// Schedules an administrative link-up at virtual time `at`.
    pub fn schedule_link_up(&mut self, at: SimTime, a: NodeId, port_a: u32) {
        self.push_event(at, a.0, EventKind::LinkAdmin { port: port_a, up: true });
    }

    /// Arms a periodic control-plane timer on a router node: starting at
    /// `start`, [`RouterNode::control_tick`] fires every `interval` until
    /// `horizon` (inclusive), transmitting whatever `(port, packet)`
    /// pairs the node emits. The horizon bounds the event stream so
    /// [`Network::run`] still terminates.
    pub fn schedule_control_ticks(
        &mut self,
        node: NodeId,
        start: SimTime,
        interval: SimTime,
        horizon: SimTime,
    ) {
        let interval = interval.max(1);
        if start <= horizon {
            self.push_event(start, node.0, EventKind::ControlTick { interval, horizon });
        }
    }

    fn push_event(&mut self, time: SimTime, node: usize, kind: EventKind) {
        self.seq += 1;
        self.queue.push(Reverse(QueuedEvent { time, seq: self.seq, node, kind }));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The trace of everything that happened.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Number of nodes (routers and hosts) in the network.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The remote end of `node`'s `port`: `(peer, peer_port)`, or `None`
    /// when the port is unwired. Topology-generation layers use this to
    /// trace a converged forwarding path hop by hop (e.g. to establish a
    /// path-bound OPT session over whatever route SPF actually chose).
    pub fn link_peer(&self, node: NodeId, port: u32) -> Option<(NodeId, u32)> {
        let end = self.nodes.get(node.0)?.ports.get(port as usize)?.as_ref()?;
        Some((NodeId(end.peer), end.peer_port))
    }

    /// Mutable access to a classic [`DipRouter`] node.
    ///
    /// Errors with [`SimError::WrongNodeKind`] if the node is a host or a
    /// non-`DipRouter` router implementation.
    pub fn router_mut(&mut self, id: NodeId) -> Result<&mut DipRouter, SimError> {
        let err = SimError::WrongNodeKind { node: id.0, expected: "DipRouter" };
        match &mut self.nodes[id.0].kind {
            NodeKind::Router(r) => r.as_any_mut().downcast_mut::<DipRouter>().ok_or(err),
            NodeKind::Host(_) => Err(err),
        }
    }

    /// Mutable access to any router node behind the [`RouterNode`] trait.
    pub fn router_node_mut(&mut self, id: NodeId) -> Result<&mut dyn RouterNode, SimError> {
        match &mut self.nodes[id.0].kind {
            NodeKind::Router(r) => Ok(r.as_mut()),
            NodeKind::Host(_) => Err(SimError::WrongNodeKind { node: id.0, expected: "router" }),
        }
    }

    /// Access to a host node.
    pub fn host(&self, id: NodeId) -> Result<&Host, SimError> {
        match &self.nodes[id.0].kind {
            NodeKind::Host(h) => Ok(h),
            NodeKind::Router(_) => Err(SimError::WrongNodeKind { node: id.0, expected: "host" }),
        }
    }

    /// Mutable access to a host node.
    pub fn host_mut(&mut self, id: NodeId) -> Result<&mut Host, SimError> {
        match &mut self.nodes[id.0].kind {
            NodeKind::Host(h) => Ok(h),
            NodeKind::Router(_) => Err(SimError::WrongNodeKind { node: id.0, expected: "host" }),
        }
    }

    /// Statically verifies a composed program against this network: the
    /// registry pass runs over the *actual* installed registries of every
    /// router node, and the resource pass uses the budget matching the
    /// network's timing model. Lets experiment drivers lint a protocol
    /// before injecting a single packet.
    pub fn lint(&self, repr: &DipRepr) -> dip_verify::Report {
        let hops: Vec<FnRegistry> = self
            .nodes
            .iter()
            .filter_map(|slot| match &slot.kind {
                NodeKind::Router(r) => Some(r.registry().clone()),
                NodeKind::Host(_) => None,
            })
            .collect();
        let program = dip_verify::FnProgram::from_repr(repr);
        let checker = dip_verify::Checker::new().with_budget(self.model.resource_budget());
        if hops.is_empty() {
            checker.check(&program)
        } else {
            checker.check_path(&program, &hops)
        }
    }

    /// Sends `packet` out of `node`'s `port` at time `at` (a host
    /// originating traffic).
    pub fn send(&mut self, node: NodeId, port: u32, packet: Vec<u8>, at: SimTime) {
        let base = self.now.max(at);
        self.transmit(node.0, port, packet, base);
    }

    fn transmit(&mut self, node: usize, port: u32, mut packet: Vec<u8>, at: SimTime) {
        let Some(Some(end)) = self.nodes[node].ports.get(port as usize) else {
            // Unconnected port: the packet falls on the floor.
            return;
        };
        self.trace.push(at, TraceEvent::Sent { node, port, len: packet.len() });
        self.nodes[node].sent.inc();
        if let Some(cap) = self.capture.as_mut() {
            cap.push((at, packet.clone()));
        }
        let ser_ns = (packet.len() as u64 * 8).saturating_mul(1_000_000_000) / end.bandwidth_bps;
        let arrival = at + ser_ns + end.latency_ns;
        let (peer, peer_port, up) = (end.peer, end.peer_port, end.up);
        let faults = end.faults.clone();
        if !up || !faults.apply(&mut self.rng, &mut packet, at) {
            self.trace.push(at, TraceEvent::LinkDropped { node, port });
            self.nodes[node].link_dropped.inc();
            return;
        }
        self.push_event(arrival, peer, EventKind::Packet { port: peer_port, packet });
    }

    /// Runs until no events remain (or `max_events` is hit). Returns the
    /// final virtual time.
    pub fn run(&mut self) -> SimTime {
        while let Some(Reverse(ev)) = self.queue.pop() {
            self.events_processed += 1;
            if self.events_processed > self.max_events {
                break;
            }
            self.now = self.now.max(ev.time);
            self.dispatch(ev);
        }
        self.now
    }

    fn dispatch(&mut self, ev: QueuedEvent) {
        let QueuedEvent { time, node, kind, .. } = ev;
        match kind {
            EventKind::Packet { port, packet } => self.dispatch_packet(time, node, port, packet),
            EventKind::ControlTick { interval, horizon } => {
                if let NodeKind::Router(router) = &mut self.nodes[node].kind {
                    let emits = router.control_tick(time);
                    for (port, packet) in emits {
                        self.transmit(node, port, packet, time);
                    }
                }
                let next = time.saturating_add(interval);
                if next <= horizon {
                    self.push_event(next, node, EventKind::ControlTick { interval, horizon });
                }
            }
            EventKind::LinkAdmin { port, up } => self.set_link_state(NodeId(node), port, up),
        }
    }

    fn dispatch_packet(&mut self, time: SimTime, node: usize, port: u32, mut packet: Vec<u8>) {
        // Split the borrow: temporarily take the node kind out.
        match &mut self.nodes[node].kind {
            NodeKind::Router(router) => {
                let (verdict, stats) = router.process_packet(&mut packet, port, time);
                let emitted = router.drain_control();
                let mac_choice = router.mac_choice();
                let proc_ns = self.model.process_ns(&stats, packet.len(), mac_choice) as u64;
                let done = time + proc_ns;
                self.nodes[node].outcomes.record(verdict.outcome());
                for (p, pkt) in emitted {
                    self.transmit(node, p, pkt, done);
                }
                match verdict {
                    Verdict::Forward(ports) => {
                        for &p in ports.iter() {
                            self.transmit(node, p, packet.clone(), done);
                        }
                    }
                    Verdict::Deliver => {
                        self.trace.push(
                            done,
                            TraceEvent::Delivered { node, verified: false, len: packet.len() },
                        );
                    }
                    Verdict::Consumed => {}
                    Verdict::RespondCached(data) => {
                        self.trace.push(done, TraceEvent::CacheHit { node });
                        if let Some(compact) = cached_name(&packet) {
                            let reply = dip_protocols::ndn::data_compact(compact, 64)
                                .to_bytes(&data)
                                .expect("data packet construction");
                            self.transmit(node, port, reply, done);
                        }
                    }
                    Verdict::Notify(msg) => {
                        if let ControlMessage::FnUnsupported { key, .. } = &msg {
                            self.trace.push(done, TraceEvent::Notified { node, key: *key });
                        }
                        let reply = DipRepr {
                            next_header: CONTROL_NEXT_HEADER,
                            hop_limit: 64,
                            ..Default::default()
                        }
                        .to_bytes(&msg.encode())
                        .expect("control packet construction");
                        self.transmit(node, port, reply, done);
                    }
                    Verdict::Drop(reason) => {
                        self.trace.push(done, TraceEvent::Dropped { node, reason });
                    }
                }
            }
            NodeKind::Host(host) => {
                let action = host_receive(host, &mut packet, time);
                // A host consumes everything it doesn't refuse: replies
                // (the interest died here, a new data packet is born),
                // deliveries, and control messages all end the packet.
                let outcome = match &action {
                    HostAction::Dropped(reason) => PacketOutcome::Dropped(*reason),
                    _ => PacketOutcome::Consumed,
                };
                self.nodes[node].outcomes.record(outcome);
                match action {
                    HostAction::Reply(reply) => self.transmit(node, port, reply, time),
                    HostAction::Delivered { verified, len } => {
                        self.trace.push(time, TraceEvent::Delivered { node, verified, len });
                    }
                    HostAction::Dropped(reason) => {
                        self.trace.push(time, TraceEvent::Dropped { node, reason });
                    }
                    HostAction::Quiet => {}
                }
            }
        }
    }
}

enum HostAction {
    Reply(Vec<u8>),
    Delivered { verified: bool, len: usize },
    Dropped(dip_fnops::DropReason),
    Quiet,
}

/// Extracts the compact content name from an NDN-style packet (first 4
/// bytes of the locations area).
fn cached_name(packet: &[u8]) -> Option<u32> {
    let pkt = DipPacket::new_checked(packet).ok()?;
    let locs = pkt.locations();
    locs.get(..4).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
}

fn host_receive(host: &mut Host, packet: &mut [u8], now: SimTime) -> HostAction {
    let Ok(pkt) = DipPacket::new_checked(&packet[..]) else {
        return HostAction::Dropped(dip_fnops::DropReason::MalformedField);
    };

    // Control notifications (§2.4).
    if let Ok(hdr) = pkt.basic_header() {
        if hdr.next_header == CONTROL_NEXT_HEADER {
            if let Ok(msg) = ControlMessage::decode(pkt.payload()) {
                host.control_messages.push(msg);
            }
            return HostAction::Quiet;
        }
    }

    // Interest handling for producers: an F_FIB triple marks a request.
    let is_interest = pkt.triples().is_ok_and(|ts| ts.iter().any(|t| t.key == FnKey::Fib));
    if is_interest {
        if let Some(producer) = &host.producer {
            let Some(compact) =
                pkt.locations().get(..4).map(|b| u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
            else {
                return HostAction::Dropped(dip_fnops::DropReason::MalformedField);
            };
            let Some(content) = producer.contents.get(&compact) else {
                return HostAction::Dropped(dip_fnops::DropReason::NoRoute);
            };
            let repr = match &producer.session {
                Some(session) => dip_protocols::ndn_opt::data_compact(
                    session,
                    compact,
                    content,
                    (now / 1_000_000) as u32,
                    64,
                ),
                None => dip_protocols::ndn::data_compact(compact, 64),
            };
            let reply = repr.to_bytes(content).expect("data construction");
            return HostAction::Reply(reply);
        }
        return HostAction::Dropped(dip_fnops::DropReason::NoRoute);
    }

    // Data / plain delivery: run host-tagged FNs then deliver.
    let payload_len = pkt.payload().len();
    let _ = pkt;
    match deliver(packet, &host.host_ctx, &mut host.state, &host.registry, now) {
        Ok(d) => {
            let payload = DipPacket::new_unchecked(&packet[..]).payload().to_vec();
            host.delivered.push(DeliveredPacket { payload, verified: d.verified, time: now });
            HostAction::Delivered { verified: d.verified, len: payload_len }
        }
        Err(reason) => HostAction::Dropped(reason),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_fnops::RouteStore;
    use dip_tables::fib::NextHop;
    use dip_wire::ndn::Name;

    /// consumer(h0) -- r0 -- producer(h1)
    fn ndn_triangle(secure: bool) -> (Network, NodeId, NodeId, NodeId, Name, OptSession) {
        let name = Name::parse("hotnets.org");
        let router_secret = [9u8; 16];
        let session = OptSession::establish([0xaa; 16], &[1; 16], &[router_secret]);

        let mut net = Network::new(42);
        let mut r = DipRouter::new(0, router_secret);
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(1));
        r.state_mut().routes = routes.rebuild();
        let r0 = net.add_router(r);

        let consumer = if secure {
            Host::verifying_consumer(10, session.host_context())
        } else {
            Host::consumer(10)
        };
        let h0 = net.add_host(consumer);

        let mut contents = HashMap::new();
        contents.insert(name.compact32(), b"the content".to_vec());
        let producer = if secure {
            Host::secure_producer(11, contents, session.clone())
        } else {
            Host::producer(11, contents)
        };
        let h1 = net.add_host(producer);

        net.connect(h0, 0, r0, 0, 1_000);
        net.connect(h1, 0, r0, 1, 1_000);
        (net, r0, h0, h1, name, session)
    }

    #[test]
    fn plain_ndn_retrieval_end_to_end() {
        let (mut net, _r0, h0, _h1, name, _) = ndn_triangle(false);
        let interest = dip_protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
        net.send(h0, 0, interest, 0);
        net.run();
        let delivered = &net.host(h0).unwrap().delivered;
        assert_eq!(delivered.len(), 1);
        assert_eq!(delivered[0].payload, b"the content");
        assert!(!delivered[0].verified);
    }

    #[test]
    fn ndn_opt_retrieval_verifies_end_to_end() {
        let (mut net, _r0, h0, _h1, name, _) = ndn_triangle(true);
        let interest = dip_protocols::ndn_opt::interest(&name, 64).to_bytes(&[]).unwrap();
        net.send(h0, 0, interest, 0);
        net.run();
        let delivered = &net.host(h0).unwrap().delivered;
        assert_eq!(delivered.len(), 1);
        assert!(delivered[0].verified, "NDN+OPT delivery must verify");
        assert_eq!(delivered[0].payload, b"the content");
    }

    #[test]
    fn corrupted_link_fails_verification() {
        let name = Name::parse("hotnets.org");
        let router_secret = [9u8; 16];
        let session = OptSession::establish([0xaa; 16], &[1; 16], &[router_secret]);
        let mut net = Network::new(7);
        let mut r = DipRouter::new(0, router_secret);
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(1));
        r.state_mut().routes = routes.rebuild();
        let r0 = net.add_router(r);
        let h0 = net.add_host(Host::verifying_consumer(10, session.host_context()));
        let mut contents = HashMap::new();
        contents.insert(name.compact32(), vec![0x42; 64]);
        let h1 = net.add_host(Host::secure_producer(11, contents, session.clone()));
        net.connect(h0, 0, r0, 0, 1_000);
        // Producer-side link corrupts every packet.
        net.connect_with(
            h1,
            0,
            r0,
            1,
            1_000,
            10_000_000_000,
            FaultConfig { corrupt_chance: 1.0, ..FaultConfig::default() },
        );
        let interest = dip_protocols::ndn_opt::interest(&name, 64).to_bytes(&[]).unwrap();
        net.send(h0, 0, interest, 0);
        net.run();
        // Either the data was dropped at the host as an auth failure, or —
        // if the corruption hit the interest on the way in — nothing was
        // delivered verified.
        assert_eq!(net.trace().delivered(true), 0);
    }

    #[test]
    fn lint_checks_against_installed_router_registries() {
        let (net, _r0, _h0, _h1, name, session) = ndn_triangle(true);
        // The real NDN+OPT data program lints clean against the network.
        let data = dip_protocols::ndn_opt::data_compact(&session, name.compact32(), b"x", 0, 64);
        assert!(net.lint(&data).is_clean(), "{}", net.lint(&data));

        // Strip F_MAC from the router and the same program is flagged with
        // the hop index of the incapable node.
        let (mut net2, r0, ..) = ndn_triangle(true);
        net2.router_mut(r0).unwrap().registry_mut().uninstall(FnKey::Mac);
        let report = net2.lint(&data);
        assert!(report.has_code(dip_verify::DiagCode::UnsupportedAtHop), "{report}");
    }

    #[test]
    fn lint_budget_follows_the_timing_model() {
        let net = Network::new(1);
        assert_eq!(net.model.resource_budget(), dip_verify::ResourceBudget::tofino());
        let no_resubmits = TofinoModel { resubmit_ns: 0.0, ..TofinoModel::tofino() };
        assert_eq!(no_resubmits.resource_budget(), dip_verify::ResourceBudget::software());
        // With no routers, lint degrades to a single standard-registry hop.
        let repr = dip_protocols::ndn::interest(&Name::parse("/x"), 64);
        assert!(net.lint(&repr).is_clean());
    }

    #[test]
    fn per_hop_metrics_account_for_every_packet() {
        let (mut net, _r0, h0, _h1, name, _) = ndn_triangle(false);
        let interest = dip_protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
        net.send(h0, 0, interest, 0);
        net.run();
        let snap = net.metrics_snapshot();
        // The router (node 0) forwarded both the interest and the data.
        assert_eq!(
            snap.sum_where("dip_packets_total", &[("node", "0"), ("outcome", "forwarded")]),
            2
        );
        // The producer (node 2) consumed the interest (replying with
        // data); the consumer (node 1) consumed the delivery.
        assert_eq!(
            snap.sum_where("dip_packets_total", &[("node", "2"), ("outcome", "consumed")]),
            1
        );
        assert_eq!(
            snap.sum_where("dip_packets_total", &[("node", "1"), ("outcome", "consumed")]),
            1
        );
        assert_eq!(snap.get("dip_drops_total"), 0);
        // add_router wired the DipRouter's own verdict counters too.
        assert_eq!(snap.sum_where("dip_router_verdicts_total", &[("verdict", "forward")]), 2);
        // And the Prometheus rendering carries the same families.
        let report = net.metrics_report();
        assert!(report.contains("# TYPE dip_packets_total counter"), "{report}");
        assert!(report.contains("dip_node_sent_total"), "{report}");
    }

    #[test]
    fn link_faults_are_counted_per_node() {
        let name = Name::parse("/faulty");
        let mut net = Network::new(3);
        let mut r = DipRouter::new(0, [1; 16]);
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(1));
        r.state_mut().routes = routes.rebuild();
        let r0 = net.add_router(r);
        let h0 = net.add_host(Host::consumer(10));
        net.connect(h0, 0, r0, 0, 1_000);
        // Router egress port 1 drops everything on the floor.
        let h1 = net.add_host(Host::producer(11, HashMap::new()));
        net.connect_with(
            h1,
            0,
            r0,
            1,
            1_000,
            10_000_000_000,
            FaultConfig { drop_chance: 1.0, ..FaultConfig::default() },
        );
        let interest = dip_protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
        net.send(h0, 0, interest, 0);
        net.run();
        let snap = net.metrics_snapshot();
        assert_eq!(snap.sum_where("dip_link_dropped_total", &[("node", "0")]), 1);
        assert_eq!(
            snap.sum_where("dip_packets_total", &[("node", "0"), ("outcome", "forwarded")]),
            1
        );
    }

    #[test]
    fn unconnected_port_drops_silently() {
        let mut net = Network::new(1);
        let h0 = net.add_host(Host::consumer(1));
        net.send(h0, 5, vec![1, 2, 3], 0);
        assert_eq!(net.run(), 0);
    }

    #[test]
    fn time_advances_with_latency() {
        let (mut net, _, h0, _, name, _) = ndn_triangle(false);
        let interest = dip_protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
        net.send(h0, 0, interest, 0);
        let end = net.run();
        // Two link traversals each way at 1µs plus serialization + processing.
        assert!(end >= 4_000, "end time {end}");
        assert!(net.host(h0).unwrap().delivered[0].time >= 4_000);
    }

    #[test]
    fn missing_content_is_dropped_at_producer() {
        let (mut net, _, h0, h1, _, _) = ndn_triangle(false);
        let other = Name::parse("/unknown");
        // Add a route so the interest reaches the producer.
        let mut routes = RouteStore::new();
        routes.insert_name(&other, NextHop::port(1));
        net.router_mut(NodeId(0)).unwrap().state_mut().routes = routes.rebuild();
        let interest = dip_protocols::ndn::interest(&other, 64).to_bytes(&[]).unwrap();
        net.send(h0, 0, interest, 0);
        net.run();
        assert!(net.host(h0).unwrap().delivered.is_empty());
        assert_eq!(net.trace().drops_with(dip_fnops::DropReason::NoRoute), 1);
        let _ = h1;
    }
}
