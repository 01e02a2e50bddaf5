//! The per-node control-plane agent: HELLO adjacencies, LSA flooding
//! with sequence numbers and hop-count aging, and SPF-driven compilation
//! of the five-protocol [`RouteSnapshot`].
//!
//! The agent is deliberately pure: it never touches the network or the
//! clock itself. [`ControlAgent::on_control`] and [`ControlAgent::tick`]
//! take the current virtual time and return the packets to transmit plus
//! (from `tick`) an optional freshly compiled snapshot; the
//! [`ControlNode`](crate::node::ControlNode) wrapper owns publication and
//! telemetry. All internal state lives in `BTreeMap`s so behaviour is
//! identical across runs and nodes — a requirement for the simulator's
//! determinism gate.

use crate::spf::{shortest_paths, SpfRoute};
use dip_core::control::{Announcements, ControlMessage, Lsa, LsaLink, CONTROL_NEXT_HEADER};
use dip_dataplane::snapshot::RouteSnapshot;
use dip_routes::{RouteDelta, RouteStore, StoreStats};
use dip_sim::SimTime;
use dip_tables::fib::NextHop;
use dip_tables::xia_table::XiaNextHop;
use dip_tables::Port;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::ndn::Name;
use dip_wire::packet::DipRepr;
use dip_wire::xia::{Xid, XidType};
use std::collections::{BTreeMap, BTreeSet};

/// SPF outcomes whose diff against the previous compile exceeds this many
/// route changes are installed by full rebuild instead of a delta commit
/// (a rebuild walks every prefix once; a huge delta walks the same slots
/// *plus* pays per-op bookkeeping). Reconvergence events in sane
/// topologies are far below this, so the common path stays incremental.
const FULL_REBUILD_DELTA_LIMIT: usize = 4096;

/// Timer and protocol constants for one agent.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// HELLO period; [`ControlAgent::tick`] is expected to fire at this
    /// interval (`Network::schedule_control_ticks` arms it).
    pub hello_interval: SimTime,
    /// Silence on an adjacency longer than this declares the neighbor
    /// dead (conventionally a small multiple of `hello_interval`).
    pub dead_interval: SimTime,
    /// Unacknowledged LSAs retransmit after this long.
    pub retransmit_interval: SimTime,
    /// Own-LSA refresh period (anti-expiry re-origination).
    pub lsa_refresh: SimTime,
    /// LSAs whose hop-count age reaches this stop propagating.
    pub max_age: u32,
    /// Cost advertised for every adjacency (uniform-metric SPF).
    pub link_cost: u32,
    /// Hard cap on unacknowledged-LSA retransmit state *per neighbor*.
    /// On 100+-node graphs a slow or partitioned neighbor would
    /// otherwise accumulate one pending entry per origin — O(nodes) per
    /// port, O(nodes²) per agent. When a new origin would exceed the
    /// cap, the entry with the oldest `last_sent` is evicted
    /// deterministically; recovery rides the periodic LSA refresh and
    /// the Hello database sync, both of which re-offer evicted origins.
    pub retransmit_queue_limit: usize,
}

impl Default for AgentConfig {
    fn default() -> Self {
        AgentConfig {
            hello_interval: 50_000,
            dead_interval: 160_000,
            retransmit_interval: 120_000,
            lsa_refresh: 50_000_000,
            max_age: 16,
            link_cost: 1,
            retransmit_queue_limit: 64,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Neighbor {
    id: u64,
    last_hello: SimTime,
}

#[derive(Debug, Clone, Copy)]
struct Pending {
    seq: u32,
    last_sent: SimTime,
}

/// One SPF compile's desired route set, keyed for diffing against the
/// previous compile. Names keep the parsed [`Name`] alongside so a
/// withdrawal can be expressed without re-parsing.
#[derive(Debug, Default)]
struct Desired {
    v4: BTreeMap<(u32, u8), NextHop>,
    v6: BTreeMap<(u128, u8), NextHop>,
    names: BTreeMap<Vec<Vec<u8>>, (Name, NextHop)>,
    xia: BTreeMap<(u32, Xid), XiaNextHop>,
    xia_types: BTreeSet<u32>,
}

impl Desired {
    fn route_count(&self) -> usize {
        self.v4.len() + self.v6.len() + self.names.len() + self.xia.len()
    }

    /// The route changes turning `prev` into `self`.
    fn diff(&self, prev: &Desired) -> RouteDelta {
        let mut delta = RouteDelta::new();
        for (&(addr, len), &nh) in &self.v4 {
            if prev.v4.get(&(addr, len)) != Some(&nh) {
                delta.announce_v4(Ipv4Addr::from_u32(addr), len, nh);
            }
        }
        for &(addr, len) in prev.v4.keys() {
            if !self.v4.contains_key(&(addr, len)) {
                delta.withdraw_v4(Ipv4Addr::from_u32(addr), len);
            }
        }
        for (&(addr, len), &nh) in &self.v6 {
            if prev.v6.get(&(addr, len)) != Some(&nh) {
                delta.announce_v6(Ipv6Addr::from_u128(addr), len, nh);
            }
        }
        for &(addr, len) in prev.v6.keys() {
            if !self.v6.contains_key(&(addr, len)) {
                delta.withdraw_v6(Ipv6Addr::from_u128(addr), len);
            }
        }
        for (key, (name, nh)) in &self.names {
            if prev.names.get(key).map(|(_, p)| p) != Some(nh) {
                delta.announce_name(name.clone(), *nh);
            }
        }
        for (key, (name, _)) in &prev.names {
            if !self.names.contains_key(key) {
                delta.withdraw_name(name.clone());
            }
        }
        for (&(ty, xid), &nh) in &self.xia {
            if prev.xia.get(&(ty, xid)) != Some(&nh) {
                delta.announce_xia(XidType::from_wire(ty), xid, nh);
            }
        }
        for &(ty, xid) in prev.xia.keys() {
            if !self.xia.contains_key(&(ty, xid)) {
                delta.withdraw_xia(XidType::from_wire(ty), xid);
            }
        }
        delta
    }
}

/// What [`ControlAgent::on_control`] asks the node to do.
#[derive(Debug, Default)]
pub struct ControlOutput {
    /// Packets to transmit, `(port, wire bytes)`.
    pub emits: Vec<(Port, Vec<u8>)>,
    /// LSA messages among `emits` (flood-overhead accounting).
    pub floods: u64,
}

/// What one timer tick produced.
#[derive(Debug, Default)]
pub struct TickOutput {
    /// Packets to transmit, `(port, wire bytes)`.
    pub emits: Vec<(Port, Vec<u8>)>,
    /// A freshly compiled snapshot when the topology view changed.
    pub snapshot: Option<RouteSnapshot>,
    /// HELLO messages among `emits`.
    pub hellos: u64,
    /// LSA messages among `emits`.
    pub floods: u64,
    /// Virtual nanoseconds from the first unprocessed topology change to
    /// this tick's snapshot (the convergence-time observation).
    pub convergence_ns: Option<u64>,
}

/// The link-state agent for one node.
pub struct ControlAgent {
    node_id: u64,
    config: AgentConfig,
    /// Ports HELLOs go out on (all router ports; adjacencies only form
    /// where another agent answers).
    ports: Vec<Port>,
    local: Announcements,
    neighbors: BTreeMap<Port, Neighbor>,
    lsdb: BTreeMap<u64, Lsa>,
    /// LSAs sent but not yet acknowledged, keyed `(port, origin)`.
    pending: BTreeMap<(Port, u64), Pending>,
    my_seq: u32,
    dirty: bool,
    dirty_since: Option<SimTime>,
    last_originated: SimTime,
    /// Local announcements changed since the last origination: the next
    /// tick re-originates and floods.
    reannounce: bool,
    /// Compiled forwarding state, updated incrementally: each SPF run
    /// diffs its desired routes against `desired` and commits the delta
    /// (full rebuild only on the first compile or past
    /// [`FULL_REBUILD_DELTA_LIMIT`]).
    store: RouteStore,
    /// The previous compile's desired route set (diff baseline).
    desired: Desired,
}

/// Wraps a control message into a transmittable DIP packet.
pub fn control_packet(msg: &ControlMessage) -> Vec<u8> {
    DipRepr { next_header: CONTROL_NEXT_HEADER, hop_limit: 16, ..Default::default() }
        .to_bytes(&msg.encode())
        .expect("control packet construction")
}

impl ControlAgent {
    /// An agent for `node_id` speaking on `ports`.
    pub fn new(node_id: u64, ports: Vec<Port>, config: AgentConfig) -> Self {
        let mut agent = ControlAgent {
            node_id,
            config,
            ports,
            local: Announcements::default(),
            neighbors: BTreeMap::new(),
            lsdb: BTreeMap::new(),
            pending: BTreeMap::new(),
            my_seq: 0,
            dirty: false,
            dirty_since: None,
            last_originated: 0,
            reannounce: false,
            store: RouteStore::new(),
            desired: Desired::default(),
        };
        // Install the initial (link-less) own LSA so the first tick
        // publishes the node's local announcements.
        agent.originate(0);
        agent.mark_dirty(0);
        agent
    }

    /// The node id this agent speaks for.
    pub fn node_id(&self) -> u64 {
        self.node_id
    }

    /// Announces a locally attached IPv4 prefix delivered via `port`.
    pub fn announce_v4(&mut self, addr: Ipv4Addr, len: u8, port: Port) {
        self.local.v4.push((addr, len, port));
        self.announcements_changed();
    }

    /// Announces a locally attached IPv6 prefix delivered via `port`.
    pub fn announce_v6(&mut self, addr: Ipv6Addr, len: u8, port: Port) {
        self.local.v6.push((addr, len, port));
        self.announcements_changed();
    }

    /// Announces a locally served NDN name prefix delivered via `port`.
    pub fn announce_name(&mut self, name: Name, port: Port) {
        self.local.names.push((name, port));
        self.announcements_changed();
    }

    /// Announces a locally known XIA principal.
    pub fn announce_xia(&mut self, ty: XidType, xid: Xid, next_hop: XiaNextHop) {
        self.local.xia.push((ty, xid, next_hop));
        self.announcements_changed();
    }

    fn announcements_changed(&mut self) {
        self.reannounce = true;
        self.mark_dirty(self.last_originated);
    }

    /// Live adjacencies as `(port, neighbor id)`.
    pub fn neighbors(&self) -> Vec<(Port, u64)> {
        self.neighbors.iter().map(|(&p, n)| (p, n.id)).collect()
    }

    /// Number of distinct origins in the link-state database.
    pub fn lsdb_len(&self) -> usize {
        self.lsdb.len()
    }

    /// The agent's current view of the shortest paths (for inspection).
    pub fn spf(&self) -> BTreeMap<u64, SpfRoute> {
        shortest_paths(&self.lsdb, self.node_id)
    }

    fn mark_dirty(&mut self, now: SimTime) {
        self.dirty = true;
        if self.dirty_since.is_none() {
            self.dirty_since = Some(now);
        }
    }

    /// Records retransmit state for an LSA offered to `port`, enforcing
    /// [`AgentConfig::retransmit_queue_limit`] per neighbor: when a new
    /// origin would exceed the cap, the stalest entry on that port (oldest
    /// `last_sent`, ties to the smallest origin — `BTreeMap` order makes
    /// both deterministic) is evicted to make room.
    fn note_pending(&mut self, port: Port, origin: u64, seq: u32, now: SimTime) {
        let replacing = self.pending.contains_key(&(port, origin));
        if !replacing {
            let on_port = self.pending.keys().filter(|&&(p, _)| p == port).count();
            if on_port >= self.config.retransmit_queue_limit {
                let stalest = self
                    .pending
                    .iter()
                    .filter(|(&(p, _), _)| p == port)
                    .min_by_key(|(&(_, o), pend)| (pend.last_sent, o))
                    .map(|(&k, _)| k);
                if let Some(k) = stalest {
                    self.pending.remove(&k);
                }
            }
        }
        self.pending.insert((port, origin), Pending { seq, last_sent: now });
    }

    /// Total unacknowledged-LSA retransmit entries across all neighbors
    /// (the `dip_ctrl_retransmit_queue_depth` observation). Bounded by
    /// `ports × retransmit_queue_limit`.
    pub fn retransmit_queue_depth(&self) -> usize {
        self.pending.len()
    }

    /// The deepest single neighbor's retransmit queue — never exceeds
    /// [`AgentConfig::retransmit_queue_limit`].
    pub fn retransmit_queue_max_per_neighbor(&self) -> usize {
        let mut per_port: BTreeMap<Port, usize> = BTreeMap::new();
        for &(port, _) in self.pending.keys() {
            *per_port.entry(port).or_insert(0) += 1;
        }
        per_port.values().copied().max().unwrap_or(0)
    }

    /// Rebuilds and installs this node's own LSA from the live adjacency
    /// set (does not flood — callers flood the returned copy).
    fn originate(&mut self, now: SimTime) -> Lsa {
        self.my_seq += 1;
        let mut seen = Vec::new();
        let mut links = Vec::new();
        for n in self.neighbors.values() {
            if !seen.contains(&n.id) {
                seen.push(n.id);
                links.push(LsaLink { neighbor: n.id, cost: self.config.link_cost });
            }
        }
        let lsa = Lsa {
            origin: self.node_id,
            seq: self.my_seq,
            age: 0,
            links,
            announce: self.local.clone(),
        };
        self.lsdb.insert(self.node_id, lsa.clone());
        self.last_originated = now;
        lsa
    }

    /// Floods `lsa` (age bumped by one hop) to every adjacency except
    /// `except`, recording retransmission state. Returns the number of
    /// LSA messages emitted.
    fn flood(
        &mut self,
        lsa: &Lsa,
        except: Option<Port>,
        now: SimTime,
        emits: &mut Vec<(Port, Vec<u8>)>,
    ) -> u64 {
        let aged = Lsa { age: lsa.age + 1, ..lsa.clone() };
        if aged.age >= self.config.max_age {
            return 0;
        }
        let msg = control_packet(&ControlMessage::LinkStateAdvertisement(aged));
        let mut sent = 0;
        let ports: Vec<Port> = self.neighbors.keys().copied().collect();
        for port in ports {
            if Some(port) == except {
                continue;
            }
            emits.push((port, msg.clone()));
            self.note_pending(port, lsa.origin, lsa.seq, now);
            sent += 1;
        }
        sent
    }

    /// Handles one received control message. `Hello`/`LSA`/`LsaAck` are
    /// the only types routed here by the node wrapper.
    pub fn on_control(
        &mut self,
        msg: &ControlMessage,
        in_port: Port,
        now: SimTime,
    ) -> ControlOutput {
        let mut out = ControlOutput::default();
        match msg {
            ControlMessage::Hello { node_id } => {
                let known = self.neighbors.get(&in_port).map(|n| n.id);
                self.neighbors.insert(in_port, Neighbor { id: *node_id, last_hello: now });
                if known != Some(*node_id) {
                    // New adjacency (or the port changed hands): re-advertise
                    // our links, flood the update, and sync our database to
                    // the newcomer.
                    let own = self.originate(now);
                    out.floods += self.flood(&own, None, now, &mut out.emits);
                    let others: Vec<Lsa> = self
                        .lsdb
                        .values()
                        .filter(|l| l.origin != self.node_id && l.age + 1 < self.config.max_age)
                        .cloned()
                        .collect();
                    for lsa in others {
                        let aged = Lsa { age: lsa.age + 1, ..lsa };
                        out.emits.push((
                            in_port,
                            control_packet(&ControlMessage::LinkStateAdvertisement(aged)),
                        ));
                        self.note_pending(in_port, lsa.origin, lsa.seq, now);
                        out.floods += 1;
                    }
                    self.mark_dirty(now);
                }
            }
            ControlMessage::LinkStateAdvertisement(lsa) => {
                out.emits.push((
                    in_port,
                    control_packet(&ControlMessage::LsaAck { origin: lsa.origin, seq: lsa.seq }),
                ));
                if lsa.age >= self.config.max_age {
                    return out;
                }
                if lsa.origin == self.node_id {
                    // A stale incarnation of our own LSA is circulating:
                    // out-sequence it.
                    if lsa.seq >= self.my_seq {
                        self.my_seq = lsa.seq;
                        let own = self.originate(now);
                        out.floods += self.flood(&own, None, now, &mut out.emits);
                        self.mark_dirty(now);
                    }
                    return out;
                }
                let known_seq = self.lsdb.get(&lsa.origin).map(|l| l.seq);
                match known_seq {
                    Some(seq) if seq > lsa.seq => {
                        // We hold something newer: push it back so the
                        // sender catches up.
                        let newer = self.lsdb[&lsa.origin].clone();
                        let aged = Lsa { age: newer.age + 1, ..newer.clone() };
                        if aged.age < self.config.max_age {
                            out.emits.push((
                                in_port,
                                control_packet(&ControlMessage::LinkStateAdvertisement(aged)),
                            ));
                            self.note_pending(in_port, newer.origin, newer.seq, now);
                            out.floods += 1;
                        }
                    }
                    Some(seq) if seq == lsa.seq => {
                        // Duplicate: the peer evidently has it — treat as
                        // an implicit ack.
                        self.pending.remove(&(in_port, lsa.origin));
                    }
                    _ => {
                        self.lsdb.insert(lsa.origin, lsa.clone());
                        self.mark_dirty(now);
                        out.floods += self.flood(lsa, Some(in_port), now, &mut out.emits);
                    }
                }
            }
            ControlMessage::LsaAck { origin, seq } => {
                if let Some(p) = self.pending.get(&(in_port, *origin)) {
                    if p.seq <= *seq {
                        self.pending.remove(&(in_port, *origin));
                    }
                }
            }
            _ => {}
        }
        out
    }

    /// One periodic timer firing: HELLOs out, dead-interval scan,
    /// refresh, retransmissions, and — when the topology view changed —
    /// an SPF run compiled into a publishable snapshot.
    pub fn tick(&mut self, now: SimTime) -> TickOutput {
        let mut out = TickOutput::default();

        // HELLOs on every configured port (discovery and keepalive).
        let hello = control_packet(&ControlMessage::Hello { node_id: self.node_id });
        for &port in &self.ports {
            out.emits.push((port, hello.clone()));
            out.hellos += 1;
        }

        // Dead-interval scan.
        let dead: Vec<Port> = self
            .neighbors
            .iter()
            .filter(|(_, n)| now.saturating_sub(n.last_hello) > self.config.dead_interval)
            .map(|(&p, _)| p)
            .collect();
        if !dead.is_empty() {
            for port in dead {
                self.neighbors.remove(&port);
                self.pending.retain(|&(p, _), _| p != port);
            }
            let own = self.originate(now);
            out.floods += self.flood(&own, None, now, &mut out.emits);
            self.mark_dirty(now);
        }

        // Announcement changes and periodic refresh both re-originate.
        if self.reannounce || now.saturating_sub(self.last_originated) >= self.config.lsa_refresh {
            self.reannounce = false;
            let own = self.originate(now);
            out.floods += self.flood(&own, None, now, &mut out.emits);
        }

        // Retransmit unacknowledged LSAs.
        let due: Vec<(Port, u64)> = self
            .pending
            .iter()
            .filter(|(_, p)| now.saturating_sub(p.last_sent) >= self.config.retransmit_interval)
            .map(|(&k, _)| k)
            .collect();
        for (port, origin) in due {
            if !self.neighbors.contains_key(&port) {
                self.pending.remove(&(port, origin));
                continue;
            }
            match self.lsdb.get(&origin) {
                Some(lsa) if lsa.age + 1 < self.config.max_age => {
                    let aged = Lsa { age: lsa.age + 1, ..lsa.clone() };
                    let seq = lsa.seq;
                    out.emits.push((
                        port,
                        control_packet(&ControlMessage::LinkStateAdvertisement(aged)),
                    ));
                    self.note_pending(port, origin, seq, now);
                    out.floods += 1;
                }
                _ => {
                    self.pending.remove(&(port, origin));
                }
            }
        }

        // SPF + snapshot compilation when the view changed.
        if self.dirty {
            let routes = shortest_paths(&self.lsdb, self.node_id);
            out.snapshot = Some(self.compile(&routes));
            out.convergence_ns = self.dirty_since.map(|t| now.saturating_sub(t));
            self.dirty = false;
            self.dirty_since = None;
        }
        out
    }

    /// Compiles SPF results plus per-origin announcements into the
    /// desired five-protocol route set, installs it into the compiled
    /// store (delta commit on the common path, full rebuild on the first
    /// compile or oversized diffs), and wraps the resulting tables into
    /// a tables-only snapshot whose publication cost is a few `Arc`
    /// bumps regardless of table size.
    fn compile(&mut self, routes: &BTreeMap<u64, SpfRoute>) -> RouteSnapshot {
        // First-hop node id → egress port (smallest port wins when
        // parallel links exist; BTreeMap order makes this deterministic).
        let mut toward: BTreeMap<u64, Port> = BTreeMap::new();
        for (&port, n) in &self.neighbors {
            toward.entry(n.id).or_insert(port);
        }

        let mut want = Desired::default();
        for (origin, lsa) in &self.lsdb {
            let egress: Option<Port> = if *origin == self.node_id {
                None // local announcements carry their own port
            } else {
                match routes.get(origin).and_then(|r| toward.get(&r.first_hop)) {
                    Some(&p) => Some(p),
                    None => continue, // unreachable origin
                }
            };
            let a = &lsa.announce;
            for &(addr, len, port) in &a.v4 {
                want.v4.insert((addr.to_u32(), len), NextHop::port(egress.unwrap_or(port)));
            }
            for &(addr, len, port) in &a.v6 {
                want.v6.insert((addr.to_u128(), len), NextHop::port(egress.unwrap_or(port)));
            }
            for (name, port) in &a.names {
                want.names.insert(
                    name.components().to_vec(),
                    (name.clone(), NextHop::port(egress.unwrap_or(*port))),
                );
            }
            for &(ty, xid, nh) in &a.xia {
                want.xia_types.insert(ty.to_wire());
                let nh = match egress {
                    // Remote principals route toward the origin.
                    Some(p) => XiaNextHop::Port(p),
                    None => nh,
                };
                want.xia.insert((ty.to_wire(), xid), nh);
            }
        }

        let delta = want.diff(&self.desired);
        let tables = if self.store.route_count() == 0 || delta.len() > FULL_REBUILD_DELTA_LIMIT {
            // First compile, or a diff so large the incremental path
            // would cost more than compiling from scratch.
            self.store.clear();
            for (&(addr, len), &nh) in &want.v4 {
                self.store.insert_v4(Ipv4Addr::from_u32(addr), len, nh);
            }
            for (&(addr, len), &nh) in &want.v6 {
                self.store.insert_v6(Ipv6Addr::from_u128(addr), len, nh);
            }
            for (name, nh) in want.names.values() {
                self.store.insert_name(name, *nh);
            }
            for &ty in &want.xia_types {
                self.store.declare_xia_type(XidType::from_wire(ty));
            }
            for (&(ty, xid), &nh) in &want.xia {
                self.store.insert_xia(XidType::from_wire(ty), xid, nh);
            }
            self.store.rebuild()
        } else {
            for &ty in want.xia_types.difference(&self.desired.xia_types) {
                self.store.declare_xia_type(XidType::from_wire(ty));
            }
            self.store.commit(&delta)
        };
        self.desired = want;
        RouteSnapshot::from_tables(tables)
    }

    /// Delta/rebuild/swap counters of the compiled route store.
    pub fn route_stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Number of routes currently compiled.
    pub fn route_count(&self) -> usize {
        self.desired.route_count()
    }

    /// Exports the compiled store's `dip_routes_*` metrics into
    /// `registry` (call once, from the owning node's metric attach).
    pub fn attach_route_metrics(
        &mut self,
        registry: &dip_telemetry::Registry,
        labels: &[(&str, &str)],
    ) {
        self.store.attach_metrics(registry, labels);
    }

    /// Records that a compiled snapshot was picked up by the dataplane
    /// (`dip_routes_epoch_swaps_total`).
    pub fn note_epoch_swap(&mut self) {
        self.store.note_epoch_swap();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hello_from(id: u64) -> ControlMessage {
        ControlMessage::Hello { node_id: id }
    }

    /// Drives `a` and `b` to full adjacency over one virtual link
    /// (a.port_a ↔ b.port_b) by exchanging all control traffic.
    fn converge_pair(
        a: &mut ControlAgent,
        b: &mut ControlAgent,
        port_a: Port,
        port_b: Port,
        now: SimTime,
    ) {
        let mut inflight: Vec<(bool, Vec<u8>)> = Vec::new(); // (to_b, bytes)
        let ta = a.tick(now);
        for (p, bytes) in ta.emits {
            if p == port_a {
                inflight.push((true, bytes));
            }
        }
        let tb = b.tick(now);
        for (p, bytes) in tb.emits {
            if p == port_b {
                inflight.push((false, bytes));
            }
        }
        let mut guard = 0;
        while let Some((to_b, bytes)) = inflight.pop() {
            guard += 1;
            assert!(guard < 1000, "control exchange does not converge");
            let pkt = dip_wire::DipPacket::new_checked(&bytes[..]).unwrap();
            let msg = ControlMessage::decode(pkt.payload()).unwrap();
            let out = if to_b {
                b.on_control(&msg, port_b, now)
            } else {
                a.on_control(&msg, port_a, now)
            };
            for (p, reply) in out.emits {
                if to_b && p == port_b {
                    inflight.push((false, reply));
                } else if !to_b && p == port_a {
                    inflight.push((true, reply));
                }
            }
        }
    }

    #[test]
    fn adjacency_forms_and_databases_sync() {
        let mut a = ControlAgent::new(1, vec![0], AgentConfig::default());
        let mut b = ControlAgent::new(2, vec![0], AgentConfig::default());
        b.announce_v4(Ipv4Addr::new(10, 0, 0, 0), 8, 1);
        converge_pair(&mut a, &mut b, 0, 0, 1);
        assert_eq!(a.neighbors(), vec![(0, 2)]);
        assert_eq!(b.neighbors(), vec![(0, 1)]);
        assert_eq!(a.lsdb_len(), 2);
        assert_eq!(b.lsdb_len(), 2);

        // a's next tick compiles a snapshot routing 10/8 toward b.
        let tick = a.tick(100_000);
        let snap = tick.snapshot.expect("dirty after adjacency change");
        assert_eq!(
            snap.tables.lookup_v4(Ipv4Addr::new(10, 9, 9, 9)),
            Some(NextHop::port(0)),
            "remote prefix routes out the adjacency port"
        );
    }

    #[test]
    fn local_announcements_use_their_own_port() {
        let mut a = ControlAgent::new(1, vec![0, 1], AgentConfig::default());
        a.announce_v4(Ipv4Addr::new(192, 168, 0, 0), 16, 7);
        let tick = a.tick(1);
        let snap = tick.snapshot.expect("initially dirty");
        assert_eq!(snap.tables.lookup_v4(Ipv4Addr::new(192, 168, 1, 1)), Some(NextHop::port(7)));
    }

    #[test]
    fn reconvergence_commits_deltas_not_rebuilds() {
        let mut a = ControlAgent::new(1, vec![0], AgentConfig::default());
        a.announce_v4(Ipv4Addr::new(192, 168, 0, 0), 16, 7);
        let first = a.tick(1);
        assert!(first.snapshot.is_some());
        assert_eq!(a.route_stats().full_rebuilds, 1, "first compile builds from scratch");

        // Every later announcement-driven recompile is an incremental
        // commit: the changed-prefix set is tiny.
        for i in 0..5u8 {
            a.announce_v4(Ipv4Addr::new(172, 16 + i, 0, 0), 16, 2);
            let tick = a.tick(50_000 * (u64::from(i) + 1) + 1);
            let snap = tick.snapshot.expect("announcement dirties the view");
            assert_eq!(
                snap.tables.lookup_v4(Ipv4Addr::new(172, 16 + i, 1, 1)),
                Some(NextHop::port(2))
            );
        }
        let stats = a.route_stats();
        assert_eq!(stats.full_rebuilds, 1, "no recompile fell back to a rebuild");
        assert_eq!(stats.deltas_applied, 5);
        assert_eq!(a.route_count(), 6);
    }

    #[test]
    fn dead_interval_tears_down_the_adjacency() {
        let cfg = AgentConfig::default();
        let dead_after = cfg.dead_interval;
        let mut a = ControlAgent::new(1, vec![0], cfg);
        let out = a.on_control(&hello_from(2), 0, 1_000);
        assert!(!out.emits.is_empty(), "new adjacency floods");
        assert_eq!(a.neighbors().len(), 1);

        // Silence past the dead interval: the next tick removes it and
        // re-originates.
        let tick = a.tick(1_000 + dead_after + 1);
        assert!(a.neighbors().is_empty());
        assert!(tick.snapshot.is_some(), "topology change recompiles");
        assert!(tick.convergence_ns.is_some());
    }

    #[test]
    fn older_lsa_is_answered_with_the_newer_copy() {
        let mut a = ControlAgent::new(1, vec![0], AgentConfig::default());
        a.on_control(&hello_from(2), 0, 1);
        let newer =
            Lsa { origin: 5, seq: 9, age: 0, links: vec![], announce: Announcements::default() };
        a.on_control(&ControlMessage::LinkStateAdvertisement(newer.clone()), 0, 2);
        let older = Lsa { seq: 3, ..newer };
        let out = a.on_control(&ControlMessage::LinkStateAdvertisement(older), 0, 3);
        // First emit is the ack, second pushes back seq 9.
        let replies: Vec<ControlMessage> = out
            .emits
            .iter()
            .map(|(_, b)| {
                ControlMessage::decode(dip_wire::DipPacket::new_checked(&b[..]).unwrap().payload())
                    .unwrap()
            })
            .collect();
        assert!(replies.iter().any(|m| matches!(m, ControlMessage::LsaAck { origin: 5, seq: 3 })));
        assert!(replies
            .iter()
            .any(|m| matches!(m, ControlMessage::LinkStateAdvertisement(l) if l.seq == 9)));
    }

    #[test]
    fn unacked_lsas_retransmit_until_acked() {
        let cfg = AgentConfig::default();
        let retransmit = cfg.retransmit_interval;
        let mut a = ControlAgent::new(1, vec![0], cfg);
        a.on_control(&hello_from(2), 0, 1);
        // The adjacency flood left a pending entry; a tick past the
        // retransmission interval re-sends the own LSA.
        let tick = a.tick(retransmit + 10);
        assert!(tick.floods >= 1, "retransmission fired");
        // Ack it: no further retransmissions.
        a.on_control(&ControlMessage::LsaAck { origin: 1, seq: 2 }, 0, retransmit + 20);
        // Keep the hello fresh so the dead scan doesn't re-originate.
        a.on_control(&hello_from(2), 0, 2 * retransmit);
        let tick = a.tick(2 * retransmit + 20);
        assert_eq!(tick.floods, 0, "acked LSA stays quiet");
    }

    #[test]
    fn retransmit_queue_is_bounded_per_neighbor() {
        // Port 1's neighbor never acks: flood far more origins through
        // than the cap and check the pending state saturates instead of
        // growing O(origins).
        let cfg = AgentConfig { retransmit_queue_limit: 8, ..AgentConfig::default() };
        let mut a = ControlAgent::new(1, vec![0, 1], cfg);
        a.on_control(&hello_from(2), 0, 1);
        a.on_control(&hello_from(3), 1, 1);
        for origin in 10..200u64 {
            let lsa =
                Lsa { origin, seq: 1, age: 0, links: vec![], announce: Announcements::default() };
            // Arrives on port 0, floods out port 1, recording pending
            // retransmit state toward the silent neighbor there.
            a.on_control(&ControlMessage::LinkStateAdvertisement(lsa), 0, 2);
        }
        assert!(a.lsdb_len() > 100, "LSAs themselves are all installed");
        assert_eq!(a.retransmit_queue_max_per_neighbor(), 8, "pending state saturates at the cap");
        assert!(
            a.retransmit_queue_depth() <= 2 * 8,
            "total depth bounded by ports x cap, got {}",
            a.retransmit_queue_depth()
        );
        // An ack for an evicted origin is harmless; one for a retained
        // origin (the latest insert survives eviction) shrinks the queue.
        let before = a.retransmit_queue_depth();
        a.on_control(&ControlMessage::LsaAck { origin: 199, seq: 1 }, 1, 3);
        assert_eq!(a.retransmit_queue_depth(), before - 1);
    }

    #[test]
    fn max_age_stops_propagation() {
        let cfg = AgentConfig { max_age: 2, ..AgentConfig::default() };
        let mut a = ControlAgent::new(1, vec![0, 1], cfg);
        a.on_control(&hello_from(2), 0, 1);
        a.on_control(&hello_from(3), 1, 1);
        let tired =
            Lsa { origin: 9, seq: 1, age: 1, links: vec![], announce: Announcements::default() };
        let out = a.on_control(&ControlMessage::LinkStateAdvertisement(tired), 0, 2);
        // Installed (age 1 < 2) but the re-flood would be age 2 == max:
        // only the ack goes out.
        assert_eq!(out.floods, 0);
        assert_eq!(out.emits.len(), 1);
    }
}
