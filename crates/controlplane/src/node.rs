//! [`ControlNode`]: a router node with a control plane bolted on.
//!
//! Wraps any dataplane implementation that can install a
//! [`RouteSnapshot`] (the classic [`DipRouter`], the sharded
//! [`DataplaneRouter`]) together with a [`ControlAgent`]. Control packets
//! (`Hello` / LSA / ack under [`CONTROL_NEXT_HEADER`]) are intercepted
//! and consumed before the wrapped dataplane sees them; everything else
//! passes straight through. Snapshots the agent compiles are published
//! atomically through an [`EpochCell`] — the same cell can be mirrored
//! into a threaded [`Dataplane`](dip_dataplane::runtime::Dataplane) so
//! its workers pick the routes up at their next batch boundary.

use crate::agent::{ControlAgent, TickOutput};
use dip_core::control::{ControlMessage, CONTROL_NEXT_HEADER};
use dip_core::{DipRouter, ProcessStats, Verdict};
use dip_dataplane::router::DataplaneRouter;
use dip_dataplane::snapshot::{EpochCell, EpochReader, RouteSnapshot};
use dip_fnops::context::MacChoice;
use dip_fnops::{DropReason, FnRegistry};
use dip_sim::engine::RouterNode;
use dip_sim::SimTime;
use dip_telemetry::{Counter, Gauge, Histogram, Registry};
use dip_wire::DipPacket;
use std::sync::Arc;

/// A dataplane that can atomically adopt a published route snapshot.
pub trait SnapshotTarget: RouterNode {
    /// Replaces the route tables with `snapshot` (flow state preserved,
    /// as [`RouteSnapshot::apply`] specifies).
    fn install(&mut self, snapshot: &RouteSnapshot);
}

impl SnapshotTarget for DipRouter {
    fn install(&mut self, snapshot: &RouteSnapshot) {
        snapshot.apply(self.state_mut());
    }
}

impl SnapshotTarget for DataplaneRouter {
    fn install(&mut self, snapshot: &RouteSnapshot) {
        for i in 0..self.shards() {
            snapshot.apply(self.shard_router_mut(i).state_mut());
        }
    }
}

/// Convergence-time histogram bounds (virtual ns).
const CONVERGENCE_BOUNDS: [u64; 7] =
    [50_000, 100_000, 200_000, 400_000, 800_000, 1_600_000, 3_200_000];

struct Metrics {
    hellos: Arc<Counter>,
    floods: Arc<Counter>,
    spf_runs: Arc<Counter>,
    epoch: Arc<Gauge>,
    convergence: Arc<Histogram>,
    retransmit_depth: Arc<Gauge>,
}

/// A router node running both a dataplane and a control-plane agent.
pub struct ControlNode<R: SnapshotTarget> {
    inner: R,
    agent: ControlAgent,
    routes: Arc<EpochCell<RouteSnapshot>>,
    reader: EpochReader<RouteSnapshot>,
    /// Extra cells the same snapshots are published into (e.g. a
    /// threaded [`Dataplane`](dip_dataplane::runtime::Dataplane)'s cell).
    mirrors: Vec<Arc<EpochCell<RouteSnapshot>>>,
    outbox: Vec<(u32, Vec<u8>)>,
    metrics: Option<Metrics>,
}

impl<R: SnapshotTarget + 'static> ControlNode<R> {
    /// Couples `inner` with `agent`.
    pub fn new(inner: R, agent: ControlAgent) -> Self {
        let routes = Arc::new(EpochCell::new(RouteSnapshot::default()));
        let reader = routes.reader();
        ControlNode {
            inner,
            agent,
            routes,
            reader,
            mirrors: Vec::new(),
            outbox: Vec::new(),
            metrics: None,
        }
    }

    /// The cell this node publishes route snapshots into.
    pub fn routes(&self) -> Arc<EpochCell<RouteSnapshot>> {
        Arc::clone(&self.routes)
    }

    /// Also publish every snapshot into `cell` (e.g. the cell a threaded
    /// dataplane's workers read — see
    /// [`Dataplane::routes_cell`](dip_dataplane::runtime::Dataplane::routes_cell)).
    pub fn mirror_into(&mut self, cell: Arc<EpochCell<RouteSnapshot>>) {
        self.mirrors.push(cell);
    }

    /// The control agent (announcements, adjacency inspection).
    pub fn agent(&self) -> &ControlAgent {
        &self.agent
    }

    /// Mutable agent access (to add announcements after construction).
    pub fn agent_mut(&mut self) -> &mut ControlAgent {
        &mut self.agent
    }

    /// The wrapped dataplane.
    pub fn inner(&self) -> &R {
        &self.inner
    }

    /// Mutable access to the wrapped dataplane.
    pub fn inner_mut(&mut self) -> &mut R {
        &mut self.inner
    }

    /// Pulls the latest published snapshot into the wrapped dataplane
    /// (one atomic load on the fast path).
    fn sync_routes(&mut self) {
        if self.reader.refresh() {
            self.inner.install(self.reader.get());
        }
    }

    fn publish(&mut self, tick: &mut TickOutput) {
        let Some(snapshot) = tick.snapshot.take() else { return };
        for mirror in &self.mirrors {
            mirror.publish(snapshot.clone());
        }
        self.routes.publish(snapshot);
        self.agent.note_epoch_swap();
        self.sync_routes();
        if let Some(m) = &self.metrics {
            m.spf_runs.inc();
            m.epoch.set(self.routes.epoch() as i64);
            if let Some(ns) = tick.convergence_ns {
                m.convergence.observe(ns);
            }
        }
    }
}

impl<R: SnapshotTarget + 'static> RouterNode for ControlNode<R> {
    fn process_packet(
        &mut self,
        buf: &mut [u8],
        in_port: u32,
        now: SimTime,
    ) -> (Verdict, ProcessStats) {
        self.sync_routes();
        let is_control = DipPacket::new_checked(&buf[..])
            .ok()
            .and_then(|p| p.basic_header().ok())
            .is_some_and(|h| h.next_header == CONTROL_NEXT_HEADER);
        if is_control {
            let pkt = DipPacket::new_unchecked(&buf[..]);
            return match ControlMessage::decode(pkt.payload()) {
                Ok(
                    msg @ (ControlMessage::Hello { .. }
                    | ControlMessage::LinkStateAdvertisement(_)
                    | ControlMessage::LsaAck { .. }),
                ) => {
                    let out = self.agent.on_control(&msg, in_port, now);
                    if let Some(m) = &self.metrics {
                        m.floods.add(out.floods);
                    }
                    self.outbox.extend(out.emits);
                    (Verdict::Consumed, ProcessStats::default())
                }
                // Notification types (FnUnsupported, …) are host-bound:
                // let the wrapped dataplane forward them.
                Ok(_) => self.inner.process_packet(buf, in_port, now),
                // A mangled control payload is a counted drop, never a
                // panic — the adversarial-input suite pins this.
                Err(_) => (Verdict::Drop(DropReason::MalformedField), ProcessStats::default()),
            };
        }
        self.inner.process_packet(buf, in_port, now)
    }

    fn mac_choice(&self) -> MacChoice {
        self.inner.mac_choice()
    }

    fn registry(&self) -> &FnRegistry {
        self.inner.registry()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn attach_metrics(&mut self, registry: &Registry, node: usize) {
        self.inner.attach_metrics(registry, node);
        let n = node.to_string();
        let labels = [("node", n.as_str())];
        self.agent.attach_route_metrics(registry, &labels);
        self.metrics = Some(Metrics {
            hellos: registry.counter("dip_ctrl_hello_total", "HELLO messages sent", &labels),
            floods: registry.counter(
                "dip_ctrl_lsa_flood_total",
                "LSA messages sent (floods, syncs, retransmissions)",
                &labels,
            ),
            spf_runs: registry.counter(
                "dip_ctrl_spf_runs_total",
                "SPF recomputations published",
                &labels,
            ),
            epoch: registry.gauge(
                "dip_ctrl_route_epoch",
                "Epoch of the currently published route snapshot",
                &labels,
            ),
            convergence: registry.histogram(
                "dip_ctrl_convergence_ns",
                "Topology change to snapshot publication (virtual ns)",
                &labels,
                &CONVERGENCE_BOUNDS,
            ),
            retransmit_depth: registry.gauge(
                "dip_ctrl_retransmit_queue_depth",
                "Unacknowledged-LSA retransmit entries across all neighbors",
                &labels,
            ),
        });
    }

    fn control_tick(&mut self, now: SimTime) -> Vec<(u32, Vec<u8>)> {
        let mut tick = self.agent.tick(now);
        if let Some(m) = &self.metrics {
            m.hellos.add(tick.hellos);
            m.floods.add(tick.floods);
            m.retransmit_depth.set(self.agent.retransmit_queue_depth() as i64);
        }
        self.publish(&mut tick);
        let mut emits = std::mem::take(&mut self.outbox);
        emits.append(&mut tick.emits);
        emits
    }

    fn drain_control(&mut self) -> Vec<(u32, Vec<u8>)> {
        std::mem::take(&mut self.outbox)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::{control_packet, AgentConfig};
    use dip_tables::fib::NextHop;
    use dip_wire::ipv4::Ipv4Addr;

    fn node(id: u64, ports: Vec<u32>) -> ControlNode<DipRouter> {
        ControlNode::new(
            DipRouter::new(id, [id as u8; 16]),
            ControlAgent::new(id, ports, AgentConfig::default()),
        )
    }

    #[test]
    fn malformed_control_payload_is_a_counted_drop() {
        let mut n = node(1, vec![0]);
        let mut bytes = control_packet(&ControlMessage::Hello { node_id: 2 });
        let len = bytes.len();
        bytes.truncate(len - 4); // cut into the payload
        let (verdict, _) = n.process_packet(&mut bytes, 0, 0);
        assert_eq!(verdict, Verdict::Drop(DropReason::MalformedField));
    }

    #[test]
    fn hello_is_consumed_and_answered_from_the_outbox() {
        let mut n = node(1, vec![0]);
        let mut bytes = control_packet(&ControlMessage::Hello { node_id: 2 });
        let (verdict, _) = n.process_packet(&mut bytes, 0, 0);
        assert_eq!(verdict, Verdict::Consumed);
        assert!(!n.drain_control().is_empty(), "adjacency change floods our LSA");
        assert!(n.drain_control().is_empty(), "outbox drains once");
    }

    #[test]
    fn tick_publishes_into_mirrors_and_installs_into_inner() {
        let mut n = node(1, vec![0]);
        n.agent_mut().announce_v4(Ipv4Addr::new(10, 0, 0, 0), 8, 3);
        let mirror = Arc::new(EpochCell::new(RouteSnapshot::default()));
        n.mirror_into(Arc::clone(&mirror));
        let emits = n.control_tick(50_000);
        assert!(!emits.is_empty(), "hellos go out");
        assert_eq!(
            n.inner().state().lookup_v4(Ipv4Addr::new(10, 1, 1, 1)),
            Some(NextHop::port(3)),
            "snapshot installed into the wrapped router"
        );
        assert_eq!(mirror.epoch(), 1, "mirror cell published");
        assert!(mirror.reader().get().tables.lookup_v4(Ipv4Addr::new(10, 1, 1, 1)).is_some());
    }

    #[test]
    fn non_control_traffic_passes_through() {
        let mut n = node(1, vec![0]);
        n.agent_mut().announce_v4(Ipv4Addr::new(10, 0, 0, 0), 8, 2);
        n.control_tick(1); // install the snapshot
        let repr = dip_protocols::ip::dip32_packet(
            Ipv4Addr::new(10, 0, 0, 7),
            Ipv4Addr::new(1, 1, 1, 1),
            64,
        );
        let mut bytes = repr.to_bytes(b"x").unwrap();
        let (verdict, _) = n.process_packet(&mut bytes, 0, 0);
        assert_eq!(verdict, Verdict::Forward(vec![2]));
    }
}
