//! [`ControlNode`]: a [`DipRouter`] with a control plane bolted on.
//!
//! Couples one router with a [`ControlAgent`]. Control packets (`Hello` /
//! LSA / ack under [`CONTROL_NEXT_HEADER`]) are intercepted and consumed
//! before the router sees them; everything else passes straight through.
//! Each snapshot the agent compiles is applied to the router at once
//! ([`RouteSnapshot::apply`](dip_dataplane::snapshot::RouteSnapshot::apply):
//! tables replaced, flow state kept), and `dip_ctrl_route_epoch` counts
//! the publications. A threaded
//! [`Dataplane`](dip_dataplane::runtime::Dataplane) takes the same
//! snapshots through its own `publish_routes`.

use crate::agent::{ControlAgent, TickOutput};
use dip_core::control::{ControlMessage, CONTROL_NEXT_HEADER};
use dip_core::{DipRouter, ProcessStats, Verdict};
use dip_fnops::context::MacChoice;
use dip_fnops::{DropReason, FnRegistry};
use dip_sim::engine::RouterNode;
use dip_sim::SimTime;
use dip_telemetry::{Counter, Gauge, Histogram, Registry};
use dip_wire::DipPacket;
use std::sync::Arc;

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

/// A router running both the dataplane and a control-plane agent.
pub struct ControlNode {
    inner: DipRouter,
    agent: ControlAgent,
    /// Snapshots published so far (`dip_ctrl_route_epoch`).
    epoch: u64,
    outbox: Vec<(u32, Vec<u8>)>,
    metrics: Option<Metrics>,
}

impl ControlNode {
    /// Couples `inner` with `agent`.
    pub fn new(inner: DipRouter, agent: ControlAgent) -> Self {
        ControlNode { inner, agent, epoch: 0, outbox: Vec::new(), metrics: None }
    }

    /// The control agent (announcements, adjacency inspection).
    pub fn agent(&self) -> &ControlAgent {
        &self.agent
    }

    /// Mutable agent access (to add announcements after construction).
    pub fn agent_mut(&mut self) -> &mut ControlAgent {
        &mut self.agent
    }

    /// The wrapped router.
    pub fn inner(&self) -> &DipRouter {
        &self.inner
    }

    /// Mutable access to the wrapped router.
    pub fn inner_mut(&mut self) -> &mut DipRouter {
        &mut self.inner
    }

    fn publish(&mut self, tick: &mut TickOutput) {
        let Some(snapshot) = tick.snapshot.take() else { return };
        snapshot.apply(self.inner.state_mut());
        self.epoch += 1;
        self.agent.note_epoch_swap();
        if let Some(m) = &self.metrics {
            m.spf_runs.inc();
            m.epoch.set(self.epoch as i64);
            if let Some(ns) = tick.convergence_ns {
                m.convergence.observe(ns);
            }
        }
    }
}

impl RouterNode for ControlNode {
    fn process_packet(
        &mut self,
        buf: &mut [u8],
        in_port: u32,
        now: SimTime,
    ) -> (Verdict, ProcessStats) {
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
                // let the wrapped router forward them.
                Ok(_) => self.inner.process(buf, in_port, now),
                // A mangled control payload is a counted drop, never a
                // panic — the adversarial-input suite pins this.
                Err(_) => (Verdict::Drop(DropReason::MalformedField), ProcessStats::default()),
            };
        }
        self.inner.process(buf, in_port, now)
    }

    fn mac_choice(&self) -> MacChoice {
        self.inner.state().mac_choice
    }

    fn registry(&self) -> &FnRegistry {
        self.inner.registry()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn attach_metrics(&mut self, registry: &Registry, node: usize) {
        let n = node.to_string();
        let labels = [("node", n.as_str())];
        self.inner.attach_metrics(registry, &labels);
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
    use dip_tables::Ports;
    use dip_wire::ipv4::Ipv4Addr;

    fn node(id: u64, ports: Vec<u32>) -> ControlNode {
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
    fn tick_installs_into_the_router_and_counts_epochs() {
        let registry = Registry::new();
        let mut n = node(1, vec![0]);
        n.attach_metrics(&registry, 0);
        n.agent_mut().announce_v4(Ipv4Addr::new(10, 0, 0, 0), 8, 3);
        let emits = n.control_tick(50_000);
        assert!(!emits.is_empty(), "hellos go out");
        assert_eq!(
            n.inner().state().lookup_v4(Ipv4Addr::new(10, 1, 1, 1)),
            Some(NextHop::port(3)),
            "snapshot installed into the wrapped router"
        );
        assert_eq!(registry.snapshot().get("dip_ctrl_route_epoch"), 1);
        n.agent_mut().announce_v4(Ipv4Addr::new(11, 0, 0, 0), 8, 4);
        n.control_tick(100_000);
        assert_eq!(n.inner().state().lookup_v4(Ipv4Addr::new(11, 1, 1, 1)), Some(NextHop::port(4)));
        assert_eq!(registry.snapshot().get("dip_ctrl_route_epoch"), 2, "one epoch per publish");
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
        assert_eq!(verdict, Verdict::Forward(Ports::one(2)));
    }
}
