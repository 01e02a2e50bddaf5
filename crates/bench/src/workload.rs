//! Figure-2 workload construction: per-protocol packet streams and
//! pre-seeded routers.
//!
//! Each workload yields an unbounded stream of `(prepare, process)` pairs:
//! [`Workload::next_packet`] is the *untimed* setup (build the packet,
//! install the PIT entry a data packet will consume, advance virtual time)
//! and [`Workload::process`] is the *timed* forwarding step — exactly the
//! separation a hardware traffic generator gives the paper's testbed.

use dip_core::{DipRouter, ProcessStats, Verdict};
use dip_fnops::context::MacChoice;
use dip_fnops::{OpCost, RouteStore, RouteTables};
use dip_protocols::opt::OptSession;
use dip_protocols::{ip, ndn, ndn_opt};
use dip_tables::fib::NextHop;
use dip_tables::Ticks;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::ndn::Name;

/// The packet sizes of Figure 2.
pub const FIG2_SIZES: [usize; 3] = [128, 768, 1500];

/// "We carried out 1000 forwarding tests for each size of the packet."
pub const RUNS_PER_POINT: usize = 1000;

/// The protocols of Figure 2 (baselines first).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Protocol {
    /// Native IPv4 forwarding (baseline).
    Ipv4Native,
    /// Native IPv6 forwarding (baseline).
    Ipv6Native,
    /// IPv4 semantics over DIP (26-byte header).
    Dip32,
    /// IPv6 semantics over DIP (50-byte header).
    Dip128,
    /// NDN interest forwarding over DIP (16-byte header).
    Ndn,
    /// OPT source/path authentication over DIP (98-byte header).
    Opt,
    /// NDN+OPT secure content delivery (108-byte data header).
    NdnOpt,
}

impl Protocol {
    /// All Figure-2 series in display order.
    pub const ALL: [Protocol; 7] = [
        Protocol::Ipv4Native,
        Protocol::Ipv6Native,
        Protocol::Dip32,
        Protocol::Dip128,
        Protocol::Ndn,
        Protocol::Opt,
        Protocol::NdnOpt,
    ];

    /// Display label matching the paper's series names.
    pub fn label(self) -> &'static str {
        match self {
            Protocol::Ipv4Native => "IPv4 (native)",
            Protocol::Ipv6Native => "IPv6 (native)",
            Protocol::Dip32 => "DIP-32",
            Protocol::Dip128 => "DIP-128",
            Protocol::Ndn => "NDN",
            Protocol::Opt => "OPT",
            Protocol::NdnOpt => "NDN+OPT",
        }
    }

    /// Whether this series runs the DIP pipeline (vs. the native baseline).
    pub fn is_dip(self) -> bool {
        !matches!(self, Protocol::Ipv4Native | Protocol::Ipv6Native)
    }
}

/// Synthetic pipeline stats for a native IP hop (one lookup + TTL rewrite),
/// used to put the baselines on the same Tofino-model axis.
pub fn native_stats() -> ProcessStats {
    ProcessStats {
        fns_executed: 1,
        skipped_host: 0,
        skipped_unsupported: 0,
        cost: OpCost::lookup(1, 1),
        plan_depth: 1,
    }
}

enum Engine {
    Dip(Box<DipRouter>),
    V4(RouteTables),
    V6(RouteTables),
}

/// A ready-to-run Figure-2 measurement series.
pub struct Workload {
    /// The protocol under test.
    pub protocol: Protocol,
    /// Total packet size on the wire.
    pub size: usize,
    engine: Engine,
    template: Vec<u8>,
    session: Option<OptSession>,
    name: Name,
    counter: u64,
    now: Ticks,
}

const ROUTER_SECRET: [u8; 16] = [0x42; 16];

impl Workload {
    /// Builds the workload for `protocol` at wire size `size`.
    pub fn new(protocol: Protocol, size: usize) -> Workload {
        let name = Name::parse("hotnets.org");
        let dst4 = Ipv4Addr::new(10, 1, 2, 3);
        let src4 = Ipv4Addr::new(192, 168, 0, 1);
        let dst6 = Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 9]);
        let src6 = Ipv6Addr::new([0xfd00, 0, 0, 0, 0, 0, 0, 1]);
        let session = OptSession::establish([0x5a; 16], &[7; 16], &[ROUTER_SECRET]);

        // One table for every series: the native baselines look up in the
        // same compiled LPM the DIP router does.
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        routes.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(1));
        routes.insert_name(&name, NextHop::port(1));
        let tables = routes.rebuild();

        let mut router = DipRouter::new(1, ROUTER_SECRET);
        router.config_mut().default_port = Some(1);
        router.state_mut().routes = tables.clone();
        // Short-TTL PIT: each benchmark round sees a fresh (expired) slot,
        // so every interest measures the full insert + FIB path.
        router.state_mut().pit = dip_tables::Pit::new(1 << 20, 1);

        let (engine, template) = match protocol {
            Protocol::Ipv4Native => {
                (Engine::V4(tables), crate::native::ipv4_packet(dst4, src4, size))
            }
            Protocol::Ipv6Native => {
                (Engine::V6(tables), crate::native::ipv6_packet(dst6, src6, size))
            }
            Protocol::Dip32 => (
                Engine::Dip(Box::new(router)),
                ip::dip32_packet(dst4, src4, 64).to_bytes_padded(size).unwrap(),
            ),
            Protocol::Dip128 => (
                Engine::Dip(Box::new(router)),
                ip::dip128_packet(dst6, src6, 64).to_bytes_padded(size).unwrap(),
            ),
            Protocol::Ndn => (
                Engine::Dip(Box::new(router)),
                ndn::interest(&name, 64).to_bytes_padded(size).unwrap(),
            ),
            Protocol::Opt => {
                let payload_len = size - dip_protocols::header_sizes::OPT;
                let payload = vec![0u8; payload_len];
                (
                    Engine::Dip(Box::new(router)),
                    session.packet(&payload, 0, 64).to_bytes(&payload).unwrap(),
                )
            }
            Protocol::NdnOpt => {
                let payload_len = size - dip_protocols::header_sizes::NDN_OPT;
                let payload = vec![0u8; payload_len];
                (
                    Engine::Dip(Box::new(router)),
                    ndn_opt::data(&session, &name, &payload, 0, 64).to_bytes(&payload).unwrap(),
                )
            }
        };
        assert_eq!(template.len(), size, "{protocol:?} template size");
        Workload {
            protocol,
            size,
            engine,
            template,
            session: Some(session),
            name,
            counter: 0,
            now: 0,
        }
    }

    /// The cipher the DIP router is configured with.
    pub fn set_mac_choice(&mut self, mac: MacChoice) {
        if let Engine::Dip(r) = &mut self.engine {
            r.state_mut().mac_choice = mac;
        }
    }

    /// Untimed preparation: returns the next packet to process and puts the
    /// router in the right state to process it (PIT entry for data packets,
    /// advanced virtual clock for interest dedup).
    pub fn next_packet(&mut self) -> Vec<u8> {
        self.counter += 1;
        self.now += 10;
        let mut pkt = self.template.clone();
        // Make packets distinct: stamp the counter into the payload tail
        // (headers stay canonical).
        let n = pkt.len();
        pkt[n - 8..].copy_from_slice(&self.counter.to_be_bytes());
        if self.protocol == Protocol::NdnOpt {
            // A data packet needs a pending interest to consume.
            if let Engine::Dip(r) = &mut self.engine {
                let _ = r.state_mut().pit.record_interest(
                    self.name.compact32(),
                    7,
                    self.counter,
                    self.now,
                );
            }
        }
        pkt
    }

    /// Timed forwarding step. Returns the pipeline stats (synthetic ones
    /// for the native baselines). Panics if the packet was not forwarded —
    /// a mis-built workload must not silently measure the drop path.
    pub fn process(&mut self, pkt: &mut [u8]) -> ProcessStats {
        match &mut self.engine {
            Engine::Dip(r) => {
                let (verdict, stats) = r.process(pkt, 7, self.now);
                debug_assert!(
                    matches!(verdict, Verdict::Forward(_)),
                    "{:?} verdict {verdict:?}",
                    self.protocol
                );
                stats
            }
            Engine::V4(fib) => {
                let port = crate::native_ipv4_forward(pkt, fib);
                debug_assert!(port.is_some());
                native_stats()
            }
            Engine::V6(fib) => {
                let port = crate::native_ipv6_forward(pkt, fib);
                debug_assert!(port.is_some());
                native_stats()
            }
        }
    }

    /// The current MAC choice (for the timing model).
    pub fn mac_choice(&self) -> MacChoice {
        match &self.engine {
            Engine::Dip(r) => r.state().mac_choice,
            _ => MacChoice::TwoRoundEm,
        }
    }

    /// The negotiated OPT session (present on every workload; used by
    /// verification-side harnesses).
    pub fn session(&self) -> Option<&OptSession> {
        self.session.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_protocol_builds_at_every_size() {
        for proto in Protocol::ALL {
            for size in FIG2_SIZES {
                let mut w = Workload::new(proto, size);
                for _ in 0..5 {
                    let mut pkt = w.next_packet();
                    assert_eq!(pkt.len(), size);
                    let stats = w.process(&mut pkt);
                    if proto.is_dip() {
                        assert!(stats.fns_executed >= 1, "{proto:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn packets_are_distinct() {
        let mut w = Workload::new(Protocol::Ndn, 128);
        let a = w.next_packet();
        let b = w.next_packet();
        assert_ne!(a, b);
    }

    #[test]
    fn sustained_processing_many_rounds() {
        // The regression this guards: interest dedup / PIT consumption
        // making later rounds take a different code path.
        for proto in [Protocol::Ndn, Protocol::NdnOpt] {
            let mut w = Workload::new(proto, 128);
            for _ in 0..2_000 {
                let mut pkt = w.next_packet();
                let stats = w.process(&mut pkt);
                assert!(stats.fns_executed >= 1);
            }
        }
    }

    #[test]
    fn opt_runs_the_auth_chain() {
        let mut w = Workload::new(Protocol::Opt, 768);
        let mut pkt = w.next_packet();
        let stats = w.process(&mut pkt);
        assert_eq!(stats.fns_executed, 3); // parm + mac + mark
        assert_eq!(stats.skipped_host, 1); // ver
        assert!(stats.cost.cipher_blocks > 0);
    }

    #[test]
    fn ndn_opt_runs_pit_plus_auth() {
        let mut w = Workload::new(Protocol::NdnOpt, 768);
        let mut pkt = w.next_packet();
        let stats = w.process(&mut pkt);
        assert_eq!(stats.fns_executed, 4);
    }

    #[test]
    fn mac_choice_switch() {
        let mut w = Workload::new(Protocol::Opt, 128);
        assert_eq!(w.mac_choice(), MacChoice::TwoRoundEm);
        w.set_mac_choice(MacChoice::Aes);
        assert_eq!(w.mac_choice(), MacChoice::Aes);
        let mut pkt = w.next_packet();
        w.process(&mut pkt); // still forwards
    }
}
