//! NetFence-style congestion policing as a *custom* Field Operation.
//!
//! The paper's introduction cites NetFence \[19\]: a slim header between L3
//! and L4 through which bottleneck routers emit cryptographically protected
//! congestion feedback, and access routers police each sender with AIMD
//! rate limiters. This module realizes that design as a DIP FN — and, just
//! as importantly, it does so **without touching any core crate**:
//! `F_cong` is registered at runtime under an experimental key
//! ([`CONG_KEY`]), keeps its private state in
//! [`dip_fnops::context::Extensions`], and composes with the standard
//! addressing FNs. This is §5's deployment story ("providers can support
//! new services by only upgrading FNs") made concrete.
//!
//! ## Field layout (25 bytes / 200 bits)
//!
//! ```text
//! [0..8)   flow id
//! [8)      action: 0 = no feedback, 1 = congestion (rate down)
//! [9..25)  feedback MAC over (flow id ‖ action) under the bottleneck key
//! ```
//!
//! ## Roles
//!
//! * a **bottleneck** router (`NetFenceState::congested == true`) stamps
//!   `action = 1` plus the MAC — the unforgeable "slow down" signal;
//! * an **access** router (`NetFenceState::police == true`) runs one AIMD
//!   token bucket per flow: additive increase over time, multiplicative
//!   decrease when a congestion-marked echo passes by, and drops packets
//!   exceeding the current rate ([`DropReason::RateLimited`]).

use dip_crypto::{ct_eq, Block, CbcMac, MacAlgorithm};
use dip_fnops::{Action, DropReason, Effects, FieldOp, OpCost, PacketCtx, Resource, RouterState};
use dip_tables::Ticks;
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};
use std::collections::HashMap;

/// The experimental operation key `F_cong` registers under.
pub const CONG_KEY: FnKey = FnKey::Other(0x100);

/// Width of the congestion field in bits.
pub const CONG_FIELD_BITS: u16 = 200;

/// Width of the congestion field in bytes.
pub const CONG_FIELD_LEN: usize = 25;

/// An AIMD-controlled token bucket for one flow.
#[derive(Debug, Clone)]
pub struct AimdLimiter {
    /// Current permitted rate, bytes per second.
    pub rate_bps: f64,
    tokens: f64,
    last_update: Ticks,
}

impl AimdLimiter {
    fn new(rate_bps: f64, now: Ticks) -> Self {
        AimdLimiter { rate_bps, tokens: rate_bps / 10.0, last_update: now }
    }

    fn refill(&mut self, params: &AimdParams, now: Ticks) {
        let dt = now.saturating_sub(self.last_update) as f64 / 1e9;
        self.last_update = now;
        // Additive increase while the path stays quiet.
        self.rate_bps =
            (self.rate_bps + params.additive_increase_bps * dt).min(params.max_rate_bps);
        // Token bucket refill with a burst of 100 ms worth of traffic.
        self.tokens = (self.tokens + self.rate_bps * dt).min(self.rate_bps / 10.0);
    }

    fn on_congestion(&mut self, params: &AimdParams) {
        self.rate_bps = (self.rate_bps / 2.0).max(params.min_rate_bps);
        self.tokens = self.tokens.min(self.rate_bps / 10.0);
    }

    fn admit(&mut self, bytes: usize) -> bool {
        let need = bytes as f64;
        if self.tokens >= need {
            self.tokens -= need;
            true
        } else {
            false
        }
    }
}

/// AIMD parameters of an access router.
#[derive(Debug, Clone, Copy)]
pub struct AimdParams {
    /// Initial per-flow rate.
    pub initial_rate_bps: f64,
    /// Floor after repeated decreases.
    pub min_rate_bps: f64,
    /// Ceiling for additive increase.
    pub max_rate_bps: f64,
    /// Additive increase, bytes/second per second.
    pub additive_increase_bps: f64,
}

impl Default for AimdParams {
    fn default() -> Self {
        AimdParams {
            initial_rate_bps: 1_000_000.0,
            min_rate_bps: 10_000.0,
            max_rate_bps: 100_000_000.0,
            additive_increase_bps: 100_000.0,
        }
    }
}

/// Private state of `F_cong` on one router (lives in
/// `RouterState::ext`).
#[derive(Debug, Default)]
pub struct NetFenceState {
    /// Bottleneck role: when `true`, mark every policed packet.
    pub congested: bool,
    /// Access-router role: police flows with AIMD limiters.
    pub police: bool,
    /// AIMD knobs.
    pub params: Option<AimdParams>,
    /// Per-flow limiters (bounded in a deployment; unbounded here for
    /// experiment clarity — the §2.4 budget story applies identically).
    pub limiters: HashMap<u64, AimdLimiter>,
}

impl NetFenceState {
    /// Current rate of a flow, if policed.
    pub fn flow_rate(&self, flow: u64) -> Option<f64> {
        self.limiters.get(&flow).map(|l| l.rate_bps)
    }
}

/// The congestion-policing operation module.
#[derive(Debug, Default, Clone, Copy)]
pub struct CongestionOp;

fn feedback_mac(secret: &Block, flow_id: u64, action: u8) -> Block {
    let mut msg = Vec::with_capacity(9);
    msg.extend_from_slice(&flow_id.to_be_bytes());
    msg.push(action);
    CbcMac::new_2em(secret).mac(&msg)
}

impl FieldOp for CongestionOp {
    fn key(&self) -> FnKey {
        CONG_KEY
    }

    fn execute(
        &self,
        triple: &FnTriple,
        state: &mut RouterState,
        ctx: &mut PacketCtx<'_>,
    ) -> Action {
        if triple.field_len != CONG_FIELD_BITS {
            return Action::Drop(DropReason::MalformedField);
        }
        let Ok(field) = ctx.read_field(triple) else {
            return Action::Drop(DropReason::MalformedField);
        };
        let flow_id = u64::from_be_bytes(field[..8].try_into().expect("8 bytes"));
        let action = field[8];
        let packet_bytes = ctx.payload.len() + field.len();
        let now = ctx.now;
        let local_secret = state.local_secret;

        let nf = state.ext.get_or_default::<NetFenceState>();

        // Access-router role: police.
        if nf.police {
            let params = nf.params.unwrap_or_default();
            let limiter = nf
                .limiters
                .entry(flow_id)
                .or_insert_with(|| AimdLimiter::new(params.initial_rate_bps, now));
            limiter.refill(&params, now);
            if action == 1 {
                // A congestion-marked echo passing the access router:
                // multiplicative decrease, forward the echo itself freely.
                limiter.on_congestion(&params);
                return Action::Continue;
            }
            if !limiter.admit(packet_bytes) {
                return Action::Drop(DropReason::RateLimited);
            }
        }

        // Bottleneck role: stamp the (authenticated) congestion signal.
        if nf.congested && action == 0 {
            let mut marked = field.clone();
            marked[8] = 1;
            let mac = feedback_mac(&local_secret, flow_id, 1);
            marked[9..25].copy_from_slice(&mac);
            if ctx.write_field(triple, &marked).is_err() {
                return Action::Drop(DropReason::MalformedField);
            }
        }
        Action::Continue
    }

    fn effects(&self, triple: &FnTriple) -> Effects {
        // One flow-table access plus (when marking) a short MAC.
        let cost = OpCost { stages: 2, table_lookups: 1, cipher_blocks: 2, resubmits: 0 };
        Effects::new(triple, cost).writing_field().writing(Resource::Ext)
    }
}

/// Builds the congestion field for a new flow.
pub fn cong_field(flow_id: u64) -> Vec<u8> {
    let mut f = vec![0u8; CONG_FIELD_LEN];
    f[..8].copy_from_slice(&flow_id.to_be_bytes());
    f
}

/// Builds a NetFence-over-DIP packet: the congestion field plus the FN
/// triple for `F_cong` (compose with addressing FNs as needed).
pub fn packet(flow_id: u64, hop_limit: u8) -> DipRepr {
    DipRepr {
        next_header: 0,
        hop_limit,
        parallel: false,
        fns: vec![FnTriple::router(0, CONG_FIELD_BITS, CONG_KEY)],
        locations: cong_field(flow_id),
    }
}

/// Receiver-side check that a congestion mark really came from the claimed
/// bottleneck (MAC verification; prevents forged "slow down" signals).
pub fn verify_mark(field: &[u8], bottleneck_secret: &Block) -> bool {
    if field.len() < CONG_FIELD_LEN || field[8] != 1 {
        return false;
    }
    let flow_id = u64::from_be_bytes(field[..8].try_into().expect("8 bytes"));
    ct_eq(&feedback_mac(bottleneck_secret, flow_id, 1), &field[9..25])
}

/// Extracts the (flow id, action) pair from a congestion field.
pub fn parse_field(field: &[u8]) -> Option<(u64, u8)> {
    if field.len() < CONG_FIELD_LEN {
        return None;
    }
    Some((u64::from_be_bytes(field[..8].try_into().ok()?), field[8]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_core::{DipRouter, Verdict};
    use dip_fnops::RouteStore;
    use dip_tables::Ports;
    use std::sync::Arc;

    fn router(police: bool, congested: bool) -> DipRouter {
        let mut r = DipRouter::new(1, [0x33; 16]);
        r.config_mut().default_port = Some(1);
        r.registry_mut().install(Arc::new(CongestionOp));
        let nf = r.state_mut().ext.get_or_default::<NetFenceState>();
        nf.police = police;
        nf.congested = congested;
        nf.params = Some(AimdParams {
            initial_rate_bps: 10_000.0, // 10 kB/s => 1 kB burst
            min_rate_bps: 1_000.0,
            max_rate_bps: 1_000_000.0,
            additive_increase_bps: 1_000.0,
        });
        r
    }

    fn send(r: &mut DipRouter, flow: u64, payload_len: usize, now: u64) -> Verdict {
        let mut buf = packet(flow, 64).to_bytes(&vec![0u8; payload_len]).unwrap();
        r.process(&mut buf, 0, now).0
    }

    #[test]
    fn unregistered_key_is_skipped_registered_key_runs() {
        // Without installation the FN is unknown-but-optional: skipped.
        let mut plain = DipRouter::new(1, [0; 16]);
        plain.config_mut().default_port = Some(1);
        let mut buf = packet(7, 64).to_bytes(&[]).unwrap();
        let (v, stats) = plain.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(1)));
        assert_eq!(stats.skipped_unsupported, 1);

        // With installation it executes.
        let mut upgraded = router(false, false);
        let mut buf = packet(7, 64).to_bytes(&[]).unwrap();
        let (v, stats) = upgraded.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(1)));
        assert_eq!(stats.fns_executed, 1);
    }

    #[test]
    fn bottleneck_marks_and_mark_verifies() {
        let mut r = router(false, true);
        let secret = r.state().local_secret;
        let mut buf = packet(42, 64).to_bytes(b"data").unwrap();
        let (v, _) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(1)));
        let pkt = dip_wire::DipPacket::new_checked(&buf[..]).unwrap();
        let field = pkt.locations();
        assert_eq!(parse_field(field).unwrap(), (42, 1));
        assert!(verify_mark(field, &secret));
        assert!(!verify_mark(field, &[0xEE; 16]), "forged bottleneck key must fail");
    }

    #[test]
    fn access_router_rate_limits_a_greedy_flow() {
        let mut r = router(true, false);
        // 10 kB/s rate, 1 kB burst; 500-byte packets back to back at t=0:
        // about two fit the initial bucket, the rest drop.
        let mut admitted = 0;
        let mut dropped = 0;
        for _ in 0..20 {
            match send(&mut r, 42, 475, 0) {
                Verdict::Forward(_) => admitted += 1,
                Verdict::Drop(DropReason::RateLimited) => dropped += 1,
                other => panic!("{other:?}"),
            }
        }
        assert!((1..=3).contains(&admitted), "admitted {admitted}");
        assert!(dropped >= 17);
        // After a second of refill, traffic flows again.
        assert!(matches!(send(&mut r, 42, 475, 1_000_000_000), Verdict::Forward(_)));
    }

    #[test]
    fn congestion_echo_halves_the_rate() {
        let mut r = router(true, false);
        send(&mut r, 7, 100, 0); // create the limiter
        let before = r.state_mut().ext.get_or_default::<NetFenceState>().flow_rate(7).unwrap();
        // A congestion-marked echo passes by.
        let mut echo = packet(7, 64);
        echo.locations[8] = 1;
        let mut buf = echo.to_bytes(&[]).unwrap();
        assert!(matches!(r.process(&mut buf, 1, 1).0, Verdict::Forward(_)));
        let after = r.state_mut().ext.get_or_default::<NetFenceState>().flow_rate(7).unwrap();
        assert!((after - before / 2.0).abs() < 1e-6, "{before} -> {after}");
    }

    #[test]
    fn additive_increase_recovers_over_time() {
        let mut r = router(true, false);
        send(&mut r, 7, 100, 0);
        // Halve twice.
        for t in [1u64, 2] {
            let mut echo = packet(7, 64);
            echo.locations[8] = 1;
            let mut buf = echo.to_bytes(&[]).unwrap();
            r.process(&mut buf, 1, t);
        }
        let low = r.state_mut().ext.get_or_default::<NetFenceState>().flow_rate(7).unwrap();
        // 10 virtual seconds later the rate has grown additively.
        send(&mut r, 7, 100, 10_000_000_000);
        let recovered = r.state_mut().ext.get_or_default::<NetFenceState>().flow_rate(7).unwrap();
        assert!(recovered > low, "{low} -> {recovered}");
    }

    #[test]
    fn flows_are_isolated() {
        let mut r = router(true, false);
        // Flow 1 exhausts its bucket ...
        for _ in 0..20 {
            send(&mut r, 1, 475, 0);
        }
        assert!(matches!(send(&mut r, 1, 475, 0), Verdict::Drop(DropReason::RateLimited)));
        // ... flow 2 is unaffected.
        assert!(matches!(send(&mut r, 2, 475, 0), Verdict::Forward(_)));
    }

    #[test]
    fn composes_with_addressing_fns() {
        use dip_tables::fib::NextHop;
        use dip_wire::ipv4::Ipv4Addr;
        // DIP-32 + F_cong in one header: match32 decides, cong polices.
        let mut r = router(true, false);
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(9));
        r.state_mut().routes = routes.rebuild();
        let mut locations = vec![10, 0, 0, 1, 1, 1, 1, 1];
        let cong_off = (locations.len() * 8) as u16;
        locations.extend_from_slice(&cong_field(5));
        let repr = DipRepr {
            fns: vec![
                FnTriple::router(0, 32, FnKey::Match32),
                FnTriple::router(32, 32, FnKey::Source),
                FnTriple::router(cong_off, CONG_FIELD_BITS, CONG_KEY),
            ],
            locations,
            ..Default::default()
        };
        let mut buf = repr.to_bytes(&[0u8; 100]).unwrap();
        let (v, stats) = r.process(&mut buf, 0, 0);
        assert_eq!(v, Verdict::Forward(Ports::one(9)));
        assert_eq!(stats.fns_executed, 3);
    }
}
