//! Seeded route-churn generation: BGP-style update storms against the
//! compiled forwarding state.
//!
//! A [`ChurnGen`] owns a [`RouteStore`] holding the *identical* routes
//! a [`WorkloadSpec`]'s routers are built with (one shared constructor),
//! plus a synthetic flap pool per family. Every elapsed
//! churn interval it draws a batch of updates — withdrawals,
//! re-announcements, and next-hop replaces, most of them on a small hot
//! set — commits them as one [`RouteDelta`], and hands back a
//! tables-only [`RouteSnapshot`] for publication. A storm's only knob is
//! its rate; seed, batch, locality and pool size are fixed below.
//!
//! The flap pools deliberately cover **no trace traffic**: the v4 pool
//! lives under 172.16/12 (traces send to 10/8), the v6 pool under
//! fdbb::/16 (traces send to fdaa::/16), names under `/churnpool`
//! (traces request `/wl/...`), and the XIA pool uses dedicated CIDs. So
//! a packet's outcome class (forwarded / consumed / dropped) is
//! invariant to *when* a worker picks up a churn epoch — only synthetic
//! pool state differs between epochs — and MST searches stay exactly
//! reproducible while the storm runs. What churn measures is the *cost*
//! of delta application and epoch pickup, not a behaviour change.

use crate::trace::WorkloadSpec;
use dip_crypto::DetRng;
use dip_dataplane::snapshot::RouteSnapshot;
use dip_routes::{RouteDelta, RouteStore, StoreStats};
use dip_tables::fib::NextHop;
use dip_tables::XiaNextHop;
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::ndn::Name;
use dip_wire::xia::{Xid, XidType};

/// One update storm.
#[derive(Debug, Clone)]
pub struct ChurnSpec {
    /// Route updates per virtual second.
    pub rate_ups: u64,
}

/// Storm seed (independent of the workload seed).
const SEED: u64 = 0xc0_4a11;
/// Updates batched into one delta (one BGP UPDATE burst).
const BATCH: usize = 32;
/// Fraction of updates hitting the hot set (flap locality: real storms
/// hammer few prefixes).
const LOCALITY: f64 = 0.8;
/// Pool entries per family counted as hot.
const HOT_SET: usize = 64;
/// Synthetic flap-pool size per family.
const POOL: usize = 1024;

/// Per-entry flap state of one pool family.
struct Pool {
    live: Vec<bool>,
}

impl Pool {
    fn new(n: usize) -> Self {
        Pool { live: vec![true; n] }
    }
}

/// The stateful storm: owns the compiled store and the flap pools.
pub struct ChurnGen {
    rng: DetRng,
    store: RouteStore,
    v4: Pool,
    v6: Pool,
    names: Pool,
    xia: Pool,
    interval_ns: u64,
    next_ns: u64,
    updates: u64,
    deltas: u64,
}

/// Pool prefix `i` of the v4 flap family (172.16/12 block, /24 routes —
/// disjoint from the 10/8 the traces send to).
fn pool_v4(i: usize) -> (Ipv4Addr, u8) {
    (Ipv4Addr::from_u32(0xac10_0000 | ((i as u32) << 8)), 24)
}

/// Pool prefix `i` of the v6 flap family (fdbb::/16 block, /48 routes —
/// disjoint from the fdaa::/16 the traces send to).
fn pool_v6(i: usize) -> (Ipv6Addr, u8) {
    (Ipv6Addr::from_u128((0xfdbbu128 << 112) | ((i as u128) << 80)), 48)
}

/// Pool name `i` (`/churnpool/{i}` — traces request `/wl/...`).
fn pool_name(i: usize) -> Name {
    Name::parse(&format!("/churnpool/{i}"))
}

/// Pool CID `i` (never referenced by any trace DAG).
fn pool_cid(i: usize) -> Xid {
    Xid::derive(format!("churnpool-cid-{i}").as_bytes())
}

impl ChurnGen {
    /// A storm over the forwarding state of `spec`'s routers: the exact
    /// routes `WorkloadSpec::build_router` installs, plus the full flap
    /// pool, compiled into the initial tables (the one full rebuild).
    pub fn new(spec: &WorkloadSpec, churn: &ChurnSpec) -> ChurnGen {
        let mut store = spec.route_store();
        for i in 0..POOL {
            let (a, l) = pool_v4(i);
            store.insert_v4(a, l, NextHop::port(9));
            let (a, l) = pool_v6(i);
            store.insert_v6(a, l, NextHop::port(9));
            store.insert_name(&pool_name(i), NextHop::port(9));
            store.insert_xia(XidType::Cid, pool_cid(i), XiaNextHop::Port(9));
        }
        store.rebuild();
        let interval_ns = (BATCH as u64).saturating_mul(1_000_000_000) / churn.rate_ups.max(1);
        ChurnGen {
            rng: DetRng::seed_from_u64(SEED ^ 0x5_70c4),
            store,
            v4: Pool::new(POOL),
            v6: Pool::new(POOL),
            names: Pool::new(POOL),
            xia: Pool::new(POOL),
            interval_ns: interval_ns.max(1),
            next_ns: interval_ns.max(1),
            updates: 0,
            deltas: 0,
        }
    }

    /// The pre-storm tables, for installation before traffic starts.
    pub fn initial_snapshot(&self) -> RouteSnapshot {
        RouteSnapshot::from_tables(self.store.tables())
    }

    /// A pool index, hot with probability [`LOCALITY`].
    fn index(&mut self) -> usize {
        if self.rng.gen_bool(LOCALITY) {
            self.rng.gen_index(HOT_SET)
        } else {
            self.rng.gen_index(POOL)
        }
    }

    /// One update against one family: withdraw a live route, re-announce
    /// a dead one, or replace a live next hop.
    fn update(&mut self, delta: &mut RouteDelta) {
        let family = self.rng.gen_index(4);
        let i = self.index();
        let port = NextHop::port(self.rng.gen_range_inclusive(1, 64) as u32);
        match family {
            0 => {
                let (a, l) = pool_v4(i);
                if self.v4.live[i] && self.rng.gen_bool(0.5) {
                    self.v4.live[i] = false;
                    delta.withdraw_v4(a, l);
                } else {
                    self.v4.live[i] = true;
                    delta.announce_v4(a, l, port);
                }
            }
            1 => {
                let (a, l) = pool_v6(i);
                if self.v6.live[i] && self.rng.gen_bool(0.5) {
                    self.v6.live[i] = false;
                    delta.withdraw_v6(a, l);
                } else {
                    self.v6.live[i] = true;
                    delta.announce_v6(a, l, port);
                }
            }
            2 => {
                if self.names.live[i] && self.rng.gen_bool(0.5) {
                    self.names.live[i] = false;
                    delta.withdraw_name(pool_name(i));
                } else {
                    self.names.live[i] = true;
                    delta.announce_name(pool_name(i), port);
                }
            }
            _ => {
                if self.xia.live[i] && self.rng.gen_bool(0.5) {
                    self.xia.live[i] = false;
                    delta.withdraw_xia(XidType::Cid, pool_cid(i));
                } else {
                    self.xia.live[i] = true;
                    delta.announce_xia(
                        XidType::Cid,
                        pool_cid(i),
                        XiaNextHop::Port(self.rng.gen_range_inclusive(1, 64) as u32),
                    );
                }
            }
        }
        self.updates += 1;
    }

    /// Advances the storm clock to `now_ns`: commits one delta per
    /// elapsed interval and returns the latest tables when any fired
    /// (publish once, no matter how many batches elapsed).
    pub fn poll(&mut self, now_ns: u64) -> Option<RouteSnapshot> {
        let mut fired = false;
        while self.next_ns <= now_ns {
            self.next_ns += self.interval_ns;
            let mut delta = RouteDelta::new();
            for _ in 0..BATCH {
                self.update(&mut delta);
            }
            self.store.commit(&delta);
            self.deltas += 1;
            fired = true;
        }
        fired.then(|| RouteSnapshot::from_tables(self.store.tables()))
    }

    /// Records a dataplane pickup of a published snapshot.
    pub fn note_epoch_swap(&mut self) {
        self.store.note_epoch_swap();
    }

    /// Store counters (deltas, delta routes, rebuilds, swaps).
    pub fn stats(&self) -> StoreStats {
        self.store.stats()
    }

    /// Route updates generated so far.
    pub fn updates(&self) -> u64 {
        self.updates
    }

    /// Deltas committed so far.
    pub fn deltas(&self) -> u64 {
        self.deltas
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{Mix, TrafficClass, INGRESS_PORT};

    fn small_spec(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            seed,
            table_size: 400,
            catalog_size: 64,
            pit_preseed: 256,
            ..Default::default()
        }
    }

    /// The heart of churn safety: the flap pools cover no trace traffic,
    /// so a router that picks up every epoch of a storm must answer each
    /// packet — verdict and bytes — exactly like one that never sees the
    /// storm.
    #[test]
    fn a_storm_changes_no_verdict_and_no_byte() {
        let spec = small_spec(21);
        let mut gen = ChurnGen::new(&spec, &ChurnSpec { rate_ups: 1_000_000 });

        let mut quiescent = spec.build_router(0);
        let mut storm = spec.build_router(0);
        gen.initial_snapshot().apply(quiescent.state_mut());
        gen.initial_snapshot().apply(storm.state_mut());

        for class in TrafficClass::ALL {
            let sub = WorkloadSpec { mix: Mix::single(class), ..spec.clone() };
            let trace = sub.generate(200_000, 60);
            for (i, p) in trace.packets.iter().enumerate() {
                if let Some(snap) = gen.poll(p.at_ns) {
                    snap.apply(storm.state_mut());
                }
                let mut a = p.bytes.clone();
                let mut b = p.bytes.clone();
                let (va, _) = quiescent.process(&mut a, INGRESS_PORT, p.at_ns);
                let (vb, _) = storm.process(&mut b, INGRESS_PORT, p.at_ns);
                assert_eq!(va, vb, "{class:?} packet {i}");
                assert_eq!(a, b, "{class:?} packet {i}: output bytes");
            }
        }
        assert!(gen.deltas() > 0, "the storm actually ran");
        assert_eq!(gen.stats().full_rebuilds, 1, "churn never rebuilds");
        assert_ne!(
            quiescent.state().routes.version,
            storm.state().routes.version,
            "the storm router picked up later epochs"
        );
    }

    #[test]
    fn storm_is_deterministic_and_paced() {
        let spec = small_spec(5);
        let churn = ChurnSpec { rate_ups: 10_000 };
        let mut a = ChurnGen::new(&spec, &churn);
        let mut b = ChurnGen::new(&spec, &churn);
        // 32 updates per batch at 10k ups = one delta per 3.2 virtual ms.
        assert!(a.poll(3_000_000).is_none(), "no interval elapsed yet");
        assert!(a.poll(3_200_000).is_some());
        assert!(b.poll(3_200_000).is_some());
        assert_eq!(a.updates(), 32);
        // Catch-up: jumping ten intervals commits ten deltas, one publish.
        assert!(a.poll(35_200_000).is_some());
        assert_eq!(a.deltas(), 11);
        b.poll(35_200_000);
        assert_eq!(a.stats().delta_routes, b.stats().delta_routes, "same seed, same storm");
    }
}
