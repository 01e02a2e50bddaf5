//! `DataplaneRouter` — the dataplane behind the simulator's router trait.
//!
//! The discrete-event simulator is single-threaded and deterministic, so
//! plugging the dataplane into [`dip_sim::engine::Network`] uses *logical*
//! shards: the same flow-hash dispatch, per-shard routers and program
//! caches as the threaded runtime, driven synchronously one packet at a
//! time by the event loop. Every five-protocol experiment runs unchanged
//! on it (`Network::add_router_node`), which is what pins the claim that
//! the sharded pipeline is behavior-equivalent to a single [`DipRouter`].

use crate::program::{Admission, CacheStats, ProgramCache};
use crate::shard::FlowShard;
use dip_core::{parse_packet, DipRouter, ProcessStats, Verdict};
use dip_fnops::context::MacChoice;
use dip_fnops::{DropReason, FnRegistry};
use dip_sim::engine::RouterNode;
use dip_sim::SimTime;
use dip_tables::{Port, Ticks};
use dip_telemetry::Registry;

struct Shard {
    router: DipRouter,
    cache: ProgramCache,
}

/// A flow-sharded, program-caching router node for the simulator.
pub struct DataplaneRouter {
    shards: Vec<Shard>,
    dispatch: FlowShard,
}

impl DataplaneRouter {
    /// Builds `shards` logical shards; `factory(i)` supplies shard `i`'s
    /// router (identical tables across shards for route lookups; per-flow
    /// state partitions naturally by the flow hash).
    pub fn new(shards: usize, admission: Admission, factory: impl Fn(usize) -> DipRouter) -> Self {
        let n = shards.max(1);
        let shards = (0..n)
            .map(|i| {
                let router = factory(i);
                let cache = ProgramCache::new(
                    router.registry().clone(),
                    router.config().clone(),
                    admission,
                );
                Shard { router, cache }
            })
            .collect();
        DataplaneRouter { shards, dispatch: FlowShard::new(n) }
    }

    /// Number of logical shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Read access to shard `i`'s router (state inspection).
    pub fn shard_router(&self, i: usize) -> &DipRouter {
        &self.shards[i].router
    }

    /// Mutable access to shard `i`'s router (table programming).
    pub fn shard_router_mut(&mut self, i: usize) -> &mut DipRouter {
        &mut self.shards[i].router
    }

    /// Summed program-cache counters across shards.
    pub fn cache_stats(&self) -> CacheStats {
        self.shards.iter().fold(CacheStats::default(), |acc, s| {
            let c = s.cache.stats();
            CacheStats {
                hits: acc.hits + c.hits,
                misses: acc.misses + c.misses,
                rejected: acc.rejected + c.rejected,
                programs_optimized: acc.programs_optimized + c.programs_optimized,
                ops_eliminated: acc.ops_eliminated + c.ops_eliminated,
                fusions: acc.fusions + c.fusions,
                hoists: acc.hoists + c.hoists,
            }
        })
    }

    /// Dispatches one packet to its flow's shard and executes it through
    /// that shard's program cache (parse → cached compile → execute).
    pub fn process_one(
        &mut self,
        buf: &mut [u8],
        in_port: Port,
        now: Ticks,
    ) -> (Verdict, ProcessStats) {
        let idx = self.dispatch.shard_of(buf);
        let shard = &mut self.shards[idx];
        let Some(parsed) = parse_packet(buf) else {
            return shard.router.refuse(DropReason::MalformedField);
        };
        let program = shard.cache.lookup(&parsed, buf);
        if !program.admitted {
            return shard.router.refuse(DropReason::ProgramRejected);
        }
        shard.router.process_parsed(buf, &parsed, &program.chain, in_port, now)
    }
}

impl RouterNode for DataplaneRouter {
    fn process_packet(
        &mut self,
        buf: &mut [u8],
        in_port: u32,
        now: SimTime,
    ) -> (Verdict, ProcessStats) {
        self.process_one(buf, in_port, now)
    }

    fn mac_choice(&self) -> MacChoice {
        self.shards[0].router.state().mac_choice
    }

    fn registry(&self) -> &FnRegistry {
        self.shards[0].router.registry()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }

    fn attach_metrics(&mut self, registry: &Registry, node: usize) {
        let n = node.to_string();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            let s = i.to_string();
            shard.router.attach_metrics(registry, &[("node", n.as_str()), ("shard", s.as_str())]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_routes::RouteStore;
    use dip_tables::fib::NextHop;
    use dip_wire::ipv4::Ipv4Addr;

    fn factory(i: usize) -> DipRouter {
        let mut r = DipRouter::new(0, [7; 16]); // identical identity per shard
        let _ = i;
        let mut routes = RouteStore::new();
        routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(3));
        r.state_mut().routes = routes.rebuild();
        r
    }

    #[test]
    fn matches_single_router_verdicts() {
        let mut reference = factory(0);
        let mut dp = DataplaneRouter::new(4, Admission::Lint, factory);
        for i in 0..64u8 {
            let repr = dip_protocols::ip::dip32_packet(
                Ipv4Addr::new(10, 0, 0, i),
                Ipv4Addr::new(1, 1, 1, 1),
                64,
            );
            let mut a = repr.to_bytes(b"payload").unwrap();
            let mut b = a.clone();
            let (va, sa) = reference.process(&mut a, 0, 0);
            let (vb, sb) = dp.process_one(&mut b, 0, 0);
            assert_eq!(va, vb);
            assert_eq!(a, b, "post-execution bytes must match");
            assert_eq!(sa.fns_executed, sb.fns_executed);
        }
        let cs = dp.cache_stats();
        assert!(cs.misses <= 4, "one compile per shard at most");
    }

    #[test]
    fn runs_inside_the_simulator() {
        use dip_sim::engine::{Host, Network};
        use dip_wire::ndn::Name;
        use std::collections::HashMap;

        let name = Name::parse("/dataplane/demo");
        let mut net = Network::new(42);
        let mut routes = RouteStore::new();
        routes.insert_name(&name, NextHop::port(1));
        let tables = routes.rebuild();
        let node = DataplaneRouter::new(4, Admission::Lint, |_| {
            let mut r = DipRouter::new(0, [9; 16]);
            r.state_mut().routes = tables.clone();
            r
        });
        let r0 = net.add_router_node(Box::new(node));
        let consumer = net.add_host(Host::consumer(10));
        let producer = net.add_host(Host::producer(
            11,
            HashMap::from([(name.compact32(), b"batched content".to_vec())]),
        ));
        net.connect(consumer, 0, r0, 0, 1_000);
        net.connect(producer, 0, r0, 1, 1_000);
        let interest = dip_protocols::ndn::interest(&name, 64).to_bytes(&[]).unwrap();
        net.send(consumer, 0, interest, 0);
        net.run();
        let delivered = &net.host(consumer).unwrap().delivered;
        assert_eq!(delivered.len(), 1, "NDN retrieval through the sharded node");
        assert_eq!(delivered[0].payload, b"batched content");
        // The typed accessor correctly refuses to treat it as a DipRouter.
        assert!(net.router_mut(r0).is_err());
        assert!(net.router_node_mut(r0).is_ok());
    }
}
