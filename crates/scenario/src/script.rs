//! Declarative scenario scripts: what to build, what to break, when.
//!
//! A [`ScenarioSpec`] is pure data — a topology recipe, table sizing, and
//! an ordered list of [`PhaseSpec`]s, each of which may open a partition
//! window (scheduled `link_down`/`link_up` around the producer's
//! attachment point) and re-weight the Zipf request mix (flash crowds).
//! The runner ([`crate::run::run_scenario`]) is the only interpreter;
//! specs also parse from the compact `family:key=value,...` strings the
//! `dipload --scenario` CLI accepts.

use crate::topology::Topology;
use dip_sim::SimTime;

/// How to generate the underlying router graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopologySpec {
    /// A `k`-ary fat-tree ([`Topology::fat_tree`]).
    FatTree {
        /// Fat-tree arity (even, ≥ 2); `5k²/4` routers.
        k: usize,
    },
    /// A preferential-attachment AS graph ([`Topology::as_graph`]).
    AsGraph {
        /// Number of ASes.
        nodes: usize,
        /// Transit providers each new AS attaches to.
        m: usize,
        /// Extra settlement-free peering links.
        peers: usize,
    },
}

impl TopologySpec {
    /// Materializes the abstract graph (deterministic in `seed`).
    pub fn generate(&self, seed: u64) -> Topology {
        match *self {
            TopologySpec::FatTree { k } => Topology::fat_tree(k),
            TopologySpec::AsGraph { nodes, m, peers } => Topology::as_graph(nodes, m, peers, seed),
        }
    }
}

/// The protocol realizations a phase injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScenarioProtocol {
    /// Native DIP-32 (IPv4 semantics).
    Ipv4,
    /// Native DIP-128 (IPv6 semantics).
    Ipv6,
    /// NDN interest/data with router content stores.
    Ndn,
    /// Path-bound OPT over the route SPF actually chose.
    Opt,
    /// XIA DAG with CID intent.
    Xia,
    /// A legacy IPv4 island: packets enter through
    /// [`dip_core::border::encap_ipv4`] and ride the shared core.
    LegacyV4,
}

impl ScenarioProtocol {
    /// Stable label used in payload tags, JSON, and fingerprints.
    pub fn label(&self) -> &'static str {
        match self {
            ScenarioProtocol::Ipv4 => "ipv4",
            ScenarioProtocol::Ipv6 => "ipv6",
            ScenarioProtocol::Ndn => "ndn",
            ScenarioProtocol::Opt => "opt",
            ScenarioProtocol::Xia => "xia",
            ScenarioProtocol::LegacyV4 => "legacy_v4",
        }
    }

    /// Every protocol the runner knows, in fingerprint order.
    pub const ALL: [ScenarioProtocol; 6] = [
        ScenarioProtocol::Ipv4,
        ScenarioProtocol::Ipv6,
        ScenarioProtocol::Ndn,
        ScenarioProtocol::Opt,
        ScenarioProtocol::Xia,
        ScenarioProtocol::LegacyV4,
    ];
}

/// One traffic phase, driven deterministically from the sim clock.
#[derive(Debug, Clone)]
pub struct PhaseSpec {
    /// Phase name (JSON key, payload tag prefix).
    pub name: String,
    /// Phase length in virtual ns; requests are spread evenly across it.
    pub duration: SimTime,
    /// Requests injected *per protocol* during the phase.
    pub requests: usize,
    /// Zipf exponent of the NDN request mix for this phase — flash
    /// crowds re-weight this (higher `s` ⇒ hotter head).
    pub zipf_s: f64,
    /// Protocols this phase injects.
    pub protocols: Vec<ScenarioProtocol>,
    /// When set, all links at the producer's edge router go down at the
    /// phase start and come back after this window (virtual ns).
    pub partition: Option<SimTime>,
    /// Walk the whole catalog round-robin instead of Zipf sampling —
    /// the cache-warming phase uses this so every object gets cached
    /// along the return path.
    pub sweep_catalog: bool,
}

/// A complete scenario: topology, table sizing, and phases.
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Scenario name (JSON, BENCH keys).
    pub name: String,
    /// Master seed: topology wiring, request sampling, sim RNG.
    pub seed: u64,
    /// The router graph recipe.
    pub topology: TopologySpec,
    /// Content catalog size (names `/scn/content/<i>`).
    pub catalog: usize,
    /// Per-router content-store capacity (0 disables caching).
    pub content_store: usize,
    /// Per-router PIT capacity.
    pub pit_capacity: usize,
    /// Per-router PIT entry TTL (virtual ns).
    pub pit_ttl: SimTime,
    /// Payload bytes per data object.
    pub payload: usize,
    /// The ordered phases.
    pub phases: Vec<PhaseSpec>,
}

impl ScenarioSpec {
    /// Sizing defaults shared by the canned builders.
    fn base(name: String, seed: u64, topology: TopologySpec, catalog: usize) -> ScenarioSpec {
        ScenarioSpec {
            name,
            seed,
            topology,
            catalog,
            // Catalog-sized cache: after the warm sweep every object is
            // resident at the consumer's edge, which is exactly the
            // disruption-tolerance mechanism the partition phases probe.
            content_store: catalog.max(1),
            pit_capacity: 4_096,
            pit_ttl: 4_000_000_000,
            payload: 64,
            phases: Vec::new(),
        }
    }

    /// The canonical partition scenario on a `k`-ary fat-tree: warm the
    /// caches over the full catalog, cut every link at the producer's
    /// edge switch for `window` ns while traffic continues, then measure
    /// the recovery (reconvergence + flash-crowd mix). A zero `window`
    /// cuts nothing.
    pub fn partition(k: usize, window: SimTime, requests: usize, seed: u64) -> ScenarioSpec {
        let catalog = requests.clamp(8, 64);
        let mut spec = ScenarioSpec::base(
            format!("partition_k{k}_w{window}"),
            seed,
            TopologySpec::FatTree { k },
            catalog,
        );
        let protocols = vec![
            ScenarioProtocol::Ipv4,
            ScenarioProtocol::Ipv6,
            ScenarioProtocol::Ndn,
            ScenarioProtocol::Xia,
            ScenarioProtocol::LegacyV4,
        ];
        spec.phases = vec![
            PhaseSpec {
                name: "warm".into(),
                duration: 2_000_000,
                requests: catalog,
                zipf_s: 0.0,
                protocols: vec![ScenarioProtocol::Ndn, ScenarioProtocol::Ipv4],
                partition: None,
                sweep_catalog: true,
            },
            PhaseSpec {
                name: "outage".into(),
                duration: (window * 2).max(1_000_000),
                requests,
                zipf_s: 0.9,
                protocols: protocols.clone(),
                partition: (window > 0).then_some(window),
                sweep_catalog: false,
            },
            PhaseSpec {
                name: "recovery".into(),
                duration: 1_500_000,
                requests,
                // Flash crowd after the outage: the mix snaps to the head.
                zipf_s: 1.4,
                protocols,
                partition: None,
                sweep_catalog: false,
            },
        ];
        spec
    }

    /// A no-fault fat-tree scenario carrying all six traffic classes —
    /// the ≥128-router convergence point uses this with `k = 12`.
    pub fn fat_tree(k: usize, requests: usize, seed: u64) -> ScenarioSpec {
        let catalog = requests.clamp(8, 64);
        let mut spec = ScenarioSpec::base(
            format!("fat_tree_k{k}"),
            seed,
            TopologySpec::FatTree { k },
            catalog,
        );
        spec.phases = vec![
            PhaseSpec {
                name: "warm".into(),
                duration: 2_000_000,
                requests: catalog,
                zipf_s: 0.0,
                protocols: vec![ScenarioProtocol::Ndn],
                partition: None,
                sweep_catalog: true,
            },
            PhaseSpec {
                name: "steady".into(),
                duration: 2_000_000,
                requests,
                zipf_s: 0.9,
                protocols: ScenarioProtocol::ALL.to_vec(),
                partition: None,
                sweep_catalog: false,
            },
        ];
        spec
    }

    /// An AS-level scenario: stub-to-stub traffic over a preferential-
    /// attachment transit hierarchy, with a partition window (none when
    /// `window` is zero) at the producer's stub uplinks.
    pub fn as_graph(
        nodes: usize,
        m: usize,
        peers: usize,
        window: SimTime,
        requests: usize,
        seed: u64,
    ) -> ScenarioSpec {
        let catalog = requests.clamp(8, 64);
        let mut spec = ScenarioSpec::base(
            format!("as_graph_n{nodes}_w{window}"),
            seed,
            TopologySpec::AsGraph { nodes, m, peers },
            catalog,
        );
        spec.phases = vec![
            PhaseSpec {
                name: "warm".into(),
                duration: 2_500_000,
                requests: catalog,
                zipf_s: 0.0,
                protocols: vec![ScenarioProtocol::Ndn, ScenarioProtocol::Ipv4],
                partition: None,
                sweep_catalog: true,
            },
            PhaseSpec {
                name: "outage".into(),
                duration: (window * 2).max(1_200_000),
                requests,
                zipf_s: 1.1,
                protocols: vec![
                    ScenarioProtocol::Ipv4,
                    ScenarioProtocol::Ndn,
                    ScenarioProtocol::LegacyV4,
                ],
                partition: (window > 0).then_some(window),
                sweep_catalog: false,
            },
        ];
        spec
    }

    /// Parses the compact CLI form `family:key=value,...`:
    ///
    /// * `partition:k=4,window=400000,requests=24,seed=7`
    /// * `fat_tree:k=12,requests=24,seed=7`
    /// * `as_graph:nodes=48,m=2,peers=8,window=400000,requests=24,seed=7`
    ///
    /// Unknown keys are an error (typos should not silently become
    /// defaults); every key has a default, so `partition:` alone works.
    pub fn parse(s: &str) -> Result<ScenarioSpec, String> {
        let (family, rest) = s.split_once(':').unwrap_or((s, ""));
        let mut k = 4usize;
        let mut nodes = 48usize;
        let mut m = 2usize;
        let mut peers = 8usize;
        let mut window: SimTime = 400_000;
        let mut requests = 24usize;
        let mut seed = 7u64;
        for kv in rest.split(',').filter(|p| !p.is_empty()) {
            let (key, value) =
                kv.split_once('=').ok_or_else(|| format!("expected key=value, got {kv:?}"))?;
            let parse = |v: &str| v.parse::<u64>().map_err(|e| format!("bad value {v:?}: {e}"));
            match key {
                "k" => k = parse(value)? as usize,
                "nodes" => nodes = parse(value)? as usize,
                "m" => m = parse(value)? as usize,
                "peers" => peers = parse(value)? as usize,
                "window" => window = parse(value)?,
                "requests" => requests = parse(value)? as usize,
                "seed" => seed = parse(value)?,
                other => return Err(format!("unknown scenario key {other:?}")),
            }
        }
        match family {
            "partition" => Ok(ScenarioSpec::partition(k, window, requests, seed)),
            "fat_tree" => Ok(ScenarioSpec::fat_tree(k, requests, seed)),
            "as_graph" => Ok(ScenarioSpec::as_graph(nodes, m, peers, window, requests, seed)),
            other => Err(format!(
                "unknown scenario family {other:?} (expected partition | fat_tree | as_graph)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_the_documented_examples() {
        let p = ScenarioSpec::parse("partition:k=4,window=200000,requests=16,seed=3").unwrap();
        assert_eq!(p.topology, TopologySpec::FatTree { k: 4 });
        assert_eq!(p.phases.len(), 3);
        assert_eq!(p.phases[1].partition, Some(200_000));
        assert_eq!(p.seed, 3);
        let zero = ScenarioSpec::parse("partition:k=4,window=0").unwrap();
        assert_eq!(zero.phases[1].partition, None, "a zero window cuts nothing");

        let f = ScenarioSpec::parse("fat_tree:k=12").unwrap();
        assert_eq!(f.topology, TopologySpec::FatTree { k: 12 });

        let a = ScenarioSpec::parse("as_graph:nodes=40,peers=4").unwrap();
        assert_eq!(a.topology, TopologySpec::AsGraph { nodes: 40, m: 2, peers: 4 });
    }

    #[test]
    fn parse_rejects_typos_instead_of_defaulting() {
        assert!(ScenarioSpec::parse("partition:windw=5").is_err());
        assert!(ScenarioSpec::parse("meteor:k=4").is_err());
        assert!(ScenarioSpec::parse("partition:k").is_err());
    }

    #[test]
    fn canned_partition_spec_warms_before_it_breaks() {
        let p = ScenarioSpec::partition(4, 300_000, 24, 1);
        assert!(p.phases[0].sweep_catalog, "phase 0 warms the caches");
        assert!(p.phases[0].partition.is_none());
        assert!(p.phases[1].partition.is_some());
        assert!(
            p.phases[2].zipf_s > p.phases[1].zipf_s,
            "recovery phase is a flash crowd (hotter Zipf head)"
        );
        assert!(p.content_store >= p.catalog, "cache holds the catalog");
    }
}
