//! From seed to packets: traffic classes, protocol mixes, and the
//! deterministic trace generator.
//!
//! A [`WorkloadSpec`] is the complete, serializable-by-hand description
//! of an experiment's offered load: one seed, a protocol [`Mix`], an
//! arrival model, and the catalog/flow/table shape parameters. Two draws
//! matter and they are kept on **separate RNG streams**: packet *content*
//! (classes, names, flows — seeded from `seed ^ CONTENT_STREAM`) and
//! arrival *times* (seeded from `seed ^ TIME_STREAM`). Changing the
//! offered rate therefore rescales timestamps while the packet bytes stay
//! identical — which is what lets the MST search re-offer the same
//! packets at different rates and attribute every outcome change to load,
//! not to different traffic.

use crate::models::{ArrivalGen, ArrivalModel, BoundedPareto, Zipf};
use dip_core::DipRouter;
use dip_crypto::DetRng;
use dip_fnops::context::MacChoice;
use dip_protocols::opt::OptSession;
use dip_protocols::{ip, ndn, ndn_opt, xia};
use dip_routes::RouteStore;
use dip_tables::fib::NextHop;
use dip_tables::{Pit, XiaNextHop};
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::ndn::Name;
use dip_wire::xia::{Dag, DagNode, Xid, XidType};

/// Stream separator for content draws.
const CONTENT_STREAM: u64 = 0x636f_6e74_656e_7431;
/// Stream separator for arrival-time draws.
const TIME_STREAM: u64 = 0x7469_6d65_7374_7231;
/// The secret shared by every generated router (and the OPT session).
const ROUTER_SECRET: [u8; 16] = [0x42; 16];
/// PIT TTL for generated routers: effectively forever in virtual time,
/// far from `u64` overflow when added to trace timestamps.
const PIT_TTL: u64 = 1 << 62;
/// The ingress port every open-loop packet arrives on.
pub const INGRESS_PORT: u32 = 7;

/// One of the five paper protocols, or the NDN+OPT composition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficClass {
    /// IPv4 semantics over DIP (DIP-32).
    Ipv4,
    /// IPv6 semantics over DIP (DIP-128).
    Ipv6,
    /// NDN interests over a Zipf-popular catalog.
    Ndn,
    /// OPT source/path-authenticated session packets.
    Opt,
    /// XIA DAG packets (CID sink with AD fallback).
    Xia,
    /// NDN+OPT secure content delivery (data packets consuming PIT state).
    NdnOpt,
}

impl TrafficClass {
    /// Every class, in stable order.
    pub const ALL: [TrafficClass; 6] = [
        TrafficClass::Ipv4,
        TrafficClass::Ipv6,
        TrafficClass::Ndn,
        TrafficClass::Opt,
        TrafficClass::Xia,
        TrafficClass::NdnOpt,
    ];

    /// The snake_case label used in JSON lines and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            TrafficClass::Ipv4 => "ipv4",
            TrafficClass::Ipv6 => "ipv6",
            TrafficClass::Ndn => "ndn",
            TrafficClass::Opt => "opt",
            TrafficClass::Xia => "xia",
            TrafficClass::NdnOpt => "ndn_opt",
        }
    }

    /// Parses a CLI spelling (`ipv4`/`v4`, `ndn_opt`/`ndn+opt`, ...).
    pub fn parse(s: &str) -> Option<TrafficClass> {
        match s.trim().to_ascii_lowercase().as_str() {
            "ipv4" | "v4" | "dip32" => Some(TrafficClass::Ipv4),
            "ipv6" | "v6" | "dip128" => Some(TrafficClass::Ipv6),
            "ndn" => Some(TrafficClass::Ndn),
            "opt" => Some(TrafficClass::Opt),
            "xia" => Some(TrafficClass::Xia),
            "ndn_opt" | "ndn+opt" | "ndnopt" => Some(TrafficClass::NdnOpt),
            _ => None,
        }
    }

    /// Stable one-byte tag for trace hashing.
    fn tag(self) -> u8 {
        TrafficClass::ALL.iter().position(|c| *c == self).expect("class in ALL") as u8
    }
}

/// A weighted protocol mix.
#[derive(Debug, Clone)]
pub struct Mix {
    entries: Vec<(TrafficClass, u32)>,
    total: u32,
}

impl Mix {
    /// A mix from `(class, weight)` entries (zero weights are dropped;
    /// an empty result falls back to [`Mix::all`]).
    pub fn new(entries: Vec<(TrafficClass, u32)>) -> Self {
        let entries: Vec<_> = entries.into_iter().filter(|(_, w)| *w > 0).collect();
        if entries.is_empty() {
            return Mix::all();
        }
        let total = entries.iter().map(|(_, w)| w).sum();
        Mix { entries, total }
    }

    /// Only `class`.
    pub fn single(class: TrafficClass) -> Self {
        Mix { entries: vec![(class, 1)], total: 1 }
    }

    /// Every class at equal weight — the five-protocol (+ NDN+OPT)
    /// unification mix.
    pub fn all() -> Self {
        Mix { entries: TrafficClass::ALL.iter().map(|c| (*c, 1)).collect(), total: 6 }
    }

    /// The classes present.
    pub fn classes(&self) -> Vec<TrafficClass> {
        self.entries.iter().map(|(c, _)| *c).collect()
    }

    /// Weighted draw of one class.
    pub fn sample(&self, rng: &mut DetRng) -> TrafficClass {
        let mut ticket = rng.gen_index(self.total as usize) as u32;
        for (class, w) in &self.entries {
            if ticket < *w {
                return *class;
            }
            ticket -= w;
        }
        self.entries[self.entries.len() - 1].0
    }

    /// A display label: `ipv4:1+ndn:2`.
    pub fn label(&self) -> String {
        self.entries
            .iter()
            .map(|(c, w)| format!("{}:{}", c.label(), w))
            .collect::<Vec<_>>()
            .join("+")
    }
}

/// The complete description of an offered workload (rate excluded — the
/// rate is the MST search's variable).
#[derive(Debug, Clone)]
pub struct WorkloadSpec {
    /// Master seed; all determinism flows from here.
    pub seed: u64,
    /// Protocol mix.
    pub mix: Mix,
    /// Arrival process.
    pub arrival: ArrivalModel,
    /// Content-catalog size (NDN names, XIA CIDs).
    pub catalog_size: usize,
    /// Zipf exponent over the catalog.
    pub zipf_s: f64,
    /// Flow-size distribution (packets per IPv4/IPv6 flow).
    pub flow_sizes: BoundedPareto,
    /// Concurrently active flow slots per IP family.
    pub active_flows: usize,
    /// Payload bytes per packet (at least 8; the tail carries the
    /// distinctness counter).
    pub payload_len: usize,
    /// Synthetic routes per FIB family in generated routers
    /// (CRAM-style large tables).
    pub table_size: usize,
    /// Pre-seeded PIT exchanges for NDN+OPT data (the open-loop driver
    /// plays the producer side; traces reuse exchange names modulo this,
    /// so keep it above the per-trial packet count).
    pub pit_preseed: usize,
    /// Which block cipher backs `F_MAC`/`F_mark` on generated routers.
    /// The open-loop driver reads this off the built router, so an
    /// AES-configured spec prices MAC-verifying classes with the resubmit
    /// pass while plain forwarding classes stay untouched.
    pub mac_choice: MacChoice,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            seed: 0,
            mix: Mix::all(),
            arrival: ArrivalModel::Poisson,
            catalog_size: 512,
            zipf_s: 1.1,
            flow_sizes: BoundedPareto::new(1.2, 1, 1 << 12),
            active_flows: 64,
            payload_len: 64,
            table_size: 10_000,
            pit_preseed: 1 << 14,
            mac_choice: MacChoice::default(),
        }
    }
}

/// One timestamped packet of a generated trace.
#[derive(Debug, Clone)]
pub struct TracePacket {
    /// Virtual arrival time in nanoseconds.
    pub at_ns: u64,
    /// The class that produced it.
    pub class: TrafficClass,
    /// Wire bytes.
    pub bytes: Vec<u8>,
}

/// A generated trace: packets in non-decreasing arrival order.
#[derive(Debug, Clone)]
pub struct Trace {
    /// The packets.
    pub packets: Vec<TracePacket>,
    /// The rate the timestamps were drawn for.
    pub rate_pps: u64,
}

/// FNV-1a 64-bit.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

impl Trace {
    /// Number of packets.
    pub fn len(&self) -> usize {
        self.packets.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.packets.is_empty()
    }

    /// Virtual duration (timestamp of the last packet).
    pub fn duration_ns(&self) -> u64 {
        self.packets.last().map_or(0, |p| p.at_ns)
    }

    /// FNV-1a over timestamps, classes, and bytes — the reproducibility
    /// fingerprint (`same seed + same rate ⇒ same hash`).
    pub fn hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for p in &self.packets {
            fnv1a(&mut h, &p.at_ns.to_be_bytes());
            fnv1a(&mut h, &[p.class.tag()]);
            fnv1a(&mut h, &p.bytes);
        }
        h
    }

    /// FNV-1a over classes and bytes only — rate-independent, so every
    /// trial of one MST search shares it (`same seed ⇒ same hash`).
    pub fn content_hash(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325;
        for p in &self.packets {
            fnv1a(&mut h, &[p.class.tag()]);
            fnv1a(&mut h, &p.bytes);
        }
        h
    }
}

/// An active IP flow slot.
#[derive(Debug, Clone, Copy)]
struct FlowSlot {
    dst_low: u64,
    remaining: u64,
}

/// The stateful generator behind [`WorkloadSpec::generate`].
struct TraceGen {
    spec: WorkloadSpec,
    rng: DetRng,
    zipf: Zipf,
    v4_flows: Vec<FlowSlot>,
    v6_flows: Vec<FlowSlot>,
    session: OptSession,
    counter: u64,
    ndn_opt_seq: u64,
}

impl TraceGen {
    fn new(spec: &WorkloadSpec) -> TraceGen {
        TraceGen {
            spec: spec.clone(),
            rng: DetRng::seed_from_u64(spec.seed ^ CONTENT_STREAM),
            zipf: Zipf::new(spec.catalog_size, spec.zipf_s),
            v4_flows: vec![FlowSlot { dst_low: 0, remaining: 0 }; spec.active_flows.max(1)],
            v6_flows: vec![FlowSlot { dst_low: 0, remaining: 0 }; spec.active_flows.max(1)],
            session: opt_session(),
            counter: 0,
            ndn_opt_seq: 0,
        }
    }

    /// A fresh payload with the distinctness counter stamped in the tail
    /// (unique bytes ⇒ unique NDN nonces ⇒ repeats aggregate instead of
    /// tripping duplicate suppression).
    fn payload(&mut self) -> Vec<u8> {
        self.counter += 1;
        let len = self.spec.payload_len.max(8);
        let mut p = vec![0u8; len];
        let n = p.len();
        p[n - 8..].copy_from_slice(&self.counter.to_be_bytes());
        p
    }

    /// The next packet of `class`.
    fn packet_for(&mut self, class: TrafficClass) -> Vec<u8> {
        let payload = self.payload();
        match class {
            TrafficClass::Ipv4 => {
                let slot = self.rng.gen_index(self.v4_flows.len());
                if self.v4_flows[slot].remaining == 0 {
                    self.v4_flows[slot] = FlowSlot {
                        dst_low: u64::from(self.rng.next_u32() & 0x00ff_ffff),
                        remaining: self.spec.flow_sizes.sample(&mut self.rng),
                    };
                }
                self.v4_flows[slot].remaining -= 1;
                let dst = Ipv4Addr::from_u32(10 << 24 | self.v4_flows[slot].dst_low as u32);
                ip::dip32_packet(dst, Ipv4Addr::new(192, 168, 0, 1), 64)
                    .to_bytes(&payload)
                    .expect("well-formed dip32")
            }
            TrafficClass::Ipv6 => {
                let slot = self.rng.gen_index(self.v6_flows.len());
                if self.v6_flows[slot].remaining == 0 {
                    self.v6_flows[slot] = FlowSlot {
                        dst_low: self.rng.next_u64(),
                        remaining: self.spec.flow_sizes.sample(&mut self.rng),
                    };
                }
                self.v6_flows[slot].remaining -= 1;
                let dst =
                    Ipv6Addr::from_u128((0xfdaau128 << 112) | self.v6_flows[slot].dst_low as u128);
                ip::dip128_packet(dst, Ipv6Addr::new([0xfd00, 0, 0, 0, 0, 0, 0, 1]), 64)
                    .to_bytes(&payload)
                    .expect("well-formed dip128")
            }
            TrafficClass::Ndn => {
                let name = catalog_name(self.zipf.sample(&mut self.rng));
                ndn::interest(&name, 64).to_bytes(&payload).expect("well-formed interest")
            }
            TrafficClass::Opt => self
                .session
                .packet(&payload, self.counter as u32, 64)
                .to_bytes(&payload)
                .expect("well-formed opt"),
            TrafficClass::Xia => {
                let idx = self.zipf.sample(&mut self.rng);
                let dag = Dag::direct_with_fallback(
                    DagNode::sink(XidType::Cid, catalog_cid(idx)),
                    wl_ad(),
                    wl_hid(),
                )
                .expect("well-formed dag");
                xia::packet(&dag, 64).to_bytes(&payload).expect("well-formed xia")
            }
            TrafficClass::NdnOpt => {
                // Data packets playing the producer side of pre-recorded
                // exchanges: each consumes the PIT entry `build_router`
                // seeded for its exchange name.
                let idx = self.ndn_opt_seq % self.spec.pit_preseed.max(1) as u64;
                self.ndn_opt_seq += 1;
                let name = exchange_name(idx as usize);
                ndn_opt::data(&self.session, &name, &payload, self.counter as u32, 64)
                    .to_bytes(&payload)
                    .expect("well-formed ndn+opt data")
            }
        }
    }

    fn next(&mut self) -> (TrafficClass, Vec<u8>) {
        let class = self.spec.mix.sample(&mut self.rng);
        let bytes = self.packet_for(class);
        (class, bytes)
    }
}

/// The OPT session every generated packet and router share.
fn opt_session() -> OptSession {
    OptSession::establish([0x5a; 16], &[7; 16], &[ROUTER_SECRET])
}

/// Catalog name `i` (`/wl/cat/{i}`).
pub(crate) fn catalog_name(i: usize) -> Name {
    Name::parse(&format!("/wl/cat/{i}"))
}

/// NDN+OPT exchange name `i` (`/wl/x/{i}`).
fn exchange_name(i: usize) -> Name {
    Name::parse(&format!("/wl/x/{i}"))
}

/// Catalog CID `i`.
fn catalog_cid(i: usize) -> Xid {
    Xid::derive(format!("wl-cid-{i}").as_bytes())
}

fn wl_ad() -> Xid {
    Xid::derive(b"wl-ad")
}

fn wl_hid() -> Xid {
    Xid::derive(b"wl-hid")
}

impl WorkloadSpec {
    /// Generates `count` packets at `rate_pps`. Content draws and time
    /// draws use independent streams: the packet bytes depend only on
    /// `seed`, the timestamps on `(seed, rate_pps, arrival)`.
    pub fn generate(&self, rate_pps: u64, count: usize) -> Trace {
        let mut gen = TraceGen::new(self);
        let mut arrivals =
            ArrivalGen::new(self.arrival, rate_pps, DetRng::seed_from_u64(self.seed ^ TIME_STREAM));
        let packets = (0..count)
            .map(|_| {
                let (class, bytes) = gen.next();
                TracePacket { at_ns: arrivals.next_ns(), class, bytes }
            })
            .collect();
        Trace { packets, rate_pps }
    }

    /// Every route this spec's routers hold: covering routes for every
    /// class, `table_size` synthetic IPv4 and IPv6 prefixes and a quarter
    /// as many synthetic names (the CRAM-style "large database", drawn
    /// with replacement, so a repeated draw replaces its predecessor),
    /// and the content-catalog name and CID routes (CIDs only for even
    /// indices — odd ones exercise the XIA AD fallback). The routers of
    /// [`WorkloadSpec::build_router`] compile exactly this; a
    /// [`ChurnGen`](crate::ChurnGen) adds its flap pools to it.
    pub(crate) fn route_store(&self) -> RouteStore {
        let port = |rng: &mut DetRng| NextHop::port(rng.gen_range_inclusive(1, 64) as u32);
        let mut store = RouteStore::new();
        // The store masks each prefix to its length.
        store.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x7634 ^ 0x5f32_7537_9e01_a4c1);
        for _ in 0..self.table_size {
            let len = rng.gen_range_inclusive(8, 28) as u8;
            let addr = Ipv4Addr::from_u32(rng.next_u32());
            store.insert_v4(addr, len, port(&mut rng));
        }
        store.insert_v6(Ipv6Addr::new([0xfdaa, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(2));
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x7636 ^ 0x243f_6a88_85a3_08d3);
        for _ in 0..self.table_size {
            let len = rng.gen_range_inclusive(16, 64) as u8;
            let bits = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
            store.insert_v6(Ipv6Addr::from_u128(bits), len, port(&mut rng));
        }
        for i in 0..self.catalog_size {
            store.insert_name(&catalog_name(i), NextHop::port(3));
        }
        let mut rng = DetRng::seed_from_u64(self.seed ^ 0x766e ^ 0x1319_8a2e_0370_7344);
        for _ in 0..self.table_size / 4 {
            let mut text = String::from("/syn");
            for _ in 0..rng.gen_range_inclusive(2, 4) {
                text.push_str(&format!("/{:04x}", rng.next_u32() & 0xffff));
            }
            store.insert_name(&Name::parse(&text), port(&mut rng));
        }
        store.insert_xia(XidType::Ad, wl_ad(), XiaNextHop::Port(4));
        for i in (0..self.catalog_size).step_by(2) {
            store.insert_xia(XidType::Cid, catalog_cid(i), XiaNextHop::Port(5));
        }
        store
    }

    /// A router pre-seeded with everything this spec's traces assume: the
    /// routes of [`WorkloadSpec::route_store`] and `pit_preseed` pending
    /// NDN+OPT exchanges.
    ///
    /// A threaded run calls this once per worker; every worker gets the
    /// identical state, so flow sharding alone decides who owns a flow.
    pub fn build_router(&self, node_id: u64) -> DipRouter {
        let mut r = DipRouter::new(node_id, ROUTER_SECRET);
        r.config_mut().default_port = Some(1);
        // Workload routers run the dipopt-compiled plans; the equivalence
        // suite pins that this changes no verdict, only the cost model.
        r.config_mut().optimize = true;
        let st = r.state_mut();
        st.mac_choice = self.mac_choice;
        st.routes = self.route_store().rebuild();
        st.pit = Pit::new(self.pit_preseed + self.catalog_size + 1024, PIT_TTL);
        for i in 0..self.pit_preseed {
            let _ = st.pit.record_interest(
                exchange_name(i).compact32(),
                INGRESS_PORT,
                u64::MAX - i as u64,
                0,
            );
        }
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_core::Verdict;

    #[test]
    fn same_seed_same_bytes_any_rate() {
        let spec = WorkloadSpec { table_size: 200, pit_preseed: 64, ..Default::default() };
        let slow = spec.generate(10_000, 200);
        let fast = spec.generate(1_000_000, 200);
        assert_eq!(slow.content_hash(), fast.content_hash(), "content is rate-independent");
        assert_ne!(slow.hash(), fast.hash(), "timestamps differ across rates");
        let again = spec.generate(10_000, 200);
        assert_eq!(slow.hash(), again.hash(), "full reproducibility at equal rate");
    }

    /// The default spec's route set, pinned by a digest taken from the
    /// route dumps of the trie FIBs this constructor replaced: the same
    /// 9,332 IPv4, 10,000 IPv6, 3,012 name and 257 XIA routes, to the bit.
    #[test]
    fn default_route_set_is_pinned() {
        let store = WorkloadSpec::default().route_store();
        assert_eq!(store.route_count(), 9_332 + 10_000 + 3_012 + 257);
        assert_eq!(store.digest(), 0x256b_c753_91b5_1e72);
    }

    #[test]
    fn every_class_forwards_or_consumes_through_a_seeded_router() {
        let spec = WorkloadSpec {
            table_size: 500,
            catalog_size: 64,
            pit_preseed: 256,
            ..Default::default()
        };
        let mut router = spec.build_router(0);
        for class in TrafficClass::ALL {
            let sub = WorkloadSpec { mix: Mix::single(class), ..spec.clone() };
            let trace = sub.generate(100_000, 50);
            for (i, p) in trace.packets.iter().enumerate() {
                let mut buf = p.bytes.clone();
                let (verdict, _) = router.process(&mut buf, INGRESS_PORT, p.at_ns);
                assert!(
                    !matches!(verdict, Verdict::Drop(_) | Verdict::Notify(_)),
                    "{class:?} packet {i} got {verdict:?}"
                );
            }
        }
    }

    #[test]
    fn mix_sampling_covers_all_classes() {
        let mix = Mix::all();
        let mut rng = DetRng::seed_from_u64(1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..500 {
            seen.insert(mix.sample(&mut rng).label());
        }
        assert_eq!(seen.len(), 6, "all six classes drawn: {seen:?}");
        assert_eq!(Mix::new(vec![]).classes().len(), 6, "empty mix falls back to all");
        assert_eq!(Mix::single(TrafficClass::Ndn).label(), "ndn:1");
    }

    #[test]
    fn class_labels_round_trip() {
        for c in TrafficClass::ALL {
            assert_eq!(TrafficClass::parse(c.label()), Some(c));
        }
        assert_eq!(TrafficClass::parse("ndn+opt"), Some(TrafficClass::NdnOpt));
        assert_eq!(TrafficClass::parse("bogus"), None);
    }
}
