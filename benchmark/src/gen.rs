//! Workload generation: every input is a pure function of `(workload, seed)`.
//!
//! The generator owns its random numbers ([`Rng`], a SplitMix64) so that a
//! later change to the crates under test cannot move the inputs. Each packet
//! carries the verdict class it must receive *by construction*; the runner
//! compares those against the dataplane's registry, so a silently fast drop
//! path shows up as failures, never as throughput.

use dip_crypto::Block;
use dip_protocols::opt::OptSession;
use dip_protocols::{ip, ndn, ndn_opt, xia};
use dip_routes::{RouteDelta, RouteStore, RouteTables};
use dip_tables::fib::NextHop;
use dip_tables::{Port, XiaNextHop};
use dip_wire::ipv4::Ipv4Addr;
use dip_wire::ipv6::Ipv6Addr;
use dip_wire::ndn::Name;
use dip_wire::packet::DipRepr;
use dip_wire::triple::{FnKey, FnTriple};
use dip_wire::xia::{Dag, DagNode, Xid, XidType};
use std::collections::HashSet;
use std::time::Instant;

/// The permanent workload names, in canonical order.
pub const WORKLOADS: [&str; 5] = ["ip_forward", "ip_churn", "opt_secure", "ndn_cache", "mixed_six"];

/// Open-loop reference rates in packets/s, frozen as absolute numbers so
/// that a faster dataplane shows a lower sojourn at the *same* offered load
/// (README, "What a run does"). Where the seed commit's cost per packet is
/// steady (`opt_secure`, `ndn_cache`: compute-bound) the rate is half its
/// `fwd_pps` on the reference host, rounded to two digits. The others sit
/// lower, because a median sojourn taken next to an edge cannot be held
/// steady: the two IP workloads are bound by memory latency, which swings
/// two- to threefold on this host, so half of a good minute's `fwd_pps` is
/// near saturation in a bad one, and they share a quarter of `ip_forward`'s;
/// and at half of `mixed_six`'s the gap between arrivals equals the service
/// time of its dearest class (an OPT packet, 4.8 us), so its rate is the
/// largest round one whose gap is twice that.
pub fn reference_rate_pps(workload: &str) -> u64 {
    match workload {
        "ip_forward" | "ip_churn" => 180_000,
        "opt_secure" => 100_000,
        "ndn_cache" => 35_000,
        "mixed_six" => 100_000,
        other => panic!("unknown workload {other}"),
    }
}

/// One in this many `mixed_six` packets carries a never-seen FN program.
pub const NOVEL_EVERY: u64 = 4096;

/// The `ip_churn` storm: 2 000 route updates/s as 20 deltas of 100. (A
/// delta costs the seed 2-4 ms of dispatcher time in `commit`, 1.5-3 ms of
/// worker time picking it up and dropping the old tables, and as long again
/// to drain the backlog. At 200 deltas/s the pipeline is disturbed most of
/// the time and `lat_p50_us` sits on the edge between "most probes wait" and
/// "most do not", where no run length holds it steady; at 20/s under a
/// quarter of the probes wait even when the host is slow.)
pub const CHURN_DELTAS_PER_S: u64 = 20;
/// Route operations per delta.
pub const DELTA_ROUTES: usize = 100;

const ROUTER_SECRET: Block = [0x5d; 16];
const WIRE_MIN: usize = 64;

/// SplitMix64: small, seedable, and owned by the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn next_u128(&mut self) -> u128 {
        u128::from(self.next_u64()) << 64 | u128::from(self.next_u64())
    }

    /// Uniform in `0..bound` (`bound > 0`; the modulo bias is < 2^-40 here).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    pub fn block(&mut self) -> Block {
        self.next_u128().to_be_bytes()
    }

    pub fn fill(&mut self, dst: &mut [u8]) {
        for chunk in dst.chunks_mut(8) {
            let v = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&v[..chunk.len()]);
        }
    }
}

/// The accounting class a packet's verdict must fall in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Class {
    Forwarded = 0,
    Consumed = 1,
    Dropped = 2,
}

#[derive(Debug, Clone, Copy)]
struct Meta {
    off: u32,
    len: u16,
    port: u8,
    class: Class,
}

/// A packet pool in one contiguous buffer, so the dispatcher walks memory
/// linearly instead of chasing one heap allocation per packet.
#[derive(Debug, Default)]
pub struct Pool {
    data: Vec<u8>,
    meta: Vec<Meta>,
}

impl Pool {
    fn push(&mut self, bytes: &[u8], port: Port, class: Class) {
        let off = u32::try_from(self.data.len()).expect("pool under 4 GiB");
        let len = u16::try_from(bytes.len()).expect("packet under 64 KiB");
        let port = u8::try_from(port).expect("ingress ports are small");
        self.data.extend_from_slice(bytes);
        self.meta.push(Meta { off, len, port, class });
    }

    pub fn len(&self) -> usize {
        self.meta.len()
    }

    pub fn is_empty(&self) -> bool {
        self.meta.is_empty()
    }

    #[inline]
    pub fn get(&self, i: usize) -> (&[u8], Port, Class) {
        let m = self.meta[i];
        let start = m.off as usize;
        (&self.data[start..start + usize::from(m.len)], Port::from(m.port), m.class)
    }
}

/// How the worker's router is configured for a workload.
#[derive(Debug, Clone, Copy)]
pub struct RouterSpec {
    pub secret: Block,
    /// Static egress for chains that make no routing decision (OPT).
    pub default_port: Option<Port>,
    pub cs_capacity: Option<usize>,
}

/// Table operations one pool cycle performs, known by construction; with
/// the key counts of [`LeafKeys`] they turn per-call leaf timings into
/// per-packet shares.
#[derive(Debug, Default, Clone, Copy)]
pub struct TableOps {
    pub pit_inserts: u64,
    pub pit_consumes: u64,
    pub cs_gets: u64,
    pub cs_inserts: u64,
    pub name_lookups: u64,
    pub xia_lookups: u64,
}

/// The keys the packets carry, in packet order, for the traced run's leaf
/// calls (`routes.*`, `crypto.*`, `tables.*`). Empty where a workload does
/// not exercise the layer.
#[derive(Debug, Default)]
pub struct LeafKeys {
    pub ops: TableOps,
    pub v4: Vec<Ipv4Addr>,
    pub v6: Vec<Ipv6Addr>,
    pub names: Vec<u32>,
    pub xids: Vec<(XidType, Xid)>,
    pub session_ids: Vec<Block>,
    /// The 52 bytes `F_MAC` covers in each OPT block.
    pub mac_cover: Vec<[u8; 52]>,
}

/// The seeded route-update storm of `ip_churn`: withdraw / re-announce over
/// a flap pool of more-specifics. The covering prefixes the traffic was
/// drawn from are never touched, so every packet still forwards.
#[derive(Debug)]
pub struct Churn {
    rng: Rng,
    flaps4: Vec<(Ipv4Addr, u8, bool)>,
    flaps6: Vec<(Ipv6Addr, u8, bool)>,
}

impl Churn {
    pub fn next_delta(&mut self) -> RouteDelta {
        let mut delta = RouteDelta::new();
        for i in 0..DELTA_ROUTES {
            let port = 1 + self.rng.below(64) as u32;
            // Two IPv4 flaps for each IPv6 one, like the tables.
            if i % 3 == 2 {
                let k = self.rng.below(self.flaps6.len());
                let (addr, len, up) = &mut self.flaps6[k];
                if *up {
                    delta.withdraw_v6(*addr, *len);
                } else {
                    delta.announce_v6(*addr, *len, NextHop::port(port));
                }
                *up = !*up;
            } else {
                let k = self.rng.below(self.flaps4.len());
                let (addr, len, up) = &mut self.flaps4[k];
                if *up {
                    delta.withdraw_v4(*addr, *len);
                } else {
                    delta.announce_v4(*addr, *len, NextHop::port(port));
                }
                *up = !*up;
            }
        }
        delta
    }
}

/// Everything one run needs, built from `(name, seed)`.
pub struct Workload {
    pub name: &'static str,
    pub store: RouteStore,
    pub tables: RouteTables,
    /// Injected once, before anything is measured, to put PIT and CS in the
    /// state every pool cycle starts from.
    pub preamble: Pool,
    /// Cycled for as long as a phase lasts.
    pub pool: Pool,
    /// Never-seen programs, one consumed every [`NOVEL_EVERY`] packets.
    pub novel: Pool,
    pub churn: Option<Churn>,
    pub router: RouterSpec,
    pub keys: LeafKeys,
    /// Routes in the compiled tables, the seconds `rebuild` took, and the
    /// bytes it left allocated (0 unless the counting allocator is in).
    pub prefixes: usize,
    pub build_s: f64,
    pub table_bytes: u64,
}

/// The packet sequence a run injects: the pool cycled, with one novel
/// program spliced in (not substituted, so interest/data pairing holds)
/// every [`NOVEL_EVERY`] packets. Tallies the expected classes as it goes.
pub struct Stream<'a> {
    pool: &'a Pool,
    novel: &'a Pool,
    cursor: usize,
    novel_cursor: usize,
    pub sent: u64,
    pub expected: [u64; 3],
}

impl<'a> Stream<'a> {
    pub fn new(pool: &'a Pool, novel: &'a Pool) -> Self {
        Stream { pool, novel, cursor: 0, novel_cursor: 0, sent: 0, expected: [0; 3] }
    }

    /// Whether a pool this size can still hand out never-seen programs.
    pub fn novel_exhausted(&self) -> bool {
        !self.novel.is_empty() && self.novel_cursor > self.novel.len()
    }

    #[inline]
    pub fn next_packet(&mut self) -> (&'a [u8], Port, Class) {
        self.sent += 1;
        let (bytes, port, class) =
            if !self.novel.is_empty() && self.sent.is_multiple_of(NOVEL_EVERY) {
                self.novel_cursor += 1;
                self.novel.get((self.novel_cursor - 1) % self.novel.len())
            } else {
                let i = self.cursor;
                self.cursor = if i + 1 == self.pool.len() { 0 } else { i + 1 };
                self.pool.get(i)
            };
        self.expected[class as usize] += 1;
        (bytes, port, class)
    }
}

type Routes4 = Vec<(Ipv4Addr, u8, NextHop)>;
type Routes6 = Vec<(Ipv6Addr, u8, NextHop)>;

fn mask128(len: u8) -> u128 {
    if len == 0 {
        0
    } else {
        u128::MAX << (128 - u32::from(len))
    }
}

/// `n4` + `n6` distinct synthetic prefixes with BGP-like length mixes
/// (half the IPv4 table is /24s, the IPv6 table centres on /48).
fn ip_routes(rng: &mut Rng, n4: usize, n6: usize) -> (Routes4, Routes6) {
    const LEN4: [u8; 8] = [16, 18, 20, 22, 24, 24, 24, 24];
    const LEN6: [u8; 8] = [32, 40, 48, 48, 48, 56, 64, 64];
    let mut seen4 = HashSet::with_capacity(n4);
    let mut v4 = Vec::with_capacity(n4);
    while v4.len() < n4 {
        let len = LEN4[rng.below(LEN4.len())];
        let addr = (rng.next_u64() as u32) & (u32::MAX << (32 - u32::from(len)));
        if seen4.insert((addr, len)) {
            v4.push((Ipv4Addr::from_u32(addr), len, NextHop::port(1 + rng.below(64) as u32)));
        }
    }
    let mut seen6 = HashSet::with_capacity(n6);
    let mut v6 = Vec::with_capacity(n6);
    while v6.len() < n6 {
        let len = LEN6[rng.below(LEN6.len())];
        let addr = rng.next_u128() & mask128(len);
        if seen6.insert((addr, len)) {
            v6.push((Ipv6Addr::from_u128(addr), len, NextHop::port(1 + rng.below(64) as u32)));
        }
    }
    (v4, v6)
}

/// A destination inside a uniformly drawn prefix of `routes`.
fn dst4(rng: &mut Rng, routes: &Routes4) -> Ipv4Addr {
    let (prefix, len, _) = routes[rng.below(routes.len())];
    let host = (rng.next_u64() as u32) & !(u32::MAX << (32 - u32::from(len)));
    Ipv4Addr::from_u32(prefix.to_u32() | host)
}

fn dst6(rng: &mut Rng, routes: &Routes6) -> Ipv6Addr {
    let (prefix, len, _) = routes[rng.below(routes.len())];
    Ipv6Addr::from_u128(prefix.to_u128() | (rng.next_u128() & !mask128(len)))
}

fn bytes_at(repr: &DipRepr, wire_len: usize) -> Vec<u8> {
    repr.to_bytes_padded(wire_len.max(repr.header_len())).expect("generated packet is well formed")
}

fn dip32(rng: &mut Rng, routes: &Routes4, keys: &mut LeafKeys, wire_len: usize) -> Vec<u8> {
    let dst = dst4(rng, routes);
    keys.v4.push(dst);
    bytes_at(&ip::dip32_packet(dst, Ipv4Addr::from_u32(rng.next_u64() as u32), 64), wire_len)
}

fn dip128(rng: &mut Rng, routes: &Routes6, keys: &mut LeafKeys, wire_len: usize) -> Vec<u8> {
    let dst = dst6(rng, routes);
    keys.v6.push(dst);
    bytes_at(&ip::dip128_packet(dst, Ipv6Addr::from_u128(rng.next_u128()), 64), wire_len)
}

fn ip_store(v4: &Routes4, v6: &Routes6) -> RouteStore {
    let mut store = RouteStore::new();
    for &(addr, len, nh) in v4 {
        store.insert_v4(addr, len, nh);
    }
    for &(addr, len, nh) in v6 {
        store.insert_v6(addr, len, nh);
    }
    store
}

/// `n` names with pairwise distinct 32-bit compact forms (the PIT, the CS
/// and the compact name FIB are all keyed by that hash).
fn distinct_names(seed: u64, tag: &str, n: usize, seen: &mut HashSet<u32>) -> Vec<Name> {
    let mut out = Vec::with_capacity(n);
    let mut salt = 0u32;
    while out.len() < n {
        let name = Name::parse(&format!("/dipbench/{seed:x}/{tag}/{}/{salt}", out.len()));
        if seen.insert(name.compact32()) {
            out.push(name);
            salt = 0;
        } else {
            salt += 1;
        }
    }
    out
}

fn opt_packet(
    rng: &mut Rng,
    sessions: &[OptSession],
    keys: &mut LeafKeys,
    wire_len: usize,
    timestamp: u32,
) -> Vec<u8> {
    let session = &sessions[rng.below(sessions.len())];
    let mut payload = vec![0u8; wire_len - dip_protocols::header_sizes::OPT];
    rng.fill(&mut payload);
    let repr = session.packet(&payload, timestamp, 64);
    keys.session_ids.push(session.session_id);
    keys.mac_cover.push(repr.locations[..52].try_into().expect("OPT block is 68 bytes"));
    repr.to_bytes(&payload).expect("generated packet is well formed")
}

fn opt_sessions(rng: &mut Rng, n: usize) -> Vec<OptSession> {
    (0..n).map(|_| OptSession::establish(rng.block(), &rng.block(), &[ROUTER_SECRET])).collect()
}

fn finish(
    name: &'static str,
    mut store: RouteStore,
    router: RouterSpec,
    preamble: Pool,
    pool: Pool,
    keys: LeafKeys,
) -> Workload {
    let prefixes = store.route_count();
    let live_before = crate::alloc::snapshot().live;
    let t0 = Instant::now();
    let tables = store.rebuild();
    let build_s = t0.elapsed().as_secs_f64();
    let table_bytes = crate::alloc::snapshot().live.saturating_sub(live_before);
    Workload {
        name,
        store,
        tables,
        preamble,
        pool,
        novel: Pool::default(),
        churn: None,
        router,
        keys,
        prefixes,
        build_s,
        table_bytes,
    }
}

const PLAIN_ROUTER: RouterSpec =
    RouterSpec { secret: ROUTER_SECRET, default_port: None, cs_capacity: None };

fn ip_forward(name: &'static str, seed: u64) -> (Workload, Routes4, Routes6, Rng) {
    let mut rng = Rng::new(seed ^ 0x1f0_0001);
    let (v4, v6) = ip_routes(&mut rng, 250_000, 125_000);
    let mut keys = LeafKeys::default();
    let mut pool = Pool::default();
    for i in 0..65_536 {
        let bytes = if i % 2 == 0 {
            dip32(&mut rng, &v4, &mut keys, WIRE_MIN)
        } else {
            dip128(&mut rng, &v6, &mut keys, WIRE_MIN)
        };
        pool.push(&bytes, 0, Class::Forwarded);
    }
    let w = finish(name, ip_store(&v4, &v6), PLAIN_ROUTER, Pool::default(), pool, keys);
    (w, v4, v6, rng)
}

fn ip_churn(seed: u64) -> Workload {
    // Same seed stream as `ip_forward`: identical tables and traffic, so the
    // difference between the two workloads is the storm and nothing else.
    let (mut w, v4, v6, mut rng) = ip_forward("ip_churn", seed);
    let base4: HashSet<(u32, u8)> = v4.iter().map(|&(a, l, _)| (a.to_u32(), l)).collect();
    let mut flaps4 = Vec::with_capacity(4096);
    let mut seen4 = HashSet::new();
    while flaps4.len() < 4096 {
        let (prefix, len, _) = v4[rng.below(v4.len())];
        let flap_len = (len + 4 + rng.below(5) as u8).min(32);
        let extra = (rng.next_u64() as u32) & !(u32::MAX << (32 - u32::from(len)));
        let addr = (prefix.to_u32() | extra) & (u32::MAX << (32 - u32::from(flap_len)));
        if !base4.contains(&(addr, flap_len)) && seen4.insert((addr, flap_len)) {
            flaps4.push((Ipv4Addr::from_u32(addr), flap_len, false));
        }
    }
    let base6: HashSet<(u128, u8)> = v6.iter().map(|&(a, l, _)| (a.to_u128(), l)).collect();
    let mut flaps6 = Vec::with_capacity(2048);
    let mut seen6 = HashSet::new();
    while flaps6.len() < 2048 {
        let (prefix, len, _) = v6[rng.below(v6.len())];
        let flap_len = len + 4 + rng.below(13) as u8;
        let addr = (prefix.to_u128() | (rng.next_u128() & !mask128(len))) & mask128(flap_len);
        if !base6.contains(&(addr, flap_len)) && seen6.insert((addr, flap_len)) {
            flaps6.push((Ipv6Addr::from_u128(addr), flap_len, false));
        }
    }
    w.churn = Some(Churn { rng, flaps4, flaps6 });
    w
}

fn opt_secure(seed: u64) -> Workload {
    let mut rng = Rng::new(seed ^ 0x2f0_0002);
    let sessions = opt_sessions(&mut rng, 4096);
    let mut keys = LeafKeys::default();
    let mut pool = Pool::default();
    // The paper's Fig. 2 sizes, in equal thirds.
    for i in 0..16_384u32 {
        let wire_len = [128, 768, 1500][i as usize % 3];
        pool.push(&opt_packet(&mut rng, &sessions, &mut keys, wire_len, i), 0, Class::Forwarded);
    }
    let router = RouterSpec { secret: ROUTER_SECRET, default_port: Some(1), cs_capacity: None };
    finish("opt_secure", RouteStore::new(), router, Pool::default(), pool, keys)
}

const NDN_CATALOG: usize = 65_536;
const NDN_CS: usize = 8_192;
/// Visits between a name's interest and its data, and between its data and
/// its re-interest.
const NDN_LAG: usize = 256;

fn ndn_cache(seed: u64) -> Workload {
    let mut rng = Rng::new(seed ^ 0x3f0_0003);
    let names = distinct_names(seed, "c", NDN_CATALOG, &mut HashSet::new());
    let mut store = RouteStore::new();
    for name in &names {
        store.insert_name(name, NextHop::port(1 + rng.below(64) as u32));
    }
    let mut keys = LeafKeys::default();
    // One visit: a fresh interest (CS miss, PIT insert, FIB, forward), the
    // same name from a second face (aggregated), the data for the name
    // visited NDN_LAG ago (PIT consume, CS insert + eviction, forward), and
    // a re-interest for the name whose data arrived NDN_LAG ago (CS hit).
    // `have` says how far the exchange has got, so the phase-in can leave
    // out the packets whose precondition does not hold yet.
    let mut visit = |pool: &mut Pool, keys: &mut LeafKeys, v: usize, have: usize| {
        let at = |back: usize| &names[(v + NDN_CATALOG - back) % NDN_CATALOG];
        let mut request = [0u8; 8];
        request[..4].copy_from_slice(&(v as u32).to_be_bytes());
        for (face, class) in [(1, Class::Forwarded), (2, Class::Consumed)] {
            request[4] = face;
            let bytes = ndn::interest(at(0), 64).to_bytes(&request).expect("well formed");
            pool.push(&bytes, Port::from(face), class);
        }
        keys.names.push(at(0).compact32());
        if have >= NDN_LAG {
            let mut content = [0u8; 64];
            rng.fill(&mut content);
            let bytes = ndn::data(at(NDN_LAG), 64).to_bytes(&content).expect("well formed");
            pool.push(&bytes, 9, Class::Forwarded);
        }
        if have >= 2 * NDN_LAG {
            request[4] = 3;
            let bytes = ndn::interest(at(2 * NDN_LAG), 64).to_bytes(&request).expect("well formed");
            pool.push(&bytes, 3, Class::Consumed);
        }
    };
    // Phase-in over the tail of the catalog: long enough to fill the CS, so
    // the first timed packet already sees steady-state eviction.
    let phase_in = NDN_CS + 2 * NDN_LAG;
    let mut preamble = Pool::default();
    let mut scratch = LeafKeys::default();
    for step in 0..phase_in {
        visit(&mut preamble, &mut scratch, NDN_CATALOG - phase_in + step, step);
    }
    let mut pool = Pool::default();
    for v in 0..NDN_CATALOG {
        visit(&mut pool, &mut keys, v, usize::MAX);
    }
    let visits = NDN_CATALOG as u64;
    keys.ops = TableOps {
        pit_inserts: 2 * visits,
        pit_consumes: visits,
        cs_gets: 3 * visits,
        cs_inserts: visits,
        name_lookups: visits,
        xia_lookups: 0,
    };
    let router =
        RouterSpec { secret: ROUTER_SECRET, default_port: None, cs_capacity: Some(NDN_CS) };
    finish("ndn_cache", store, router, preamble, pool, keys)
}

/// Interest/data rounds between an interest and its data in `mixed_six`.
const MIX_LAG: usize = 64;

fn mixed_six(seed: u64) -> Workload {
    const ROUNDS: usize = 10_922; // six packets each: a 65 532-packet pool
    const PAYLOAD: usize = 64;
    let mut rng = Rng::new(seed ^ 0x5f0_0005);
    let (v4, v6) = ip_routes(&mut rng, 65_536, 32_768);
    let mut store = ip_store(&v4, &v6);
    let pairs = ROUNDS / 2;
    let mut seen = HashSet::new();
    let ndn_names = distinct_names(seed, "n", pairs, &mut seen);
    let sec_names = distinct_names(seed, "s", pairs, &mut seen);
    for name in ndn_names.iter().chain(&sec_names) {
        store.insert_name(name, NextHop::port(1 + rng.below(64) as u32));
    }
    // CID-with-AD-fallback DAGs: even CIDs are routed, odd ones are not and
    // take the fallback edge through the AD.
    let ad = Xid::derive(b"dipbench-ad");
    let hid = Xid::derive(b"dipbench-hid");
    store.insert_xia(XidType::Ad, ad, XiaNextHop::Port(4));
    let cids: Vec<Xid> = (0..4096u32)
        .map(|i| Xid::derive(format!("dipbench-cid-{seed:x}-{i}").as_bytes()))
        .collect();
    let routed_cids: HashSet<Xid> = cids.iter().step_by(2).copied().collect();
    for cid in &routed_cids {
        store.insert_xia(XidType::Cid, *cid, XiaNextHop::Port(5));
    }
    let sessions = opt_sessions(&mut rng, 1024);

    let mut keys = LeafKeys::default();
    let payload_of = |rng: &mut Rng| {
        let mut p = [0u8; PAYLOAD];
        rng.fill(&mut p);
        p
    };
    // Interest in even rounds, the data for the name asked MIX_LAG pairs ago
    // in odd rounds: PIT occupancy is steady across pool cycles.
    let mut preamble = Pool::default();
    for names in [&ndn_names, &sec_names] {
        for name in &names[pairs - MIX_LAG..] {
            let bytes =
                ndn::interest(name, 64).to_bytes(&payload_of(&mut rng)).expect("well formed");
            preamble.push(&bytes, 1, Class::Forwarded);
        }
    }
    let mut pool = Pool::default();
    for round in 0..ROUNDS {
        let asked = round / 2;
        let answered = (asked + pairs - MIX_LAG) % pairs;
        let ts = round as u32;
        pool.push(&dip32(&mut rng, &v4, &mut keys, 26 + PAYLOAD), 0, Class::Forwarded);
        pool.push(&dip128(&mut rng, &v6, &mut keys, 50 + PAYLOAD), 0, Class::Forwarded);

        let payload = payload_of(&mut rng);
        let (repr, port) = if round % 2 == 0 {
            (ndn::interest(&ndn_names[asked], 64), 1)
        } else {
            (ndn::data(&ndn_names[answered], 64), 9)
        };
        keys.names.push(ndn_names[if round % 2 == 0 { asked } else { answered }].compact32());
        pool.push(&repr.to_bytes(&payload).expect("well formed"), port, Class::Forwarded);

        let opt_len = dip_protocols::header_sizes::OPT + PAYLOAD;
        pool.push(&opt_packet(&mut rng, &sessions, &mut keys, opt_len, ts), 0, Class::Forwarded);

        let cid = cids[rng.below(cids.len())];
        let dag = Dag::direct_with_fallback(DagNode::sink(XidType::Cid, cid), ad, hid)
            .expect("three-node DAG is valid");
        keys.xids.push((XidType::Cid, cid));
        if !routed_cids.contains(&cid) {
            keys.xids.push((XidType::Ad, ad));
        }
        pool.push(
            &xia::packet(&dag, 64).to_bytes(&payload).expect("well formed"),
            0,
            Class::Forwarded,
        );

        let payload = payload_of(&mut rng);
        let (repr, port) = if round % 2 == 0 {
            (ndn_opt::interest(&sec_names[asked], 64), 1)
        } else {
            let session = &sessions[rng.below(sessions.len())];
            let repr = ndn_opt::data(session, &sec_names[answered], &payload, ts, 64);
            keys.session_ids.push(session.session_id);
            keys.mac_cover.push(repr.locations[4..56].try_into().expect("name + OPT block"));
            (repr, 9)
        };
        keys.names.push(sec_names[if round % 2 == 0 { asked } else { answered }].compact32());
        pool.push(&repr.to_bytes(&payload).expect("well formed"), port, Class::Forwarded);
    }

    // Per pair of rounds: two interests (NDN, NDN+OPT) each insert into the
    // PIT and look the name up; the two data packets each consume an entry.
    keys.ops = TableOps {
        pit_inserts: 2 * pairs as u64,
        pit_consumes: 2 * pairs as u64,
        name_lookups: 2 * pairs as u64,
        xia_lookups: keys.xids.len() as u64,
        ..TableOps::default()
    };
    let router = RouterSpec { default_port: Some(1), ..PLAIN_ROUTER };
    let mut w = finish("mixed_six", store, router, preamble, pool, keys);
    w.novel = novel_programs(&mut rng, &v4, &v6, PAYLOAD);
    w
}

/// Shifted-offset DIP-32 / DIP-128 variants: the address pair sits `lead`
/// bytes into a locations area with `tail` spare bytes after it. Each
/// `(family, lead, tail)` is a distinct program key, so each costs the
/// worker a compile and a `dipcheck` admission the first time it is seen.
fn novel_programs(rng: &mut Rng, v4: &Routes4, v6: &Routes6, payload: usize) -> Pool {
    let mut pool = Pool::default();
    for lead in 1..=64u16 {
        for tail in 0..128usize {
            for wide in [false, true] {
                let (addr_bytes, key) =
                    if wide { (16, FnKey::Match128) } else { (4, FnKey::Match32) };
                let mut locations = vec![0u8; usize::from(lead)];
                if wide {
                    locations.extend_from_slice(&dst6(rng, v6).0);
                    locations.extend_from_slice(&rng.next_u128().to_be_bytes());
                } else {
                    locations.extend_from_slice(&dst4(rng, v4).0);
                    locations.extend_from_slice(&(rng.next_u64() as u32).to_be_bytes());
                }
                locations.resize(locations.len() + tail, 0);
                let bits = addr_bytes * 8;
                let repr = DipRepr {
                    fns: vec![
                        FnTriple::router(lead * 8, bits, key),
                        FnTriple::router(lead * 8 + bits, bits, FnKey::Source),
                    ],
                    locations,
                    ..DipRepr::default()
                };
                pool.push(&bytes_at(&repr, repr.header_len() + payload), 0, Class::Forwarded);
            }
        }
    }
    // Shuffle, so consecutive novel programs differ in more than one byte.
    for i in (1..pool.meta.len()).rev() {
        pool.meta.swap(i, rng.below(i + 1));
    }
    pool
}

/// Builds `name`'s inputs from `seed`.
pub fn build(name: &str, seed: u64) -> Workload {
    match name {
        "ip_forward" => ip_forward("ip_forward", seed).0,
        "ip_churn" => ip_churn(seed),
        "opt_secure" => opt_secure(seed),
        "ndn_cache" => ndn_cache(seed),
        "mixed_six" => mixed_six(seed),
        other => panic!("unknown workload {other}"),
    }
}
