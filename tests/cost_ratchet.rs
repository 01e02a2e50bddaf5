//! Allocation ceilings on the worker's per-packet path.
//!
//! A dataplane worker runs each batch through four public steps:
//! `parse_packet_into` (into a reused slot) → `ProgramCache::resolve` →
//! `DipRouter::process_parsed` → one `DipRouter::flush_metrics` per batch.
//! This file drives those steps on the test thread, behind a global
//! allocator that counts the allocations each thread makes, and pins how
//! many a packet may cost once tables and caches have warmed up:
//!
//! * DIP-32 and DIP-128 forwarding: none;
//! * every NDN interest kind — a first interest (PIT insert + FIB match),
//!   an aggregated one (a face added to the entry), a re-interest the
//!   content store answers: none;
//! * NDN data: at most one, the payload the content store keeps;
//! * an OPT router hop (`F_parm` → `F_MAC` → `F_mark`) over many sessions:
//!   none — the key derivation, the schedule, both MACs and the tag writes
//!   all stay on the stack.
//!
//! A change that puts a heap allocation back on one of these paths — a
//! per-packet parse vector, a one-port `Vec` verdict, a field copy, a
//! copied cache payload — fails here before it shows up as CPU time.

use dip::core::{parse_packet_into, DipRouter, ParsedPacket, Verdict};
use dip::crypto::DetRng;
use dip::dataplane::{Admission, ProgramCache};
use dip::fnops::RouteStore;
use dip::protocols::opt::OptSession;
use dip::protocols::{ip, ndn};
use dip::tables::fib::NextHop;
use dip::tables::Port;
use dip::telemetry::Registry;
use dip::wire::ipv4::Ipv4Addr;
use dip::wire::ipv6::Ipv6Addr;
use dip::wire::ndn::Name;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

thread_local! {
    /// Allocations (and reallocations) made by this thread.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts, per thread, the calls
/// that obtain memory. Tests run on parallel threads, so a process-wide
/// count would mix their allocations.
struct PerThreadCounting;

fn count_one() {
    // `try_with`: a thread being torn down may still free and allocate
    // after its slot is gone; those calls are simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The count is a `const`-initialized
// thread-local `Cell` without a destructor, so touching it never allocates
// or re-enters the allocator, and it publishes no data to other threads.
unsafe impl GlobalAlloc for PerThreadCounting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller guarantees `layout` has non-zero size.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller guarantees `ptr` came from this allocator with
        // this `layout`, and this allocator only hands out `System` blocks.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: same contract as `dealloc` for `ptr`/`layout`; the caller
        // guarantees `new_size` is non-zero and does not overflow.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: PerThreadCounting = PerThreadCounting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Packets per batch, as in the dataplane's default configuration.
const BATCH: usize = 32;

/// One packet: bytes as submitted and the ingress port.
type Packet = (Vec<u8>, Port);

/// A worker's router and program cache with its reused batch scratch.
struct Worker {
    router: DipRouter,
    cache: ProgramCache,
    parsed: Vec<ParsedPacket>,
    resolved: Vec<Option<usize>>,
    verdicts: Vec<Verdict>,
}

impl Worker {
    fn new(mut router: DipRouter, registry: &Registry) -> Self {
        router.attach_metrics(registry, &[("worker", "0")]);
        let cache =
            ProgramCache::new(router.registry().clone(), router.config().clone(), Admission::Lint);
        Worker {
            router,
            cache,
            parsed: vec![ParsedPacket::default(); BATCH],
            resolved: Vec::with_capacity(BATCH),
            verdicts: Vec::with_capacity(BATCH),
        }
    }

    /// Runs `packets` in batches of [`BATCH`] through the worker's steps;
    /// returns the allocations this thread made doing so. The verdicts of
    /// the last batch stay in `self.verdicts` (the buffer is reused).
    fn run(&mut self, packets: &mut [Packet]) -> u64 {
        let before = allocs();
        for batch in packets.chunks_mut(BATCH) {
            self.resolved.clear();
            let mut memo = None;
            for ((buf, _), slot) in batch.iter().zip(&mut self.parsed) {
                let ok = parse_packet_into(buf, slot);
                self.resolved.push(ok.then(|| self.cache.resolve(slot, buf, &mut memo)));
            }
            let start = Instant::now();
            self.verdicts.clear();
            for (((buf, in_port), res), parsed) in
                batch.iter_mut().zip(&self.resolved).zip(&self.parsed)
            {
                let idx = res.expect("ratchet packets parse");
                let program = self.cache.get(idx);
                assert!(program.admitted, "ratchet programs are admitted");
                let (verdict, _) =
                    self.router.process_parsed(buf, parsed, &program.chain, *in_port, 0);
                self.verdicts.push(verdict);
            }
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.router.flush_metrics(ns, batch.len() as u64);
        }
        allocs() - before
    }
}

#[test]
fn ip_forwarding_allocates_nothing_per_packet() {
    let mut routes = RouteStore::new();
    routes.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
    routes.insert_v6(Ipv6Addr::new([0xfd00, 0, 0, 0, 0, 0, 0, 0]), 16, NextHop::port(2));
    let mut router = DipRouter::new(0, [7; 16]);
    router.state_mut().routes = routes.rebuild();
    let registry = Registry::new();
    let mut worker = Worker::new(router, &registry);

    // DIP-32 and DIP-128 interleaved packet by packet, as the benchmark's
    // IP workload sends them.
    let mut rng = DetRng::seed_from_u64(0xc057);
    let mut packets = |n: usize| -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let host = rng.next_u32();
                let repr = if i % 2 == 0 {
                    let [a, b, c] = [(host >> 16) as u8, (host >> 8) as u8, host as u8];
                    ip::dip32_packet(Ipv4Addr::new(10, a, b, c), Ipv4Addr::new(1, 1, 1, 1), 64)
                } else {
                    let words = [0xfd00, (host >> 16) as u16, host as u16, 0, 0, 0, 0, 1];
                    ip::dip128_packet(Ipv6Addr::new(words), Ipv6Addr::new([0xfd01; 8]), 64)
                };
                (repr.to_bytes(&[0u8; 18]).unwrap(), 0)
            })
            .collect()
    };
    let mut warm = packets(4 * BATCH);
    worker.run(&mut warm);

    let mut measured = packets(64 * BATCH);
    let n = measured.len();
    let spent = worker.run(&mut measured);
    assert_eq!(spent, 0, "{spent} allocations over {n} IP packets");
    assert!(worker.verdicts.iter().all(|v| matches!(v, Verdict::Forward(_))));
    assert_eq!(registry.snapshot().get("dip_router_verdicts_total"), (n + 4 * BATCH) as u64);
}

/// The four NDN packet kinds of one round over `names`.
struct NdnRound {
    interests: Vec<Packet>,
    aggregated: Vec<Packet>,
    data: Vec<Packet>,
    reinterests: Vec<Packet>,
}

fn ndn_round(names: &[Name], rng: &mut DetRng) -> NdnRound {
    let nonce = |rng: &mut DetRng| rng.next_u32().to_be_bytes();
    let interest = |name: &Name, face: Port, rng: &mut DetRng| {
        (ndn::interest(name, 64).to_bytes(&nonce(rng)).unwrap(), face)
    };
    NdnRound {
        interests: names.iter().map(|n| interest(n, 1, rng)).collect(),
        aggregated: names.iter().map(|n| interest(n, 2, rng)).collect(),
        data: names
            .iter()
            .map(|n| {
                let payload = [n.compact32().to_be_bytes(); 16].concat();
                (ndn::data(n, 64).to_bytes(&payload).unwrap(), 9)
            })
            .collect(),
        reinterests: names.iter().map(|n| interest(n, 3, rng)).collect(),
    }
}

#[test]
fn ndn_interests_allocate_nothing_and_data_at_most_the_cached_payload() {
    const CS_CAPACITY: usize = 64;
    const PER_ROUND: usize = 32;
    const WARM_ROUNDS: usize = 64;
    const MEASURED_ROUNDS: usize = 8;
    let names: Vec<Name> = (0..PER_ROUND * (WARM_ROUNDS + MEASURED_ROUNDS))
        .map(|i| Name::parse(&format!("/ratchet/content/{i}")))
        .collect();
    let mut routes = RouteStore::new();
    for name in &names {
        routes.insert_name(name, NextHop::port(9));
    }
    let mut router = DipRouter::new(0, [7; 16]);
    router.state_mut().routes = routes.rebuild();
    router.state_mut().enable_content_store(CS_CAPACITY);
    let registry = Registry::new();
    let mut worker = Worker::new(router, &registry);

    let mut rng = DetRng::seed_from_u64(0xc058);
    let rounds: Vec<NdnRound> =
        names.chunks(PER_ROUND).map(|chunk| ndn_round(chunk, &mut rng)).collect();
    // [interest, aggregated, data, re-interest] allocations and packets.
    let mut spent = [0u64; 4];
    let mut seen = [0usize; 4];
    for (round, mut r) in rounds.into_iter().enumerate() {
        let mut kinds = [&mut r.interests, &mut r.aggregated, &mut r.data, &mut r.reinterests];
        for (kind, packets) in kinds.iter_mut().enumerate() {
            let n = worker.run(packets);
            let expected = |v: &Verdict| match kind {
                0 => *v == Verdict::Forward(dip::tables::Ports::one(9)),
                1 => *v == Verdict::Consumed,
                2 => matches!(v, Verdict::Forward(faces) if **faces == [1, 2]),
                _ => matches!(v, Verdict::RespondCached(_)),
            };
            assert!(worker.verdicts.iter().all(expected), "round {round} kind {kind}");
            // The warm-up rounds grow the PIT and content-store maps to
            // their steady size; only the rounds after them count.
            if round >= WARM_ROUNDS {
                spent[kind] += n;
                seen[kind] += packets.len();
            }
        }
    }
    let [interest, aggregated, data, reinterest] = spent;
    assert_eq!(interest, 0, "first interests: {interest} allocations over {}", seen[0]);
    assert_eq!(aggregated, 0, "aggregated interests: {aggregated} allocations over {}", seen[1]);
    assert_eq!(reinterest, 0, "cache-answered re-interests: {reinterest} allocations");
    assert!(
        data <= seen[2] as u64,
        "data: {data} allocations over {} packets, above the one cached payload each",
        seen[2]
    );
    // The content store evicted throughout (the steady state), and every
    // packet reached the registry through the per-batch flush.
    let snap = registry.snapshot();
    assert!(snap.get("dip_cs_evictions_total") > 0);
    assert_eq!(
        snap.get("dip_router_verdicts_total"),
        (4 * PER_ROUND * (WARM_ROUNDS + MEASURED_ROUNDS)) as u64
    );
}

#[test]
fn opt_packets_allocate_nothing_per_packet() {
    const SECRET: [u8; 16] = [7; 16];
    const PAYLOAD: [u8; 70] = [0x5a; 70];
    // Sessions through this router, so every packet derives its own
    // dynamic key and expands its own MAC schedule.
    let mut rng = DetRng::seed_from_u64(0xc059);
    let mut block = || {
        let mut b = [0u8; 16];
        rng.fill_bytes(&mut b);
        b
    };
    let sessions: Vec<OptSession> =
        (0..64).map(|_| OptSession::establish(block(), &block(), &[SECRET])).collect();
    let packets = |n: usize| -> Vec<Packet> {
        (0..n)
            .map(|i| {
                let repr = sessions[i % sessions.len()].packet(&PAYLOAD, i as u32, 64);
                (repr.to_bytes(&PAYLOAD).unwrap(), 0)
            })
            .collect()
    };
    // Both derivations of the dynamic key: dipopt's hoisted `SessionKdf`
    // (the dataplane's programs) and the per-packet one.
    for optimize in [true, false] {
        let mut router = DipRouter::new(0, SECRET);
        router.config_mut().default_port = Some(1);
        router.config_mut().optimize = optimize;
        let registry = Registry::new();
        let mut worker = Worker::new(router, &registry);
        let mut warm = packets(4 * BATCH);
        worker.run(&mut warm);

        let mut measured = packets(64 * BATCH);
        let n = measured.len();
        let spent = worker.run(&mut measured);
        assert_eq!(spent, 0, "{spent} allocations over {n} OPT packets, optimize = {optimize}");
        let forwarded = Verdict::Forward(dip::tables::Ports::one(1));
        assert!(worker.verdicts.iter().all(|v| *v == forwarded));
        // The hop rewrote the tags: no packet left as it came.
        assert!(measured.iter().zip(packets(n)).all(|((hop, _), (sent, _))| *hop != sent));
        assert_eq!(registry.snapshot().get("dip_router_verdicts_total"), (n + 4 * BATCH) as u64);
    }
}
