//! The traced run: per-layer numbers, all measured from this file.
//!
//! Three parts, in one process:
//!
//! 1. the threaded dataplane again, closed loop then open loop, with spans
//!    around the calls this harness makes into it (`submit_bytes`,
//!    `publish_routes`, `RouteStore::commit`, `metrics_snapshot`) and the
//!    registry read at window edges. Closed-loop windows alternate between
//!    spans off and spans on; the difference is `trace.overhead_frac`;
//! 2. a single-threaded replay of the same packets through the stages a
//!    worker executes, built from the crates' public functions, one span
//!    per stage per batch of 32;
//! 3. leaf calls (`routes.*`, `crypto.*`, `tables.*`, `verify.*`) on the
//!    keys the workload's own packets carry.
//!
//! Spans stay in memory and are written to `out/trace-<workload>.json` at
//! exit. The counting allocator is installed by `dipbench-traced` only.

use crate::alloc;
use crate::cli::Args;
use crate::gen::{self, Class, Stream, Workload};
use crate::report::{self, Metric, Outcome};
use crate::run::{self, ChurnDriver, ChurnTrace, Hooks, Injector, Window, BATCH, RING};
use crate::stats;
use dip_core::{parse_packet, ParsedPacket};
use dip_crypto::{CbcMac, MacAlgorithm, SessionKdf};
use dip_dataplane::ring::spsc;
use dip_dataplane::{Admission, Dataplane, FlowShard, PacketBatch, ProgramCache, RouteSnapshot};
use dip_tables::{ContentStore, Pit, Port};
use dip_telemetry::{Registry, Snapshot};
use dip_verify::{Checker, FnProgram, ResourceBudget};
use std::hint::black_box;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Spans written to the trace file; the metrics use every span recorded.
const SPAN_FILE_CAP: usize = 60_000;
/// Leaf calls timed per clock pair, and the least calls per leaf.
const LEAF_CHUNK: usize = 256;
const LEAF_CALLS: usize = 200_000;
/// Packets timed one by one through `DipRouter::process`.
const PROCESS_SAMPLES: usize = 100_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
enum Stage {
    DispatchBatch,
    Shard,
    RingPush,
    WorkerBatch,
    RingPop,
    BatchAdopt,
    Parse,
    Resolve,
    Exec,
    BatchRecycle,
    Submit,
    Commit,
    Publish,
    MetricsSnapshot,
}

const STAGE_NAMES: [&str; 14] = [
    "replay.dispatch_batch",
    "dataplane.shard",
    "dataplane.ring_push",
    "replay.worker_batch",
    "dataplane.ring_pop",
    "dataplane.batch_adopt",
    "core.parse",
    "dataplane.progcache_resolve",
    "core.exec",
    "dataplane.batch_recycle",
    "dataplane.submit_bytes",
    "routes.commit",
    "dataplane.publish_routes",
    "dataplane.metrics_snapshot",
];

/// One span: what ran, when, under which parent span, for which batch.
#[derive(Debug, Clone, Copy)]
struct Span {
    stage: Stage,
    /// 1-based index of the parent span; 0 for a root.
    parent: u32,
    batch: u32,
    start_ns: u64,
    end_ns: u64,
}

struct Trace {
    t0: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Records a span and returns its 1-based id.
    fn push(&mut self, stage: Stage, parent: u32, batch: u32, start_ns: u64, end_ns: u64) -> u32 {
        self.spans.push(Span { stage, parent, batch, start_ns, end_ns });
        self.spans.len() as u32
    }

    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "{{\"spans_recorded\": {}, \"spans\": [", self.spans.len())?;
        let n = self.spans.len().min(SPAN_FILE_CAP);
        for (i, s) in self.spans[..n].iter().enumerate() {
            writeln!(
                f,
                "{{\"id\": {}, \"name\": \"{}\", \"parent\": {}, \"batch\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
                i + 1,
                STAGE_NAMES[s.stage as usize],
                s.parent,
                s.batch,
                s.start_ns,
                s.end_ns,
                if i + 1 == n { "" } else { "," }
            )?;
        }
        writeln!(f, "]}}")?;
        f.flush()
    }
}

/// Closed-loop hooks of the traced run: even windows run plain, odd windows
/// with spans on.
struct ArmHooks<'t> {
    trace: &'t mut Trace,
    edges: Vec<Snapshot>,
    allocs: Vec<alloc::AllocSnapshot>,
    batches: u32,
    occupancy_sum: u64,
    occupancy_samples: u64,
}

impl ArmHooks<'_> {
    /// `edges[i]` opens window `i`, so an even count means an odd window.
    fn spans_on(&self) -> bool {
        self.edges.len().is_multiple_of(2)
    }
}

impl Hooks for ArmHooks<'_> {
    fn edge(&mut self, dp: &Dataplane) {
        self.allocs.push(alloc::snapshot());
        let t0 = Instant::now();
        let snap = dp.metrics_snapshot();
        let t1 = Instant::now();
        let (a, b) = (self.trace.at(t0), self.trace.at(t1));
        self.trace.push(Stage::MetricsSnapshot, 0, 0, a, b);
        self.edges.push(snap);
    }

    #[inline]
    fn batch(&mut self, dp: &Dataplane, start: Instant, end: Instant) {
        if !self.spans_on() {
            return;
        }
        self.batches += 1;
        // Every 32nd batch: a span, and a look at the ring.
        if self.batches.is_multiple_of(32) {
            let (a, b) = (self.trace.at(start), self.trace.at(end));
            self.trace.push(Stage::Submit, 0, self.batches, a, b);
            self.occupancy_sum += dp.ring_occupancy()[0] as u64;
            self.occupancy_samples += 1;
        }
    }
}

fn delta(edges: &[Snapshot], name: &str) -> u64 {
    edges[edges.len() - 1].get(name) - edges[0].get(name)
}

/// One packet on the replay's ring, shaped like the runtime's job.
struct Job {
    packet: Vec<u8>,
    seq: u64,
    in_port: Port,
}

/// What the staged single-threaded replay measured.
#[derive(Default)]
struct Replay {
    packets: u64,
    /// Total ns per stage, indexed by `Stage as usize`.
    stage_ns: [u64; 14],
    /// `resolve` span ns of batches without / with a program-cache miss.
    resolve_hit_ns: Vec<u64>,
    resolve_miss_ns: Vec<u64>,
    observed: [u64; 3],
    expected: [u64; 3],
}

impl Replay {
    fn per_pkt(&self, stage: Stage) -> f64 {
        self.stage_ns[stage as usize] as f64 / self.packets.max(1) as f64
    }
}

/// Replays the workload through the stages a worker executes —
/// `FlowShard::shard_of` → `ring::spsc` push/pop → `PacketBatch::adopt` →
/// `parse_packet` → `ProgramCache::resolve` → `DipRouter::process_parsed` →
/// `recycle_all` — on this one thread, one span per stage per batch.
fn replay(w: &Workload, trace: &mut Trace, budget: Duration) -> Replay {
    let registry = Registry::new();
    let mut router = run::make_router(w.router, true);
    // The dataplane's workers run with metrics attached (a clock read and
    // a histogram update per packet); so does the replay.
    router.attach_metrics(&registry, &[("worker", "0")]);
    RouteSnapshot::from_tables(w.tables.clone()).apply(router.state_mut());
    let mut cache =
        ProgramCache::new(router.registry().clone(), router.config().clone(), Admission::Lint);
    let shard = FlowShard::new(1);
    let (mut ring_tx, mut ring_rx) = spsc::<Job>(RING);
    let (mut recycle_tx, mut recycle_rx) = spsc::<Vec<u8>>(RING + BATCH);
    let mut stash: Vec<Vec<u8>> = Vec::new();
    let mut batch = PacketBatch::new(BATCH);
    let mut jobs: Vec<Job> = Vec::with_capacity(BATCH);
    let mut parsed: Vec<Option<ParsedPacket>> = Vec::with_capacity(BATCH);
    let mut resolved: Vec<usize> = Vec::with_capacity(BATCH);
    let mut out = Replay::default();
    let mut seq = 0u64;
    let mut batch_id = 0u32;

    // One batch through every stage; `record` turns the spans on.
    let mut step = |packets: &[(&[u8], Port, Class)],
                    record: Option<&mut Trace>,
                    out: &mut Replay| {
        let clock = Instant::now;
        let t_shard = clock();
        for &(bytes, _, _) in packets {
            black_box(shard.shard_of(bytes));
        }
        let t_push = clock();
        for &(bytes, in_port, _) in packets {
            while let Some(b) = recycle_rx.try_pop() {
                stash.push(b);
            }
            let mut packet = stash.pop().unwrap_or_default();
            packet.clear();
            packet.extend_from_slice(bytes);
            seq += 1;
            assert!(ring_tx.try_push(Job { packet, seq, in_port }).is_ok(), "ring holds a batch");
        }
        let t_pop = clock();
        while let Some(job) = ring_rx.try_pop() {
            jobs.push(job);
        }
        let t_adopt = clock();
        for job in jobs.drain(..) {
            if let Some(old) = batch.adopt(job.packet, job.seq, job.in_port, 0) {
                let _ = recycle_tx.try_push(old);
            }
        }
        let t_parse = clock();
        parsed.clear();
        for pos in 0..batch.len() {
            parsed.push(parse_packet(&batch.slot(batch.live()[pos]).buf));
        }
        let t_resolve = clock();
        let misses_before = cache.stats().misses;
        resolved.clear();
        let mut memo = None;
        for (pos, p) in parsed.iter().enumerate() {
            let p = p.as_ref().expect("generated packets parse");
            resolved.push(cache.resolve(p, &batch.slot(batch.live()[pos]).buf, &mut memo));
        }
        let missed = cache.stats().misses != misses_before;
        let t_exec = clock();
        for (pos, &(_, _, class)) in packets.iter().enumerate() {
            let slot_idx = batch.live()[pos];
            let slot = batch.slot_mut(slot_idx);
            let program = cache.get(resolved[pos]);
            assert!(program.admitted, "generated programs are admitted");
            let p = parsed[pos].as_ref().expect("generated packets parse");
            let (verdict, _) =
                router.process_parsed(&mut slot.buf, p, &program.chain, slot.in_port, slot.now);
            out.observed[run::class_of(&verdict) as usize] += 1;
            out.expected[class as usize] += 1;
        }
        let t_recycle = clock();
        batch.recycle_all();
        let t_end = clock();

        if let Some(trace) = record {
            batch_id += 1;
            let at = |t: Instant| trace.at(t);
            let marks =
                [t_shard, t_push, t_pop, t_adopt, t_parse, t_resolve, t_exec, t_recycle, t_end]
                    .map(at);
            let dispatch = trace.push(Stage::DispatchBatch, 0, batch_id, marks[0], marks[2]);
            trace.push(Stage::Shard, dispatch, batch_id, marks[0], marks[1]);
            trace.push(Stage::RingPush, dispatch, batch_id, marks[1], marks[2]);
            let worker = trace.push(Stage::WorkerBatch, 0, batch_id, marks[2], marks[8]);
            let stages = [
                Stage::RingPop,
                Stage::BatchAdopt,
                Stage::Parse,
                Stage::Resolve,
                Stage::Exec,
                Stage::BatchRecycle,
            ];
            for (i, stage) in stages.into_iter().enumerate() {
                trace.push(stage, worker, batch_id, marks[2 + i], marks[3 + i]);
                out.stage_ns[stage as usize] += marks[3 + i] - marks[2 + i];
            }
            out.stage_ns[Stage::Shard as usize] += marks[1] - marks[0];
            out.stage_ns[Stage::RingPush as usize] += marks[2] - marks[1];
            out.packets += packets.len() as u64;
            let resolve_ns = marks[6] - marks[5];
            if missed {
                out.resolve_miss_ns.push(resolve_ns);
            } else if packets.len() == BATCH {
                out.resolve_hit_ns.push(resolve_ns);
            }
        }
    };

    let mut pending: Vec<(&[u8], Port, Class)> = Vec::with_capacity(BATCH);
    for i in 0..w.preamble.len() {
        pending.push(w.preamble.get(i));
        if pending.len() == BATCH || i + 1 == w.preamble.len() {
            step(&pending, None, &mut out);
            pending.clear();
        }
    }
    let mut stream = Stream::new(&w.pool, &w.novel);
    let started = Instant::now();
    let warm_until = started + budget / 10;
    let until = started + budget;
    loop {
        pending.clear();
        for _ in 0..BATCH {
            pending.push(stream.next_packet());
        }
        let now = Instant::now();
        if now >= until {
            break;
        }
        step(&pending, (now >= warm_until).then_some(&mut *trace), &mut out);
    }
    out
}

/// Times `f` over `keys` (cycled) in chunks of [`LEAF_CHUNK`] calls per
/// clock pair. Returns `(ns per call, calls)`; `(0, 0)` without keys.
fn time_calls<K>(keys: &[K], mut f: impl FnMut(&K)) -> (f64, u64) {
    if keys.is_empty() {
        return (0.0, 0);
    }
    let mut calls = 0usize;
    let mut ns = 0u64;
    let mut at = 0usize;
    // An untimed pass first: the run's own traffic finds the structure warm.
    for k in keys.iter().take(LEAF_CALLS / 8) {
        f(k);
    }
    while calls < LEAF_CALLS {
        let t = Instant::now();
        for _ in 0..LEAF_CHUNK {
            f(&keys[at]);
            at = if at + 1 == keys.len() { 0 } else { at + 1 };
        }
        ns += t.elapsed().as_nanos() as u64;
        calls += LEAF_CHUNK;
    }
    (ns as f64 / calls as f64, calls as u64)
}

/// PIT and CS leaf timings at the workload's own occupancy.
#[derive(Default)]
struct TableLeaves {
    pit_insert_ns: f64,
    pit_consume_ns: f64,
    cs_get_ns: f64,
    cs_insert_ns: f64,
    cs_hit_ratio: f64,
    pit_bytes_per_entry: f64,
    cs_bytes_per_entry: f64,
    /// Visits timed, and visits timed with a content store.
    calls: u64,
    cs_calls: u64,
}

/// Drives a `Pit` and (when the workload has one) a `ContentStore` through
/// the exchange pattern of the workload — interest, second-face interest,
/// data `lag` visits later, re-interest `lag` after that — over its own
/// names, timing each operation kind in groups of 32 visits.
fn table_leaves(names: &[u32], lag: usize, cs_capacity: Option<usize>) -> TableLeaves {
    const GROUP: usize = 32;
    const CONTENT: [u8; 64] = [0xc5; 64];
    let mut out = TableLeaves::default();
    if names.is_empty() {
        return out;
    }
    let n = names.len();
    assert!(n > cs_capacity.unwrap_or(0) + 2 * lag + GROUP, "catalog outlives the cache");
    let name = |v: usize| names[v % n];

    // Bytes per entry, on fresh tables filled to the workload's occupancy.
    let before = alloc::snapshot().live;
    let mut pit: Pit<u32> = Pit::new(65_536, u64::MAX / 2);
    for v in 0..lag {
        let _ = pit.record_interest(name(v), 1, v as u64, 0);
        let _ = pit.record_interest(name(v), 2, !(v as u64), 0);
    }
    out.pit_bytes_per_entry = (alloc::snapshot().live.saturating_sub(before)) as f64 / lag as f64;
    drop(pit);
    if let Some(capacity) = cs_capacity {
        let before = alloc::snapshot().live;
        let mut cs: ContentStore<u32, Vec<u8>> = ContentStore::new(capacity);
        for v in 0..capacity {
            cs.insert(name(v), CONTENT.to_vec(), 0);
        }
        out.cs_bytes_per_entry =
            (alloc::snapshot().live.saturating_sub(before)) as f64 / capacity as f64;
    }

    let mut pit: Pit<u32> = Pit::new(65_536, u64::MAX / 2);
    let mut cs = cs_capacity.map(ContentStore::<u32, Vec<u8>>::new);
    let phase_in = cs_capacity.unwrap_or(0) + 2 * lag;
    let groups = (phase_in + 2 * n.min(16_384)) / GROUP;
    let (mut ns, mut hits, mut gets) = ([0u64; 4], 0u64, 0u64);
    for g in 0..groups {
        let v0 = g * GROUP;
        let timed = v0 >= phase_in;
        let t0 = Instant::now();
        for v in v0..v0 + GROUP {
            black_box(pit.record_interest(name(v), 1, v as u64, 0).is_ok());
            black_box(pit.record_interest(name(v), 2, !(v as u64), 0).is_ok());
        }
        let t1 = Instant::now();
        if v0 >= lag {
            for v in v0..v0 + GROUP {
                black_box(pit.consume_classified(&name(v + n - lag), 0));
            }
        }
        let t2 = Instant::now();
        if let (Some(cs), true) = (cs.as_mut(), v0 >= lag) {
            for v in v0..v0 + GROUP {
                black_box(cs.insert(name(v + n - lag), CONTENT.to_vec(), 0));
            }
        }
        let t3 = Instant::now();
        if let (Some(cs), true) = (cs.as_mut(), v0 >= 2 * lag) {
            for v in v0..v0 + GROUP {
                // Both fresh interests miss; the re-interest hits.
                let found = [
                    cs.get(&name(v)).is_some(),
                    cs.get(&name(v)).is_some(),
                    cs.get(&name(v + n - 2 * lag)).is_some(),
                ];
                if timed {
                    gets += 3;
                    hits += found.iter().filter(|&&h| h).count() as u64;
                }
            }
        }
        let t4 = Instant::now();
        if timed {
            for (slot, (a, b)) in ns.iter_mut().zip([(t0, t1), (t1, t2), (t2, t3), (t3, t4)]) {
                *slot += (b - a).as_nanos() as u64;
            }
            out.calls += GROUP as u64;
        }
    }
    let visits = out.calls.max(1) as f64;
    out.pit_insert_ns = ns[0] as f64 / (2.0 * visits);
    out.pit_consume_ns = ns[1] as f64 / visits;
    if cs.is_some() {
        out.cs_calls = out.calls;
        out.cs_insert_ns = ns[2] as f64 / visits;
        out.cs_get_ns = ns[3] as f64 / (3.0 * visits);
        out.cs_hit_ratio = hits as f64 / gets.max(1) as f64;
    }
    out
}

/// `DipRouter::process`, whole, one packet at a time on a fresh sequential
/// router: the analogue of the paper's Fig. 2. Returns sorted ns.
fn process_samples(w: &Workload) -> Vec<u64> {
    let mut router = run::make_router(w.router, false);
    RouteSnapshot::from_tables(w.tables.clone()).apply(router.state_mut());
    let mut buf = Vec::with_capacity(2048);
    let mut feed = |bytes: &[u8], port: Port| {
        buf.clear();
        buf.extend_from_slice(bytes);
        let t = Instant::now();
        black_box(router.process(&mut buf, port, 0));
        t.elapsed().as_nanos() as u64
    };
    for i in 0..w.preamble.len() {
        let (bytes, port, _) = w.preamble.get(i);
        feed(bytes, port);
    }
    let mut stream = Stream::new(&w.pool, &w.novel);
    let mut ns: Vec<u64> = (0..PROCESS_SAMPLES)
        .map(|_| {
            let (bytes, port, _) = stream.next_packet();
            feed(bytes, port)
        })
        .collect();
    ns.sort_unstable();
    ns
}

/// `Checker::check` on the never-seen programs, as the program cache runs
/// it on a miss. Returns `(µs per check, checks)`.
fn check_leaf(w: &Workload) -> (f64, u64) {
    let router = run::make_router(w.router, true);
    let checker = Checker::new()
        .with_semantics(router.registry().clone())
        .with_budget(ResourceBudget::software());
    let programs: Vec<FnProgram> = (0..w.novel.len().min(2048))
        .map(|i| {
            let p = parse_packet(w.novel.get(i).0).expect("generated packets parse");
            FnProgram::new(p.triples.clone(), p.loc_len, p.parallel)
        })
        .collect();
    let mut admitted = true;
    let (ns, calls) = time_calls(&programs, |p| admitted &= !checker.check(p).has_errors());
    assert!(admitted, "dipcheck admits every generated program");
    (ns / 1e3, calls)
}

pub fn main_traced(args: &Args) -> i32 {
    assert!(alloc::installed(), "dipbench-traced installs the counting allocator");
    let rate = gen::reference_rate_pps(args.workload);
    // A third of the time in closed-loop half-second windows, spans off/on.
    let pairs = (args.seconds / 3).max(1) as usize;
    let arm = Duration::from_millis(500);
    let open_for = Duration::from_secs((args.seconds / 5).max(1));
    let replay_for = Duration::from_millis((args.seconds * 300).max(1000));
    let mut trace = Trace { t0: Instant::now(), spans: Vec::with_capacity(1 << 20) };

    let mut outcome = Outcome::default();
    let run::Ready { mut w, dp, expected } = run::set_up(args.workload, args.seed, &mut outcome);

    // Part 1: the threaded dataplane, spans around the harness's own calls.
    let refreshes =
        dp.registry().counter("dip_worker_epoch_refreshes_total", "", &[("worker", "0")]);
    let mut churn = w.churn.as_mut().map(|c| ChurnDriver::new(c, &mut w.store));
    if let Some(c) = churn.as_mut() {
        c.trace = Some(ChurnTrace { refreshes, deltas: Vec::new() });
    }
    let mut inj = Injector {
        dp,
        stream: Stream::new(&w.pool, &w.novel),
        churn,
        submitted: w.preamble.len() as u64,
    };
    run::closed_loop(&mut inj, 1, Duration::from_secs(1), &mut run::NoHooks);
    let mut hooks = ArmHooks {
        trace: &mut trace,
        edges: Vec::new(),
        allocs: Vec::new(),
        batches: 0,
        occupancy_sum: 0,
        occupancy_samples: 0,
    };
    let closed = run::closed_loop(&mut inj, 2 * pairs, arm, &mut hooks);
    let ArmHooks { edges, allocs, occupancy_sum, occupancy_samples, .. } = hooks;
    inj.drain();
    let open = run::open_loop(&mut inj, rate, open_for);
    inj.drain();

    let Injector { dp, stream, churn, submitted, .. } = inj;
    let report = dp.shutdown();
    outcome.attempted += submitted;
    run::check_accounting(&report.registry.snapshot(), expected, &stream, submitted, &mut outcome);
    let pit_occupancy = report.workers[0].router.state().pit.len();

    let (off, on): (Vec<&Window>, Vec<&Window>) =
        (closed.iter().step_by(2).collect(), closed.iter().skip(1).step_by(2).collect());
    let med = |ws: &[&Window], f: fn(&Window) -> f64| {
        stats::median(&ws.iter().map(|w| f(w)).collect::<Vec<_>>())
    };
    let pps_off = med(&off, Window::pps);
    let pps_on = med(&on, Window::pps);
    let cpu_ns_per_pkt = med(&off, Window::cpu_ns_per_pkt);
    let busy =
        stats::median(&closed.iter().map(|w| w.cpu_ns as f64 / 1e9 / w.secs).collect::<Vec<_>>());
    let processed: u64 = closed.iter().map(|w| w.processed).sum();
    let closed_secs: f64 = closed.iter().map(|w| w.secs).sum();
    // Allocations over the plain windows only (window i spans allocs[i..=i+1]).
    let (mut alloc_n, mut alloc_b, mut alloc_pkts) = (0u64, 0u64, 0u64);
    for (i, w) in closed.iter().enumerate().step_by(2) {
        alloc_n += allocs[i + 1].allocs - allocs[i].allocs;
        alloc_b += allocs[i + 1].bytes - allocs[i].bytes;
        alloc_pkts += w.processed;
    }
    let hits = delta(&edges, "dip_program_cache_hits_total");
    let misses = delta(&edges, "dip_program_cache_misses_total");
    let deltas = churn.as_ref().map_or(0, |c| c.deltas);
    let delta_spans = churn.and_then(|c| c.trace).map_or(Vec::new(), |t| t.deltas);
    for d in &delta_spans {
        let start = trace.at(d.at);
        let committed = start + d.commit_ns;
        trace.push(Stage::Commit, 0, 0, start, committed);
        trace.push(Stage::Publish, 0, 0, committed, committed + d.publish_ns);
    }
    let mut commit_ns: Vec<u64> = delta_spans.iter().map(|d| d.commit_ns).collect();
    let mut pickup_ns: Vec<u64> = delta_spans.iter().map(|d| d.pickup_ns).collect();
    if pickup_ns.contains(&u64::MAX) {
        outcome.problems.push("a published snapshot was not picked up within 10 ms".into());
    }
    let open_t0 = trace.at(open.started);
    for &(start, ns) in &open.submit_spans {
        trace.push(Stage::Submit, 0, 0, open_t0 + start, open_t0 + start + ns);
    }
    let mut submit_ns: Vec<u64> = open.submit_spans.iter().map(|s| s.1).collect();
    submit_ns.sort_unstable();
    commit_ns.sort_unstable();
    pickup_ns.sort_unstable();

    // Part 2: the staged replay. Part 3: leaves.
    let rp = replay(&w, &mut trace, replay_for);
    outcome.attempted += rp.expected.iter().sum::<u64>();
    outcome.failed += run::accounting_failures(rp.observed, rp.expected, rp.expected.iter().sum());
    let process_ns = process_samples(&w);
    let k = &w.keys;
    let t = &w.tables;
    let (v4_ns, v4_calls) = time_calls(&k.v4, |a| {
        black_box(t.lookup_v4(*a));
    });
    let (v6_ns, v6_calls) = time_calls(&k.v6, |a| {
        black_box(t.lookup_v6(*a));
    });
    let (name_ns, name_calls) = time_calls(&k.names, |n| {
        black_box(t.lookup_name_compact(*n));
    });
    let (xia_ns, xia_calls) = time_calls(&k.xids, |(ty, xid)| {
        black_box(t.lookup_xia(*ty, xid));
    });
    let kdf = SessionKdf::new(&w.router.secret);
    let (kdf_ns, kdf_calls) = time_calls(&k.session_ids, |sid| {
        black_box(kdf.derive(sid));
    });
    let key = kdf.derive(&[7; 16]);
    let (mac_ns, mac_calls) = time_calls(&k.mac_cover, |cover| {
        black_box(CbcMac::new_2em(&key).mac(cover));
    });
    let (mark_ns, _) = time_calls(&k.mac_cover, |cover| {
        black_box(CbcMac::new_2em(&key).mac(&cover[..16]));
    });
    // The key schedule both MACs rebuild per packet, on its own.
    let (keysched_ns, _) = time_calls(&k.session_ids, |sid| {
        black_box(CbcMac::new_2em(sid));
    });
    let mut distinct_names = k.names.clone();
    let mut seen = std::collections::HashSet::new();
    distinct_names.retain(|n| seen.insert(*n));
    let tl = match args.workload {
        "ndn_cache" => table_leaves(&distinct_names, 256, w.router.cs_capacity),
        "mixed_six" => table_leaves(&distinct_names, 128, None),
        _ => TableLeaves::default(),
    };
    let (check_us, check_calls) = check_leaf(&w);

    // The ledger: per-packet stage costs, and what the leaves explain.
    let per_pool = |count: u64| count as f64 / w.pool.len() as f64;
    let ops = k.ops;
    let crypto_calls = per_pool(k.session_ids.len() as u64);
    let routes_ns = v4_ns * per_pool(k.v4.len() as u64)
        + v6_ns * per_pool(k.v6.len() as u64)
        + name_ns * per_pool(ops.name_lookups)
        + xia_ns * per_pool(ops.xia_lookups);
    let tables_ns = tl.pit_insert_ns * per_pool(ops.pit_inserts)
        + tl.pit_consume_ns * per_pool(ops.pit_consumes)
        + tl.cs_get_ns * per_pool(ops.cs_gets)
        + tl.cs_insert_ns * per_pool(ops.cs_inserts);
    let leaf_ns = routes_ns + tables_ns + (kdf_ns + mac_ns + mark_ns) * crypto_calls;
    let exec_ns = rp.per_pkt(Stage::Exec);
    let ring_ns = rp.per_pkt(Stage::RingPop);
    let batch_ns = rp.per_pkt(Stage::BatchAdopt) + rp.per_pkt(Stage::BatchRecycle);
    let resolve_ns = rp.per_pkt(Stage::Resolve);
    let worker_sum = ring_ns + batch_ns + rp.per_pkt(Stage::Parse) + resolve_ns + exec_ns;
    let as_f64 = |v: &[u64]| v.iter().map(|&x| x as f64).collect::<Vec<_>>();
    let hit_batch_ns =
        if rp.resolve_hit_ns.is_empty() { 0.0 } else { stats::median(&as_f64(&rp.resolve_hit_ns)) };
    let miss_us = if rp.resolve_miss_ns.is_empty() {
        0.0
    } else {
        (stats::median(&as_f64(&rp.resolve_miss_ns)) - hit_batch_ns).max(0.0) / 1e3
    };
    let spans = trace.spans.len() as u64;
    let replay_batches = rp.resolve_hit_ns.len() as u64 + rp.resolve_miss_ns.len() as u64;
    let n_closed = closed.len() as u64;
    let probes = open.sojourn_ns.len() as u64;
    let pct = |sorted: &[u64], q: f64| stats::percentile_sorted(sorted, q) as f64;

    let metrics = vec![
        Metric::new("dataplane.submit_ns", pct(&submit_ns, 0.5), "ns", submit_ns.len() as u64),
        Metric::new("dataplane.shard_ns", rp.per_pkt(Stage::Shard), "ns", rp.packets),
        Metric::new("dataplane.ring_ns", ring_ns, "ns", rp.packets),
        Metric::new("dataplane.batch_ns", batch_ns, "ns", rp.packets),
        Metric::new(
            "dataplane.progcache_hit_ns",
            hit_batch_ns / BATCH as f64,
            "ns",
            rp.resolve_hit_ns.len() as u64,
        ),
        Metric::new("dataplane.progcache_miss_us", miss_us, "us", rp.resolve_miss_ns.len() as u64),
        Metric::new(
            "dataplane.progcache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
            "ratio",
            hits + misses,
        ),
        Metric::new("dataplane.worker_busy_frac", busy, "ratio", n_closed),
        Metric::new(
            "dataplane.idle_parks",
            delta(&edges, "dip_worker_idle_parks_total") as f64,
            "count",
            n_closed,
        ),
        Metric::new(
            "dataplane.batch_fill_mean",
            delta(&edges, "dip_worker_batch_fill_sum") as f64
                / delta(&edges, "dip_worker_batch_fill_count").max(1) as f64,
            "packets",
            delta(&edges, "dip_worker_batch_fill_count"),
        ),
        Metric::new(
            "dataplane.ring_occupancy_mean",
            occupancy_sum as f64 / occupancy_samples.max(1) as f64,
            "packets",
            occupancy_samples,
        ),
        Metric::new(
            "dataplane.pool_misses",
            delta(&edges, "dip_submit_pool_misses_total") as f64,
            "count",
            n_closed,
        ),
        Metric::new(
            "dataplane.epoch_pickup_us",
            pct(&pickup_ns, 0.5) / 1e3,
            "us",
            pickup_ns.len() as u64,
        ),
        Metric::new(
            "dataplane.epoch_refreshes",
            delta(&edges, "dip_worker_epoch_refreshes_total") as f64,
            "count",
            n_closed,
        ),
        Metric::new("dataplane.sojourn_p99_us", pct(&open.sojourn_ns, 0.99) / 1e3, "us", probes),
        Metric::new(
            "dataplane.allocs_per_pkt",
            alloc_n as f64 / alloc_pkts.max(1) as f64,
            "count",
            alloc_pkts,
        ),
        Metric::new(
            "dataplane.alloc_bytes_per_pkt",
            alloc_b as f64 / alloc_pkts.max(1) as f64,
            "bytes",
            alloc_pkts,
        ),
        Metric::new("core.parse_ns", rp.per_pkt(Stage::Parse), "ns", rp.packets),
        Metric::new("core.exec_ns", exec_ns, "ns", rp.packets),
        Metric::new(
            "core.fns_per_pkt",
            delta(&edges, "dip_worker_fns_executed_total") as f64 / processed.max(1) as f64,
            "count",
            processed,
        ),
        Metric::new("core.process_ns_p50", pct(&process_ns, 0.5), "ns", process_ns.len() as u64),
        Metric::new("core.process_ns_p99", pct(&process_ns, 0.99), "ns", process_ns.len() as u64),
        Metric::new("fnops.self_ns", exec_ns - leaf_ns, "ns", rp.packets),
        Metric::new("routes.lpm_v4_ns", v4_ns, "ns", v4_calls),
        Metric::new("routes.lpm_v6_ns", v6_ns, "ns", v6_calls),
        Metric::new("routes.name_ns", name_ns, "ns", name_calls),
        Metric::new("routes.xia_ns", xia_ns, "ns", xia_calls),
        Metric::new(
            "routes.lookups_per_pkt",
            per_pool(k.v4.len() as u64 + k.v6.len() as u64 + ops.name_lookups + ops.xia_lookups),
            "count",
            w.pool.len() as u64,
        ),
        Metric::new("routes.commit_us", pct(&commit_ns, 0.5) / 1e3, "us", commit_ns.len() as u64),
        Metric::new(
            "routes.deltas_per_s",
            deltas as f64 / (closed_secs + open_for.as_secs_f64() + 1.0),
            "1/s",
            deltas,
        ),
        Metric::new("routes.build_s", w.build_s, "s", 1),
        Metric::new(
            "routes.bytes_per_prefix",
            w.table_bytes as f64 / w.prefixes.max(1) as f64,
            "bytes",
            w.prefixes as u64,
        ),
        Metric::new("crypto.kdf_ns", kdf_ns, "ns", kdf_calls),
        Metric::new("crypto.mac_ns", mac_ns, "ns", mac_calls),
        Metric::new("crypto.mark_ns", mark_ns, "ns", mac_calls),
        Metric::new("crypto.keysched_ns", keysched_ns, "ns", mac_calls),
        Metric::new("crypto.calls_per_pkt", 3.0 * crypto_calls, "count", w.pool.len() as u64),
        Metric::new("tables.pit_insert_ns", tl.pit_insert_ns, "ns", 2 * tl.calls),
        Metric::new("tables.pit_consume_ns", tl.pit_consume_ns, "ns", tl.calls),
        Metric::new("tables.cs_get_ns", tl.cs_get_ns, "ns", 3 * tl.cs_calls),
        Metric::new("tables.cs_insert_ns", tl.cs_insert_ns, "ns", tl.cs_calls),
        Metric::new("tables.cs_hit_ratio", tl.cs_hit_ratio, "ratio", 3 * tl.cs_calls),
        Metric::new("tables.pit_occupancy", pit_occupancy as f64, "entries", 1),
        Metric::new("tables.pit_bytes_per_entry", tl.pit_bytes_per_entry, "bytes", tl.calls.min(1)),
        Metric::new(
            "tables.cs_bytes_per_entry",
            tl.cs_bytes_per_entry,
            "bytes",
            tl.cs_calls.min(1),
        ),
        Metric::new(
            "tables.calls_per_pkt",
            per_pool(ops.pit_inserts + ops.pit_consumes + ops.cs_gets + ops.cs_inserts),
            "count",
            w.pool.len() as u64,
        ),
        Metric::new("verify.check_us", check_us, "us", check_calls),
        Metric::new("ledger.worker_sum_ns", worker_sum, "ns", rp.packets),
        Metric::new(
            "ledger.worker_residual_frac",
            1.0 - worker_sum / cpu_ns_per_pkt,
            "ratio",
            rp.packets,
        ),
        Metric::new("trace.overhead_frac", 1.0 - pps_on / pps_off, "ratio", n_closed),
        Metric::new("trace.fwd_pps", pps_off, "packets/s", off.len() as u64),
        Metric::new("trace.cpu_ns_per_pkt", cpu_ns_per_pkt, "ns", off.len() as u64),
        Metric::new(
            "bench.gen_late_p99_us",
            pct(&open.late_ns, 0.99) / 1e3,
            "us",
            open.late_ns.len() as u64,
        ),
    ];

    let share = |ns: f64| format!("{:.1} %", 100.0 * ns / worker_sum.max(1e-9));
    outcome.notes = vec![
        (
            "threaded".into(),
            format!(
                "{n_closed} closed windows of 0.5 s alternating spans off/on ({pps_off:.0} / {pps_on:.0} pps), \
                 then {rate} pps open loop for {} s ({probes} probes, generator behind by {:.3} %)",
                open_for.as_secs(),
                open.late_frac() * 100.0
            ),
        ),
        (
            "replay".into(),
            format!("{} packets in {replay_batches} batches of {BATCH}, single thread; {spans} spans recorded", rp.packets),
        ),
        (
            "ledger shares of worker_sum".into(),
            format!(
                "ring {} batch {} parse {} progcache {} exec {} — of exec: crypto.kdf {} crypto.mac {} crypto.mark {} \
                 routes {} tables {} fnops.self {}",
                share(ring_ns),
                share(batch_ns),
                share(rp.per_pkt(Stage::Parse)),
                share(resolve_ns),
                share(exec_ns),
                share(kdf_ns * crypto_calls),
                share(mac_ns * crypto_calls),
                share(mark_ns * crypto_calls),
                share(routes_ns),
                share(tables_ns),
                share(exec_ns - leaf_ns),
            ),
        ),
    ];
    run::check_generator(&open, &mut outcome);

    let path = args.out_dir.join(format!("trace-{}.json", args.workload));
    if let Err(e) = std::fs::create_dir_all(&args.out_dir).and_then(|()| trace.write(&path)) {
        eprintln!("cannot write {}: {e}", path.display());
        return 1;
    }
    report::emit(args, true, &metrics, &outcome)
}
