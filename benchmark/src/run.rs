//! The untraced run: set-up, correctness pre-check, warm-up, closed loop,
//! open loop, shutdown and the accounting identity. `trace.rs` reuses the
//! same phases with spans switched on.
//!
//! Thread budget: this (dispatcher) thread plus one worker. The host has
//! two CPUs, so neither is ever descheduled for the other.

use crate::cli::Args;
use crate::gen::{self, Churn, Class, Stream, Workload, CHURN_DELTAS_PER_S};
use crate::report::{self, Metric, Outcome};
use crate::stats;
use dip_core::{DipRouter, Verdict};
use dip_dataplane::{Admission, Backpressure, Dataplane, DataplaneConfig, RouteSnapshot};
use dip_routes::RouteStore;
use dip_telemetry::{Counter, PacketOutcome, Snapshot};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

pub const BATCH: usize = 32;
pub const RING: usize = 1024;
/// Every this-many-th open-loop packet is a latency probe.
pub const PROBE_EVERY: u64 = 64;
/// Packets of the stream checked against the sequential reference.
pub const PRECHECK_PACKETS: u64 = 4096;
/// Set-ups measured per run; every metric pools over them.
const PASSES: usize = 3;
/// Warm-up before the first window of each set-up (1.5 s per run).
const WARMUP: Duration = Duration::from_millis(500);
const WINDOW: Duration = Duration::from_secs(1);
/// A generator this far behind its schedule did not offer the reference
/// rate; the run is marked invalid instead of averaged in.
const MAX_LATE_FRAC: f64 = 0.05;

/// Splits `--seconds` over [`PASSES`] set-ups: two thirds in closed-loop
/// windows of 1 s, one third in the open loop (at the benchmark's 18 s:
/// 3 x 4 windows and 3 x 2 s). Returns the share of one set-up.
pub fn split_seconds(seconds: u64) -> (usize, Duration) {
    let windows = ((seconds * 2).div_ceil(3)).div_ceil(PASSES as u64).max(1);
    let open_s = seconds.saturating_sub(windows * PASSES as u64) as f64 / PASSES as f64;
    (windows as usize, Duration::from_secs_f64(open_s.max(0.25)))
}

pub fn make_router(spec: gen::RouterSpec, optimize: bool) -> DipRouter {
    let mut r = DipRouter::new(0, spec.secret);
    r.config_mut().default_port = spec.default_port;
    // The load tools in this repo run dipopt plans; the sequential
    // reference of the pre-check runs the plain interpreter.
    r.config_mut().optimize = optimize;
    if let Some(capacity) = spec.cs_capacity {
        r.state_mut().enable_content_store(capacity);
    }
    r
}

/// One dispatcher + one worker over `w`'s compiled tables.
pub fn start_dataplane(w: &Workload, record_outcomes: bool) -> Dataplane {
    let config = DataplaneConfig {
        workers: 1,
        batch_size: BATCH,
        ring_capacity: RING,
        backpressure: Backpressure::Block,
        admission: Admission::Lint,
        record_outcomes,
    };
    let spec = w.router;
    let dp = Dataplane::start(config, move |_| make_router(spec, true));
    // A worker applies a snapshot when it sees the epoch move at a batch
    // boundary. One published before the worker thread has created its
    // epoch reader is cached there but never applied, so publish until a
    // pickup is counted; re-publishing the same tables is harmless.
    loop {
        dp.publish_routes(RouteSnapshot::from_tables(w.tables.clone()));
        let deadline = Instant::now() + Duration::from_millis(2);
        while Instant::now() < deadline {
            if dp.metrics_snapshot().get("dip_worker_epoch_refreshes_total") > 0 {
                return dp;
            }
            std::thread::yield_now();
        }
    }
}

pub fn class_of(verdict: &Verdict) -> Class {
    match verdict.outcome() {
        PacketOutcome::Forwarded => Class::Forwarded,
        PacketOutcome::Consumed => Class::Consumed,
        PacketOutcome::Dropped(_) => Class::Dropped,
    }
}

/// Runs the preamble and the first [`PRECHECK_PACKETS`] of the stream
/// through a recording `Dataplane` and through a sequential
/// `DipRouter::process` reference; every packet must come out with the same
/// verdict, the same bytes, and the class its generator expects. Returns
/// `(packets checked, packets wrong, first discrepancy)`.
pub fn precheck(w: &Workload) -> (u64, u64, Option<String>) {
    let mut dp = start_dataplane(w, true);
    let mut sequence: Vec<(&[u8], u32, Class)> =
        (0..w.preamble.len()).map(|i| w.preamble.get(i)).collect();
    let mut stream = Stream::new(&w.pool, &w.novel);
    for _ in 0..PRECHECK_PACKETS {
        sequence.push(stream.next_packet());
    }
    for &(bytes, port, _) in &sequence {
        dp.submit_bytes(bytes, port, 0).expect("Block backpressure never refuses");
    }
    let report = dp.shutdown();
    let records = report.sorted_outcomes();

    let mut reference = make_router(w.router, false);
    RouteSnapshot::from_tables(w.tables.clone()).apply(reference.state_mut());
    let mut wrong = 0;
    let mut first = None;
    if records.len() != sequence.len() {
        return (
            sequence.len() as u64,
            sequence.len() as u64,
            Some(format!("{} outcomes recorded for {} packets", records.len(), sequence.len())),
        );
    }
    for (i, (&(bytes, port, class), record)) in sequence.iter().zip(&records).enumerate() {
        let mut buf = bytes.to_vec();
        let (verdict, _) = reference.process(&mut buf, port, 0);
        let problem = if verdict != record.verdict {
            Some(format!("dataplane {:?} vs reference {verdict:?}", record.verdict))
        } else if buf != record.bytes {
            Some("output bytes differ from the reference".to_string())
        } else if class_of(&verdict) != class {
            Some(format!("verdict {verdict:?} is not the expected class {class:?}"))
        } else {
            None
        };
        if let Some(p) = problem {
            wrong += 1;
            first.get_or_insert_with(|| format!("packet {i}: {p}"));
        }
    }
    (sequence.len() as u64, wrong, first)
}

/// One delta as the traced run records it.
#[derive(Debug, Clone, Copy)]
pub struct DeltaSpan {
    pub at: Instant,
    pub commit_ns: u64,
    pub publish_ns: u64,
    /// `publish_routes` → the worker's epoch-refresh counter moves
    /// (`u64::MAX` if it did not within 10 ms).
    pub pickup_ns: u64,
}

/// What the traced run adds to the storm: the worker's live epoch-refresh
/// counter to wait on after each publish, and a span per delta.
pub struct ChurnTrace {
    pub refreshes: Arc<Counter>,
    pub deltas: Vec<DeltaSpan>,
}

/// The storm of `ip_churn`, paced on the dispatcher thread.
pub struct ChurnDriver<'a> {
    churn: &'a mut Churn,
    store: &'a mut RouteStore,
    next_at: Instant,
    pub deltas: u64,
    pub trace: Option<ChurnTrace>,
}

impl<'a> ChurnDriver<'a> {
    pub fn new(churn: &'a mut Churn, store: &'a mut RouteStore) -> Self {
        ChurnDriver { churn, store, next_at: Instant::now(), deltas: 0, trace: None }
    }

    /// Commits and publishes one delta if one is due.
    #[inline]
    pub fn tick(&mut self, dp: &Dataplane, now: Instant) {
        if now < self.next_at {
            return;
        }
        self.deltas += 1;
        self.next_at += Duration::from_nanos(1_000_000_000 / CHURN_DELTAS_PER_S);
        let delta = self.churn.next_delta();
        let Some(trace) = self.trace.as_mut() else {
            dp.publish_routes(RouteSnapshot::from_tables(self.store.commit(&delta)));
            return;
        };
        let at = Instant::now();
        let tables = self.store.commit(&delta);
        let committed = Instant::now();
        let seen = trace.refreshes.get();
        dp.publish_routes(RouteSnapshot::from_tables(tables));
        let published = Instant::now();
        let mut pickup_ns = 0;
        while trace.refreshes.get() == seen && pickup_ns < 10_000_000 {
            std::hint::spin_loop();
            pickup_ns = published.elapsed().as_nanos() as u64;
        }
        if trace.refreshes.get() == seen {
            pickup_ns = u64::MAX;
        }
        trace.deltas.push(DeltaSpan {
            at,
            commit_ns: (committed - at).as_nanos() as u64,
            publish_ns: (published - committed).as_nanos() as u64,
            pickup_ns,
        });
    }
}

/// The running system plus the packet stream feeding it.
pub struct Injector<'a> {
    pub dp: Dataplane,
    pub stream: Stream<'a>,
    pub churn: Option<ChurnDriver<'a>>,
    /// Packets submitted since start, preamble included: the ordinal
    /// `Dataplane::worker_processed(0)` reaches when the last one is done.
    pub submitted: u64,
}

impl Injector<'_> {
    #[inline]
    pub fn submit_next(&mut self) {
        let (bytes, port, _) = self.stream.next_packet();
        self.dp.submit_bytes(bytes, port, 0).expect("Block backpressure never refuses");
        self.submitted += 1;
    }

    #[inline]
    pub fn churn_tick(&mut self, now: Instant) {
        if let Some(c) = self.churn.as_mut() {
            c.tick(&self.dp, now);
        }
    }

    pub fn drain(&self) {
        while self.dp.worker_processed(0) < self.submitted {
            std::thread::yield_now();
        }
    }
}

/// One closed-loop window, read at its edges.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub secs: f64,
    pub processed: u64,
    pub cpu_ns: u64,
}

impl Window {
    pub fn pps(&self) -> f64 {
        self.processed as f64 / self.secs
    }

    pub fn cpu_ns_per_pkt(&self) -> f64 {
        self.cpu_ns as f64 / self.processed.max(1) as f64
    }
}

/// What the traced run does at window edges and around each 32 submits;
/// the untraced run passes [`NoHooks`], which compiles to nothing.
pub trait Hooks {
    fn edge(&mut self, dp: &Dataplane);
    fn batch(&mut self, dp: &Dataplane, start: Instant, end: Instant);
}

pub struct NoHooks;

impl Hooks for NoHooks {
    #[inline]
    fn edge(&mut self, _: &Dataplane) {}
    #[inline]
    fn batch(&mut self, _: &Dataplane, _: Instant, _: Instant) {}
}

/// Injects as fast as the ring accepts for `windows` × `window`, reading
/// the worker's packet and CPU-time counters at every window edge.
pub fn closed_loop(
    inj: &mut Injector,
    windows: usize,
    window: Duration,
    hooks: &mut impl Hooks,
) -> Vec<Window> {
    let read = |dp: &Dataplane| (Instant::now(), dp.worker_processed(0), dp.worker_cpu_ns(0));
    let mut out = Vec::with_capacity(windows);
    let mut edge = read(&inj.dp);
    hooks.edge(&inj.dp);
    for _ in 0..windows {
        let deadline = edge.0 + window;
        let mut batch_start = edge.0;
        loop {
            for _ in 0..BATCH {
                inj.submit_next();
            }
            let now = Instant::now();
            hooks.batch(&inj.dp, batch_start, now);
            batch_start = now;
            inj.churn_tick(now);
            if now >= deadline {
                break;
            }
        }
        let next = read(&inj.dp);
        hooks.edge(&inj.dp);
        out.push(Window {
            secs: (next.0 - edge.0).as_secs_f64(),
            processed: next.1 - edge.1,
            cpu_ns: next.2.unwrap_or(0).saturating_sub(edge.2.unwrap_or(0)),
        });
        edge = next;
    }
    out
}

/// What the open loop measured.
#[derive(Debug)]
pub struct OpenLoop {
    pub started: Instant,
    pub sent: u64,
    pub scheduled: u64,
    /// Probe sojourns in ns: due time → the worker's processed count
    /// passing the probe's ordinal. Sorted.
    pub sojourn_ns: Vec<u64>,
    /// How late after its due time each probe was submitted, ns. Sorted.
    pub late_ns: Vec<u64>,
    /// `(start ns after `started`, ns inside `submit_bytes`)` per probe.
    pub submit_spans: Vec<(u64, u64)>,
}

impl OpenLoop {
    pub fn late_frac(&self) -> f64 {
        1.0 - self.sent as f64 / self.scheduled.max(1) as f64
    }
}

/// Offers `rate_pps` for `duration` on absolute deadlines: the dispatcher
/// spins on the clock (never sleeps) and sends each packet when it is due
/// — or at once if it is already late, which the lateness samples record.
/// Every [`PROBE_EVERY`]-th packet is timed from its *due* time.
pub fn open_loop(inj: &mut Injector, rate_pps: u64, duration: Duration) -> OpenLoop {
    let gap_ns = 1e9 / rate_pps as f64;
    let end_ns = duration.as_nanos() as u64;
    let t0 = Instant::now();
    let mut out = OpenLoop {
        started: t0,
        sent: 0,
        scheduled: (duration.as_secs_f64() * rate_pps as f64) as u64,
        sojourn_ns: Vec::new(),
        late_ns: Vec::new(),
        submit_spans: Vec::new(),
    };
    let mut probes: VecDeque<(u64, u64)> = VecDeque::with_capacity(RING);
    let reap =
        |dp: &Dataplane, probes: &mut VecDeque<(u64, u64)>, sojourn: &mut Vec<u64>, now_ns: u64| {
            let done = dp.worker_processed(0);
            while probes.front().is_some_and(|&(ordinal, _)| ordinal <= done) {
                let (_, due_ns) = probes.pop_front().expect("front exists");
                sojourn.push(now_ns.saturating_sub(due_ns));
            }
        };
    loop {
        let due_ns = (out.sent as f64 * gap_ns) as u64;
        let mut now_ns;
        loop {
            now_ns = t0.elapsed().as_nanos() as u64;
            reap(&inj.dp, &mut probes, &mut out.sojourn_ns, now_ns);
            if now_ns >= due_ns {
                break;
            }
            std::hint::spin_loop();
        }
        if now_ns >= end_ns {
            break;
        }
        inj.submit_next();
        out.sent += 1;
        if out.sent.is_multiple_of(PROBE_EVERY) {
            probes.push_back((inj.submitted, due_ns));
            out.late_ns.push(now_ns - due_ns);
            out.submit_spans
                .push((now_ns, (t0.elapsed().as_nanos() as u64).saturating_sub(now_ns)));
        }
        if out.sent.is_multiple_of(BATCH as u64) {
            inj.churn_tick(t0 + Duration::from_nanos(now_ns));
        }
    }
    while !probes.is_empty() {
        let now_ns = t0.elapsed().as_nanos() as u64;
        reap(&inj.dp, &mut probes, &mut out.sojourn_ns, now_ns);
        std::hint::spin_loop();
    }
    out.sojourn_ns.sort_unstable();
    out.late_ns.sort_unstable();
    out
}

/// Registry totals by accounting class, plus the identity's left side.
pub fn class_totals(snap: &Snapshot) -> [u64; 3] {
    [
        snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]),
        snap.sum_where("dip_packets_total", &[("outcome", "consumed")]),
        snap.get("dip_drops_total"),
    ]
}

/// Packets whose class is not the expected one, plus packets the identity
/// `forwarded + consumed + drops == injected` cannot account for.
pub fn accounting_failures(observed: [u64; 3], expected: [u64; 3], injected: u64) -> u64 {
    // A misclassified packet is missing from one class and extra in another.
    let misclassified: u64 = observed.iter().zip(&expected).map(|(o, e)| o.abs_diff(*e)).sum();
    misclassified.div_ceil(2) + observed.iter().sum::<u64>().abs_diff(injected)
}

/// Everything before the first warm-up packet: the workload built, checked
/// against the reference (the result goes into `outcome`), the dataplane
/// started and its state primed with the preamble.
pub struct Ready {
    pub w: Workload,
    pub dp: Dataplane,
    /// Class tallies of the preamble packets already injected.
    pub expected: [u64; 3],
}

pub fn set_up(name: &str, seed: u64, outcome: &mut Outcome) -> Ready {
    let w = gen::build(name, seed);
    let (checked, wrong, first_wrong) = precheck(&w);
    outcome.attempted += checked;
    outcome.failed += wrong;
    if let Some(p) = first_wrong {
        outcome.problems.push(format!("pre-check: {p}"));
    }
    let mut dp = start_dataplane(&w, false);
    let mut expected = [0; 3];
    for i in 0..w.preamble.len() {
        let (bytes, port, class) = w.preamble.get(i);
        dp.submit_bytes(bytes, port, 0).expect("Block backpressure never refuses");
        expected[class as usize] += 1;
    }
    Ready { w, dp, expected }
}

/// One set-up measured and torn down: the unit a run repeats [`PASSES`]
/// times, each with freshly built tables and pools, so the reported medians
/// pool over several memory layouts rather than one.
struct Pass {
    setup_s: f64,
    closed: Vec<Window>,
    open: OpenLoop,
}

fn pass(args: &Args, windows: usize, open_for: Duration, outcome: &mut Outcome) -> Pass {
    let t = Instant::now();
    let Ready { mut w, dp, expected } = set_up(args.workload, args.seed, outcome);
    let setup_s = t.elapsed().as_secs_f64();

    let mut inj = Injector {
        dp,
        stream: Stream::new(&w.pool, &w.novel),
        churn: w.churn.as_mut().map(|c| ChurnDriver::new(c, &mut w.store)),
        submitted: w.preamble.len() as u64,
    };
    closed_loop(&mut inj, 1, WARMUP, &mut NoHooks);
    let closed = closed_loop(&mut inj, windows, WINDOW, &mut NoHooks);
    inj.drain();
    let open = open_loop(&mut inj, gen::reference_rate_pps(args.workload), open_for);
    inj.drain();

    let Injector { dp, stream, submitted, .. } = inj;
    let report = dp.shutdown();
    outcome.attempted += submitted;
    check_accounting(&report.registry.snapshot(), expected, &stream, submitted, outcome);
    check_generator(&open, outcome);
    if closed.iter().any(|w| w.cpu_ns == 0) {
        outcome.problems.push("no per-thread CPU clock on this host".into());
    }
    Pass { setup_s, closed, open }
}

/// Compares the registry's class totals with what the generator expects
/// (`preamble` + `stream`) and records any discrepancy in `outcome`.
pub fn check_accounting(
    snap: &Snapshot,
    preamble: [u64; 3],
    stream: &Stream,
    injected: u64,
    outcome: &mut Outcome,
) {
    let observed = class_totals(snap);
    let mut want = preamble;
    for (w, s) in want.iter_mut().zip(stream.expected) {
        *w += s;
    }
    outcome.failed += accounting_failures(observed, want, injected);
    if observed != want {
        outcome.problems.push(format!(
            "accounting: forwarded/consumed/dropped {observed:?}, expected {want:?} of {injected} injected"
        ));
    }
    if stream.novel_exhausted() {
        outcome.problems.push("the never-seen program pool wrapped".into());
    }
}

/// Marks the run invalid if the open-loop generator did not keep its rate.
pub fn check_generator(open: &OpenLoop, outcome: &mut Outcome) {
    if open.late_frac() > MAX_LATE_FRAC {
        outcome
            .problems
            .push(format!("generator fell {:.1} % behind its schedule", open.late_frac() * 100.0));
    }
}

pub fn main_untraced(args: &Args) -> i32 {
    let (windows, open_for) = split_seconds(args.seconds);
    let rate = gen::reference_rate_pps(args.workload);
    let mut outcome = Outcome::default();
    let passes: Vec<Pass> =
        (0..PASSES).map(|_| pass(args, windows, open_for, &mut outcome)).collect();

    let setup_s: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    let closed: Vec<Window> = passes.iter().flat_map(|p| p.closed.iter().copied()).collect();
    let mut sojourn_ns: Vec<u64> =
        passes.iter().flat_map(|p| p.open.sojourn_ns.iter().copied()).collect();
    let mut late_ns: Vec<u64> =
        passes.iter().flat_map(|p| p.open.late_ns.iter().copied()).collect();
    sojourn_ns.sort_unstable();
    late_ns.sort_unstable();
    let sent: u64 = passes.iter().map(|p| p.open.sent).sum();
    let behind = passes.iter().map(|p| p.open.late_frac()).fold(0.0, f64::max);

    let pps: Vec<f64> = closed.iter().map(Window::pps).collect();
    let cpu: Vec<f64> = closed.iter().map(Window::cpu_ns_per_pkt).collect();
    let busy: Vec<f64> = closed.iter().map(|w| w.cpu_ns as f64 / 1e9 / w.secs).collect();
    let per_pass: Vec<String> = passes
        .iter()
        .map(|p| {
            format!("{:.0}", stats::median(&p.closed.iter().map(Window::pps).collect::<Vec<_>>()))
        })
        .collect();
    let (q1, med, q3) = stats::quartiles(&pps);
    let n = closed.len() as u64;
    let probes = sojourn_ns.len() as u64;
    let metrics = [
        Metric::new("setup_s", stats::median(&setup_s), "s", PASSES as u64),
        Metric::new("fwd_pps", med, "packets/s", n),
        Metric::new(
            "lat_p50_us",
            stats::percentile_sorted(&sojourn_ns, 0.5) as f64 / 1e3,
            "us",
            probes,
        ),
        Metric::new("peak_rss_mb", report::peak_rss_mib(), "MiB", 1),
        Metric::new("cpu_ns_per_pkt", stats::median(&cpu), "ns", n),
    ];
    outcome.notes = vec![
        (
            "closed loop".into(),
            format!(
                "{PASSES} set-ups x {windows} windows of {} s, ring {RING}, batch {BATCH}, Block",
                WINDOW.as_secs()
            ),
        ),
        ("fwd_pps quartiles".into(), format!("{q1:.0} / {med:.0} / {q3:.0}")),
        ("fwd_pps median per set-up".into(), per_pass.join(" / ")),
        ("worker_busy_frac (median window)".into(), format!("{:.4}", stats::median(&busy))),
        (
            "open loop".into(),
            format!(
                "{rate} pps for {PASSES} x {:.2} s, {sent} sent, {probes} probes, generator behind by at most {:.3} %",
                open_for.as_secs_f64(),
                behind * 100.0
            ),
        ),
        (
            "lat_p99_us (diagnostic)".into(),
            format!("{:.3}", stats::percentile_sorted(&sojourn_ns, 0.99) as f64 / 1e3),
        ),
        (
            "gen_late_p99_us".into(),
            format!("{:.3}", stats::percentile_sorted(&late_ns, 0.99) as f64 / 1e3),
        ),
        ("setup_s samples".into(), format!("{setup_s:.3?}")),
    ];
    report::emit(args, false, &metrics, &outcome)
}
