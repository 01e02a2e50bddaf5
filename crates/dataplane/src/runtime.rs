//! The multi-worker dataplane: dispatcher, worker threads, reports.
//!
//! The NIC→worker pipeline in software: a single dispatcher thread (the
//! caller of [`Dataplane::submit`]) stamps each packet with a global
//! admission sequence number, flow-hashes it to a worker, and pushes it
//! onto that worker's SPSC ring. Each worker runs to completion over its
//! own [`DipRouter`] — per-flow state (PIT, content store) lives only on
//! the shard that owns the flow, so workers share *nothing* mutable —
//! draining its ring in batches:
//!
//! 1. at each batch boundary, pick up any route-snapshot epoch swap
//!    (one atomic load when nothing changed);
//! 2. fill a [`PacketBatch`] from the ring (up to `batch_size`);
//! 3. **resolve phase** — parse every packet and resolve its program
//!    through the per-worker [`ProgramCache`] (compile + `dipcheck`
//!    admission on first sight, one map probe per program *run* within
//!    the batch thanks to a batch-local memo, cache hit for the rest of
//!    eternity);
//! 4. **execute phase** — run [`DipRouter::process_parsed`] over the
//!    resolved batch back-to-back, the two tight loops keeping parser
//!    and executor code hot instead of interleaving them per packet;
//! 5. recycle every slot without freeing buffers.
//!
//! Determinism: the global sequence numbers give submission a total
//! order, flow affinity gives each flow FIFO processing on one worker,
//! and [`DataplaneReport::sorted_outcomes`] merges per-worker results
//! back into submission order — so for flow-independent state the result
//! is byte-identical to a sequential run (pinned by the
//! `dataplane_determinism` test at the workspace root).

use crate::batch::PacketBatch;
use crate::cputime::ThreadCpuProbe;
use crate::program::{Admission, CacheStats, ProgramCache};
use crate::ring::{spsc, spsc_counted, PushOutcome, RingConsumer, RingProducer};
use crate::shard::FlowShard;
use crate::snapshot::{EpochCell, RouteSnapshot};
use dip_core::{parse_packet, DipRouter, ParsedPacket, Verdict};
use dip_fnops::DropReason;
use dip_tables::{Port, Ticks};
use dip_telemetry::{Counter, Gauge, Histogram, OutcomeCounters, Registry, Snapshot};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a waiting thread keeps yielding after its last progress before
/// it parks: both the blocked dispatcher (full ring) and an idle worker
/// (empty ring). Bounded by the clock, not by a number of yields: how fast
/// `yield_now` returns depends on the host and on what else is runnable
/// (64 of them fit inside one 28.6 µs arrival gap on the reference host),
/// while a window says directly which gaps are served without a park
/// wake-up — every rate above 10 k pps — at a bounded cost per idle period.
const SPIN_WINDOW: Duration = Duration::from_micros(100);
/// First park interval once the spin window has passed.
const PARK_MIN: Duration = Duration::from_micros(5);
/// Park backoff cap: bounds both wasted CPU on long idles and the added
/// latency when work arrives while the thread is parked.
const PARK_MAX: Duration = Duration::from_micros(200);

/// One step of waiting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WaitStep {
    /// Yield the core and look again.
    Spin,
    /// Park for at most this long.
    Park(Duration),
}

/// The waiting policy: spin (yielding) while less than [`SPIN_WINDOW`] has
/// passed since the last progress, then park with exponential backoff
/// from [`PARK_MIN`] to [`PARK_MAX`]. `idle` is the time since the wait
/// began, `parks` the parks already taken in it.
fn wait_step(idle: Duration, parks: u32) -> WaitStep {
    if idle < SPIN_WINDOW {
        WaitStep::Spin
    } else {
        // 2^6 × PARK_MIN is already past the cap.
        WaitStep::Park((PARK_MIN * (1 << parks.min(6))).min(PARK_MAX))
    }
}

/// Spin-then-park wait state shared by the dispatcher's lossless submit
/// and the workers' idle loop. Call [`Waiter::wait`] each time progress
/// is impossible and [`Waiter::reset`] when it is made; the waiter takes
/// the steps [`wait_step`] decides. Spinning yields, so a starved peer
/// gets the core back instead of competing with a spin loop (the pre-fix
/// behavior that cost the 1-vs-2-worker sweep a full core).
struct Waiter {
    /// When the current wait began; `None` while progress is being made,
    /// so a thread that never waits never reads the clock.
    since: Option<Instant>,
    /// Parks taken in the current wait (the backoff exponent).
    parks: u32,
}

impl Waiter {
    fn new() -> Self {
        Waiter { since: None, parks: 0 }
    }

    /// Waits one step; returns `true` when the step was a park.
    fn wait(&mut self) -> bool {
        let idle = self.since.get_or_insert_with(Instant::now).elapsed();
        match wait_step(idle, self.parks) {
            WaitStep::Spin => {
                std::thread::yield_now();
                false
            }
            WaitStep::Park(timeout) => {
                self.parks += 1;
                std::thread::park_timeout(timeout);
                true
            }
        }
    }

    fn reset(&mut self) {
        *self = Waiter::new();
    }
}

/// One packet in flight between the dispatcher and a worker.
#[derive(Debug)]
pub struct Job {
    /// Owned packet bytes.
    pub packet: Vec<u8>,
    /// Global admission sequence number.
    pub seq: u64,
    /// Ingress port.
    pub in_port: Port,
    /// Virtual arrival time.
    pub now: Ticks,
}

/// What `submit` does when the owning worker's ring is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Backpressure {
    /// Wait until the worker frees a slot (lossless; the determinism
    /// test and finite-injection drains use this). The wait is a bounded
    /// spin followed by parking — it must not burn a core, because on
    /// oversubscribed hosts the core it would burn is the one the
    /// blocked-on worker needs to free the slot.
    #[default]
    Block,
    /// Count a ring drop and discard the packet (NIC semantics; the
    /// wall-clock open-loop driver uses this so injection never stalls).
    Drop,
}

/// Dataplane tuning knobs.
#[derive(Debug, Clone)]
pub struct DataplaneConfig {
    /// Worker (shard) count.
    pub workers: usize,
    /// Packets executed per batch.
    pub batch_size: usize,
    /// Per-worker ring capacity (rounded up to a power of two).
    pub ring_capacity: usize,
    /// Full-ring policy.
    pub backpressure: Backpressure,
    /// Program admission policy.
    pub admission: Admission,
    /// Record every packet's verdict and final bytes (tests; the
    /// benchmark leaves this off to measure the pure pipeline).
    pub record_outcomes: bool,
}

impl Default for DataplaneConfig {
    fn default() -> Self {
        DataplaneConfig {
            workers: 1,
            batch_size: 32,
            ring_capacity: 1024,
            backpressure: Backpressure::Block,
            admission: Admission::Lint,
            record_outcomes: false,
        }
    }
}

/// The recorded result of one packet (when `record_outcomes` is on).
///
/// Not to be confused with [`dip_telemetry::PacketOutcome`], the
/// three-way accounting taxonomy: a record keeps the full verdict and
/// final bytes for test-time comparison.
#[derive(Debug, Clone)]
pub struct PacketRecord {
    /// Global admission sequence number.
    pub seq: u64,
    /// The router's decision.
    pub verdict: Verdict,
    /// The packet bytes after FN execution (tags updated in place).
    pub bytes: Vec<u8>,
    /// Ingress port.
    pub in_port: Port,
}

/// Per-worker counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorkerStats {
    /// Packets executed.
    pub processed: u64,
    /// Batches executed.
    pub batches: u64,
    /// `Forward` verdicts.
    pub forwarded: u64,
    /// Locally terminated packets (deliver/consume/cache-hit).
    pub local: u64,
    /// `Notify` verdicts.
    pub notified: u64,
    /// `Drop` verdicts (any reason, including admission refusals).
    pub dropped: u64,
    /// Router-executed FNs (amortization denominator).
    pub fns_executed: u64,
    /// Program-cache counters.
    pub cache: CacheStats,
    /// Route-snapshot swaps picked up.
    pub epoch_refreshes: u64,
}

/// Everything a worker hands back at shutdown.
#[derive(Debug)]
pub struct WorkerReport {
    /// Counters.
    pub stats: WorkerStats,
    /// Recorded outcomes in this worker's processing order (ascending
    /// `seq` per flow; merge with [`DataplaneReport::sorted_outcomes`]).
    pub outcomes: Vec<PacketRecord>,
    /// The worker's router, returned for state inspection (PIT/CS
    /// digests in the determinism test).
    pub router: DipRouter,
}

/// The final report of a dataplane run.
#[derive(Debug)]
pub struct DataplaneReport {
    /// One report per worker, indexed by shard.
    pub workers: Vec<WorkerReport>,
    /// Packets discarded at each ring under [`Backpressure::Drop`].
    pub ring_drops: Vec<u64>,
    /// Packets accepted by `submit`.
    pub submitted: u64,
    /// The telemetry registry the run reported into; snapshot it to check
    /// the accounting identity (forwarded + consumed + drops == injected).
    pub registry: Registry,
}

impl DataplaneReport {
    /// All recorded outcomes merged into global submission order.
    pub fn sorted_outcomes(&self) -> Vec<&PacketRecord> {
        let mut all: Vec<&PacketRecord> =
            self.workers.iter().flat_map(|w| w.outcomes.iter()).collect();
        all.sort_by_key(|o| o.seq);
        all
    }

    /// Total packets executed across workers.
    pub fn total_processed(&self) -> u64 {
        self.workers.iter().map(|w| w.stats.processed).sum()
    }

    /// Total ring drops across workers.
    pub fn total_ring_drops(&self) -> u64 {
        self.ring_drops.iter().sum()
    }
}

struct WorkerHandle {
    producer: RingProducer<Job>,
    handle: JoinHandle<WorkerReport>,
    /// `dip_ring_occupancy{worker=i}`; refreshed by `metrics_snapshot`.
    occupancy: Arc<Gauge>,
    /// Consumer half of the buffer-recycle ring: the worker returns the
    /// `Vec<u8>` displaced from each batch slot so [`Dataplane::submit_bytes`]
    /// can refill it instead of allocating.
    recycle: RingConsumer<Vec<u8>>,
    /// Dispatcher-local buffer stash (ring-drop reclaims, recycle bursts).
    stash: Vec<Vec<u8>>,
    /// Live `dip_worker_processed_total{worker=i}` (readable mid-run).
    processed: Arc<Counter>,
    /// The worker thread's CPU clock, published once at spawn.
    cpu: Arc<OnceLock<ThreadCpuProbe>>,
    /// Unparks the worker (set after spawn; workers park when idle).
    thread: std::thread::Thread,
}

/// A running multi-worker dataplane.
pub struct Dataplane {
    workers: Vec<WorkerHandle>,
    shard: FlowShard,
    routes: Arc<EpochCell<RouteSnapshot>>,
    stop: Arc<AtomicBool>,
    backpressure: Backpressure,
    seq: u64,
    submitted: u64,
    /// `dip_submit_pool_misses_total`: `submit_bytes` calls that found no
    /// recycled buffer and had to allocate. Bounded by the buffers in
    /// flight (ring + batch), NOT by the packet count — the pin that the
    /// steady-state submit path is allocation-free.
    pool_misses: Arc<Counter>,
    registry: Registry,
}

impl Dataplane {
    /// Starts `config.workers` worker threads; `factory(i)` builds worker
    /// `i`'s router. For deterministic cross-worker results the factory
    /// should give every worker identical tables, secrets and node id
    /// (each flow only ever sees one of them).
    pub fn start(config: DataplaneConfig, factory: impl Fn(usize) -> DipRouter) -> Self {
        let n = config.workers.max(1);
        let registry = Registry::new();
        let routes = Arc::new(EpochCell::new(RouteSnapshot::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::with_capacity(n);
        for i in 0..n {
            let w = i.to_string();
            let labels: [(&str, &str); 1] = [("worker", w.as_str())];
            let telemetry = WorkerTelemetry::register(&registry, &labels);
            // The ring drop counter IS `dip_drops_total{reason=queue_full}`:
            // a packet refused at the ring never reaches a worker, so it
            // appears in the drop taxonomy and nowhere else.
            let (producer, consumer) = spsc_counted::<Job>(
                config.ring_capacity,
                telemetry.outcomes.drop_counter(DropReason::QueueFull),
            );
            let occupancy =
                registry.gauge("dip_ring_occupancy", "Jobs queued on the worker ring", &labels);
            registry
                .gauge("dip_ring_capacity", "Ring capacity (rounded to a power of two)", &labels)
                .set(producer.capacity() as i64);
            let mut router = factory(i);
            router.attach_metrics(&registry, &labels);
            let cache = ProgramCache::new(
                router.registry().clone(),
                router.config().clone(),
                config.admission,
            );
            let routes = Arc::clone(&routes);
            let stop = Arc::clone(&stop);
            let (batch_size, record) = (config.batch_size, config.record_outcomes);
            // Buffer-recycle ring (worker → dispatcher): sized to hold
            // every buffer that can be in flight (job ring + batch), so
            // a worker never has to discard a returnable allocation.
            let (recycle_tx, recycle) =
                spsc::<Vec<u8>>(producer.capacity() + config.batch_size.max(1));
            let processed = Arc::clone(&telemetry.processed);
            let cpu: Arc<OnceLock<ThreadCpuProbe>> = Arc::new(OnceLock::new());
            let cpu_slot = Arc::clone(&cpu);
            let handle = std::thread::Builder::new()
                .name(format!("dip-worker-{i}"))
                .spawn(move || {
                    let _ = cpu_slot.set(ThreadCpuProbe::current());
                    worker_loop(
                        router, cache, consumer, recycle_tx, routes, stop, batch_size, record,
                        telemetry,
                    )
                })
                .expect("spawn dataplane worker");
            let thread = handle.thread().clone();
            workers.push(WorkerHandle {
                producer,
                handle,
                occupancy,
                recycle,
                stash: Vec::new(),
                processed,
                cpu,
                thread,
            });
        }
        let pool_misses = registry.counter(
            "dip_submit_pool_misses_total",
            "submit_bytes calls that allocated because no recycled buffer was available",
            &[],
        );
        Dataplane {
            workers,
            shard: FlowShard::new(n),
            routes,
            stop,
            backpressure: config.backpressure,
            seq: 0,
            submitted: 0,
            pool_misses,
            registry,
        }
    }

    /// Worker count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// The worker shard `packet` would be dispatched to — exposed so
    /// load-generation drivers (the `dip-workload` open-loop queue model)
    /// can mirror the dispatcher's flow placement without re-implementing
    /// the hash.
    pub fn shard_of(&self, packet: &[u8]) -> usize {
        self.shard.shard_of(packet)
    }

    /// Capacity of worker `worker`'s ring after power-of-two rounding —
    /// the bound a driver-side queue model must apply to count
    /// injection-side `queue_full` drops the way the real ring would.
    pub fn ring_capacity(&self, worker: usize) -> usize {
        self.workers[worker].producer.capacity()
    }

    /// Cumulative CPU nanoseconds worker `worker`'s thread has spent
    /// on-CPU, or `None` when the host exposes no per-thread clock (or
    /// the worker has not yet published its probe). Sampled at window
    /// boundaries by the wall-clock driver; costs one small /proc read.
    pub fn worker_cpu_ns(&self, worker: usize) -> Option<u64> {
        self.workers[worker].cpu.get()?.cpu_ns()
    }

    /// Live count of packets worker `worker` has executed — monotonic, so
    /// window deltas are exact even while the dataplane runs.
    pub fn worker_processed(&self, worker: usize) -> u64 {
        self.workers[worker].processed.get()
    }

    /// `submit_bytes` calls that allocated because no recycled buffer was
    /// available. Bounded by buffers in flight, not by packets submitted.
    pub fn pool_misses(&self) -> u64 {
        self.pool_misses.get()
    }

    /// Flow-hashes `packet` to its worker and enqueues it. Returns the
    /// assigned sequence number, or `None` when the ring was full under
    /// [`Backpressure::Drop`].
    pub fn submit(&mut self, packet: Vec<u8>, in_port: Port, now: Ticks) -> Option<u64> {
        let shard = self.shard.shard_of(&packet);
        let seq = self.seq;
        self.seq += 1;
        let mut job = Job { packet, seq, in_port, now };
        let w = &mut self.workers[shard];
        let producer = &mut w.producer;
        match self.backpressure {
            // One call both enqueues-or-discards and keeps the drop
            // counter consistent with what actually happened to the job.
            Backpressure::Drop => match producer.push_or_drop(job) {
                PushOutcome::Queued => {
                    self.submitted += 1;
                    Some(seq)
                }
                PushOutcome::Dropped => None,
            },
            Backpressure::Block => {
                let mut waiter = Waiter::new();
                loop {
                    match producer.try_push(job) {
                        Ok(()) => {
                            self.submitted += 1;
                            return Some(seq);
                        }
                        Err(back) => {
                            job = back;
                            // On oversubscribed hosts the blocked-on worker
                            // needs this core to free a slot: park instead
                            // of spinning (satellite 3), and make sure the
                            // worker is not itself parked idle.
                            w.thread.unpark();
                            waiter.wait();
                        }
                    }
                }
            }
        }
    }

    /// Like [`Dataplane::submit`], but copies `bytes` into a recycled
    /// buffer instead of taking ownership of a caller allocation — the
    /// steady-state hot path of the wall-clock driver. Buffers displaced
    /// from worker batch slots come back over the per-worker recycle ring;
    /// once every in-flight buffer exists, this path performs no
    /// allocation at all (`dip_submit_pool_misses_total` stays bounded by
    /// buffers in flight, which the allocation-free test pins).
    pub fn submit_bytes(&mut self, bytes: &[u8], in_port: Port, now: Ticks) -> Option<u64> {
        let shard = self.shard.shard_of(bytes);
        let mut buf = {
            let w = &mut self.workers[shard];
            // Burst-drain the recycle ring into the stash so the ring
            // never backs up against the worker.
            while let Some(b) = w.recycle.try_pop() {
                w.stash.push(b);
            }
            w.stash.pop().unwrap_or_else(|| {
                self.pool_misses.inc();
                Vec::new()
            })
        };
        buf.clear();
        buf.extend_from_slice(bytes);
        let seq = self.seq;
        self.seq += 1;
        let mut job = Job { packet: buf, seq, in_port, now };
        let w = &mut self.workers[shard];
        match self.backpressure {
            Backpressure::Drop => match w.producer.try_push(job) {
                Ok(()) => {
                    self.submitted += 1;
                    Some(seq)
                }
                Err(back) => {
                    // The packet is dropped (and counted), but its buffer
                    // survives into the stash — overload must not turn
                    // into an allocation storm.
                    w.producer.note_drop();
                    w.stash.push(back.packet);
                    None
                }
            },
            Backpressure::Block => {
                let mut waiter = Waiter::new();
                loop {
                    match w.producer.try_push(job) {
                        Ok(()) => {
                            self.submitted += 1;
                            return Some(seq);
                        }
                        Err(back) => {
                            job = back;
                            w.thread.unpark();
                            waiter.wait();
                        }
                    }
                }
            }
        }
    }

    /// Publishes a new route snapshot; every worker picks it up at its
    /// next batch boundary without the hot path taking a lock.
    pub fn publish_routes(&self, snapshot: RouteSnapshot) {
        self.routes.publish(snapshot);
    }

    /// The epoch cell the workers read routes from — hand this to a
    /// control plane (`ControlNode::mirror_into`) so its published
    /// snapshots reach the threaded workers directly.
    pub fn routes_cell(&self) -> Arc<EpochCell<RouteSnapshot>> {
        Arc::clone(&self.routes)
    }

    /// Current occupancy of each worker's ring.
    pub fn ring_occupancy(&self) -> Vec<usize> {
        self.workers.iter().map(|w| w.producer.occupancy()).collect()
    }

    /// The telemetry registry every worker (and its router) reports into.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Refreshes the ring-occupancy gauges and snapshots the registry.
    ///
    /// Safe to call while the dataplane runs: counters are monotonic, so
    /// the snapshot is a consistent lower bound even mid-batch.
    pub fn metrics_snapshot(&self) -> Snapshot {
        for w in &self.workers {
            w.occupancy.set(w.producer.occupancy() as i64);
        }
        self.registry.snapshot()
    }

    /// Drains the rings, stops the workers, and collects their reports.
    pub fn shutdown(self) -> DataplaneReport {
        self.stop.store(true, Ordering::Release);
        // Idle workers may be parked; wake them so they observe `stop`
        // without waiting out a park timeout.
        for w in &self.workers {
            w.thread.unpark();
        }
        let mut reports = Vec::with_capacity(self.workers.len());
        let mut ring_drops = Vec::with_capacity(self.workers.len());
        for w in self.workers {
            ring_drops.push(w.producer.drops());
            reports.push(w.handle.join().expect("dataplane worker panicked"));
            w.occupancy.set(0);
        }
        DataplaneReport {
            workers: reports,
            ring_drops,
            submitted: self.submitted,
            registry: self.registry,
        }
    }
}

/// Packets-per-batch histogram bounds: powers of two up to a generous
/// batch size.
const BATCH_FILL_BOUNDS: [u64; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

/// The counters one worker thread reports into the dataplane [`Registry`].
///
/// Registered on the dispatcher thread (so registration order is
/// deterministic), then moved into the worker.
struct WorkerTelemetry {
    outcomes: OutcomeCounters,
    /// Live packets-executed counter, also read by the dispatcher through
    /// [`Dataplane::worker_processed`] for windowed rate measurement.
    processed: Arc<Counter>,
    /// Times the idle loop outlasted its spin window and parked.
    idle_parks: Arc<Counter>,
    batches: Arc<Counter>,
    batch_fill: Arc<Histogram>,
    fns_executed: Arc<Counter>,
    epoch_refreshes: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    cache_rejected: Arc<Counter>,
    programs_optimized: Arc<Counter>,
    opt_ops_eliminated: Arc<Counter>,
    opt_fusions: Arc<Counter>,
    opt_hoists: Arc<Counter>,
    /// Cache totals already exported; `sync_cache` publishes the delta.
    cache_seen: CacheStats,
}

impl WorkerTelemetry {
    fn register(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        WorkerTelemetry {
            outcomes: OutcomeCounters::register(registry, labels),
            processed: registry.counter(
                "dip_worker_processed_total",
                "Packets executed (live; readable mid-run)",
                labels,
            ),
            idle_parks: registry.counter(
                "dip_worker_idle_parks_total",
                "Idle-loop parks after the spin window passed",
                labels,
            ),
            batches: registry.counter("dip_worker_batches_total", "Batches executed", labels),
            batch_fill: registry.histogram(
                "dip_worker_batch_fill",
                "Packets per executed batch",
                labels,
                &BATCH_FILL_BOUNDS,
            ),
            fns_executed: registry.counter(
                "dip_worker_fns_executed_total",
                "Router-executed FN operations",
                labels,
            ),
            epoch_refreshes: registry.counter(
                "dip_worker_epoch_refreshes_total",
                "Route-snapshot swaps picked up at batch boundaries",
                labels,
            ),
            cache_hits: registry.counter(
                "dip_program_cache_hits_total",
                "Program-cache hits",
                labels,
            ),
            cache_misses: registry.counter(
                "dip_program_cache_misses_total",
                "Program-cache misses (compile + admission on first sight)",
                labels,
            ),
            cache_rejected: registry.counter(
                "dip_program_cache_rejected_total",
                "Programs refused admission by dipcheck",
                labels,
            ),
            programs_optimized: registry.counter(
                "dip_programs_optimized_total",
                "Admitted programs that got a dipopt execution plan",
                labels,
            ),
            opt_ops_eliminated: registry.counter(
                "dip_opt_ops_eliminated_total",
                "Chain steps eliminated by dipopt across cached programs",
                labels,
            ),
            opt_fusions: registry.counter(
                "dip_opt_fusions_total",
                "Adjacent-op fusions applied by dipopt across cached programs",
                labels,
            ),
            opt_hoists: registry.counter(
                "dip_opt_hoists_total",
                "Key schedules hoisted by dipopt across cached programs",
                labels,
            ),
            cache_seen: CacheStats::default(),
        }
    }

    /// Publishes the program-cache counters as deltas against the last
    /// sync, so mid-run snapshots see live values.
    fn sync_cache(&mut self, stats: CacheStats) {
        self.cache_hits.add(stats.hits - self.cache_seen.hits);
        self.cache_misses.add(stats.misses - self.cache_seen.misses);
        self.cache_rejected.add(stats.rejected - self.cache_seen.rejected);
        self.programs_optimized.add(stats.programs_optimized - self.cache_seen.programs_optimized);
        self.opt_ops_eliminated.add(stats.ops_eliminated - self.cache_seen.ops_eliminated);
        self.opt_fusions.add(stats.fusions - self.cache_seen.fusions);
        self.opt_hoists.add(stats.hoists - self.cache_seen.hoists);
        self.cache_seen = stats;
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    mut router: DipRouter,
    mut cache: ProgramCache,
    mut ring: RingConsumer<Job>,
    mut recycle_tx: RingProducer<Vec<u8>>,
    routes: Arc<EpochCell<RouteSnapshot>>,
    stop: Arc<AtomicBool>,
    batch_size: usize,
    record_outcomes: bool,
    mut telemetry: WorkerTelemetry,
) -> WorkerReport {
    let mut reader = routes.reader();
    let mut batch = PacketBatch::new(batch_size);
    let mut stats = WorkerStats::default();
    let mut outcomes = Vec::new();
    let mut idle = Waiter::new();
    // Reused resolve-phase scratch: per-packet parse + program index
    // (`None` = malformed), filled in admission order each batch.
    let mut resolved: Vec<Option<(ParsedPacket, usize)>> = Vec::with_capacity(batch_size.max(1));
    loop {
        // Batch boundary: one atomic load unless the control plane moved.
        if reader.refresh() {
            reader.get().apply(router.state_mut());
            stats.epoch_refreshes += 1;
            telemetry.epoch_refreshes.inc();
        }
        while !batch.is_full() {
            match ring.try_pop() {
                Some(job) => {
                    // The buffer displaced from the slot goes back to the
                    // dispatcher for refilling; the recycle ring is sized
                    // for all buffers in flight, so this only fails once
                    // the dispatcher has stopped draining it (shutdown),
                    // when freeing is the right outcome anyway.
                    if let Some(old) = batch.adopt(job.packet, job.seq, job.in_port, job.now) {
                        let _ = recycle_tx.try_push(old);
                    }
                }
                None => break,
            }
        }
        if batch.is_empty() {
            if stop.load(Ordering::Acquire) && ring.is_empty() {
                break;
            }
            if idle.wait() {
                telemetry.idle_parks.inc();
            }
            continue;
        }
        idle.reset();
        stats.batches += 1;
        telemetry.batches.inc();
        telemetry.batch_fill.observe(batch.len() as u64);
        // Resolve phase: parse + program resolution for the whole batch.
        // The memo starts fresh per batch, so a batch full of one program
        // — the common case — costs a single map probe; the rest of the
        // packets revalidate with one byte comparison each.
        resolved.clear();
        let mut memo = None;
        for pos in 0..batch.len() {
            let slot = batch.slot(batch.live()[pos]);
            resolved.push(parse_packet(&slot.buf).map(|parsed| {
                let idx = cache.resolve(&parsed, &slot.buf, &mut memo);
                (parsed, idx)
            }));
        }
        // Execute phase: run the resolved batch back-to-back.
        for (pos, res) in resolved.iter().enumerate() {
            let slot_idx = batch.live()[pos];
            let slot = batch.slot_mut(slot_idx);
            let (verdict, pstats) = match res {
                None => (Verdict::Drop(DropReason::MalformedField), Default::default()),
                Some((parsed, idx)) => {
                    let program = cache.get(*idx);
                    if program.admitted {
                        router.process_parsed(
                            &mut slot.buf,
                            parsed,
                            &program.chain,
                            slot.in_port,
                            slot.now,
                        )
                    } else {
                        (Verdict::Drop(DropReason::ProgramRejected), Default::default())
                    }
                }
            };
            stats.processed += 1;
            stats.fns_executed += u64::from(pstats.fns_executed);
            telemetry.fns_executed.add(u64::from(pstats.fns_executed));
            telemetry.outcomes.record(verdict.outcome());
            match &verdict {
                Verdict::Forward(_) => stats.forwarded += 1,
                Verdict::Deliver | Verdict::Consumed | Verdict::RespondCached(_) => {
                    stats.local += 1
                }
                Verdict::Notify(_) => stats.notified += 1,
                Verdict::Drop(_) => stats.dropped += 1,
            }
            if record_outcomes {
                outcomes.push(PacketRecord {
                    seq: slot.seq,
                    verdict,
                    bytes: slot.buf.clone(),
                    in_port: slot.in_port,
                });
            }
        }
        telemetry.processed.add(batch.len() as u64);
        batch.recycle_all();
        telemetry.sync_cache(cache.stats());
    }
    stats.cache = cache.stats();
    telemetry.sync_cache(stats.cache);
    WorkerReport { stats, outcomes, router }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_tables::fib::NextHop;
    use dip_wire::ipv4::Ipv4Addr;

    fn factory(i: usize) -> DipRouter {
        let mut r = DipRouter::new(i as u64, [0x42; 16]);
        r.state_mut().ipv4_fib.add_route(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(1));
        r
    }

    fn dip32(i: u32) -> Vec<u8> {
        dip_protocols::ip::dip32_packet(
            Ipv4Addr::new(10, (i >> 8) as u8, i as u8, 1),
            Ipv4Addr::new(1, 1, 1, 1),
            64,
        )
        .to_bytes(&[0u8; 32])
        .unwrap()
    }

    #[test]
    fn wait_step_spins_through_the_window_then_backs_off_to_the_cap() {
        let us = Duration::from_micros;
        // Inside the window nothing parks, however often the thread looked.
        for idle in [us(0), us(28), us(99)] {
            assert_eq!(wait_step(idle, 0), WaitStep::Spin);
        }
        // Past it, parks double from 5 µs and stay at 200 µs.
        let parks: Vec<WaitStep> = (0..9).map(|n| wait_step(SPIN_WINDOW, n)).collect();
        let expected = [5, 10, 20, 40, 80, 160, 200, 200, 200].map(|t| WaitStep::Park(us(t)));
        assert_eq!(parks, expected);
        assert_eq!(wait_step(us(1_000_000), u32::MAX), WaitStep::Park(PARK_MAX));
    }

    #[test]
    fn waiter_reset_restores_window_and_backoff() {
        // A wait that began long ago and has parked its way up the backoff.
        let long_ago = Instant::now().checked_sub(10 * SPIN_WINDOW).expect("clock past start-up");
        let mut w = Waiter { since: Some(long_ago), parks: 6 };
        assert_eq!(wait_step(long_ago.elapsed(), w.parks), WaitStep::Park(PARK_MAX));
        w.reset();
        assert_eq!((w.since, w.parks), (None, 0));
        // The next wait starts a fresh window: its first step is a yield,
        // and the clock is read only now.
        assert!(!w.wait(), "first step after progress must not park");
        assert!(w.since.is_some_and(|t| t > long_ago) && w.parks == 0);
    }

    #[test]
    fn counts_add_up_across_workers_and_batches() {
        let config = DataplaneConfig { workers: 4, batch_size: 8, ..Default::default() };
        let mut dp = Dataplane::start(config, factory);
        for i in 0..400 {
            assert!(dp.submit(dip32(i), 0, u64::from(i)).is_some());
        }
        let report = dp.shutdown();
        assert_eq!(report.total_processed(), 400);
        assert_eq!(report.submitted, 400);
        assert_eq!(report.workers.iter().map(|w| w.stats.forwarded).sum::<u64>(), 400);
        assert_eq!(report.total_ring_drops(), 0);
        // One program, compiled at most once per worker.
        let misses: u64 = report.workers.iter().map(|w| w.stats.cache.misses).sum();
        assert!(misses <= 4, "program compiled more than once per worker: {misses}");
    }

    #[test]
    fn drop_backpressure_counts_ring_drops() {
        // One worker, tiny ring, worker parked behind a full pipe: some
        // packets must be dropped and counted rather than blocking.
        let config = DataplaneConfig {
            workers: 1,
            batch_size: 1,
            ring_capacity: 2,
            backpressure: Backpressure::Drop,
            ..Default::default()
        };
        let mut dp = Dataplane::start(config, factory);
        let mut accepted = 0u64;
        for i in 0..5_000 {
            if dp.submit(dip32(i), 0, 0).is_some() {
                accepted += 1;
            }
        }
        let report = dp.shutdown();
        assert_eq!(report.total_processed(), accepted);
        assert_eq!(report.submitted, accepted);
        assert_eq!(report.total_ring_drops() + accepted, 5_000);
    }

    #[test]
    fn outcomes_merge_into_submission_order() {
        let config = DataplaneConfig {
            workers: 3,
            batch_size: 4,
            record_outcomes: true,
            ..Default::default()
        };
        let mut dp = Dataplane::start(config, factory);
        for i in 0..60 {
            dp.submit(dip32(i), 0, 0);
        }
        let report = dp.shutdown();
        let merged = report.sorted_outcomes();
        assert_eq!(merged.len(), 60);
        let seqs: Vec<u64> = merged.iter().map(|o| o.seq).collect();
        assert_eq!(seqs, (0..60).collect::<Vec<u64>>());
        assert!(merged.iter().all(|o| o.verdict == Verdict::Forward(vec![1])));
    }

    #[test]
    fn epoch_swap_reroutes_without_restart() {
        let config = DataplaneConfig { workers: 2, record_outcomes: true, ..Default::default() };
        // Workers start with NO route for 99/8.
        let mut dp = Dataplane::start(config, |i| DipRouter::new(i as u64, [1; 16]));
        let unrouted = dip_protocols::ip::dip32_packet(
            Ipv4Addr::new(99, 0, 0, 1),
            Ipv4Addr::new(1, 1, 1, 1),
            64,
        )
        .to_bytes(&[])
        .unwrap();
        dp.submit(unrouted.clone(), 0, 0);
        // Let the first packet drain before publishing the new table, so
        // the drop-then-forward order is deterministic.
        while dp.ring_occupancy().iter().sum::<usize>() > 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        let mut snap = RouteSnapshot::default();
        snap.ipv4_fib.add_route(Ipv4Addr::new(99, 0, 0, 0), 8, NextHop::port(7));
        dp.publish_routes(snap);
        dp.submit(unrouted, 0, 1);
        let report = dp.shutdown();
        let merged = report.sorted_outcomes();
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].verdict, Verdict::Drop(DropReason::NoRoute));
        assert_eq!(merged[1].verdict, Verdict::Forward(vec![7]), "epoch swap took effect");
        assert!(report.workers.iter().any(|w| w.stats.epoch_refreshes > 0));
    }

    #[test]
    fn routes_published_once_right_after_start_are_applied() {
        // Regression (ROADMAP 1d): a publication that landed before the
        // worker thread created its epoch reader was cached there and
        // never applied. One publish, no retry: the worker must pick it up.
        let config = DataplaneConfig { record_outcomes: true, ..Default::default() };
        let mut dp = Dataplane::start(config, |i| DipRouter::new(i as u64, [1; 16]));
        let mut snap = RouteSnapshot::default();
        snap.ipv4_fib.add_route(Ipv4Addr::new(99, 0, 0, 0), 8, NextHop::port(7));
        dp.publish_routes(snap);
        let deadline = Instant::now() + Duration::from_secs(10);
        while dp.metrics_snapshot().get("dip_worker_epoch_refreshes_total") == 0 {
            assert!(Instant::now() < deadline, "the only publication was never picked up");
            std::thread::yield_now();
        }
        let pkt = dip_protocols::ip::dip32_packet(
            Ipv4Addr::new(99, 0, 0, 1),
            Ipv4Addr::new(1, 1, 1, 1),
            64,
        );
        dp.submit(pkt.to_bytes(&[]).unwrap(), 0, 0);
        let report = dp.shutdown();
        assert_eq!(report.sorted_outcomes()[0].verdict, Verdict::Forward(vec![7]));
        assert_eq!(report.workers[0].stats.epoch_refreshes, 1);
    }

    #[test]
    fn registry_accounts_for_every_submitted_packet() {
        // Mixed traffic under Drop backpressure: routed, unrouted and
        // malformed packets plus ring drops must partition the injected
        // total exactly — the tentpole accounting identity.
        let config = DataplaneConfig {
            workers: 2,
            batch_size: 4,
            ring_capacity: 8,
            backpressure: Backpressure::Drop,
            ..Default::default()
        };
        let mut dp = Dataplane::start(config, factory);
        let mut injected = 0u64;
        for i in 0..2_000 {
            let pkt = match i % 3 {
                0 => dip32(i),
                1 => dip_protocols::ip::dip32_packet(
                    Ipv4Addr::new(99, 0, (i >> 8) as u8, i as u8),
                    Ipv4Addr::new(1, 1, 1, 1),
                    64,
                )
                .to_bytes(&[])
                .unwrap(),
                _ => vec![0xff; 6],
            };
            dp.submit(pkt, 0, 0);
            injected += 1;
        }
        // A live snapshot must not panic or tear (counters are monotonic).
        let live = dp.metrics_snapshot();
        assert!(live.get("dip_ring_capacity") > 0);
        let report = dp.shutdown();
        let snap = report.registry.snapshot();
        let forwarded = snap.sum_where("dip_packets_total", &[("outcome", "forwarded")]);
        let consumed = snap.sum_where("dip_packets_total", &[("outcome", "consumed")]);
        let drops = snap.get("dip_drops_total");
        assert_eq!(
            forwarded + consumed + drops,
            injected,
            "every injected packet must be forwarded, consumed, or dropped exactly once"
        );
        // Ring drops live only in the drop taxonomy, never in
        // packets_total (they never reached a worker).
        assert_eq!(
            snap.sum_where("dip_drops_total", &[("reason", "queue_full")]),
            report.total_ring_drops()
        );
        assert_eq!(
            snap.sum_where("dip_packets_total", &[("outcome", "dropped")])
                + snap.sum_where("dip_drops_total", &[("reason", "queue_full")]),
            drops
        );
    }

    #[test]
    fn optimized_workers_forward_identically_and_export_opt_counters() {
        let opt_factory = |i: usize| {
            let mut r = factory(i);
            r.config_mut().optimize = true;
            r
        };
        let run = |make: fn(usize) -> DipRouter| {
            let config = DataplaneConfig { workers: 2, batch_size: 8, ..Default::default() };
            let mut dp = Dataplane::start(config, make);
            for i in 0..200 {
                assert!(dp.submit(dip32(i), 0, u64::from(i)).is_some());
            }
            dp.shutdown()
        };
        let plain = run(factory);
        let optimized = run(opt_factory);
        // Same traffic, same verdicts — the optimizer must be invisible.
        assert_eq!(
            optimized.workers.iter().map(|w| w.stats.forwarded).sum::<u64>(),
            plain.workers.iter().map(|w| w.stats.forwarded).sum::<u64>(),
        );
        let snap = optimized.registry.snapshot();
        // One program per worker that saw traffic, each with one fusion
        // (Match32 + Source share a stage).
        let optimized_programs = snap.get("dip_programs_optimized_total");
        assert!(optimized_programs >= 1, "no program was optimized");
        assert_eq!(snap.get("dip_opt_fusions_total"), optimized_programs);
        assert_eq!(snap.get("dip_opt_ops_eliminated_total"), 0);
        let plain_snap = plain.registry.snapshot();
        assert_eq!(plain_snap.get("dip_programs_optimized_total"), 0);
    }

    #[test]
    fn submit_bytes_steady_state_is_allocation_free() {
        // 20k packets through a 1-worker dataplane: allocations on the
        // submit path are bounded by buffers in flight (ring + batch +
        // slack for recycle-ring latency), NOT by the packet count. This
        // is the satellite-2 pin: the old path cloned every packet.
        let config =
            DataplaneConfig { workers: 1, batch_size: 8, ring_capacity: 64, ..Default::default() };
        let mut dp = Dataplane::start(config, factory);
        let in_flight_bound = (dp.ring_capacity(0) + 8 + 1) as u64;
        for i in 0..20_000 {
            assert!(dp.submit_bytes(&dip32(i), 0, u64::from(i)).is_some());
        }
        let misses = dp.pool_misses();
        assert!(
            misses <= in_flight_bound,
            "pool misses {misses} exceed the in-flight buffer bound {in_flight_bound} \
             over 20000 packets — the hot path is allocating per packet"
        );
        let report = dp.shutdown();
        assert_eq!(report.total_processed(), 20_000);
    }

    #[test]
    fn submit_bytes_drop_overload_reclaims_buffers() {
        // Tiny ring + Drop backpressure: most packets die at the ring, but
        // their buffers must come back to the stash — overload must not
        // become an allocation storm either.
        let config = DataplaneConfig {
            workers: 1,
            batch_size: 4,
            ring_capacity: 4,
            backpressure: Backpressure::Drop,
            ..Default::default()
        };
        let mut dp = Dataplane::start(config, factory);
        let in_flight_bound = (dp.ring_capacity(0) + 4 + 1) as u64;
        let mut accepted = 0u64;
        for i in 0..10_000 {
            if dp.submit_bytes(&dip32(i), 0, 0).is_some() {
                accepted += 1;
            }
        }
        assert!(
            dp.pool_misses() <= in_flight_bound,
            "overload allocated per packet: {} misses",
            dp.pool_misses()
        );
        let report = dp.shutdown();
        assert_eq!(report.total_processed(), accepted);
        assert_eq!(report.total_ring_drops() + accepted, 10_000);
    }

    #[test]
    fn blocking_submit_bytes_is_lossless_through_a_tiny_ring() {
        // Block backpressure with a ring far smaller than the workload:
        // the spin-then-park wait must neither lose packets nor deadlock
        // against a parked worker.
        let config =
            DataplaneConfig { workers: 2, batch_size: 2, ring_capacity: 2, ..Default::default() };
        let mut dp = Dataplane::start(config, factory);
        for i in 0..3_000 {
            assert!(dp.submit_bytes(&dip32(i), 0, 0).is_some());
        }
        let report = dp.shutdown();
        assert_eq!(report.total_processed(), 3_000);
        assert_eq!(report.total_ring_drops(), 0);
    }

    #[test]
    fn worker_processed_counter_is_live_and_cpu_probe_samples() {
        let mut dp = Dataplane::start(DataplaneConfig::default(), factory);
        for i in 0..500 {
            dp.submit_bytes(&dip32(i), 0, 0);
        }
        // Drain, then the live counter must reach the submitted total.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while dp.worker_processed(0) < 500 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(dp.worker_processed(0), 500);
        #[cfg(target_os = "linux")]
        assert!(
            dp.worker_cpu_ns(0).is_some(),
            "Linux must expose the per-thread CPU clock for capacity accounting"
        );
        dp.shutdown();
    }

    #[test]
    fn malformed_packets_drop_deterministically() {
        let mut dp = Dataplane::start(
            DataplaneConfig { record_outcomes: true, ..Default::default() },
            factory,
        );
        dp.submit(vec![0xff; 3], 9, 0);
        let report = dp.shutdown();
        assert_eq!(report.sorted_outcomes()[0].verdict, Verdict::Drop(DropReason::MalformedField));
    }
}
