//! Read-mostly table snapshots with epoch-swap publication.
//!
//! Control-plane updates (route announcements, cache preloads) and the
//! packet hot path must never contend on a lock: a worker that blocks on
//! a FIB mutex mid-batch stalls its whole ring. The dataplane instead
//! keeps the control-plane-owned tables in a [`RouteSnapshot`] published
//! through an [`EpochCell`]: writers build a complete new snapshot
//! off-path and swap it in with one atomic epoch bump; each worker holds
//! an [`EpochReader`] that compares a cached epoch against the cell's
//! epoch at batch boundaries — one relaxed-ordering load per batch — and
//! only when the epoch moved does it take the (cold) publication lock to
//! clone out the new `Arc`.
//!
//! Freeing a superseded version is the publisher's job, not a worker's:
//! the cell keeps the value a publication replaced until the next
//! publication, and drops it there. A worker moves to the new version at
//! its next batch boundary, microseconds later, so by the time the
//! publisher drops the old one nobody else holds it, and the worker's own
//! releases are plain reference-count decrements.
//!
//! Flow state (PIT, and the content store once data traffic has run) is
//! deliberately *not* snapshotted on the normal path: it is owned and
//! mutated by exactly one worker per flow (see
//! [`FlowShard`](crate::shard::FlowShard)), so replacing it from the
//! control plane would discard in-flight interests. The optional `pit` /
//! `content_store` fields exist for explicit resets and preloads.

use dip_fnops::RouterState;
use dip_routes::RouteTables;
use dip_tables::content_store::ContentStore;
use dip_tables::pit::Pit;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A complete control-plane view of one router's tables.
#[derive(Debug, Clone, Default)]
pub struct RouteSnapshot {
    /// The forwarding tables (`dip-routes`), installed whole. Cloning is
    /// `Arc` bumps, so delta-produced snapshots share every untouched
    /// root page and chunk with their predecessor.
    pub tables: RouteTables,
    /// When set, *replaces* the worker's content store (cache preload or
    /// post-poisoning reset). `None` preserves the worker's cache.
    pub content_store: Option<ContentStore<u32, Arc<[u8]>>>,
    /// When set, *replaces* the worker's PIT (explicit reset only —
    /// discards in-flight interests). `None` preserves flow state.
    pub pit: Option<Pit<u32>>,
}

impl RouteSnapshot {
    /// A snapshot carrying only route tables. Wrapping them is free; what
    /// a version costs was paid when it was committed (the root spine and
    /// the pages the delta touched, see `dip_routes::lpm`), and freeing
    /// it falls to the publisher once it is superseded (see [`EpochCell`]).
    pub fn from_tables(tables: RouteTables) -> Self {
        RouteSnapshot { tables, ..RouteSnapshot::default() }
    }

    /// Installs this snapshot into a worker's state: route tables are
    /// replaced; PIT/content-store only when explicitly carried.
    pub fn apply(&self, state: &mut RouterState) {
        state.routes = self.tables.clone();
        // Replacement tables keep counting where the worker's own did: a
        // clone left on the snapshot's counters would go quiet in the
        // registry the worker was wired to.
        if let Some(cs) = &self.content_store {
            state.install_content_store(cs.clone());
        }
        if let Some(pit) = &self.pit {
            state.install_pit(pit.clone());
        }
    }
}

/// A published value with an epoch counter: readers detect staleness with
/// one atomic load and touch the lock only across an actual update.
#[derive(Debug)]
pub struct EpochCell<T> {
    epoch: AtomicU64,
    /// Cold path only: held for the duration of an `Arc` clone/swap,
    /// never during packet processing.
    slot: Mutex<Versions<T>>,
}

/// The current value and the one it replaced.
#[derive(Debug)]
struct Versions<T> {
    current: Arc<T>,
    /// Kept until the next publication, so that readers moving off it
    /// never hold its last reference.
    retired: Option<Arc<T>>,
}

impl<T> EpochCell<T> {
    /// A cell at epoch 0 holding `value`.
    pub fn new(value: T) -> Self {
        let versions = Versions { current: Arc::new(value), retired: None };
        EpochCell { epoch: AtomicU64::new(0), slot: Mutex::new(versions) }
    }

    /// Publishes a new value: swap first, then bump the epoch (Release),
    /// so any reader observing the new epoch finds the new value. The
    /// value this replaces is kept until the next publication; the one
    /// the previous publication replaced is returned, after the lock is
    /// released. A reader that refreshed since has let go of it, so
    /// dropping it frees it on the publishing thread — after waking the
    /// readers, say, so that they need not wait for the free. A reader
    /// still two epochs behind frees it itself.
    pub fn publish(&self, value: T) -> Option<Arc<T>> {
        let value = Arc::new(value);
        let superseded = {
            let mut versions = self.slot.lock().expect("epoch cell poisoned");
            let replaced = std::mem::replace(&mut versions.current, value);
            versions.retired.replace(replaced)
        };
        self.epoch.fetch_add(1, Ordering::Release);
        superseded
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// A reader holding the current value but owing its first
    /// [`EpochReader::refresh`]: `seen` starts at epoch 0, not at the
    /// current epoch, so a publication that landed *before* the reader
    /// existed is still reported once — a worker that applies snapshots on
    /// `refresh() == true` cannot miss the one published while its thread
    /// was starting. A cell nobody published into is at epoch 0 and
    /// reports nothing.
    pub fn reader(self: &Arc<Self>) -> EpochReader<T> {
        let cached = Arc::clone(&self.slot.lock().expect("epoch cell poisoned").current);
        EpochReader { cell: Arc::clone(self), seen: 0, cached }
    }
}

/// One worker's cached view of an [`EpochCell`].
#[derive(Debug)]
pub struct EpochReader<T> {
    cell: Arc<EpochCell<T>>,
    seen: u64,
    cached: Arc<T>,
}

impl<T> EpochReader<T> {
    /// Refreshes the cached value if the cell moved. Returns `true` when a
    /// new value was picked up. The fast path (no publication since the
    /// last call) is a single atomic load.
    pub fn refresh(&mut self) -> bool {
        let epoch = self.cell.epoch.load(Ordering::Acquire);
        if epoch == self.seen {
            return false;
        }
        self.cached = Arc::clone(&self.cell.slot.lock().expect("epoch cell poisoned").current);
        self.seen = epoch;
        true
    }

    /// The cached value (never blocks).
    pub fn get(&self) -> &T {
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dip_tables::fib::NextHop;
    use dip_wire::ipv4::Ipv4Addr;

    #[test]
    fn reader_sees_updates_only_after_refresh() {
        let cell = Arc::new(EpochCell::new(1u32));
        let mut reader = cell.reader();
        assert_eq!(*reader.get(), 1);
        assert!(!reader.refresh(), "no publication yet");
        cell.publish(2);
        assert_eq!(*reader.get(), 1, "stale until refresh");
        assert!(reader.refresh());
        assert_eq!(*reader.get(), 2);
        assert!(!reader.refresh(), "refresh is idempotent");
    }

    #[test]
    fn reader_created_after_a_publication_still_reports_it_once() {
        let cell = Arc::new(EpochCell::new(1u32));
        cell.publish(2);
        let mut late = cell.reader();
        assert_eq!(*late.get(), 2, "a reader always holds the current value");
        assert!(late.refresh(), "the publication it never saw applied is reported");
        assert_eq!(*late.get(), 2);
        assert!(!late.refresh(), "and only once");
    }

    #[test]
    fn publish_while_reader_holds_value_does_not_block() {
        let cell = Arc::new(EpochCell::new(vec![0u8; 8]));
        let reader = cell.reader();
        let held = reader.get(); // hot path holds a reference...
        cell.publish(vec![1u8; 8]); // ...while the control plane swaps
        assert_eq!(held, &vec![0u8; 8]);
    }

    /// A value that records, when dropped, its version and the thread
    /// that dropped it.
    struct Tracked {
        version: u32,
        drops: Arc<Mutex<Vec<(u32, std::thread::ThreadId)>>>,
    }

    impl Drop for Tracked {
        fn drop(&mut self) {
            let me = std::thread::current().id();
            self.drops.lock().unwrap().push((self.version, me));
        }
    }

    #[test]
    fn the_publisher_frees_what_it_superseded_and_the_reader_frees_nothing() {
        let drops = Arc::new(Mutex::new(Vec::new()));
        let version = |version| Tracked { version, drops: Arc::clone(&drops) };
        let dropped = || drops.lock().unwrap().iter().map(|&(v, _)| v).collect::<Vec<_>>();
        let cell = Arc::new(EpochCell::new(version(0)));
        let publisher = std::thread::current().id();

        // The reader lives on its own thread and refreshes on request.
        let (ask, asked) = std::sync::mpsc::channel::<()>();
        let (done, finished) = std::sync::mpsc::channel::<u32>();
        let mut reader = cell.reader();
        let worker = std::thread::spawn(move || {
            for () in asked {
                assert!(reader.refresh());
                done.send(reader.get().version).unwrap();
            }
        });
        let refresh = || {
            ask.send(()).unwrap();
            finished.recv().unwrap()
        };

        cell.publish(version(1));
        assert_eq!(refresh(), 1);
        assert!(dropped().is_empty(), "V0 is kept by the cell while the reader moves off it");
        cell.publish(version(2));
        assert_eq!(dropped(), [0], "the second publication frees V0");
        assert_eq!(refresh(), 2);
        assert_eq!(dropped(), [0], "V1 is still alive after the reader moved off it");
        cell.publish(version(3));
        assert_eq!(dropped(), [0, 1], "the next publication frees V1");
        drop(ask);
        worker.join().unwrap();
        drop(cell);
        let drops = drops.lock().unwrap();
        assert_eq!(drops.len(), 4, "every version is freed once: {drops:?}");
        assert!(
            drops.iter().all(|&(_, thread)| thread == publisher),
            "the reader was never the last holder: {drops:?}"
        );
    }

    #[test]
    fn snapshot_apply_preserves_flow_state_by_default() {
        let mut state = RouterState::new(7, [1; 16]);
        state.pit.record_interest(42, 3, 9, 0).unwrap();
        let mut store = dip_routes::RouteStore::new();
        store.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(5));
        let mut snap = RouteSnapshot::from_tables(store.rebuild());
        snap.apply(&mut state);
        assert_eq!(state.lookup_v4(Ipv4Addr::new(10, 1, 2, 3)), Some(NextHop::port(5)));
        assert!(state.pit.contains(&42, 10), "route swap must not drop in-flight interests");

        // An explicit PIT reset does replace flow state.
        snap.pit = Some(Pit::new(16, 100));
        snap.apply(&mut state);
        assert!(!state.pit.contains(&42, 10));
    }

    #[test]
    fn preloaded_flow_state_keeps_counting_into_the_workers_registry() {
        let registry = dip_telemetry::Registry::new();
        let mut router = dip_core::DipRouter::new(7, [1; 16]);
        router.state_mut().enable_content_store(4);
        router.attach_metrics(&registry, &[]);

        // A cache preload and a PIT reset, both with private counters.
        let mut preload = ContentStore::new(1);
        preload.insert(1, b"one".to_vec().into(), 0);
        let snap = RouteSnapshot {
            content_store: Some(preload),
            pit: Some(Pit::new(16, 100)),
            ..RouteSnapshot::default()
        };
        snap.apply(router.state_mut());

        let state = router.state_mut();
        assert_eq!(
            state.content_store.as_mut().unwrap().insert(2, b"two".to_vec().into(), 0),
            Some(1)
        );
        state.pit.record_interest(42, 3, 9, 0).unwrap();
        assert_eq!(state.pit.expire(1_000), 1);
        let counted = registry.snapshot();
        assert_eq!(counted.get("dip_cs_evictions_total"), 1, "the preloaded store is wired");
        assert_eq!(counted.get("dip_pit_expired_evictions_total"), 1, "the reset PIT is wired");
        assert_eq!(snap.content_store.as_ref().unwrap().lru_evictions(), 0);
    }

    #[test]
    fn each_snapshot_replaces_the_whole_table() {
        let mut store = dip_routes::RouteStore::new();
        store.insert_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(7));
        let first = RouteSnapshot::from_tables(store.rebuild());
        let mut state = RouterState::new(3, [0; 16]);
        first.apply(&mut state);
        assert_eq!(state.lookup_v4(Ipv4Addr::new(10, 1, 2, 3)), Some(NextHop::port(7)));

        // The next version routes elsewhere; an empty one routes nothing.
        let mut delta = dip_routes::RouteDelta::new();
        delta.announce_v4(Ipv4Addr::new(10, 0, 0, 0), 8, NextHop::port(2));
        RouteSnapshot::from_tables(store.commit(&delta)).apply(&mut state);
        assert_eq!(state.lookup_v4(Ipv4Addr::new(10, 1, 2, 3)), Some(NextHop::port(2)));
        RouteSnapshot::default().apply(&mut state);
        assert_eq!(state.lookup_v4(Ipv4Addr::new(10, 1, 2, 3)), None);
    }
}
