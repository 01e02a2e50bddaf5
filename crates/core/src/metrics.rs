//! Per-router telemetry: FN-op invocation counters, verdict counters,
//! and compiled-chain execute latency.
//!
//! A [`DipRouter`](crate::DipRouter) carries no metrics by default — the
//! hot path is untouched until
//! [`attach_metrics`](crate::DipRouter::attach_metrics) wires it to a
//! [`Registry`]. Once attached, every `process_parsed` call records its
//! wall-clock execute latency and final verdict, and every executed FN op
//! bumps a per-key invocation counter; the router's PIT also reports
//! expired-entry evictions into the same registry.

use crate::router::Verdict;
use dip_telemetry::{Counter, Histogram, Registry};
use dip_wire::triple::FnKey;
use std::collections::HashMap;
use std::sync::Arc;

/// Execute-latency bucket bounds in nanoseconds (250ns … 131µs).
const EXECUTE_NS_BOUNDS: [u64; 10] =
    [250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 65_000, 131_000];

/// The counter set one router reports into a [`Registry`].
pub struct RouterMetrics {
    registry: Registry,
    labels: Vec<(String, String)>,
    /// Indexed like the `Verdict` variants: forward, deliver, consumed,
    /// respond_cached, notify, drop.
    verdicts: [Arc<Counter>; 6],
    execute_ns: Arc<Histogram>,
    /// Per executed FN key, registered on its first invocation: the twelve
    /// standard keys by wire value − 1, so counting one costs an index.
    standard: [Option<Arc<Counter>>; STANDARD_KEYS],
    /// The same for keys outside the standard set, by wire value.
    other: HashMap<u16, Option<Arc<Counter>>>,
}

/// Standard FN keys: wire values 1 ..= 12.
const STANDARD_KEYS: usize = 12;

const VERDICT_LABELS: [&str; 6] =
    ["forward", "deliver", "consumed", "respond_cached", "notify", "drop"];

impl RouterMetrics {
    /// Registers the router counter set in `registry` under `labels`
    /// (e.g. `node=3` or `node=3, worker=1`).
    pub fn new(registry: &Registry, labels: &[(&str, &str)]) -> Self {
        let owned: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        let verdicts = VERDICT_LABELS.map(|v| {
            let mut all: Vec<(&str, &str)> = labels.to_vec();
            all.push(("verdict", v));
            registry.counter("dip_router_verdicts_total", "Verdicts by kind", &all)
        });
        let execute_ns = registry.histogram(
            "dip_router_execute_ns",
            "Compiled-chain execute latency (process_parsed wall time)",
            labels,
            &EXECUTE_NS_BOUNDS,
        );
        RouterMetrics {
            registry: registry.clone(),
            labels: owned,
            verdicts,
            execute_ns,
            standard: Default::default(),
            other: HashMap::new(),
        }
    }

    pub(crate) fn count_verdict(&self, verdict: &Verdict) {
        let idx = match verdict {
            Verdict::Forward(_) => 0,
            Verdict::Deliver => 1,
            Verdict::Consumed => 2,
            Verdict::RespondCached(_) => 3,
            Verdict::Notify(_) => 4,
            Verdict::Drop(_) => 5,
        };
        self.verdicts[idx].inc();
    }

    pub(crate) fn observe_execute_ns(&self, ns: u64) {
        self.execute_ns.observe(ns);
    }

    pub(crate) fn count_op(&mut self, key: FnKey) {
        let slot = match key {
            FnKey::Other(wire) => self.other.entry(wire).or_default(),
            _ => &mut self.standard[usize::from(key.to_wire()) - 1],
        };
        slot.get_or_insert_with(|| {
            let label = format!("{key:?}");
            let mut all: Vec<(&str, &str)> =
                self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
            all.push(("fn", label.as_str()));
            self.registry.counter("dip_fn_invocations_total", "Executed FN operations by key", &all)
        })
        .inc();
    }
}

impl std::fmt::Debug for RouterMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterMetrics").field("labels", &self.labels).finish_non_exhaustive()
    }
}
