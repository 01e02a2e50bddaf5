//! Per-router telemetry: FN-op invocation counters, verdict counters,
//! and compiled-chain execute latency.
//!
//! A [`DipRouter`](crate::DipRouter) carries no metrics by default — the
//! hot path is untouched until
//! [`attach_metrics`](crate::DipRouter::attach_metrics) wires it to a
//! [`Registry`]. Once attached, every `process_parsed` (and `refuse`) call
//! tallies its final verdict and every executed FN op tallies its key, in
//! plain integers the router owns: the per-packet path reads no clock and
//! writes no shared atomic.
//! [`flush_metrics`](crate::DipRouter::flush_metrics) publishes the
//! tallies into the registry and observes the execute-latency histogram
//! once — the dataplane once per batch, [`process`](crate::DipRouter::process)
//! once per packet, so the simulator's and control plane's counters move
//! with every packet. The router's PIT also reports expired-entry
//! evictions into the same registry.

use crate::router::Verdict;
use dip_telemetry::{Counter, Histogram, Registry};
use dip_wire::triple::FnKey;
use std::collections::HashMap;
use std::sync::Arc;

/// Execute-latency bucket bounds in nanoseconds (64ns … 131µs).
const EXECUTE_NS_BOUNDS: [u64; 12] =
    [64, 128, 250, 500, 1_000, 2_000, 4_000, 8_000, 16_000, 32_000, 65_000, 131_000];

/// The counter set one router reports into a [`Registry`], with the
/// tallies not yet published.
pub struct RouterMetrics {
    registry: Registry,
    labels: Vec<(String, String)>,
    /// Indexed like the `Verdict` variants: forward, deliver, consumed,
    /// respond_cached, notify, drop.
    verdicts: [Arc<Counter>; 6],
    execute_ns: Arc<Histogram>,
    /// Per executed FN key, registered on its first invocation (so the
    /// registry lists keys in the order they first ran): the twelve
    /// standard keys by wire value − 1.
    standard: [Option<Arc<Counter>>; STANDARD_KEYS],
    /// Keys outside the standard set, by wire value, registered on their
    /// first invocation and counted as they run (custom modules only).
    other: HashMap<u16, Arc<Counter>>,
    /// Verdicts since the last flush, indexed like `verdicts`.
    verdict_tally: [u64; 6],
    /// Standard-key invocations since the last flush, indexed like
    /// `standard`.
    op_tally: [u64; STANDARD_KEYS],
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
            "Execute time per packet, averaged over each flush: one observation per dataplane \
             batch, or per packet through process()",
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
            verdict_tally: [0; 6],
            op_tally: [0; STANDARD_KEYS],
        }
    }

    pub(crate) fn tally_verdict(&mut self, verdict: &Verdict) {
        let idx = match verdict {
            Verdict::Forward(_) => 0,
            Verdict::Deliver => 1,
            Verdict::Consumed => 2,
            Verdict::RespondCached(_) => 3,
            Verdict::Notify(_) => 4,
            Verdict::Drop(_) => 5,
        };
        self.verdict_tally[idx] += 1;
    }

    pub(crate) fn tally_op(&mut self, key: FnKey) {
        match key {
            FnKey::Other(wire) => {
                if !self.other.contains_key(&wire) {
                    let counter = self.op_counter(key);
                    self.other.insert(wire, counter);
                }
                self.other[&wire].inc();
            }
            _ => {
                let idx = usize::from(key.to_wire()) - 1;
                if self.standard[idx].is_none() {
                    self.standard[idx] = Some(self.op_counter(key));
                }
                self.op_tally[idx] += 1;
            }
        }
    }

    /// Publishes the tallies and, when `packets > 0`, observes the
    /// histogram once at `exec_ns ÷ packets`.
    pub(crate) fn flush(&mut self, exec_ns: u64, packets: u64) {
        for (counter, n) in self.verdicts.iter().zip(&mut self.verdict_tally) {
            if *n > 0 {
                counter.add(std::mem::take(n));
            }
        }
        // A tallied key registered its counter on its first invocation.
        for (counter, n) in self.standard.iter().zip(&mut self.op_tally) {
            if let (Some(counter), true) = (counter, *n > 0) {
                counter.add(std::mem::take(n));
            }
        }
        if let Some(mean) = exec_ns.checked_div(packets) {
            self.execute_ns.observe(mean);
        }
    }

    /// The `dip_fn_invocations_total{fn=key}` counter under this router's
    /// labels.
    fn op_counter(&self, key: FnKey) -> Arc<Counter> {
        let label = format!("{key:?}");
        let mut all: Vec<(&str, &str)> =
            self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        all.push(("fn", label.as_str()));
        self.registry.counter("dip_fn_invocations_total", "Executed FN operations by key", &all)
    }
}

impl std::fmt::Debug for RouterMetrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RouterMetrics").field("labels", &self.labels).finish_non_exhaustive()
    }
}
