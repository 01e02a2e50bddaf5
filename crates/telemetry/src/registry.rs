//! The metric registry: named, labeled metric families with two render
//! targets — Prometheus text exposition and a flat JSON-line snapshot.

use crate::metrics::{Counter, Gauge, Histogram};
use std::sync::{Arc, Mutex};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

impl Kind {
    fn prometheus(self) -> &'static str {
        match self {
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Histogram => "histogram",
        }
    }
}

enum Handle {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

struct Instance {
    /// Sorted by key at registration: label order never distinguishes
    /// instances.
    labels: Vec<(String, String)>,
    handle: Handle,
}

struct Family {
    name: String,
    help: String,
    kind: Kind,
    instances: Vec<Instance>,
}

/// A named, labeled collection of metrics.
///
/// Cloning is cheap and shares the underlying store, so one registry can
/// be handed to every worker/router/node that contributes metrics.
/// Registration (`counter`/`gauge`/`histogram`) is get-or-create: asking
/// for the same (name, labels) twice returns the same `Arc`, so wiring
/// code never has to thread handles around. Registration takes a lock;
/// the returned handles are lock-free.
#[derive(Clone, Default)]
pub struct Registry {
    families: Arc<Mutex<Vec<Family>>>,
}

fn canonical(labels: &[(&str, &str)]) -> Vec<(String, String)> {
    let mut v: Vec<(String, String)> =
        labels.iter().map(|(k, val)| (k.to_string(), val.to_string())).collect();
    v.sort();
    v
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    fn register<T, F, G>(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        kind: Kind,
        make: F,
        extract: G,
    ) -> Arc<T>
    where
        F: FnOnce() -> Handle,
        G: Fn(&Handle) -> Option<Arc<T>>,
    {
        let labels = canonical(labels);
        let mut families = self.families.lock().expect("telemetry registry poisoned");
        let family = match families.iter_mut().find(|f| f.name == name) {
            Some(f) => {
                assert!(f.kind == kind, "metric {name} registered as {:?} and {kind:?}", f.kind);
                f
            }
            None => {
                families.push(Family {
                    name: name.to_string(),
                    help: help.to_string(),
                    kind,
                    instances: Vec::new(),
                });
                families.last_mut().expect("just pushed")
            }
        };
        if let Some(existing) = family.instances.iter().find(|i| i.labels == labels) {
            return extract(&existing.handle).expect("kind checked above");
        }
        let handle = make();
        let out = extract(&handle).expect("freshly made handle matches kind");
        family.instances.push(Instance { labels, handle });
        out
    }

    /// The counter `name{labels}`, created at zero on first request.
    pub fn counter(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.register(
            name,
            help,
            labels,
            Kind::Counter,
            || Handle::Counter(Arc::new(Counter::new())),
            |h| match h {
                Handle::Counter(c) => Some(Arc::clone(c)),
                _ => None,
            },
        )
    }

    /// The gauge `name{labels}`, created at zero on first request.
    pub fn gauge(&self, name: &str, help: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.register(
            name,
            help,
            labels,
            Kind::Gauge,
            || Handle::Gauge(Arc::new(Gauge::new())),
            |h| match h {
                Handle::Gauge(g) => Some(Arc::clone(g)),
                _ => None,
            },
        )
    }

    /// The histogram `name{labels}`, created empty over `bounds` on first
    /// request (later requests reuse the first bounds).
    pub fn histogram(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        bounds: &[u64],
    ) -> Arc<Histogram> {
        self.register(
            name,
            help,
            labels,
            Kind::Histogram,
            || Handle::Histogram(Arc::new(Histogram::new(bounds))),
            |h| match h {
                Handle::Histogram(h) => Some(Arc::clone(h)),
                _ => None,
            },
        )
    }

    /// Renders the whole registry in Prometheus text exposition format.
    pub fn render_prometheus(&self) -> String {
        let families = self.families.lock().expect("telemetry registry poisoned");
        let mut out = String::new();
        for f in families.iter() {
            out.push_str(&format!("# HELP {} {}\n", f.name, f.help));
            out.push_str(&format!("# TYPE {} {}\n", f.name, f.kind.prometheus()));
            for i in &f.instances {
                match &i.handle {
                    Handle::Counter(c) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            f.name,
                            label_block(&i.labels, None),
                            c.get()
                        ));
                    }
                    Handle::Gauge(g) => {
                        out.push_str(&format!(
                            "{}{} {}\n",
                            f.name,
                            label_block(&i.labels, None),
                            g.get()
                        ));
                    }
                    Handle::Histogram(h) => {
                        let cumulative = h.cumulative_buckets();
                        for (bound, cum) in h.bounds().iter().zip(&cumulative) {
                            out.push_str(&format!(
                                "{}_bucket{} {}\n",
                                f.name,
                                label_block(&i.labels, Some(&bound.to_string())),
                                cum
                            ));
                        }
                        out.push_str(&format!(
                            "{}_bucket{} {}\n",
                            f.name,
                            label_block(&i.labels, Some("+Inf")),
                            h.count()
                        ));
                        out.push_str(&format!(
                            "{}_sum{} {}\n",
                            f.name,
                            label_block(&i.labels, None),
                            h.sum()
                        ));
                        out.push_str(&format!(
                            "{}_count{} {}\n",
                            f.name,
                            label_block(&i.labels, None),
                            h.count()
                        ));
                    }
                }
            }
        }
        out
    }

    /// A point-in-time flat view of every metric.
    ///
    /// Counters and gauges yield one sample each; histograms yield
    /// `name_count` and `name_sum` plus the interpolated quantile
    /// estimates `name_p50` / `name_p90` / `name_p99` / `name_p999`
    /// ([`Histogram::quantile`]), so consumers (`dipload`, the benches)
    /// read percentiles instead of recomputing them from buckets (full
    /// bucket detail stays in the Prometheus rendering). Gauges clamp at
    /// zero — every gauge in this workspace (occupancy, capacity) is
    /// non-negative.
    pub fn snapshot(&self) -> Snapshot {
        let families = self.families.lock().expect("telemetry registry poisoned");
        let mut samples = Vec::new();
        for f in families.iter() {
            for i in &f.instances {
                match &i.handle {
                    Handle::Counter(c) => samples.push(Sample {
                        name: f.name.clone(),
                        labels: i.labels.clone(),
                        value: c.get(),
                    }),
                    Handle::Gauge(g) => samples.push(Sample {
                        name: f.name.clone(),
                        labels: i.labels.clone(),
                        value: g.get().max(0) as u64,
                    }),
                    Handle::Histogram(h) => {
                        samples.push(Sample {
                            name: format!("{}_count", f.name),
                            labels: i.labels.clone(),
                            value: h.count(),
                        });
                        samples.push(Sample {
                            name: format!("{}_sum", f.name),
                            labels: i.labels.clone(),
                            value: h.sum(),
                        });
                        for (suffix, q) in
                            [("p50", 0.5), ("p90", 0.9), ("p99", 0.99), ("p999", 0.999)]
                        {
                            samples.push(Sample {
                                name: format!("{}_{}", f.name, suffix),
                                labels: i.labels.clone(),
                                value: h.quantile(q),
                            });
                        }
                    }
                }
            }
        }
        Snapshot { samples }
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let families = self.families.lock().expect("telemetry registry poisoned");
        f.debug_struct("Registry").field("families", &families.len()).finish()
    }
}

fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some(le) = le {
        parts.push(format!("le=\"{le}\""));
    }
    format!("{{{}}}", parts.join(","))
}

/// One metric value in a [`Snapshot`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sample {
    /// Metric name (histograms appear as `name_count` / `name_sum`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
    /// The value at snapshot time.
    pub value: u64,
}

impl Sample {
    /// The flat key `name{k=v,...}` (or just `name` without labels) used
    /// by [`Snapshot::to_json`].
    pub fn key(&self) -> String {
        let mut key = self.name.clone();
        if !self.labels.is_empty() {
            key.push('{');
            for (i, (k, v)) in self.labels.iter().enumerate() {
                if i > 0 {
                    key.push(',');
                }
                key.push_str(&format!("{k}={v}"));
            }
            key.push('}');
        }
        key
    }
}

/// A point-in-time flat view of a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Every metric instance, in registration order.
    pub samples: Vec<Sample>,
}

impl Snapshot {
    /// Sums every instance of `name` across all label sets.
    pub fn get(&self, name: &str) -> u64 {
        self.sum_where(name, &[])
    }

    /// Sums the instances of `name` whose labels include every `(k, v)`
    /// pair in `labels`.
    pub fn sum_where(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        self.samples
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| {
                labels.iter().all(|(k, v)| s.labels.iter().any(|(sk, sv)| sk == k && sv == v))
            })
            .map(|s| s.value)
            .sum()
    }

    /// Renders the snapshot as one JSON object:
    /// `{"dip_packets_total{outcome=forwarded,worker=0}":123,...}`, one
    /// line of a JSON-lines log.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, s) in self.samples.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", s.key(), s.value));
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_the_same_handle() {
        let r = Registry::new();
        let a = r.counter("hits", "hits", &[("worker", "0")]);
        // Label order must not matter.
        let b = r.counter("hits", "hits", &[("worker", "0")]);
        a.inc();
        assert_eq!(b.get(), 1);
        assert!(Arc::ptr_eq(&a, &b));
        // Different labels: a distinct instance.
        let c = r.counter("hits", "hits", &[("worker", "1")]);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn label_order_is_canonicalized() {
        let r = Registry::new();
        let a = r.counter("x", "x", &[("b", "2"), ("a", "1")]);
        let b = r.counter("x", "x", &[("a", "1"), ("b", "2")]);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    #[should_panic(expected = "registered as")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("m", "m", &[]);
        r.gauge("m", "m", &[]);
    }

    #[test]
    fn prometheus_rendering() {
        let r = Registry::new();
        r.counter("dip_packets_total", "Packets seen", &[("worker", "0")]).add(7);
        r.gauge("dip_ring_occupancy", "Queued", &[]).set(3);
        let h = r.histogram("dip_batch_size", "Batch sizes", &[], &[1, 8]);
        h.observe(1);
        h.observe(5);
        h.observe(64);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE dip_packets_total counter"));
        assert!(text.contains("dip_packets_total{worker=\"0\"} 7"));
        assert!(text.contains("dip_ring_occupancy 3"));
        assert!(text.contains("dip_batch_size_bucket{le=\"1\"} 1"));
        assert!(text.contains("dip_batch_size_bucket{le=\"8\"} 2"));
        assert!(text.contains("dip_batch_size_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("dip_batch_size_sum 70"));
        assert!(text.contains("dip_batch_size_count 3"));
    }

    #[test]
    fn snapshot_sums_and_json() {
        let r = Registry::new();
        r.counter("drops", "d", &[("reason", "no_route")]).add(2);
        r.counter("drops", "d", &[("reason", "pit_miss")]).add(3);
        r.histogram("lat", "l", &[], &[10]).observe(4);
        let snap = r.snapshot();
        assert_eq!(snap.get("drops"), 5);
        assert_eq!(snap.sum_where("drops", &[("reason", "pit_miss")]), 3);
        assert_eq!(snap.get("lat_count"), 1);
        assert_eq!(snap.get("lat_sum"), 4);
        // Quantile estimates ride along in the flat snapshot: the single
        // observation fills bucket (0,10], so every quantile interpolates
        // to the top of that bucket.
        assert_eq!(snap.get("lat_p50"), 10);
        assert_eq!(snap.get("lat_p99"), 10);
        assert_eq!(snap.get("absent"), 0);
        let json = snap.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"drops{reason=no_route}\":2"));
        assert!(json.contains("\"lat_count\":1"));
    }

    #[test]
    fn gauge_snapshot_clamps_at_zero() {
        let r = Registry::new();
        r.gauge("g", "g", &[]).set(-5);
        assert_eq!(r.snapshot().get("g"), 0);
    }
}
