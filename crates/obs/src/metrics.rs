//! Lock-free metrics: counters, gauges, fixed-bucket histograms, and the
//! registry that names them.
//!
//! Handles are `Arc`s handed out once at registration; all updates are
//! relaxed atomics (the values are measurements, not synchronization).
//! The registry's map is behind a mutex that is only touched at
//! registration and render time, never per-update.

use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed value (queue depth, resident frames, …).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Overwrite the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Add a (possibly negative) delta.
    #[inline]
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger — a high-water mark.
    #[inline]
    pub fn record_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper bound of
/// bucket `i`, with one implicit overflow bucket at the end. Recording is
/// one binary search plus three relaxed atomic adds; there is no locking
/// and no allocation after construction.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// Histogram with caller-chosen ascending bucket bounds.
    pub fn with_bounds(bounds: Vec<u64>) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bound");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Default latency bounds: powers of two from 256 ns to ~4 s, which
    /// covers everything from a cached node visit to a stalled frame.
    pub fn latency_bounds() -> Vec<u64> {
        (8..=32).map(|p| 1u64 << p).collect()
    }

    /// Record one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        let i = self.bounds.partition_point(|&b| b < v);
        self.buckets[i].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let c = self.count();
        if c == 0 {
            0.0
        } else {
            self.sum() as f64 / c as f64
        }
    }

    /// `(upper_bound, count)` per bucket; the final entry uses
    /// `u64::MAX` as its bound (the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let bound = self.bounds.get(i).copied().unwrap_or(u64::MAX);
                (bound, c.load(Ordering::Relaxed))
            })
            .collect()
    }

    /// Upper bound of the bucket containing quantile `q` ∈ [0, 1] — a
    /// conservative estimate good enough for spotting tail blowups.
    pub fn quantile(&self, q: f64) -> u64 {
        let total = self.count();
        if total == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (bound, c) in self.bucket_counts() {
            seen += c;
            if seen >= rank {
                return bound;
            }
        }
        u64::MAX
    }
}

/// One registered metric, by kind.
#[derive(Clone, Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time value of one metric, for programmatic inspection.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram count / sum / per-bucket `(bound, count)`.
    Histogram {
        /// Observations recorded.
        count: u64,
        /// Sum of recorded values.
        sum: u64,
        /// `(upper_bound, count)` per bucket.
        buckets: Vec<(u64, u64)>,
    },
}

/// Named registry of metrics. `counter`/`gauge`/`histogram` get-or-create
/// by name and return a shared handle; look-ups by the same name always
/// see the same underlying atomic, so independently instrumented layers
/// can agree on totals.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Get or create the counter `name`.
    ///
    /// Panics if `name` is already registered as a different kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Get or create the latency histogram `name` (default bounds).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        self.histogram_with_bounds(name, Histogram::latency_bounds)
    }

    /// Get or create histogram `name`, building bounds on first use.
    pub fn histogram_with_bounds(
        &self,
        name: &str,
        bounds: impl FnOnce() -> Vec<u64>,
    ) -> Arc<Histogram> {
        let mut m = self.metrics.lock();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::with_bounds(bounds()))))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric {name:?} already registered as {other:?}"),
        }
    }

    /// Value of `name`, if registered.
    pub fn get(&self, name: &str) -> Option<MetricValue> {
        let m = self.metrics.lock();
        m.get(name).map(|metric| match metric {
            Metric::Counter(c) => MetricValue::Counter(c.get()),
            Metric::Gauge(g) => MetricValue::Gauge(g.get()),
            Metric::Histogram(h) => MetricValue::Histogram {
                count: h.count(),
                sum: h.sum(),
                buckets: h.bucket_counts(),
            },
        })
    }

    /// Counter value of `name` (0 if absent or not a counter).
    pub fn counter_value(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => v,
            _ => 0,
        }
    }

    /// Gauge value of `name` (0 if absent or not a gauge).
    pub fn gauge_value(&self, name: &str) -> i64 {
        match self.get(name) {
            Some(MetricValue::Gauge(v)) => v,
            _ => 0,
        }
    }

    /// Sum of all counter values whose name starts with `prefix` — the
    /// reconciliation helper (`sum_counters("storage.shard") ==
    /// pool.cache_stats()` and friends).
    pub fn sum_counters(&self, prefix: &str) -> u64 {
        let m = self.metrics.lock();
        m.iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .filter_map(|(_, metric)| match metric {
                Metric::Counter(c) => Some(c.get()),
                _ => None,
            })
            .sum()
    }

    /// Snapshot every metric as `(name, value)`, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        let m = self.metrics.lock();
        m.iter()
            .map(|(name, metric)| {
                let v = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram {
                        count: h.count(),
                        sum: h.sum(),
                        buckets: h.bucket_counts(),
                    },
                };
                (name.clone(), v)
            })
            .collect()
    }

    /// Plain-text dump, one metric per line; histograms report count,
    /// mean and approximate p50/p99.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (name, value) in self.snapshot() {
            match value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histogram { count, sum, .. } => {
                    let m = self.metrics.lock();
                    let (p50, p99) = match m.get(&name) {
                        Some(Metric::Histogram(h)) => (h.quantile(0.50), h.quantile(0.99)),
                        _ => (0, 0),
                    };
                    drop(m);
                    let mean = if count == 0 { 0.0 } else { sum as f64 / count as f64 };
                    let _ = writeln!(
                        out,
                        "{name} count={count} mean={mean:.0} p50<={p50} p99<={p99}"
                    );
                }
            }
        }
        out
    }

    /// JSON dump (hand-rolled — the workspace is offline and carries no
    /// serde): `{"name": value, ...}` with histograms as objects.
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("{");
        let mut first = true;
        for (name, value) in self.snapshot() {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n  \"{name}\": ");
            match value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Histogram { count, sum, buckets } => {
                    let _ = write!(out, "{{\"count\": {count}, \"sum\": {sum}, \"buckets\": [");
                    let mut bfirst = true;
                    for (bound, c) in buckets {
                        if c == 0 {
                            continue; // keep the dump readable
                        }
                        if !bfirst {
                            let _ = write!(out, ", ");
                        }
                        bfirst = false;
                        let _ = write!(out, "[{bound}, {c}]");
                    }
                    let _ = write!(out, "]}}");
                }
            }
        }
        out.push_str("\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.hits");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter_value("a.hits"), 5);
        // Same name returns the same underlying atomic.
        reg.counter("a.hits").inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("a.depth");
        g.set(10);
        g.add(-3);
        g.record_max(5); // below current: no-op
        assert_eq!(reg.gauge_value("a.depth"), 7);
        g.record_max(42);
        assert_eq!(g.get(), 42);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::with_bounds(vec![10, 100, 1000]);
        for v in [1, 5, 10, 50, 500, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5566);
        let buckets = h.bucket_counts();
        assert_eq!(buckets, vec![(10, 3), (100, 1), (1000, 1), (u64::MAX, 1)]);
        assert_eq!(h.quantile(0.5), 10);
        assert_eq!(h.quantile(1.0), u64::MAX);
        assert!(h.mean() > 900.0);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let h = Histogram::with_bounds(Histogram::latency_bounds());
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn prefix_sums_aggregate_shards() {
        let reg = MetricsRegistry::new();
        for i in 0..4 {
            reg.counter(&format!("pool.shard{i}.hits")).add(i);
        }
        reg.counter("pool.total").add(100);
        assert_eq!(reg.sum_counters("pool.shard"), 6);
        assert_eq!(reg.sum_counters("pool."), 106);
    }

    #[test]
    fn render_contains_every_metric() {
        let reg = MetricsRegistry::new();
        reg.counter("x.count").add(3);
        reg.gauge("x.depth").set(-2);
        reg.histogram("x.lat_ns").record(1_000_000);
        let text = reg.render();
        assert!(text.contains("x.count 3"));
        assert!(text.contains("x.depth -2"));
        assert!(text.contains("x.lat_ns count=1"));
        let json = reg.render_json();
        assert!(json.contains("\"x.count\": 3"));
        assert!(json.contains("\"x.depth\": -2"));
        assert!(json.contains("\"count\": 1"));
    }

    #[test]
    fn concurrent_updates_do_not_lose_counts() {
        let reg = std::sync::Arc::new(MetricsRegistry::new());
        let c = reg.counter("t.n");
        let h = reg.histogram("t.lat");
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..10_000 {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(c.get(), 40_000);
        assert_eq!(h.count(), 40_000);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("same.name");
        reg.gauge("same.name");
    }
}
