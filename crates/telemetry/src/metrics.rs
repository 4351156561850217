//! Named counters, gauges and log-bucketed histograms.
//!
//! Hot paths are single atomic operations on handles obtained once (the
//! registry lookup is the only locked step). Snapshots are plain data,
//! rendered as JSON or as a table.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::Json;

/// Number of histogram buckets: one for zero plus one per power of two.
pub(crate) const HISTOGRAM_BUCKETS: usize = 65;

/// A monotonically increasing counter.
///
/// Cloning shares the underlying cell, so a handle can be looked up once
/// and incremented from many threads without touching the registry again.
#[derive(Clone, Debug, Default)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Increment by `delta`.
    #[inline]
    pub fn add(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A gauge tracking a current value and its high-water mark.
#[derive(Clone, Debug, Default)]
pub struct Gauge {
    value: Arc<AtomicU64>,
    peak: Arc<AtomicU64>,
}

impl Gauge {
    /// Set the current value, updating the peak.
    #[inline]
    pub fn set(&self, value: u64) {
        self.value.store(value, Ordering::Relaxed);
        self.peak.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Highest value ever set.
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// A histogram over `u64` samples with logarithmic (power-of-two) buckets.
///
/// Bucket 0 holds zeros; bucket `i > 0` holds values in
/// `[2^(i-1), 2^i)`. Recording is three relaxed atomic ops plus two
/// min/max updates — cheap enough for per-message latencies.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: Arc<[AtomicU64; HISTOGRAM_BUCKETS]>,
    count: Arc<AtomicU64>,
    sum: Arc<AtomicU64>,
    min: Arc<AtomicU64>,
    max: Arc<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: Arc::new([const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS]),
            count: Arc::new(AtomicU64::new(0)),
            sum: Arc::new(AtomicU64::new(0)),
            min: Arc::new(AtomicU64::new(u64::MAX)),
            max: Arc::new(AtomicU64::new(0)),
        }
    }
}

/// Bucket index for a sample: 0 for 0, else `64 - leading_zeros`.
#[inline]
pub(crate) fn bucket_index(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        64 - value.leading_zeros() as usize
    }
}

/// Inclusive upper bound of a bucket (`2^i - 1`; bucket 0 → 0).
pub(crate) fn bucket_upper_bound(index: usize) -> u64 {
    if index == 0 {
        0
    } else if index >= 64 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

impl Histogram {
    /// Record one sample.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Run `f` and record its wall-clock duration in microseconds.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        self.record(start.elapsed().as_micros() as u64);
        out
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(self.buckets.iter()) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            min: self.min.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time copy of a [`Histogram`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (see `bucket_index`).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (`u64::MAX` when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
}

impl HistogramSnapshot {
    /// Mean sample value; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`) from bucket upper bounds.
    ///
    /// Returns the upper bound of the bucket containing the q-th sample,
    /// clamped to the observed max; `None` when empty.
    pub(crate) fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the target sample, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(bucket_upper_bound(i).min(self.max));
            }
        }
        Some(self.max)
    }
}

/// Point-in-time copy of a [`Gauge`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeSnapshot {
    /// Value at snapshot time.
    pub value: u64,
    /// High-water mark.
    pub peak: u64,
}

#[derive(Default)]
struct Tables {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
}

/// A thread-safe registry of named metrics.
///
/// Lookup takes a lock; the returned handles do not. Names are
/// dot-separated paths (`"dart.msgs_sent"`, `"fabric.bytes.inter_app.shm"`).
#[derive(Default)]
pub struct MetricsRegistry {
    tables: Mutex<Tables>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut t = self.tables.lock().unwrap();
        t.counters.entry(name.to_string()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut t = self.tables.lock().unwrap();
        t.gauges.entry(name.to_string()).or_default().clone()
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut t = self.tables.lock().unwrap();
        t.histograms.entry(name.to_string()).or_default().clone()
    }

    /// A point-in-time copy of every metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let t = self.tables.lock().unwrap();
        MetricsSnapshot {
            counters: t
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.get()))
                .collect(),
            gauges: t
                .gauges
                .iter()
                .map(|(k, v)| {
                    (
                        k.clone(),
                        GaugeSnapshot {
                            value: v.get(),
                            peak: v.peak(),
                        },
                    )
                })
                .collect(),
            histograms: t
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

/// Plain-data copy of a [`MetricsRegistry`]; renderable.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, GaugeSnapshot>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Counter value by name (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Render as a JSON object with `counters`, `gauges` and `histograms`
    /// sections.
    pub fn to_json(&self) -> Json {
        let mut counters = Json::obj();
        for (k, v) in &self.counters {
            counters = counters.field(k, *v);
        }
        let mut gauges = Json::obj();
        for (k, g) in &self.gauges {
            gauges = gauges.field(k, Json::obj().field("value", g.value).field("peak", g.peak));
        }
        let mut histograms = Json::obj();
        for (k, h) in &self.histograms {
            let mut buckets = Vec::new();
            for (i, &n) in h.buckets.iter().enumerate() {
                if n > 0 {
                    buckets.push(
                        Json::obj()
                            .field("le", bucket_upper_bound(i))
                            .field("count", n),
                    );
                }
            }
            let mut obj = Json::obj()
                .field("count", h.count)
                .field("sum", h.sum)
                .field("min", if h.count == 0 { 0 } else { h.min })
                .field("max", h.max)
                .field("buckets", buckets);
            if let Some(mean) = h.mean() {
                obj = obj.field("mean", mean);
            }
            if let Some(p50) = h.quantile(0.5) {
                obj = obj.field("p50", p50);
            }
            if let Some(p95) = h.quantile(0.95) {
                obj = obj.field("p95", p95);
            }
            if let Some(p99) = h.quantile(0.99) {
                obj = obj.field("p99", p99);
            }
            histograms = histograms.field(k, obj);
        }
        Json::obj()
            .field("counters", counters)
            .field("gauges", gauges)
            .field("histograms", histograms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(64), u64::MAX);
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::default();
        for v in [1u64, 2, 4, 8, 100] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.sum, 115);
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 100);
        // p0 → first bucket's bound; p100 → max.
        assert_eq!(s.quantile(0.0), Some(1));
        assert_eq!(s.quantile(1.0), Some(100));
        // The median sample (rank 3) is 4, in bucket [4,8) → bound 7.
        assert_eq!(s.quantile(0.5), Some(7));
        assert!(Histogram::default().snapshot().quantile(0.5).is_none());
    }

    #[test]
    fn time_records_the_closure_duration_and_returns_its_value() {
        let h = Histogram::default();
        let pause = std::time::Duration::from_millis(2);
        h.time(|| std::thread::sleep(pause));
        assert_eq!(h.time(|| 7), 7);
        let s = h.snapshot();
        assert_eq!(s.count, 2);
        assert!(s.max >= 2_000, "slept 2 ms, recorded {} us", s.max);
    }

    #[test]
    fn concurrent_counters_sum_exactly() {
        let reg = Arc::new(MetricsRegistry::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let reg = Arc::clone(&reg);
            handles.push(std::thread::spawn(move || {
                let c = reg.counter("x");
                for _ in 0..10_000 {
                    c.inc();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(reg.snapshot().counter("x"), 80_000);
    }

    #[test]
    fn gauge_tracks_peak() {
        let g = Gauge::default();
        g.set(5);
        g.set(9);
        g.set(2);
        assert_eq!(g.get(), 2);
        assert_eq!(g.peak(), 9);
    }

    #[test]
    fn json_and_table_render() {
        let reg = MetricsRegistry::new();
        reg.counter("a.b").add(2);
        reg.gauge("g").set(1);
        reg.histogram("lat").record(5);
        let snap = reg.snapshot();
        let json = snap.to_json().render();
        assert!(json.contains("\"a.b\":2"));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"histograms\""));
        assert!(json.contains("\"p95\""));
        // Single sample 5 sits in bucket [4,8) whose bound clamps to max=5.
        let h = &snap.histograms["lat"];
        assert_eq!(
            [h.quantile(0.5), h.quantile(0.95), h.quantile(0.99)],
            [Some(5); 3]
        );
    }
}
