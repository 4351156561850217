//! Property tests for metrics-snapshot merging.
//!
//! The CLI merges a threaded run's registry snapshot with its modeled
//! twin before rendering; these properties pin down what that merge must
//! preserve: counter sums, gauge peaks, and histogram bucket contents.

use insitu_telemetry::{MetricsRegistry, MetricsSnapshot};
use insitu_util::check::forall;
use insitu_util::rng::SplitMix64;

const NAMES: &[&str] = &[
    "cods.put",
    "cods.get",
    "dart.msgs_sent",
    "fabric.bytes.inter_app.shm",
    "workflow.map_us",
];

/// Build a registry with a random assortment of metric operations and
/// return its snapshot.
fn random_snapshot(rng: &mut SplitMix64) -> MetricsSnapshot {
    let reg = MetricsRegistry::new();
    for _ in 0..rng.range_usize(0, 24) {
        let name = *rng.choose(NAMES);
        match rng.range_u32(0, 3) {
            0 => reg.counter(name).add(rng.range_u64(0, 1 << 20)),
            1 => reg.gauge(name).set(rng.range_u64(0, 1 << 20)),
            _ => reg.histogram(name).record(rng.range_u64(0, 1 << 40)),
        }
    }
    reg.snapshot()
}

#[test]
fn merge_preserves_counter_sums_gauge_peaks_and_buckets() {
    forall(200, |rng| {
        let threaded = random_snapshot(rng);
        let modeled = random_snapshot(rng);
        let mut merged = threaded.clone();
        merged.merge(&modeled);

        // Counters: merged value is the exact sum, for every name on
        // either side.
        for name in threaded.counters.keys().chain(modeled.counters.keys()) {
            assert_eq!(
                merged.counter(name),
                threaded.counter(name) + modeled.counter(name),
                "counter {name} not preserved"
            );
        }

        // Gauges: values add (aggregate occupancy), peaks take the max.
        for name in threaded.gauges.keys().chain(modeled.gauges.keys()) {
            let t = threaded.gauges.get(name);
            let m = modeled.gauges.get(name);
            let got = &merged.gauges[name];
            assert_eq!(
                got.value,
                t.map_or(0, |g| g.value) + m.map_or(0, |g| g.value)
            );
            assert_eq!(
                got.peak,
                t.map_or(0, |g| g.peak).max(m.map_or(0, |g| g.peak))
            );
        }

        // Histograms: bucketwise sums, plus count/sum/min/max.
        for name in threaded.histograms.keys().chain(modeled.histograms.keys()) {
            let t = threaded.histograms.get(name);
            let m = modeled.histograms.get(name);
            let got = &merged.histograms[name];
            for i in 0..got.buckets.len() {
                assert_eq!(
                    got.buckets[i],
                    t.map_or(0, |h| h.buckets[i]) + m.map_or(0, |h| h.buckets[i]),
                    "histogram {name} bucket {i} not preserved"
                );
            }
            assert_eq!(
                got.count,
                t.map_or(0, |h| h.count) + m.map_or(0, |h| h.count)
            );
            assert_eq!(got.sum, t.map_or(0, |h| h.sum) + m.map_or(0, |h| h.sum));
            assert_eq!(
                got.min,
                t.map_or(u64::MAX, |h| h.min)
                    .min(m.map_or(u64::MAX, |h| h.min))
            );
            assert_eq!(got.max, t.map_or(0, |h| h.max).max(m.map_or(0, |h| h.max)));
        }
    });
}

#[test]
fn merge_is_commutative_on_counters_and_histograms() {
    forall(100, |rng| {
        let a = random_snapshot(rng);
        let b = random_snapshot(rng);
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.counters, ba.counters);
        assert_eq!(ab.histograms, ba.histograms);
        // Gauge peaks commute too (values also do — both are sums).
        assert_eq!(ab.gauges, ba.gauges);
    });
}
