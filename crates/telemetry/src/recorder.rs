//! The [`Recorder`] facade: either live (a shared handle on one
//! [`MetricsRegistry`]) or disabled (every operation near-free).
//!
//! Components take a `&Recorder` (or clone one — it is a thin
//! `Option<Arc<..>>`) and never need to know whether telemetry is on.
//! Disabled recorders hand out detached metric handles, so instrumented
//! hot paths stay branch-light: the cost of a disabled counter increment
//! is one relaxed atomic add on a dummy cell.

use std::sync::Arc;

use crate::metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};

/// Entry point for all metrics instrumentation.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<MetricsRegistry>>,
}

impl Recorder {
    /// A recorder that records nothing.
    pub fn disabled() -> Recorder {
        Recorder { inner: None }
    }

    /// A live recorder on a fresh registry.
    pub fn enabled() -> Recorder {
        Recorder {
            inner: Some(Arc::new(MetricsRegistry::new())),
        }
    }

    /// Whether this recorder is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Counter handle (detached dummy when disabled).
    pub fn counter(&self, name: &str) -> Counter {
        self.inner
            .as_ref()
            .map(|m| m.counter(name))
            .unwrap_or_default()
    }

    /// Gauge handle (detached dummy when disabled).
    pub fn gauge(&self, name: &str) -> Gauge {
        self.inner
            .as_ref()
            .map(|m| m.gauge(name))
            .unwrap_or_default()
    }

    /// Histogram handle (detached dummy when disabled).
    pub fn histogram(&self, name: &str) -> Histogram {
        self.inner
            .as_ref()
            .map(|m| m.histogram(name))
            .unwrap_or_default()
    }

    /// Metrics snapshot (empty when disabled).
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.inner
            .as_ref()
            .map(|m| m.snapshot())
            .unwrap_or_default()
    }

    /// Metrics rendered as a JSON string.
    pub fn metrics_json(&self) -> String {
        self.metrics_snapshot().to_json().render()
    }
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert() {
        let r = Recorder::disabled();
        assert!(!r.is_enabled());
        r.counter("c").add(5);
        r.gauge("g").set(9);
        r.histogram("h").record(3);
        assert_eq!(r.histogram("t").time(|| 7), 7);
        assert_eq!(r.metrics_snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn enabled_recorder_collects() {
        let r = Recorder::enabled();
        r.counter("c").add(5);
        r.counter("c").add(2);
        r.gauge("g").set(9);
        r.histogram("h").record(3);
        assert_eq!(r.histogram("t").time(|| 7), 7);
        let snap = r.metrics_snapshot();
        assert_eq!(snap.counter("c"), 7);
        assert_eq!(snap.gauges["g"].peak, 9);
        assert_eq!(snap.histograms["h"].count, 1);
        assert_eq!(snap.histograms["t"].count, 1);
    }

    #[test]
    fn clones_share_state() {
        let r = Recorder::enabled();
        let r2 = r.clone();
        r2.counter("shared").inc();
        assert_eq!(r.metrics_snapshot().counter("shared"), 1);
    }
}
