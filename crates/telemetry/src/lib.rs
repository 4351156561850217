//! # insitu-telemetry
//!
//! Workspace-wide metrics for the in-situ coupled-workflow stack
//! (anything with a time window is a flight event in `insitu-obs`):
//!
//! * [`metrics`] — named [`Counter`]s, [`Gauge`]s and log-bucketed
//!   [`Histogram`]s in a thread-safe [`MetricsRegistry`] with cheap
//!   atomic hot paths and mergeable [`MetricsSnapshot`]s;
//! * [`recorder`] — the [`Recorder`] facade components depend on: a
//!   cloneable handle on one registry, either live or a near-zero-cost
//!   no-op;
//! * [`json`] — the minimal JSON writer backing all exporters (the
//!   workspace is hermetic, so no serde).
//!
//! Std-only, zero external dependencies.

#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod recorder;

pub use json::Json;
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use recorder::Recorder;
