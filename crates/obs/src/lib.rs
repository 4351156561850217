//! # insitu-obs
//!
//! Causal flight recorder and critical-path profiler for coupled
//! transfers:
//!
//! * [`event`] — the structured event schema: every `put`/`get`
//!   (`*_cont` and `*_seq`), schedule computation, DHT lookup, receiver
//!   pull and injected fault, tagged `(app, var, version, bbox, src,
//!   dst, link_class)` with causal parent edges;
//! * [`flight`] — the [`FlightRecorder`]: the program's one timeline,
//!   a bounded lock-sharded event log behind the same
//!   disabled-by-default facade as the telemetry `Recorder`;
//! * [`profile`] — per-iteration transfer-DAG reconstruction, critical
//!   path with schedule / shm transfer / RDMA transfer / wait
//!   attribution (categories sum to the end-to-end iteration time by
//!   construction), and exact p50/p95/p99 queueing-delay and
//!   transfer-size percentiles per link class;
//! * [`flow`] — the one chrome://tracing exporter: a slice per event
//!   plus `s`/`f` flow events so arrows connect producer puts to
//!   consumer gets (and, for merged traces, per-process lanes plus
//!   wire arrows across stitched hops);
//! * [`merge`] — the distributed mode: per-process traces are
//!   renumbered, clock-aligned by happens-before relaxation over
//!   matched `NetSend`/`NetRecv` pairs, and stitched into one causal
//!   trace whose cross-process edges let the profiler and the chrome
//!   export span process boundaries.
//!
//! Std-only, path-only dependencies (domain, fabric, telemetry).

#![warn(missing_docs)]

pub mod event;
pub mod flight;
pub mod flow;
pub mod merge;
pub mod profile;

pub use event::{Event, EventKind, LinkClass};
pub use flight::{FlightRecorder, DEFAULT_EVENT_CAPACITY};
pub use flow::{chrome_trace_merged, chrome_trace_with_flows};
pub use merge::{merge_traces, MergeReport, ProcessTrace};
pub use profile::{CategoryBreakdown, IterationProfile, LinkClassStats, ProfileReport};
