//! insitu-svc: the multi-tenant workflow service.
//!
//! PR 5's socketized server runs exactly one workflow and exits; this
//! crate turns it into a long-running service that serves traffic. One
//! [`Service`] process owns
//!
//! - an **RPC port** speaking the service frames added to the wire
//!   protocol (`Submit`/`Submitted`, `Cancel`, `Status`/`RunStatus`,
//!   `ListRuns`/`RunList`, `RunResult`/`RunReport`, `Watch`/`Progress`,
//!   `RpcErr`) on one `insitu_net::Reactor` thread however many clients
//!   connect, hardened as every other socket in the program is,
//! - an **admission controller** (which also validates submissions,
//!   off the RPC loop): at most `max_runs` runs in flight, a
//!   bounded FIFO queue for the rest, and strict head-of-queue
//!   admission (a run is admitted only when both a run slot and enough
//!   of the `pool_nodes` node budget are free — later, smaller runs
//!   never starve the head),
//! - one **engine thread per admitted run**, which binds a private
//!   loopback hub, spawns one [`insitu::join`] thread per node, drives
//!   [`insitu::serve`] to completion and joins its joiners before it
//!   gives the run's nodes back — no thread waits for work.
//!
//! ## Run namespacing
//!
//! Every run is assigned a `RunId` that doubles as its *key epoch*: the
//! server and every replica salt their DataSpace/BufferRegistry/DHT
//! variable keys with `epoch_salt(run_id)` (shipped in `Welcome`), so N
//! concurrent runs using identical variable names and versions occupy
//! disjoint key regions and cannot collide. Epoch 0 is the identity —
//! standalone `insitu serve`/`launch` runs are bit-for-bit unchanged —
//! and the salt cancels out of all byte accounting, so each service
//! run's merged ledger stays byte-identical to its standalone
//! single-process baseline.
//!
//! ## Artifacts
//!
//! Each run executes under its own `Recorder` and `FlightRecorder`;
//! when it reaches a terminal state the service holds (and optionally
//! writes to `artifacts_dir`) the run's merged transfer ledger, metrics
//! snapshot and critical-path profile as JSON, retrievable over the
//! wire via `RunResult` (`insitu status --run ID --json`). Those three
//! strings and the run's summary are all a terminal run keeps in
//! memory: the merged chrome trace is rendered only into
//! `artifacts_dir`, and the run's joiner state dies with its joiner
//! threads — the service's footprint does not grow with the runs
//! it has served beyond that residue (DESIGN.md §10.4).

#![warn(missing_docs)]

pub mod client;
pub mod service;

pub use client::{RpcClient, RunArtifacts};
pub use service::{Service, SvcConfig, WatchdogConfig};
