//! The shared-space programming abstraction: `put`/`get` operators.
//!
//! Mirrors Table I of the paper:
//!
//! | paper            | here                       | coupling    |
//! |------------------|----------------------------|-------------|
//! | `cods_put_cont()`| [`CodsSpace::put_cont`]    | concurrent  |
//! | `cods_get_cont()`| [`CodsSpace::get_cont`]    | concurrent  |
//! | `cods_put_seq()` | [`CodsSpace::put_seq`]     | sequential  |
//! | `cods_get_seq()` | [`CodsSpace::get_seq`]     | sequential  |
//!
//! All operators are one-sided and asynchronous: a `put` registers a
//! remotely readable buffer and returns; a `get` computes (or replays) a
//! communication schedule and pulls every piece directly from where it
//! lives — shared memory when producer and consumer share a node, the
//! (simulated) network otherwise. The sequential variants additionally
//! index the data in the DHT so later applications can discover it.
//!
//! The operators live in four files, one per seam:
//!
//! - `ops` — `put_*` / `get_*` and the schedule execution behind them;
//! - `lifetime` — how long a version lives: the consumption window,
//!   pulled-copy cleanup, staging accounting and eviction;
//! - `subs` — standing queries, the push plane fed from `put`;
//! - `replica` — what a distributed run replicates between processes
//!   (out through the runtime's transport, `apply_remote_*` in).

mod lifetime;
mod ops;
mod replica;
mod subs;
#[cfg(test)]
mod tests;

pub use subs::SubHandle;

use crate::dht::Dht;
use crate::schedule::ScheduleCache;
use insitu_dart::{BufKey, DartRuntime};
use insitu_domain::BoundingBox;
use insitu_fabric::{ClientId, FaultKind};
use insitu_obs::{Event, EventKind};
use insitu_telemetry::{Counter, Gauge};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Errors surfaced by the space operators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodsError {
    /// A required source buffer never appeared (producer missing or late).
    Timeout {
        /// Variable name hash.
        var: u64,
        /// Version requested.
        version: u64,
        /// The piece region that could not be fetched.
        region: BoundingBox,
        /// Client that owns (and failed to serve) the piece — names the
        /// faulty participant in reproducers.
        owner: ClientId,
    },
    /// A landed buffer is not the cells of its piece's box: misaligned,
    /// a ragged length, or the wrong number of cells.
    MalformedPiece {
        /// Variable name hash.
        var: u64,
        /// Version requested.
        version: u64,
        /// The piece region the buffer was to supply.
        region: BoundingBox,
        /// Client that owns the piece.
        owner: ClientId,
        /// Bytes that landed.
        got: usize,
        /// Bytes of the piece's box, as aligned `f64` cells.
        expected: usize,
    },
    /// `put` data length does not match the declared box.
    SizeMismatch {
        /// Cells in the declared box.
        expected: u128,
        /// Elements supplied.
        got: usize,
    },
    /// The available pieces do not cover the queried region.
    IncompleteCover {
        /// Cells of the query not covered by any stored piece.
        missing_cells: u128,
    },
    /// The pieces found for the query do not tile it, so their summed
    /// cells say nothing about which cells they fill.
    NotACover {
        /// Cells of the query that two pieces both hold or, when
        /// `outside`, a piece region that reaches outside the query.
        cells: BoundingBox,
        /// Whether `cells` reaches outside the query.
        outside: bool,
    },
    /// Staging this piece would exceed the node's in-memory capacity.
    StagingFull {
        /// Node whose staging memory is exhausted.
        node: u32,
        /// Bytes currently staged on that node.
        used: u64,
        /// Configured per-node limit.
        limit: u64,
    },
    /// A producer rank's staging for a sequential coupling could not be
    /// reserved before its first put: the size overflows the address
    /// space, or the allocator refused it.
    StagingReserve {
        /// Variable name.
        var: String,
        /// Producer rank.
        rank: u64,
        /// Bytes asked for (saturated at `u128::MAX`).
        bytes: u128,
    },
}

impl std::fmt::Display for CodsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodsError::Timeout {
                var,
                version,
                region,
                owner,
            } => {
                write!(
                    f,
                    "timed out waiting for var {var:#x} v{version} piece {region:?} from client {owner}"
                )
            }
            CodsError::MalformedPiece {
                var,
                version,
                region,
                owner,
                got,
                expected,
            } => {
                write!(
                    f,
                    "malformed var {var:#x} v{version} piece {region:?} from client {owner}: \
                     {got} bytes landed, {expected} bytes of aligned cells expected"
                )
            }
            CodsError::SizeMismatch { expected, got } => {
                write!(f, "data length {got} does not match box volume {expected}")
            }
            CodsError::IncompleteCover { missing_cells } => {
                write!(f, "query not fully covered: {missing_cells} cells missing")
            }
            CodsError::NotACover {
                cells,
                outside: false,
            } => write!(f, "query not tiled: cells {cells:?} are held by two pieces"),
            CodsError::NotACover {
                cells,
                outside: true,
            } => write!(f, "query not tiled: region {cells:?} reaches outside it"),
            CodsError::StagingFull { node, used, limit } => {
                write!(f, "node {node} staging full: {used} of {limit} bytes used")
            }
            CodsError::StagingReserve { var, rank, bytes } => write!(
                f,
                "cannot reserve {bytes} bytes to stage var {var:?} on producer rank {rank}"
            ),
        }
    }
}

impl std::error::Error for CodsError {}

/// Tuning knobs of the space.
#[derive(Clone, Copy, Debug)]
pub struct CodsConfig {
    /// How long a `get` waits for a missing producer piece.
    pub get_timeout: Duration,
    /// Per-node in-memory staging capacity (16 GB per Jaguar XT5 node).
    /// `None` disables the check.
    pub staging_limit_per_node: Option<u64>,
}

impl Default for CodsConfig {
    fn default() -> Self {
        CodsConfig {
            get_timeout: Duration::from_secs(30),
            staging_limit_per_node: None,
        }
    }
}

/// What one `get` did — consumed by tests, the ledger cross-checks and
/// the retrieve-time model.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GetReport {
    /// DHT cores consulted (0 on a schedule-cache hit or concurrent get).
    pub dht_cores_queried: u32,
    /// Transfers executed.
    pub ops: u32,
    /// Bytes pulled through shared memory.
    pub shm_bytes: u64,
    /// Bytes pulled over the network.
    pub net_bytes: u64,
    /// Whether the schedule came from the cache.
    pub cache_hit: bool,
}

/// The co-located data space.
///
/// Telemetry flows through the DART runtime's
/// [`Recorder`](insitu_telemetry::Recorder): put/get counts,
/// schedule-cache hits/misses and the staged bytes high-water mark are
/// all published when the runtime was built with a live recorder.
pub struct CodsSpace {
    dart: Arc<DartRuntime>,
    dht: Dht,
    cfg: CodsConfig,
    cache: ScheduleCache,
    consumption: Mutex<lifetime::ConsumptionState>,
    consumed_cv: Condvar,
    staging: Mutex<HashMap<u32, u64>>,
    staging_peak: AtomicU64,
    put_count: Counter,
    get_count: Counter,
    evict_count: Counter,
    /// Times a producer parked in `wait_version_consumed` woke up.
    window_wakes: Counter,
    /// Gets answered zero-copy: one aligned piece covered the whole
    /// query, so the result is a `FieldData::View` of the staged (or
    /// shm-mapped) buffer rather than an assembled copy.
    view_count: Counter,
    staging_gauge: Gauge,
    /// Standing-query fragments pushed from the put path (producer side).
    sub_pushes: Counter,
    /// Bytes those fragments carried.
    sub_push_bytes: Counter,
    /// Assembled versions handed to subscribers ([`Self::sub_take`]).
    sub_deliveries: Counter,
    /// Versions a subscriber observed lost to its bounded queue.
    sub_lagged_count: Counter,
    /// Push fragments dropped by the chaos `sub-push` fault site.
    sub_push_drops: Counter,
    /// Currently registered standing queries.
    sub_active: Gauge,
}

/// The registry's id of `owner`'s piece `piece`: the owner packed in
/// the upper half, which is how a pull finds its way to the owner.
fn piece_id(owner: ClientId, piece: u64) -> u64 {
    ((owner as u64) << 32) | piece
}

fn buf_key(var: u64, version: u64, owner: ClientId, piece: u64) -> BufKey {
    BufKey {
        name: var,
        version,
        piece: piece_id(owner, piece),
    }
}

impl CodsSpace {
    /// Build a space over an existing DART runtime and DHT. Telemetry is
    /// inherited from the runtime's recorder, and DHT, consumption and
    /// eviction changes reach the other replicas of a distributed run
    /// through the runtime's transport ([`DartRuntime::wire`]).
    pub fn new(dart: Arc<DartRuntime>, dht: Dht, cfg: CodsConfig) -> Arc<Self> {
        let recorder = dart.recorder().clone();
        Arc::new(CodsSpace {
            dht,
            cfg,
            cache: ScheduleCache::with_recorder(&recorder),
            consumption: Mutex::default(),
            consumed_cv: Condvar::new(),
            staging: Mutex::default(),
            staging_peak: AtomicU64::new(0),
            put_count: recorder.counter("cods.put"),
            get_count: recorder.counter("cods.get"),
            evict_count: recorder.counter("cods.evictions"),
            window_wakes: recorder.counter("cods.window.wakes"),
            view_count: recorder.counter("cods.view_hits"),
            staging_gauge: recorder.gauge("cods.staging_bytes"),
            sub_pushes: recorder.counter("sub.pushes"),
            sub_push_bytes: recorder.counter("sub.push_bytes"),
            sub_deliveries: recorder.counter("sub.deliveries"),
            sub_lagged_count: recorder.counter("sub.lagged"),
            sub_push_drops: recorder.counter("sub.push_drops"),
            sub_active: recorder.gauge("sub.active"),
            dart,
        })
    }

    /// The location service.
    pub fn dht(&self) -> &Dht {
        &self.dht
    }

    /// The schedule cache (stats are used by the caching ablation).
    pub fn cache(&self) -> &ScheduleCache {
        &self.cache
    }

    /// The underlying DART runtime.
    pub fn dart(&self) -> &Arc<DartRuntime> {
        &self.dart
    }

    /// Log an injected fault at a CoDS fault site as a flight event.
    fn record_fault(
        &self,
        kind: FaultKind,
        app: u32,
        vid: u64,
        version: u64,
        client: ClientId,
        piece: u64,
    ) {
        let flight = self.dart.flight();
        if !flight.is_enabled() {
            return;
        }
        let now = flight.now_us();
        flight.record(
            Event::new(flight.next_seq(), EventKind::Fault { kind: kind.slug() })
                .app(app)
                .var(vid)
                .version(version)
                .src(client)
                .piece(piece)
                .window(now, 0),
        );
    }
}
