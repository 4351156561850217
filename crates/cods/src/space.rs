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

use crate::codec::{
    bytes_of_f64s_mut, decode_f64s, encode_f64s, f64s_of_bytes, FieldData, ELEM_BYTES,
};
use crate::dht::{var_id, Dht, LocationEntry, DHT_RECORD_BYTES};
use crate::schedule::{
    schedule_from_decomposition, schedule_from_entries, CommSchedule, ScheduleCache,
};
use insitu_dart::{BufKey, BufferHandle, DartRuntime};
use insitu_domain::layout::{copy_region, copy_region_bytes};
use insitu_domain::{BoundingBox, Decomposition};
use insitu_fabric::{ClientId, FaultAction, Locality, TrafficClass};
use insitu_obs::{Event, EventKind, LinkClass};
use insitu_sub::{SubId, SubSink, SubSpec, TakeResult};
use insitu_telemetry::{Counter, Gauge};
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
    /// Staging this piece would exceed the node's in-memory capacity.
    StagingFull {
        /// Node whose staging memory is exhausted.
        node: u32,
        /// Bytes currently staged on that node.
        used: u64,
        /// Configured per-node limit.
        limit: u64,
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
            CodsError::SizeMismatch { expected, got } => {
                write!(f, "data length {got} does not match box volume {expected}")
            }
            CodsError::IncompleteCover { missing_cells } => {
                write!(f, "query not fully covered: {missing_cells} cells missing")
            }
            CodsError::StagingFull { node, used, limit } => {
                write!(f, "node {node} staging full: {used} of {limit} bytes used")
            }
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
    /// Run epoch salting every variable-name key (DHT entries, buffer
    /// keys, version bookkeeping), so concurrent service runs sharing
    /// one process — or one pool of node processes — never collide even
    /// when they use identical variable names and versions. `0` means
    /// no salting: keys equal the raw `var_id`, which keeps standalone
    /// runs bit-for-bit identical to the pre-epoch behavior.
    pub key_epoch: u64,
}

impl Default for CodsConfig {
    fn default() -> Self {
        CodsConfig {
            get_timeout: Duration::from_secs(30),
            staging_limit_per_node: None,
            key_epoch: 0,
        }
    }
}

/// The `var_id` salt for a run epoch: 0 stays 0 (identity — standalone
/// runs keep raw ids), any other epoch is diffused through a SplitMix64
/// finalizer so consecutive run ids land in unrelated key regions.
pub fn epoch_salt(epoch: u64) -> u64 {
    if epoch == 0 {
        return 0;
    }
    let mut z = epoch.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
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
    consumption: Mutex<ConsumptionState>,
    consumed_cv: Condvar,
    staging: Mutex<std::collections::HashMap<u32, u64>>,
    staging_peak: std::sync::atomic::AtomicU64,
    mirror: Option<Arc<dyn SpaceMirror>>,
    put_count: Counter,
    get_count: Counter,
    evict_count: Counter,
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

/// The consumer end of one standing query registered through
/// [`CodsSpace::subscribe`]: pass it back to [`CodsSpace::sub_take`] to
/// block on pushed versions, and to [`CodsSpace::unsubscribe`] to tear
/// the query down.
pub struct SubHandle {
    /// Deterministic subscription id ([`SubSpec::id`]).
    pub id: SubId,
    /// The registered query.
    pub spec: SubSpec,
    sink: Arc<SubSink>,
    app: u32,
}

impl SubHandle {
    /// Versions this subscription has lost to its bounded queue.
    pub fn lagged(&self) -> u64 {
        self.sink.lagged()
    }

    /// Fully assembled versions so far (delivered or later dropped).
    pub fn completed(&self) -> u64 {
        self.sink.completed()
    }
}

/// Version-consumption bookkeeping for iterative coupling: producers may
/// only reclaim a version's buffers once every expected `get` of that
/// version has completed.
#[derive(Default)]
struct ConsumptionState {
    /// Expected number of completed gets per variable per version.
    expected: std::collections::HashMap<u64, u64>,
    /// Extra expected gets contributed by standing queries, as
    /// `(vid, every_k, gets)`: the gets apply only to versions on the
    /// subscription's stride (`version % every_k == 0`). Push fragments
    /// themselves are copied synchronously inside `put`, so they never
    /// appear here — these entries cover the subscriber's verify/resync
    /// `get` traffic.
    sub_expected: Vec<(u64, u64, u64)>,
    /// Completed gets per `(var, version)`.
    done: std::collections::HashMap<(u64, u64), u64>,
}

impl ConsumptionState {
    /// Total gets `(vid, version)` must see before release, or `None`
    /// when neither a base expectation nor any standing query covers
    /// the variable. A covered variable whose version is off every
    /// stride yields `Some(0)`: nobody will consume it, so the
    /// producer may reclaim it immediately.
    fn expected_for(&self, vid: u64, version: u64) -> Option<u64> {
        let base = self.expected.get(&vid).copied();
        let mut covered = base.is_some();
        let mut total = base.unwrap_or(0);
        for &(v, every_k, gets) in &self.sub_expected {
            if v == vid {
                covered = true;
                if version % every_k == 0 {
                    total += gets;
                }
            }
        }
        covered.then_some(total)
    }
}

fn buf_key(var: u64, version: u64, owner: ClientId, piece: u64) -> BufKey {
    BufKey {
        name: var,
        version,
        piece: ((owner as u64) << 32) | piece,
    }
}

/// Replication hooks for distributed runs.
///
/// A single-process space holds the only copy of the DHT and the
/// consumption/eviction bookkeeping. When execution clients are spread
/// over several processes, each process holds a full replica and the
/// wire transport implements this trait to propagate local state changes
/// to the other replicas. The receiving side applies them with the
/// `apply_remote_*` methods, which update the replica **without**
/// re-mirroring and without any ledger accounting — the originating
/// process already accounted the logical traffic, so merged ledgers stay
/// byte-identical to a single-process run.
pub trait SpaceMirror: Send + Sync {
    /// A piece of `(var, version)` was indexed in the local DHT replica.
    fn dht_insert(&self, var: u64, version: u64, entry: &LocationEntry);
    /// A `get` of `(var, version)` completed locally.
    fn get_done(&self, var: u64, version: u64);
    /// Versions of `var` up to and including `version` were evicted
    /// locally.
    fn evict(&self, var: u64, version: u64);
    /// A standing query was registered locally; replicate it so every
    /// producer-hosting process can match puts against it. Default:
    /// no-op (single-process spaces need no replication).
    fn sub_open(&self, spec: &SubSpec) {
        let _ = spec;
    }
    /// A standing query was cancelled locally. Default: no-op.
    fn sub_cancel(&self, id: SubId) {
        let _ = id;
    }
    /// A push fragment matched a subscription whose subscriber is
    /// hosted by another process: carry `data` (encoded f64 cells of
    /// `frag`) to it. Default: no-op, which silently drops the
    /// fragment — distributed transports must override this.
    #[allow(clippy::too_many_arguments)] // one wire frame's worth of fields
    fn sub_push(
        &self,
        id: SubId,
        var: u64,
        version: u64,
        src: ClientId,
        subscriber: ClientId,
        frag: &BoundingBox,
        data: &[u8],
    ) {
        let _ = (id, var, version, src, subscriber, frag, data);
    }
    /// The local subscriber's bounded queue lost `version`
    /// (diagnostics only — healing is the subscriber's resync `get`).
    /// Default: no-op.
    fn sub_lagged(&self, id: SubId, version: u64, subscriber: ClientId) {
        let _ = (id, version, subscriber);
    }
}

impl CodsSpace {
    /// Build a space over an existing DART runtime and DHT. Telemetry is
    /// inherited from the runtime's recorder.
    pub fn new(dart: Arc<DartRuntime>, dht: Dht, cfg: CodsConfig) -> Arc<Self> {
        Self::build(dart, dht, cfg, None)
    }

    /// The variable key this space indexes `var` under: the raw
    /// `var_id` XOR-salted by the run epoch. With `key_epoch == 0` this
    /// is exactly `var_id(var)`, so standalone runs are unchanged;
    /// distinct epochs map identical variable names into disjoint key
    /// regions of a shared registry/DHT.
    pub fn key_of(&self, var: &str) -> u64 {
        var_id(var) ^ epoch_salt(self.cfg.key_epoch)
    }

    /// Build a space whose DHT/consumption/eviction state changes are
    /// mirrored to remote replicas through `mirror` (a distributed run's
    /// wire transport).
    pub fn with_mirror(
        dart: Arc<DartRuntime>,
        dht: Dht,
        cfg: CodsConfig,
        mirror: Arc<dyn SpaceMirror>,
    ) -> Arc<Self> {
        Self::build(dart, dht, cfg, Some(mirror))
    }

    fn build(
        dart: Arc<DartRuntime>,
        dht: Dht,
        cfg: CodsConfig,
        mirror: Option<Arc<dyn SpaceMirror>>,
    ) -> Arc<Self> {
        let recorder = dart.recorder().clone();
        Arc::new(CodsSpace {
            dht,
            cfg,
            cache: ScheduleCache::with_recorder(&recorder),
            consumption: Mutex::new(ConsumptionState::default()),
            consumed_cv: Condvar::new(),
            staging: Mutex::new(std::collections::HashMap::new()),
            staging_peak: std::sync::atomic::AtomicU64::new(0),
            mirror,
            put_count: recorder.counter("cods.put"),
            get_count: recorder.counter("cods.get"),
            evict_count: recorder.counter("cods.evictions"),
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

    /// Declare how many `get` completions a version of `var` must see
    /// before [`Self::wait_version_consumed`] releases it (one per
    /// consumer piece retrieval). Enables producers of iterative
    /// couplings to reclaim old versions safely.
    pub fn set_expected_gets(&self, var: &str, gets: u64) {
        self.consumption
            .lock()
            .unwrap()
            .expected
            .insert(self.key_of(var), gets);
    }

    /// Declare that every on-stride version of `var` (those with
    /// `version % every_k == 0`) must see `gets` additional completed
    /// gets before [`Self::wait_version_consumed`] releases it. This is
    /// how standing-query verify/resync traffic enters the consumption
    /// ledger: push fragments are copied synchronously inside `put` and
    /// need no release gate of their own.
    pub fn add_sub_expected_gets(&self, var: &str, every_k: u64, gets: u64) {
        assert!(every_k >= 1, "every_k must be at least 1");
        self.consumption
            .lock()
            .unwrap()
            .sub_expected
            .push((self.key_of(var), every_k, gets));
    }

    /// Completed gets recorded for `(var, version)`.
    pub fn gets_completed(&self, var: &str, version: u64) -> u64 {
        self.consumption
            .lock()
            .unwrap()
            .done
            .get(&(self.key_of(var), version))
            .copied()
            .unwrap_or(0)
    }

    /// Block until every expected `get` of `(var, version)` has completed,
    /// up to `timeout`. Returns `false` on timeout or if no expectation
    /// was declared.
    pub fn wait_version_consumed(&self, var: &str, version: u64, timeout: Duration) -> bool {
        let vid = self.key_of(var);
        let deadline = std::time::Instant::now() + timeout;
        let mut state = self.consumption.lock().unwrap();
        let Some(expected) = state.expected_for(vid, version) else {
            return false;
        };
        loop {
            if state.done.get(&(vid, version)).copied().unwrap_or(0) >= expected {
                return true;
            }
            let now = std::time::Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, res) = self
                .consumed_cv
                .wait_timeout(state, deadline - now)
                .unwrap();
            state = guard;
            if res.timed_out() {
                return state.done.get(&(vid, version)).copied().unwrap_or(0) >= expected;
            }
        }
    }

    fn note_get_complete(&self, vid: u64, version: u64) {
        self.bump_get_done(vid, version);
        if let Some(m) = &self.mirror {
            m.get_done(vid, version);
        }
    }

    /// Count one completed get of `(vid, version)`, local or mirrored.
    /// The get that brings the count to the declared expectation ends
    /// the version's consumption on every replica, so each process
    /// drops its *pulled copies* of it there — a per-process transport
    /// cache (heap copies off the socket, or shm-mapped arena ranges
    /// the producer gets back the moment they drop), distinct from the
    /// owners' staged buffers, which live until `evict_version`. A get
    /// that failed or timed out never reports, `done` stays short and
    /// nothing is dropped; an undeclared later get pulls again.
    fn bump_get_done(&self, vid: u64, version: u64) {
        let mut state = self.consumption.lock().unwrap();
        let done = state.done.entry((vid, version)).or_insert(0);
        *done += 1;
        let consumed = Some(*done) == state.expected_for(vid, version);
        drop(state);
        self.consumed_cv.notify_all();
        if consumed {
            self.dart.drop_pulled(vid, version);
        }
    }

    /// Apply a remote replica's completed `get` (wire reader entry point).
    /// Bumps the consumption count without re-mirroring.
    pub fn apply_remote_get_done(&self, vid: u64, version: u64) {
        self.bump_get_done(vid, version);
    }

    /// Apply a remote replica's DHT insert (wire reader entry point).
    /// Indexes the location without accounting — the producer's process
    /// already recorded the DHT traffic — and without re-mirroring.
    pub fn apply_remote_dht_insert(&self, vid: u64, version: u64, entry: LocationEntry) {
        self.dht.insert(vid, version, entry);
    }

    /// Apply a remote replica's eviction (wire reader entry point):
    /// drops DHT records and registered buffers for all versions of `vid`
    /// up to and including `version`, without re-mirroring.
    pub fn apply_remote_evict(&self, vid: u64, version: u64) {
        self.evict_vid(vid, version);
    }

    /// Register a standing query for a subscriber hosted in this
    /// process and mirror it to remote replicas: every subsequent
    /// matching `put` pushes the overlapping fragment into the returned
    /// handle's sink, where [`Self::sub_take`] assembles and delivers
    /// whole versions.
    ///
    /// # Panics
    /// Panics on `every_k == 0` — user-facing config validation rejects
    /// that before it reaches the space.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    pub fn subscribe(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        region: &BoundingBox,
        every_k: u64,
        queue_cap: usize,
    ) -> SubHandle {
        let handle = self.subscribe_local(client, app, var, region, every_k, queue_cap);
        if let Some(m) = &self.mirror {
            m.sub_open(&handle.spec);
        }
        handle
    }

    /// [`Self::subscribe`] without the mirror broadcast. The execution
    /// engine uses this when every process compiles the same scenario:
    /// each replica registers the subscription from its own copy, so no
    /// wire traffic (and no registration race) is needed.
    pub fn subscribe_local(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        region: &BoundingBox,
        every_k: u64,
        queue_cap: usize,
    ) -> SubHandle {
        let spec = SubSpec {
            vid: self.key_of(var),
            region: *region,
            every_k,
            subscriber: client,
        };
        let entry = self.dart.subs().register(spec.clone());
        let sink = entry.attach_sink(queue_cap);
        self.sub_active.set(self.dart.subs().active());
        SubHandle {
            id: entry.id,
            spec,
            sink,
            app,
        }
    }

    /// Replicate a standing query whose subscriber lives in another
    /// process (wire reader / scenario compilation entry point):
    /// registry-only — no sink, no re-mirroring. Hostile or corrupt
    /// `every_k == 0` specs are ignored rather than panicking the
    /// reactor.
    pub fn apply_remote_subscribe(&self, spec: &SubSpec) {
        if spec.every_k == 0 {
            return;
        }
        self.dart.subs().register(spec.clone());
        self.sub_active.set(self.dart.subs().active());
    }

    /// Apply a remote replica's cancellation (wire reader entry point).
    pub fn apply_remote_sub_cancel(&self, id: SubId) {
        self.dart.subs().cancel(id);
        self.sub_active.set(self.dart.subs().active());
    }

    /// Deliver a wire-carried push fragment to the locally hosted
    /// subscriber sink (wire reader entry point). No accounting and no
    /// flight `SubPush` — the producer's process recorded both; the
    /// transport layer records the wire hop itself. Returns `false` if
    /// the subscription is unknown here or has no local sink (a stale
    /// push after cancellation — dropped, the ledger already charged
    /// it).
    pub fn apply_remote_sub_push(
        &self,
        sub_id: SubId,
        version: u64,
        frag_box: &BoundingBox,
        data: &[u8],
    ) -> bool {
        let Some(entry) = self.dart.subs().get(sub_id) else {
            return false;
        };
        let Some(sink) = entry.sink() else {
            return false;
        };
        if data.len() % ELEM_BYTES != 0 || (data.len() / ELEM_BYTES) as u128 != frag_box.num_cells()
        {
            return false;
        }
        let frag = decode_f64s(data);
        sink.offer(version, frag_box, &frag);
        true
    }

    /// Tear down a standing query: close its sink, drop the registry
    /// entry, and mirror the cancellation. Blocked [`Self::sub_take`]
    /// calls return [`TakeResult::Closed`]. Returns `false` if the
    /// subscription was already gone.
    pub fn unsubscribe(&self, handle: &SubHandle) -> bool {
        let removed = self.dart.subs().cancel(handle.id);
        self.sub_active.set(self.dart.subs().active());
        if removed {
            if let Some(m) = &self.mirror {
                m.sub_cancel(handle.id);
            }
        }
        removed
    }

    /// Block until `version` of the subscribed region is fully assembled
    /// in `handle`'s sink, up to `timeout`. On [`TakeResult::Lagged`] or
    /// [`TakeResult::TimedOut`] the caller heals the gap with an
    /// ordinary `get` — the space stays policy-free about resync.
    pub fn sub_take(&self, handle: &SubHandle, version: u64, timeout: Duration) -> TakeResult {
        let res = handle
            .sink
            .take_version(version, std::time::Instant::now() + timeout);
        match &res {
            TakeResult::Data(data) => {
                self.sub_deliveries.inc();
                let flight = self.dart.flight();
                if flight.is_enabled() {
                    let now = flight.now_us();
                    flight.record(
                        Event::new(flight.next_seq(), EventKind::SubDeliver)
                            .app(handle.app)
                            .var(handle.spec.vid)
                            .version(version)
                            .bbox(handle.spec.region)
                            .dst(handle.spec.subscriber)
                            .piece(handle.id)
                            .bytes(data.len() as u64 * ELEM_BYTES as u64)
                            .window(now, 0),
                    );
                }
            }
            TakeResult::Lagged => {
                self.sub_lagged_count.inc();
                if let Some(m) = &self.mirror {
                    m.sub_lagged(handle.id, version, handle.spec.subscriber);
                }
            }
            _ => {}
        }
        res
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

    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    fn put_impl(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        piece: u64,
        bbox: &BoundingBox,
        data: &[f64],
        index_in_dht: bool,
    ) -> Result<(), CodsError> {
        if data.len() as u128 != bbox.num_cells() {
            return Err(CodsError::SizeMismatch {
                expected: bbox.num_cells(),
                got: data.len(),
            });
        }
        let vid = self.key_of(var);
        let bytes = data.len() as u64 * ELEM_BYTES as u64;
        let node = self.dart.placement().node_of(client);
        let flight = self.dart.flight();
        let put_start = flight.now_us();
        let injector = self.dart.injector();
        if injector.staging_exhausted(node) {
            let used = self.staging_bytes(node);
            self.record_fault("stage-full", app, vid, version, client, piece);
            return Err(CodsError::StagingFull {
                node,
                used,
                limit: used,
            });
        }
        // An injected dead producer crashes between its DHT insert and its
        // buffer registration: the location is advertised below, but no
        // payload ever lands in staging.
        let dead = injector.dead_producer(vid, version, client, piece);
        if dead {
            self.record_fault("dead-producer", app, vid, version, client, piece);
        }
        if !dead {
            let mut staging = self.staging.lock().unwrap();
            let used = staging.entry(node).or_insert(0);
            if let Some(limit) = self.cfg.staging_limit_per_node {
                if *used + bytes > limit {
                    self.record_fault("stage-full", app, vid, version, client, piece);
                    return Err(CodsError::StagingFull {
                        node,
                        used: *used,
                        limit,
                    });
                }
            }
            *used += bytes;
            let peak = staging.values().copied().max().unwrap_or(0);
            self.staging_peak
                .fetch_max(peak, std::sync::atomic::Ordering::Relaxed);
            self.staging_gauge.set(peak);
        }
        self.put_count.inc();
        if !dead {
            self.dart.register_buffer(
                buf_key(vid, version, client, piece),
                client,
                encode_f64s(data),
            );
        }
        if index_in_dht {
            let entry = LocationEntry {
                bbox: *bbox,
                owner: client,
                piece,
            };
            let cores = self.dht.insert(vid, version, entry);
            if let Some(m) = &self.mirror {
                m.dht_insert(vid, version, &entry);
            }
            for c in cores {
                self.dart.account(
                    app,
                    TrafficClass::Dht,
                    client,
                    self.dht.core_client(c),
                    DHT_RECORD_BYTES,
                );
            }
        }
        // The Put's sequence number is allocated before the push fan-out
        // so every SubPush it spawns can name it as parent.
        let put_seq = flight.next_seq();
        if !dead {
            self.push_to_subs(client, app, vid, version, piece, bbox, data, put_seq);
        }
        if flight.is_enabled() {
            let now = flight.now_us();
            flight.record(
                Event::new(
                    put_seq,
                    EventKind::Put {
                        indexed: index_in_dht,
                    },
                )
                .app(app)
                .var(vid)
                .version(version)
                .bbox(*bbox)
                .src(client)
                .piece(piece)
                .bytes(bytes)
                .window(put_start, now.saturating_sub(put_start)),
            );
        }
        Ok(())
    }

    /// Fan a freshly put piece out to every matching standing query.
    ///
    /// This runs synchronously inside `put`, before the transport split:
    /// a subscriber hosted in this process gets the fragment offered
    /// straight into its sink, anything else goes through the mirror.
    /// The chaos `sub-push` site is consulted here — on the shared path —
    /// so an injected drop replays identically whether or not the
    /// subscriber sits behind the wire.
    #[allow(clippy::too_many_arguments)] // put_impl's identity plus the parent seq
    fn push_to_subs(
        &self,
        client: ClientId,
        app: u32,
        vid: u64,
        version: u64,
        piece: u64,
        bbox: &BoundingBox,
        data: &[f64],
        put_seq: u64,
    ) {
        let injector = self.dart.injector();
        let flight = self.dart.flight();
        for entry in self.dart.subs().matching(vid, version) {
            let Some(overlap) = entry.spec.region.intersect(bbox) else {
                continue;
            };
            if matches!(
                injector.on_sub_push(vid, version, entry.spec.subscriber, piece),
                FaultAction::Drop
            ) {
                self.record_fault("sub-push", app, vid, version, client, piece);
                self.sub_push_drops.inc();
                continue;
            }
            let mut frag = vec![0.0; overlap.num_cells() as usize];
            copy_region(data, bbox, &mut frag, &overlap, &overlap);
            let frag_bytes = frag.len() as u64 * ELEM_BYTES as u64;
            entry
                .pushes
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.sub_pushes.inc();
            self.sub_push_bytes.add(frag_bytes);
            // Producer-side accounting, exactly once per fragment: the
            // remote replica applies pushes without re-accounting, so
            // merged ledgers match a single-process run byte for byte.
            self.dart.account(
                app,
                TrafficClass::InterApp,
                client,
                entry.spec.subscriber,
                frag_bytes,
            );
            if flight.is_enabled() {
                let now = flight.now_us();
                flight.record(
                    Event::new(flight.next_seq(), EventKind::SubPush)
                        .parent(put_seq)
                        .app(app)
                        .var(vid)
                        .version(version)
                        .bbox(overlap)
                        .src(client)
                        .dst(entry.spec.subscriber)
                        .piece(entry.id)
                        .bytes(frag_bytes)
                        .window(now, 0),
                );
            }
            match entry.sink() {
                Some(sink) => {
                    sink.offer(version, &overlap, &frag);
                }
                None => {
                    if let Some(m) = &self.mirror {
                        m.sub_push(
                            entry.id,
                            vid,
                            version,
                            client,
                            entry.spec.subscriber,
                            &overlap,
                            &encode_f64s(&frag),
                        );
                    }
                }
            }
        }
    }

    /// Log an injected fault at a CoDS fault site as a flight event.
    fn record_fault(
        &self,
        kind: &'static str,
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
            Event::new(flight.next_seq(), EventKind::Fault { kind })
                .app(app)
                .var(vid)
                .version(version)
                .src(client)
                .piece(piece)
                .window(now, 0),
        );
    }

    /// `cods_put_seq`: store a piece into the space and index it in the
    /// DHT for later (sequentially coupled) consumers.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    pub fn put_seq(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        piece: u64,
        bbox: &BoundingBox,
        data: &[f64],
    ) -> Result<(), CodsError> {
        self.put_impl(client, app, var, version, piece, bbox, data, true)
    }

    /// `cods_put_cont`: expose a piece for direct pull by a concurrently
    /// running consumer (no DHT indexing — the consumer derives locations
    /// from the producer's declared decomposition).
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    pub fn put_cont(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        piece: u64,
        bbox: &BoundingBox,
        data: &[f64],
    ) -> Result<(), CodsError> {
        self.put_impl(client, app, var, version, piece, bbox, data, false)
    }

    /// `cods_get_seq`: retrieve `query` of `(var, version)` using the DHT
    /// location service (or a cached schedule).
    pub fn get_seq(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        query: &BoundingBox,
    ) -> Result<(FieldData, GetReport), CodsError> {
        let vid = self.key_of(var);
        self.get_with(client, app, vid, version, query, false, |report, gseq| {
            let flight = self.dart.flight();
            let dht_start = flight.now_us();
            let injector = self.dart.injector();
            let (entries, cores) = self
                .dht
                .query_filtered(vid, version, query, &|c| !injector.dht_core_down(c));
            report.dht_cores_queried = cores.len() as u32;
            // One query record out to each consulted core; the reply
            // carries the matching location records (at least one
            // record's worth of header per core).
            let reply_records = 1 + entries.len().div_ceil(cores.len().max(1)) as u64;
            for c in &cores {
                let peer = self.dht.core_client(*c);
                self.dart
                    .account(app, TrafficClass::Dht, client, peer, DHT_RECORD_BYTES);
                self.dart.account(
                    app,
                    TrafficClass::Dht,
                    peer,
                    client,
                    DHT_RECORD_BYTES * reply_records,
                );
            }
            if flight.is_enabled() {
                flight.record(
                    Event::new(
                        flight.next_seq(),
                        EventKind::DhtLookup {
                            cores: report.dht_cores_queried,
                        },
                    )
                    .parent(gseq)
                    .app(app)
                    .var(vid)
                    .version(version)
                    .dst(client)
                    .window(dht_start, flight.now_us().saturating_sub(dht_start)),
                );
            }
            let sched_start = flight.now_us();
            (sched_start, schedule_from_entries(&entries, query))
        })
    }

    /// `cods_get_cont`: retrieve `query` directly from a concurrently
    /// running producer, whose data decomposition is declared up front.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    pub fn get_cont(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        version: u64,
        query: &BoundingBox,
        producer: &Decomposition,
        producer_clients: &[ClientId],
    ) -> Result<(FieldData, GetReport), CodsError> {
        let vid = self.key_of(var);
        self.get_with(client, app, vid, version, query, true, |_, _| {
            let sched_start = self.dart.flight().now_us();
            (
                sched_start,
                schedule_from_decomposition(producer, producer_clients, query),
            )
        })
    }

    /// The one `get` body behind both operators: replay the cached
    /// schedule or `build` one (handed the report and the get's event
    /// sequence number; returns when schedule computation proper began,
    /// so a location lookup before it stays outside the `Schedule`
    /// window), execute it, and close with the `Get` flight event.
    #[allow(clippy::too_many_arguments)] // event tags mirror the cods_* operator signatures
    fn get_with(
        &self,
        client: ClientId,
        app: u32,
        vid: u64,
        version: u64,
        query: &BoundingBox,
        cont: bool,
        build: impl FnOnce(&mut GetReport, u64) -> (u64, CommSchedule),
    ) -> Result<(FieldData, GetReport), CodsError> {
        self.get_count.inc();
        let flight = self.dart.flight();
        let gstart = flight.now_us();
        let gseq = flight.next_seq();
        let mut report = GetReport::default();
        let schedule = match self.cache.lookup(vid, query) {
            Some(s) => {
                report.cache_hit = true;
                self.record_schedule(gseq, gstart, true, app, vid, version, client);
                s
            }
            None => {
                let (sched_start, s) = build(&mut report, gseq);
                let s = Arc::new(s);
                self.record_schedule(gseq, sched_start, false, app, vid, version, client);
                // Never cache a schedule that does not cover the query
                // (e.g. a DHT snapshot taken before every producer had
                // indexed its piece): replays would keep failing even
                // once the data exists.
                if s.total_cells() == query.num_cells() {
                    self.cache.insert(vid, query, Arc::clone(&s));
                }
                s
            }
        };
        let data = self.execute(
            &schedule,
            client,
            app,
            vid,
            version,
            query,
            gseq,
            &mut report,
        )?;
        if flight.is_enabled() {
            flight.record(
                Event::new(gseq, EventKind::Get { cont })
                    .app(app)
                    .var(vid)
                    .version(version)
                    .bbox(*query)
                    .dst(client)
                    .bytes(data.len() as u64 * ELEM_BYTES as u64)
                    .window(gstart, flight.now_us().saturating_sub(gstart)),
            );
        }
        Ok((data, report))
    }

    /// Log a schedule-computation child event under `parent` (a get's
    /// pre-allocated sequence number).
    #[allow(clippy::too_many_arguments)] // event tags mirror the cods_* operator signatures
    fn record_schedule(
        &self,
        parent: u64,
        start_us: u64,
        hit: bool,
        app: u32,
        vid: u64,
        version: u64,
        client: ClientId,
    ) {
        let flight = self.dart.flight();
        if !flight.is_enabled() {
            return;
        }
        flight.record(
            Event::new(flight.next_seq(), EventKind::Schedule { hit })
                .parent(parent)
                .app(app)
                .var(vid)
                .version(version)
                .dst(client)
                .window(start_us, flight.now_us().saturating_sub(start_us)),
        );
    }

    /// Receiver-driven pull: issue every scheduled piece at once and
    /// assemble the dense row-major array of `query` out of order as
    /// pieces arrive, so the get blocks for the slowest producer instead
    /// of the sum of all producer waits. Each piece is copied exactly
    /// once, straight from the staged buffer into the result; when a
    /// single piece exactly covers the query the result is a zero-copy
    /// view of the staged buffer itself.
    #[allow(clippy::too_many_arguments)] // mirrors the paper's cods_* operator signatures
    fn execute(
        &self,
        schedule: &CommSchedule,
        client: ClientId,
        app: u32,
        vid: u64,
        version: u64,
        query: &BoundingBox,
        parent: u64,
        report: &mut GetReport,
    ) -> Result<FieldData, CodsError> {
        let covered = schedule.total_cells();
        if covered != query.num_cells() {
            return Err(CodsError::IncompleteCover {
                missing_cells: query.num_cells().saturating_sub(covered),
            });
        }
        let flight = self.dart.flight();
        let cells = query.num_cells() as usize;
        let keys: Vec<BufKey> = schedule
            .ops
            .iter()
            .map(|op| buf_key(vid, version, op.src_client, op.piece))
            .collect();
        let zero_copy = schedule.ops.len() == 1 && schedule.ops[0].piece_box == *query;
        let mut out: Vec<f64> = if zero_copy {
            Vec::new()
        } else {
            vec![0.0; cells]
        };
        let mut view: Option<insitu_util::Bytes> = None;
        let issue_us = flight.now_us();
        let mut complete = |i: usize, handle: BufferHandle, wait: Duration| {
            let op = &schedule.ops[i];
            if zero_copy {
                assert_eq!(
                    handle.data.len(),
                    cells * ELEM_BYTES,
                    "staged piece does not match its declared box"
                );
                view = Some(handle.data.clone());
            } else if let Some(src) = f64s_of_bytes(&handle.data) {
                copy_region(src, &op.piece_box, &mut out, query, &op.region);
            } else {
                // Staged buffer not 8-aligned: copy at byte granularity.
                copy_region_bytes(
                    &handle.data,
                    &op.piece_box,
                    bytes_of_f64s_mut(&mut out),
                    query,
                    &op.region,
                    ELEM_BYTES,
                );
            }
            let bytes = op.region.num_cells() as u64 * ELEM_BYTES as u64;
            let loc = self
                .dart
                .account(app, TrafficClass::InterApp, handle.owner, client, bytes);
            match loc {
                Locality::SharedMemory => report.shm_bytes += bytes,
                Locality::Network => report.net_bytes += bytes,
            }
            report.ops += 1;
            if flight.is_enabled() {
                flight.record(
                    Event::new(
                        flight.next_seq(),
                        EventKind::Pull {
                            wait_us: wait.as_micros() as u64,
                        },
                    )
                    .parent(parent)
                    .app(app)
                    .var(vid)
                    .version(version)
                    .bbox(op.region)
                    .src(handle.owner)
                    .dst(client)
                    .link(LinkClass::from_locality(loc))
                    .piece(op.piece)
                    .bytes(bytes)
                    .window(issue_us, flight.now_us().saturating_sub(issue_us)),
                );
            }
        };
        let result = self
            .dart
            .pull_many(&keys, self.cfg.get_timeout, &mut complete);
        if let Err(i) = result {
            let op = &schedule.ops[i];
            return Err(CodsError::Timeout {
                var: vid,
                version,
                region: op.region,
                owner: op.src_client,
            });
        }
        self.note_get_complete(vid, version);
        let data = match view {
            Some(bytes) => FieldData::from_bytes(bytes),
            None => FieldData::Owned(out),
        };
        if data.is_view() {
            self.view_count.inc();
        }
        Ok(data)
    }

    /// Highest version of `var` visible in the DHT (sequential couplings
    /// only; concurrent puts are not indexed).
    pub fn latest_version(&self, var: &str) -> Option<u64> {
        self.dht.latest_version(self.key_of(var))
    }

    /// Drop a version's buffers and DHT records (memory management between
    /// workflow stages). Frees the owners' staging accounting.
    /// Eviction is *in-order*: all versions up to and including `version`
    /// are dropped from both the DHT and the registry.
    pub fn evict_version(&self, var: &str, version: u64) {
        let vid = self.key_of(var);
        self.evict_vid(vid, version);
        if let Some(m) = &self.mirror {
            m.evict(vid, version);
        }
    }

    fn evict_vid(&self, vid: u64, version: u64) {
        self.dht.remove_versions_up_to(vid, version);
        let removed = self.dart.registry().evict_below(vid, version + 1);
        // Only buffers staged here count: a pulled copy swept out with
        // the version was never charged to staging, and its owner's
        // process books the eviction.
        let staged = removed.into_iter().filter(|&(o, _)| self.dart.hosts(o));
        let mut staging = self.staging.lock().unwrap();
        for (owner, bytes) in staged {
            self.evict_count.inc();
            let node = self.dart.placement().node_of(owner);
            if let Some(used) = staging.get_mut(&node) {
                *used = used.saturating_sub(bytes);
            }
        }
        self.staging_gauge
            .set(staging.values().copied().max().unwrap_or(0));
    }

    /// Bytes currently staged in CoDS memory on `node`.
    pub fn staging_bytes(&self, node: u32) -> u64 {
        self.staging
            .lock()
            .unwrap()
            .get(&node)
            .copied()
            .unwrap_or(0)
    }

    /// The highest per-node staging occupancy observed so far.
    pub fn staging_peak(&self) -> u64 {
        self.staging_peak.load(std::sync::atomic::Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_domain::{layout, Distribution, ProcessGrid};
    use insitu_fabric::{MachineSpec, Placement, TransferLedger};
    use insitu_sfc::HilbertCurve;
    use insitu_telemetry::Recorder;

    /// 4 clients on 2 nodes of 2 cores; DHT core per node on clients 0, 2.
    fn space() -> Arc<CodsSpace> {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 2]);
        CodsSpace::new(
            dart,
            dht,
            CodsConfig {
                get_timeout: Duration::from_secs(2),
                ..Default::default()
            },
        )
    }

    fn tagfn(p: &[u64]) -> f64 {
        (p[0] * 100 + p[1]) as f64 + 0.25
    }

    /// Producer decomposition 2x2 blocked over 8x8; clients 0..4 hold it.
    fn produce(space: &CodsSpace, var: &str, version: u64) -> (Decomposition, Vec<ClientId>) {
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Blocked,
        );
        let clients: Vec<ClientId> = (0..4).collect();
        for r in 0..4u64 {
            let b = dec.blocked_box(r).unwrap();
            let data = layout::fill_with(&b, tagfn);
            space
                .put_seq(clients[r as usize], 1, var, version, 0, &b, &data)
                .unwrap();
        }
        (dec, clients)
    }

    #[derive(Default)]
    struct RecordingMirror {
        inserts: Mutex<Vec<(u64, u64, LocationEntry)>>,
        dones: Mutex<Vec<(u64, u64)>>,
        evicts: Mutex<Vec<(u64, u64)>>,
    }

    impl SpaceMirror for RecordingMirror {
        fn dht_insert(&self, var: u64, version: u64, entry: &LocationEntry) {
            self.inserts.lock().unwrap().push((var, version, *entry));
        }
        fn get_done(&self, var: u64, version: u64) {
            self.dones.lock().unwrap().push((var, version));
        }
        fn evict(&self, var: u64, version: u64) {
            self.evicts.lock().unwrap().push((var, version));
        }
    }

    fn mirrored_space(mirror: Arc<RecordingMirror>) -> Arc<CodsSpace> {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 2]);
        CodsSpace::with_mirror(
            dart,
            dht,
            CodsConfig {
                get_timeout: Duration::from_secs(2),
                ..Default::default()
            },
            mirror,
        )
    }

    #[test]
    fn mirror_sees_local_changes_but_not_remote_applies() {
        let mirror = Arc::new(RecordingMirror::default());
        let s = mirrored_space(Arc::clone(&mirror));
        produce(&s, "temp", 0);
        let vid = var_id("temp");
        assert_eq!(mirror.inserts.lock().unwrap().len(), 4);
        let q = BoundingBox::from_sizes(&[8, 8]);
        s.get_seq(3, 2, "temp", 0, &q).unwrap();
        assert_eq!(*mirror.dones.lock().unwrap(), vec![(vid, 0)]);
        s.evict_version("temp", 0);
        assert_eq!(*mirror.evicts.lock().unwrap(), vec![(vid, 0)]);
        // Remote applies replay the same changes without re-mirroring.
        let entry = mirror.inserts.lock().unwrap()[0].2;
        s.apply_remote_dht_insert(vid, 1, entry);
        s.apply_remote_get_done(vid, 1);
        s.apply_remote_evict(vid, 1);
        assert_eq!(mirror.inserts.lock().unwrap().len(), 4);
        assert_eq!(mirror.dones.lock().unwrap().len(), 1);
        assert_eq!(mirror.evicts.lock().unwrap().len(), 1);
        // And nothing above accounted any traffic beyond the local run's.
        assert_eq!(s.dht().latest_version(vid), None);
    }

    #[test]
    fn remote_dht_insert_is_queryable_without_accounting() {
        let s = space();
        let vid = var_id("remote_var");
        let before = s.dart().ledger().snapshot();
        s.apply_remote_dht_insert(
            vid,
            3,
            LocationEntry {
                bbox: BoundingBox::from_sizes(&[4, 4]),
                owner: 2,
                piece: 0,
            },
        );
        assert_eq!(s.dht().latest_version(vid), Some(3));
        assert_eq!(s.dart().ledger().snapshot(), before);
    }

    #[test]
    fn remote_get_done_releases_waiting_producer() {
        let s = space();
        s.set_expected_gets("vel", 2);
        let vid = var_id("vel");
        s.apply_remote_get_done(vid, 0);
        assert!(!s.wait_version_consumed("vel", 0, Duration::from_millis(20)));
        s.apply_remote_get_done(vid, 0);
        assert!(s.wait_version_consumed("vel", 0, Duration::from_millis(20)));
    }

    /// One process of a distributed run: hosts the clients of node 0
    /// (0 and 1) unless `all`, and counts how often it is asked.
    struct NodeZero {
        all: bool,
        hosts_calls: std::sync::atomic::AtomicU64,
    }

    impl insitu_dart::Transport for NodeZero {
        fn hosts(&self, client: ClientId) -> bool {
            self.hosts_calls
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.all || client < 2
        }
        fn hosts_all(&self) -> bool {
            self.all
        }
        fn forward(&self, _to: ClientId, _msg: &insitu_dart::Msg) {}
        fn publish(&self, _key: &BufKey, _owner: ClientId, _bytes: u64) {}
        fn request(&self, _key: &BufKey) {}
    }

    fn node_zero_space(all: bool) -> (Arc<CodsSpace>, Arc<NodeZero>, Recorder) {
        let wire = Arc::new(NodeZero {
            all,
            hosts_calls: Default::default(),
        });
        let rec = Recorder::enabled();
        let dart = DartRuntime::with_transport(
            Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4)),
            Arc::new(TransferLedger::new()),
            rec.clone(),
            insitu_fabric::FaultInjector::none(),
            insitu_obs::FlightRecorder::disabled(),
            wire.clone(),
        );
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 2]);
        let cfg = CodsConfig {
            get_timeout: Duration::from_secs(2),
            ..Default::default()
        };
        (CodsSpace::new(dart, dht, cfg), wire, rec)
    }

    /// `produce` as node 0 of a two-process run sees it: ranks 0 and 1
    /// put locally; the pieces of ranks 2 and 3 arrive the way the wire
    /// reader lands them — a mirrored DHT insert plus a pulled copy
    /// registered directly, charged to nobody's staging.
    fn produce_on_node_zero(space: &CodsSpace, var: &str, version: u64) {
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Blocked,
        );
        let vid = space.key_of(var);
        for r in 0..4u32 {
            let b = dec.blocked_box(r as u64).unwrap();
            let data = layout::fill_with(&b, tagfn);
            if r < 2 {
                space.put_seq(r, 1, var, version, 0, &b, &data).unwrap();
            } else {
                space.apply_remote_dht_insert(
                    vid,
                    version,
                    LocationEntry {
                        bbox: b,
                        owner: r,
                        piece: 0,
                    },
                );
                space
                    .dart
                    .registry()
                    .register(buf_key(vid, version, r, 0), r, encode_f64s(&data));
            }
        }
    }

    #[test]
    fn last_expected_get_drops_exactly_that_versions_pulled_copies() {
        let q = BoundingBox::from_sizes(&[8, 8]);
        // The completing get is local in one run, mirrored in the other.
        for last_is_remote in [false, true] {
            let (s, _, _) = node_zero_space(false);
            s.set_expected_gets("temp", 2);
            let vid = s.key_of("temp");
            produce_on_node_zero(&s, "temp", 0);
            produce_on_node_zero(&s, "temp", 1);
            produce_on_node_zero(&s, "other", 0);
            assert_eq!(s.dart.registry().len(), 12);

            // One short of the expectation: nothing is dropped.
            if last_is_remote {
                s.get_seq(1, 2, "temp", 0, &q).unwrap();
            } else {
                s.apply_remote_get_done(vid, 0);
            }
            assert_eq!(s.dart.registry().len(), 12);

            // The expected-th get drops the two pulled copies of
            // ("temp", 0) and nothing else: not the buffers staged
            // here, not version 1, not the other variable.
            if last_is_remote {
                s.apply_remote_get_done(vid, 0);
            } else {
                let (data, _) = s.get_seq(1, 2, "temp", 0, &q).unwrap();
                assert_eq!(data[layout::linear_index(&q, &[7, 7])], tagfn(&[7, 7]));
            }
            assert_eq!(s.dart.registry().len(), 10);
            for r in 0..4u32 {
                let held = |var: &str, v| {
                    let key = buf_key(s.key_of(var), v, r, 0);
                    s.dart.registry().get(&key).is_some()
                };
                assert_eq!(held("temp", 0), r < 2, "rank {r}");
                assert!(held("temp", 1) && held("other", 0), "rank {r}");
            }
            // An undeclared extra get_done past the expectation is
            // not a second trigger.
            s.apply_remote_get_done(vid, 0);
            assert_eq!(s.dart.registry().len(), 10);
        }
    }

    #[test]
    fn single_process_space_never_looks_for_pulled_copies() {
        // The real thing: LocalTransport hosts everyone, nothing goes.
        let s = space();
        s.set_expected_gets("temp", 1);
        produce(&s, "temp", 0);
        s.apply_remote_get_done(var_id("temp"), 0);
        assert_eq!(s.dart.registry().len(), 4);

        // And it is the transport's `hosts_all` that short-circuits: a
        // scan would ask `hosts` once per candidate entry.
        let (s, wire, _) = node_zero_space(true);
        s.set_expected_gets("temp", 1);
        produce_on_node_zero(&s, "temp", 0);
        let asked = || wire.hosts_calls.load(std::sync::atomic::Ordering::Relaxed);
        let before = asked();
        s.apply_remote_get_done(s.key_of("temp"), 0);
        assert_eq!(asked(), before, "consumption scanned the registry");
        assert_eq!(s.dart.registry().len(), 4);
    }

    #[test]
    fn eviction_books_only_buffers_staged_in_this_process() {
        let (s, _, rec) = node_zero_space(false);
        produce_on_node_zero(&s, "temp", 0);
        let staged = s.staging_bytes(0);
        assert!(staged > 0);
        produce_on_node_zero(&s, "temp", 1);
        s.evict_version("temp", 0);
        // Four entries left the registry; two were staged here. The
        // pulled copies' evictions belong to their owners' process.
        assert_eq!(s.dart.registry().len(), 4);
        assert_eq!(rec.metrics_snapshot().counter("cods.evictions"), 2);
        assert_eq!(s.staging_bytes(0), staged);
        assert_eq!(s.staging_bytes(1), 0);
    }

    #[test]
    fn put_get_seq_roundtrip_full_domain() {
        let s = space();
        produce(&s, "temp", 0);
        let q = BoundingBox::from_sizes(&[8, 8]);
        let (data, report) = s.get_seq(3, 2, "temp", 0, &q).unwrap();
        assert_eq!(data.len(), 64);
        for p in q.iter_points() {
            assert_eq!(data[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
        }
        assert_eq!(report.ops, 4);
        assert!(report.dht_cores_queried > 0);
        assert!(!report.cache_hit);
    }

    #[test]
    fn get_seq_sub_region_crossing_owners() {
        let s = space();
        produce(&s, "temp", 0);
        let q = BoundingBox::new(&[2, 2], &[5, 5]);
        let (data, report) = s.get_seq(0, 2, "temp", 0, &q).unwrap();
        assert_eq!(report.ops, 4); // crosses all four quadrants
        for p in q.iter_points() {
            assert_eq!(data[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
        }
    }

    #[test]
    fn second_get_hits_schedule_cache() {
        let s = space();
        produce(&s, "temp", 0);
        let q = BoundingBox::new(&[0, 0], &[3, 3]);
        let (_, r1) = s.get_seq(1, 2, "temp", 0, &q).unwrap();
        let (_, r2) = s.get_seq(1, 2, "temp", 0, &q).unwrap();
        assert!(!r1.cache_hit);
        assert!(r2.cache_hit);
        assert_eq!(r2.dht_cores_queried, 0);
    }

    #[test]
    fn cached_schedule_replays_across_versions() {
        let s = space();
        produce(&s, "temp", 0);
        let q = BoundingBox::new(&[0, 0], &[7, 7]);
        let _ = s.get_seq(1, 2, "temp", 0, &q).unwrap();
        produce(&s, "temp", 1);
        let (data, r) = s.get_seq(1, 2, "temp", 1, &q).unwrap();
        assert!(r.cache_hit);
        assert_eq!(data.len(), 64);
    }

    #[test]
    fn locality_accounting_matches_placement() {
        let s = space();
        produce(&s, "temp", 0);
        // Client 1 is on node 0 with clients {0, 1}; producers 0,1 are
        // co-located with it, producers 2,3 are not.
        let q = BoundingBox::from_sizes(&[8, 8]);
        let (_, report) = s.get_seq(1, 2, "temp", 0, &q).unwrap();
        // Each producer piece is 16 cells = 128 bytes.
        assert_eq!(report.shm_bytes, 2 * 128);
        assert_eq!(report.net_bytes, 2 * 128);
        let snap = s.dart().ledger().snapshot();
        assert_eq!(snap.shm_bytes(TrafficClass::InterApp), 256);
        assert_eq!(snap.network_bytes(TrafficClass::InterApp), 256);
    }

    #[test]
    fn get_cont_without_dht() {
        let s = space();
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Blocked,
        );
        let clients: Vec<ClientId> = (0..4).collect();
        for r in 0..4u64 {
            let b = dec.blocked_box(r).unwrap();
            let data = layout::fill_with(&b, tagfn);
            s.put_cont(clients[r as usize], 1, "vel", 7, 0, &b, &data)
                .unwrap();
        }
        let q = BoundingBox::new(&[1, 1], &[6, 6]);
        let (data, report) = s.get_cont(2, 2, "vel", 7, &q, &dec, &clients).unwrap();
        assert_eq!(report.dht_cores_queried, 0);
        for p in q.iter_points() {
            assert_eq!(data[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
        }
        // No DHT traffic at all for the concurrent path.
        assert_eq!(
            s.dart().ledger().snapshot().total_bytes(TrafficClass::Dht),
            0
        );
    }

    #[test]
    fn get_cont_rendezvous_producer_late() {
        let s = space();
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[1, 1]),
            Distribution::Blocked,
        );
        let s2 = Arc::clone(&s);
        let consumer = std::thread::spawn(move || {
            let q = BoundingBox::from_sizes(&[8, 8]);
            s2.get_cont(1, 2, "late", 0, &q, &dec, &[0]).unwrap().0
        });
        std::thread::sleep(Duration::from_millis(30));
        let b = BoundingBox::from_sizes(&[8, 8]);
        let data = layout::fill_with(&b, tagfn);
        s.put_cont(0, 1, "late", 0, 0, &b, &data).unwrap();
        let got = consumer.join().unwrap();
        assert_eq!(got, data);
    }

    #[test]
    fn version_isolation() {
        let s = space();
        produce(&s, "temp", 0);
        let q = BoundingBox::new(&[0, 0], &[1, 1]);
        // Version 5 was never put: schedule comes up empty -> incomplete.
        let err = s.get_seq(0, 2, "x", 5, &q).unwrap_err();
        assert!(matches!(err, CodsError::IncompleteCover { .. }));
    }

    #[test]
    fn timeout_when_piece_missing() {
        // Build an uncached space with tiny timeout; DHT knows about a
        // piece that was never registered (e.g. producer died).
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(1, 2), 2));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0]);
        let s = CodsSpace::new(
            dart,
            dht,
            CodsConfig {
                get_timeout: Duration::from_millis(20),
                ..Default::default()
            },
        );
        let b = BoundingBox::from_sizes(&[4, 4]);
        s.dht().insert(
            var_id("ghost"),
            0,
            LocationEntry {
                bbox: b,
                owner: 1,
                piece: 0,
            },
        );
        let err = s.get_seq(0, 1, "ghost", 0, &b).unwrap_err();
        assert!(matches!(err, CodsError::Timeout { .. }));
    }

    #[test]
    fn size_mismatch_rejected() {
        let s = space();
        let b = BoundingBox::from_sizes(&[4, 4]);
        let err = s.put_seq(0, 1, "bad", 0, 0, &b, &[1.0, 2.0]).unwrap_err();
        assert_eq!(
            err,
            CodsError::SizeMismatch {
                expected: 16,
                got: 2
            }
        );
    }

    #[test]
    fn evict_version_removes_data() {
        let s = space();
        produce(&s, "temp", 0);
        s.evict_version("temp", 0);
        let q = BoundingBox::from_sizes(&[8, 8]);
        // Schedules were cached before eviction? No get happened, so the
        // DHT is consulted and finds nothing.
        let err = s.get_seq(0, 2, "temp", 0, &q).unwrap_err();
        assert!(matches!(err, CodsError::IncompleteCover { .. }));
    }

    #[test]
    fn consumption_tracking_counts_gets() {
        let s = space();
        produce(&s, "temp", 0);
        s.set_expected_gets("temp", 2);
        assert_eq!(s.gets_completed("temp", 0), 0);
        let q = BoundingBox::from_sizes(&[8, 8]);
        let _ = s.get_seq(1, 2, "temp", 0, &q).unwrap();
        assert_eq!(s.gets_completed("temp", 0), 1);
        assert!(!s.wait_version_consumed("temp", 0, Duration::from_millis(10)));
        let _ = s.get_seq(2, 2, "temp", 0, &q).unwrap();
        assert!(s.wait_version_consumed("temp", 0, Duration::from_millis(10)));
    }

    #[test]
    fn wait_version_consumed_without_expectation_is_false() {
        let s = space();
        assert!(!s.wait_version_consumed("nobody", 0, Duration::from_millis(5)));
    }

    #[test]
    fn wait_version_consumed_unblocks_across_threads() {
        let s = space();
        produce(&s, "temp", 0);
        s.set_expected_gets("temp", 1);
        let s2 = Arc::clone(&s);
        let waiter =
            std::thread::spawn(move || s2.wait_version_consumed("temp", 0, Duration::from_secs(5)));
        std::thread::sleep(Duration::from_millis(20));
        let q = BoundingBox::from_sizes(&[8, 8]);
        let _ = s.get_seq(3, 2, "temp", 0, &q).unwrap();
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn latest_version_discovery() {
        let s = space();
        assert_eq!(s.latest_version("temp"), None);
        produce(&s, "temp", 0);
        assert_eq!(s.latest_version("temp"), Some(0));
        produce(&s, "temp", 5);
        assert_eq!(s.latest_version("temp"), Some(5));
        // In-order eviction drops every version up to the given one.
        s.evict_version("temp", 5);
        assert_eq!(s.latest_version("temp"), None);
    }

    #[test]
    fn staging_accounting_tracks_puts_and_evictions() {
        let s = space();
        // Clients 0,1 on node 0; 2,3 on node 1. Each piece = 16 cells.
        produce(&s, "temp", 0);
        assert_eq!(s.staging_bytes(0), 2 * 16 * 8);
        assert_eq!(s.staging_bytes(1), 2 * 16 * 8);
        assert_eq!(s.staging_peak(), 2 * 16 * 8);
        s.evict_version("temp", 0);
        assert_eq!(s.staging_bytes(0), 0);
        assert_eq!(s.staging_bytes(1), 0);
        // Peak is sticky.
        assert_eq!(s.staging_peak(), 2 * 16 * 8);
    }

    #[test]
    fn staging_limit_rejects_oversubscription() {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(1, 2), 2));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0]);
        let s = CodsSpace::new(
            dart,
            dht,
            CodsConfig {
                staging_limit_per_node: Some(200),
                ..Default::default()
            },
        );
        let b = BoundingBox::from_sizes(&[4, 4]); // 128 bytes
        let data = layout::fill_with(&b, tagfn);
        s.put_seq(0, 1, "x", 0, 0, &b, &data).unwrap();
        let err = s.put_seq(1, 1, "x", 0, 1, &b, &data).unwrap_err();
        assert!(matches!(
            err,
            CodsError::StagingFull {
                node: 0,
                used: 128,
                limit: 200
            }
        ));
        // Evicting frees capacity for a retry.
        s.evict_version("x", 0);
        s.put_seq(1, 1, "x", 1, 1, &b, &data).unwrap();
    }

    #[test]
    fn exact_cover_single_piece_is_zero_copy() {
        let s = space();
        produce(&s, "temp", 0);
        // Query exactly one producer's piece: the result must be a view
        // of the staged buffer, not a copy.
        let piece = BoundingBox::from_sizes(&[4, 4]);
        let (data, report) = s.get_seq(1, 2, "temp", 0, &piece).unwrap();
        assert_eq!(report.ops, 1);
        assert!(data.is_view(), "single exact piece should not be copied");
        for p in piece.iter_points() {
            assert_eq!(data[layout::linear_index(&piece, &p[..2])], tagfn(&p[..2]));
        }
        // A multi-piece query assembles into an owned buffer.
        let q = BoundingBox::from_sizes(&[8, 8]);
        let (data, report) = s.get_seq(1, 2, "temp", 0, &q).unwrap();
        assert!(report.ops > 1);
        assert!(!data.is_view());
        // A sub-piece query is a single op but not an exact cover.
        let sub = BoundingBox::new(&[1, 1], &[2, 2]);
        let (data, report) = s.get_seq(1, 2, "temp", 0, &sub).unwrap();
        assert_eq!(report.ops, 1);
        assert!(!data.is_view());
        for p in sub.iter_points() {
            assert_eq!(data[layout::linear_index(&sub, &p[..2])], tagfn(&p[..2]));
        }
    }

    #[test]
    fn multi_piece_producer() {
        // One producer holding two disjoint pieces (cyclic-style put).
        let s = space();
        let b1 = BoundingBox::new(&[0, 0], &[3, 7]);
        let b2 = BoundingBox::new(&[4, 0], &[7, 7]);
        s.put_seq(0, 1, "mp", 0, 0, &b1, &layout::fill_with(&b1, tagfn))
            .unwrap();
        s.put_seq(0, 1, "mp", 0, 1, &b2, &layout::fill_with(&b2, tagfn))
            .unwrap();
        let q = BoundingBox::new(&[2, 2], &[5, 5]);
        let (data, report) = s.get_seq(3, 2, "mp", 0, &q).unwrap();
        assert_eq!(report.ops, 2);
        for p in q.iter_points() {
            assert_eq!(data[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
        }
    }

    #[test]
    fn epoch_salt_is_identity_at_zero_and_diffuse_otherwise() {
        assert_eq!(epoch_salt(0), 0);
        let salts: Vec<u64> = (1..64u64).map(epoch_salt).collect();
        for (i, &a) in salts.iter().enumerate() {
            assert_ne!(a, 0);
            for &b in &salts[i + 1..] {
                assert_ne!(a, b, "epoch salts must be distinct");
            }
        }
    }

    #[test]
    fn key_epoch_zero_keys_equal_raw_var_ids() {
        let s = space();
        assert_eq!(s.key_of("temperature"), var_id("temperature"));
    }

    /// Two epoched spaces over ONE runtime (one registry, one ledger):
    /// identical variable names and versions stay fully independent —
    /// each run's get sees exactly its own producer's data.
    #[test]
    fn distinct_epochs_isolate_identical_var_names_on_a_shared_runtime() {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let mk = |epoch: u64| {
            CodsSpace::new(
                Arc::clone(&dart),
                Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 2]),
                CodsConfig {
                    get_timeout: Duration::from_secs(2),
                    key_epoch: epoch,
                    ..Default::default()
                },
            )
        };
        let (a, b) = (mk(1), mk(2));
        assert_ne!(a.key_of("temp"), b.key_of("temp"));
        let bbox = BoundingBox::from_sizes(&[4, 4]);
        let fill_a = layout::fill_with(&bbox, |p| tagfn(p) + 1000.0);
        let fill_b = layout::fill_with(&bbox, |p| tagfn(p) + 2000.0);
        a.put_seq(0, 1, "temp", 0, 0, &bbox, &fill_a).unwrap();
        b.put_seq(0, 1, "temp", 0, 0, &bbox, &fill_b).unwrap();
        // Same name, same version, same query — each space resolves to
        // its own run's bytes.
        let (da, _) = a.get_seq(3, 2, "temp", 0, &bbox).unwrap();
        let (db, _) = b.get_seq(3, 2, "temp", 0, &bbox).unwrap();
        assert_eq!(&da[..], &fill_a[..]);
        assert_eq!(&db[..], &fill_b[..]);
        // Eviction in one epoch must not disturb the other.
        a.evict_version("temp", 0);
        assert_eq!(a.latest_version("temp"), None);
        assert_eq!(b.latest_version("temp"), Some(0));
        let (db2, _) = b.get_seq(1, 2, "temp", 0, &bbox).unwrap();
        assert_eq!(&db2[..], &fill_b[..]);
    }

    // ----- standing queries -------------------------------------------

    use insitu_fabric::{FaultHooks, FaultInjector};
    use insitu_sub::DEFAULT_QUEUE_CAP;

    fn take_data(s: &CodsSpace, h: &SubHandle, version: u64) -> Vec<f64> {
        match s.sub_take(h, version, Duration::from_secs(2)) {
            TakeResult::Data(d) => d,
            other => panic!("version {version}: expected data, got {other:?}"),
        }
    }

    /// The acceptance anchor at unit scale: with `every_k = 1` and a
    /// full-domain region, every pushed version is byte-identical to the
    /// same version pulled with `get`.
    #[test]
    fn pushed_versions_are_byte_identical_to_gets() {
        let s = space();
        let q = BoundingBox::from_sizes(&[8, 8]);
        let handle = s.subscribe(3, 2, "temp", &q, 1, DEFAULT_QUEUE_CAP);
        for v in 0..3 {
            produce(&s, "temp", v);
        }
        for v in 0..3 {
            let pushed = take_data(&s, &handle, v);
            let (pulled, _) = s.get_seq(3, 2, "temp", v, &q).unwrap();
            assert_eq!(&encode_f64s(&pushed)[..], &encode_f64s(&pulled)[..]);
        }
        assert_eq!(handle.completed(), 3);
        assert_eq!(handle.lagged(), 0);
    }

    #[test]
    fn stride_and_region_filter_pushes() {
        let s = space();
        let q = BoundingBox::new(&[2, 2], &[5, 5]);
        let handle = s.subscribe(3, 2, "temp", &q, 2, 4);
        for v in 0..4 {
            produce(&s, "temp", v);
        }
        // On-stride versions assemble the sub-region from the four
        // overlapping producer pieces.
        for v in [0u64, 2] {
            let data = take_data(&s, &handle, v);
            for p in q.iter_points() {
                assert_eq!(data[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
            }
        }
        // Off-stride versions are never pushed.
        assert_eq!(
            s.sub_take(&handle, 1, Duration::from_millis(20)),
            TakeResult::TimedOut
        );
        assert_eq!(handle.completed(), 2);
    }

    /// Mirrors `chaos_pulls`: version completion order must not confuse
    /// a subscriber taking versions in its own order.
    #[test]
    fn out_of_order_puts_deliver_in_any_take_order() {
        let s = space();
        let q = BoundingBox::from_sizes(&[8, 8]);
        let handle = s.subscribe(1, 2, "temp", &q, 1, 8);
        for v in [2u64, 0, 1] {
            produce(&s, "temp", v);
        }
        for v in [1u64, 0, 2] {
            let data = take_data(&s, &handle, v);
            assert_eq!(data.len(), 64);
        }
    }

    #[test]
    fn slow_subscriber_lags_oldest_and_heals_with_get() {
        let s = space();
        let q = BoundingBox::from_sizes(&[8, 8]);
        let handle = s.subscribe(3, 2, "temp", &q, 1, 1);
        for v in 0..3 {
            produce(&s, "temp", v);
        }
        // Queue capacity 1: versions 0 and 1 were evicted oldest-first,
        // and the loss is reported, never silently skipped.
        assert_eq!(
            s.sub_take(&handle, 0, Duration::from_millis(10)),
            TakeResult::Lagged
        );
        assert_eq!(handle.lagged(), 2);
        // The gap heals with an ordinary get of the lost version.
        let (healed, _) = s.get_seq(3, 2, "temp", 0, &q).unwrap();
        for p in q.iter_points() {
            assert_eq!(healed[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
        }
        assert!(matches!(
            s.sub_take(&handle, 2, Duration::from_millis(10)),
            TakeResult::Data(_)
        ));
    }

    #[test]
    fn unsubscribe_closes_sink_and_stops_pushes() {
        let s = space();
        let q = BoundingBox::from_sizes(&[8, 8]);
        let handle = s.subscribe(3, 2, "temp", &q, 1, 4);
        produce(&s, "temp", 0);
        assert!(s.unsubscribe(&handle));
        assert!(!s.unsubscribe(&handle));
        // Already-assembled versions stay readable; later ones see the
        // cancellation instead of hanging.
        assert!(matches!(
            s.sub_take(&handle, 0, Duration::from_millis(10)),
            TakeResult::Data(_)
        ));
        produce(&s, "temp", 1);
        assert_eq!(
            s.sub_take(&handle, 1, Duration::from_millis(10)),
            TakeResult::Closed
        );
    }

    /// A chaos-dropped fragment shows up as a deadline miss on exactly
    /// the affected version — never a partial or wrong delivery — and
    /// the subscriber resyncs with an ordinary get.
    #[test]
    fn dropped_push_times_out_and_resync_heals() {
        struct DropOne;
        impl FaultHooks for DropOne {
            fn on_sub_push(
                &self,
                _var: u64,
                version: u64,
                _subscriber: ClientId,
                piece: u64,
            ) -> FaultAction {
                if version == 1 && piece == 3 {
                    FaultAction::Drop
                } else {
                    FaultAction::Proceed
                }
            }
        }
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let dart = DartRuntime::with_transport(
            placement,
            Arc::new(TransferLedger::new()),
            Recorder::disabled(),
            FaultInjector::new(Arc::new(DropOne)),
            insitu_obs::FlightRecorder::disabled(),
            Arc::new(insitu_dart::LocalTransport),
        );
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 2]);
        let s = CodsSpace::new(
            dart,
            dht,
            CodsConfig {
                get_timeout: Duration::from_secs(2),
                ..Default::default()
            },
        );
        let q = BoundingBox::from_sizes(&[8, 8]);
        let handle = s.subscribe(3, 2, "temp", &q, 1, 4);
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Blocked,
        );
        for v in 0..2 {
            for r in 0..4u64 {
                let b = dec.blocked_box(r).unwrap();
                let data = layout::fill_with(&b, tagfn);
                s.put_seq(r as ClientId, 1, "temp", v, r, &b, &data)
                    .unwrap();
            }
        }
        assert!(matches!(
            s.sub_take(&handle, 0, Duration::from_secs(2)),
            TakeResult::Data(_)
        ));
        assert_eq!(
            s.sub_take(&handle, 1, Duration::from_millis(30)),
            TakeResult::TimedOut
        );
        let (healed, _) = s.get_seq(3, 2, "temp", 1, &q).unwrap();
        for p in q.iter_points() {
            assert_eq!(healed[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
        }
    }

    #[test]
    fn sub_expected_gets_gate_only_on_stride_versions() {
        let s = space();
        s.add_sub_expected_gets("vel", 2, 1);
        let vid = var_id("vel");
        // Off-stride versions have no expected consumers: released at
        // once instead of timing out the producer.
        assert!(s.wait_version_consumed("vel", 1, Duration::from_millis(5)));
        // On-stride versions wait for the subscriber's verify/resync get.
        assert!(!s.wait_version_consumed("vel", 0, Duration::from_millis(5)));
        s.apply_remote_get_done(vid, 0);
        assert!(s.wait_version_consumed("vel", 0, Duration::from_millis(5)));
        // Base expectations stack on top of subscription expectations.
        s.set_expected_gets("vel", 1);
        assert!(!s.wait_version_consumed("vel", 2, Duration::from_millis(5)));
        s.apply_remote_get_done(vid, 2);
        assert!(!s.wait_version_consumed("vel", 2, Duration::from_millis(5)));
        s.apply_remote_get_done(vid, 2);
        assert!(s.wait_version_consumed("vel", 2, Duration::from_millis(5)));
    }

    #[derive(Default)]
    struct SubRecordingMirror {
        opens: Mutex<Vec<SubSpec>>,
        cancels: Mutex<Vec<SubId>>,
        #[allow(clippy::type_complexity)]
        pushes: Mutex<Vec<(SubId, u64, u64, ClientId, ClientId, BoundingBox, Vec<u8>)>>,
        lags: Mutex<Vec<(SubId, u64, ClientId)>>,
    }

    impl SpaceMirror for SubRecordingMirror {
        fn dht_insert(&self, _var: u64, _version: u64, _entry: &LocationEntry) {}
        fn get_done(&self, _var: u64, _version: u64) {}
        fn evict(&self, _var: u64, _version: u64) {}
        fn sub_open(&self, spec: &SubSpec) {
            self.opens.lock().unwrap().push(spec.clone());
        }
        fn sub_cancel(&self, id: SubId) {
            self.cancels.lock().unwrap().push(id);
        }
        fn sub_push(
            &self,
            id: SubId,
            var: u64,
            version: u64,
            src: ClientId,
            subscriber: ClientId,
            frag: &BoundingBox,
            data: &[u8],
        ) {
            self.pushes.lock().unwrap().push((
                id,
                var,
                version,
                src,
                subscriber,
                *frag,
                data.to_vec(),
            ));
        }
        fn sub_lagged(&self, id: SubId, version: u64, subscriber: ClientId) {
            self.lags.lock().unwrap().push((id, version, subscriber));
        }
    }

    /// Producer process with a sink-less subscription replica: every
    /// fragment travels through the mirror (accounted producer-side),
    /// and the subscriber process's remote apply reassembles the exact
    /// bytes without accounting anything again.
    #[test]
    fn remote_subscriber_pushes_travel_via_mirror_and_apply_delivers() {
        let mirror = Arc::new(SubRecordingMirror::default());
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 2]);
        let prod = CodsSpace::with_mirror(
            dart,
            dht,
            CodsConfig {
                get_timeout: Duration::from_secs(2),
                ..Default::default()
            },
            Arc::clone(&mirror) as Arc<dyn SpaceMirror>,
        );
        let q = BoundingBox::from_sizes(&[8, 8]);
        let spec = SubSpec {
            vid: prod.key_of("temp"),
            region: q,
            every_k: 1,
            subscriber: 3,
        };
        prod.apply_remote_subscribe(&spec);
        produce(&prod, "temp", 0);
        let pushes = mirror.pushes.lock().unwrap().clone();
        assert_eq!(pushes.len(), 4);
        // Producer-side accounting, once per fragment: subscriber 3 is
        // on node 1, producers 0,1 are on node 0 (network) and 2,3 on
        // node 1 (shm); each fragment is 16 cells = 128 bytes.
        let snap = prod.dart().ledger().snapshot();
        assert_eq!(snap.shm_bytes(TrafficClass::InterApp), 256);
        assert_eq!(snap.network_bytes(TrafficClass::InterApp), 256);
        // Subscriber process: local sink, remote applies feed it.
        let sub = space();
        let handle = sub.subscribe_local(3, 2, "temp", &q, 1, 4);
        let before = sub.dart().ledger().snapshot();
        for (id, _var, version, _src, _subscriber, frag, data) in &pushes {
            assert!(sub.apply_remote_sub_push(*id, *version, frag, data));
        }
        assert_eq!(sub.dart().ledger().snapshot(), before);
        let got = take_data(&sub, &handle, 0);
        for p in q.iter_points() {
            assert_eq!(got[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
        }
        // Cancelling on the subscriber side broadcasts through its
        // mirror path only when one is attached; the producer replica
        // is torn down by the remote apply.
        prod.apply_remote_sub_cancel(spec.id());
        produce(&prod, "temp", 1);
        assert_eq!(mirror.pushes.lock().unwrap().len(), 4);
    }

    #[test]
    fn hostile_remote_sub_frames_are_rejected() {
        let s = space();
        // A zero stride would poison the registry's matching arithmetic:
        // ignored, not panicked.
        s.apply_remote_subscribe(&SubSpec {
            vid: 1,
            region: BoundingBox::from_sizes(&[2]),
            every_k: 0,
            subscriber: 0,
        });
        assert_eq!(s.dart().subs().active(), 0);
        // Pushes for unknown subscriptions or with ragged payloads are
        // dropped.
        let frag = BoundingBox::from_sizes(&[2]);
        assert!(!s.apply_remote_sub_push(99, 0, &frag, &[0u8; 16]));
        let handle = s.subscribe_local(0, 1, "x", &frag, 1, 4);
        assert!(!s.apply_remote_sub_push(handle.id, 0, &frag, &[0u8; 9]));
        assert!(s.apply_remote_sub_push(handle.id, 0, &frag, &encode_f64s(&[1.0, 2.0])));
    }

    /// The flight trace ties the fan-out together: each `SubPush` parents
    /// to the producing `Put`, and the subscriber's `SubDeliver` carries
    /// the subscription id in `piece`.
    #[test]
    fn flight_records_put_push_deliver_chain() {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let dart = DartRuntime::with_transport(
            placement,
            Arc::new(TransferLedger::new()),
            Recorder::disabled(),
            FaultInjector::none(),
            insitu_obs::FlightRecorder::enabled(),
            Arc::new(insitu_dart::LocalTransport),
        );
        let dht = Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 2]);
        let s = CodsSpace::new(
            dart,
            dht,
            CodsConfig {
                get_timeout: Duration::from_secs(2),
                ..Default::default()
            },
        );
        let q = BoundingBox::from_sizes(&[8, 8]);
        let handle = s.subscribe(3, 2, "temp", &q, 1, 4);
        produce(&s, "temp", 0);
        let _ = take_data(&s, &handle, 0);
        let events = s.dart().flight().snapshot();
        let puts: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Put { .. }))
            .collect();
        let pushes: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SubPush))
            .collect();
        let delivers: Vec<_> = events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::SubDeliver))
            .collect();
        assert_eq!(puts.len(), 4);
        assert_eq!(pushes.len(), 4);
        assert_eq!(delivers.len(), 1);
        for push in &pushes {
            let parent = push.parent.expect("push must parent to its put");
            assert!(puts.iter().any(|p| p.seq == parent));
            assert_eq!(push.piece, handle.id);
            assert_eq!(push.dst, Some(3));
        }
        assert_eq!(delivers[0].piece, handle.id);
        assert_eq!(delivers[0].bytes, 64 * ELEM_BYTES as u64);
    }
}
