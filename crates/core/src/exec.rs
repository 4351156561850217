//! The shared execution environment of the threaded and distributed
//! executors.
//!
//! [`run_threaded`](crate::run_threaded) and the socketized
//! [`distrib`](crate::distrib) runner execute the *same* task routine
//! against the *same* deterministically constructed state — mapping,
//! placement, ledger, HybridDART runtime, CoDS space. `ExecEnv::build`
//! is that construction, parameterized over the wire: with no transport
//! it is the single-process executor; with a wire [`Transport`] every
//! replica builds identical local state and the wire carries only what
//! crosses processes — messages, pulls and replica changes alike. That
//! replication is why a distributed run's merged ledger is
//! byte-identical to the single-process ledger: each logical transfer
//! is accounted exactly once, in the process that initiates it.

use crate::mapping::{map_scenario, MappedScenario, MappingStrategy};
use crate::scenario::Scenario;
use crate::threaded::ThreadedConfig;
use insitu_cods::{var_id, CodsConfig, CodsError, CodsSpace, Dht, FieldData, GetReport, SubHandle};
use insitu_dart::{DartRuntime, LocalTransport, Transport};
use insitu_domain::layout::RowWalk;
use insitu_domain::stencil::halo_exchanges;
use insitu_domain::{BoundingBox, Decomposition, MAX_DIMS};
use insitu_fabric::{ClientId, Placement, TrafficClass, TransferLedger};
use insitu_sfc::HilbertCurve;
use insitu_sub::{SubSpec, TakeResult};
use insitu_telemetry::Recorder;
use insitu_util::{Bytes, HugeCells, HugeSlab, Recycled, Shelf, HUGE_PAGE};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Message tag for halo-exchange payloads.
pub(crate) const TAG_HALO: u64 = 0x48414c4f; // "HALO"

/// Message tag for task-dispatch control messages (workflow server ->
/// execution client).
pub(crate) const TAG_DISPATCH: u64 = 0x44495350; // "DISP"

/// High-bit tag namespace reserved for group collectives (see
/// [`crate::comm`]); disjoint from [`TAG_HALO`] and user tags.
pub(crate) const TAG_COLLECTIVE_BASE: u64 = 0xC000_0000_0000_0000;

/// Bytes of one task-dispatch message (app id + rank).
pub(crate) const DISPATCH_BYTES: u64 = 12;

/// The `(app, rank)` payload of a dispatch message.
pub(crate) fn dispatch_payload(app: u32, rank: u64) -> Vec<u8> {
    [&app.to_ne_bytes()[..], &rank.to_ne_bytes()].concat()
}

/// Every task of `wave` as `(app, rank, client)`, in the canonical
/// dispatch order (bundle, then app, then rank) both executors use.
pub(crate) fn wave_tasks(
    scenario: &Scenario,
    mapped: &MappedScenario,
    wave: &[Vec<u32>],
) -> Vec<(u32, u64, ClientId)> {
    let mut tasks = Vec::new();
    for bundle in wave {
        for &app_id in bundle {
            let ntasks = scenario.workflow.app(app_id).unwrap().ntasks as u64;
            for rank in 0..ntasks {
                tasks.push((app_id, rank, mapped.core_of_task(app_id, rank)));
            }
        }
    }
    tasks
}

/// The deterministic synthetic field: every `(variable, version, point)`
/// has one correct value, so consumers can verify redistribution exactly.
pub fn field_value(var: u64, version: u64, p: &[u64]) -> f64 {
    let seed = field_seed(var, version);
    field_unit(p.iter().fold(seed, |h, &c| field_mix(h, c)))
}

fn field_seed(var: u64, version: u64) -> u64 {
    var ^ version.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[inline]
fn field_mix(h: u64, c: u64) -> u64 {
    (h ^ c.wrapping_add(0x5851_F42D)).wrapping_mul(0x1000_0000_01b3)
}

#[inline]
fn field_unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// Hand `row` [`field_value`]'s hash state after the leading
/// coordinates of each row (run along the last dimension) of `bbox`, in
/// row-major order; the row kernels below finish it with one
/// [`field_mix`] per cell. One partial state per leading dimension: a
/// row re-mixes only the coordinates from the outermost one that moved.
/// The rows are walked here, not through an iterator, so the whole loop
/// nest inlines into each kernel instance.
#[inline(always)]
fn for_each_row_seed(var: u64, version: u64, bbox: &BoundingBox, mut row: impl FnMut(u64)) {
    let (last, lb) = (bbox.ndim() - 1, bbox.lower());
    let mut rows = RowWalk::new(bbox, last);
    let mut partial = [field_seed(var, version); MAX_DIMS];
    while let Some(moved) = rows.next() {
        for dim in moved..last {
            partial[dim + 1] = field_mix(partial[dim], lb[dim] + rows.pos(dim));
        }
        row(partial[last]);
    }
}

/// The dense row-major array of `bbox` holding [`field_value`] at every
/// cell, bit for bit, generated a row at a time into a fresh buffer born
/// on huge pages ([`fill_piece`] fills a producer's staged cells).
pub fn fill_field(var: u64, version: u64, bbox: &BoundingBox) -> Vec<f64> {
    let mut out = Recycled::with_capacity(bbox.num_cells() as usize, None).into_vec();
    fill_rows(&mut out, var, version, bbox);
    out
}

/// The cells a producer stages for `bbox`: [`fill_field`]'s cells, bit
/// for bit, filled straight into the next range of `slab` (its
/// sequential staging, [`staging_slab`]), or without one into a buffer
/// from `shelf`, its run's, which takes it back when the staged piece
/// drops.
///
/// # Panics
/// Panics if `slab` has no room left for `bbox`.
pub fn fill_piece(
    var: u64,
    version: u64,
    bbox: &BoundingBox,
    slab: Option<&mut HugeSlab>,
    shelf: &Shelf<f64>,
) -> FieldData {
    let cells = bbox.num_cells() as usize;
    let Some(slab) = slab else {
        let mut out = Recycled::with_capacity(cells, Some(shelf));
        fill_rows(&mut *out, var, version, bbox);
        return FieldData::Owned(out);
    };
    let mut out = slab.carve(cells);
    fill_rows(&mut out, var, version, bbox);
    out.into()
}

/// Where producer `rank`'s pieces of a sequential coupling of `var` are
/// born: one [`HugeSlab`] with room for every one of `pieces` in each of
/// `versions` versions, which [`fill_piece`] carves in put order, so the
/// tail of one piece and the head of the next share a huge page. The
/// pieces stay staged until their consumer bundle runs, and the slab is
/// freed when the last of them drops. `None` when that room holds no
/// whole huge page: those pieces are born from the run's shelf, which
/// hands them back warm.
///
/// # Errors
/// [`CodsError::StagingReserve`] when the size overflows or the
/// allocator refuses it, before the coupling's first put.
pub fn staging_slab(
    var: &str,
    rank: u64,
    pieces: &[BoundingBox],
    versions: u64,
) -> Result<Option<HugeSlab>, CodsError> {
    let cells = pieces
        .iter()
        .try_fold(0u128, |sum, p| sum.checked_add(p.num_cells()))
        .and_then(|sum| sum.checked_mul(u128::from(versions)));
    let bytes = cells.and_then(|c| c.checked_mul(std::mem::size_of::<f64>() as u128));
    if bytes.is_some_and(|b| b < HUGE_PAGE as u128) {
        return Ok(None);
    }
    let slab = cells
        .and_then(|c| usize::try_from(c).ok())
        .and_then(HugeSlab::reserve);
    slab.map(Some).ok_or_else(|| CodsError::StagingReserve {
        var: var.to_string(),
        rank,
        bytes: bytes.unwrap_or(u128::MAX),
    })
}

/// Append [`field_value`] at every cell of `bbox` to `out`, in row-major
/// order: the one row kernel behind [`fill_field`] and [`fill_piece`],
/// run on the host's widest vectors (see [`wide_vectors`]).
fn fill_rows(out: &mut impl CellRows, var: u64, version: u64, bbox: &BoundingBox) {
    #[cfg(target_arch = "x86_64")]
    if wide_vectors() {
        // SAFETY: `wide_vectors` detected every feature the instance
        // enables.
        return unsafe { fill_rows_avx512(out, var, version, bbox) };
    }
    fill_rows_body(out, var, version, bbox)
}

/// [`fill_rows_body`] compiled for AVX-512. A named function, not a
/// closure handed to a feature-enabled trampoline: only a body inlined
/// into the function that enables the features is compiled with them.
///
/// # Safety
/// The host must have AVX-512 F, DQ and VL ([`wide_vectors`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn fill_rows_avx512(out: &mut impl CellRows, var: u64, version: u64, bbox: &BoundingBox) {
    fill_rows_body(out, var, version, bbox)
}

#[inline(always)]
fn fill_rows_body(out: &mut impl CellRows, var: u64, version: u64, bbox: &BoundingBox) {
    let last = bbox.ndim() - 1;
    let (lb, n) = (bbox.lb(last), bbox.extent(last) as usize);
    for_each_row_seed(var, version, bbox, |seed| {
        out.push_row(n, |i| field_unit(field_mix(seed, lb + i as u64)));
    });
}

/// A destination [`fill_rows`] appends a whole row to at once, so the
/// loop that writes the row checks the room once, not per cell.
trait CellRows {
    fn push_row(&mut self, n: usize, cell: impl FnMut(usize) -> f64);
}

impl CellRows for Vec<f64> {
    #[inline(always)]
    fn push_row(&mut self, n: usize, cell: impl FnMut(usize) -> f64) {
        self.extend((0..n).map(cell));
    }
}

impl CellRows for HugeCells {
    #[inline(always)]
    fn push_row(&mut self, n: usize, cell: impl FnMut(usize) -> f64) {
        self.extend_row(n, cell);
    }
}

/// Compare every cell of `data` (the dense array of `bbox`) for exact
/// equality with [`field_value`]; returns the number of cells that differ.
/// Like [`fill_field`], it runs on the host's widest vectors.
///
/// # Panics
/// Panics if `data` is not `bbox.num_cells()` long.
pub fn verify_field(var: u64, version: u64, bbox: &BoundingBox, data: &[f64]) -> u64 {
    assert_eq!(data.len() as u128, bbox.num_cells(), "data length mismatch");
    #[cfg(target_arch = "x86_64")]
    if wide_vectors() {
        // SAFETY: `wide_vectors` detected every feature the instance
        // enables.
        return unsafe { verify_rows_avx512(var, version, bbox, data) };
    }
    verify_rows_body(var, version, bbox, data)
}

/// [`verify_rows_body`] compiled for AVX-512 (see [`fill_rows_avx512`]).
///
/// # Safety
/// The host must have AVX-512 F, DQ and VL ([`wide_vectors`]).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
unsafe fn verify_rows_avx512(var: u64, version: u64, bbox: &BoundingBox, data: &[f64]) -> u64 {
    verify_rows_body(var, version, bbox, data)
}

#[inline(always)]
fn verify_rows_body(var: u64, version: u64, bbox: &BoundingBox, data: &[f64]) -> u64 {
    let last = bbox.ndim() - 1;
    let (lb, n) = (bbox.lb(last), bbox.extent(last) as usize);
    let mut rows = data.chunks_exact(n);
    let mut differ = 0;
    for_each_row_seed(var, version, bbox, |seed| {
        let row = rows.next().expect("one row of data per row of the box");
        for (i, &got) in row.iter().enumerate() {
            differ += u64::from(got != field_unit(field_mix(seed, lb + i as u64)));
        }
    });
    differ
}

/// Whether the row kernels run their AVX-512 instance: the x86-64
/// baseline has no packed 64-bit multiply and no `u64` → `f64`
/// convert, so its rows run a cell at a time, while AVX-512 F/DQ/VL
/// run eight. Both instances compute [`field_value`] bit for bit
/// (integer hashing, then one exactly rounded convert and divide).
/// Detection is cached by the standard library, so asking per call is
/// one load.
#[cfg(target_arch = "x86_64")]
fn wide_vectors() -> bool {
    is_x86_feature_detected!("avx512f")
        && is_x86_feature_detected!("avx512dq")
        && is_x86_feature_detected!("avx512vl")
}

pub(crate) fn curve_for(domain: &BoundingBox) -> HilbertCurve {
    let max_extent = (0..domain.ndim()).map(|d| domain.extent(d)).max().unwrap();
    let order = 64 - (max_extent - 1).leading_zeros();
    HilbertCurve::new(domain.ndim(), order.max(1))
}

/// One locally hosted subscription piece: the standing query covering
/// the intersection of a subscriber rank's region with the subscribed
/// region, plus the index of the [`crate::scenario::SubscriptionSpec`]
/// it compiles from.
pub(crate) struct SubPiece {
    pub spec_idx: usize,
    pub handle: SubHandle,
}

/// Deterministically constructed per-process execution state. In a
/// distributed run every process builds one of these from the same
/// `(scenario, strategy, config)` and they agree field for field.
pub(crate) struct ExecEnv {
    pub scenario: Scenario,
    pub mapped: MappedScenario,
    pub dart: Arc<DartRuntime>,
    pub space: Arc<CodsSpace>,
    pub ledger: Arc<TransferLedger>,
    pub reports: Mutex<Vec<(u32, u64, GetReport)>>,
    pub failures: AtomicU64,
    pub errors: Mutex<Vec<(u32, u64, CodsError)>>,
    pub get_timeout: Duration,
    /// Locally hosted subscription handles, keyed by subscriber task.
    pub subs: HashMap<(u32, u64), Vec<SubPiece>>,
}

impl ExecEnv {
    /// Map the scenario and build the full execution substrate. `wire`
    /// plugs in the network transport for multi-process runs — the
    /// runtime carries it, and the space reaches the other replicas
    /// through the runtime; `None` is the single-process executor.
    pub fn build(
        scenario: &Scenario,
        strategy: MappingStrategy,
        recorder: &Recorder,
        cfg: &ThreadedConfig,
        wire: Option<Arc<dyn Transport>>,
    ) -> ExecEnv {
        assert_eq!(scenario.elem_bytes, 8, "threaded mode stores f64 fields");
        let mapped = recorder
            .histogram("workflow.map_us")
            .time(|| map_scenario(scenario, strategy));
        let machine = mapped.machine;
        let placement = Arc::new(Placement::pack_sequential(machine, machine.total_cores()));
        let ledger = Arc::new(TransferLedger::with_observer(
            recorder,
            cfg.injector.clone(),
        ));
        let dart = DartRuntime::with_transport(
            placement,
            Arc::clone(&ledger),
            recorder.clone(),
            cfg.injector.clone(),
            cfg.flight.clone(),
            wire.unwrap_or_else(|| Arc::new(LocalTransport)),
        );
        let domain = *scenario
            .workflow
            .apps
            .iter()
            .find_map(|a| a.decomposition.as_ref())
            .expect("no decomposition in workflow")
            .domain();
        let dht_clients: Vec<ClientId> = (0..machine.nodes).map(|n| machine.core(n, 0)).collect();
        let dht = Dht::new(Box::new(curve_for(&domain)), dht_clients);
        let cods_cfg = CodsConfig {
            get_timeout: cfg.get_timeout,
            // Jaguar XT5 nodes carry 16 GB; staged coupling data must fit.
            staging_limit_per_node: Some(16 << 30),
        };
        let space = CodsSpace::new(Arc::clone(&dart), dht, cods_cfg);

        let scenario = scenario.clone();
        // Declare consumption expectations so producers can reclaim old
        // versions: one completed get per consumer piece per version.
        // Deterministic from the scenario, so every replica agrees.
        for coupling in &scenario.couplings {
            let coupled_region = coupling
                .region
                .unwrap_or(*scenario.decomposition(coupling.producer_app).domain());
            let mut gets = 0u64;
            for &capp in &coupling.consumer_apps {
                let cdec = scenario.decomposition(capp);
                for r in 0..cdec.num_ranks() {
                    gets += cdec
                        .rank_region(r)
                        .into_iter()
                        .filter(|p| p.intersect(&coupled_region).is_some())
                        .count() as u64;
                }
            }
            space.set_expected_gets(&coupling.var, gets);
        }

        // Standing queries: every process registers every subscription
        // (so producers anywhere can fan out pushes with the right
        // subscriber address), but a sink is attached only where the
        // transport hosts the subscriber client — remote subscribers stay
        // registry-only entries whose producer pieces travel the wire.
        // A sink learns the box of every piece it expects, so a pushed
        // copy that lands with only its key can feed it. Each piece
        // also owes one resync `get` per on-stride version, which keeps
        // producer-side reclaim accounting deterministic.
        let mut subs: HashMap<(u32, u64), Vec<SubPiece>> = HashMap::new();
        for (si, sub) in scenario.subscriptions.iter().enumerate() {
            let sdec = scenario.decomposition(sub.subscriber_app);
            let pdec = scenario.decomposition(sub.producer_app);
            let region = sub.region.unwrap_or(*pdec.domain());
            // Every piece the producer puts, as (owner, piece, box).
            let sources: Vec<(ClientId, u64, BoundingBox)> = (0..pdec.num_ranks())
                .flat_map(|rank| {
                    let owner = mapped.core_of_task(sub.producer_app, rank);
                    let pieces = pdec.rank_region(rank).into_iter().enumerate();
                    pieces.map(move |(pi, b)| (owner, pi as u64, b))
                })
                .collect();
            let mut pieces = 0u64;
            for rank in 0..sdec.num_ranks() {
                let client = mapped.core_of_task(sub.subscriber_app, rank);
                for piece in sdec
                    .rank_region(rank)
                    .into_iter()
                    .filter_map(|p| p.intersect(&region))
                {
                    pieces += 1;
                    if dart.wire().hosts(client) {
                        let handle = space.subscribe(
                            client,
                            sub.subscriber_app,
                            &sub.var,
                            &piece,
                            sub.every_k,
                            sub.queue_cap,
                        );
                        for (owner, pi, b) in &sources {
                            handle.expect_piece(*owner, *pi, b);
                        }
                        subs.entry((sub.subscriber_app, rank))
                            .or_default()
                            .push(SubPiece {
                                spec_idx: si,
                                handle,
                            });
                    } else {
                        space.apply_remote_subscribe(&SubSpec {
                            vid: var_id(&sub.var),
                            region: piece,
                            every_k: sub.every_k,
                            subscriber: client,
                        });
                    }
                }
            }
            space.add_sub_expected_gets(&sub.var, sub.every_k, pieces);
        }

        ExecEnv {
            scenario,
            mapped,
            dart,
            space,
            ledger,
            reports: Mutex::new(Vec::new()),
            failures: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
            get_timeout: cfg.get_timeout,
            subs,
        }
    }

    /// Run the given tasks on real threads (one per task, 512 KiB
    /// stacks) and join them; a task's panic propagates. Each task's
    /// dispatch message must already sit in its client's mailbox. The
    /// wave's transient pieces and assemblies go back warm to the run's
    /// cell shelf (`DartRuntime::cells`), which is emptied when the wave
    /// ends.
    pub(crate) fn run_tasks(&self, tasks: &[(u32, u64)]) {
        let task_us = &self.dart.recorder().histogram("exec.task_us");
        std::thread::scope(|scope| {
            for &(app, rank) in tasks {
                let client = self.mapped.core_of_task(app, rank);
                let ctx = TaskCtx {
                    env: self,
                    app,
                    rank,
                    client,
                };
                std::thread::Builder::new()
                    .name(format!("app{app}-r{rank}"))
                    .stack_size(512 * 1024)
                    .spawn_scoped(scope, move || task_us.time(|| task_routine(ctx)))
                    .expect("thread spawn failed");
            }
        });
        self.dart.cells().clear();
    }

    /// Task errors sorted so the outcome is a pure function of
    /// scenario + faults (threads report in scheduling order).
    pub(crate) fn sorted_errors(&self) -> Vec<(u32, u64, CodsError)> {
        let mut errors = self.errors.lock().unwrap().clone();
        errors.sort_by(|a, b| {
            (a.0, a.1, format!("{:?}", a.2)).cmp(&(b.0, b.1, format!("{:?}", b.2)))
        });
        errors
    }

    /// Consume the environment into a [`ThreadedOutcome`] once every
    /// task thread has joined.
    pub(crate) fn into_outcome(
        self,
        strategy: MappingStrategy,
    ) -> crate::threaded::ThreadedOutcome {
        let errors = self.sorted_errors();
        let reports = self.reports.into_inner().unwrap();
        let staged_buffers = self.dart.registry().len() as u64;
        crate::threaded::ThreadedOutcome {
            strategy,
            ledger: self.ledger.snapshot(),
            reports,
            verify_failures: self.failures.load(Ordering::Relaxed),
            errors,
            staged_buffers,
            mapped: self.mapped,
        }
    }
}

/// One task's identity, the execution client (core) it is mapped to and
/// the environment it runs in.
struct TaskCtx<'a> {
    env: &'a ExecEnv,
    app: u32,
    rank: u64,
    client: ClientId,
}

/// A producer's decomposition and the clients of its ranks.
type Direct<'a> = (&'a Decomposition, &'a [ClientId]);

impl TaskCtx<'_> {
    /// Record an operator error; the task abandons the failed coupling
    /// but keeps running (halo exchange in particular must complete so
    /// peers do not block forever on their mailboxes).
    fn note_error(&self, e: CodsError) {
        let mut errors = self.env.errors.lock().unwrap();
        errors.push((self.app, self.rank, e));
    }

    /// What a direct (`get_cont`) read of `producer_app`'s data needs: its
    /// decomposition and the clients of its ranks. `None` for a
    /// sequential coupling, which asks the DHT instead.
    fn direct(&self, producer_app: u32, concurrent: bool) -> Option<Direct<'_>> {
        let pdec = self.env.scenario.decomposition(producer_app);
        concurrent.then(|| (pdec, &self.env.mapped.app_cores[&producer_app][..]))
    }

    /// One get of `piece` by the coupling's mode, every retrieved cell
    /// verified against the field function and the report filed. `None`
    /// means the get failed and the error is noted.
    fn get_verified(
        &self,
        var: &str,
        direct: Option<Direct>,
        version: u64,
        piece: &BoundingBox,
    ) -> Option<FieldData> {
        let (env, app, client) = (self.env, self.app, self.client);
        let res = match direct {
            Some((pdec, producers)) => env
                .space
                .get_cont(client, app, var, version, piece, pdec, producers),
            None => env.space.get_seq(client, app, var, version, piece),
        };
        let (data, report) = res.map_err(|e| self.note_error(e)).ok()?;
        let bad = verify_field(var_id(var), version, piece, &data);
        if bad > 0 {
            env.failures.fetch_add(bad, Ordering::Relaxed);
        }
        let mut reports = env.reports.lock().unwrap();
        reports.push((app, self.rank, report));
        Some(data)
    }
}

/// The statically linked "application subroutine" every execution client
/// runs: produce and/or consume coupled data, then do one stencil
/// exchange round. Identical in single-process and distributed runs.
fn task_routine(ctx: TaskCtx) {
    let (env, client) = (ctx.env, ctx.client);
    let mailbox = env.dart.take_mailbox(client);

    // First message is always this client's task assignment from the
    // workflow server (enqueued before the thread was spawned).
    let dispatch = mailbox.recv();
    assert_eq!(dispatch.tag, TAG_DISPATCH, "expected dispatch first");
    assert_eq!(
        dispatch.payload[..],
        dispatch_payload(ctx.app, ctx.rank)[..],
        "dispatched another task's assignment"
    );

    let dec = env.scenario.decomposition(ctx.app);

    // Producer role: one put sequence per iteration (version). For
    // concurrent couplings every rank holds version v+1 back until every
    // consumer get of v-1 has completed, so staging carries two versions
    // — the in-memory window a long-running simulation needs. A
    // sequential coupling stages all of its versions, born in one slab
    // reserved up front; a failed reservation fails the coupling as a
    // failed first put would.
    'producer: for coupling in &env.scenario.couplings {
        if coupling.producer_app != ctx.app {
            continue;
        }
        let var = coupling.var.as_str();
        let vid = var_id(var);
        let put = if coupling.concurrent {
            CodsSpace::put_cont
        } else {
            CodsSpace::put_seq
        };
        let pieces = dec.rank_region(ctx.rank);
        let reserved = if coupling.concurrent {
            Ok(None)
        } else {
            staging_slab(var, ctx.rank, &pieces, env.scenario.iterations)
        };
        let Ok(mut slab) = reserved.map_err(|e| ctx.note_error(e)) else {
            continue 'producer;
        };
        for version in 0..env.scenario.iterations {
            for (pi, piece) in pieces.iter().enumerate() {
                let data = fill_piece(vid, version, piece, slab.as_mut(), env.dart.cells());
                let res = put(
                    &env.space, client, ctx.app, var, version, pi as u64, piece, data,
                );
                if let Err(e) = res {
                    // Abandon this coupling; other couplings and the halo
                    // round still run so peers are not deadlocked.
                    ctx.note_error(e);
                    continue 'producer;
                }
            }
            // Reclaim the previous version once fully consumed (rank 0
            // evicts on behalf of the group; a timed-out wait leaves it
            // staged and moves on).
            if coupling.concurrent
                && version > 0
                && env
                    .space
                    .wait_version_consumed(var, version - 1, env.get_timeout)
                && ctx.rank == 0
            {
                env.space.evict_version(var, version - 1);
            }
        }
    }

    // Consumer role: retrieve and verify every iteration's version.
    for coupling in &env.scenario.couplings {
        if !coupling.consumer_apps.contains(&ctx.app) {
            continue;
        }
        let producer = coupling.producer_app;
        let coupled_region = coupling
            .region
            .unwrap_or(*env.scenario.decomposition(producer).domain());
        // Interface-region coupling: each task retrieves only the part of
        // its owned set inside the coupled region.
        let pieces: Vec<_> = dec
            .rank_region(ctx.rank)
            .into_iter()
            .filter_map(|p| p.intersect(&coupled_region))
            .collect();
        let direct = ctx.direct(producer, coupling.concurrent);
        // A failed get abandons this coupling's remaining versions; the
        // task still completes its other roles.
        'versions: for version in 0..env.scenario.iterations {
            for piece in &pieces {
                if ctx
                    .get_verified(&coupling.var, direct, version, piece)
                    .is_none()
                {
                    break 'versions;
                }
            }
        }
    }

    // Subscriber role: drain standing-query pushes. Every on-stride
    // version is first taken from the push sink, then re-read with an
    // ordinary get: on `Data` the get is the byte-identity check, on
    // `Lagged`/`TimedOut` it *is* the resync heal — either way exactly
    // one get per piece per on-stride version, matching the consumption
    // expectations declared at build time so producers can reclaim.
    for st in env.subs.get(&(ctx.app, ctx.rank)).into_iter().flatten() {
        let sub = &env.scenario.subscriptions[st.spec_idx];
        let concurrent = env
            .scenario
            .coupling_of_subscription(sub)
            .is_some_and(|c| c.concurrent);
        let direct = ctx.direct(sub.producer_app, concurrent);
        let piece = st.handle.spec.region;
        for version in (0..env.scenario.iterations).filter(|v| v % sub.every_k == 0) {
            let taken = env.space.sub_take(&st.handle, version, env.get_timeout);
            let Some(data) = ctx.get_verified(&sub.var, direct, version, &piece) else {
                break;
            };
            if let TakeResult::Data(pushed) = taken {
                // The push plane must agree with the pull plane bit for
                // bit; any divergence is a verification failure.
                let mismatch = pushed.len() != data.len()
                    || pushed
                        .iter()
                        .zip(data.iter())
                        .any(|(a, b)| a.to_bits() != b.to_bits());
                if mismatch {
                    env.failures.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    // One intra-application near-neighbor exchange round per iteration;
    // each exchange's payload is built once and shared by every send.
    let sends: Vec<(ClientId, Bytes)> = halo_exchanges(dec, env.scenario.halo)
        .iter()
        .filter_map(|ex| {
            let peer_rank = if ex.rank_a == ctx.rank {
                ex.rank_b
            } else if ex.rank_b == ctx.rank {
                ex.rank_a
            } else {
                return None;
            };
            let bytes = ex.cells as usize * env.scenario.elem_bytes as usize;
            let peer_client = env.mapped.core_of_task(ctx.app, peer_rank);
            Some((peer_client, Bytes::from(vec![0u8; bytes])))
        })
        .collect();
    for _ in 0..env.scenario.iterations {
        for (peer_client, payload) in &sends {
            env.dart.send(
                ctx.app,
                TrafficClass::IntraApp,
                client,
                *peer_client,
                TAG_HALO,
                payload.clone(),
            );
        }
        for _ in &sends {
            let msg = mailbox.recv();
            debug_assert_eq!(msg.tag, TAG_HALO);
        }
    }

    env.dart.return_mailbox(client, mailbox);
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_util::check::forall;

    /// The instance [`fill_rows`] and [`verify_field`] dispatch to here.
    fn instance() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if wide_vectors() {
            return "avx512";
        }
        "portable"
    }

    /// A random 1–4-D box whose last extent runs 1–33, so rows end on
    /// every possible vector tail, and whose leading extents run 1–6, so
    /// a row's carry chains through up to three leading dims, extent-1
    /// dims among them.
    fn arb_row_box(rng: &mut insitu_util::SplitMix64) -> BoundingBox {
        let nd = rng.range_usize(1, 5);
        let lb: Vec<u64> = (0..nd).map(|_| rng.range_u64(0, 1 << 40)).collect();
        let mut ub: Vec<u64> = lb.iter().map(|&l| l + rng.range_u64(0, 6)).collect();
        ub[nd - 1] = lb[nd - 1] + rng.range_u64(0, 33);
        BoundingBox::new(&lb, &ub)
    }

    fn bits(cells: &[f64]) -> Vec<u64> {
        cells.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn the_field_kernel_instance_is_named() {
        println!("field kernel: {}", instance());
    }

    #[test]
    fn both_kernel_instances_fill_field_value_on_every_vector_tail() {
        forall(400, |rng| {
            let b = arb_row_box(rng);
            let (var, version) = (rng.next_u64(), rng.range_u64(0, 50));
            let cells = b.num_cells() as usize;
            let want: Vec<u64> = b
                .iter_points()
                .map(|p| field_value(var, version, &p[..b.ndim()]).to_bits())
                .collect();

            let (mut portable, mut dispatched) = (Vec::new(), Vec::new());
            fill_rows_body(&mut portable, var, version, &b);
            fill_rows(&mut dispatched, var, version, &b);
            assert_eq!(bits(&portable), want, "portable Vec, box {b:?}");
            assert_eq!(bits(&dispatched), want, "{} Vec, box {b:?}", instance());

            let mut slab = HugeSlab::reserve(2 * cells).unwrap();
            let (mut portable, mut dispatched) = (slab.carve(cells), slab.carve(cells));
            fill_rows_body(&mut portable, var, version, &b);
            fill_rows(&mut dispatched, var, version, &b);
            assert_eq!(bits(&portable), want, "portable HugeCells, box {b:?}");
            assert_eq!(
                bits(&dispatched),
                want,
                "{} HugeCells, box {b:?}",
                instance()
            );
        });
    }

    #[test]
    fn both_kernel_instances_count_exactly_the_corrupted_cells() {
        forall(400, |rng| {
            let b = arb_row_box(rng);
            let (var, version) = (rng.next_u64(), rng.range_u64(0, 50));
            let mut data = fill_field(var, version, &b);
            let count = |data: &[f64]| {
                let portable = verify_rows_body(var, version, &b, data);
                assert_eq!(
                    verify_field(var, version, &b, data),
                    portable,
                    "{}",
                    instance()
                );
                portable
            };
            assert_eq!(count(&data), 0, "box {b:?}");
            assert_eq!(
                verify_rows_body(var ^ 1, version, &b, &data),
                verify_field(var ^ 1, version, &b, &data)
            );

            // A NaN, a one-ulp change and a few random bit flips; a cell
            // hit twice is corrupted once.
            let cells = data.len();
            let mut hit: Vec<usize> = (0..rng.range_usize(0, 5))
                .map(|_| rng.range_usize(0, cells))
                .collect();
            let (nan, ulp) = (rng.range_usize(0, cells), rng.range_usize(0, cells));
            hit.extend([nan, ulp]);
            hit.sort_unstable();
            hit.dedup();
            for &i in &hit {
                data[i] = f64::from_bits(data[i].to_bits() ^ (1 << rng.range_u64(0, 63)));
            }
            data[ulp] = f64::from_bits(field_value_at(&b, var, version, ulp).to_bits() + 1);
            data[nan] = f64::NAN;
            assert_eq!(count(&data), hit.len() as u64, "box {b:?}, hit {hit:?}");
        });
    }

    #[test]
    fn a_staging_reservation_that_cannot_be_made_is_a_named_error() {
        // One x-slab of `coupled3` at n = 96: 1 769 472 bytes a version.
        let slab = BoundingBox::from_sizes(&[24, 96, 96]);
        let reserve = |versions| staging_slab("pressure", 3, &[slab], versions);
        let refused = |bytes| CodsError::StagingReserve {
            var: "pressure".into(),
            rank: 3,
            bytes,
        };
        // K x cells overflows the address space: refused by name before
        // anything is allocated.
        let err = reserve(u64::MAX).err().unwrap();
        assert_eq!(err, refused(1_769_472 * u128::from(u64::MAX)));
        let msg = err.to_string();
        assert!(
            msg.contains("\"pressure\"") && msg.contains("rank 3"),
            "{msg}"
        );
        // 2^27 versions, 216 TiB, fits a `usize` but no address space:
        // the allocator refuses it.
        assert_eq!(reserve(1 << 27).err(), Some(refused(1_769_472 << 27)));
        // Bytes past `u128` are named as its saturated maximum.
        let vast = BoundingBox::from_sizes(&[1 << 63, 1 << 63]);
        assert_eq!(
            staging_slab("pressure", 3, &[vast, vast], 4).err(),
            Some(refused(u128::MAX))
        );
        // Under a whole huge page no slab is made; one version more is.
        assert!(reserve(0).unwrap().is_none());
        assert!(reserve(1).unwrap().is_none());
        assert!(reserve(2).unwrap().is_some());
    }

    /// [`field_value`] of the `i`-th cell of `b` in row-major order.
    fn field_value_at(b: &BoundingBox, var: u64, version: u64, i: usize) -> f64 {
        let p = b.iter_points().nth(i).unwrap();
        field_value(var, version, &p[..b.ndim()])
    }
}
