//! Layer probes: every call the traced pass makes into a program crate
//! to time one layer lives in this file, so the list of functions later
//! refactors must keep (or follow with a benchmark change) is one
//! `use` block long. `benchmark/README.md` repeats it.
//!
//! Each probe replays the workload's [`Census`] single-threaded through
//! one layer's public function, wrapping every call in a [`Tracer`]
//! span, and returns the layer's numbers. Bytes moved are computed from
//! box sizes (they ignore cache misses); times are measured.

use crate::census::{box_bytes, Census};
use crate::span::Tracer;
use crate::stats::median;
use crate::workloads::Compiled;
use insitu::{field_value, map_scenario, MappedScenario, MappingStrategy, Scenario};
use insitu_cods::{
    schedule_from_decomposition, schedule_from_entries, var_id, CodsConfig, CodsSpace, Dht,
    LocationEntry, ScheduleCache,
};
use insitu_dart::{BufKey, BufferRegistry, DartRuntime};
use insitu_domain::layout::{copy_region, fill_with};
use insitu_domain::BoundingBox;
use insitu_fabric::{FaultInjector, Locality, Placement, TrafficClass, TransferLedger};
use insitu_net::{recv_frame, send_frame, ConnEvent, Frame, FrameDecoder, NetMetrics, Reactor};
use insitu_obs::{Event, EventKind, FlightRecorder};
use insitu_sfc::{spans_of_box, HilbertCurve};
use insitu_sub::{SubRegistry, SubSpec};
use insitu_telemetry::Recorder;
use insitu_util::shm::{self, PushError, RecordDesc, Ring, RingMem, ShmMap};
use insitu_util::{Bytes, Poller};
use insitu_workflow::{build_inter_app_graph_region, compile_workflow};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Wall-clock each probe may spend repeating its replay.
const PROBE_BUDGET: Duration = Duration::from_millis(250);

/// Descriptor slots and arena bytes of one directed shm pair, as
/// `insitu_net::link` sizes them (its constants are private).
const SHM_SLOTS: u32 = 256;
const SHM_ARENA: u64 = 4 << 20;

const GIB: f64 = (1u64 << 30) as f64;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Repeat `pass` (one replayed iteration) until the probe budget is
/// spent, at least twice; the first pass warms caches and is not
/// counted. Spans are recorded for the warm-up and the first counted
/// pass; later passes are only timed. Returns the counted passes and
/// their total time.
fn replay(tracer: &mut Tracer, mut pass: impl FnMut(&mut Tracer)) -> (u64, Duration) {
    tracer.set_run(0);
    pass(tracer);
    let t0 = Instant::now();
    let mut passes = 0u64;
    while passes < 1 || t0.elapsed() < PROBE_BUDGET {
        tracer.set_run(passes + 1);
        tracer.set_recording(passes == 0);
        pass(tracer);
        passes += 1;
    }
    tracer.set_recording(true);
    (passes, t0.elapsed())
}

// ---------------------------------------------------------------- domain

/// `domain.*` and the plain single-copy baseline.
#[derive(Default)]
pub struct CopyProbe {
    /// `copy_region` calls of one iteration.
    pub calls_per_iter: f64,
    /// Bytes they move (computed from box sizes).
    pub bytes_per_iter: f64,
    /// Time one iteration's calls take.
    pub busy_ms_per_iter: f64,
    /// Achieved strided-copy rate.
    pub gib_s: f64,
    /// `copy_from_slice` of the same byte counts, same run.
    pub memcpy_gib_s: f64,
    /// One thread assembling every consumer region with row copies.
    pub baseline_ms_per_iter: f64,
}

/// Copy `region` from `src` (dense over `src_box`) to `dst` (dense over
/// `dst_box`) row by row: the plain baseline, no program code.
fn copy_rows(
    src: &[f64],
    src_box: &BoundingBox,
    dst: &mut [f64],
    dst_box: &BoundingBox,
    region: &BoundingBox,
) {
    let nd = region.ndim();
    let row = region.extent(nd - 1) as usize;
    let offset = |b: &BoundingBox, p: &[u64]| -> usize {
        (0..nd).fold(0u64, |i, d| i * b.extent(d) + (p[d] - b.lb(d))) as usize
    };
    let mut p: Vec<u64> = (0..nd).map(|d| region.lb(d)).collect();
    loop {
        let (s, d) = (offset(src_box, &p), offset(dst_box, &p));
        dst[d..d + row].copy_from_slice(&src[s..s + row]);
        // Advance the odometer over every dimension but the last.
        let mut dim = nd - 1;
        loop {
            if dim == 0 {
                return;
            }
            dim -= 1;
            if p[dim] < region.ub(dim) {
                p[dim] += 1;
                break;
            }
            p[dim] = region.lb(dim);
        }
    }
}

/// One strided copy of the census: source piece, destination box, region.
struct CopyOp {
    src: usize,
    src_box: BoundingBox,
    dst: usize,
    dst_box: BoundingBox,
    region: BoundingBox,
}

/// Replay every get's transfers (piece → consumer array) and every push
/// fragment (piece → fragment) through `copy_region`.
pub fn copy_probe(census: &Census, tracer: &mut Tracer) -> CopyProbe {
    // One source array per producer piece, one destination per get/push.
    let mut sources: Vec<Vec<f64>> = Vec::new();
    let mut source_of: BTreeMap<(String, u32, u64), usize> = BTreeMap::new();
    for p in &census.pieces {
        source_of.insert((p.var.clone(), p.client, p.piece), sources.len());
        sources.push(vec![1.0; p.bbox.num_cells() as usize]);
    }
    let mut dests: Vec<Vec<f64>> = Vec::new();
    let mut ops: Vec<CopyOp> = Vec::new();
    for g in &census.gets {
        for o in &g.ops {
            ops.push(CopyOp {
                src: source_of[&(g.var.clone(), o.src_client, o.piece)],
                src_box: o.piece_box,
                dst: dests.len(),
                dst_box: g.query,
                region: o.region,
            });
        }
        dests.push(vec![0.0; g.query.num_cells() as usize]);
    }
    for p in &census.pushes {
        let piece = census
            .pieces
            .iter()
            .find(|q| q.var == p.var && q.client == p.src && q.bbox == p.piece_box)
            .expect("push cut from a census piece");
        ops.push(CopyOp {
            src: source_of[&(p.var.clone(), piece.client, piece.piece)],
            src_box: p.piece_box,
            dst: dests.len(),
            dst_box: p.fragment,
            region: p.fragment,
        });
        dests.push(vec![0.0; p.fragment.num_cells() as usize]);
    }
    if ops.is_empty() {
        return CopyProbe::default();
    }
    let bytes: u64 = ops.iter().map(|o| box_bytes(&o.region)).sum();

    let (passes, took) = replay(tracer, |t| {
        for o in &ops {
            t.span("domain.copy_region", |_| {
                copy_region(
                    &sources[o.src],
                    &o.src_box,
                    &mut dests[o.dst],
                    &o.dst_box,
                    &o.region,
                );
            });
        }
        black_box(&dests);
    });
    let (ref_passes, ref_took) = replay(tracer, |t| {
        for o in &ops {
            let n = o.region.num_cells() as usize;
            t.span("domain.memcpy_ref", |_| {
                dests[o.dst][..n].copy_from_slice(&sources[o.src][..n]);
            });
        }
        black_box(&dests);
    });
    let (base_passes, base_took) = replay(tracer, |t| {
        t.span("baseline.single_copy", |_| {
            for o in &ops {
                copy_rows(
                    &sources[o.src],
                    &o.src_box,
                    &mut dests[o.dst],
                    &o.dst_box,
                    &o.region,
                );
            }
        });
        black_box(&dests);
    });
    let rate =
        |passes: u64, took: Duration| bytes as f64 * passes as f64 / took.as_secs_f64() / GIB;
    CopyProbe {
        calls_per_iter: ops.len() as f64,
        bytes_per_iter: bytes as f64,
        busy_ms_per_iter: ms(took) / passes as f64,
        gib_s: rate(passes, took),
        memcpy_gib_s: rate(ref_passes, ref_took),
        baseline_ms_per_iter: ms(base_took) / base_passes as f64,
    }
}

/// `core.field_fill_verify_ms_per_iter`: generating every producer
/// piece with the executors' synthetic field function and verifying
/// every retrieved cell against it, as each task does around its puts
/// and gets. Not a layer of the framework, but most of an iteration's
/// CPU: without it the layers cannot be tied back to `iter_ms`.
pub fn field_probe(census: &Census, tracer: &mut Tracer) -> f64 {
    if census.pieces.is_empty() {
        return 0.0;
    }
    let mut version = 0u64;
    let (passes, took) = replay(tracer, |t| {
        version += 1;
        for p in &census.pieces {
            let vid = var_id(&p.var);
            t.span("core.field_fill", |_| {
                black_box(fill_with(&p.bbox, |c| field_value(vid, version, c)));
            });
        }
        for g in &census.gets {
            let vid = var_id(&g.var);
            t.span("core.field_verify", |_| {
                let nd = g.query.ndim();
                let mut sum = 0.0;
                for c in g.query.iter_points() {
                    sum += field_value(vid, version, &c[..nd]);
                }
                black_box(sum);
            });
        }
    });
    ms(took) / passes as f64
}

// ------------------------------------------------------------------- sfc

/// The Hilbert curve the executors index `domain` with.
fn curve_for(domain: &BoundingBox) -> HilbertCurve {
    let max_extent = (0..domain.ndim())
        .map(|d| domain.extent(d))
        .max()
        .unwrap_or(1);
    let order = 64 - (max_extent - 1).leading_zeros();
    HilbertCurve::new(domain.ndim(), order.max(1))
}

/// `sfc.*`.
#[derive(Default)]
pub struct SfcProbe {
    /// Time of one `spans_of_box`.
    pub us_per_call: f64,
    /// Spans it returns per query box.
    pub spans_per_box: f64,
}

/// Linearize every get's query box, as a DHT lookup does.
pub fn sfc_probe(census: &Census, domain: &BoundingBox, tracer: &mut Tracer) -> SfcProbe {
    if census.gets.is_empty() {
        return SfcProbe::default();
    }
    let curve = curve_for(domain);
    let mut spans = 0usize;
    let (passes, took) = replay(tracer, |t| {
        spans = 0;
        for g in &census.gets {
            spans += t.span("sfc.spans_of_box", |_| spans_of_box(&curve, &g.query).len());
        }
    });
    let calls = census.gets.len() as f64;
    SfcProbe {
        us_per_call: us(took) / (passes as f64 * calls),
        spans_per_box: spans as f64 / calls,
    }
}

// ------------------------------------------------------------------ cods

/// `cods.schedule.*` and `cods.dht.*` (replayed parts).
#[derive(Default)]
pub struct ScheduleProbe {
    /// Computing one get's schedule.
    pub compute_us_per_get: f64,
    /// Replaying it from the schedule cache.
    pub cached_us_per_get: f64,
    /// Transfers per get.
    pub ops_per_get: f64,
    /// One DHT location insert.
    pub dht_insert_us: f64,
    /// One DHT query.
    pub dht_query_us: f64,
    /// DHT cores one query consults.
    pub dht_cores_per_query: f64,
}

/// Schedule computation vs cache replay per get, and the DHT the
/// sequential gets consult.
pub fn schedule_probe(
    census: &Census,
    scenario: &Scenario,
    mapped: &MappedScenario,
    domain: &BoundingBox,
    tracer: &mut Tracer,
) -> ScheduleProbe {
    if census.gets.is_empty() {
        return ScheduleProbe::default();
    }
    // Inputs a sequential get's schedule is computed from, fetched
    // outside the timed passes.
    let entries: Vec<Vec<LocationEntry>> = census
        .gets
        .iter()
        .map(|g| {
            if g.concurrent {
                Vec::new()
            } else {
                census.entries_of(&g.var)
            }
        })
        .collect();
    let (passes, took) = replay(tracer, |t| {
        for (g, entries) in census.gets.iter().zip(&entries) {
            t.span("cods.schedule.compute", |_| {
                if g.concurrent {
                    let pdec = scenario.decomposition(g.producer_app);
                    black_box(schedule_from_decomposition(
                        pdec,
                        &g.producer_clients,
                        &g.query,
                    ));
                } else {
                    black_box(schedule_from_entries(entries, &g.query));
                }
            });
        }
    });
    let gets = census.gets.len() as f64;
    let compute_us_per_get = us(took) / (passes as f64 * gets);

    let cache = ScheduleCache::new();
    for g in &census.gets {
        let schedule = insitu_cods::CommSchedule { ops: g.ops.clone() };
        cache.insert(var_id(&g.var), &g.query, Arc::new(schedule));
    }
    let (passes, took) = replay(tracer, |t| {
        for g in &census.gets {
            let vid = var_id(&g.var);
            t.span("cods.schedule.cached", |_| {
                black_box(cache.lookup(vid, &g.query));
            });
        }
    });
    let mut out = ScheduleProbe {
        compute_us_per_get,
        cached_us_per_get: us(took) / (passes as f64 * gets),
        ops_per_get: census.gets.iter().map(|g| g.ops.len()).sum::<usize>() as f64 / gets,
        ..ScheduleProbe::default()
    };

    // The DHT as the executors build it: one core per node. Only
    // sequentially coupled variables are indexed.
    let seq_pieces: Vec<_> = census.pieces.iter().filter(|p| !p.concurrent).collect();
    let seq_gets: Vec<_> = census.gets.iter().filter(|g| !g.concurrent).collect();
    if seq_pieces.is_empty() || seq_gets.is_empty() {
        return out;
    }
    let machine = mapped.machine;
    let dht_clients: Vec<u32> = (0..machine.nodes).map(|n| machine.core(n, 0)).collect();
    let dht = Dht::new(Box::new(curve_for(domain)), dht_clients);
    let mut version = 0u64;
    let mut cores = 0usize;
    let mut insert_time = Duration::ZERO;
    let mut query_time = Duration::ZERO;
    let (passes, _) = replay(tracer, |t| {
        version += 1;
        let t0 = Instant::now();
        for p in &seq_pieces {
            let entry = LocationEntry {
                bbox: p.bbox,
                owner: p.client,
                piece: p.piece,
            };
            t.span("cods.dht.insert", |_| {
                black_box(dht.insert(var_id(&p.var), version, entry));
            });
        }
        let t1 = Instant::now();
        cores = 0;
        for g in &seq_gets {
            cores += t.span("cods.dht.query", |_| {
                dht.query(var_id(&g.var), version, &g.query).1.len()
            });
        }
        if version > 1 {
            insert_time += t1 - t0;
            query_time += t1.elapsed();
        }
        for p in &seq_pieces {
            dht.remove_version(var_id(&p.var), version);
        }
    });
    out.dht_insert_us = us(insert_time) / (passes as f64 * seq_pieces.len() as f64);
    out.dht_query_us = us(query_time) / (passes as f64 * seq_gets.len() as f64);
    out.dht_cores_per_query = cores as f64 / seq_gets.len() as f64;
    out
}

/// `cods.put.*` / `cods.get.*` (replayed parts).
#[derive(Default)]
pub struct SpaceProbe {
    /// One `put_cont`/`put_seq`.
    pub put_us_per_call: f64,
    /// One `get_cont`/`get_seq` with every piece already staged.
    pub get_busy_us_per_call: f64,
}

/// A real single-process `CodsSpace`: put every piece of a version,
/// then run every get against the staged pieces (no waiting).
pub fn space_probe(
    census: &Census,
    scenario: &Scenario,
    mapped: &MappedScenario,
    domain: &BoundingBox,
    tracer: &mut Tracer,
) -> SpaceProbe {
    if census.gets.is_empty() {
        return SpaceProbe::default();
    }
    let machine = mapped.machine;
    let placement = Arc::new(Placement::pack_sequential(machine, machine.total_cores()));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let dht_clients: Vec<u32> = (0..machine.nodes).map(|n| machine.core(n, 0)).collect();
    let dht = Dht::new(Box::new(curve_for(domain)), dht_clients);
    let space = CodsSpace::new(dart, dht, CodsConfig::default());
    let payloads: Vec<Vec<f64>> = census
        .pieces
        .iter()
        .map(|p| vec![1.0; p.bbox.num_cells() as usize])
        .collect();
    let vars: Vec<&str> = {
        let mut v: Vec<&str> = census.pieces.iter().map(|p| p.var.as_str()).collect();
        v.dedup();
        v
    };
    let mut version = 0u64;
    let mut put_time = Duration::ZERO;
    let mut get_time = Duration::ZERO;
    let (passes, _) = replay(tracer, |t| {
        let t0 = Instant::now();
        for (p, data) in census.pieces.iter().zip(&payloads) {
            t.span("cods.put", |_| {
                let (var, bbox) = (p.var.as_str(), &p.bbox);
                if p.concurrent {
                    space.put_cont(p.client, p.app, var, version, p.piece, bbox, data)
                } else {
                    space.put_seq(p.client, p.app, var, version, p.piece, bbox, data)
                }
                .expect("replayed put");
            });
        }
        let t1 = Instant::now();
        for g in &census.gets {
            t.span("cods.get", |_| {
                let got = if g.concurrent {
                    space.get_cont(
                        g.client,
                        g.app,
                        &g.var,
                        version,
                        &g.query,
                        scenario.decomposition(g.producer_app),
                        &g.producer_clients,
                    )
                } else {
                    space.get_seq(g.client, g.app, &g.var, version, &g.query)
                };
                black_box(got.expect("replayed get"));
            });
        }
        if version > 0 {
            put_time += t1 - t0;
            get_time += t1.elapsed();
        }
        for var in &vars {
            space.evict_version(var, version);
        }
        version += 1;
    });
    SpaceProbe {
        put_us_per_call: us(put_time) / (passes as f64 * census.pieces.len() as f64),
        get_busy_us_per_call: us(get_time) / (passes as f64 * census.gets.len() as f64),
    }
}

// ------------------------------------------------------------------ dart

/// `dart.*` (replayed parts).
#[derive(Default)]
pub struct DartProbe {
    /// One `BufferRegistry::register`.
    pub register_us: f64,
    /// Register on one thread to the waiter woken on another, median.
    pub rendezvous_us: f64,
    /// `pull_many` per piece, everything staged.
    pub pull_many_us_per_piece: f64,
}

fn key_of(var: &str, version: u64, owner: u32, piece: u64) -> BufKey {
    BufKey {
        name: var_id(var),
        version,
        piece: ((owner as u64) << 32) | piece,
    }
}

/// Registry registration and cross-thread rendezvous, and `pull_many`
/// over each get's keys.
pub fn dart_probe(census: &Census, mapped: &MappedScenario, tracer: &mut Tracer) -> DartProbe {
    if census.gets.is_empty() {
        return DartProbe::default();
    }
    let payload = Bytes::copy_from_slice(&[0u8; 64]);
    let mut version = 0u64;
    let registry = BufferRegistry::new();
    let (passes, took) = replay(tracer, |t| {
        version += 1;
        for p in &census.pieces {
            let key = key_of(&p.var, version, p.client, p.piece);
            t.span("dart.registry.register", |_| {
                registry.register(key, p.client, payload.clone());
            });
        }
        for p in &census.pieces {
            registry.evict_below(var_id(&p.var), u64::MAX);
        }
    });
    let register_us = us(took) / (passes as f64 * census.pieces.len() as f64);

    // Rendezvous: a waiter parks on a key (seen through waiter_count),
    // then this thread registers it; the waiter stamps its wake-up.
    const ROUNDS: u64 = 200;
    let registry = Arc::new(BufferRegistry::new());
    let (woke_tx, woke_rx) = mpsc::channel::<Instant>();
    let waiter = {
        let registry = Arc::clone(&registry);
        std::thread::spawn(move || {
            for round in 0..ROUNDS {
                let key = key_of("rendezvous", round, 0, 0);
                registry
                    .wait_for(&key, Duration::from_secs(10))
                    .expect("rendezvous key registered");
                let _ = woke_tx.send(Instant::now());
            }
        })
    };
    let mut waits = Vec::new();
    for round in 0..ROUNDS {
        while registry.waiter_count() == 0 {
            std::hint::spin_loop();
        }
        let t0 = Instant::now();
        registry.register(key_of("rendezvous", round, 0, 0), 0, payload.clone());
        let woke = woke_rx.recv().expect("waiter alive");
        waits.push(us(woke.saturating_duration_since(t0)));
    }
    waiter.join().expect("rendezvous waiter");

    let machine = mapped.machine;
    let placement = Arc::new(Placement::pack_sequential(machine, machine.total_cores()));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    for p in &census.pieces {
        dart.register_buffer(
            key_of(&p.var, 0, p.client, p.piece),
            p.client,
            payload.clone(),
        );
    }
    let keys: Vec<Vec<BufKey>> = census
        .gets
        .iter()
        .map(|g| {
            g.ops
                .iter()
                .map(|o| key_of(&g.var, 0, o.src_client, o.piece))
                .collect()
        })
        .collect();
    let pieces: usize = keys.iter().map(Vec::len).sum();
    let (passes, took) = replay(tracer, |t| {
        for k in &keys {
            t.span("dart.pull_many", |_| {
                dart.pull_many(k, Duration::from_secs(5), |_, h, _| {
                    black_box(h);
                })
                .expect("staged keys");
            });
        }
    });
    DartProbe {
        register_us,
        rendezvous_us: median(&waits),
        pull_many_us_per_piece: us(took) / (passes as f64 * pieces as f64),
    }
}

// ------------------------------------------------------------------- net

/// `net.frame.*` (replayed).
#[derive(Default)]
pub struct FrameProbe {
    /// Encoding them.
    pub encode_ms_per_iter: f64,
    /// Decoding them.
    pub decode_ms_per_iter: f64,
    /// Encode rate.
    pub encode_gib_s: f64,
    /// Decode rate.
    pub decode_gib_s: f64,
    /// Payload sizes of the frames (for the reactor round-trip probe).
    pub payload_sizes: Vec<usize>,
}

/// The `PullData` / `SubPush` frames of one iteration — every transfer
/// and push that crosses nodes — through `Frame::encode` and
/// `FrameDecoder`.
pub fn frame_probe(census: &Census, tracer: &mut Tracer) -> FrameProbe {
    let mut frames: Vec<Frame> = Vec::new();
    let mut pulled = std::collections::BTreeSet::new();
    for g in &census.gets {
        for o in g
            .ops
            .iter()
            .filter(|o| census.crosses_nodes(o.src_client, g.client))
        {
            // The wire carries the whole staged piece, once per consumer
            // node (the node's registry keeps it for the other gets);
            // each consumer cuts its region out locally.
            let to_node = g.client / census.cores_per_node;
            if !pulled.insert((g.var.as_str(), o.src_client, o.piece, to_node)) {
                continue;
            }
            frames.push(Frame::PullData {
                name: var_id(&g.var),
                version: 0,
                piece: ((o.src_client as u64) << 32) | o.piece,
                owner: o.src_client,
                to_node,
                data: vec![0u8; box_bytes(&o.piece_box) as usize],
            });
        }
    }
    for p in census
        .pushes
        .iter()
        .filter(|p| census.crosses_nodes(p.src, p.dst))
    {
        let nd = p.fragment.ndim();
        frames.push(Frame::SubPush {
            sub_id: 1,
            var: var_id(&p.var),
            version: 0,
            src: p.src,
            subscriber: p.dst,
            lbs: (0..nd).map(|d| p.fragment.lb(d)).collect(),
            ubs: (0..nd).map(|d| p.fragment.ub(d)).collect(),
            data: vec![0u8; box_bytes(&p.fragment) as usize],
        });
    }
    if frames.is_empty() {
        return FrameProbe::default();
    }
    let payload_sizes: Vec<usize> = frames
        .iter()
        .map(|f| match f {
            Frame::PullData { data, .. } | Frame::SubPush { data, .. } => data.len(),
            _ => 0,
        })
        .collect();
    let bytes: usize = payload_sizes.iter().sum();
    let mut encoded: Vec<Vec<u8>> = Vec::new();
    let (enc_passes, enc_took) = replay(tracer, |t| {
        encoded.clear();
        for f in &frames {
            encoded.push(t.span("net.frame.encode", |_| f.encode()));
        }
    });
    let (dec_passes, dec_took) = replay(tracer, |t| {
        for wire in &encoded {
            t.span("net.frame.decode", |_| {
                let mut decoder = FrameDecoder::new();
                decoder.push(wire);
                black_box(decoder.next_frame().expect("own encoding decodes"));
            });
        }
    });
    let rate =
        |passes: u64, took: Duration| bytes as f64 * passes as f64 / took.as_secs_f64() / GIB;
    FrameProbe {
        encode_ms_per_iter: ms(enc_took) / enc_passes as f64,
        decode_ms_per_iter: ms(dec_took) / dec_passes as f64,
        encode_gib_s: rate(enc_passes, enc_took),
        decode_gib_s: rate(dec_passes, dec_took),
        payload_sizes,
    }
}

/// `net.reactor.*`.
#[derive(Default)]
pub struct ReactorProbe {
    /// Small frames per second through one reactor connection.
    pub frames_per_s: f64,
    /// 1 KiB pull round trip over loopback, median.
    pub rtt_small_us_p50: f64,
    /// Census-piece-sized pull round trip, median.
    pub rtt_piece_us_p50: f64,
    /// CPU an idle reactor with the workload's connections burns.
    pub idle_cpu_ms_per_s: f64,
}

fn net_metrics() -> NetMetrics {
    NetMetrics::new(&Recorder::disabled())
}

fn loopback_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let a = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
    let (b, _) = listener.accept().expect("accept");
    a.set_nodelay(true).expect("nodelay");
    b.set_nodelay(true).expect("nodelay");
    (a, b)
}

/// Pull round trips against a reactor-served owner, `payload` bytes per
/// answer; median microseconds.
fn reactor_rtt(payload: usize, rounds: usize) -> f64 {
    let reactor =
        Reactor::spawn("perf-owner", FaultInjector::none(), net_metrics()).expect("spawn reactor");
    let handle = reactor.handle();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind owner");
    let addr = listener.local_addr().expect("owner addr");
    let reply = handle.clone();
    handle.add_listener(
        listener,
        Box::new(move |token, _| {
            let reply = reply.clone();
            Box::new(move |event| {
                if let ConnEvent::Frame(Frame::PullRequest { version, .. }) = event {
                    reply.send(
                        token,
                        Frame::PullData {
                            name: 7,
                            version,
                            piece: 3 << 32,
                            owner: 3,
                            to_node: 0,
                            data: vec![0xA5; payload],
                        },
                    );
                }
            })
        }),
    );
    let mut consumer = TcpStream::connect(addr).expect("dial owner");
    consumer.set_nodelay(true).expect("nodelay");
    let injector = FaultInjector::none();
    let m = net_metrics();
    let mut lat = Vec::with_capacity(rounds);
    for i in 0..rounds {
        let request = Frame::PullRequest {
            name: 7,
            version: i as u64,
            piece: 3 << 32,
            from_node: 0,
        };
        let t0 = Instant::now();
        send_frame(&mut consumer, &request, &injector, &m).expect("request");
        black_box(recv_frame(&mut consumer, &injector, &m).expect("answer"));
        lat.push(us(t0.elapsed()));
    }
    reactor.shutdown();
    median(&lat)
}

/// The reactor on loopback: small-frame throughput, pull round trips at
/// 1 KiB and at the census's median piece size, and idle CPU with
/// `connections` open connections.
pub fn reactor_probe(piece_sizes: &[usize], connections: usize) -> ReactorProbe {
    const SMALL_FRAMES: usize = 20_000;
    let (tx_stream, mut rx_stream) = loopback_pair();
    let reader = std::thread::spawn(move || {
        let injector = FaultInjector::none();
        let m = net_metrics();
        for _ in 0..SMALL_FRAMES {
            recv_frame(&mut rx_stream, &injector, &m).expect("small frame");
        }
    });
    let reactor =
        Reactor::spawn("perf-frames", FaultInjector::none(), net_metrics()).expect("spawn reactor");
    let handle = reactor.handle();
    let token = handle.alloc_token();
    handle.add_stream(token, tx_stream, Box::new(|_| {}));
    let t0 = Instant::now();
    for i in 0..SMALL_FRAMES {
        handle.send(token, Frame::RunWave { wave: i as u32 });
    }
    reader.join().expect("frame reader");
    let frames_per_s = SMALL_FRAMES as f64 / t0.elapsed().as_secs_f64();
    reactor.shutdown();

    let mut sorted = piece_sizes.to_vec();
    sorted.sort_unstable();
    let piece = sorted.get(sorted.len() / 2).copied().unwrap_or(1024);

    // Idle cost: a reactor holding the workload's connections, nothing
    // to send or receive, for a fixed window.
    let reactor =
        Reactor::spawn("perf-idle", FaultInjector::none(), net_metrics()).expect("spawn reactor");
    let handle = reactor.handle();
    let mut far_ends = Vec::new();
    for _ in 0..connections {
        let (near, far) = loopback_pair();
        handle.add_stream(handle.alloc_token(), near, Box::new(|_| {}));
        far_ends.push(far);
    }
    std::thread::sleep(Duration::from_millis(50));
    let window = Duration::from_millis(400);
    let cpu0 = crate::sys::self_cpu_ms();
    std::thread::sleep(window);
    let idle_cpu_ms_per_s = (crate::sys::self_cpu_ms() - cpu0) / window.as_secs_f64();
    reactor.shutdown();
    drop(far_ends);

    ReactorProbe {
        frames_per_s,
        rtt_small_us_p50: reactor_rtt(1024, 500),
        rtt_piece_us_p50: reactor_rtt(piece, 100),
        idle_cpu_ms_per_s,
    }
}

// ------------------------------------------------------------------ util

/// `util.shm.*`.
#[derive(Default)]
pub struct ShmProbe {
    /// One `Ring::push`.
    pub push_us: f64,
    /// One `Ring::pop` + `Ring::release`.
    pub pop_release_us: f64,
    /// Payload rate through push + pop + release.
    pub gib_s: f64,
    /// Pushes refused (`ArenaFull | SlotsFull | TooBig`) over pushes,
    /// when one iteration's records are pushed back to back and the
    /// consumer releases only when the ring is full.
    pub push_full_ratio: f64,
}

/// The census's cross-node piece sizes through a ring on a real
/// `/dev/shm` mapping sized like a link's.
pub fn shm_probe(piece_sizes: &[usize], tracer: &mut Tracer) -> ShmProbe {
    if piece_sizes.is_empty() {
        return ShmProbe::default();
    }
    let path = shm::segment_dir().join(shm::segment_name(std::process::id(), 0x9e7f, 0, 1));
    let len = Ring::required_len(SHM_SLOTS, SHM_ARENA);
    let map = Arc::new(ShmMap::create(&path, len).expect("create shm segment"));
    let producer = Ring::create(RingMem::from_map(map), SHM_SLOTS, SHM_ARENA);
    // The consumer attaches through its own mapping, as a second
    // process would.
    let consumer_map = Arc::new(ShmMap::open(&path).expect("open shm segment"));
    let consumer = Ring::attach(RingMem::from_map(consumer_map)).expect("attach shm segment");
    let biggest = piece_sizes.iter().copied().max().unwrap_or(0);
    let payload = vec![0x5Au8; biggest];
    let desc = RecordDesc {
        name: 7,
        version: 0,
        piece: 0,
        owner: 0,
    };
    let drain = |t: &mut Tracer| {
        while let Some(rec) = t.span("util.shm.pop_release", |_| {
            let rec = consumer.pop()?;
            black_box(consumer.mem().slice(rec.off, rec.len));
            consumer.release(rec.range);
            Some(rec)
        }) {
            black_box(rec);
        }
    };

    // Timing: one record in flight at a time, so no push is refused.
    let fitting: Vec<usize> = piece_sizes
        .iter()
        .copied()
        .filter(|&n| (n as u64) <= SHM_ARENA)
        .collect();
    let mut push_time = Duration::ZERO;
    let mut pop_time = Duration::ZERO;
    let (passes, took) = replay(tracer, |t| {
        for &n in &fitting {
            let t0 = Instant::now();
            t.span("util.shm.push", |_| {
                producer
                    .push(&desc, &payload[..n])
                    .expect("empty ring accepts");
            });
            let t1 = Instant::now();
            drain(t);
            push_time += t1 - t0;
            pop_time += t1.elapsed();
        }
    });
    let records = (passes + 1) as f64 * fitting.len().max(1) as f64;
    let bytes: usize = fitting.iter().sum();

    // Backpressure: the whole iteration back to back, consumer releasing
    // only when the producer is refused.
    let mut refused = 0u64;
    for &n in piece_sizes {
        match producer.push(&desc, &payload[..n]) {
            Ok(_) => {}
            Err(PushError::TooBig) => refused += 1,
            Err(PushError::ArenaFull | PushError::SlotsFull) => {
                refused += 1;
                drain(tracer);
                let _ = producer.push(&desc, &payload[..n]);
            }
        }
    }
    drain(tracer);
    drop(consumer);
    drop(producer);
    let _ = std::fs::remove_file(&path);
    ShmProbe {
        push_us: us(push_time) / records,
        pop_release_us: us(pop_time) / records,
        gib_s: bytes as f64 * passes as f64 / took.as_secs_f64() / GIB,
        push_full_ratio: refused as f64 / piece_sizes.len() as f64,
    }
}

/// `util.poller.wake_us_p50`: a byte written to a registered stream
/// until a `Poller::poll` parked in its nap phase returns, median.
pub fn poller_wake_us() -> f64 {
    const ROUNDS: usize = 100;
    let (mut writer, reader) = loopback_pair();
    let mut drain = reader.try_clone().expect("clone reader");
    let mut poller = Poller::new();
    poller.register(1, reader).expect("register");
    let (ready_tx, ready_rx) = mpsc::channel::<()>();
    let (woke_tx, woke_rx) = mpsc::channel::<Instant>();
    let stop = Arc::new(AtomicBool::new(false));
    let parked = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            while !stop.load(Ordering::SeqCst) {
                let _ = ready_tx.send(());
                if !poller.poll(Duration::from_millis(500)).is_empty() {
                    let woke = Instant::now();
                    let mut byte = [0u8; 1];
                    let _ = std::io::Read::read(&mut drain, &mut byte);
                    let _ = woke_tx.send(woke);
                }
            }
        })
    };
    let mut wakes = Vec::new();
    for _ in 0..ROUNDS {
        ready_rx.recv().expect("poller thread alive");
        // Past the poller's spin phase, into its sleeping sweeps.
        std::thread::sleep(Duration::from_millis(2));
        let t0 = Instant::now();
        writer.write_all(&[1]).expect("wake byte");
        let woke = woke_rx.recv().expect("poller woke");
        wakes.push(us(woke.saturating_duration_since(t0)));
    }
    stop.store(true, Ordering::SeqCst);
    let _ = writer.write_all(&[1]);
    parked.join().expect("poller thread");
    median(&wakes)
}

// ------------------------------------------------------------------- sub

/// `sub.push.us_per_fragment`: cut each push fragment out of its piece
/// and offer it to the subscriber's sink, as the put path does.
pub fn sub_push_us(census: &Census, tracer: &mut Tracer) -> f64 {
    if census.pushes.is_empty() {
        return 0.0;
    }
    // One sink per subscribed region: registering a spec again returns
    // the entry (and so the sink) it already has.
    let registry = SubRegistry::new();
    let sinks: Vec<_> = census
        .pushes
        .iter()
        .map(|p| {
            let entry = registry.register(SubSpec {
                vid: var_id(&p.var),
                region: p.region,
                every_k: p.every_k,
                subscriber: p.dst,
            });
            entry.attach_sink(8)
        })
        .collect();
    let pieces: Vec<Vec<f64>> = census
        .pushes
        .iter()
        .map(|p| vec![1.0; p.piece_box.num_cells() as usize])
        .collect();
    let mut version = 0u64;
    let (passes, took) = replay(tracer, |t| {
        for ((p, data), sink) in census.pushes.iter().zip(&pieces).zip(&sinks) {
            t.span("sub.push", |t| {
                let mut frag = vec![0.0; p.fragment.num_cells() as usize];
                t.span("domain.copy_region", |_| {
                    copy_region(data, &p.piece_box, &mut frag, &p.fragment, &p.fragment);
                });
                black_box(sink.offer(version, &p.fragment, &frag));
            });
        }
        // Drain what the pass completed (a sink shared by several
        // pushes answers once, then reports the version gone).
        for sink in &sinks {
            black_box(sink.take_version(version, Instant::now()));
        }
        version += 1;
    });
    us(took) / (passes as f64 * census.pushes.len() as f64)
}

// -------------------------------------------- workflow / core / partition

/// `workflow.*`, `core.*`, `partition.*`.
#[derive(Default)]
pub struct ControlProbe {
    /// `compile_workflow` of the template.
    pub compile_us: f64,
    /// `build_scenario` of the compiled text.
    pub parse_us: f64,
    /// `map_scenario`.
    pub map_scenario_us: f64,
    /// Cut weight over total weight of the first concurrently coupled
    /// bundle's communication graph under the mapping.
    pub edge_cut_ratio: f64,
}

/// Compile, parse and map the workload's own input.
pub fn control_probe(
    source: &str,
    overrides: &[(String, String)],
    input: &Compiled,
    strategy: MappingStrategy,
    tracer: &mut Tracer,
) -> ControlProbe {
    let time = |tracer: &mut Tracer, name: &'static str, work: &mut dyn FnMut()| -> f64 {
        let (passes, took) = replay(tracer, |t| t.span(name, |_| work()));
        us(took) / passes as f64
    };
    let compile_us = time(tracer, "workflow.compile", &mut || {
        black_box(compile_workflow(source, overrides).expect("template compiles"));
    });
    let parse_us = time(tracer, "workflow.parse", &mut || {
        black_box(insitu_cli::build_scenario(&input.dag, &input.config).expect("text parses"));
    });
    let map_scenario_us = time(tracer, "core.map_scenario", &mut || {
        black_box(map_scenario(&input.scenario, strategy));
    });

    let scenario = &input.scenario;
    let mapped = map_scenario(scenario, strategy);
    let mut edge_cut_ratio = 0.0;
    if let Some(bundle) = mapped.waves.iter().flatten().find(|b| b.len() >= 2) {
        let apps: Vec<_> = bundle
            .iter()
            .map(|&id| scenario.workflow.app(id).expect("mapped app"))
            .collect();
        let region = apps
            .iter()
            .find_map(|a| scenario.coupling_into(a.id))
            .and_then(|c| c.region);
        let (graph, offsets) =
            build_inter_app_graph_region(&apps, scenario.elem_bytes, region.as_ref());
        let mut parts = vec![0u32; graph.num_vertices()];
        for (app, &offset) in apps.iter().zip(&offsets) {
            for rank in 0..app.ntasks {
                parts[(offset + rank) as usize] = mapped.node_of_task(app.id, rank as u64);
            }
        }
        let total: u64 = (0..graph.num_vertices() as u32)
            .flat_map(|v| graph.neighbors(v).map(|(_, w)| w))
            .sum::<u64>()
            / 2;
        if total > 0 {
            edge_cut_ratio = graph.edge_cut(&parts) as f64 / total as f64;
        }
    }
    ControlProbe {
        compile_us,
        parse_us,
        map_scenario_us,
        edge_cut_ratio,
    }
}

// --------------------------------------------------------- fabric / obs

/// `fabric.ledger.account_ns`: one `TransferLedger::record`.
pub fn ledger_account_ns() -> f64 {
    const CALLS: u64 = 200_000;
    let ledger = TransferLedger::new();
    let t0 = Instant::now();
    for i in 0..CALLS {
        let loc = if i & 1 == 0 {
            Locality::SharedMemory
        } else {
            Locality::Network
        };
        ledger.record(
            1 + (i % 3) as u32,
            TrafficClass::InterApp,
            loc,
            black_box(4096),
        );
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
    black_box(ledger.snapshot());
    ns
}

/// `obs.flight.record_ns`: one `FlightRecorder::record`.
pub fn flight_record_ns() -> f64 {
    const CALLS: u64 = 50_000;
    let flight = FlightRecorder::enabled();
    let t0 = Instant::now();
    for i in 0..CALLS {
        let now = flight.now_us();
        flight.record(
            Event::new(flight.next_seq(), EventKind::Pull { wait_us: 1 })
                .app(1)
                .var(7)
                .version(i)
                .src(0)
                .dst(1)
                .bytes(4096)
                .window(now, 1),
        );
    }
    let ns = t0.elapsed().as_secs_f64() * 1e9 / CALLS as f64;
    black_box(flight.len());
    ns
}
