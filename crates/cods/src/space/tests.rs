//! Unit tests of the space, grouped by seam: replica, lifetime,
//! put/get, standing queries. One module so the fixtures are shared.

use super::*;
use crate::codec::{FieldData, ELEM_BYTES};
use crate::dht::{var_id, LocationEntry};
use insitu_dart::{BufferHandle, Transport};
use insitu_domain::{layout, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{FaultAction, MachineSpec, Placement, TrafficClass, TransferLedger};
use insitu_sfc::HilbertCurve;
use insitu_sub::{SubSpec, TakeResult};
use insitu_telemetry::Recorder;
use insitu_util::Bytes;
use std::time::Instant;

/// 4 clients on 2 nodes of 2 cores; DHT core per node on clients 0, 2.
fn space() -> Arc<CodsSpace> {
    recorded_space(Recorder::disabled())
}

/// `space()` publishing its counters into `rec`.
fn recorded_space(rec: Recorder) -> Arc<CodsSpace> {
    let dart = DartRuntime::with_transport(
        Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4)),
        Arc::new(TransferLedger::new()),
        rec,
        insitu_fabric::FaultInjector::none(),
        insitu_obs::FlightRecorder::disabled(),
        Arc::new(insitu_dart::LocalTransport),
    );
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

/// A transport hosting every client that records the replica changes
/// the space sends out through it.
#[derive(Default)]
struct RecordingWire {
    inserts: Mutex<Vec<(u64, u64, LocationEntry)>>,
    dones: Mutex<Vec<(u64, u64)>>,
    evicts: Mutex<Vec<(u64, u64)>>,
}

impl Transport for RecordingWire {
    fn hosts(&self, _client: ClientId) -> bool {
        true
    }
    fn forward(&self, _to: ClientId, _msg: &insitu_dart::Msg) {}
    fn request(&self, _key: &BufKey) {}
    fn push(&self, _to: ClientId, _key: &BufKey, _handle: BufferHandle) {}
    fn dht_insert(
        &self,
        var: u64,
        version: u64,
        owner: ClientId,
        piece: u64,
        lbs: &[u64],
        ubs: &[u64],
    ) {
        let bbox = BoundingBox::new(lbs, ubs);
        let entry = LocationEntry { bbox, owner, piece };
        self.inserts.lock().unwrap().push((var, version, entry));
    }
    fn get_done(&self, var: u64, version: u64) {
        self.dones.lock().unwrap().push((var, version));
    }
    fn evict(&self, var: u64, version: u64) {
        self.evicts.lock().unwrap().push((var, version));
    }
}

fn mirrored_space(mirror: Arc<RecordingWire>) -> Arc<CodsSpace> {
    let dart = DartRuntime::with_transport(
        Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4)),
        Arc::new(TransferLedger::new()),
        Recorder::disabled(),
        insitu_fabric::FaultInjector::none(),
        insitu_obs::FlightRecorder::disabled(),
        mirror,
    );
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

#[test]
fn mirror_sees_local_changes_but_not_remote_applies() {
    let mirror = Arc::new(RecordingWire::default());
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
    // Both versions are gone from the DHT.
    for v in 0..2 {
        assert!(s.dht().query(vid, v, &q).0.is_empty(), "version {v}");
    }
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
    let (found, _) = s.dht().query(vid, 3, &BoundingBox::from_sizes(&[8, 8]));
    assert_eq!(found.len(), 1);
    assert_eq!(found[0].owner, 2);
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
/// (0 and 1) unless `all`, counts how often it is asked, and records
/// what the space pushes to node 1.
struct NodeZero {
    all: bool,
    hosts_calls: std::sync::atomic::AtomicU64,
    pushes: Mutex<Vec<(ClientId, BufKey, BufferHandle)>>,
}

impl Transport for NodeZero {
    fn hosts(&self, client: ClientId) -> bool {
        self.hosts_calls
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.all || client < 2
    }
    fn forward(&self, _to: ClientId, _msg: &insitu_dart::Msg) {}
    fn request(&self, _key: &BufKey) {}
    fn push(&self, to: ClientId, key: &BufKey, handle: BufferHandle) {
        self.pushes.lock().unwrap().push((to, *key, handle));
    }
    fn dht_insert(&self, _: u64, _: u64, _: ClientId, _: u64, _: &[u64], _: &[u64]) {}
    fn get_done(&self, _var: u64, _version: u64) {}
    fn evict(&self, _var: u64, _version: u64) {}
}

fn node_zero_space(all: bool) -> (Arc<CodsSpace>, Arc<NodeZero>, Recorder) {
    let wire = Arc::new(NodeZero {
        all,
        hosts_calls: Default::default(),
        pushes: Mutex::default(),
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
    let vid = var_id(var);
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
            space.dart.registry().register(
                buf_key(vid, version, r, 0),
                r,
                FieldData::from(data).into_bytes(),
            );
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
        let vid = var_id("temp");
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
                let key = buf_key(var_id(var), v, r, 0);
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

    // And it is the runtime's `hosts_all`, derived from `hosts` once at
    // construction, that short-circuits: a scan would ask `hosts` once
    // per candidate entry.
    let (s, wire, _) = node_zero_space(true);
    s.set_expected_gets("temp", 1);
    produce_on_node_zero(&s, "temp", 0);
    let asked = || wire.hosts_calls.load(std::sync::atomic::Ordering::Relaxed);
    let before = asked();
    s.apply_remote_get_done(var_id("temp"), 0);
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
    let err = s
        .put_seq(0, 1, "bad", 0, 0, &b, &[1.0, 2.0][..])
        .unwrap_err();
    assert_eq!(
        err,
        CodsError::SizeMismatch {
            expected: 16,
            got: 2
        }
    );
}

/// The registry's buffer for `client`'s piece 0 of `(var, 0)`.
fn staged_ptr(s: &CodsSpace, var: &str, client: ClientId) -> *const u8 {
    let key = buf_key(var_id(var), 0, client, 0);
    s.dart().registry().get(&key).unwrap().data.as_ptr()
}

#[test]
fn a_put_stages_the_producers_own_array() {
    let s = space();
    let b = BoundingBox::from_sizes(&[8, 8]);
    let data = layout::fill_with(&b, tagfn);
    let at = data.as_ptr().cast::<u8>();
    s.put_cont(0, 1, "own", 0, 0, &b, data).unwrap();
    assert_eq!(staged_ptr(&s, "own", 0), at);
    // A borrowed array is copied: the caller keeps its own.
    let kept = layout::fill_with(&b, tagfn);
    s.put_cont(1, 1, "own", 0, 0, &b, &kept).unwrap();
    assert_ne!(staged_ptr(&s, "own", 1), kept.as_ptr().cast::<u8>());
}

#[test]
fn a_put_seq_stages_the_producers_own_array() {
    let s = space();
    let b = BoundingBox::from_sizes(&[8, 8]);
    let data = layout::fill_with(&b, tagfn);
    let at = data.as_ptr().cast::<u8>();
    s.put_seq(0, 1, "own", 0, 0, &b, data).unwrap();
    assert_eq!(staged_ptr(&s, "own", 0), at);
    let (got, _) = s.get_seq(3, 2, "own", 0, &b).unwrap();
    assert_eq!(got, layout::fill_with(&b, tagfn));
}

/// A moved array feeds an in-process subscriber's sink through a view
/// of the adopted buffer; what it assembles is bit-identical to a pull.
#[test]
fn pushes_from_adopted_arrays_match_pulls_bit_for_bit() {
    let s = space();
    let q = BoundingBox::from_sizes(&[8, 8]);
    let handle = s.subscribe(3, 2, "temp", &q, 1, DEFAULT_QUEUE_CAP);
    let dec = Decomposition::new(q, ProcessGrid::new(&[2, 2]), Distribution::Blocked);
    for r in 0..4u64 {
        let b = dec.blocked_box(r).unwrap();
        let data = layout::fill_with(&b, |p| tagfn(p) * -1e-3);
        s.put_seq(r as ClientId, 1, "temp", 0, 0, &b, data).unwrap();
    }
    let pushed = take_data(&s, &handle, 0);
    let (pulled, _) = s.get_seq(3, 2, "temp", 0, &q).unwrap();
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&pushed), bits(&pulled));
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

/// Park `waiters` producers on `(var, version)`, each returning what
/// `wait_version_consumed` said and when it returned.
fn park(
    s: &Arc<CodsSpace>,
    var: &'static str,
    version: u64,
    waiters: usize,
) -> Vec<std::thread::JoinHandle<(bool, Instant)>> {
    let parked = (0..waiters)
        .map(|_| {
            let s = Arc::clone(s);
            std::thread::spawn(move || {
                let ok = s.wait_version_consumed(var, version, Duration::from_secs(10));
                (ok, Instant::now())
            })
        })
        .collect();
    std::thread::sleep(Duration::from_millis(20));
    parked
}

/// Assert every parked producer was released, and by the event at
/// `at` rather than by its 10 s timeout.
fn assert_released(parked: Vec<std::thread::JoinHandle<(bool, Instant)>>, at: Instant) {
    for waiter in parked {
        let (ok, when) = waiter.join().unwrap();
        assert!(ok, "a parked producer was not released");
        assert!(
            when.saturating_duration_since(at) < Duration::from_secs(5),
            "a parked producer waited out its timeout"
        );
    }
}

#[test]
fn wait_version_consumed_wakes_once_per_version() {
    // 32 gets complete about 1 ms apart; only the last can release the
    // producer, so only the last wakes it.
    let rec = Recorder::enabled();
    let s = recorded_space(rec.clone());
    produce(&s, "temp", 0);
    s.set_expected_gets("temp", 32);
    let parked = park(&s, "temp", 0, 1);
    let q = BoundingBox::from_sizes(&[8, 8]);
    let mut last = Instant::now();
    for i in 0..32 {
        std::thread::sleep(Duration::from_millis(1));
        let _ = s.get_seq(i % 4, 2, "temp", 0, &q).unwrap();
        last = Instant::now();
    }
    assert_released(parked, last);
    let wakes = rec.metrics_snapshot().counter("cods.window.wakes");
    assert!(wakes <= 2, "{wakes} wakes for one version");
}

#[test]
fn wait_version_consumed_releases_every_parked_waiter() {
    // One get completes the version; all four producers parked on it
    // must go, not one of them.
    let s = space();
    produce(&s, "temp", 0);
    s.set_expected_gets("temp", 1);
    let parked = park(&s, "temp", 0, 4);
    let q = BoundingBox::from_sizes(&[8, 8]);
    let _ = s.get_seq(3, 2, "temp", 0, &q).unwrap();
    assert_released(parked, Instant::now());
}

#[test]
fn wait_version_consumed_sees_a_lowered_expectation() {
    // No get completes while the producer is parked: lowering the
    // expectation to the completed count is what releases it.
    let s = space();
    produce(&s, "temp", 0);
    s.set_expected_gets("temp", 2);
    let q = BoundingBox::from_sizes(&[8, 8]);
    let _ = s.get_seq(3, 2, "temp", 0, &q).unwrap();
    let parked = park(&s, "temp", 0, 1);
    s.set_expected_gets("temp", 1);
    assert_released(parked, Instant::now());
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
fn overlapping_pieces_that_add_up_to_the_query_are_refused_and_never_cached() {
    let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(1, 3), 3));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let dht = Dht::new(Box::new(HilbertCurve::new(2, 4)), vec![0]);
    let s = CodsSpace::new(dart, dht, CodsConfig::default());
    // Six cells and four cells over a ten-cell row: the counts add up,
    // but cells 3..=5 are held twice and 7..=9 by nobody.
    let a = BoundingBox::new(&[0, 0], &[0, 5]);
    let b = BoundingBox::new(&[0, 3], &[0, 6]);
    s.put_seq(0, 1, "ov", 0, 0, &a, vec![1.0; 6]).unwrap();
    s.put_seq(1, 1, "ov", 0, 0, &b, vec![2.0; 4]).unwrap();
    let q = BoundingBox::new(&[0, 0], &[0, 9]);
    for _ in 0..2 {
        let err = s.get_seq(2, 2, "ov", 0, &q).unwrap_err();
        assert_eq!(
            err,
            CodsError::NotACover {
                cells: BoundingBox::new(&[0, 3], &[0, 5]),
                outside: false,
            }
        );
        assert!(err.to_string().contains("held by two pieces"), "{err}");
        assert!(s.cache().lookup(var_id("ov"), &q).is_none());
    }
    // A query only one of them reaches is still served.
    let (got, _) = s
        .get_seq(2, 2, "ov", 0, &BoundingBox::new(&[0, 0], &[0, 2]))
        .unwrap();
    assert_eq!(got, vec![1.0; 3]);
}

#[test]
fn multi_piece_producer() {
    // One producer holding two disjoint pieces (cyclic-style put).
    let s = space();
    let b1 = BoundingBox::new(&[0, 0], &[3, 7]);
    let b2 = BoundingBox::new(&[4, 0], &[7, 7]);
    s.put_seq(0, 1, "mp", 0, 0, &b1, layout::fill_with(&b1, tagfn))
        .unwrap();
    s.put_seq(0, 1, "mp", 0, 1, &b2, layout::fill_with(&b2, tagfn))
        .unwrap();
    let q = BoundingBox::new(&[2, 2], &[5, 5]);
    let (data, report) = s.get_seq(3, 2, "mp", 0, &q).unwrap();
    assert_eq!(report.ops, 2);
    for p in q.iter_points() {
        assert_eq!(data[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
    }
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
        assert_eq!(
            &FieldData::from(pushed).into_bytes()[..],
            &pulled.into_bytes()[..]
        );
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

/// Producer process with sink-less subscription replicas: a matching
/// put sends its staged piece to the subscribers' node once, however
/// many of their queries it meets (every fragment accounted
/// producer-side), and the subscriber process lands each piece in its
/// registry, where its sink cuts the exact bytes without accounting
/// anything again — once, however often the piece lands.
#[test]
fn remote_subscribers_are_sent_each_piece_once_and_landing_feeds_the_sink() {
    let (prod, wire, _) = node_zero_space(false);
    let q = BoundingBox::from_sizes(&[8, 8]);
    let corner = BoundingBox::from_sizes(&[4, 4]);
    for (subscriber, region) in [(3, q), (2, corner)] {
        prod.apply_remote_subscribe(&SubSpec {
            vid: var_id("temp"),
            region,
            every_k: 1,
            subscriber,
        });
    }
    let (dec, owners) = produce(&prod, "temp", 0);
    // Four pieces meet the whole-domain query, one the corner query:
    // five fragments, four pieces sent, each to node 1, each whole.
    assert_eq!(prod.sub_pushes.get(), 5);
    let pushes = std::mem::take(&mut *wire.pushes.lock().unwrap());
    assert_eq!(pushes.len(), 4);
    assert!(pushes
        .iter()
        .all(|(to, _, h)| to / 2 == 1 && h.data.len() == 128));
    // Producer-side accounting, once per fragment: producers 0,1 are on
    // node 0 (network to node 1), 2,3 on node 1 (shm); the four
    // whole-domain fragments are 16 cells = 128 bytes each, the corner
    // one too.
    let snap = prod.dart().ledger().snapshot();
    assert_eq!(snap.shm_bytes(TrafficClass::InterApp), 256);
    assert_eq!(snap.network_bytes(TrafficClass::InterApp), 384);

    // Subscriber process: a local sink that expects the four pieces.
    let sub = space();
    let handle = sub.subscribe(3, 2, "temp", &q, 1, 4);
    for (r, &owner) in owners.iter().enumerate() {
        handle.expect_piece(owner, 0, &dec.blocked_box(r as u64).unwrap());
    }
    let before = sub.dart().ledger().snapshot();
    for (_, key, h) in pushes.iter().chain(&pushes) {
        sub.apply_remote_piece(*key, h.owner, h.data.clone());
    }
    assert_eq!(sub.dart().ledger().snapshot(), before);
    let got = take_data(&sub, &handle, 0);
    for p in q.iter_points() {
        assert_eq!(got[layout::linear_index(&q, &p[..2])], tagfn(&p[..2]));
    }
    assert_eq!(handle.completed(), 1);
    // The landed pieces serve the subscriber's own get, too.
    for (_, key, _) in &pushes {
        assert!(sub.dart().registry().get(key).is_some());
    }
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
    // Landings of pieces no sink expects, or with ragged payloads, are
    // held for the gets but feed no sink.
    let frag = BoundingBox::from_sizes(&[2]);
    let handle = s.subscribe(0, 1, "x", &frag, 1, 4);
    handle.expect_piece(1, 0, &frag);
    let key = |owner: ClientId| buf_key(var_id("x"), 0, owner, 0);
    s.apply_remote_piece(key(2), 2, FieldData::from(vec![1.0, 2.0]).into_bytes());
    s.apply_remote_piece(key(1), 1, Bytes::from(vec![0u8; 9]));
    assert!(s.dart().registry().get(&key(1)).is_some());
    assert_eq!(handle.completed(), 0);
    s.dart().registry().unregister(&key(1));
    s.apply_remote_piece(key(1), 1, FieldData::from(vec![1.0, 2.0]).into_bytes());
    assert_eq!(handle.completed(), 1);
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
