//! Deterministic network fault injection against the distributed
//! runner: the wire transport consults the same seeded fault plan as
//! every other site, so a dropped frame is replayable from the seed and
//! surfaces as the ordinary CoDS timeout naming the owning client.
//!
//! Covered in both topologies: the star hub (every frame relayed) and
//! the p2p reactor data plane (`PullData` over direct node↔node links),
//! where the same `net.*` fault sites must keep firing even though the
//! frames never touch the hub.

use insitu::{concurrent_scenario, pattern_pairs, Scenario};
use insitu::{join, serve, DistribOutcome, JoinOptions, MappingStrategy, ServeOptions};
use insitu_chaos::{FaultPlan, FaultSpec};
use insitu_fabric::{FaultAction, FaultHooks, FaultInjector, NetOp, NodeId};
use insitu_telemetry::Recorder;
use std::net::TcpListener;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Two-node loopback scenario with a block-cyclic consumer: every
/// consumer reads pieces from every producer, so some pulls must cross
/// the wire no matter how the tasks are mapped.
fn two_node_scenario() -> Scenario {
    let mut s = concurrent_scenario(4, 4, 4, pattern_pairs(&[2, 2, 1])[2]);
    s.cores_per_node = 4;
    s
}

/// Run the scenario distributed over loopback with the given injector
/// wired into the server and every joiner, in star or p2p topology.
fn run_with_faults(
    scenario: &Scenario,
    injector: &FaultInjector,
    get_timeout: Duration,
    p2p: bool,
    recorder: &Recorder,
    shm: bool,
) -> (Result<DistribOutcome, String>, Vec<Result<(), String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut joiners = Vec::new();
    for node in 0..2 {
        let addr = addr.clone();
        let s = scenario.clone();
        let opts = JoinOptions {
            timeout: Duration::from_secs(10),
            injector: injector.clone(),
            recorder: recorder.clone(),
            ..JoinOptions::default()
        };
        joiners.push(std::thread::spawn(move || {
            join(&addr, node, move |_, _| Ok(s), &opts)
        }));
    }
    let served = serve(
        &listener,
        "",
        "",
        scenario,
        &ServeOptions {
            strategy: MappingStrategy::DataCentric,
            get_timeout,
            timeout: Duration::from_secs(10),
            injector: injector.clone(),
            recorder: recorder.clone(),
            p2p,
            // The wire-fault tests pin what happens to frames on the
            // socket, so the payloads must actually ride the socket:
            // same-host shm would carry them around the fault site.
            shm,
            ..ServeOptions::default()
        },
    );
    let join_results = joiners.into_iter().map(|j| j.join().unwrap()).collect();
    (served, join_results)
}

#[test]
fn dropped_pull_data_surfaces_as_timeout_naming_owner() {
    // Rate 1 on net-recv: every pull-data frame is discarded after the
    // read, so no cross-process pull can ever complete.
    let spec = FaultSpec::parse("net-recv:1").unwrap();
    let injector = FaultInjector::new(Arc::new(FaultPlan::new(7, spec)));
    let (served, join_results) = run_with_faults(
        &two_node_scenario(),
        &injector,
        Duration::from_millis(600),
        false,
        &Recorder::disabled(),
        false,
    );

    // The run still completes — waves, barriers and reports all use the
    // control plane, which faults never touch.
    let outcome = served.expect("run must complete despite dropped data frames");
    for r in join_results {
        r.expect("joiners must survive dropped data frames");
    }
    assert!(
        !outcome.errors.is_empty(),
        "every wire pull was dropped, yet no task reported an error"
    );
    // The failure mode is the *existing* pull timeout, and it names the
    // client that owns the missing piece.
    for e in &outcome.errors {
        assert!(
            e.contains("timed out waiting") && e.contains("from client"),
            "expected the CoDS pull timeout naming the owner, got: {e}"
        );
    }
}

#[test]
fn p2p_dropped_pull_data_surfaces_as_timeout_naming_owner() {
    // Same fault plan as the star test, but the PullData frames it
    // drops now travel direct peer links — the failure mode (and its
    // error text) must not change with the topology.
    let spec = FaultSpec::parse("net-recv:1").unwrap();
    let injector = FaultInjector::new(Arc::new(FaultPlan::new(7, spec)));
    let recorder = Recorder::enabled();
    let (served, join_results) = run_with_faults(
        &two_node_scenario(),
        &injector,
        Duration::from_millis(600),
        true,
        &recorder,
        false,
    );

    let outcome = served.expect("p2p run must complete despite dropped data frames");
    for r in join_results {
        r.expect("joiners must survive dropped data frames");
    }
    assert!(
        !outcome.errors.is_empty(),
        "every wire pull was dropped, yet no task reported an error"
    );
    for e in &outcome.errors {
        assert!(
            e.contains("timed out waiting") && e.contains("from client"),
            "expected the CoDS pull timeout naming the owner, got: {e}"
        );
    }
    // The dropped frames were really on the direct links: owners staged
    // them peer-to-peer and none crossed the hub.
    let snap = recorder.metrics_snapshot();
    assert_eq!(
        snap.counter("net.pull_frames_hub"),
        0,
        "no PullData may traverse the hub in p2p mode"
    );
    assert!(
        snap.counter("net.pull_frames_p2p") > 0,
        "PullData must have been staged on direct peer links"
    );
}

#[test]
fn p2p_chaos_replays_bit_for_bit_from_seed() {
    // Seed 42, partial drop rates: some pulls die, some survive. Two
    // runs of the same seed must agree on *everything* observable —
    // the fault plan hashes sites, not wall-clock or arrival order.
    let run = || {
        let spec = FaultSpec::parse("net-send:0.4,net-recv:0.4").unwrap();
        let injector = FaultInjector::new(Arc::new(FaultPlan::new(42, spec)));
        let (served, join_results) = run_with_faults(
            &two_node_scenario(),
            &injector,
            Duration::from_millis(600),
            true,
            &Recorder::disabled(),
            false,
        );
        for r in join_results {
            r.expect("joiners must survive partial drops");
        }
        served.expect("p2p run must complete under partial drops")
    };
    let first = run();
    let second = run();
    assert_eq!(
        first.errors, second.errors,
        "seed-42 error set must replay bit-for-bit"
    );
    assert_eq!(first.ledger, second.ledger, "seed-42 ledger must replay");
    assert_eq!(first.verify_failures, second.verify_failures);
    assert_eq!(first.gets, second.gets);
}

/// Fault-free hooks that count every wire-site consultation, proving
/// the p2p data plane still reports its operations to the injector.
#[derive(Default)]
struct CountingHooks {
    connects: AtomicU64,
    sends: AtomicU64,
    recvs: AtomicU64,
    telemetry: AtomicU64,
}

impl FaultHooks for CountingHooks {
    fn on_net(&self, op: NetOp, _kind: u8, _a: u64, _b: u64) -> FaultAction {
        match op {
            NetOp::Connect => self.connects.fetch_add(1, Ordering::Relaxed),
            NetOp::Send => self.sends.fetch_add(1, Ordering::Relaxed),
            NetOp::Recv => self.recvs.fetch_add(1, Ordering::Relaxed),
        };
        FaultAction::Proceed
    }

    fn telemetry_lost(&self, _node: NodeId, _batch: u32) -> bool {
        self.telemetry.fetch_add(1, Ordering::Relaxed);
        false
    }
}

#[test]
fn p2p_direct_links_still_consult_every_fault_site() {
    let hooks = Arc::new(CountingHooks::default());
    let injector = FaultInjector::new(Arc::clone(&hooks) as Arc<dyn FaultHooks>);
    let (served, join_results) = run_with_faults(
        &two_node_scenario(),
        &injector,
        Duration::from_secs(10),
        true,
        &Recorder::disabled(),
        false,
    );

    let outcome = served.expect("fault-free p2p run must succeed");
    for r in join_results {
        r.expect("fault-free joiners must succeed");
    }
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);

    // Both joiners connect to the hub and each dials the other once, on
    // its first cross-node pull — every one through the net.connect
    // site. Exactly four: a node never dials itself, however a
    // consumer's wait races a same-node producer's put.
    let connects = hooks.connects.load(Ordering::Relaxed);
    assert_eq!(connects, 4, "two hub connects plus one dial each way");
    // PullData crossed direct links, and both the send-staging and the
    // post-decode receive site fired for it.
    let sends = hooks.sends.load(Ordering::Relaxed);
    let recvs = hooks.recvs.load(Ordering::Relaxed);
    assert!(sends > 0, "net.send must fire for p2p PullData");
    assert!(recvs > 0, "net.recv must fire for p2p PullData");
    // Every joiner ships at least one telemetry batch to the hub, and
    // each one is offered to its own site.
    let telemetry = hooks.telemetry.load(Ordering::Relaxed);
    assert!(telemetry > 0, "telemetry batches must reach telemetry_lost");
}

#[test]
fn shm_attach_fault_degrades_to_tcp_with_identical_ledger() {
    // Baseline: fault-free run with shm on — the payloads ride rings.
    let base_rec = Recorder::enabled();
    let (served, join_results) = run_with_faults(
        &two_node_scenario(),
        &FaultInjector::none(),
        Duration::from_secs(10),
        false,
        &base_rec,
        true,
    );
    let baseline = served.expect("fault-free shm run must succeed");
    for r in join_results {
        r.expect("fault-free joiners must succeed");
    }
    assert!(baseline.errors.is_empty(), "{:?}", baseline.errors);
    assert!(
        base_rec.metrics_snapshot().counter("net.shm_frames") > 0,
        "baseline must actually use shared memory"
    );

    // Rate 1 on shm-attach: every pair is doomed. Both ends roll the
    // same op-independent (creator, segment) hash, so the producer
    // never stages into a ring nobody will drain — the payloads fall
    // back to the socket transparently and the run is oblivious.
    let spec = FaultSpec::parse("shm-attach:1").unwrap();
    let injector = FaultInjector::new(Arc::new(FaultPlan::new(21, spec)));
    let rec = Recorder::enabled();
    let (served, join_results) = run_with_faults(
        &two_node_scenario(),
        &injector,
        Duration::from_secs(10),
        false,
        &rec,
        true,
    );
    let outcome = served.expect("run must complete despite shm-attach faults");
    for r in join_results {
        r.expect("joiners must survive shm-attach faults");
    }
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(
        outcome.ledger, baseline.ledger,
        "the TCP fallback must leave the merged ledger byte-identical"
    );
    assert_eq!(outcome.gets, baseline.gets);
    let snap = rec.metrics_snapshot();
    assert_eq!(
        snap.counter("net.shm_frames"),
        0,
        "no record may ride a ring when every attach is doomed"
    );
    assert!(
        snap.counter("net.shm_fallbacks") > 0,
        "the degradations must be counted"
    );
    assert!(
        snap.counter("net.pull_frames_hub") > 0,
        "the payloads must have fallen back to the hub path"
    );
}

#[test]
fn shm_attach_chaos_replays_bit_for_bit_from_seed() {
    // Partial rate: some pairs degrade, some ride rings. The segment
    // identity hashes the directed pair (not a counter), so two runs of
    // one seed must agree on every fallback — and on every observable
    // the run produces. The fault-caused tally is what the seed
    // determines, so ring-full refusals (load, not seed — counted
    // apart in `net.shm_fallbacks_full`) are subtracted from the
    // all-causes total; a node never pulls from itself, so which pairs
    // exist is fixed by the mapping.
    let run = |seed| {
        let spec = FaultSpec::parse("shm-attach:0.5").unwrap();
        let injector = FaultInjector::new(Arc::new(FaultPlan::new(seed, spec)));
        let rec = Recorder::enabled();
        let (served, join_results) = run_with_faults(
            &two_node_scenario(),
            &injector,
            Duration::from_secs(10),
            false,
            &rec,
            true,
        );
        for r in join_results {
            r.expect("joiners must survive partial shm faults");
        }
        let outcome = served.expect("run must complete under partial shm faults");
        let snap = rec.metrics_snapshot();
        (
            outcome,
            snap.counter("net.shm_frames"),
            snap.counter("net.shm_fallbacks") - snap.counter("net.shm_fallbacks_full"),
        )
    };
    let (a, a_frames, a_fallbacks) = run(33);
    let (b, b_frames, b_fallbacks) = run(33);
    assert_eq!(a.errors, b.errors, "seed-33 error set must replay");
    assert_eq!(a.ledger, b.ledger, "seed-33 ledger must replay");
    assert_eq!(a.verify_failures, b.verify_failures);
    assert_eq!(a.gets, b.gets);
    assert_eq!(a_frames, b_frames, "ring traffic must replay bit-for-bit");
    // Each ring record ticks once at its producer and once at its
    // consumer; an odd tally is a record popped into a registry that
    // already held it — the node-to-itself pull that used to race the
    // local put.
    assert_eq!(a_frames % 2, 0, "every ring record is counted at both ends");
    assert_eq!(
        a_fallbacks, b_fallbacks,
        "fault-caused fallbacks must replay bit-for-bit"
    );
}

#[test]
fn faulted_connect_fails_join_deterministically() {
    let spec = FaultSpec::parse("net-connect:1").unwrap();
    let injector = FaultInjector::new(Arc::new(FaultPlan::new(7, spec)));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let err = join(
        &addr,
        0,
        |_, _| -> Result<Scenario, String> { unreachable!("connect is faulted") },
        &JoinOptions {
            timeout: Duration::from_millis(300),
            injector,
            ..JoinOptions::default()
        },
    )
    .unwrap_err();
    assert!(
        err.contains("fault") || err.contains("dropped"),
        "connect fault must be named, got: {err}"
    );
}
