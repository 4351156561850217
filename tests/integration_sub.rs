//! End-to-end standing queries: a monitor application subscribes to a
//! coupled variable and the producers push every matching version into
//! its sink — no consumer-side polling. The engine byte-compares every
//! delivered push against a fresh `get` of the same piece, so
//! `verify_failures == 0` certifies the acceptance anchor: pushed bytes
//! are byte-identical to pulled bytes, version for version.

use insitu::workflow::{AppSpec, WorkflowSpec};
use insitu::{
    join, run_threaded, run_threaded_configured, serve, CouplingSpec, DistribOutcome, JoinOptions,
    MappingStrategy, Scenario, ServeOptions, SubscriptionSpec,
};
use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_obs::{EventKind, FlightRecorder, LinkClass};
use insitu_telemetry::Recorder;
use std::net::TcpListener;
use std::time::Duration;

/// Producer (4 tasks) -> consumer (2 tasks), with a one-task monitor app
/// holding a standing query over the whole domain. All three apps run as
/// one bundle so the concurrent-coupling operators apply.
fn sub_scenario(every_k: u64, iterations: u64) -> Scenario {
    let domain = BoundingBox::from_sizes(&[8, 8, 8]);
    let pdec = Decomposition::new(domain, ProcessGrid::new(&[2, 2, 1]), Distribution::Blocked);
    let cdec = Decomposition::new(domain, ProcessGrid::new(&[2, 1, 1]), Distribution::Blocked);
    let mdec = Decomposition::new(domain, ProcessGrid::new(&[1, 1, 1]), Distribution::Blocked);
    let workflow = WorkflowSpec {
        apps: vec![
            AppSpec::new(1, "SIM", 4).with_decomposition(pdec),
            AppSpec::new(2, "ANA", 2).with_decomposition(cdec),
            AppSpec::new(3, "MON", 1).with_decomposition(mdec),
        ],
        edges: vec![],
        bundles: vec![vec![1, 2, 3]],
    };
    Scenario {
        name: "standing query".into(),
        cores_per_node: 4,
        workflow,
        couplings: vec![CouplingSpec {
            var: "coupled".into(),
            producer_app: 1,
            consumer_apps: vec![2],
            concurrent: true,
            region: None,
        }],
        subscriptions: vec![SubscriptionSpec {
            var: "coupled".into(),
            producer_app: 1,
            subscriber_app: 3,
            every_k,
            region: None,
            queue_cap: 8,
        }],
        halo: 1,
        elem_bytes: 8,
        iterations,
    }
}

#[test]
fn pushed_bytes_match_pulled_bytes_end_to_end() {
    let s = sub_scenario(1, 3);
    let rec = Recorder::enabled();
    let o = run_threaded_configured(&s, MappingStrategy::DataCentric, &rec, &Default::default());
    assert_eq!(o.verify_failures, 0, "push plane diverged from pull plane");
    assert!(o.errors.is_empty(), "{:?}", o.errors);
    // Consumer: 2 tasks x 3 versions; monitor: 1 piece x 3 versions.
    assert_eq!(o.reports.len(), 6 + 3);

    let snap = rec.metrics_snapshot();
    // 4 producer pieces pushed per version, assembled into one delivery.
    assert_eq!(snap.counter("sub.pushes"), 4 * 3);
    assert_eq!(snap.counter("sub.deliveries"), 3);
    assert_eq!(snap.counter("sub.lagged"), 0);
    assert_eq!(snap.counter("sub.push_drops"), 0);
    // Every push moved the fragment's bytes: whole domain per version.
    assert_eq!(snap.counter("sub.push_bytes"), 8 * 8 * 8 * 8 * 3);
}

#[test]
fn stride_subscription_skips_off_stride_versions() {
    let s = sub_scenario(2, 4); // versions 0 and 2 are on-stride
    let rec = Recorder::enabled();
    let o = run_threaded_configured(&s, MappingStrategy::DataCentric, &rec, &Default::default());
    assert_eq!(o.verify_failures, 0);
    assert!(o.errors.is_empty(), "{:?}", o.errors);
    // Consumer: 2 x 4 versions; monitor: only the 2 on-stride versions.
    assert_eq!(o.reports.len(), 8 + 2);
    let snap = rec.metrics_snapshot();
    assert_eq!(snap.counter("sub.pushes"), 4 * 2);
    assert_eq!(snap.counter("sub.deliveries"), 2);
}

/// Run `scenario` distributed over loopback (one serve thread, one join
/// thread per node, each joiner recording its flight events) and return
/// the server's merged outcome.
fn run_distributed(
    scenario: &Scenario,
    strategy: MappingStrategy,
    nodes: u32,
    recorder: &Recorder,
    p2p: bool,
    shm: bool,
) -> DistribOutcome {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let serve_opts = ServeOptions {
        strategy,
        timeout: Duration::from_secs(20),
        recorder: recorder.clone(),
        p2p,
        shm,
        ..ServeOptions::default()
    };
    let mut joiners = Vec::new();
    for node in 0..nodes {
        let addr = addr.clone();
        let s = scenario.clone();
        let rec = recorder.clone();
        joiners.push(std::thread::spawn(move || {
            join(
                &addr,
                node,
                move |_dag, _config| Ok(s),
                &JoinOptions {
                    timeout: Duration::from_secs(20),
                    recorder: rec,
                    flight: FlightRecorder::enabled(),
                    ..JoinOptions::default()
                },
            )
        }));
    }
    let outcome = serve(&listener, "", "", scenario, &serve_opts).unwrap();
    for j in joiners {
        j.join().unwrap().unwrap();
    }
    outcome
}

#[test]
fn distributed_subscription_matches_single_process() {
    let s = sub_scenario(1, 2);
    let expected = run_threaded(&s, MappingStrategy::RoundRobin);
    assert_eq!(expected.verify_failures, 0);

    // RoundRobin splits the producers across both nodes, so some pushes
    // must cross processes; with p2p off they ride the hub.
    let rec = Recorder::enabled();
    let got = run_distributed(&s, MappingStrategy::RoundRobin, 2, &rec, false, false);
    assert_eq!(got.verify_failures, 0);
    assert!(got.errors.is_empty(), "{:?}", got.errors);
    assert_eq!(
        got.ledger, expected.ledger,
        "merged ledger must be byte-identical to the single-process run"
    );
    assert_eq!(got.gets, expected.reports.len() as u64);

    let snap = rec.metrics_snapshot();
    assert!(
        snap.counter("net.pull_frames_hub") > 0,
        "cross-process pushes must ride the hub when p2p is off"
    );
    // Deliveries happen only in the process hosting the sink; the
    // push count (all producer processes) still covers every piece.
    assert_eq!(snap.counter("sub.deliveries"), 2);
}

#[test]
fn p2p_subscription_pushes_bypass_the_hub() {
    let s = sub_scenario(1, 2);
    let expected = run_threaded(&s, MappingStrategy::RoundRobin);
    assert_eq!(expected.verify_failures, 0);

    let rec = Recorder::enabled();
    let got = run_distributed(&s, MappingStrategy::RoundRobin, 2, &rec, true, false);
    assert_eq!(got.verify_failures, 0);
    assert!(got.errors.is_empty(), "{:?}", got.errors);
    assert_eq!(
        got.ledger, expected.ledger,
        "p2p merged ledger must be byte-identical to the single-process run"
    );

    let snap = rec.metrics_snapshot();
    assert_eq!(
        snap.counter("net.pull_frames_hub"),
        0,
        "no push may traverse the hub in p2p mode"
    );
    assert!(
        snap.counter("net.pull_frames_p2p") > 0,
        "cross-process pushes must take direct links"
    );
}

/// On one host with shared memory on — the default launch — a push is
/// a ring record like any pull answer: no byte that crossed processes
/// took a socket, and the ledger and deliveries are what they are
/// single-process.
#[test]
fn same_host_pushes_ride_the_shm_ring() {
    let s = sub_scenario(1, 2);
    let expected = run_threaded(&s, MappingStrategy::RoundRobin);
    let rec = Recorder::enabled();
    let got = run_distributed(&s, MappingStrategy::RoundRobin, 2, &rec, false, true);
    assert_eq!(got.verify_failures, 0);
    assert!(got.errors.is_empty(), "{:?}", got.errors);
    assert_eq!(
        got.ledger, expected.ledger,
        "shm merged ledger must be byte-identical to the single-process run"
    );
    let snap = rec.metrics_snapshot();
    assert!(snap.counter("net.shm_frames") > 0);
    assert_eq!(snap.counter("net.pull_frames_hub"), 0);
    assert_eq!(snap.counter("sub.deliveries"), 2);
    let hops: Vec<_> = got
        .telemetry
        .iter()
        .flat_map(|t| &t.events)
        .filter(|e| matches!(e.kind, EventKind::NetSend | EventKind::NetRecv))
        .collect();
    assert!(!hops.is_empty(), "nothing crossed processes");
    for hop in hops {
        assert_eq!(hop.link, Some(LinkClass::Shm), "{hop:?} took a socket");
    }
}
