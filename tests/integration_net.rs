//! End-to-end test of the socketized workflow server: `insitu launch`
//! forks real joiner processes over loopback, runs the mixed
//! concurrent + sequential distrib workflow, and certifies the merged
//! transfer ledger byte-identical to the single-process executor —
//! star-routed and under `--p2p` (where zero `PullData` frames may
//! traverse the hub), with the route counters telling the two apart.
//! Also covers the fail-fast paths (a joiner pointed at a dead address,
//! a joiner process killed mid-run) and the one-wire-thread claim: 64
//! concurrent connections, or a star-routed hub with 8 joiners, served
//! with O(1) threads per process.

use std::path::PathBuf;
use std::process::Command;

fn workflow_path(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../workflows")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

fn insitu() -> Command {
    Command::new(env!("CARGO_BIN_EXE_insitu"))
}

#[test]
fn launch_runs_distributed_workflow_with_identical_ledger() {
    let ledger = std::env::temp_dir().join("insitu_integration_launch_ledger.json");
    let out = insitu()
        .args([
            "launch",
            &workflow_path("distrib.dag"),
            "--config",
            &workflow_path("distrib.cfg"),
            "--timeout-ms",
            "60000",
            "--ledger-out",
            ledger.to_str().unwrap(),
        ])
        .output()
        .expect("spawn insitu launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launch failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("byte-identical to the single-process run"),
        "{stdout}"
    );
    assert!(stdout.contains("verified:  0 cell mismatches"), "{stdout}");
    let body = std::fs::read_to_string(&ledger).expect("ledger JSON written");
    assert!(body.contains("\"inter_app.shm\""), "{body}");
    std::fs::remove_file(&ledger).unwrap();
}

#[test]
fn launch_p2p_keeps_ledger_identical_and_hub_data_free() {
    let out = insitu()
        .args([
            "launch",
            &workflow_path("distrib.dag"),
            "--config",
            &workflow_path("distrib.cfg"),
            "--timeout-ms",
            "60000",
            "--p2p",
        ])
        .output()
        .expect("spawn insitu launch --p2p");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "launch --p2p failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("byte-identical to the single-process run"),
        "{stdout}"
    );
    assert!(
        stdout.contains("p2p:       0 PullData frames through the hub"),
        "{stdout}"
    );
    assert!(stdout.contains("verified:  0 cell mismatches"), "{stdout}");
}

/// Pull the three counters out of launch's greppable census line:
/// `shm: <frames> shared-memory frame event(s), <hub> PullData through
/// the hub, <fallbacks> fallback(s)`.
fn parse_shm_census(stdout: &str) -> (u64, u64, u64) {
    let line = stdout
        .lines()
        .find(|l| l.starts_with("shm:"))
        .unwrap_or_else(|| panic!("no shm census line in:\n{stdout}"));
    let mut nums = line
        .split_whitespace()
        .filter_map(|w| w.parse::<u64>().ok());
    (
        nums.next().expect("frame count"),
        nums.next().expect("hub pull count"),
        nums.next().expect("fallback count"),
    )
}

/// The PR 9 tentpole, end to end over real processes: every launch
/// process shares this host, so with the shared-memory plane on (the
/// default) all cross-node `PullData` must ride `/dev/shm` segments —
/// zero data frames on the loopback socket — while the merged ledger
/// stays byte-identical to the single-process run (transport is
/// physical, the ledger's locality accounting is simulated placement).
#[test]
fn launch_routes_same_host_pull_data_through_shared_memory() {
    let out = insitu()
        .args([
            "launch",
            &workflow_path("distrib.dag"),
            "--config",
            &workflow_path("distrib.cfg"),
            // Round-robin mapping forces cross-node coupling pulls, so
            // the shm plane carries real traffic.
            "--strategy",
            "round-robin",
            "--timeout-ms",
            "60000",
        ])
        .output()
        .expect("spawn insitu launch");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "launch failed:\n{stdout}\n{stderr}");
    assert!(
        stdout.contains("byte-identical to the single-process run"),
        "{stdout}"
    );
    assert!(stdout.contains("verified:  0 cell mismatches"), "{stdout}");
    let (frames, hub_pulls, fallbacks) = parse_shm_census(&stdout);
    assert!(frames > 0, "no PullData rode shared memory:\n{stdout}");
    assert_eq!(hub_pulls, 0, "PullData leaked onto the socket:\n{stdout}");
    assert_eq!(fallbacks, 0, "unexpected TCP fallback:\n{stdout}");
}

/// `--no-shm` is the escape hatch: the same workflow must complete with
/// the identical ledger over the plain socket path, and the census line
/// must say the plane was off rather than silently vanish.
#[test]
fn launch_no_shm_falls_back_to_the_socket_with_identical_ledger() {
    let out = insitu()
        .args([
            "launch",
            &workflow_path("distrib.dag"),
            "--config",
            &workflow_path("distrib.cfg"),
            "--strategy",
            "round-robin",
            "--timeout-ms",
            "60000",
            "--no-shm",
        ])
        .output()
        .expect("spawn insitu launch --no-shm");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "launch --no-shm failed:\n{stdout}\n{stderr}"
    );
    assert!(
        stdout.contains("byte-identical to the single-process run"),
        "{stdout}"
    );
    assert!(
        stdout.contains("shm:       disabled (--no-shm)"),
        "{stdout}"
    );
}

/// One in-process distributed run (one serve thread, one join thread
/// per node) under the run's one shared recorder: the server's outcome
/// and the counters every joiner ticked.
fn run_in_process(
    scenario: &insitu::Scenario,
    strategy: insitu::MappingStrategy,
    nodes: u32,
    p2p: bool,
    shm: bool,
) -> (insitu::DistribOutcome, insitu_telemetry::MetricsSnapshot) {
    use insitu::{join, serve, JoinOptions, ServeOptions};
    use insitu_telemetry::Recorder;
    use std::time::Duration;

    let recorder = Recorder::enabled();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let joiners: Vec<_> = (0..nodes)
        .map(|node| {
            let (addr, s) = (addr.clone(), scenario.clone());
            let opts = JoinOptions {
                timeout: Duration::from_secs(20),
                recorder: recorder.clone(),
                ..JoinOptions::default()
            };
            std::thread::spawn(move || join(&addr, node, move |_, _| Ok(s), &opts))
        })
        .collect();
    let outcome = serve(
        &listener,
        "",
        "",
        scenario,
        &ServeOptions {
            strategy,
            timeout: Duration::from_secs(20),
            recorder: recorder.clone(),
            p2p,
            shm,
            ..ServeOptions::default()
        },
    )
    .unwrap();
    for j in joiners {
        j.join().unwrap().unwrap();
    }
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(outcome.verify_failures, 0);
    (outcome, recorder.metrics_snapshot())
}

/// Route counters of one in-process distributed run (shm off so the
/// payloads ride sockets): `(net.pull_frames_hub, net.pull_frames_p2p)`.
fn pull_route_counters(p2p: bool) -> (u64, u64) {
    // Round-robin placement forces cross-node pulls.
    let mut scenario = insitu::sequential_scenario_with_grids(
        &[2, 2, 1],
        &[2, 1, 1],
        &[1, 2, 1],
        4,
        insitu::pattern_pairs(&[2, 2, 1])[0],
    );
    scenario.cores_per_node = 2;
    let (_, snap) = run_in_process(
        &scenario,
        insitu::MappingStrategy::RoundRobin,
        2,
        p2p,
        false,
    );
    (
        snap.counter("net.pull_frames_hub"),
        snap.counter("net.pull_frames_p2p"),
    )
}

/// Held by the tests that run a hub inside this process, so the one
/// that counts `net-reactor-hub` threads sees only its own.
static IN_PROCESS_HUB: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// The census counts by route, not by I/O model: both routings run on
/// the same event loop, and only where `PullData` is addressed differs.
#[test]
fn pull_frames_are_counted_by_route() {
    let _hub = IN_PROCESS_HUB.lock().unwrap_or_else(|e| e.into_inner());
    let (hub, p2p) = pull_route_counters(false);
    assert!(hub > 0 && p2p == 0, "star run: hub {hub}, p2p {p2p}");
    let (hub, p2p) = pull_route_counters(true);
    assert!(hub == 0 && p2p > 0, "p2p run: hub {hub}, p2p {p2p}");
}

/// The consumed-release lifetime, end to end over the default shm
/// plane: a sequential coupling with **one** consumer rank pulls one
/// 1.65 MiB remote piece per version, 46 MiB in all through an 8 MiB
/// arena. A pulled copy pins its arena range only until the version is
/// consumed, and with a single consumer no get can run ahead of
/// another, so every piece must ride the ring: a fallback here is a
/// range that came back late (or, for a sequential coupling before
/// consumption released anything, never).
#[test]
fn one_consumer_recycles_the_arena_without_a_single_fallback() {
    use insitu::MappingStrategy::RoundRobin;

    const VERSIONS: u64 = 28;
    const PIECE_BYTES: u64 = 60 * 60 * 60 * 8;
    // At least 20 versions and 5x the 8 MiB arena across the nodes.
    const _: () = assert!(VERSIONS >= 20 && VERSIONS * PIECE_BYTES >= 5 * (8 << 20));
    let _hub = IN_PROCESS_HUB.lock().unwrap_or_else(|e| e.into_inner());
    // Two producer ranks of 60^3 f64 cells each, one consumer rank
    // reading the whole domain; one core per node, so round-robin puts
    // the producers on different nodes and exactly one of the two
    // pieces of every version is remote to the consumer.
    let mut scenario = insitu::sequential_scenario_with_grids(
        &[2, 1, 1],
        &[1, 1, 1],
        &[1, 1, 1],
        60,
        insitu::pattern_pairs(&[2, 1, 1])[0],
    )
    .with_iterations(VERSIONS);
    scenario.workflow.apps.truncate(2);
    scenario.workflow.edges = vec![(1, 2)];
    scenario.workflow.bundles = vec![vec![1], vec![2]];
    scenario.couplings[0].consumer_apps = vec![2];
    scenario.cores_per_node = 1;

    let expected = insitu::run_threaded(&scenario, RoundRobin);
    let (got, snap) = run_in_process(&scenario, RoundRobin, 2, false, true);
    assert_eq!(
        got.ledger, expected.ledger,
        "merged ledger must be byte-identical"
    );
    assert_eq!(got.gets, VERSIONS);
    assert_eq!(snap.counter("net.shm_fallbacks"), 0);
    // One remote piece per version, ticked at its producer and at its
    // consumer.
    assert_eq!(snap.counter("net.shm_frames"), 2 * VERSIONS);
    assert_eq!(snap.counter("net.shm_bytes"), 2 * VERSIONS * PIECE_BYTES);
    assert_eq!(snap.counter("net.pull_frames_hub"), 0);
}

/// A simulation coupled to an analysis over a *mirrored* process grid:
/// every consumer rank's query exactly covers one producer piece, so a
/// pulled piece assembles as a zero-copy `FieldData::View` — over the
/// shm plane, a view of the mapped segment itself; over the socket, of
/// the vector the payload was read into. Counts only: shm frames and
/// view hits on the default plane, no shm frame, no copied payload
/// byte and view hits still with shm off, the same ledger either way.
#[test]
fn mirror_grid_pulls_ride_shm_and_assemble_zero_copy_views() {
    use insitu::MappingStrategy::RoundRobin;

    const DAG: &str = "APP_ID 1\nAPP_ID 2\nBUNDLE 1 2\n";
    const CFG: &str = "\
CORES_PER_NODE 4
DOMAIN 128 64 32
HALO 0
ITERATIONS 4
APP 1 GRID 2 2 1 DIST blocked
APP 2 GRID 2 2 1 DIST blocked
COUPLING VAR f PRODUCER 1 CONSUMERS 2 MODE concurrent
";
    let _hub = IN_PROCESS_HUB.lock().unwrap_or_else(|e| e.into_inner());
    let scenario = insitu_cli::build_scenario(DAG, CFG).unwrap();
    // Round-robin placement, so the coupling pulls cross nodes.
    let (shm, shm_snap) = run_in_process(&scenario, RoundRobin, 2, false, true);
    assert!(shm_snap.counter("net.shm_frames") > 0);
    assert!(shm_snap.counter("cods.view_hits") > 0);
    let (wire, wire_snap) = run_in_process(&scenario, RoundRobin, 2, false, false);
    assert_eq!(wire_snap.counter("net.shm_frames"), 0);
    // Off the socket the piece is the vector the read filled, adopted:
    // as aligned as any allocation, so it too assembles as a view.
    assert!(wire_snap.counter("cods.view_hits") > 0);
    assert_eq!(wire_snap.counter("net.payload_copy_bytes"), 0);
    assert_eq!(shm.ledger, wire.ledger, "the data plane must not show");
    assert_eq!(shm.gets, wire.gets);
}

/// `cods.evictions` counts staged buffers, once each, in their owner's
/// process: a joiner's pulled copies swept out by the same eviction are
/// not evictions, so the joiners' sum is the single-process tally.
#[test]
fn distributed_evictions_sum_to_the_single_process_count() {
    use insitu::MappingStrategy::RoundRobin;
    use insitu_telemetry::Recorder;

    let _hub = IN_PROCESS_HUB.lock().unwrap_or_else(|e| e.into_inner());
    let read = |name: &str| std::fs::read_to_string(workflow_path(name)).unwrap();
    let scenario = insitu_cli::build_scenario(&read("distrib.dag"), &read("distrib.cfg")).unwrap();
    let single = Recorder::enabled();
    let expected =
        insitu::run_threaded_configured(&scenario, RoundRobin, &single, &Default::default());
    let evictions = single.metrics_snapshot().counter("cods.evictions");
    assert!(evictions > 0, "the concurrent coupling reclaims version 0");

    // Round-robin placement, so consumers hold pulled copies of the
    // version being evicted.
    let (got, snap) = run_in_process(&scenario, RoundRobin, 2, false, true);
    assert_eq!(got.ledger, expected.ledger);
    assert_eq!(snap.counter("cods.evictions"), evictions);
}

/// OS thread count of this process, from `/proc/self/status`.
/// Names of this process's live threads, from `/proc/self/task/*/comm`.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_string())
        .collect()
}

/// How many of this process's live threads have a name starting with
/// `prefix`, as far as `comm` keeps it: its first 15 bytes.
fn threads_named(prefix: &str) -> usize {
    let kept = &prefix[..prefix.len().min(15)];
    thread_names()
        .iter()
        .filter(|n| n.starts_with(kept))
        .count()
}

/// One wire thread per process regardless of routing: a *star-routed*
/// hub serving 8 joiners runs exactly one event loop — not a writer and
/// a reader thread per joiner.
#[test]
fn star_routed_hub_serves_8_joiners_from_one_thread() {
    use insitu_fabric::FaultInjector;
    use insitu_net::{recv_frame, send_frame, Frame, Hub, HubConfig, NetMetrics};
    use insitu_telemetry::Recorder;
    use std::time::Duration;

    const JOINERS: u32 = 8;
    let _hub = IN_PROCESS_HUB.lock().unwrap_or_else(|e| e.into_inner());
    let inj = FaultInjector::none();
    let metrics = NetMetrics::new(&Recorder::disabled());
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    // The joiners are bare sockets on this thread: greet, then let the
    // hub's accept read the buffered Hellos.
    let mut joiners: Vec<_> = (0..JOINERS)
        .map(|node| {
            let mut s = std::net::TcpStream::connect(addr).expect("dial hub");
            let hello = Frame::Hello {
                node,
                peer_addr: String::new(),
                host: String::new(),
            };
            send_frame(&mut s, &hello, &inj, &metrics).expect("hello");
            s
        })
        .collect();
    let hub = Hub::accept(
        &listener,
        &HubConfig {
            nodes: JOINERS,
            cores_per_node: 1,
            strategy: "data-centric".into(),
            get_timeout_ms: 1000,
            dag: String::new(),
            config: String::new(),
            accept_timeout: Duration::from_secs(20),
            p2p: false,
            shm: false,
        },
        &inj,
        &metrics,
    )
    .expect("hub accepts 8 joiners");
    for s in &mut joiners {
        recv_frame(s, &inj, &metrics).expect("welcome");
    }
    // Star routing at work: node 0's doorbell for node 7 crosses the hub.
    let doorbell = Frame::ShmDoorbell {
        src_node: 0,
        dst_node: 7,
        segment: 2,
        seq: 3,
    };
    send_frame(&mut joiners[0], &doorbell, &inj, &metrics).expect("doorbell");
    assert_eq!(
        recv_frame(&mut joiners[7], &inj, &metrics).expect("relay"),
        doorbell
    );

    let names = thread_names();
    let loops = names.iter().filter(|n| *n == "net-reactor-hub").count();
    assert_eq!(loops, 1, "one hub event loop, got {names:?}");
    assert!(
        !names
            .iter()
            .any(|n| n.starts_with("net-writer") || n.starts_with("net-hub-from")),
        "per-joiner transport threads are back: {names:?}"
    );
    hub.shutdown(true, "");
}

#[test]
fn reactor_soaks_64_connections_with_constant_threads() {
    use insitu_fabric::FaultInjector;
    use insitu_net::{ConnEvent, Frame, NetMetrics, Reactor};
    use insitu_telemetry::Recorder;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    const CONNS: usize = 64;
    const FRAMES_PER_CONN: usize = 50;
    // The two reactors below are the only threads of this binary so
    // named — and so is any unnamed thread they start, which inherits
    // its starter's name. Sibling tests' threads do not count.
    const SOAK: &str = "net-reactor-soak-";

    let metrics = NetMetrics::new(&Recorder::disabled());
    let before = threads_named(SOAK);

    // Server: one reactor echoing every frame straight back.
    let server = Reactor::spawn("soak-server", FaultInjector::none(), metrics.clone())
        .expect("spawn server reactor");
    let handle = server.handle();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    {
        let echo = handle.clone();
        handle.add_listener(
            listener,
            Box::new(move |token, _| {
                let echo = echo.clone();
                Box::new(move |event| {
                    if let ConnEvent::Frame(f) = event {
                        echo.send(token, f);
                    }
                })
            }),
        );
    }

    // Clients: one more reactor owning all 64 outbound connections; a
    // shared counter tracks echoed frames.
    let echoed = Arc::new(AtomicU64::new(0));
    let client = Reactor::spawn("soak-client", FaultInjector::none(), metrics.clone())
        .expect("spawn client reactor");
    let chandle = client.handle();
    let mut tokens = Vec::new();
    for _ in 0..CONNS {
        let stream = std::net::TcpStream::connect(addr).expect("dial soak server");
        let token = chandle.alloc_token();
        let echoed = Arc::clone(&echoed);
        chandle.add_stream(
            token,
            stream,
            Box::new(move |event| {
                if let ConnEvent::Frame(_) = event {
                    echoed.fetch_add(1, Ordering::Relaxed);
                }
            }),
        );
        tokens.push(token);
    }
    for round in 0..FRAMES_PER_CONN {
        for &token in &tokens {
            chandle.send(token, Frame::RunWave { wave: round as u32 });
        }
    }

    let expected = (CONNS * FRAMES_PER_CONN) as u64;
    let deadline = Instant::now() + Duration::from_secs(60);
    while echoed.load(Ordering::Relaxed) < expected && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        echoed.load(Ordering::Relaxed),
        expected,
        "every frame must come back within the deadline"
    );

    // The tentpole claim: 64 live connections in each direction, yet
    // thread count stays O(1) per process — two reactor loops and their
    // wake plumbing, not a thread (or two) per connection.
    let during = threads_named(SOAK);
    assert!(during >= 2, "the soak reactors are not running");
    let added = during.saturating_sub(before);
    assert!(
        added <= 8,
        "64 connections added {added} threads (before {before}, during {during}); \
         a thread-per-peer transport would have added >= 64"
    );

    client.shutdown();
    server.shutdown();
}

#[test]
fn join_exits_nonzero_fast_when_server_unreachable() {
    // Bind-then-drop reserves an address nothing listens on.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    let out = insitu()
        .args([
            "join",
            "--connect",
            &addr,
            "--node",
            "0",
            "--timeout-ms",
            "300",
        ])
        .output()
        .expect("spawn insitu join");
    assert!(!out.status.success(), "join must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&addr),
        "error must name the address: {stderr}"
    );
}

/// The failure contract's killed-joiner row, over real processes: a
/// joiner process killed mid-run fails its run promptly, by node —
/// the hub reads the dead connection's hangup, not a timeout — and its
/// shared-memory segments are reaped by pid. The in-process server
/// runs the distrib workflow at a size that lasts well over a second;
/// the joiners are `insitu join` children, as `launch` spawns them.
#[test]
fn a_killed_joiner_process_fails_its_run_by_node_within_bound() {
    use insitu::{serve, ServeOptions};
    use insitu_telemetry::Recorder;
    use insitu_util::shm::{reap_pid, segment_dir, segment_pid};
    use std::process::Stdio;
    use std::time::{Duration, Instant};

    let _hub = IN_PROCESS_HUB.lock().unwrap_or_else(|e| e.into_inner());
    let dag = std::fs::read_to_string(workflow_path("distrib.dag")).unwrap();
    let config = std::fs::read_to_string(workflow_path("distrib.cfg"))
        .unwrap()
        .replace("DOMAIN 8 8 8", "DOMAIN 32 32 32")
        .replace("ITERATIONS 2", "ITERATIONS 2000");
    let scenario = insitu_cli::build_scenario(&dag, &config).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut joiners: Vec<_> = (0..2)
        .map(|node| {
            insitu()
                .args(["join", "--connect", &addr, "--node", &node.to_string()])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn insitu join")
        })
        .collect();

    let recorder = Recorder::enabled();
    let opts = ServeOptions {
        recorder: recorder.clone(),
        ..ServeOptions::default()
    };
    // The bound below is not a get timing out.
    assert_eq!(opts.get_timeout, Duration::from_secs(60));
    let (tx, rx) = std::sync::mpsc::channel();
    let server = std::thread::spawn(move || {
        let _ = tx.send(serve(&listener, &dag, &config, &scenario, &opts).map(|_| ()));
    });

    // The hub sets the wave gauge once every joiner is greeted.
    let greeted = Instant::now() + Duration::from_secs(60);
    let waves = || {
        let snap = recorder.metrics_snapshot();
        snap.gauges.get("workflow.waves").map_or(0, |g| g.value)
    };
    while waves() == 0 {
        assert!(Instant::now() < greeted, "the joiners were never greeted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let killed = joiners[1].id();
    joiners[1].kill().unwrap();
    let since = Instant::now();
    let outcome = rx.recv_timeout(Duration::from_secs(10));
    let took = since.elapsed();
    for joiner in &mut joiners {
        let _ = joiner.kill();
        let _ = joiner.wait();
    }
    server.join().unwrap();
    match outcome {
        Ok(Err(why)) => assert!(why.contains("node 1"), "{why}"),
        Ok(Ok(())) => panic!("the run completed without node 1"),
        Err(_) => panic!("serve did not return within 10 s of the kill"),
    }
    assert!(took < Duration::from_secs(10), "{took:?}");

    reap_pid(&segment_dir(), killed);
    let left: Vec<_> = std::fs::read_dir(segment_dir())
        .unwrap()
        .flatten()
        .filter(|e| e.file_name().to_str().and_then(segment_pid) == Some(killed))
        .collect();
    assert!(left.is_empty(), "segments of pid {killed} left: {left:?}");
}
