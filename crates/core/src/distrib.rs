//! The distributed runner: the threaded executor's workflow split into
//! real OS processes over TCP.
//!
//! One process calls [`serve`] — it is the workflow management server
//! (§III.A): it greets one joiner per simulated node (its execution
//! client management), dispatches each wave's task assignments as
//! `Relay` frames, runs the wave barriers and merges the final per-node
//! reports. Every other process calls [`join`] — it rebuilds the *same*
//! execution state from the `Welcome` frame (scenario text, strategy,
//! get timeout) through the crate-private `exec` module, runs only the tasks its node
//! hosts, and ships everything that crosses processes through an
//! [`insitu_net::NetLink`].
//!
//! ## Accounting-once invariant
//!
//! Each logical transfer is accounted in exactly one process — the one
//! that initiates it: puts and their DHT inserts at the producer, gets
//! and pulls at the consumer, halo messages at the sender, and the
//! 12-byte dispatch messages at the server. Frames that mirror already
//! accounted state (`Relay` delivery, `PullData` registration,
//! `DhtInsert`/`GetDone`/`Evict`) never touch the receiving ledger.
//! The merged ledger — the server's own snapshot plus the sum of every
//! node's — is therefore byte-identical to a single-process
//! [`run_threaded`](crate::run_threaded) of the same scenario.
//!
//! One workflow-design caveat follows from the per-process schedule
//! cache (keyed by variable and query box): if two clients on
//! *different* nodes issue the same sequential-get query, the
//! single-process run serves the second from the shared cache (no DHT
//! traffic) while the distributed run computes it twice. Workflows
//! meant for cross-mode ledger comparison must give concurrently
//! running consumers distinct query regions; same-node and
//! cross-iteration repeats are safe (same process ↔ same cache in both
//! modes).

use crate::exec::{dispatch_payload, wave_tasks, ExecEnv, DISPATCH_BYTES, TAG_DISPATCH};
use crate::mapping::MappingStrategy;
use crate::scenario::Scenario;
use crate::threaded::ThreadedConfig;
use insitu_dart::Transport;
use insitu_fabric::{FaultInjector, LedgerSnapshot, MachineSpec, TrafficClass};
use insitu_net::conn::{recv_frame, send_frame};
use insitu_net::{connect_with_retry, Ctl, Frame, Hub, HubConfig, NetLink, NetMetrics, NodeReport};
use insitu_obs::{FlightRecorder, ProcessTrace};
use insitu_telemetry::Recorder;
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Knobs of the serving (workflow-server) process.
#[derive(Clone, Debug)]
pub struct ServeOptions {
    /// Task-mapping strategy; sent to every joiner in `Welcome`.
    pub strategy: MappingStrategy,
    /// Get timeout every replica must use (sent in `Welcome`).
    pub get_timeout: Duration,
    /// How long to wait for joiners to connect before failing.
    pub timeout: Duration,
    /// Fault sites to consult (inert by default).
    pub injector: FaultInjector,
    /// Telemetry recorder (`net.*` counters land here).
    pub recorder: Recorder,
    /// Cooperative cancellation flag, checked at every wave boundary:
    /// once set, the server shuts the run down (`Shutdown{ok: false}`)
    /// instead of dispatching the next wave.
    pub cancel: Arc<AtomicBool>,
    /// Run the data plane peer-to-peer: the hub ships every joiner the
    /// full peer-address table in `Welcome`, `PullData` flows over
    /// direct node↔node connections, and the hub carries control
    /// traffic only (asserted by the `net.pull_frames_hub` counter
    /// staying at zero). Off by default: star routing relays
    /// everything through the hub.
    pub p2p: bool,
    /// Allow same-host joiner pairs to move `PullData` payloads through
    /// shared-memory segments instead of the socket. On by default; off
    /// ships an empty host table in `Welcome`, so no joiner ever offers
    /// a segment — one knob, decided at the hub.
    pub shm: bool,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            strategy: MappingStrategy::DataCentric,
            get_timeout: Duration::from_secs(60),
            timeout: Duration::from_secs(30),
            injector: FaultInjector::none(),
            recorder: Recorder::disabled(),
            cancel: Arc::new(AtomicBool::new(false)),
            p2p: false,
            shm: true,
        }
    }
}

/// Knobs of a joining (node) process.
#[derive(Clone, Debug)]
pub struct JoinOptions {
    /// How long to keep trying to reach the server before failing.
    pub timeout: Duration,
    /// Fault sites to consult (inert by default).
    pub injector: FaultInjector,
    /// Telemetry recorder (`net.*` counters land here).
    pub recorder: Recorder,
    /// Flight recorder for per-run profiles (disabled by default; the
    /// service passes each run's recorders to its joiner threads).
    pub flight: FlightRecorder,
    /// Advertise this process's host fingerprint in `Hello`, letting
    /// same-host peers answer its pulls through shared memory. Off
    /// sends an empty fingerprint, which never matches: this joiner's
    /// pairs all ride the wire.
    pub shm: bool,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            timeout: Duration::from_secs(30),
            injector: FaultInjector::none(),
            recorder: Recorder::disabled(),
            flight: FlightRecorder::disabled(),
            shm: true,
        }
    }
}

/// The server's view of a completed distributed run.
#[derive(Clone, Debug)]
pub struct DistribOutcome {
    /// Strategy the run mapped under.
    pub strategy: MappingStrategy,
    /// Number of joiner processes (= simulated nodes).
    pub nodes: u32,
    /// Merged transfer ledger: the server's dispatch accounting plus
    /// every node's snapshot. Byte-identical to the single-process run.
    pub ledger: LedgerSnapshot,
    /// Value-verification failures summed over nodes.
    pub verify_failures: u64,
    /// Completed `get` operations summed over nodes.
    pub gets: u64,
    /// Buffers still registered at the end, each counted once (in its
    /// owner's process).
    pub staged_buffers: u64,
    /// Task errors from every node, rendered and sorted.
    pub errors: Vec<String>,
    /// Each joiner's shipped flight recording, one per node, ready for
    /// [`insitu_obs::merge_traces`]. A node whose telemetry was lost on
    /// the wire (or that never enabled its recorder and shipped only
    /// counters) still appears — the merge degrades, the run does not.
    pub telemetry: Vec<ProcessTrace>,
}

/// How long the server waits for a wave barrier or the final reports:
/// every task's gets can time out and the wave must still complete.
fn wave_timeout(get_timeout: Duration) -> Duration {
    get_timeout * 4 + Duration::from_secs(60)
}

/// Run the workflow server on an already bound listener.
///
/// `dag` and `config` are the workflow text shipped verbatim to every
/// joiner in `Welcome`; `scenario` must be the scenario that text
/// describes (the caller parsed it once already). Fails with a clear
/// error — never blocks past the deadlines — if joiners do not arrive
/// within `opts.timeout`, or a joiner dies mid-run.
pub fn serve(
    listener: &TcpListener,
    dag: &str,
    config: &str,
    scenario: &Scenario,
    opts: &ServeOptions,
) -> Result<DistribOutcome, String> {
    let cfg = ThreadedConfig {
        get_timeout: opts.get_timeout,
        injector: opts.injector.clone(),
        flight: FlightRecorder::disabled(),
    };
    // The server replicates the execution state like any node: it needs
    // the mapping for dispatch and the placement for dispatch accounting.
    // Its space and mailboxes stay idle — no tasks run here.
    let env = ExecEnv::build(scenario, opts.strategy, &opts.recorder, &cfg, None);
    let machine = env.mapped.machine;
    let metrics = NetMetrics::new(&opts.recorder);
    let hub = Hub::accept(
        listener,
        &HubConfig {
            nodes: machine.nodes,
            cores_per_node: machine.cores_per_node,
            strategy: opts.strategy.label().to_string(),
            get_timeout_ms: opts.get_timeout.as_millis() as u64,
            dag: dag.to_string(),
            config: config.to_string(),
            accept_timeout: opts.timeout,
            p2p: opts.p2p,
            shm: opts.shm,
        },
        &opts.injector,
        &metrics,
    )
    .map_err(|e| e.to_string())?;

    let deadline = wave_timeout(opts.get_timeout);
    // Wave progress for live observers (`insitu watch`): total up front,
    // completions as the barriers clear.
    opts.recorder
        .gauge("workflow.waves")
        .set(env.mapped.waves.len() as u64);
    let waves_done = opts.recorder.counter("workflow.waves_done");
    let group_us = opts.recorder.histogram("workflow.group_us");
    let execute_us = opts.recorder.histogram("workflow.execute_us");
    for (wi, wave) in env.mapped.waves.iter().enumerate() {
        if opts.cancel.load(Ordering::SeqCst) {
            let why = format!("run cancelled before wave {wi}");
            hub.shutdown(false, &why);
            return Err(why);
        }
        let tasks = wave_tasks(&env.scenario, &env.mapped, wave);
        // Dispatch, exactly as in-process: accounted here (Control
        // class, server co-resident with client 0's node), delivered
        // as a Relay so each client's first message is its
        // assignment — before RunWave on the same FIFO connection.
        group_us.time(|| {
            for &(app_id, rank, client) in &tasks {
                env.dart
                    .account(app_id, TrafficClass::Control, 0, client, DISPATCH_BYTES);
                hub.send_to(
                    client / machine.cores_per_node,
                    Frame::Relay {
                        to: client,
                        src: 0,
                        tag: TAG_DISPATCH,
                        payload: dispatch_payload(app_id, rank),
                    },
                );
            }
        });
        hub.broadcast(Frame::RunWave { wave: wi as u32 });
        if let Err(e) = execute_us.time(|| hub.wait_barrier(wi as u32, deadline)) {
            let why = format!("wave {wi} failed: {e}");
            hub.shutdown(false, &why);
            return Err(why);
        }
        waves_done.inc();
    }

    // Every wave barriered: no pull is in flight anywhere, and wire
    // events are recorded before their answers are enqueued, so each
    // joiner's flight recording is closed. The collect wave (index one
    // past the schedule) tells the joiners to ship telemetry and then
    // report on the same FIFO connection — the reports' arrival below
    // therefore implies every telemetry batch that survived the wire
    // has landed in the hub.
    hub.broadcast(Frame::RunWave {
        wave: env.mapped.waves.len() as u32,
    });
    let reports = match hub.collect_reports(deadline) {
        Ok(r) => r,
        Err(e) => {
            let why = format!("collecting node reports failed: {e}");
            hub.shutdown(false, &why);
            return Err(why);
        }
    };
    let telemetry = hub.take_telemetry();
    hub.shutdown(true, "");

    let mut merged = env.ledger.snapshot();
    let mut verify_failures = 0;
    let mut gets = 0;
    let mut staged_buffers = 0;
    let mut errors = Vec::new();
    for report in &reports {
        merged.merge(&report.ledger);
        verify_failures += report.verify_failures;
        gets += report.gets;
        staged_buffers += report.staged;
        errors.extend(report.errors.iter().cloned());
    }
    errors.sort();
    Ok(DistribOutcome {
        strategy: opts.strategy,
        nodes: machine.nodes,
        ledger: merged,
        verify_failures,
        gets,
        staged_buffers,
        errors,
        telemetry,
    })
}

/// Run one node process: connect to the server at `addr`, claim `node`,
/// rebuild the execution state from `Welcome` (parsing the workflow
/// text with `build`), run the waves the server drives, and report.
///
/// Fails with a clear error — never blocks indefinitely — when the
/// server is unreachable within `opts.timeout`, the handshake goes
/// wrong, or the server aborts the run.
pub fn join<F>(addr: &str, node: u32, build: F, opts: &JoinOptions) -> Result<(), String>
where
    F: FnOnce(&str, &str) -> Result<Scenario, String>,
{
    let metrics = NetMetrics::new(&opts.recorder);
    let mut stream = connect_with_retry(addr, node, opts.timeout, &opts.injector, &metrics)
        .map_err(|e| e.to_string())?;
    stream
        .set_nodelay(true)
        .and_then(|_| stream.set_read_timeout(Some(opts.timeout.max(Duration::from_millis(1)))))
        .map_err(|e| format!("socket setup: {e}"))?;
    // Bind the direct-pull listener up front, on the same interface the
    // server connection uses, and advertise it in Hello. Whether peers
    // actually dial it is the server's call: an empty peer table in
    // Welcome means star routing and the link simply drops it.
    let local_ip = stream
        .local_addr()
        .map_err(|e| format!("socket setup: {e}"))?
        .ip();
    let peer_listener =
        TcpListener::bind((local_ip, 0)).map_err(|e| format!("binding peer listener: {e}"))?;
    let peer_addr = peer_listener
        .local_addr()
        .map_err(|e| format!("socket setup: {e}"))?
        .to_string();
    // An opted-out joiner sends an empty fingerprint, which never
    // matches anyone: its pairs all ride the wire.
    let host = if opts.shm {
        insitu_util::shm::host_fingerprint()
    } else {
        String::new()
    };
    send_frame(
        &mut stream,
        &Frame::Hello {
            node,
            peer_addr,
            host,
        },
        &opts.injector,
        &metrics,
    )
    .map_err(|e| format!("greeting {addr}: {e}"))?;
    let (nodes, strategy, get_timeout_ms, dag, config, peers, hosts) =
        match recv_frame(&mut stream, &opts.injector, &metrics) {
            Ok(Frame::Welcome {
                nodes,
                strategy,
                get_timeout_ms,
                dag,
                config,
                peers,
                hosts,
            }) => (nodes, strategy, get_timeout_ms, dag, config, peers, hosts),
            Ok(Frame::Shutdown { reason, .. }) => {
                return Err(format!("server refused node {node}: {reason}"))
            }
            Ok(other) => {
                return Err(format!(
                    "expected Welcome from {addr}, got frame kind {}",
                    other.kind()
                ))
            }
            Err(e) => return Err(format!("no Welcome from {addr} within deadline: {e}")),
        };
    stream
        .set_read_timeout(None)
        .map_err(|e| format!("socket setup: {e}"))?;

    let strategy = MappingStrategy::from_label(&strategy)
        .ok_or_else(|| format!("server sent unknown strategy {strategy:?}"))?;
    let scenario = build(&dag, &config)?;
    let get_timeout = Duration::from_millis(get_timeout_ms);
    if node >= nodes {
        return Err(format!(
            "claimed node {node}, but the run has {nodes} nodes"
        ));
    }

    let cpn = scenario.cores_per_node;
    let link = NetLink::new(
        stream,
        node,
        MachineSpec::new(nodes, cpn),
        opts.injector.clone(),
        metrics,
        opts.flight.clone(),
        peers,
        hosts,
        peer_listener,
        opts.timeout.min(Duration::from_secs(5)),
    )
    .map_err(|e| e.to_string())?;
    let cfg = ThreadedConfig {
        get_timeout,
        injector: opts.injector.clone(),
        flight: opts.flight.clone(),
    };
    let env = ExecEnv::build(
        &scenario,
        strategy,
        &opts.recorder,
        &cfg,
        Some(Arc::clone(&link) as Arc<dyn Transport>),
    );
    if env.mapped.machine.nodes != nodes {
        link.close();
        return Err(format!(
            "scenario maps to {} nodes, but the server runs {nodes}",
            env.mapped.machine.nodes
        ));
    }
    debug_assert_eq!(env.mapped.machine.cores_per_node, cpn);

    // This frame is the sole owner of the link and the environment: the
    // link only looks back at the space through one `Weak` handle, so
    // everything built above dies when `join` returns.
    let ctl = link.start_reader(&env.space);
    let waves = env.mapped.waves.len() as u32;
    let result = loop {
        match ctl.recv() {
            Ok(Ctl::RunWave(w)) if w < waves => {
                let tasks = wave_tasks(&env.scenario, &env.mapped, &env.mapped.waves[w as usize]);
                let local: Vec<(u32, u64)> = tasks
                    .iter()
                    .filter(|&&(_, _, client)| client / cpn == node)
                    .map(|&(app, rank, _)| (app, rank))
                    .collect();
                env.run_tasks(&local);
                link.barrier(w);
            }
            Ok(Ctl::RunWave(_)) => {
                // The collect wave: every node barriered every wave, so
                // this process's flight recording is closed. Ship it
                // before the report — the hub connection is FIFO, so
                // the report's arrival proves every surviving batch
                // landed. A lost batch leaves a gap: telemetry loss
                // degrades the merged trace, never the run.
                link.ship_telemetry(
                    &opts.flight.snapshot(),
                    opts.flight.dropped(),
                    opts.recorder
                        .metrics_snapshot()
                        .counters
                        .into_iter()
                        .collect(),
                );
                link.report(NodeReport {
                    node,
                    ledger: env.ledger.snapshot(),
                    verify_failures: env.failures.load(Ordering::Relaxed),
                    staged: env.dart.registry().count_owned(|o| o / cpn == node),
                    gets: env.reports.lock().unwrap().len() as u64,
                    errors: env
                        .sorted_errors()
                        .iter()
                        .map(|(a, r, e)| format!("app {a} rank {r}: {e}"))
                        .collect(),
                });
            }
            Ok(Ctl::Shutdown { ok: true, .. }) => break Ok(()),
            Ok(Ctl::Shutdown { ok: false, reason }) => {
                break Err(format!("server aborted the run: {reason}"))
            }
            Err(_) => break Err("control channel closed before shutdown".to_string()),
        }
    };
    // Teardown order: stop the wire first (reactor joined, so no demux
    // is mid-frame), then let `env` go — the registry's buffers, both
    // ends' segment mappings and, with the link's last handle inside the
    // runtime, the reactor's waker. A joiner thread of `insitu serve`
    // hands all of it back before its run's nodes return to the budget.
    link.close();
    drop(env);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{concurrent_scenario, pattern_pairs, sequential_scenario_with_grids};
    use crate::threaded::run_threaded;

    /// Run `scenario` distributed over loopback (one serve thread, one
    /// join thread per node) and return the server's outcome.
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
    fn distributed_concurrent_ledger_matches_single_process() {
        let mut s = concurrent_scenario(4, 4, 4, pattern_pairs(&[2, 2, 1])[0]).with_iterations(2);
        s.cores_per_node = 4; // 8 tasks -> 2 nodes: producers on 0, consumers on 1
        let expected = run_threaded(&s, MappingStrategy::DataCentric);
        assert_eq!(expected.verify_failures, 0);

        let rec = Recorder::enabled();
        let got = run_distributed(&s, MappingStrategy::DataCentric, 2, &rec, false, true);
        assert_eq!(got.nodes, 2);
        assert_eq!(got.verify_failures, 0);
        assert!(got.errors.is_empty(), "{:?}", got.errors);
        assert_eq!(
            got.ledger, expected.ledger,
            "merged ledger must be byte-identical"
        );
        assert_eq!(got.gets, expected.reports.len() as u64);
        assert_eq!(got.staged_buffers, expected.staged_buffers);

        // Real bytes moved over real sockets, and the counters saw them.
        let snap = rec.metrics_snapshot();
        assert!(snap.counter("net.bytes_sent") > 0);
        assert!(snap.counter("net.bytes_recv") > 0);
        assert!(snap.counter("net.frames") > 0);
        // The server timed its phases, the joiners their eight tasks.
        assert!(snap.histograms["workflow.execute_us"].count >= 1);
        assert_eq!(snap.histograms["exec.task_us"].count, 8);
    }

    /// Scenario whose RoundRobin placement forces cross-node pulls (the
    /// consumers' gets land away from the staged pieces) — the workload
    /// for every data-plane topology test below.
    fn cross_node_scenario() -> Scenario {
        let mut s = sequential_scenario_with_grids(
            &[2, 2, 1],
            &[2, 1, 1],
            &[1, 2, 1],
            4,
            pattern_pairs(&[2, 2, 1])[0],
        );
        s.cores_per_node = 2;
        s
    }

    #[test]
    fn star_shm_carries_same_host_pulls_with_identical_ledger() {
        let s = cross_node_scenario();
        let expected = run_threaded(&s, MappingStrategy::RoundRobin);
        assert_eq!(expected.verify_failures, 0);

        let rec = Recorder::enabled();
        let got = run_distributed(&s, MappingStrategy::RoundRobin, 2, &rec, false, true);
        assert_eq!(got.verify_failures, 0);
        assert!(got.errors.is_empty(), "{:?}", got.errors);
        assert_eq!(
            got.ledger, expected.ledger,
            "shm transport must leave the merged ledger byte-identical"
        );
        assert_eq!(got.staged_buffers, expected.staged_buffers);

        // Every joiner shares this host, so with shm on (the default)
        // the cross-node payloads ride rings and loopback carries no
        // PullData at all.
        let snap = rec.metrics_snapshot();
        assert!(
            snap.counter("net.shm_frames") > 0,
            "same-host pulls must ride shared memory"
        );
        assert!(snap.counter("net.shm_bytes") > 0);
        assert_eq!(
            snap.counter("net.pull_frames_hub"),
            0,
            "no PullData may ride loopback between same-host pairs"
        );
        assert_eq!(snap.counter("net.shm_fallbacks"), 0);
    }

    #[test]
    fn distributed_shm_opt_out_falls_back_to_loopback() {
        let s = cross_node_scenario();
        let expected = run_threaded(&s, MappingStrategy::RoundRobin);

        let rec = Recorder::enabled();
        let got = run_distributed(&s, MappingStrategy::RoundRobin, 2, &rec, false, false);
        assert_eq!(got.verify_failures, 0);
        assert!(got.errors.is_empty(), "{:?}", got.errors);
        assert_eq!(
            got.ledger, expected.ledger,
            "opted-out ledger must be byte-identical too"
        );
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("net.shm_frames"), 0, "shm was opted out");
        assert!(
            snap.counter("net.pull_frames_hub") > 0,
            "PullData must ride the hub when shm is off"
        );
        assert_eq!(
            snap.counter("net.pull_frames_p2p"),
            0,
            "a star-routed run has no direct links to count"
        );
    }

    #[test]
    fn distributed_sequential_ledger_matches_single_process() {
        // Two consumer apps with *different* grids, so no two processes
        // issue the same schedule-cache query (see module docs).
        let s = cross_node_scenario(); // widest wave 4 tasks -> 2 nodes
        let expected = run_threaded(&s, MappingStrategy::RoundRobin);
        assert_eq!(expected.verify_failures, 0);

        let got = run_distributed(
            &s,
            MappingStrategy::RoundRobin,
            2,
            &Recorder::disabled(),
            false,
            true,
        );
        assert_eq!(got.verify_failures, 0);
        assert!(got.errors.is_empty(), "{:?}", got.errors);
        assert_eq!(
            got.ledger, expected.ledger,
            "merged ledger must be byte-identical"
        );
        assert_eq!(got.staged_buffers, expected.staged_buffers);
    }

    #[test]
    fn p2p_ledger_matches_single_process_and_data_bypasses_hub() {
        let s = cross_node_scenario();
        let expected = run_threaded(&s, MappingStrategy::RoundRobin);
        assert_eq!(expected.verify_failures, 0);

        // Shm off: this test pins down the p2p *wire* topology, so the
        // data plane must actually use the direct links it asserts on.
        let rec = Recorder::enabled();
        let got = run_distributed(&s, MappingStrategy::RoundRobin, 2, &rec, true, false);
        assert_eq!(got.verify_failures, 0);
        assert!(got.errors.is_empty(), "{:?}", got.errors);
        assert_eq!(
            got.ledger, expected.ledger,
            "p2p merged ledger must be byte-identical to the single-process run"
        );
        assert_eq!(got.gets, expected.reports.len() as u64);
        assert_eq!(got.staged_buffers, expected.staged_buffers);

        // The correctness anchor of the p2p topology: the hub carried
        // control traffic only, every PullData frame took a direct link.
        let snap = rec.metrics_snapshot();
        assert_eq!(
            snap.counter("net.pull_frames_hub"),
            0,
            "no PullData may traverse the hub in p2p mode"
        );
        assert!(
            snap.counter("net.pull_frames_p2p") > 0,
            "cross-node pulls must flow over direct peer links"
        );
    }

    #[test]
    fn telemetry_ships_and_stitches_across_processes() {
        // Same placement as the p2p gate test: RoundRobin forces the
        // consumers' gets to pull across nodes, so the traces must
        // contain hops to stitch — here over shm rings (the joiners
        // share this host and shm stays on), proving the merge stitches
        // shm sends/recvs exactly like wire ones.
        let s = cross_node_scenario();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let mut joiners = Vec::new();
        for node in 0..2 {
            let addr = addr.clone();
            let sc = s.clone();
            joiners.push(std::thread::spawn(move || {
                join(
                    &addr,
                    node,
                    move |_, _| Ok(sc),
                    &JoinOptions {
                        timeout: Duration::from_secs(20),
                        // Per-joiner recorders, as real processes have.
                        recorder: Recorder::enabled(),
                        flight: FlightRecorder::enabled(),
                        ..JoinOptions::default()
                    },
                )
            }));
        }
        let outcome = serve(
            &listener,
            "",
            "",
            &s,
            &ServeOptions {
                strategy: MappingStrategy::RoundRobin,
                timeout: Duration::from_secs(20),
                p2p: true,
                ..ServeOptions::default()
            },
        )
        .unwrap();
        for j in joiners {
            j.join().unwrap().unwrap();
        }

        assert_eq!(outcome.telemetry.len(), 2);
        for t in &outcome.telemetry {
            assert!(t.complete, "node {} telemetry must be complete", t.node);
            assert!(!t.events.is_empty(), "node {} shipped no events", t.node);
            assert!(
                t.counters.contains_key("net.frames"),
                "node {} counters must travel on the last batch",
                t.node
            );
        }
        let merged = insitu_obs::merge_traces(outcome.telemetry);
        assert!(merged.stitched > 0, "cross-node pulls must stitch");
        assert_eq!(merged.unmatched_sends, 0, "{:?}", merged.warnings());
        assert_eq!(merged.unmatched_recvs, 0, "{:?}", merged.warnings());
        assert!(merged.fully_stitched());
        assert!(merged.incomplete.is_empty());
    }

    /// A stray connection costs only itself. Before the run's joiners
    /// arrive, the hub's port gets garbage, a silent connection held
    /// open, a hangup, a first frame that is not a `Hello` and a `Hello`
    /// outside the run; once node 0 is greeted, a second `join` claims
    /// it too. That claim is refused by name within a second, and the
    /// run completes within 5 s of its last joiner's connect, with the
    /// single-process ledger.
    #[test]
    fn stray_connections_cost_only_themselves() {
        use std::io::Write;
        use std::time::Instant;
        let s = cross_node_scenario();
        let expected = run_threaded(&s, MappingStrategy::RoundRobin);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let recorder = Recorder::enabled();
        // The hub's frames in either direction: the run's joiners count
        // theirs elsewhere.
        let hub_frames_reach = |n: u64| {
            let deadline = Instant::now() + Duration::from_secs(10);
            while recorder.metrics_snapshot().counter("net.frames") < n {
                assert!(Instant::now() < deadline, "the hub moved under {n} frames");
                std::thread::sleep(Duration::from_millis(1));
            }
        };
        let join_opts = || JoinOptions {
            timeout: Duration::from_secs(20),
            ..JoinOptions::default()
        };
        let serve_opts = ServeOptions {
            strategy: MappingStrategy::RoundRobin,
            timeout: Duration::from_secs(20),
            recorder: recorder.clone(),
            ..ServeOptions::default()
        };
        std::thread::scope(|scope| {
            let served = scope.spawn(|| serve(&listener, "", "", &s, &serve_opts));
            let dial = |bytes: &[u8]| {
                let mut c = std::net::TcpStream::connect(&addr).unwrap();
                c.write_all(bytes).unwrap();
                c
            };
            let stray_hello = Frame::Hello {
                node: 2,
                peer_addr: String::new(),
                host: String::new(),
            };
            let _strays = [
                dial(&u32::MAX.to_le_bytes()),
                dial(&[]),
                dial(&Frame::Barrier { wave: 0, node: 0 }.encode()),
                dial(&stray_hello.encode()),
            ];
            drop(dial(&[]));
            // The `Barrier` and the stray `Hello` read and refused.
            hub_frames_reach(4);
            let join_node = |node| {
                let sc = s.clone();
                let addr = &addr;
                scope.spawn(move || join(addr, node, move |_, _| Ok(sc), &join_opts()))
            };
            let first = join_node(0);
            hub_frames_reach(5);
            let claimed = Instant::now();
            let never = |_: &str, _: &str| -> Result<Scenario, String> { unreachable!() };
            let err = join(&addr, 0, never, &join_opts()).unwrap_err();
            assert!(claimed.elapsed() < Duration::from_secs(1), "{err}");
            assert_eq!(err, "server refused node 0: node 0 is already claimed");
            let last = Instant::now();
            let second = join_node(1);
            let outcome = served.join().unwrap().unwrap();
            assert!(last.elapsed() < Duration::from_secs(5));
            first.join().unwrap().unwrap();
            second.join().unwrap().unwrap();
            assert_eq!(outcome.verify_failures, 0);
            assert_eq!(outcome.ledger, expected.ledger);
        });
    }

    #[test]
    fn join_fails_fast_on_unreachable_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener); // nothing listens here anymore
        let err = join(
            &addr,
            0,
            |_, _| -> Result<Scenario, String> { unreachable!("never welcomed") },
            &JoinOptions {
                timeout: Duration::from_millis(150),
                ..JoinOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains(&addr), "error must name the address: {err}");
    }

    #[test]
    fn serve_fails_fast_when_joiners_never_arrive() {
        let mut s = concurrent_scenario(4, 4, 4, pattern_pairs(&[2, 2, 1])[0]);
        s.cores_per_node = 4;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let err = serve(
            &listener,
            "",
            "",
            &s,
            &ServeOptions {
                timeout: Duration::from_millis(150),
                ..ServeOptions::default()
            },
        )
        .unwrap_err();
        assert!(err.contains("joiners"), "{err}");
    }
}
