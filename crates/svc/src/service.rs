//! The service: RPC port (one [`Reactor`]), admission queue and
//! per-run engines, each owning its run's joiner threads.

use insitu::{join, map_scenario, serve, JoinOptions, MappingStrategy, Scenario, ServeOptions};
use insitu_fabric::FaultInjector;
use insitu_net::{
    ConnEvent, Frame, NetMetrics, Reactor, ReactorHandle, RunState, RunSummary, Sink, Token,
};
use insitu_obs::{
    chrome_trace_merged, merge_traces, EventKind, FlightRecorder, LinkClass, ProcessTrace,
    ProfileReport,
};
use insitu_telemetry::Recorder;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Builds the scenario a (dag, config) text pair describes. The same
/// callback validates submissions and rebuilds replicas inside each
/// run's joiner threads, so every participant agrees on the workflow.
pub type ScenarioBuilder = Arc<dyn Fn(&str, &str) -> Result<Scenario, String> + Send + Sync>;

/// Service tuning knobs.
#[derive(Clone)]
pub struct SvcConfig {
    /// Maximum runs executing concurrently; the rest queue.
    pub max_runs: usize,
    /// Maximum queued (admitted-but-waiting) runs; `Submit` beyond this
    /// is refused with `RpcErr`.
    pub queue_depth: usize,
    /// The node budget: how many simulated nodes the executing runs
    /// may hold at once. An admitted run's engine hosts each of its
    /// nodes on a joiner thread of its own, for the run's lifetime; a
    /// run needing more nodes than this is refused at submit time.
    pub pool_nodes: u32,
    /// How long a run's joiners may take to wire up its private hub.
    pub connect_timeout: Duration,
    /// Directory for per-run artifact files
    /// (`run-<id>.{ledger,metrics,profile,trace}.json`); `None` keeps
    /// the three RPC-served artifacts in memory only and renders no
    /// chrome trace at all — the trace exists on disk or nowhere.
    pub artifacts_dir: Option<PathBuf>,
    /// Print run lifecycle transitions to stdout (`insitu serve` does).
    pub verbose: bool,
    /// Run every run's data plane peer-to-peer: joiners exchange
    /// `PullData` over direct links and each run's private hub carries
    /// control traffic only. Off by default (star topology).
    pub p2p: bool,
    /// Allow same-host pulls to ride shared-memory rings (on by
    /// default). Off forces every run's `PullData` onto the socket —
    /// the wire-pinning chaos tests need that, and `serve --no-shm`
    /// exposes it.
    pub shm: bool,
    /// Fault sites consulted by every run's server and joiners
    /// (inert by default); `insitu serve --faults` wires a chaos plan
    /// through here.
    pub injector: FaultInjector,
    /// Link-health watchdog tuning.
    pub watchdog: WatchdogConfig,
}

impl Default for SvcConfig {
    fn default() -> Self {
        SvcConfig {
            max_runs: 4,
            queue_depth: 32,
            pool_nodes: 8,
            connect_timeout: Duration::from_secs(30),
            artifacts_dir: None,
            verbose: false,
            p2p: false,
            shm: true,
            injector: FaultInjector::none(),
            watchdog: WatchdogConfig::default(),
        }
    }
}

/// Link-health watchdog tuning.
#[derive(Clone, Copy, Debug)]
pub struct WatchdogConfig {
    /// Sampling cadence; also the floor for `Watch` stream intervals.
    pub poll_ms: u64,
    /// A run with pulls in flight and no pull completions for this long
    /// earns a `link-stall` health event (once per stall episode) and a
    /// `net.link_stalls` count.
    pub stall_ms: u64,
    /// A link class whose pull-wait p99 exceeds this multiple of its
    /// run-local baseline (first sample with >= 8 pulls) earns a
    /// `link-degraded` health event (once per class).
    pub p99_factor: f64,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            poll_ms: 200,
            stall_ms: 2000,
            p99_factor: 4.0,
        }
    }
}

/// What a terminal run keeps in memory: the three artifacts `RunResult`
/// serves, and its errors. The merged chrome trace is not among them —
/// no RPC serves it, so it goes to `artifacts_dir` or is never rendered.
#[derive(Clone, Default)]
struct Artifacts {
    ledger_json: String,
    metrics_json: String,
    profile_json: String,
    errors: Vec<String>,
}

/// Live numeric progress of a run: refreshed by the watchdog while the
/// run executes, finalized by the run engine. Feeds `Progress` frames.
#[derive(Clone, Copy, Default)]
struct ProgressSample {
    wave: u32,
    waves: u32,
    pulls: u64,
    pull_bytes: u64,
    shm_wait_p50_us: u64,
    shm_wait_p99_us: u64,
    rdma_wait_p50_us: u64,
    rdma_wait_p99_us: u64,
    pulls_in_flight: u64,
    bytes_in_flight: u64,
    queue_depth: u64,
    sub_active: u64,
    sub_pushes: u64,
    sub_lagged: u64,
}

/// One submitted run's registry entry.
struct RunEntry {
    name: String,
    /// The submitted workflow text and the scenario validation built
    /// from it, held only while the run is queued: its engine takes all
    /// three when the run is admitted.
    dag: String,
    config: String,
    scenario: Option<Scenario>,
    strategy: MappingStrategy,
    get_timeout: Duration,
    nodes: u32,
    /// Admission priority: higher values are queued ahead of lower
    /// ones, first-come-first-served within a level.
    priority: u32,
    /// Admission order stamp (0-based), set when the scheduler admits
    /// the run; `None` while queued or refused.
    admitted_seq: Option<u64>,
    state: RunState,
    detail: String,
    cancel: Arc<AtomicBool>,
    artifacts: Artifacts,
    /// Stall episodes the watchdog counted for this run.
    link_stalls: u64,
    /// Structured health events (`link-stall: ...`, `link-degraded:
    /// ...`), appended once per episode.
    health: Vec<String>,
    progress: ProgressSample,
    /// The executing run's recorder and its joiners' flight recorders,
    /// in node order, for the watchdog to sample: set at admission,
    /// cleared with the final sample.
    live: Option<(Recorder, Vec<FlightRecorder>)>,
}

impl RunEntry {
    fn summary(&self, id: u64) -> RunSummary {
        RunSummary {
            run: id,
            name: self.name.clone(),
            state: self.state,
            nodes: self.nodes,
            detail: self.detail.clone(),
            link_stalls: self.link_stalls,
            health: self.health.clone(),
        }
    }

    fn progress_frame(&self, id: u64, done: bool) -> Frame {
        let p = self.progress;
        Frame::Progress {
            run: id,
            state: self.state,
            done,
            wave: p.wave,
            waves: p.waves,
            pulls: p.pulls,
            pull_bytes: p.pull_bytes,
            shm_wait_p50_us: p.shm_wait_p50_us,
            shm_wait_p99_us: p.shm_wait_p99_us,
            rdma_wait_p50_us: p.rdma_wait_p50_us,
            rdma_wait_p99_us: p.rdma_wait_p99_us,
            pulls_in_flight: p.pulls_in_flight,
            bytes_in_flight: p.bytes_in_flight,
            queue_depth: p.queue_depth,
            sub_active: p.sub_active,
            sub_pushes: p.sub_pushes,
            sub_lagged: p.sub_lagged,
            link_stalls: self.link_stalls,
            health: self.health.clone(),
        }
    }
}

/// Mutable service state behind one lock.
struct State {
    /// All runs ever submitted; `RunId = index + 1` (ids are 1-based so
    /// a run's key epoch is never the no-salt epoch 0).
    runs: Vec<RunEntry>,
    /// Queued run ids, admission order: descending priority, FIFO
    /// within a level (`submit` inserts behind the last entry of equal
    /// or higher priority, so the head is always the next run due).
    queue: VecDeque<u64>,
    /// Runs admitted so far; stamps `RunEntry::admitted_seq`.
    admissions: u64,
    /// Runs currently executing.
    running: usize,
    /// Budget nodes not reserved by an executing run.
    free_nodes: u32,
    /// Set once `shutdown` begins; stops the scheduler and the watchdog.
    stopping: bool,
    /// `Submit` requests awaiting validation on the scheduler thread,
    /// with the connection each answer goes to.
    submits: VecDeque<(Token, Frame)>,
    /// Registered `Watch` streams, at most one per connection; a run's
    /// leave when it turns terminal.
    watchers: Vec<Watcher>,
}

/// One registered `Watch`: the watchdog sends it the run's sample
/// whenever `every` has passed since the last.
struct Watcher {
    token: Token,
    run: u64,
    /// The requested interval, floored at the watchdog cadence:
    /// samples cannot refresh faster than they are taken.
    every: Duration,
    last: Instant,
}

impl State {
    fn entry(&self, run: u64) -> Option<&RunEntry> {
        run.checked_sub(1).and_then(|i| self.runs.get(i as usize))
    }

    /// Make run `id` terminal: the one place a run ends, whether its
    /// engine returned, it was cancelled while queued, or the service
    /// shut down around it. Its watchers get the final frame and are
    /// dropped, under the lock `watch` registers under, so none misses
    /// it.
    fn end_run(&mut self, id: u64, state: RunState, detail: String, rpc: &ReactorHandle) {
        let e = &mut self.runs[id as usize - 1];
        e.state = state;
        e.detail = detail;
        let last = e.progress_frame(id, true);
        for w in self.watchers.iter().filter(|w| w.run == id) {
            rpc.send(w.token, last.clone());
        }
        self.watchers.retain(|w| w.run != id);
    }
}

struct Shared {
    cfg: SvcConfig,
    build: ScenarioBuilder,
    state: Mutex<State>,
    /// Signals the scheduler: a submission arrived, the queue grew, a
    /// run finished, or stopping — which the watchdog waits on too.
    sched: Condvar,
    /// Sends on the RPC port's connections: answers and `Progress`.
    rpc: ReactorHandle,
    /// Engine threads still executing (the scheduler drops finished
    /// handles as it admits), joined on shutdown.
    engines: Mutex<Vec<JoinHandle<()>>>,
}

/// A running workflow service. Dropping without [`Service::shutdown`]
/// closes the RPC port but leaks the other threads; the CLI runs it for
/// the process lifetime, tests shut it down explicitly.
pub struct Service {
    addr: SocketAddr,
    shared: Arc<Shared>,
    /// The RPC port: its listener and every client connection.
    reactor: Reactor,
    scheduler: JoinHandle<()>,
    watchdog: JoinHandle<()>,
}

impl Service {
    /// Start the service on an already bound listener: adopts it onto
    /// the RPC port's reactor and spawns the admission scheduler and the
    /// watchdog.
    pub fn start(
        listener: TcpListener,
        cfg: SvcConfig,
        build: ScenarioBuilder,
    ) -> Result<Service, String> {
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot resolve service listener address: {e}"))?;
        let metrics = NetMetrics::new(&Recorder::disabled());
        let reactor = Reactor::spawn("svc", FaultInjector::none(), metrics)
            .map_err(|e| format!("cannot start the RPC port: {e}"))?;
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                runs: Vec::new(),
                queue: VecDeque::new(),
                admissions: 0,
                running: 0,
                free_nodes: cfg.pool_nodes,
                stopping: false,
                submits: VecDeque::new(),
                watchers: Vec::new(),
            }),
            sched: Condvar::new(),
            rpc: reactor.handle(),
            engines: Mutex::new(Vec::new()),
            cfg,
            build,
        });

        let sched = Arc::clone(&shared);
        let scheduler = spawn_thread("svc-scheduler".into(), move || scheduler_loop(&sched))?;
        let dog = Arc::clone(&shared);
        let watchdog = spawn_thread("svc-watchdog".into(), move || watchdog_loop(&dog))?;

        let weak = Arc::downgrade(&shared);
        reactor.handle().add_listener(
            listener,
            Box::new(move |token, _addr| rpc_sink(weak.clone(), token)),
        );

        Ok(Service {
            addr,
            shared,
            reactor,
            scheduler,
            watchdog,
        })
    }

    /// The address the RPC listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the service: cancels every queued run, flags every running
    /// run for cancellation at its next wave boundary, stops the
    /// scheduler and the watchdog, waits for the engines — each joins
    /// its run's joiner threads — to drain and then, with every final
    /// `Progress` flushed, stops the RPC port.
    pub fn shutdown(self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.stopping = true;
            while let Some(id) = st.queue.pop_front() {
                let why = "service shutting down".into();
                st.end_run(id, RunState::Cancelled, why, &self.shared.rpc);
            }
            for e in &st.runs {
                if e.state == RunState::Running {
                    e.cancel.store(true, Ordering::SeqCst);
                }
            }
            self.shared.sched.notify_all();
        }
        let _ = self.scheduler.join();
        let _ = self.watchdog.join();
        for h in self.shared.engines.lock().unwrap().drain(..) {
            let _ = h.join();
        }
        self.reactor.shutdown();
    }
}

fn spawn_thread(
    name: String,
    body: impl FnOnce() + Send + 'static,
) -> Result<JoinHandle<()>, String> {
    let thread = std::thread::Builder::new().name(name.clone());
    thread
        .spawn(body)
        .map_err(|e| format!("cannot spawn {name}: {e}"))
}

/// Strict-FIFO admission: only the queue head is considered, and it is
/// admitted only when a run slot *and* enough free budget nodes exist.
fn admissible(st: &State, max_runs: usize) -> bool {
    match st.queue.front() {
        Some(&id) => st.running < max_runs && st.runs[id as usize - 1].nodes <= st.free_nodes,
        None => false,
    }
}

/// The scheduler: validates each submission and admits the queue head
/// whenever it fits. Submissions still waiting at shutdown go
/// unanswered; the RPC port closes their connections.
fn scheduler_loop(shared: &Arc<Shared>) {
    loop {
        let admitted = {
            let mut st = shared.state.lock().unwrap();
            while !st.stopping && st.submits.is_empty() && !admissible(&st, shared.cfg.max_runs) {
                st = shared.sched.wait(st).unwrap();
            }
            if st.stopping {
                return;
            }
            if let Some((token, request)) = st.submits.pop_front() {
                // Compiling and mapping an untrusted workflow of up to
                // `MAX_FRAME_LEN` bytes: off the lock, and off the loop
                // every other client's answers ride.
                drop(st);
                shared.rpc.send(token, submit(shared, request));
                continue;
            }
            let id = st.queue.pop_front().expect("admissible queue head");
            let seq = st.admissions;
            st.admissions += 1;
            let e = &mut st.runs[id as usize - 1];
            e.state = RunState::Running;
            e.admitted_seq = Some(seq);
            let nodes = e.nodes;
            st.running += 1;
            st.free_nodes -= nodes;
            id
        };
        if shared.cfg.verbose {
            println!("run {admitted}: admitted");
        }
        let shared2 = Arc::clone(shared);
        let engine = spawn_thread(format!("svc-run-{admitted}"), move || {
            run_engine(&shared2, admitted)
        })
        .expect("spawn run engine");
        // Reap as we admit: a finished engine's handle pins its thread's
        // stack until it is joined or dropped, one per run ever served.
        let mut engines = shared.engines.lock().unwrap();
        engines.retain(|h| !h.is_finished());
        engines.push(engine);
    }
}

/// Execute one admitted run: a private loopback hub, one joiner thread
/// per node, `serve` to completion, artifacts into the registry. The
/// run is terminal as soon as `serve` returns; its slot and nodes come
/// back once its joiner threads are joined: they live and die with it.
fn run_engine(shared: &Arc<Shared>, id: u64) {
    let recorder = Recorder::enabled();
    let (dag, config, scenario, strategy, get_timeout, nodes, cancel, flights) = {
        let mut st = shared.state.lock().unwrap();
        let e = &mut st.runs[id as usize - 1];
        // One flight recorder per joiner, each its own process-local
        // trace as a real distributed joiner's; the merged artifacts
        // come from the wire's telemetry path (shipped to the run hub).
        let flights: Vec<FlightRecorder> =
            (0..e.nodes).map(|_| FlightRecorder::enabled()).collect();
        e.live = Some((recorder.clone(), flights.clone()));
        // Taken, not cloned: this engine is their only reader, and a
        // terminal entry should hold its summary and artifacts only.
        (
            std::mem::take(&mut e.dag),
            std::mem::take(&mut e.config),
            e.scenario.take(),
            e.strategy,
            e.get_timeout,
            e.nodes,
            Arc::clone(&e.cancel),
            flights,
        )
    };
    std::thread::scope(|scope| {
        let mut joiners = Vec::new();
        let result = (|| -> Result<_, String> {
            let scenario = scenario.ok_or("admitted without the scenario submit built")?;
            let listener = TcpListener::bind("127.0.0.1:0")
                .map_err(|e| format!("cannot bind run hub: {e}"))?;
            let addr = listener
                .local_addr()
                .map_err(|e| format!("cannot resolve run hub address: {e}"))?
                .to_string();
            for (node, flight) in (0..nodes).zip(&flights) {
                let (addr, build) = (addr.clone(), &shared.build);
                let opts = JoinOptions {
                    timeout: shared.cfg.connect_timeout,
                    injector: shared.cfg.injector.clone(),
                    recorder: recorder.clone(),
                    flight: flight.clone(),
                    shm: true,
                };
                let joiner = std::thread::Builder::new()
                    .name(format!("svc-run-{id}-n{node}"))
                    .spawn_scoped(scope, move || {
                        let _ = join(&addr, node, |dag, config| build(dag, config), &opts);
                    })
                    .map_err(|e| format!("cannot spawn the joiner of node {node}: {e}"))?;
                joiners.push(joiner);
            }
            serve(
                &listener,
                &dag,
                &config,
                &scenario,
                &ServeOptions {
                    strategy,
                    get_timeout,
                    timeout: shared.cfg.connect_timeout,
                    injector: shared.cfg.injector.clone(),
                    recorder: recorder.clone(),
                    run_epoch: id,
                    cancel: Arc::clone(&cancel),
                    flight: FlightRecorder::disabled(),
                    p2p: shared.cfg.p2p,
                    shm: shared.cfg.shm,
                },
            )
        })();
        conclude(shared, id, result, &recorder, &flights, &cancel);
        // A joiner's error is already in the hub's view of the run (a
        // missing node fails the accept or a wave barrier), and its
        // panic stops at its handle: the run's nodes still come back.
        for joiner in joiners {
            let _ = joiner.join();
        }
    });
    let mut st = shared.state.lock().unwrap();
    st.running -= 1;
    st.free_nodes += nodes;
    shared.sched.notify_all();
}

/// Make an engine's run terminal: its final sample, its artifacts in
/// the registry (and in `artifacts_dir`), and `State::end_run`.
fn conclude(
    shared: &Shared,
    id: u64,
    result: Result<insitu::DistribOutcome, String>,
    recorder: &Recorder,
    flights: &[FlightRecorder],
    cancel: &AtomicBool,
) {
    let final_progress = sample_run(recorder, flights).0;
    let metrics_json = recorder.metrics_snapshot().to_json().render();
    let (state, detail, ledger_json, errors, merged) = match result {
        Ok(outcome) => {
            let detail = if outcome.verify_failures > 0 {
                format!("{} verify failures", outcome.verify_failures)
            } else {
                String::new()
            };
            (
                RunState::Done,
                detail,
                outcome.ledger.to_json().render(),
                outcome.errors,
                // The merged causal trace: the joiners' telemetry,
                // stitched at the hub.
                merge_traces(outcome.telemetry),
            )
        }
        Err(why) => {
            // No telemetry made it back; profile what the joiner
            // threads recorded locally so failed runs still leave a
            // trace behind.
            let traces: Vec<ProcessTrace> = flights
                .iter()
                .enumerate()
                .map(|(node, f)| ProcessTrace {
                    node: node as u32,
                    events: f.snapshot(),
                    dropped: f.dropped(),
                    counters: BTreeMap::new(),
                    complete: false,
                })
                .collect();
            let state = if cancel.load(Ordering::SeqCst) {
                RunState::Cancelled
            } else {
                RunState::Failed
            };
            (
                state,
                why.clone(),
                String::new(),
                vec![why],
                merge_traces(traces),
            )
        }
    };
    // Lost telemetry degrades a completed run's merge — surfaced as
    // health events, not errors: a run whose tasks all succeeded is
    // healthy even when its trace is partial. (A failed run's local
    // fallback is incomplete by construction and says nothing.)
    let telemetry_health: Vec<String> = if state == RunState::Done {
        let warnings = merged.warnings().into_iter();
        warnings.map(|w| format!("telemetry: {w}")).collect()
    } else {
        Vec::new()
    };
    let artifacts = Artifacts {
        ledger_json,
        metrics_json,
        profile_json: ProfileReport::analyze(&merged.events, merged.dropped)
            .to_json()
            .render(),
        errors,
    };

    if let Some(dir) = &shared.cfg.artifacts_dir {
        let _ = std::fs::create_dir_all(dir);
        // The chrome trace is the one artifact no RPC serves, and the
        // largest: rendered only here, where it has somewhere to go,
        // and dropped once written.
        let trace_json = chrome_trace_merged(&merged).render();
        for (kind, body) in [
            ("ledger", &artifacts.ledger_json),
            ("metrics", &artifacts.metrics_json),
            ("profile", &artifacts.profile_json),
            ("trace", &trace_json),
        ] {
            if !body.is_empty() {
                let _ = std::fs::write(dir.join(format!("run-{id}.{kind}.json")), body);
            }
        }
    }

    if shared.cfg.verbose {
        println!(
            "run {id}: {state}{}",
            if detail.is_empty() {
                String::new()
            } else {
                format!(" ({detail})")
            }
        );
    }
    let mut st = shared.state.lock().unwrap();
    let e = &mut st.runs[id as usize - 1];
    e.artifacts = artifacts;
    e.health.extend(telemetry_health);
    e.progress = final_progress;
    e.live = None;
    st.end_run(id, state, detail, &shared.rpc);
}

/// Sample one run's live numbers: wave progress and in-flight gauges
/// from the shared metrics registry, pull counts and per-class wait
/// percentiles from the joiners' flight recorders. The second
/// value is the per-class pull count (`[shm, rdma]`), used by the
/// watchdog's drift detector.
fn sample_run(recorder: &Recorder, flights: &[FlightRecorder]) -> (ProgressSample, [u64; 2]) {
    let snap = recorder.metrics_snapshot();
    let mut waits: [Vec<u64>; 2] = [Vec::new(), Vec::new()];
    let mut pulls = 0u64;
    let mut pull_bytes = 0u64;
    for f in flights {
        for e in f.snapshot() {
            if let EventKind::Pull { wait_us } = e.kind {
                pulls += 1;
                pull_bytes += e.bytes;
                let class = match e.link {
                    Some(LinkClass::Shm) => 0,
                    _ => 1,
                };
                waits[class].push(wait_us);
            }
        }
    }
    for w in &mut waits {
        w.sort_unstable();
    }
    let q = |w: &[u64], q: f64| -> u64 {
        if w.is_empty() {
            0
        } else {
            w[((q * w.len() as f64).ceil() as usize).clamp(1, w.len()) - 1]
        }
    };
    let gauge = |name: &str| snap.gauges.get(name).map_or(0, |g| g.value);
    let sample = ProgressSample {
        wave: snap.counter("workflow.waves_done") as u32,
        waves: gauge("workflow.waves") as u32,
        pulls,
        pull_bytes,
        shm_wait_p50_us: q(&waits[0], 0.50),
        shm_wait_p99_us: q(&waits[0], 0.99),
        rdma_wait_p50_us: q(&waits[1], 0.50),
        rdma_wait_p99_us: q(&waits[1], 0.99),
        pulls_in_flight: gauge("net.pulls_in_flight"),
        bytes_in_flight: gauge("cods.staging_bytes"),
        queue_depth: gauge("net.bytes_in_flight"),
        sub_active: gauge("sub.active"),
        sub_pushes: snap.counter("sub.pushes"),
        sub_lagged: snap.counter("sub.lagged"),
    };
    (sample, [waits[0].len() as u64, waits[1].len() as u64])
}

/// Per-run detection state the watchdog keeps between polls.
#[derive(Default)]
struct WatchState {
    last_progress: (u64, u64),
    last_change: Option<Instant>,
    /// Inside a flagged stall episode (re-arms when progress resumes).
    stalled: bool,
    /// First-sample pull-wait p99 per class (`[shm, rdma]`), the
    /// run-local drift baseline.
    baseline_p99: [Option<u64>; 2],
    degraded: [bool; 2],
}

/// The link-health watchdog: polls every executing run's recorders,
/// refreshes its `Progress` sample and raises `link-stall` /
/// `link-degraded` health events, then sends each watcher that is due
/// its run's sample. Detection is per episode: a stall is counted once
/// until progress resumes, a degraded class once per run. Between
/// ticks it waits on the `sched` condvar, so `shutdown` ends it at
/// once; other notifications leave the cadence alone.
fn watchdog_loop(shared: &Arc<Shared>) {
    let cfg = shared.cfg.watchdog;
    let tick = Duration::from_millis(cfg.poll_ms.max(5));
    let mut states: HashMap<u64, WatchState> = HashMap::new();
    loop {
        let live: Vec<(u64, (Recorder, Vec<FlightRecorder>))> = {
            let (sched, st) = (&shared.sched, shared.state.lock().unwrap());
            let (st, _) = sched
                .wait_timeout_while(st, tick, |st| !st.stopping)
                .unwrap();
            if st.stopping {
                return;
            }
            let runs = (1..).zip(&st.runs);
            runs.filter_map(|(id, e)| Some((id, e.live.clone()?)))
                .collect()
        };
        states.retain(|id, _| live.iter().any(|(lid, _)| lid == id));
        for (id, (recorder, flights)) in live {
            let (sample, class_pulls) = sample_run(&recorder, &flights);
            let st = states.entry(id).or_default();
            let mut events: Vec<String> = Vec::new();
            let now = Instant::now();
            let progress = (sample.pulls, sample.pull_bytes);
            let mut stalled_now = false;
            match st.last_change {
                Some(since) if progress == st.last_progress => {
                    if sample.pulls_in_flight > 0
                        && !st.stalled
                        && now.duration_since(since) >= Duration::from_millis(cfg.stall_ms)
                    {
                        st.stalled = true;
                        stalled_now = true;
                        recorder.counter("net.link_stalls").inc();
                        events.push(format!(
                            "link-stall: {} pull(s) in flight, no completion for {} ms",
                            sample.pulls_in_flight, cfg.stall_ms
                        ));
                    }
                }
                _ => {
                    st.last_progress = progress;
                    st.last_change = Some(now);
                    st.stalled = false;
                }
            }
            for (class, label) in [(0usize, "shm"), (1usize, "rdma")] {
                if class_pulls[class] < 8 {
                    continue;
                }
                let p99 = [sample.shm_wait_p99_us, sample.rdma_wait_p99_us][class];
                match st.baseline_p99[class] {
                    None => st.baseline_p99[class] = Some(p99.max(1)),
                    Some(base) => {
                        if !st.degraded[class] && p99 as f64 > cfg.p99_factor * base as f64 {
                            st.degraded[class] = true;
                            events.push(format!(
                                "link-degraded: {label} pull-wait p99 {p99} us exceeds \
                                 {}x run baseline {base} us",
                                cfg.p99_factor
                            ));
                        }
                    }
                }
            }
            let mut stl = shared.state.lock().unwrap();
            if let Some(e) = stl
                .runs
                .get_mut(id as usize - 1)
                .filter(|e| e.state == RunState::Running)
            {
                e.progress = sample;
                if stalled_now {
                    e.link_stalls += 1;
                }
                e.health.extend(events);
            }
        }
        let now = Instant::now();
        let mut st = shared.state.lock().unwrap();
        let State { runs, watchers, .. } = &mut *st;
        for w in watchers.iter_mut() {
            if now.duration_since(w.last) >= w.every {
                w.last = now;
                let e = &runs[w.run as usize - 1];
                shared.rpc.send(w.token, e.progress_frame(w.run, false));
            }
        }
    }
}

/// The sink of one RPC connection, on the reactor thread. A connection
/// that closes takes its watchers with it.
fn rpc_sink(shared: Weak<Shared>, token: Token) -> Sink {
    Box::new(move |ev| {
        let Some(shared) = shared.upgrade() else {
            return;
        };
        match ev {
            ConnEvent::Frame(request) => on_request(&shared, token, request),
            ConnEvent::Closed(reason) => {
                if shared.cfg.verbose && !reason.is_empty() {
                    println!("rpc connection closed: {reason}");
                }
                let mut st = shared.state.lock().unwrap();
                st.watchers.retain(|w| w.token != token);
            }
        }
    })
}

/// Answer one request, on the reactor thread and under the state lock:
/// every request but `Submit` only reads or flips state. A `Submit` is
/// queued for the scheduler unless it is refused anyway. Answers to
/// requests pipelined behind a `Submit` or a `Watch` may overtake it;
/// the client sends one request at a time.
fn on_request(shared: &Shared, token: Token, request: Frame) {
    let mut st = shared.state.lock().unwrap();
    let answer = match request {
        Frame::Submit { .. } => {
            let ahead = st.queue.len() + st.submits.len();
            match refusal(&st, ahead, shared.cfg.queue_depth) {
                Some(message) => Frame::RpcErr { message },
                None => {
                    st.submits.push_back((token, request));
                    return shared.sched.notify_all();
                }
            }
        }
        // The first frame goes out at once, and is the final one for a
        // `once` watch or a run already terminal. Otherwise the watchdog
        // sends the rest, and `State::end_run` the final frame. A
        // connection has at most one stream: a new `Watch` replaces it.
        Frame::Watch {
            run,
            interval_ms,
            once,
        } => {
            st.watchers.retain(|w| w.token != token);
            match st.entry(run) {
                Some(e) => {
                    let last = once || e.state.is_terminal();
                    let first = e.progress_frame(run, last);
                    if !last {
                        let poll_ms = shared.cfg.watchdog.poll_ms;
                        st.watchers.push(Watcher {
                            token,
                            run,
                            every: Duration::from_millis(interval_ms.max(poll_ms).max(1)),
                            last: Instant::now(),
                        });
                    }
                    first
                }
                None => unknown_run(run),
            }
        }
        Frame::Cancel { run } => cancel(shared, &mut st, run),
        Frame::Status { run } => match st.entry(run) {
            Some(e) => Frame::RunStatus(e.summary(run)),
            None => unknown_run(run),
        },
        Frame::ListRuns => Frame::RunList {
            runs: (1..).zip(&st.runs).map(|(id, e)| e.summary(id)).collect(),
        },
        Frame::RunResult { run } => match st.entry(run) {
            Some(e) => Frame::RunReport {
                run,
                state: e.state,
                ledger_json: e.artifacts.ledger_json.clone(),
                metrics_json: e.artifacts.metrics_json.clone(),
                profile_json: e.artifacts.profile_json.clone(),
                errors: e.artifacts.errors.clone(),
            },
            None => unknown_run(run),
        },
        other => Frame::RpcErr {
            message: format!("frame kind {} is not a service RPC", other.kind()),
        },
    };
    shared.rpc.send(token, answer);
}

fn unknown_run(run: u64) -> Frame {
    Frame::RpcErr {
        message: format!("unknown run {run}"),
    }
}

/// Why a `Submit` with `ahead` runs queued before it is refused, if it
/// is.
fn refusal(st: &State, ahead: usize, queue_depth: usize) -> Option<String> {
    if st.stopping {
        Some("service is shutting down".into())
    } else if ahead >= queue_depth {
        Some(format!("admission queue is full ({ahead} runs queued)"))
    } else {
        None
    }
}

/// Validate and queue a submission, on the scheduler thread.
fn submit(shared: &Shared, request: Frame) -> Frame {
    let refuse = |message: String| Frame::RpcErr { message };
    let Frame::Submit {
        name,
        dag,
        config,
        strategy,
        get_timeout_ms,
        priority,
    } = request
    else {
        return refuse("not a submission".into());
    };
    let Some(strategy) = MappingStrategy::from_label(&strategy) else {
        return refuse(format!("unknown mapping strategy {strategy:?}"));
    };
    // A builder may assert on counts its parser accepted, and
    // `map_scenario` panics on capacity errors: a hostile submission
    // costs its answer, never the scheduler thread.
    let (nodes, scenario) = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let s = (shared.build)(&dag, &config)?;
        Ok::<_, String>((map_scenario(&s, strategy).machine.nodes, s))
    })) {
        Ok(Ok(built)) => built,
        Ok(Err(e)) => return refuse(format!("invalid workflow: {e}")),
        Err(_) => return refuse("workflow does not build or map onto the machine".into()),
    };
    if nodes > shared.cfg.pool_nodes {
        return refuse(format!(
            "workflow needs {nodes} nodes, the node budget is {}",
            shared.cfg.pool_nodes
        ));
    }
    let mut st = shared.state.lock().unwrap();
    if let Some(why) = refusal(&st, st.queue.len(), shared.cfg.queue_depth) {
        return refuse(why);
    }
    let id = st.runs.len() as u64 + 1;
    st.runs.push(RunEntry {
        name: if name.is_empty() {
            format!("run-{id}")
        } else {
            name
        },
        dag,
        config,
        scenario: Some(scenario),
        strategy,
        get_timeout: Duration::from_millis(get_timeout_ms.max(1)),
        nodes,
        priority,
        admitted_seq: None,
        state: RunState::Queued,
        detail: String::new(),
        cancel: Arc::new(AtomicBool::new(false)),
        artifacts: Artifacts::default(),
        link_stalls: 0,
        health: Vec::new(),
        progress: ProgressSample::default(),
        live: None,
    });
    // Priority insertion: behind the last queued run of equal or higher
    // priority, ahead of every lower one. Equal priorities stay FIFO,
    // and the all-default case degenerates to a plain push_back.
    let at = st
        .queue
        .iter()
        .position(|&q| st.runs[q as usize - 1].priority < priority)
        .unwrap_or(st.queue.len());
    let queued_ahead = at as u32;
    st.queue.insert(at, id);
    if shared.cfg.verbose {
        println!("run {id}: submitted ({nodes} nodes, priority {priority}, {queued_ahead} ahead)");
    }
    shared.sched.notify_all();
    Frame::Submitted {
        run: id,
        queued_ahead,
    }
}

fn cancel(shared: &Shared, st: &mut State, run: u64) -> Frame {
    let Some(e) = st.entry(run) else {
        return unknown_run(run);
    };
    if e.state == RunState::Queued {
        st.queue.retain(|&q| q != run);
        let why = "cancelled while queued".into();
        st.end_run(run, RunState::Cancelled, why, &shared.rpc);
    } else {
        // Running: flag it; the engine records the terminal state at
        // the next wave boundary. Terminal states are left untouched.
        e.cancel.store(true, Ordering::SeqCst);
    }
    if shared.cfg.verbose {
        println!("run {run}: cancel requested");
    }
    Frame::RunStatus(st.runs[run as usize - 1].summary(run))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::RpcClient;
    use insitu::{concurrent_scenario, pattern_pairs, run_threaded};
    use std::io::{Read, Write};
    use std::net::TcpStream;

    /// A builder that maps any dag text except `"bad"` (an error) and
    /// `"panic"` (a panic, as a builder asserting on counts its parser
    /// let through) to the same 8-producer/4-consumer scenario (2 nodes
    /// at 4 cores each); the dag text `"slow"` gets 30 iterations
    /// instead of 2, for tests that need a run to reliably outlast a
    /// few RPC round-trips.
    fn fixed_builder() -> ScenarioBuilder {
        Arc::new(|dag, _config| {
            if dag == "bad" {
                return Err("deliberately unparsable".into());
            }
            assert_ne!(dag, "panic", "a builder that panics");
            let iterations = if dag == "slow" { 30 } else { 2 };
            let mut s = concurrent_scenario(4, 4, 4, pattern_pairs(&[2, 2, 1])[0])
                .with_iterations(iterations);
            s.cores_per_node = 4;
            Ok(s)
        })
    }

    fn start(cfg: SvcConfig) -> (Service, RpcClient) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let svc = Service::start(listener, cfg, fixed_builder()).unwrap();
        let client =
            RpcClient::connect(&svc.local_addr().to_string(), Duration::from_secs(10)).unwrap();
        (svc, client)
    }

    fn baseline_ledger_json() -> String {
        let s = (fixed_builder())("ok", "").unwrap();
        let out = run_threaded(&s, MappingStrategy::DataCentric);
        assert_eq!(out.verify_failures, 0);
        out.ledger.to_json().render()
    }

    #[test]
    fn single_run_completes_with_threaded_identical_ledger() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 2,
            pool_nodes: 2,
            ..SvcConfig::default()
        });
        let (run, _) = client
            .submit("smoke", "ok", "", "data-centric", Duration::from_secs(60))
            .unwrap();
        assert_eq!(run, 1);
        let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
        assert_eq!(s.state, RunState::Done, "{}", s.detail);
        assert_eq!(s.nodes, 2);
        let art = client.result(run).unwrap();
        assert!(art.errors.is_empty(), "{:?}", art.errors);
        assert_eq!(art.ledger_json, baseline_ledger_json());
        assert!(art.metrics_json.contains("net.bytes_sent"));
        assert!(!art.profile_json.is_empty());
        svc.shutdown();
    }

    #[test]
    fn concurrent_runs_with_identical_variable_names_stay_isolated() {
        // Four runs of the *same* workflow (same variable names, same
        // versions) share one pool; epoch salting must keep their key
        // spaces disjoint so every ledger is byte-identical to the
        // single-process baseline.
        let (svc, mut client) = start(SvcConfig {
            max_runs: 4,
            pool_nodes: 8,
            ..SvcConfig::default()
        });
        let runs: Vec<u64> = (0..4)
            .map(|i| {
                client
                    .submit(
                        &format!("iso-{i}"),
                        "ok",
                        "",
                        "data-centric",
                        Duration::from_secs(60),
                    )
                    .unwrap()
                    .0
            })
            .collect();
        let expected = baseline_ledger_json();
        for run in runs {
            let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
            assert_eq!(s.state, RunState::Done, "run {run}: {}", s.detail);
            let art = client.result(run).unwrap();
            assert!(art.errors.is_empty(), "run {run}: {:?}", art.errors);
            assert_eq!(art.ledger_json, expected, "run {run} ledger diverged");
        }
        svc.shutdown();
    }

    #[test]
    fn submission_is_validated_and_queue_is_bounded() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 0, // nothing is ever admitted: submissions stay queued
            queue_depth: 1,
            pool_nodes: 2,
            ..SvcConfig::default()
        });
        let err = client
            .submit("x", "ok", "", "no-such-strategy", Duration::from_secs(1))
            .unwrap_err();
        assert!(err.contains("strategy"), "{err}");
        let err = client
            .submit("x", "bad", "", "data-centric", Duration::from_secs(1))
            .unwrap_err();
        assert!(err.contains("invalid workflow"), "{err}");
        let (run, ahead) = client
            .submit("q1", "ok", "", "data-centric", Duration::from_secs(1))
            .unwrap();
        assert_eq!((run, ahead), (1, 0));
        let err = client
            .submit("q2", "ok", "", "data-centric", Duration::from_secs(1))
            .unwrap_err();
        assert!(err.contains("queue is full"), "{err}");
        assert_eq!(client.status(run).unwrap().state, RunState::Queued);
        svc.shutdown();
    }

    #[test]
    fn high_priority_run_overtakes_a_queued_low_priority_one() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 1,
            pool_nodes: 2,
            ..SvcConfig::default()
        });
        // A long run pins the single slot so the next submissions queue.
        let (head, _) = client
            .submit("head", "slow", "", "data-centric", Duration::from_secs(60))
            .unwrap();
        while client.status(head).unwrap().state == RunState::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        let (low, _) = client
            .submit("low", "ok", "", "data-centric", Duration::from_secs(60))
            .unwrap();
        assert_eq!(client.status(low).unwrap().state, RunState::Queued);
        let (high, high_ahead) = client
            .submit_with_priority("high", "ok", "", "data-centric", Duration::from_secs(60), 1)
            .unwrap();
        // Inserted ahead of the queued priority-0 run.
        assert_eq!(high_ahead, 0, "high-priority run must go to the queue head");
        for run in [head, low, high] {
            let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
            assert_eq!(s.state, RunState::Done, "run {run}: {}", s.detail);
        }
        // The scheduler admitted the high-priority run before the
        // earlier-submitted low-priority one.
        let st = svc.shared.state.lock().unwrap();
        let seq = |id: u64| st.runs[id as usize - 1].admitted_seq.unwrap();
        assert!(
            seq(high) < seq(low),
            "admission order: high {} vs low {}",
            seq(high),
            seq(low)
        );
        drop(st);
        svc.shutdown();
    }

    #[test]
    fn workflow_wider_than_the_pool_is_refused() {
        let (svc, mut client) = start(SvcConfig {
            pool_nodes: 1, // the fixed scenario needs 2 nodes
            ..SvcConfig::default()
        });
        let err = client
            .submit("wide", "ok", "", "data-centric", Duration::from_secs(1))
            .unwrap_err();
        assert!(err.contains("nodes"), "{err}");
        assert!(client.list().unwrap().is_empty());
        svc.shutdown();
    }

    #[test]
    fn cancelling_a_queued_run_removes_it_and_keeps_the_service_healthy() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 0,
            pool_nodes: 2,
            ..SvcConfig::default()
        });
        let (run, _) = client
            .submit("doomed", "ok", "", "data-centric", Duration::from_secs(1))
            .unwrap();
        let s = client.cancel(run).unwrap();
        assert_eq!(s.state, RunState::Cancelled);
        assert_eq!(client.status(run).unwrap().state, RunState::Cancelled);
        // Unknown runs are clean RPC errors, not dead connections.
        let err = client.status(99).unwrap_err();
        assert!(err.contains("unknown run"), "{err}");
        let err = client.cancel(0).unwrap_err();
        assert!(err.contains("unknown run"), "{err}");
        // The same connection keeps serving after the errors.
        assert_eq!(client.list().unwrap().len(), 1);
        svc.shutdown();
    }

    #[test]
    fn watch_streams_progress_and_returns_the_connection() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 1,
            pool_nodes: 2,
            watchdog: WatchdogConfig {
                poll_ms: 10,
                ..WatchdogConfig::default()
            },
            ..SvcConfig::default()
        });
        let err = client
            .watch(99, Duration::from_millis(10), true, |_| {})
            .unwrap_err();
        assert!(err.contains("unknown run"), "{err}");
        let (run, _) = client
            .submit("watched", "ok", "", "round-robin", Duration::from_secs(60))
            .unwrap();
        let mut last: Option<(RunState, bool, u32, u32, u64)> = None;
        let frames = client
            .watch(run, Duration::from_millis(10), false, |f| {
                if let Frame::Progress {
                    state,
                    done,
                    wave,
                    waves,
                    pulls,
                    ..
                } = f
                {
                    last = Some((*state, *done, *wave, *waves, *pulls));
                }
            })
            .unwrap();
        assert!(frames >= 1);
        let (state, done, wave, waves, pulls) = last.unwrap();
        assert_eq!(state, RunState::Done);
        assert!(done, "final frame must carry done");
        assert!(waves > 0 && wave == waves, "final sample at {wave}/{waves}");
        assert!(pulls > 0, "final sample saw no pulls");
        // After the final frame the same connection serves plain RPCs.
        assert_eq!(client.status(run).unwrap().state, RunState::Done);
        svc.shutdown();
    }

    #[test]
    fn chaos_link_slow_trips_the_watchdog_without_failing_the_run() {
        use insitu_chaos::{FaultKind, FaultPlan, FaultSpec};
        // Every pull-data send held 15-50 ms by the chaos plan; with a
        // 10 ms stall threshold the watchdog must notice, and the run
        // must still complete.
        let plan = Arc::new(FaultPlan::new(
            7,
            FaultSpec::none().with_rate(FaultKind::LinkSlow, 1.0),
        ));
        let (svc, mut client) = start(SvcConfig {
            max_runs: 1,
            pool_nodes: 2,
            // The stalls this test watches for happen to PullData frames
            // on the socket; shm would carry them around the fault site.
            shm: false,
            injector: FaultInjector::new(plan),
            watchdog: WatchdogConfig {
                poll_ms: 5,
                stall_ms: 10,
                p99_factor: 1e9, // stall detection only: keep drift quiet
            },
            ..SvcConfig::default()
        });
        let (run, _) = client
            .submit("slow", "ok", "", "round-robin", Duration::from_secs(60))
            .unwrap();
        let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
        assert_eq!(s.state, RunState::Done, "{}", s.detail);
        assert!(s.link_stalls > 0, "watchdog saw no stalls");
        assert!(
            s.health.iter().any(|h| h.starts_with("link-stall")),
            "{:?}",
            s.health
        );
        let art = client.result(run).unwrap();
        assert!(
            art.metrics_json.contains("net.link_stalls"),
            "counter missing from metrics artifact"
        );
        svc.shutdown();
    }

    #[test]
    fn merged_artifacts_cover_every_process_and_land_on_disk() {
        let dir = std::env::temp_dir().join(format!("insitu-svc-trace-{}", std::process::id()));
        let (svc, mut client) = start(SvcConfig {
            max_runs: 1,
            pool_nodes: 2,
            artifacts_dir: Some(dir.clone()),
            ..SvcConfig::default()
        });
        let (run, _) = client
            .submit("merged", "ok", "", "round-robin", Duration::from_secs(60))
            .unwrap();
        let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
        assert_eq!(s.state, RunState::Done, "{}", s.detail);
        let art = client.result(run).unwrap();
        // No degradation warnings: telemetry from both joiners arrived
        // complete and every wire event pair stitched. A degraded merge
        // would surface as `telemetry:` *health* events — never as run
        // errors, which are reserved for task failures.
        assert!(art.errors.is_empty(), "{:?}", art.errors);
        assert!(
            s.health.iter().all(|h| !h.starts_with("telemetry:")),
            "{:?}",
            s.health
        );
        // The chrome trace is served by no RPC: it exists as this file
        // and nowhere else.
        let trace = std::fs::read_to_string(dir.join(format!("run-{run}.trace.json"))).unwrap();
        let events = insitu_telemetry::Json::parse(&trace).unwrap();
        let events = events.get("traceEvents").and_then(|e| e.as_arr());
        assert!(events.is_some_and(|e| !e.is_empty()), "not a chrome trace");
        assert!(
            trace.contains("\"processes\":2"),
            "merged trace must cover both joiners"
        );
        assert!(trace.contains("\"unmatchedSends\":0") && trace.contains("\"unmatchedRecvs\":0"));
        let _ = std::fs::remove_dir_all(&dir);
        svc.shutdown();
    }

    /// A terminal run holds its summary and the three artifacts
    /// `RunResult` serves — not the workflow text it was submitted
    /// with, not a chrome trace — and the scheduler keeps handles of
    /// executing engines only.
    #[test]
    fn terminal_runs_retain_artifacts_only_and_engines_are_reaped() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 1,
            pool_nodes: 2,
            ..SvcConfig::default()
        });
        for _ in 0..6 {
            let (run, _) = client
                .submit("kept", "ok", "cfg", "round-robin", Duration::from_secs(60))
                .unwrap();
            let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
            assert_eq!(s.state, RunState::Done, "{}", s.detail);
        }
        // Handles are reaped at admission: the last engine's is still
        // held, and its predecessor's if that thread was still on its
        // way out when the next run was admitted. Never all six.
        assert!(svc.shared.engines.lock().unwrap().len() <= 2);
        let st = svc.shared.state.lock().unwrap();
        for e in &st.runs {
            assert!(e.dag.is_empty() && e.config.is_empty() && e.scenario.is_none());
            let a = &e.artifacts;
            for body in [&a.ledger_json, &a.metrics_json, &a.profile_json] {
                assert!(!body.is_empty());
                // Without `artifacts_dir` no trace is rendered, so
                // there is none to retain by accident either.
                assert!(!body.contains("traceEvents"));
            }
        }
        drop(st);
        svc.shutdown();
    }

    #[test]
    fn cancel_mid_service_leaves_later_runs_correct() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 1,
            pool_nodes: 2,
            ..SvcConfig::default()
        });
        let (first, _) = client
            .submit("victim", "ok", "", "data-centric", Duration::from_secs(60))
            .unwrap();
        client.cancel(first).unwrap();
        let s = client
            .wait_terminal(first, Duration::from_secs(120))
            .unwrap();
        // The cancel races the (fast) run: either it was cut at a wave
        // boundary or it had already finished. Both are terminal; the
        // service must stay healthy either way.
        assert!(
            matches!(s.state, RunState::Cancelled | RunState::Done),
            "{:?}",
            s.state
        );
        let (second, _) = client
            .submit("after", "ok", "", "data-centric", Duration::from_secs(60))
            .unwrap();
        let s = client
            .wait_terminal(second, Duration::from_secs(120))
            .unwrap();
        assert_eq!(s.state, RunState::Done, "{}", s.detail);
        assert_eq!(
            client.result(second).unwrap().ledger_json,
            baseline_ledger_json()
        );
        svc.shutdown();
    }

    /// Submit validation builds a run's scenario, and the engine runs
    /// that one: a run costs the builder one call on the service side,
    /// plus one per pooled replica.
    #[test]
    fn a_run_builds_its_scenario_once_on_the_service_side() {
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        let build: ScenarioBuilder = Arc::new(move |dag, config| {
            counted.fetch_add(1, Ordering::SeqCst);
            (fixed_builder())(dag, config)
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = SvcConfig {
            max_runs: 1,
            pool_nodes: 2,
            ..SvcConfig::default()
        };
        let svc = Service::start(listener, cfg, build).unwrap();
        let addr = svc.local_addr().to_string();
        let mut client = RpcClient::connect(&addr, Duration::from_secs(10)).unwrap();
        let (run, _) = client
            .submit("counted", "ok", "", "round-robin", Duration::from_secs(60))
            .unwrap();
        let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
        assert_eq!(s.state, RunState::Done, "{}", s.detail);
        assert_eq!(calls.load(Ordering::SeqCst), 1 + s.nodes as u64);
        svc.shutdown();
    }

    /// A joiner thread that panics fails its run and nothing else: the
    /// engine catches the panic at the thread's handle, so the run's
    /// nodes come back and the next run of the same text completes.
    #[test]
    fn a_joiner_panic_ends_its_run_and_keeps_the_capacity() {
        let calls = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let counted = Arc::clone(&calls);
        // Call 1 validates run 1 at submit; call 2 is its first replica.
        let build: ScenarioBuilder = Arc::new(move |dag, config| {
            let call = counted.fetch_add(1, Ordering::SeqCst) + 1;
            assert_ne!(call, 2, "a replica build that panics");
            (fixed_builder())(dag, config)
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let cfg = SvcConfig {
            max_runs: 1,
            pool_nodes: 2,
            connect_timeout: Duration::from_secs(2),
            ..SvcConfig::default()
        };
        let svc = Service::start(listener, cfg, build).unwrap();
        let addr = svc.local_addr().to_string();
        let mut client = RpcClient::connect(&addr, Duration::from_secs(10)).unwrap();
        // The surviving joiner of run 1 waits out its gets of the dead
        // node's pieces before it is joined: a short get timeout keeps
        // that brief.
        for expected in [RunState::Failed, RunState::Done] {
            let (run, _) = client
                .submit("twice", "ok", "", "round-robin", Duration::from_secs(3))
                .unwrap();
            let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
            assert_eq!(s.state, expected, "run {run}: {}", s.detail);
        }
        svc.shutdown();
    }

    /// `shutdown` ends the watchdog between two ticks: an idle service
    /// that samples every 10 s stops well inside one.
    #[test]
    fn an_idle_service_shuts_down_inside_a_watchdog_tick() {
        let (svc, _client) = start(SvcConfig {
            watchdog: WatchdogConfig {
                poll_ms: 10_000,
                ..WatchdogConfig::default()
            },
            ..SvcConfig::default()
        });
        let t0 = Instant::now();
        svc.shutdown();
        let took = t0.elapsed();
        assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    }

    /// A `wait_terminal` that runs out of time names the run, and
    /// leaves a connection that refuses further calls rather than one
    /// a late final frame could still arrive on.
    #[test]
    fn a_timed_out_wait_fails_by_name_and_retires_the_connection() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 0, // the run stays queued
            pool_nodes: 2,
            ..SvcConfig::default()
        });
        let (run, _) = client
            .submit("stuck", "ok", "", "data-centric", Duration::from_secs(1))
            .unwrap();
        let err = client
            .wait_terminal(run, Duration::from_millis(50))
            .unwrap_err();
        assert!(err.contains(&format!("run {run} not terminal")), "{err}");
        assert!(client.status(run).is_err());
        svc.shutdown();
    }

    /// This process's resident set, in bytes.
    fn resident_bytes() -> usize {
        let statm = std::fs::read_to_string("/proc/self/statm").unwrap();
        let pages: usize = statm.split(' ').nth(1).unwrap().parse().unwrap();
        pages * 4096
    }

    /// This process's resident high-water mark (`VmHWM`), in bytes.
    fn peak_resident_bytes() -> usize {
        let status = std::fs::read_to_string("/proc/self/status").unwrap();
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix(" kB"))
            .unwrap();
        kib.parse::<usize>().unwrap() << 10
    }

    /// The next frame on `stream`, which must come within a second.
    fn reply_within_a_second(stream: &mut TcpStream) -> Frame {
        stream
            .set_read_timeout(Some(Duration::from_secs(1)))
            .unwrap();
        let (mut decoder, mut scratch) = (insitu_net::FrameDecoder::new(), [0u8; 4096]);
        loop {
            if let Some(frame) = decoder.next_frame().unwrap() {
                return frame;
            }
            let n = decoder.read_from(stream, &mut scratch).unwrap();
            assert!(n > 0, "the service closed the connection");
        }
    }

    /// A fresh connection's `Status` is answered within a second.
    fn status_answers_within_a_second(addr: SocketAddr, run: u64) {
        let t0 = Instant::now();
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&Frame::Status { run }.encode()).unwrap();
        let reply = reply_within_a_second(&mut s);
        assert!(
            matches!(&reply, Frame::RunStatus(s) if s.run == run),
            "{reply:?}"
        );
        assert!(t0.elapsed() < Duration::from_secs(1));
    }

    /// The service hung up on `stream` (EOF, or a reset for bytes it
    /// never read).
    fn assert_hung_up(stream: &mut TcpStream) {
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut rest = Vec::new();
        match stream.read_to_end(&mut rest) {
            Ok(_) => {}
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::ConnectionReset, "{e}"),
        }
    }

    /// Hostile input on the live RPC port costs the connection it came
    /// on, never the service: after each row a fresh connection's
    /// `Status` is answered within a second.
    #[test]
    fn hostile_clients_cost_their_connection_and_the_port_keeps_answering() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 1,
            pool_nodes: 2,
            ..SvcConfig::default()
        });
        let addr = svc.local_addr();
        let (run, _) = client
            .submit("kept", "ok", "", "round-robin", Duration::from_secs(60))
            .unwrap();
        let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
        assert_eq!(s.state, RunState::Done, "{}", s.detail);

        // A workflow whose builder panics is refused by name; the
        // scheduler that validated it still answers, queues and runs the
        // next submission.
        let submit = |dag: &str| {
            Frame::Submit {
                name: String::new(),
                dag: dag.into(),
                config: String::new(),
                strategy: "round-robin".into(),
                get_timeout_ms: 60_000,
                priority: 0,
            }
            .encode()
        };
        let mut submitter = TcpStream::connect(addr).unwrap();
        submitter.write_all(&submit("panic")).unwrap();
        let reply = reply_within_a_second(&mut submitter);
        assert!(
            matches!(&reply, Frame::RpcErr { message } if message.contains("does not build")),
            "{reply:?}"
        );
        submitter.write_all(&submit("ok")).unwrap();
        let Frame::Submitted { run: next, .. } = reply_within_a_second(&mut submitter) else {
            panic!("the submission after a panicking build was not queued");
        };
        let s = client
            .wait_terminal(next, Duration::from_secs(120))
            .unwrap();
        assert_eq!(s.state, RunState::Done, "{}", s.detail);
        status_answers_within_a_second(addr, run);

        // Garbage: a length word no frame has.
        let mut garbage = TcpStream::connect(addr).unwrap();
        garbage.write_all(&u32::MAX.to_le_bytes()).unwrap();
        assert_hung_up(&mut garbage);
        status_answers_within_a_second(addr, run);

        // Slow-loris: a `Status` one byte every 10 ms, while another
        // client's RPCs are answered.
        let loris = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            let wire = Frame::Status { run }.encode();
            for byte in wire {
                s.write_all(&[byte]).unwrap();
                std::thread::sleep(Duration::from_millis(10));
            }
            s
        });
        let mut answered = 0;
        while !loris.is_finished() {
            assert_eq!(client.status(run).unwrap().state, RunState::Done);
            answered += 1;
        }
        assert!(answered > 1, "{answered} answers beside the slow client");
        let reply = reply_within_a_second(&mut loris.join().unwrap());
        assert!(matches!(reply, Frame::RunStatus(_)), "{reply:?}");
        status_answers_within_a_second(addr, run);

        // A `PullData` head declaring `MAX_FRAME_LEN`, one MiB of it
        // delivered: what the port reserves it does not touch.
        let len = insitu_net::MAX_FRAME_LEN;
        let mut greedy_wire = Frame::PullData {
            name: 1,
            version: 0,
            piece: 1 << 32,
            owner: 1,
            to_node: 0,
            data: vec![0xAB; 1 << 20],
        }
        .encode();
        greedy_wire[..4].copy_from_slice(&len.to_le_bytes());
        greedy_wire[38..42].copy_from_slice(&(len - 38).to_le_bytes());
        let before = resident_bytes();
        let mut greedy = TcpStream::connect(addr).unwrap();
        greedy.write_all(&greedy_wire).unwrap();
        // The port reads every ready connection dry before it answers
        // a request that arrived after those bytes.
        status_answers_within_a_second(addr, run);
        let grown = resident_bytes().saturating_sub(before);
        assert!(grown < 64 << 20, "resident set grew {grown} bytes");
        drop(greedy);
        status_answers_within_a_second(addr, run);

        // A client that pipelines `RunResult` for a run with a 4 MiB
        // ledger and never reads: closed once its answers pass the
        // staged limit, the service's peak growth bounded by it. Answers
        // freed at the close leave the resident set, so the high-water
        // mark is what counts.
        let limit = insitu_net::reactor::STAGED_LIMIT;
        svc.shared.state.lock().unwrap().runs[run as usize - 1]
            .artifacts
            .ledger_json = "x".repeat(4 << 20);
        let requests: Vec<u8> = (0..64)
            .flat_map(|_| Frame::RunResult { run }.encode())
            .collect();
        std::fs::write("/proc/self/clear_refs", "5").unwrap(); // resets VmHWM
        let before = resident_bytes();
        let mut hog = TcpStream::connect(addr).unwrap();
        let mut sent = 0;
        while hog.write_all(&requests).is_ok() {
            let grown = peak_resident_bytes().saturating_sub(before);
            assert!(grown < 2 * limit, "resident set peaked {grown} bytes up");
            sent += requests.len();
            assert!(sent < 1 << 30, "a client that never reads was never closed");
        }
        let grown = peak_resident_bytes().saturating_sub(before);
        assert!(grown < 2 * limit, "resident set peaked {grown} bytes up");
        status_answers_within_a_second(addr, run);
        svc.shutdown();
    }

    /// A client that pipelines `Watch` requests holds one stream, not
    /// one per request: each replaces the connection's last, so the
    /// list the watchdog walks under the state lock does not grow.
    #[test]
    fn pipelined_watches_keep_one_stream_per_connection() {
        let (svc, mut client) = start(SvcConfig {
            max_runs: 0, // the run stays queued, so every watch registers
            pool_nodes: 2,
            ..SvcConfig::default()
        });
        let addr = svc.local_addr();
        let (run, _) = client
            .submit("watched", "ok", "", "data-centric", Duration::from_secs(1))
            .unwrap();
        let watch = Frame::Watch {
            run,
            interval_ms: 0,
            once: false,
        };
        let mut wire: Vec<u8> = (0..1000).flat_map(|_| watch.encode()).collect();
        wire.extend(Frame::Status { run }.encode());
        let mut s = TcpStream::connect(addr).unwrap();
        s.write_all(&wire).unwrap();
        // Requests are answered in order, so the `Status` answer follows
        // every watch's first frame.
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let (mut decoder, mut scratch) = (insitu_net::FrameDecoder::new(), [0u8; 4096]);
        let mut firsts = 0;
        loop {
            match decoder.next_frame().unwrap() {
                Some(Frame::Progress { done: false, .. }) => firsts += 1,
                Some(Frame::RunStatus(_)) => break,
                Some(other) => panic!("{other:?}"),
                None => assert!(decoder.read_from(&mut s, &mut scratch).unwrap() > 0),
            }
        }
        assert!(firsts >= 1000, "{firsts} first frames");
        let watchers = svc.shared.state.lock().unwrap().watchers.len();
        assert_eq!(watchers, 1);
        drop(s);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !svc.shared.state.lock().unwrap().watchers.is_empty() {
            assert!(
                Instant::now() < deadline,
                "a closed connection kept its watcher"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        status_answers_within_a_second(addr, run);
        svc.shutdown();
    }
}
