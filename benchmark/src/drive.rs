//! Driving the program's shipped entry points, one run at a time.
//!
//! A *run* is one complete execution of a workload's workflow, timed
//! from the call that starts it to the outcome in hand with every child
//! process reaped. Three drivers, one per [`Mode`]:
//!
//! - [`threaded_run`]: `insitu::run_threaded*` in this process;
//! - [`distrib_run`]: `insitu::serve` in this process plus real
//!   `insitu join` child processes, spawned exactly as `insitu launch`
//!   spawns them (the clock starts before the first spawn);
//! - [`Service`]: the shipped `insitu serve` service as a child process,
//!   driven through `insitu_svc::RpcClient`.
//!
//! Every run has a hard deadline: a hang becomes a failed run, never a
//! stuck benchmark. Nothing a run starts outlives it: joiner children
//! are killed and reaped, their `/dev/shm` segments removed by pid.

use crate::oracle::Observation;
use crate::sys;
use crate::workloads::{Compiled, SERVICE_ARGS};
use insitu::{
    run_threaded_configured, serve, DistribOutcome, MappingStrategy, ServeOptions, ThreadedConfig,
    ThreadedOutcome,
};
use insitu_net::RunState;
use insitu_obs::{FlightRecorder, ProcessTrace};
use insitu_svc::{RpcClient, RunArtifacts};
use insitu_telemetry::Recorder;
use insitu_util::shm;
use std::collections::BTreeMap;
use std::io::BufRead;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Every workload maps with the strategy the CLI defaults to.
pub const STRATEGY: MappingStrategy = MappingStrategy::DataCentric;

/// Hard deadline of one run. The slowest workload's full run takes
/// about two seconds; anything past this is a hang.
pub const RUN_DEADLINE: Duration = Duration::from_secs(30);

/// Handshake timeout handed to `serve` and the joiners (`launch`'s
/// default).
const JOIN_TIMEOUT_MS: u64 = 30_000;

/// What a run cost, measured around it.
#[derive(Clone, Copy, Debug, Default)]
pub struct Cost {
    /// Wall-clock, milliseconds.
    pub wall_ms: f64,
    /// User + system CPU of every process of the run, milliseconds.
    pub cpu_ms: f64,
    /// Largest peak resident set of any single process of the run, MiB:
    /// this process since the run began, or one of its children.
    pub peak_rss_mib: f64,
    /// Share of the wall-clock the machine's cores were busy with the
    /// run (`clock::busy_share`); set by the end-to-end pass.
    pub busy: f64,
    /// `clock::calibrate` beside the run, milliseconds; set by the
    /// end-to-end pass.
    pub calib_ms: f64,
}

/// A finished run: its cost, and what the oracle needs to judge it.
pub struct Finished {
    /// Measured cost.
    pub cost: Cost,
    /// The run's outputs, or why it produced none.
    pub seen: Result<Observation, String>,
    /// Σ `GetReport.ops` (threaded runs only; the census is checked
    /// against it).
    pub get_ops: Option<u64>,
    /// The joiners' shipped flight recordings (distributed runs only).
    pub telemetry: Vec<ProcessTrace>,
}

/// Why a driver could not even attempt to finish: the run hung past its
/// deadline inside this process and cannot be cancelled. The caller
/// stops measuring and reports what it has.
#[derive(Debug)]
pub struct Hung(pub String);

/// Run `work` on its own thread and wait at most `deadline` for it.
fn with_deadline<T: Send + 'static>(
    what: &str,
    deadline: Duration,
    work: impl FnOnce() -> T + Send + 'static,
) -> Result<T, Hung> {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::Builder::new()
        .name(format!("perf-{what}"))
        .spawn(move || {
            let _ = tx.send(work());
        })
        .expect("spawn run thread");
    match rx.recv_timeout(deadline) {
        Ok(v) => {
            handle.join().expect("run thread panicked after sending");
            Ok(v)
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            Err(Hung(format!("{what} still running after {deadline:?}")))
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            let why = match handle.join() {
                Err(p) => p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_else(|| "panic".into()),
                Ok(()) => "ended without a result".into(),
            };
            Err(Hung(format!("{what} panicked: {why}")))
        }
    }
}

fn observe_threaded(o: &ThreadedOutcome) -> Observation {
    Observation {
        ledger_json: o.ledger.to_json().render(),
        verify_failures: o.verify_failures,
        errors: o
            .errors
            .iter()
            .map(|(app, rank, e)| format!("app {app} rank {rank}: {e}"))
            .collect(),
        gets: Some(o.reports.len() as u64),
        counters: None,
    }
}

fn own_peak_rss_mib() -> f64 {
    sys::peak_rss_mib(std::process::id()).unwrap_or(0.0)
}

/// One `run_threaded` run in this process. `recorders` turns on the
/// program's own telemetry and flight recorder (the traced pass); the
/// end-to-end pass runs with both disabled, as `run_threaded` does.
pub fn threaded_run(
    input: &Arc<Compiled>,
    recorders: Option<(Recorder, FlightRecorder)>,
) -> Result<Finished, Hung> {
    let input = Arc::clone(input);
    let (recorder, flight) =
        recorders.unwrap_or_else(|| (Recorder::disabled(), FlightRecorder::disabled()));
    sys::reset_own_peak_rss();
    let cpu0 = sys::self_cpu_ms();
    let t0 = Instant::now();
    let outcome = with_deadline("run_threaded", RUN_DEADLINE, move || {
        let cfg = ThreadedConfig {
            flight,
            ..ThreadedConfig::default()
        };
        run_threaded_configured(&input.scenario, STRATEGY, &recorder, &cfg)
    })?;
    let cost = Cost {
        wall_ms: t0.elapsed().as_secs_f64() * 1e3,
        cpu_ms: sys::self_cpu_ms() - cpu0,
        peak_rss_mib: own_peak_rss_mib(),
        ..Cost::default()
    };
    Ok(Finished {
        cost,
        seen: Ok(observe_threaded(&outcome)),
        get_ops: Some(outcome.reports.iter().map(|(_, _, r)| r.ops as u64).sum()),
        telemetry: Vec::new(),
    })
}

/// The reference computation of set-up: the plain single-process run
/// every other run's ledger must equal byte for byte.
pub fn reference_run(input: &Compiled) -> Result<crate::oracle::Reference, String> {
    let o = insitu::run_threaded(&input.scenario, STRATEGY);
    if o.verify_failures > 0 || !o.errors.is_empty() {
        return Err(format!(
            "reference run is not clean: {} verify failure(s), {} error(s)",
            o.verify_failures,
            o.errors.len()
        ));
    }
    Ok(crate::oracle::Reference {
        ledger_json: o.ledger.to_json().render(),
        gets: o.reports.len() as u64,
    })
}

/// Kill and reap joiner children, then remove any `/dev/shm` segment
/// they created. Returns what each cost.
fn reap_joiners(children: Vec<Child>, deadline: Instant) -> Vec<sys::ChildUsage> {
    let pids: Vec<u32> = children.iter().map(Child::id).collect();
    let usage = children
        .into_iter()
        .map(|c| sys::reap(c, deadline))
        .collect();
    for pid in pids {
        shm::reap_pid(&shm::segment_dir(), pid);
    }
    usage
}

fn observe_distrib(o: &DistribOutcome, hub: &Recorder) -> Observation {
    let mut counters: BTreeMap<String, u64> = hub.metrics_snapshot().counters.into_iter().collect();
    for t in &o.telemetry {
        for (k, v) in &t.counters {
            *counters.entry(k.clone()).or_insert(0) += v;
        }
    }
    Observation {
        ledger_json: o.ledger.to_json().render(),
        verify_failures: o.verify_failures,
        errors: o.errors.clone(),
        gets: Some(o.gets),
        counters: Some(counters),
    }
}

/// One distributed run: `nodes` real `insitu join` children against
/// `insitu::serve` in this process, wired as `insitu launch` wires them.
/// The hub records metrics (as `launch`'s does) so the transport census
/// is checked, not assumed.
pub fn distrib_run(
    insitu_bin: &Path,
    input: &Arc<Compiled>,
    nodes: u32,
    p2p: bool,
    shm_plane: bool,
) -> Result<Finished, Hung> {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("loopback address").to_string();
    let hub_recorder = Recorder::enabled();
    let opts = ServeOptions {
        strategy: STRATEGY,
        timeout: Duration::from_millis(JOIN_TIMEOUT_MS),
        p2p,
        shm: shm_plane,
        recorder: hub_recorder.clone(),
        ..ServeOptions::default()
    };

    sys::reset_own_peak_rss();
    let cpu0 = sys::self_cpu_ms();
    let t0 = Instant::now();
    let hard_deadline = t0 + RUN_DEADLINE;
    let mut children = Vec::new();
    let mut spawn_error = None;
    for node in 0..nodes {
        let mut cmd = Command::new(insitu_bin);
        cmd.args(["join", "--connect", &addr, "--node", &node.to_string()])
            .args(["--timeout-ms", &JOIN_TIMEOUT_MS.to_string()])
            .stdout(Stdio::null());
        if !shm_plane {
            cmd.arg("--no-shm");
        }
        match cmd.spawn() {
            Ok(c) => children.push(c),
            Err(e) => {
                spawn_error = Some(format!("cannot spawn joiner {node}: {e}"));
                break;
            }
        }
    }
    if let Some(why) = spawn_error {
        reap_joiners(children, Instant::now());
        return Ok(Finished {
            cost: Cost::default(),
            seen: Err(why),
            get_ops: None,
            telemetry: Vec::new(),
        });
    }

    let served = {
        let input = Arc::clone(input);
        with_deadline("serve", RUN_DEADLINE, move || {
            serve(&listener, &input.dag, &input.config, &input.scenario, &opts)
        })
    };
    let served = match served {
        Ok(r) => r,
        Err(hung) => {
            // Killing the joiners closes their sockets, which fails the
            // hub's barrier; the serve thread then ends on its own. It
            // cannot be joined from here, so measuring stops.
            reap_joiners(children, Instant::now());
            return Err(hung);
        }
    };
    // A failed serve leaves joiners blocked on a run that will never
    // finish: give them no grace. A clean one has them exiting already.
    let grace = if served.is_ok() {
        hard_deadline
    } else {
        Instant::now()
    };
    let usage = reap_joiners(children, grace);
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let cost = Cost {
        wall_ms,
        cpu_ms: sys::self_cpu_ms() - cpu0 + usage.iter().map(|u| u.cpu_ms).sum::<f64>(),
        peak_rss_mib: usage
            .iter()
            .map(|u| u.peak_rss_mib)
            .fold(own_peak_rss_mib(), f64::max),
        ..Cost::default()
    };
    let (seen, telemetry) = match served {
        Err(why) => (Err(format!("serve failed: {why}")), Vec::new()),
        Ok(o) if usage.iter().any(|u| !u.success) => {
            (Err("a joiner exited with a failure".into()), o.telemetry)
        }
        Ok(o) => (Ok(observe_distrib(&o, &hub_recorder)), o.telemetry),
    };
    Ok(Finished {
        cost,
        seen,
        get_ops: None,
        telemetry,
    })
}

/// The shipped `insitu serve` service, running as a child process until
/// dropped. Drop kills it, reaps it and removes its `/dev/shm` segments,
/// on every exit path.
pub struct Service {
    child: Option<Child>,
    /// Address RPC clients connect to.
    pub addr: String,
}

impl Service {
    /// Start the service on an ephemeral loopback port and wait for its
    /// `listening on` line.
    pub fn start(insitu_bin: &Path) -> Result<Service, String> {
        let mut child = Command::new(insitu_bin)
            .args(["serve", "--listen", "127.0.0.1:0"])
            .args(SERVICE_ARGS)
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot spawn the service: {e}"))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, rx) = mpsc::channel();
        // Keeps draining after the address line so the service never
        // blocks on a full pipe; ends at EOF when the child is killed.
        std::thread::spawn(move || {
            for line in std::io::BufReader::new(stdout)
                .lines()
                .map_while(Result::ok)
            {
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut service = Service {
            child: Some(child),
            addr: String::new(),
        };
        match rx.recv_timeout(Duration::from_secs(20)) {
            Ok(addr) if !addr.is_empty() => {
                service.addr = addr;
                Ok(service)
            }
            _ => Err("the service never announced its address".into()),
        }
    }

    /// Pid of the service process.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().expect("service is running").id()
    }

    /// User + system CPU the service process has used, milliseconds.
    pub fn cpu_ms(&self) -> f64 {
        sys::proc_cpu_ms(self.pid()).unwrap_or(0.0)
    }

    /// Peak resident set of the service process, MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        sys::peak_rss_mib(self.pid()).unwrap_or(0.0)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let pid = child.id();
            let _ = child.kill();
            let _ = child.wait();
            shm::reap_pid(&shm::segment_dir(), pid);
        }
    }
}

/// One submission of the service workload's closed loop.
#[derive(Clone, Debug)]
pub struct Submission {
    /// Display name.
    pub name: String,
    /// The compiled input.
    pub input: Arc<Compiled>,
    /// Admission priority.
    pub priority: u32,
}

/// What one submitted run measured.
#[derive(Clone, Debug, Default)]
pub struct ServiceRun {
    /// Submit call to terminal state observed, milliseconds.
    pub latency_ms: f64,
    /// The `submit` RPC alone, milliseconds.
    pub submit_ms: f64,
    /// Submit to the first status that is not `queued`, milliseconds.
    pub queue_wait_ms: f64,
    /// `status` RPCs issued while polling.
    pub status_calls: u64,
    /// Time spent inside those RPCs, microseconds.
    pub status_us: f64,
}

/// How often a closed-loop client polls `status`: its own loop rather
/// than `RpcClient::wait_terminal`, whose 20 ms sleep would quantize a
/// ~40 ms run into two buckets. Even 2 ms steps put a one-iteration
/// run (~10 ms) on a few discrete values, between which the median
/// jumped from invocation to invocation.
const STATUS_POLL: Duration = Duration::from_millis(1);

/// Submit one run and poll it to a terminal state. The artifacts are
/// fetched after the clock stops.
pub fn service_run(
    client: &mut RpcClient,
    sub: &Submission,
) -> (ServiceRun, Result<Observation, String>) {
    let (m, seen, _) = service_run_with_artifacts(client, sub);
    (m, seen)
}

/// [`service_run`], also handing back the run's raw artifacts (the
/// traced pass reads the program's counters and profile from them).
pub fn service_run_with_artifacts(
    client: &mut RpcClient,
    sub: &Submission,
) -> (
    ServiceRun,
    Result<Observation, String>,
    Option<RunArtifacts>,
) {
    let (m, outcome) = submit_and_poll(client, sub);
    match outcome {
        Err(why) => (m, Err(why), None),
        Ok(a) => {
            let seen = Observation {
                ledger_json: a.ledger_json.clone(),
                verify_failures: 0,
                errors: a.errors.clone(),
                gets: None,
                counters: None,
            };
            (m, Ok(seen), Some(a))
        }
    }
}

fn submit_and_poll(
    client: &mut RpcClient,
    sub: &Submission,
) -> (ServiceRun, Result<RunArtifacts, String>) {
    let mut m = ServiceRun::default();
    let t0 = Instant::now();
    let submitted = client.submit_with_priority(
        &sub.name,
        &sub.input.dag,
        &sub.input.config,
        STRATEGY.label(),
        Duration::from_secs(60),
        sub.priority,
    );
    m.submit_ms = t0.elapsed().as_secs_f64() * 1e3;
    let run = match submitted {
        Ok((run, _ahead)) => run,
        Err(e) => return (m, Err(format!("refused: {e}"))),
    };
    let state = loop {
        let s0 = Instant::now();
        let status = client.status(run);
        m.status_calls += 1;
        m.status_us += s0.elapsed().as_secs_f64() * 1e6;
        let summary = match status {
            Ok(s) => s,
            Err(e) => return (m, Err(format!("status of run {run}: {e}"))),
        };
        if m.queue_wait_ms == 0.0 && summary.state != RunState::Queued {
            m.queue_wait_ms = t0.elapsed().as_secs_f64() * 1e3;
        }
        if summary.state.is_terminal() {
            m.latency_ms = t0.elapsed().as_secs_f64() * 1e3;
            break summary;
        }
        if t0.elapsed() >= RUN_DEADLINE {
            let _ = client.cancel(run);
            return (
                m,
                Err(format!("run {run} still {} at the deadline", summary.state)),
            );
        }
        std::thread::sleep(STATUS_POLL);
    };
    if state.state != RunState::Done || !state.detail.is_empty() {
        return (
            m,
            Err(format!("run {run} ended {}: {}", state.state, state.detail)),
        );
    }
    let artifacts = client.result(run);
    (m, artifacts)
}

/// The `insitu` binary run.sh built beside this one.
pub fn insitu_binary() -> Result<PathBuf, String> {
    let me = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let path = me.with_file_name("insitu");
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} is missing: build it first (benchmark/run.sh does)",
            path.display()
        ))
    }
}
