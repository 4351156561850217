//! The service-mode subcommands: `serve` without workflow files (the
//! multi-tenant service), plus the `submit`, `status`, `cancel` and
//! `watch` RPC clients.

use crate::driver::{build_scenario, CliError};
use insitu_chaos::{FaultPlan, FaultSpec};
use insitu_fabric::FaultInjector;
use insitu_net::{Frame, RunSummary};
use insitu_svc::{RpcClient, RunArtifacts, Service, SvcConfig, WatchdogConfig};
use insitu_telemetry::Json;
use insitu_workflow::compile_workflow;
use std::io::{IsTerminal, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Options of `insitu serve` in service mode (no `--dag`/`--config`).
#[derive(Clone, Debug)]
pub struct ServiceCmd {
    /// Address to listen on for RPC clients.
    pub listen: String,
    /// Maximum runs executing concurrently.
    pub max_runs: usize,
    /// Maximum queued runs before `submit` is refused.
    pub queue_depth: usize,
    /// Node budget: simulated nodes the executing runs may hold at once.
    pub pool_nodes: u32,
    /// Directory for per-run artifact files (optional).
    pub artifacts: Option<PathBuf>,
    /// Peer-to-peer data plane for every run the service executes.
    pub p2p: bool,
    /// Chaos fault spec injected into every run's wire traffic (used to
    /// exercise the link-health watchdog; `None` = inert).
    pub faults: Option<FaultSpec>,
    /// Seed for the fault plan.
    pub seed: u64,
    /// Watchdog stall threshold override in milliseconds.
    pub stall_ms: Option<u64>,
    /// Force every run's `PullData` onto the socket (`--no-shm`).
    pub no_shm: bool,
}

/// The workflow a `submit` ships: either a raw DAG/config text pair or
/// a `workflow.toml` source compiled client-side.
#[derive(Clone, Debug)]
pub enum SubmitSource {
    /// `--dag`/`--config` pair, submitted verbatim.
    Plain {
        /// DAG description file contents.
        dag: String,
        /// Workload configuration file contents.
        config: String,
    },
    /// `workflow.toml` contents, compiled with `--set` overrides.
    Toml {
        /// The TOML source.
        source: String,
        /// `--set key=value` parameter overrides.
        sets: Vec<(String, String)>,
    },
}

/// Options of the `submit` subcommand.
#[derive(Clone, Debug)]
pub struct SubmitCmd {
    /// Service address.
    pub connect: String,
    /// The workflow to submit.
    pub source: SubmitSource,
    /// Display name (defaults to the workflow's own name).
    pub name: Option<String>,
    /// Mapping-strategy slug.
    pub strategy: String,
    /// Get timeout for the run's replicas.
    pub get_timeout_ms: u64,
    /// Connect/poll timeout.
    pub timeout_ms: u64,
    /// Block until the run reaches a terminal state.
    pub wait: bool,
    /// Admission priority: a higher value is queued ahead of every
    /// lower one, first-come-first-served within a level.
    pub priority: u32,
}

/// Options of the `status` subcommand.
#[derive(Clone, Debug)]
pub struct StatusCmd {
    /// Service address.
    pub connect: String,
    /// Specific run to describe; `None` lists every run.
    pub run: Option<u64>,
    /// Emit JSON (with a specific run: its full artifacts).
    pub json: bool,
    /// Connect timeout.
    pub timeout_ms: u64,
}

/// Options of the `cancel` subcommand.
#[derive(Clone, Debug)]
pub struct CancelCmd {
    /// Service address.
    pub connect: String,
    /// Run to cancel.
    pub run: u64,
    /// Connect timeout.
    pub timeout_ms: u64,
}

/// Options of the `watch` subcommand.
#[derive(Clone, Debug)]
pub struct WatchCmd {
    /// Service address.
    pub connect: String,
    /// Run to watch.
    pub run: u64,
    /// Sampling interval in milliseconds (the service floors it at its
    /// watchdog cadence).
    pub interval_ms: u64,
    /// Print exactly one progress frame and exit (CI mode).
    pub once: bool,
    /// Emit each progress frame as one JSON line instead of the table.
    pub json: bool,
    /// Connect timeout.
    pub timeout_ms: u64,
}

/// Run the multi-tenant service until the process is killed.
pub fn service_cmd(cmd: &ServiceCmd) -> Result<String, CliError> {
    let listener = TcpListener::bind(&cmd.listen)
        .map_err(|e| CliError::Io(format!("cannot listen on {}: {e}", cmd.listen)))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::Io(format!("cannot resolve {}: {e}", cmd.listen)))?;
    let injector = match &cmd.faults {
        Some(spec) => FaultInjector::new(Arc::new(FaultPlan::new(cmd.seed, *spec))),
        None => FaultInjector::none(),
    };
    let mut watchdog = WatchdogConfig::default();
    if let Some(ms) = cmd.stall_ms {
        watchdog.stall_ms = ms;
        // Keep several polls inside one stall window so a short
        // threshold still gets sampled before it trips.
        watchdog.poll_ms = watchdog.poll_ms.min(ms / 2).max(1);
    }
    // A killed earlier service never ran its segment teardown; reclaim
    // its /dev/shm space before taking submissions.
    let swept = insitu_util::shm::sweep_stale(&insitu_util::shm::segment_dir());
    if swept > 0 {
        println!("service:   swept {swept} stale shared-memory segment(s)");
    }
    let _svc = Service::start(
        listener,
        SvcConfig {
            max_runs: cmd.max_runs,
            queue_depth: cmd.queue_depth,
            pool_nodes: cmd.pool_nodes,
            artifacts_dir: cmd.artifacts.clone(),
            verbose: true,
            p2p: cmd.p2p,
            shm: !cmd.no_shm,
            injector,
            watchdog,
            ..SvcConfig::default()
        },
        Arc::new(|dag, config| build_scenario(dag, config).map_err(|e| e.to_string())),
    )
    .map_err(CliError::Io)?;
    println!(
        "service:   listening on {addr} ({} run slots, {} pool nodes, queue depth {})",
        cmd.max_runs, cmd.pool_nodes, cmd.queue_depth
    );
    if cmd.faults.is_some() {
        println!("service:   chaos faults armed (seed {})", cmd.seed);
    }
    // Serve until killed; the Service owns every worker thread.
    loop {
        std::thread::park();
    }
}

fn client(connect: &str, timeout_ms: u64) -> Result<RpcClient, CliError> {
    RpcClient::connect(connect, Duration::from_millis(timeout_ms))
        .map_err(|e| CliError::Io(format!("cannot reach service at {connect}: {e}")))
}

fn summary_line(s: &RunSummary) -> String {
    let detail = if s.detail.is_empty() {
        String::new()
    } else {
        format!(" — {}", s.detail)
    };
    let health = if s.link_stalls > 0 || !s.health.is_empty() {
        format!(
            "  [{} link-stall(s), {} health event(s)]",
            s.link_stalls,
            s.health.len()
        )
    } else {
        String::new()
    };
    format!(
        "run {:>3}  {:<10} {:>2} node(s)  {}{detail}{health}\n",
        s.run, s.state, s.nodes, s.name
    )
}

fn summary_json(s: &RunSummary) -> Json {
    Json::obj()
        .field("run", s.run)
        .field("name", s.name.as_str())
        .field("state", s.state.slug())
        .field("nodes", s.nodes)
        .field("detail", s.detail.as_str())
        .field("link_stalls", s.link_stalls)
        .field(
            "health",
            Json::Arr(s.health.iter().map(|h| Json::from(h.as_str())).collect()),
        )
}

/// Embed an artifact document: parsed JSON when present, null before
/// the run turns terminal.
fn artifact_json(body: &str) -> Json {
    if body.is_empty() {
        return Json::Null;
    }
    Json::parse(body).unwrap_or(Json::Null)
}

fn artifacts_json(s: &RunSummary, a: &RunArtifacts) -> Json {
    summary_json(s)
        .field("ledger", artifact_json(&a.ledger_json))
        .field("metrics", artifact_json(&a.metrics_json))
        .field("profile", artifact_json(&a.profile_json))
        .field(
            "errors",
            Json::Arr(a.errors.iter().map(|e| Json::from(e.as_str())).collect()),
        )
}

/// Submit a workflow to a running service.
pub fn submit_cmd(cmd: &SubmitCmd) -> Result<String, CliError> {
    let (default_name, dag, config) = match &cmd.source {
        SubmitSource::Plain { dag, config } => {
            // Validate locally first: a refusal should name the file
            // problem, not bounce off the service.
            build_scenario(dag, config)?;
            ("workflow".to_string(), dag.clone(), config.clone())
        }
        SubmitSource::Toml { source, sets } => {
            let w =
                compile_workflow(source, sets).map_err(|e| CliError::Mismatch(e.to_string()))?;
            build_scenario(&w.dag, &w.config)?;
            (w.name, w.dag, w.config)
        }
    };
    let name = cmd.name.clone().unwrap_or(default_name);
    let mut rpc = client(&cmd.connect, cmd.timeout_ms)?;
    let (run, queued_ahead) = rpc
        .submit_with_priority(
            &name,
            &dag,
            &config,
            &cmd.strategy,
            Duration::from_millis(cmd.get_timeout_ms),
            cmd.priority,
        )
        .map_err(CliError::Mismatch)?;
    let mut out = format!("submitted: run {run} ({name}), {queued_ahead} queued ahead\n");
    if cmd.wait {
        let s = rpc
            .wait_terminal(run, Duration::from_millis(cmd.timeout_ms))
            .map_err(CliError::Mismatch)?;
        out.push_str(&summary_line(&s));
        if s.state != insitu_net::RunState::Done {
            return Err(CliError::Mismatch(format!(
                "run {run} finished {}: {}",
                s.state, s.detail
            )));
        }
    }
    Ok(out)
}

/// Describe one run (with `--json`: full artifacts) or list every run.
pub fn status_cmd(cmd: &StatusCmd) -> Result<String, CliError> {
    let mut rpc = client(&cmd.connect, cmd.timeout_ms)?;
    match cmd.run {
        Some(run) => {
            let s = rpc.status(run).map_err(CliError::Mismatch)?;
            if cmd.json {
                let a = rpc.result(run).map_err(CliError::Mismatch)?;
                Ok(artifacts_json(&s, &a).render() + "\n")
            } else {
                Ok(summary_line(&s))
            }
        }
        None => {
            let runs = rpc.list().map_err(CliError::Mismatch)?;
            if cmd.json {
                Ok(Json::Arr(runs.iter().map(summary_json).collect()).render() + "\n")
            } else if runs.is_empty() {
                Ok("no runs submitted yet\n".to_string())
            } else {
                Ok(runs.iter().map(summary_line).collect())
            }
        }
    }
}

/// Cancel a queued or running run.
pub fn cancel_cmd(cmd: &CancelCmd) -> Result<String, CliError> {
    let mut rpc = client(&cmd.connect, cmd.timeout_ms)?;
    let s = rpc.cancel(cmd.run).map_err(CliError::Mismatch)?;
    Ok(summary_line(&s))
}

/// Lines in one rendered progress block; the live view rewinds the
/// cursor by exactly this much between frames.
const PROGRESS_LINES: usize = 5;

fn progress_block(f: &Frame) -> String {
    let Frame::Progress {
        run,
        state,
        done,
        wave,
        waves,
        pulls,
        pull_bytes,
        shm_wait_p50_us,
        shm_wait_p99_us,
        rdma_wait_p50_us,
        rdma_wait_p99_us,
        pulls_in_flight,
        bytes_in_flight,
        queue_depth,
        sub_active,
        sub_pushes,
        sub_lagged,
        link_stalls,
        health,
    } = f
    else {
        return String::new();
    };
    let health_line = match health.last() {
        None => "ok".to_string(),
        Some(last) => format!("{} event(s); last: {last}", health.len()),
    };
    format!(
        "run {run:>3}  {state:<10} wave {wave}/{waves}  pulls {pulls} ({pull_bytes} B){}\n  \
         wait-us  shm p50/p99 {shm_wait_p50_us}/{shm_wait_p99_us}  \
         rdma p50/p99 {rdma_wait_p50_us}/{rdma_wait_p99_us}\n  \
         flight   {pulls_in_flight} pull(s), {bytes_in_flight} B staged, \
         {queue_depth} B queued  link-stalls {link_stalls}\n  \
         subs     {sub_active} active, {sub_pushes} push(es), {sub_lagged} lagged\n  \
         health   {health_line}\n",
        if *done { "  [final]" } else { "" },
    )
}

fn progress_json(f: &Frame) -> Json {
    let Frame::Progress {
        run,
        state,
        done,
        wave,
        waves,
        pulls,
        pull_bytes,
        shm_wait_p50_us,
        shm_wait_p99_us,
        rdma_wait_p50_us,
        rdma_wait_p99_us,
        pulls_in_flight,
        bytes_in_flight,
        queue_depth,
        sub_active,
        sub_pushes,
        sub_lagged,
        link_stalls,
        health,
    } = f
    else {
        return Json::Null;
    };
    Json::obj()
        .field("run", *run)
        .field("state", state.slug())
        .field("done", *done)
        .field("wave", *wave)
        .field("waves", *waves)
        .field("pulls", *pulls)
        .field("pull_bytes", *pull_bytes)
        .field("shm_wait_p50_us", *shm_wait_p50_us)
        .field("shm_wait_p99_us", *shm_wait_p99_us)
        .field("rdma_wait_p50_us", *rdma_wait_p50_us)
        .field("rdma_wait_p99_us", *rdma_wait_p99_us)
        .field("pulls_in_flight", *pulls_in_flight)
        .field("bytes_in_flight", *bytes_in_flight)
        .field("queue_depth", *queue_depth)
        .field("sub_active", *sub_active)
        .field("sub_pushes", *sub_pushes)
        .field("sub_lagged", *sub_lagged)
        .field("link_stalls", *link_stalls)
        .field(
            "health",
            Json::Arr(health.iter().map(|h| Json::from(h.as_str())).collect()),
        )
}

/// Stream a run's live progress. Frames print as they arrive —
/// in-place (a refreshing table) on a terminal, appended otherwise,
/// one JSON line each with `--json`.
pub fn watch_cmd(cmd: &WatchCmd) -> Result<String, CliError> {
    let mut rpc = client(&cmd.connect, cmd.timeout_ms)?;
    let live = !cmd.once && !cmd.json && std::io::stdout().is_terminal();
    let mut printed = 0u64;
    let mut last_state = String::new();
    let frames = rpc
        .watch(
            cmd.run,
            Duration::from_millis(cmd.interval_ms),
            cmd.once,
            |frame| {
                if live && printed > 0 {
                    // Rewind over the previous block and clear below so
                    // the table refreshes in place.
                    print!("\x1b[{PROGRESS_LINES}A\x1b[J");
                }
                printed += 1;
                if cmd.json {
                    println!("{}", progress_json(frame).render());
                } else {
                    print!("{}", progress_block(frame));
                }
                let _ = std::io::stdout().flush();
                if let Frame::Progress { state, .. } = frame {
                    last_state = state.slug().to_string();
                }
            },
        )
        .map_err(CliError::Mismatch)?;
    if cmd.json {
        Ok(String::new())
    } else {
        Ok(format!(
            "watch:     {frames} progress frame(s), final state {last_state}\n"
        ))
    }
}
