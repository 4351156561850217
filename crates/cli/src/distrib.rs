//! The distributed subcommands: `serve`, `join` and `launch`.
//!
//! `serve` runs the workflow management server on a real TCP listener;
//! `join` runs one node process against it; `launch` is the one-command
//! demonstration — it forks one `join` child per node over loopback,
//! serves in-process, then re-runs the same workflow single-process and
//! verifies the merged transfer ledger is byte-identical.

use crate::driver::{build_scenario, CliError};
use insitu::{join, map_scenario, run_threaded, serve, DistribOutcome, JoinOptions, ServeOptions};
use insitu_fabric::TrafficClass;
use insitu_obs::{chrome_trace_merged, merge_traces, FlightRecorder, ProfileReport};
use insitu_telemetry::Recorder;
use insitu_util::shm;
use std::net::TcpListener;
use std::path::PathBuf;

/// Options of the `serve` subcommand.
#[derive(Clone, Debug)]
pub struct ServeCmd {
    /// DAG description file contents.
    pub dag: String,
    /// Workload configuration file contents.
    pub config: String,
    /// Address to listen on, e.g. `127.0.0.1:7001`.
    pub listen: String,
    /// The server's knobs, handed to [`serve`] as they are.
    pub opts: ServeOptions,
    /// Where to write the merged run's artifacts.
    pub out: RunOutputs,
}

/// Options of the `join` subcommand. No workflow files: the server
/// ships the DAG and config text in its `Welcome` frame.
#[derive(Clone, Debug)]
pub struct JoinCmd {
    /// Server address to connect to.
    pub connect: String,
    /// Which simulated node this process claims.
    pub node: u32,
    /// The joiner's knobs; `join_cmd` switches both recorders on.
    pub opts: JoinOptions,
}

/// Options of the `launch` subcommand.
#[derive(Clone, Debug)]
pub struct LaunchCmd {
    /// DAG description file contents.
    pub dag: String,
    /// Workload configuration file contents.
    pub config: String,
    /// The in-process server's knobs. With `p2p`, `launch` additionally
    /// asserts that zero `PullData` frames traversed the hub; without
    /// `shm`, every joiner is spawned with `--no-shm` too.
    pub opts: ServeOptions,
    /// Where to write the merged run's artifacts.
    pub out: RunOutputs,
}

/// The files `serve` and `launch` write after a distributed run.
#[derive(Clone, Debug, Default)]
pub struct RunOutputs {
    /// The merged ledger snapshot as JSON.
    pub ledger_out: Option<PathBuf>,
    /// The merged cross-process chrome trace.
    pub trace_out: Option<PathBuf>,
    /// The merged critical-path profile as JSON.
    pub profile_out: Option<PathBuf>,
}

fn render_outcome(o: &DistribOutcome) -> String {
    let mut out = String::new();
    out.push_str(&format!("strategy:  {}\n", o.strategy.label()));
    out.push_str(&format!("nodes:     {} joiner process(es)\n", o.nodes));
    out.push_str(&format!(
        "verified:  {} cell mismatches\n",
        o.verify_failures
    ));
    out.push_str(&format!(
        "coupling:  {} B over network, {} B in-situ\n",
        o.ledger.network_bytes(TrafficClass::InterApp),
        o.ledger.shm_bytes(TrafficClass::InterApp),
    ));
    out.push_str(&format!("gets:      {}\n", o.gets));
    for e in &o.errors {
        out.push_str(&format!("error:     {e}\n"));
    }
    out
}

fn write_ledger(path: &PathBuf, o: &DistribOutcome) -> Result<String, CliError> {
    std::fs::write(path, o.ledger.to_json().render() + "\n")
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
    Ok(format!("ledger:    wrote {}\n", path.display()))
}

/// Merge the joiners' shipped telemetry into one cross-process trace,
/// render its critical-path summary and degradation warnings, and write
/// the merged chrome trace / profile files when requested.
fn render_merged_telemetry(o: &DistribOutcome, files: &RunOutputs) -> Result<String, CliError> {
    let merged = merge_traces(o.telemetry.clone());
    let report = ProfileReport::analyze(&merged.events, merged.dropped);
    let t = report.totals();
    let mut out = format!(
        "telemetry: {} event(s) from {} process(es), {} cross-process edge(s) stitched\n",
        merged.events.len(),
        merged.processes,
        merged.stitched,
    );
    out.push_str(&format!(
        "critical:  {:.0} us end-to-end = schedule {:.0} + shm {:.0} + rdma {:.0} + wait {:.0}\n",
        report.end_to_end_total_us(),
        t.schedule_us,
        t.shm_us,
        t.rdma_us,
        t.wait_us,
    ));
    for w in merged.warnings() {
        out.push_str(&format!("warning:   telemetry: {w}\n"));
    }
    if let Some(path) = &files.trace_out {
        std::fs::write(path, chrome_trace_merged(&merged).render() + "\n")
            .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
        out.push_str(&format!(
            "trace:     wrote {} (merged, per-process lanes)\n",
            path.display()
        ));
    }
    if let Some(path) = &files.profile_out {
        std::fs::write(path, report.to_json().render() + "\n")
            .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))?;
        out.push_str(&format!(
            "profile:   wrote {} (merged critical path)\n",
            path.display()
        ));
    }
    Ok(out)
}

/// Run the workflow server until the distributed run completes.
pub fn serve_cmd(cmd: &ServeCmd) -> Result<String, CliError> {
    let scenario = build_scenario(&cmd.dag, &cmd.config)?;
    // A crashed earlier run must not leak /dev/shm space forever: drop
    // any segment whose creator process is gone before serving.
    let swept = shm::sweep_stale(&shm::segment_dir());
    let listener = TcpListener::bind(&cmd.listen)
        .map_err(|e| CliError::Io(format!("cannot listen on {}: {e}", cmd.listen)))?;
    let outcome = serve(&listener, &cmd.dag, &cmd.config, &scenario, &cmd.opts)
        .map_err(CliError::Mismatch)?;
    let mut out = String::new();
    if swept > 0 {
        out.push_str(&format!(
            "swept:     {swept} stale shared-memory segment(s) from dead runs\n"
        ));
    }
    out.push_str(&render_outcome(&outcome));
    out.push_str(&render_merged_telemetry(&outcome, &cmd.out)?);
    if let Some(path) = &cmd.out.ledger_out {
        out.push_str(&write_ledger(path, &outcome)?);
    }
    Ok(out)
}

/// Run one node process against a server. The recorder and flight
/// recorder are always on: the joiner ships its metrics snapshot and
/// causal event log to the hub at collect time, so the server side can
/// stitch the merged cross-process trace.
pub fn join_cmd(cmd: &JoinCmd) -> Result<String, CliError> {
    let opts = JoinOptions {
        recorder: Recorder::enabled(),
        flight: FlightRecorder::enabled(),
        ..cmd.opts.clone()
    };
    join(
        &cmd.connect,
        cmd.node,
        |dag, config| build_scenario(dag, config).map_err(|e| e.to_string()),
        &opts,
    )
    .map_err(CliError::Mismatch)?;
    Ok(format!("node {} completed all waves\n", cmd.node))
}

/// Kill and wait every joiner child. Used on launch error paths so a
/// failed run never leaves orphaned joiner processes behind; `kill` on
/// an already-exited child is a no-op error we ignore, and `wait` then
/// reaps it either way. A killed joiner never runs its own segment
/// teardown, so its shared-memory segments are reaped here by pid.
fn reap_joiners(children: Vec<(u32, std::process::Child)>) {
    for (_, mut child) in children {
        let pid = child.id();
        let _ = child.kill();
        let _ = child.wait();
        shm::reap_pid(&shm::segment_dir(), pid);
    }
}

/// Fork one joiner process per node over loopback, serve in-process,
/// then verify the merged ledger against a single-process run of the
/// same workflow. Errors (including a ledger mismatch) exit nonzero.
pub fn launch_cmd(cmd: &LaunchCmd) -> Result<String, CliError> {
    let scenario = build_scenario(&cmd.dag, &cmd.config)?;
    let nodes = map_scenario(&scenario, cmd.opts.strategy).machine.nodes;
    let listener = TcpListener::bind("127.0.0.1:0")
        .map_err(|e| CliError::Io(format!("cannot bind loopback: {e}")))?;
    let addr = listener
        .local_addr()
        .map_err(|e| CliError::Io(format!("cannot resolve loopback address: {e}")))?
        .to_string();
    let exe = std::env::current_exe()
        .map_err(|e| CliError::Io(format!("cannot locate own executable: {e}")))?;

    let mut children = Vec::new();
    for node in 0..nodes {
        let mut join_args = vec![
            "join".to_string(),
            "--connect".to_string(),
            addr.clone(),
            "--node".to_string(),
            node.to_string(),
            "--timeout-ms".to_string(),
            cmd.opts.timeout.as_millis().to_string(),
        ];
        if !cmd.opts.shm {
            join_args.push("--no-shm".to_string());
        }
        let spawned = std::process::Command::new(&exe)
            .args(&join_args)
            .stdout(std::process::Stdio::null())
            .spawn()
            .map_err(|e| CliError::Io(format!("cannot spawn joiner {node}: {e}")));
        match spawned {
            Ok(child) => children.push((node, child)),
            Err(e) => {
                // A joiner failed to start: the run cannot proceed, so
                // reap the ones already spawned instead of leaving them
                // waiting on a server that will never dispatch.
                reap_joiners(children);
                return Err(e);
            }
        }
    }

    // The hub always records metrics: the transport-topology claims —
    // no data-plane frames through the hub in p2p mode, same-host
    // PullData off the socket in shm mode — are checked, not assumed.
    let recorder = Recorder::enabled();
    let opts = ServeOptions {
        recorder: recorder.clone(),
        ..cmd.opts.clone()
    };
    let outcome = match serve(&listener, &cmd.dag, &cmd.config, &scenario, &opts) {
        Ok(outcome) => outcome,
        Err(e) => {
            // The server side failed; surviving joiners may be blocked
            // on a run that will never finish. Kill and reap them so no
            // orphan outlives the launcher.
            reap_joiners(children);
            return Err(CliError::Mismatch(e));
        }
    };
    let mut joiner_failures = Vec::new();
    for (node, mut child) in children {
        let pid = child.id();
        match child.wait() {
            Ok(status) if status.success() => {}
            Ok(status) => joiner_failures.push(format!("joiner {node} exited with {status}")),
            Err(e) => joiner_failures.push(format!("joiner {node} did not exit cleanly: {e}")),
        }
        // A joiner that died mid-run never unlinked its segments; a
        // clean one already did, making this a cheap no-op.
        shm::reap_pid(&shm::segment_dir(), pid);
    }
    if let Some(fail) = joiner_failures.first() {
        return Err(CliError::Mismatch(fail.clone()));
    }

    let mut out = format!("launch:    1 server + {nodes} joiner process(es) over {addr}\n");
    out.push_str(&render_outcome(&outcome));
    out.push_str(&render_merged_telemetry(&outcome, &cmd.out)?);
    if !outcome.errors.is_empty() {
        return Err(CliError::Mismatch(format!(
            "distributed run hit {} task error(s)",
            outcome.errors.len()
        )));
    }

    // The correctness anchor: the merged distributed ledger must be
    // byte-identical to the single-process threaded run.
    let expected = run_threaded(&scenario, cmd.opts.strategy);
    if outcome.ledger != expected.ledger {
        return Err(CliError::Mismatch(format!(
            "ledger mismatch: distributed run accounted {} inter-app bytes, \
             single-process run {}",
            outcome.ledger.total_bytes(TrafficClass::InterApp),
            expected.ledger.total_bytes(TrafficClass::InterApp),
        )));
    }
    out.push_str(&format!(
        "ledger:    byte-identical to the single-process run ({} B total inter-app)\n",
        outcome.ledger.total_bytes(TrafficClass::InterApp)
    ));
    if cmd.opts.p2p {
        let through_hub = recorder.metrics_snapshot().counter("net.pull_frames_hub");
        if through_hub != 0 {
            return Err(CliError::Mismatch(format!(
                "p2p violation: {through_hub} PullData frame(s) traversed the hub"
            )));
        }
        out.push_str("p2p:       0 PullData frames through the hub\n");
    }
    // What the joiners counted, summed from their shipped telemetry.
    let joiner_sum = |key: &str| -> u64 {
        outcome
            .telemetry
            .iter()
            .map(|t| t.counters.get(key).copied().unwrap_or(0))
            .sum()
    };
    // Transport census for the shared-memory plane. Every launch
    // process shares this host, so with shm on every PullData should
    // ride a segment; the counters make that greppable rather than
    // assumed (ring-full fallbacks legitimately shift frames back to
    // the socket, so the census reports rather than hard-fails, and
    // tells that load-caused share apart from attach faults).
    if !cmd.opts.shm {
        out.push_str("shm:       disabled (--no-shm), PullData on the socket\n");
    } else {
        // net.shm_frames ticks on both ends of a transfer, so the
        // joiner sum counts each frame at its producer and consumer.
        let shm_frames = joiner_sum("net.shm_frames");
        let fallbacks = joiner_sum("net.shm_fallbacks");
        let ring_full = joiner_sum("net.shm_fallbacks_full");
        let hub_pulls = recorder.metrics_snapshot().counter("net.pull_frames_hub");
        out.push_str(&format!(
            "shm:       {shm_frames} shared-memory frame event(s), \
             {hub_pulls} PullData through the hub, {fallbacks} fallback(s) \
             ({ring_full} ring-full)\n"
        ));
    }
    // Copy census for the socket data plane: a PullData payload is read
    // off the socket into the buffer the registry keeps, relayed by the
    // hub without being re-encoded and written from the staged buffer,
    // so no process of the run should have copied a byte of one.
    let copied = recorder
        .metrics_snapshot()
        .counter("net.payload_copy_bytes")
        + joiner_sum("net.payload_copy_bytes");
    out.push_str(&format!(
        "copies:    {copied} PullData payload byte(s) copied in user space\n"
    ));
    // Standing-query census: how many subscriptions the workflow
    // declared and what the push plane actually did. Pushes and
    // deliveries tick in the joiner that performed them, so the joiner
    // sum is the run total; lagged > 0 means a subscriber queue
    // overflowed and a resync get healed the gap.
    if !scenario.subscriptions.is_empty() {
        out.push_str(&format!(
            "sub:       {} subscription(s), {} push(es), {} delivery(ies), {} lagged\n",
            scenario.subscriptions.len(),
            joiner_sum("sub.pushes"),
            joiner_sum("sub.deliveries"),
            joiner_sum("sub.lagged"),
        ));
    }
    if let Some(path) = &cmd.out.ledger_out {
        out.push_str(&write_ledger(path, &outcome)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    const DAG: &str = "\
APP_ID 1
APP_ID 2
BUNDLE 1 2
";
    const CFG: &str = "\
CORES_PER_NODE 4
DOMAIN 8 8 8
HALO 1
APP 1 GRID 2 2 1 DIST blocked
APP 2 GRID 2 1 2 DIST blocked
COUPLING VAR t PRODUCER 1 CONSUMERS 2 MODE concurrent
";

    #[test]
    fn join_cmd_fails_fast_on_unreachable_address() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        let err = join_cmd(&JoinCmd {
            connect: addr.clone(),
            node: 0,
            opts: JoinOptions {
                timeout: Duration::from_millis(150),
                ..JoinOptions::default()
            },
        })
        .unwrap_err();
        assert!(err.to_string().contains(&addr), "{err}");
    }

    #[test]
    fn serve_cmd_fails_fast_without_joiners() {
        let err = serve_cmd(&ServeCmd {
            dag: DAG.into(),
            config: CFG.into(),
            listen: "127.0.0.1:0".into(),
            opts: ServeOptions {
                timeout: Duration::from_millis(150),
                ..ServeOptions::default()
            },
            out: RunOutputs::default(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("joiners"), "{err}");
    }

    #[test]
    fn serve_cmd_reports_busy_port_cleanly() {
        // Hold the port, then ask serve to bind it: the failure must be
        // a clean CLI error naming the address, not a panic.
        let holder = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = holder.local_addr().unwrap().to_string();
        let err = serve_cmd(&ServeCmd {
            dag: DAG.into(),
            config: CFG.into(),
            listen: addr.clone(),
            opts: ServeOptions {
                timeout: Duration::from_millis(150),
                ..ServeOptions::default()
            },
            out: RunOutputs::default(),
        })
        .unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, CliError::Io(_)) && msg.contains(&addr),
            "{msg}"
        );
    }

    #[test]
    fn reap_joiners_kills_stuck_children() {
        let child = std::process::Command::new("sleep")
            .arg("600")
            .spawn()
            .unwrap();
        let started = std::time::Instant::now();
        reap_joiners(vec![(0, child)]);
        // reap_joiners returns only after the child is dead and waited
        // on — far sooner than the sleep would have finished.
        assert!(started.elapsed() < Duration::from_secs(30));
    }
}
