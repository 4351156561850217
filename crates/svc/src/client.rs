//! The RPC client: one connection, blocking request/reply calls.

use insitu_fabric::FaultInjector;
use insitu_net::{
    connect_with_retry, recv_frame, send_frame, Frame, NetMetrics, RunState, RunSummary,
};
use insitu_telemetry::Recorder;
use std::net::{Shutdown, TcpStream};
use std::time::{Duration, Instant};

/// A terminal run's artifacts, as fetched over `RunResult`.
#[derive(Clone, Debug)]
pub struct RunArtifacts {
    /// The run's terminal (or, mid-flight, current) state.
    pub state: RunState,
    /// Merged transfer ledger, rendered as JSON (empty until terminal).
    pub ledger_json: String,
    /// Metrics registry snapshot, rendered as JSON.
    pub metrics_json: String,
    /// Critical-path profile, rendered as JSON.
    pub profile_json: String,
    /// Task errors, sorted.
    pub errors: Vec<String>,
}

/// One connection to a workflow service. Every call sends a single
/// request frame and blocks for the single reply frame; an `RpcErr`
/// reply becomes an `Err` with the service's message.
pub struct RpcClient {
    stream: TcpStream,
    injector: FaultInjector,
    metrics: NetMetrics,
}

impl RpcClient {
    /// Connect to the service at `addr`, retrying until `timeout`.
    pub fn connect(addr: &str, timeout: Duration) -> Result<RpcClient, String> {
        let metrics = NetMetrics::new(&Recorder::disabled());
        let injector = FaultInjector::none();
        let stream =
            connect_with_retry(addr, 0, timeout, &injector, &metrics).map_err(|e| e.to_string())?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("socket setup: {e}"))?;
        Ok(RpcClient {
            stream,
            injector,
            metrics,
        })
    }

    fn call(&mut self, request: &Frame) -> Result<Frame, String> {
        send_frame(&mut self.stream, request, &self.injector, &self.metrics)
            .map_err(|e| format!("sending request: {e}"))?;
        match recv_frame(&mut self.stream, &self.injector, &self.metrics) {
            Ok(Frame::RpcErr { message }) => Err(message),
            Ok(reply) => Ok(reply),
            Err(e) => Err(format!("awaiting reply: {e}")),
        }
    }

    /// Submit a workflow with an admission priority (0 is the lowest): a
    /// higher value is queued ahead of every lower one,
    /// first-come-first-served within a level. Returns `(run id, runs
    /// queued ahead)`.
    pub fn submit_with_priority(
        &mut self,
        name: &str,
        dag: &str,
        config: &str,
        strategy: &str,
        get_timeout: Duration,
        priority: u32,
    ) -> Result<(u64, u32), String> {
        match self.call(&Frame::Submit {
            name: name.to_string(),
            dag: dag.to_string(),
            config: config.to_string(),
            strategy: strategy.to_string(),
            get_timeout_ms: get_timeout.as_millis() as u64,
            priority,
        })? {
            Frame::Submitted { run, queued_ahead } => Ok((run, queued_ahead)),
            other => Err(unexpected("Submitted", &other)),
        }
    }

    /// Cancel a queued or running run; returns its summary after the
    /// request took effect (a running run turns terminal only at its
    /// next wave boundary).
    pub fn cancel(&mut self, run: u64) -> Result<RunSummary, String> {
        match self.call(&Frame::Cancel { run })? {
            Frame::RunStatus(s) => Ok(s),
            other => Err(unexpected("RunStatus", &other)),
        }
    }

    /// Fetch one run's summary.
    pub fn status(&mut self, run: u64) -> Result<RunSummary, String> {
        match self.call(&Frame::Status { run })? {
            Frame::RunStatus(s) => Ok(s),
            other => Err(unexpected("RunStatus", &other)),
        }
    }

    /// Fetch every run's summary, in submission order.
    pub fn list(&mut self) -> Result<Vec<RunSummary>, String> {
        match self.call(&Frame::ListRuns)? {
            Frame::RunList { runs } => Ok(runs),
            other => Err(unexpected("RunList", &other)),
        }
    }

    /// Fetch a run's artifacts (JSON fields are empty until terminal).
    pub fn result(&mut self, run: u64) -> Result<RunArtifacts, String> {
        match self.call(&Frame::RunResult { run })? {
            Frame::RunReport {
                state,
                ledger_json,
                metrics_json,
                profile_json,
                errors,
                ..
            } => Ok(RunArtifacts {
                state,
                ledger_json,
                metrics_json,
                profile_json,
                errors,
            }),
            other => Err(unexpected("RunReport", &other)),
        }
    }

    /// Subscribe to a run's live progress stream: sends `Watch` and
    /// invokes `on_progress` with every `Progress` frame until the
    /// final one (`done = true`; with `once`, the first frame is the
    /// final one). Returns the number of frames received. The service
    /// floors `interval` at its watchdog cadence.
    pub fn watch(
        &mut self,
        run: u64,
        interval: Duration,
        once: bool,
        mut on_progress: impl FnMut(&Frame),
    ) -> Result<u64, String> {
        let request = Frame::Watch {
            run,
            interval_ms: interval.as_millis() as u64,
            once,
        };
        send_frame(&mut self.stream, &request, &self.injector, &self.metrics)
            .map_err(|e| format!("sending watch: {e}"))?;
        let mut frames = 0u64;
        loop {
            match recv_frame(&mut self.stream, &self.injector, &self.metrics) {
                Ok(Frame::RpcErr { message }) => return Err(message),
                Ok(frame @ Frame::Progress { .. }) => {
                    frames += 1;
                    let done = matches!(frame, Frame::Progress { done: true, .. });
                    on_progress(&frame);
                    if done {
                        return Ok(frames);
                    }
                }
                Ok(other) => return Err(unexpected("Progress", &other)),
                Err(e) => return Err(format!("awaiting progress: {e}")),
            }
        }
    }

    /// Block until the run reaches a terminal state and return its
    /// summary: a `watch` that ends on the final frame, which the
    /// service pushes at the transition, then one `status`. Fails if
    /// the final frame has not come within `timeout`; the connection is
    /// shut down then, so a later call fails instead of reading it.
    pub fn wait_terminal(&mut self, run: u64, timeout: Duration) -> Result<RunSummary, String> {
        // A zero read timeout would mean none.
        let timeout = timeout.max(Duration::from_millis(1));
        let started = Instant::now();
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        // An interval no run outlasts: the first frame comes at once,
        // the next one is the final one.
        let watched = self.watch(run, Duration::from_millis(u64::MAX), false, |_| {});
        self.stream
            .set_read_timeout(None)
            .map_err(|e| e.to_string())?;
        match watched {
            Err(_) if started.elapsed() >= timeout => {
                let _ = self.stream.shutdown(Shutdown::Both);
                Err(format!("run {run} not terminal after {timeout:?}"))
            }
            Err(e) => Err(e),
            Ok(_) => self.status(run),
        }
    }
}

fn unexpected(wanted: &str, got: &Frame) -> String {
    format!("expected {wanted}, got frame kind {}", got.kind())
}
