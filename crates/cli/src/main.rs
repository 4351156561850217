//! `insitu` — run a coupled workflow from a DAG description file and a
//! workload configuration file.
//!
//! ```text
//! insitu run [--dag] workflow.dag --config workload.cfg \
//!     [--strategy data-centric|round-robin|node-cyclic] [--modeled] \
//!     [--metrics-out m.json] [--trace-out t.json]
//! ```

use insitu::cods::DEFAULT_GET_TIMEOUT;
use insitu::{JoinOptions, MappingStrategy, ServeOptions, DEFAULT_CONNECT_TIMEOUT};
use insitu_chaos::FaultSpec;
use insitu_cli::{
    run, CancelCmd, JoinCmd, LaunchCmd, Options, ProfileOptions, RunOutputs, ServeCmd, ServiceCmd,
    StatusCmd, SubmitCmd, SubmitSource, WatchCmd,
};
use insitu_svc::SvcConfig;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Every `insitu` process (launch, serve, join, the service, run) starts
/// fresh, so its large buffers fault their first pages there: this
/// allocator places each one on whole, aligned huge pages advised before
/// that first touch (DESIGN.md §9.5). It is the program's only
/// `#[global_allocator]`; library code keeps `System`.
#[global_allocator]
static ALLOC: insitu_util::HugeAlloc = insitu_util::HugeAlloc;

const USAGE: &str = "\
usage: insitu run     [--dag] <file> --config <file>
              [--strategy data-centric|round-robin|node-cyclic] [--modeled]
              [--metrics-out <path>] [--trace-out <path>]
       insitu profile [--dag] <file> --config <file>
              [--strategy <s>] [--modeled] [--json] [--trace-out <path>]
       insitu compare [--dag] <file> --config <file>
              [--metrics-out <path>] [--trace-out <path>]
       insitu chaos   [--seed <n>] [--cases <n>] [--faults <spec>]
       insitu serve   [--dag] <file> --config <file> --listen <addr>
              [--strategy <s>] [--timeout-ms <n>] [--ledger-out <path>]
              [--trace-out <path>] [--profile-out <path>] [--p2p] [--no-shm]
       insitu serve   --listen <addr> [--max-runs <n>] [--queue-depth <n>]
              [--pool-nodes <n>] [--artifacts <dir>] [--no-shm]
              [--faults <spec>] [--seed <n>] [--stall-ms <n>]
       insitu join    --connect <addr> --node <n> [--timeout-ms <n>] [--no-shm]
       insitu launch  [--dag] <file> --config <file>
              [--strategy <s>] [--timeout-ms <n>] [--ledger-out <path>]
              [--trace-out <path>] [--profile-out <path>] [--p2p] [--no-shm]
       insitu launch  <workflow.toml>
              [--strategy <s>] [--timeout-ms <n>] [--ledger-out <path>]
              [--trace-out <path>] [--profile-out <path>] [--p2p] [--no-shm]
       insitu submit  --connect <addr> <workflow.toml> [--set k=v]...
              [--name <s>] [--strategy <s>] [--get-timeout-ms <n>]
              [--timeout-ms <n>] [--wait] [--priority <n>]
       insitu submit  --connect <addr> [--dag] <file> --config <file>
              [--name <s>] [--strategy <s>] [--get-timeout-ms <n>]
              [--timeout-ms <n>] [--wait] [--priority <n>]
       insitu status  --connect <addr> [--run <id>] [--json] [--timeout-ms <n>]
       insitu watch   --connect <addr> --run <id> [--interval-ms <n>]
              [--once] [--json] [--timeout-ms <n>]
       insitu cancel  --connect <addr> --run <id> [--timeout-ms <n>]

Each subcommand reads exactly the flags listed for it above; any other
argument is refused by name.
`run` executes the workflow described by the DAG file (paper Listing-1
syntax) with the workload configuration (domains, grids, distributions,
couplings); default is data-centric mapping on the threaded executor.
`profile` runs the workflow with the causal flight recorder enabled and
prints the critical-path profile: per-iteration schedule/shm/RDMA/wait
attribution, queueing-delay and transfer-size percentiles per link class,
and the injected-fault tally; `--trace-out` writes a chrome://tracing
timeline whose flow arrows connect producer puts to consumer pulls.
`profile` is single-process; for a distributed run use `launch` with
`--trace-out`/`--profile-out`, which merge every joiner's shipped
telemetry into one cross-process trace and critical-path profile.
`compare` runs both mapping strategies on the modeled executor and prints
a side-by-side summary with a per-counter metrics delta table.
`--metrics-out` writes the telemetry registry snapshot as JSON (counters,
gauges, and per-phase / per-task time histograms); `--trace-out` (run,
profile, compare) writes the run's flight recording as a chrome://tracing
timeline: one slice per put/get/schedule/pull, flow arrows from producer
puts to consumer pulls, and a `droppedEvents` tally (a warning is printed
when the bounded recorder dropped any).
`chaos` fuzzes randomized workflow cases under seeded fault injection
(defaults: --seed 42 --cases 25 --faults standard). `--faults` takes
'none', 'standard', or 'kind:rate,...' with kinds dead-producer,
drop-pull, delay-pull, dht-blackout, stage-full, link-slow. The report is
bit-for-bit replayable from the seed; the exit code is nonzero when an
invariant was violated, and the first violation is shrunk to a minimal
ready-to-paste #[test] reproducer.
`serve` runs the workflow management server on a TCP listener, waiting
up to `--timeout-ms` (default 30000) for one joiner process per node;
`join` runs one node process (no workflow files needed — the server
ships them in its Welcome frame); `launch` forks one joiner per node
over loopback, serves in-process, and exits nonzero unless the merged
distributed ledger is byte-identical to a single-process run. `serve`
and `launch` also accept a `workflow.toml` in place of the
`--dag`/`--config` pair, compiled client-side exactly like `submit`.
`--ledger-out` writes the merged transfer-ledger snapshot as JSON.
`--p2p` (single-run `serve` and `launch` only; the service routes star)
runs the data plane peer-to-peer: every joiner binds a direct
listener, `PullData` flows node-to-node, and the hub carries control
traffic only (`launch --p2p` additionally asserts zero data frames
traversed the hub).
Same-host `PullData` rides shared-memory segments by default — peers on
one host (matching kernel boot id) exchange payloads through `/dev/shm`
rings, with the socket carrying only the doorbell control frames.
`--no-shm` forces everything back onto the socket: on `serve`/`launch`
it disables the plane for the whole run, on `join` it opts one node
out. `launch` prints a greppable `shm:` census line, and `serve` sweeps
stale segments left by crashed earlier runs at startup.
`serve` *without* workflow files runs the multi-tenant service instead:
it executes up to `--max-runs` (default 4) concurrently submitted
workflows within a budget of `--pool-nodes` (default 8) nodes, each
hosted on a joiner thread of its run for as long as the run lasts,
queueing up to `--queue-depth` (default 32) more, until the process
is killed. `submit` sends a workflow to a service — either a
parameterized workflow.toml (with `--set key=value` overrides) or a
plain `--dag`/`--config` pair — and with `--wait` blocks until the run
finishes; `--priority <n>` queues it ahead of every lower-priority
submission (default 0, plain FIFO within a level); `status` shows one run (`--json` includes its ledger, metrics
and critical-path profile artifacts plus the watchdog's link_stalls and
health events) or lists all runs; `cancel` stops a queued run
immediately or a running run at its next wave boundary. `watch` streams
a run's live progress — waves, pulls, per-link-class wait percentiles,
bytes in flight and health events — as a refreshing table (`--once`
prints a single frame for CI; `--json` emits one JSON line per frame).
Service-mode `serve` also takes `--faults`/`--seed` (chaos spec, same
syntax as `chaos`, injected into every run's wire traffic) and
`--stall-ms` (link-health watchdog stall threshold, default 2000; the
watchdog samples every tenth of it).";

#[derive(Debug)]
enum Command {
    Run(Options),
    Profile(ProfileOptions),
    Compare {
        dag: String,
        config: String,
        metrics_out: Option<PathBuf>,
        trace_out: Option<PathBuf>,
    },
    Chaos {
        seed: u64,
        cases: u64,
        faults: FaultSpec,
    },
    Serve(ServeCmd),
    Join(JoinCmd),
    Launch(LaunchCmd),
    Service(ServiceCmd),
    Submit(SubmitCmd),
    Status(StatusCmd),
    Watch(WatchCmd),
    Cancel(CancelCmd),
}

/// The arguments after the subcommand. A subcommand takes the flags it
/// reads, in any order; [`Args::done`] then refuses whatever is left.
struct Args(Vec<Option<String>>);

impl Args {
    /// Whether `name` was given.
    fn flag(&mut self, name: &str) -> bool {
        let mut seen = false;
        for a in self.0.iter_mut().filter(|a| a.as_deref() == Some(name)) {
            *a = None;
            seen = true;
        }
        seen
    }

    /// The argument after each `name`, in order: `name needs <needs>`
    /// when the command line ends there.
    fn values(&mut self, name: &str, needs: &str) -> Result<Vec<String>, String> {
        let mut out = Vec::new();
        let mut it = self.0.iter_mut();
        while let Some(a) = it.next() {
            if a.as_deref() == Some(name) {
                *a = None;
                let v = it.next().and_then(Option::take);
                out.push(v.ok_or_else(|| format!("{name} needs {needs}"))?);
            }
        }
        Ok(out)
    }

    /// The value of the last `name`, parsed: `bad <what> '<v>'` when it
    /// does not parse.
    fn value<T: std::str::FromStr>(
        &mut self,
        name: &str,
        needs: &str,
        what: &str,
    ) -> Result<Option<T>, String> {
        let Some(v) = self.values(name, needs)?.pop() else {
            return Ok(None);
        };
        v.parse().map(Some).map_err(|_| format!("bad {what} '{v}'"))
    }

    /// The first bare word left. A word right after a flag nobody has
    /// read yet is taken to be that flag's value, so it is skipped.
    fn positional(&mut self) -> Option<String> {
        let mut after_flag = false;
        for a in &mut self.0 {
            let is_flag = a.as_deref().is_some_and(|s| s.starts_with('-'));
            if a.is_some() && !is_flag && !after_flag {
                return a.take();
            }
            after_flag = is_flag;
        }
        None
    }

    /// Refuse the first argument nobody took.
    fn done(self) -> Result<(), String> {
        match self.0.into_iter().flatten().next() {
            Some(a) => Err(format!("unknown argument '{a}'")),
            None => Ok(()),
        }
    }

    fn strategy(&mut self) -> Result<MappingStrategy, String> {
        match self.value::<String>("--strategy", "a name", "name")? {
            Some(v) => {
                MappingStrategy::from_label(&v).ok_or_else(|| format!("unknown strategy {v:?}"))
            }
            None => Ok(MappingStrategy::DataCentric),
        }
    }

    fn faults(&mut self) -> Result<Option<FaultSpec>, String> {
        self.value::<String>("--faults", "a spec", "spec")?
            .map(|s| FaultSpec::parse(&s))
            .transpose()
    }

    fn path(&mut self, name: &str) -> Result<Option<PathBuf>, String> {
        self.value(name, "a path", "path")
    }

    /// `--timeout-ms`, or `default`.
    fn timeout(&mut self, default: Duration) -> Result<Duration, String> {
        let ms = self.value("--timeout-ms", "a number", "timeout")?;
        Ok(ms.map_or(default, Duration::from_millis))
    }

    /// `[--dag] <file> --config <file>`. Read it after the subcommand's
    /// other flags, so that none of their values is taken for the DAG.
    fn workflow_paths(&mut self) -> Result<(Option<String>, Option<String>), String> {
        let dag = self.value("--dag", "a path", "path")?;
        let config = self.value("--config", "a path", "path")?;
        Ok((dag.or_else(|| self.positional()), config))
    }

    /// The workflow paths, then [`Args::done`], then both files read.
    fn files(mut self) -> Result<(String, String), String> {
        let (dag, config) = self.workflow_paths()?;
        self.done()?;
        read_pair(dag, config)
    }

    /// `--ledger-out`, `--trace-out` and `--profile-out`.
    fn outputs(&mut self) -> Result<RunOutputs, String> {
        Ok(RunOutputs {
            ledger_out: self.path("--ledger-out")?,
            trace_out: self.path("--trace-out")?,
            profile_out: self.path("--profile-out")?,
        })
    }

    /// `--connect` and `--timeout-ms`, which every service client reads.
    fn client(&mut self) -> Result<(Option<String>, u64), String> {
        let connect = self.value("--connect", "an address", "address")?;
        let timeout_ms = self.value("--timeout-ms", "a number", "timeout")?;
        Ok((
            connect,
            timeout_ms.unwrap_or(DEFAULT_CONNECT_TIMEOUT.as_millis() as u64),
        ))
    }

    /// The flags `serve` and `launch` share besides `--p2p`/`--no-shm`.
    fn serve_options(&mut self, p2p: bool, shm: bool) -> Result<ServeOptions, String> {
        let d = ServeOptions::default();
        Ok(ServeOptions {
            strategy: self.strategy()?,
            timeout: self.timeout(d.timeout)?,
            p2p,
            shm,
            ..d
        })
    }
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
}

const NOT_BOTH: &str = "give either a workflow.toml or --dag/--config, not both";

fn read_pair(dag: Option<String>, config: Option<String>) -> Result<(String, String), String> {
    let dag = dag.ok_or("missing --dag")?;
    let config = config.ok_or("missing --config")?;
    Ok((read(&dag)?, read(&config)?))
}

/// The (dag, config) texts `serve` and `launch` run: the two files, or a
/// workflow.toml compiled client-side exactly as `submit` would.
fn workflow(dag: Option<String>, config: Option<String>) -> Result<(String, String), String> {
    match dag {
        Some(toml) if toml.ends_with(".toml") => {
            if config.is_some() {
                return Err(NOT_BOTH.into());
            }
            let w =
                insitu_workflow::compile_workflow(&read(&toml)?, &[]).map_err(|e| e.to_string())?;
            Ok((w.dag, w.config))
        }
        dag => read_pair(dag, config),
    }
}

const SUBCOMMANDS: &str = "expected the 'run', 'profile', 'compare', 'chaos', 'serve', 'join', \
                           'launch', 'submit', 'status', 'watch' or 'cancel' subcommand";

fn parse_args(args: &[String]) -> Result<Command, String> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(SUBCOMMANDS.into());
    };
    let mut a = Args(rest.iter().cloned().map(Some).collect());
    Ok(match sub.as_str() {
        "run" => {
            let strategy = a.strategy()?;
            let threaded = !a.flag("--modeled");
            let metrics_out = a.path("--metrics-out")?;
            let trace_out = a.path("--trace-out")?;
            let (dag, config) = a.files()?;
            Command::Run(Options {
                dag,
                config,
                strategy,
                threaded,
                metrics_out,
                trace_out,
            })
        }
        "profile" => {
            let strategy = a.strategy()?;
            let threaded = !a.flag("--modeled");
            let json = a.flag("--json");
            let trace_out = a.path("--trace-out")?;
            let (dag, config) = a.files()?;
            Command::Profile(ProfileOptions {
                dag,
                config,
                strategy,
                threaded,
                json,
                trace_out,
            })
        }
        "compare" => {
            let metrics_out = a.path("--metrics-out")?;
            let trace_out = a.path("--trace-out")?;
            let (dag, config) = a.files()?;
            Command::Compare {
                dag,
                config,
                metrics_out,
                trace_out,
            }
        }
        "chaos" => {
            let seed = a.value("--seed", "a number", "seed")?.unwrap_or(42);
            let cases = a.value("--cases", "a number", "case count")?.unwrap_or(25);
            let faults = a.faults()?.unwrap_or_else(FaultSpec::standard);
            a.done()?;
            Command::Chaos {
                seed,
                cases,
                faults,
            }
        }
        "serve" => {
            let listen = a.value::<String>("--listen", "an address", "address")?;
            let p2p = a.flag("--p2p");
            let shm = !a.flag("--no-shm");
            let (dag, config) = a.workflow_paths()?;
            if dag.is_none() && config.is_none() {
                // No workflow files: run the multi-tenant service.
                if p2p {
                    return Err("--p2p is single-run only: the service routes star".into());
                }
                let d = SvcConfig::default();
                let cfg = SvcConfig {
                    max_runs: a
                        .value("--max-runs", "a count", "run count")?
                        .unwrap_or(d.max_runs),
                    queue_depth: a
                        .value("--queue-depth", "a count", "queue depth")?
                        .unwrap_or(d.queue_depth),
                    pool_nodes: a
                        .value("--pool-nodes", "a count", "node budget")?
                        .unwrap_or(d.pool_nodes),
                    artifacts_dir: a.value("--artifacts", "a dir", "dir")?,
                    shm,
                    stall_ms: a
                        .value("--stall-ms", "a number", "threshold")?
                        .unwrap_or(d.stall_ms),
                    ..d
                };
                let faults = a.faults()?;
                let seed = a.value("--seed", "a number", "seed")?.unwrap_or(42);
                a.done()?;
                return Ok(Command::Service(ServiceCmd {
                    listen: listen.ok_or("missing --listen")?,
                    cfg,
                    faults,
                    seed,
                }));
            }
            let service_only =
                "--max-runs/--queue-depth/--pool-nodes/--artifacts/--faults/--seed/--stall-ms";
            if service_only.split('/').any(|f| a.flag(f)) {
                return Err(format!(
                    "{service_only} need service mode (serve without --dag/--config)"
                ));
            }
            let opts = a.serve_options(p2p, shm)?;
            let out = a.outputs()?;
            a.done()?;
            let (dag, config) = workflow(dag, config)?;
            Command::Serve(ServeCmd {
                dag,
                config,
                listen: listen.ok_or("missing --listen")?,
                opts,
                out,
            })
        }
        "launch" => {
            let p2p = a.flag("--p2p");
            let shm = !a.flag("--no-shm");
            let opts = a.serve_options(p2p, shm)?;
            let out = a.outputs()?;
            let (dag, config) = a.workflow_paths()?;
            a.done()?;
            let (dag, config) = workflow(dag, config)?;
            Command::Launch(LaunchCmd {
                dag,
                config,
                opts,
                out,
            })
        }
        "join" => {
            let connect = a.value::<String>("--connect", "an address", "address")?;
            let node = a.value("--node", "a number", "node")?;
            let d = JoinOptions::default();
            let opts = JoinOptions {
                timeout: a.timeout(d.timeout)?,
                shm: !a.flag("--no-shm"),
                ..d
            };
            a.done()?;
            Command::Join(JoinCmd {
                connect: connect.ok_or("missing --connect")?,
                node: node.ok_or("missing --node")?,
                opts,
            })
        }
        "submit" => {
            let (connect, timeout_ms) = a.client()?;
            let sets = a
                .values("--set", "key=value")?
                .iter()
                .map(|v| insitu_workflow::parse_override(v).map_err(|e| e.to_string()))
                .collect::<Result<Vec<_>, _>>()?;
            let name = a.value("--name", "a string", "string")?;
            let strategy = a.strategy()?.label().to_string();
            let get_timeout_ms = a.value("--get-timeout-ms", "a number", "timeout")?;
            let wait = a.flag("--wait");
            let priority = a.value("--priority", "a number", "priority")?.unwrap_or(0);
            let (path, config) = a.workflow_paths()?;
            a.done()?;
            let connect = connect.ok_or("missing --connect")?;
            let source = match (path, config) {
                (Some(t), None) if t.ends_with(".toml") => SubmitSource::Toml {
                    source: read(&t)?,
                    sets,
                },
                (Some(t), Some(_)) if t.ends_with(".toml") => return Err(NOT_BOTH.into()),
                (Some(_), Some(_)) if !sets.is_empty() => {
                    return Err("--set needs a workflow.toml, not --dag/--config".into())
                }
                (Some(d), Some(c)) => SubmitSource::Plain {
                    dag: read(&d)?,
                    config: read(&c)?,
                },
                _ => return Err("missing workflow: a .toml file or --dag/--config".into()),
            };
            Command::Submit(SubmitCmd {
                connect,
                source,
                name,
                strategy,
                get_timeout_ms: get_timeout_ms.unwrap_or(DEFAULT_GET_TIMEOUT.as_millis() as u64),
                timeout_ms,
                wait,
                priority,
            })
        }
        "status" => {
            let (connect, timeout_ms) = a.client()?;
            let run = a.value("--run", "an id", "run id")?;
            let json = a.flag("--json");
            a.done()?;
            Command::Status(StatusCmd {
                connect: connect.ok_or("missing --connect")?,
                run,
                json,
                timeout_ms,
            })
        }
        "watch" => {
            let (connect, timeout_ms) = a.client()?;
            let run = a.value("--run", "an id", "run id")?;
            let interval_ms = a.value("--interval-ms", "a number", "interval")?;
            let once = a.flag("--once");
            let json = a.flag("--json");
            a.done()?;
            Command::Watch(WatchCmd {
                connect: connect.ok_or("missing --connect")?,
                run: run.ok_or("missing --run")?,
                interval_ms: interval_ms.unwrap_or(500),
                once,
                json,
                timeout_ms,
            })
        }
        "cancel" => {
            let (connect, timeout_ms) = a.client()?;
            let run = a.value("--run", "an id", "run id")?;
            a.done()?;
            Command::Cancel(CancelCmd {
                connect: connect.ok_or("missing --connect")?,
                run: run.ok_or("missing --run")?,
                timeout_ms,
            })
        }
        _ => return Err(SUBCOMMANDS.into()),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match &command {
        Command::Run(options) => run(options),
        Command::Profile(options) => insitu_cli::profile(options),
        Command::Compare {
            dag,
            config,
            metrics_out,
            trace_out,
        } => insitu_cli::driver::compare(dag, config, metrics_out.as_ref(), trace_out.as_ref()),
        Command::Chaos {
            seed,
            cases,
            faults,
        } => {
            let report = insitu_chaos::run_chaos(*seed, *cases, faults);
            let violations = report.violations();
            print!("{}", report.render());
            return if violations == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {violations} invariant violation(s)");
                ExitCode::FAILURE
            };
        }
        Command::Serve(cmd) => insitu_cli::serve_cmd(cmd),
        Command::Join(cmd) => insitu_cli::join_cmd(cmd),
        Command::Launch(cmd) => insitu_cli::launch_cmd(cmd),
        Command::Service(cmd) => insitu_cli::service_cmd(cmd),
        Command::Submit(cmd) => insitu_cli::submit_cmd(cmd),
        Command::Status(cmd) => insitu_cli::status_cmd(cmd),
        Command::Watch(cmd) => insitu_cli::watch_cmd(cmd),
        Command::Cancel(cmd) => insitu_cli::cancel_cmd(cmd),
    };
    match result {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    const DAG: &str = "../../workflows/online.dag";
    const CFG: &str = "../../workflows/online.cfg";

    #[test]
    fn parses_run_with_defaults() {
        let cmd = parse_args(&args(&["run", "--dag", DAG, "--config", CFG])).unwrap();
        match cmd {
            Command::Run(o) => {
                assert_eq!(o.strategy, MappingStrategy::DataCentric);
                assert!(o.threaded);
                assert!(o.dag.contains("APP_ID 1"));
            }
            _ => panic!("expected run"),
        }
    }

    #[test]
    fn parses_strategy_and_modeled() {
        let cmd = parse_args(&args(&[
            "run",
            "--dag",
            DAG,
            "--config",
            CFG,
            "--strategy",
            "round-robin",
            "--modeled",
        ]))
        .unwrap();
        match cmd {
            Command::Run(o) => {
                assert_eq!(o.strategy, MappingStrategy::RoundRobin);
                assert!(!o.threaded);
            }
            _ => panic!("expected run"),
        }
    }

    #[test]
    fn parses_compare() {
        let cmd = parse_args(&args(&["compare", "--dag", DAG, "--config", CFG])).unwrap();
        assert!(matches!(cmd, Command::Compare { .. }));
    }

    #[test]
    fn parses_positional_dag_and_telemetry_outputs() {
        let cmd = parse_args(&args(&[
            "run",
            DAG,
            "--config",
            CFG,
            "--metrics-out",
            "m.json",
            "--trace-out",
            "t.json",
        ]))
        .unwrap();
        match cmd {
            Command::Run(o) => {
                assert!(o.dag.contains("APP_ID 1"));
                assert_eq!(
                    o.metrics_out.as_deref(),
                    Some(std::path::Path::new("m.json"))
                );
                assert_eq!(o.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
            }
            _ => panic!("expected run"),
        }
        let cmd = parse_args(&args(&[
            "compare",
            DAG,
            "--config",
            CFG,
            "--metrics-out",
            "m.json",
        ]))
        .unwrap();
        match cmd {
            Command::Compare {
                metrics_out,
                trace_out,
                ..
            } => {
                assert!(metrics_out.is_some() && trace_out.is_none());
            }
            _ => panic!("expected compare"),
        }
    }

    #[test]
    fn rejects_unknown_subcommand() {
        assert!(parse_args(&args(&["frobnicate"])).is_err());
        assert!(parse_args(&args(&[])).is_err());
    }

    #[test]
    fn parses_chaos_with_defaults() {
        let cmd = parse_args(&args(&["chaos"])).unwrap();
        match cmd {
            Command::Chaos {
                seed,
                cases,
                faults,
            } => {
                assert_eq!(seed, 42);
                assert_eq!(cases, 25);
                assert_eq!(faults, FaultSpec::standard());
            }
            _ => panic!("expected chaos"),
        }
    }

    #[test]
    fn parses_chaos_flags_and_fault_specs() {
        let cmd = parse_args(&args(&[
            "chaos",
            "--seed",
            "7",
            "--cases",
            "3",
            "--faults",
            "dead-producer:1,link-slow:0.5",
        ]))
        .unwrap();
        match cmd {
            Command::Chaos {
                seed,
                cases,
                faults,
            } => {
                assert_eq!((seed, cases), (7, 3));
                assert_eq!(faults.rate(insitu_chaos::FaultKind::DeadProducer), 1.0);
                assert_eq!(faults.rate(insitu_chaos::FaultKind::LinkSlow), 0.5);
            }
            _ => panic!("expected chaos"),
        }
    }

    #[test]
    fn rejects_bad_chaos_arguments() {
        assert!(parse_args(&args(&["chaos", "--seed", "pony"]))
            .unwrap_err()
            .contains("bad seed"));
        assert!(parse_args(&args(&["chaos", "--cases"]))
            .unwrap_err()
            .contains("needs a number"));
        assert!(parse_args(&args(&["chaos", "--faults", "gremlins:1"]))
            .unwrap_err()
            .contains("unknown fault kind"));
        assert!(parse_args(&args(&["chaos", "--dag", "x"]))
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn parses_serve_join_and_launch() {
        let cmd = parse_args(&args(&[
            "serve",
            DAG,
            "--config",
            CFG,
            "--listen",
            "127.0.0.1:7001",
            "--timeout-ms",
            "5000",
            "--ledger-out",
            "l.json",
        ]))
        .unwrap();
        match cmd {
            Command::Serve(c) => {
                assert_eq!(c.listen, "127.0.0.1:7001");
                assert_eq!(c.opts.timeout, Duration::from_millis(5000));
                assert!(c.dag.contains("APP_ID 1"));
                assert_eq!(
                    c.out.ledger_out.as_deref(),
                    Some(std::path::Path::new("l.json"))
                );
                assert!(!c.opts.p2p, "p2p defaults off");
            }
            _ => panic!("expected serve"),
        }
        let cmd = parse_args(&args(&[
            "join",
            "--connect",
            "127.0.0.1:7001",
            "--node",
            "1",
            "--timeout-ms",
            "250",
        ]))
        .unwrap();
        match cmd {
            Command::Join(c) => {
                assert_eq!(
                    (c.connect.as_str(), c.node, c.opts.timeout),
                    ("127.0.0.1:7001", 1, Duration::from_millis(250))
                );
            }
            _ => panic!("expected join"),
        }
        let cmd = parse_args(&args(&[
            "launch",
            "--dag",
            DAG,
            "--config",
            CFG,
            "--strategy",
            "round-robin",
            "--p2p",
        ]))
        .unwrap();
        match cmd {
            Command::Launch(c) => {
                assert_eq!(c.opts.strategy, MappingStrategy::RoundRobin);
                assert_eq!(c.opts.timeout, Duration::from_millis(30_000));
                assert!(c.opts.p2p);
            }
            _ => panic!("expected launch"),
        }
        // --p2p is a topology choice for serve/launch; join learns it
        // from the Welcome frame and must reject the flag.
        assert!(
            parse_args(&args(&["join", "--connect", "h:1", "--node", "0", "--p2p"]))
                .unwrap_err()
                .contains("unknown argument")
        );
    }

    #[test]
    fn parses_no_shm_on_every_distrib_subcommand() {
        // Defaults: the shared-memory plane is on everywhere.
        match parse_args(&args(&["launch", DAG, "--config", CFG])).unwrap() {
            Command::Launch(c) => assert!(c.opts.shm, "shm defaults on"),
            _ => panic!("expected launch"),
        }
        match parse_args(&args(&["launch", DAG, "--config", CFG, "--no-shm"])).unwrap() {
            Command::Launch(c) => assert!(!c.opts.shm),
            _ => panic!("expected launch"),
        }
        match parse_args(&args(&[
            "serve", DAG, "--config", CFG, "--listen", "x:1", "--no-shm",
        ]))
        .unwrap()
        {
            Command::Serve(c) => assert!(!c.opts.shm),
            _ => panic!("expected serve"),
        }
        // Unlike --p2p (a hub topology choice), --no-shm is also a
        // per-node opt-out: a join without it still advertises a host
        // fingerprint, with it the node stays off the shm plane.
        match parse_args(&args(&["join", "--connect", "x:1", "--node", "0"])).unwrap() {
            Command::Join(c) => assert!(c.opts.shm),
            _ => panic!("expected join"),
        }
        match parse_args(&args(&[
            "join",
            "--connect",
            "x:1",
            "--node",
            "0",
            "--no-shm",
        ]))
        .unwrap()
        {
            Command::Join(c) => assert!(!c.opts.shm),
            _ => panic!("expected join"),
        }
        // Service mode forwards the knob to every hosted run.
        match parse_args(&args(&["serve", "--listen", "x:1", "--no-shm"])).unwrap() {
            Command::Service(c) => assert!(!c.cfg.shm),
            _ => panic!("expected service mode"),
        }
    }

    #[test]
    fn serve_without_workflow_files_is_service_mode() {
        let cmd = parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:7002",
            "--max-runs",
            "6",
            "--queue-depth",
            "9",
            "--pool-nodes",
            "12",
            "--artifacts",
            "artdir",
        ]))
        .unwrap();
        match cmd {
            Command::Service(c) => {
                assert_eq!(c.listen, "127.0.0.1:7002");
                assert_eq!(
                    (c.cfg.max_runs, c.cfg.queue_depth, c.cfg.pool_nodes),
                    (6, 9, 12)
                );
                assert_eq!(
                    c.cfg.artifacts_dir.as_deref(),
                    Some(std::path::Path::new("artdir"))
                );
            }
            _ => panic!("expected service mode"),
        }
        // Defaults apply when only --listen is given.
        match parse_args(&args(&["serve", "--listen", "127.0.0.1:7002"])).unwrap() {
            Command::Service(c) => {
                assert_eq!(
                    (c.cfg.max_runs, c.cfg.queue_depth, c.cfg.pool_nodes),
                    (4, 32, 8)
                );
                assert!(c.cfg.artifacts_dir.is_none());
            }
            _ => panic!("expected service mode"),
        }
        // Service flags combined with workflow files are rejected.
        let err = parse_args(&args(&[
            "serve",
            DAG,
            "--config",
            CFG,
            "--listen",
            "x:1",
            "--max-runs",
            "2",
        ]))
        .unwrap_err();
        assert!(err.contains("service mode"), "{err}");
    }

    #[test]
    fn parses_submit_status_and_cancel() {
        let cmd = parse_args(&args(&[
            "submit",
            "--connect",
            "127.0.0.1:7002",
            "../../workflows/distrib.toml",
            "--set",
            "iters=4",
            "--set",
            "sim_grid=2 2 1",
            "--name",
            "my-run",
            "--strategy",
            "round-robin",
            "--wait",
        ]))
        .unwrap();
        match cmd {
            Command::Submit(c) => {
                assert_eq!(c.connect, "127.0.0.1:7002");
                assert_eq!(c.name.as_deref(), Some("my-run"));
                assert_eq!(c.strategy, "round-robin");
                assert!(c.wait);
                match c.source {
                    SubmitSource::Toml { source, sets } => {
                        assert!(source.contains("[workflow]"));
                        assert_eq!(sets.len(), 2);
                        assert_eq!(sets[0], ("iters".to_string(), "4".to_string()));
                    }
                    other => panic!("expected toml source, got {other:?}"),
                }
            }
            _ => panic!("expected submit"),
        }
        let cmd = parse_args(&args(&[
            "submit",
            "--connect",
            "x:1",
            "--dag",
            DAG,
            "--config",
            CFG,
        ]))
        .unwrap();
        match cmd {
            Command::Submit(c) => match c.source {
                SubmitSource::Plain { dag, .. } => assert!(dag.contains("APP_ID 1")),
                other => panic!("expected plain source, got {other:?}"),
            },
            _ => panic!("expected submit"),
        }
        match parse_args(&args(&[
            "status",
            "--connect",
            "x:1",
            "--run",
            "3",
            "--json",
        ]))
        .unwrap()
        {
            Command::Status(c) => {
                assert_eq!(c.run, Some(3));
                assert!(c.json);
            }
            _ => panic!("expected status"),
        }
        match parse_args(&args(&["status", "--connect", "x:1"])).unwrap() {
            Command::Status(c) => assert_eq!((c.run, c.json), (None, false)),
            _ => panic!("expected status"),
        }
        match parse_args(&args(&["cancel", "--connect", "x:1", "--run", "2"])).unwrap() {
            Command::Cancel(c) => assert_eq!(c.run, 2),
            _ => panic!("expected cancel"),
        }
    }

    #[test]
    fn parses_watch() {
        match parse_args(&args(&[
            "watch",
            "--connect",
            "x:1",
            "--run",
            "4",
            "--interval-ms",
            "250",
            "--once",
            "--json",
        ]))
        .unwrap()
        {
            Command::Watch(c) => {
                assert_eq!((c.run, c.interval_ms), (4, 250));
                assert!(c.once && c.json);
            }
            _ => panic!("expected watch"),
        }
        // Defaults: half-second interval, streaming table.
        match parse_args(&args(&["watch", "--connect", "x:1", "--run", "1"])).unwrap() {
            Command::Watch(c) => {
                assert_eq!(c.interval_ms, 500);
                assert!(!c.once && !c.json);
            }
            _ => panic!("expected watch"),
        }
        assert!(parse_args(&args(&["watch", "--connect", "x:1"]))
            .unwrap_err()
            .contains("--run"));
    }

    #[test]
    fn profile_refuses_procs_loudly() {
        // `profile` runs in one process; a process count is not its flag.
        let argv = format!("profile {DAG} --config {CFG} --procs 3");
        let err = parse_args(&args(&argv.split(' ').collect::<Vec<_>>())).unwrap_err();
        assert!(err.contains("unknown argument '--procs'"), "{err}");
    }

    #[test]
    fn refuses_flags_its_subcommand_does_not_read() {
        // The last flag of each line is the one refused; `@` stands for
        // the workflow files, `<dag> --config <cfg>`.
        let (unknown, service) = ("unknown argument", "need service mode");
        let cases = [
            ("profile @ --metrics-out m.json", unknown),
            ("launch @ --procs 3", unknown),
            ("compare @ --strategy round-robin", unknown),
            ("compare @ --modeled", unknown),
            ("compare @ --threshold 5", unknown),
            ("compare @ --faults link-slow:1", unknown),
            ("compare @ --seed 7", unknown),
            ("compare @ --gate b.json", unknown),
            ("compare @ --write-baseline b.json", unknown),
            ("serve --listen x:1 --strategy round-robin", unknown),
            ("serve --listen x:1 --timeout-ms 5", unknown),
            ("serve --listen x:1 --ledger-out l.json", unknown),
            ("serve --listen x:1 --trace-out t.json", unknown),
            ("serve --listen x:1 --profile-out p.json", unknown),
            ("serve @ --listen x:1 --seed 7", service),
            ("serve --listen x:1 --p2p", "single-run only"),
        ];
        for (line, why) in cases {
            let argv = line.replace('@', &format!("{DAG} --config {CFG}"));
            let argv: Vec<&str> = argv.split(' ').collect();
            let flag = argv.iter().rfind(|w| w.starts_with("--")).unwrap();
            let err = parse_args(&args(&argv)).unwrap_err();
            assert!(err.contains(flag) && err.contains(why), "{argv:?}: {err}");
        }
    }

    #[test]
    fn parses_launch_telemetry_outputs_and_service_faults() {
        match parse_args(&args(&[
            "launch",
            DAG,
            "--config",
            CFG,
            "--trace-out",
            "t.json",
            "--profile-out",
            "p.json",
        ]))
        .unwrap()
        {
            Command::Launch(c) => {
                assert_eq!(
                    c.out.trace_out.as_deref(),
                    Some(std::path::Path::new("t.json"))
                );
                assert_eq!(
                    c.out.profile_out.as_deref(),
                    Some(std::path::Path::new("p.json"))
                );
            }
            _ => panic!("expected launch"),
        }
        match parse_args(&args(&[
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--faults",
            "link-slow:1",
            "--seed",
            "7",
            "--stall-ms",
            "10",
        ]))
        .unwrap()
        {
            Command::Service(c) => {
                let spec = c.faults.expect("fault spec parsed");
                assert_eq!(spec.rate(insitu_chaos::FaultKind::LinkSlow), 1.0);
                assert_eq!((c.seed, c.cfg.stall_ms), (7, 10));
            }
            _ => panic!("expected service mode"),
        }
        // Chaos faults govern service runs only; workflow-mode serve
        // must reject them.
        let err = parse_args(&args(&[
            "serve",
            DAG,
            "--config",
            CFG,
            "--listen",
            "x:1",
            "--faults",
            "link-slow:1",
        ]))
        .unwrap_err();
        assert!(err.contains("service mode"), "{err}");
    }

    #[test]
    fn rejects_incomplete_client_commands() {
        assert!(parse_args(&args(&["submit", "x.toml"]))
            .unwrap_err()
            .contains("--connect"));
        assert!(parse_args(&args(&["submit", "--connect", "x:1"]))
            .unwrap_err()
            .contains("missing workflow"));
        assert!(parse_args(&args(&[
            "submit",
            "--connect",
            "x:1",
            "--dag",
            DAG,
            "--config",
            CFG,
            "--set",
            "a=1"
        ]))
        .unwrap_err()
        .contains("--set needs a workflow.toml"));
        assert!(parse_args(&args(&["cancel", "--connect", "x:1"]))
            .unwrap_err()
            .contains("--run"));
        assert!(
            parse_args(&args(&["status", "--connect", "x:1", "--run", "nope"]))
                .unwrap_err()
                .contains("bad run id")
        );
        assert!(
            parse_args(&args(&["submit", "--connect", "x:1", "--set", "junk"]))
                .unwrap_err()
                .contains("key=value")
        );
    }

    #[test]
    fn rejects_incomplete_distrib_commands() {
        assert!(parse_args(&args(&["serve", DAG, "--config", CFG]))
            .unwrap_err()
            .contains("--listen"));
        assert!(parse_args(&args(&["join", "--node", "0"]))
            .unwrap_err()
            .contains("--connect"));
        assert!(parse_args(&args(&["join", "--connect", "x:1"]))
            .unwrap_err()
            .contains("--node"));
        // join takes no workflow files: the server ships them.
        assert!(parse_args(&args(&["join", "--dag", DAG]))
            .unwrap_err()
            .contains("unknown argument"));
    }

    #[test]
    fn rejects_missing_paths_and_bad_strategy() {
        assert!(parse_args(&args(&["run", "--dag", DAG]))
            .unwrap_err()
            .contains("--config"));
        assert!(parse_args(&args(&["run", "--config", CFG]))
            .unwrap_err()
            .contains("--dag"));
        assert!(parse_args(&args(&[
            "run",
            "--dag",
            DAG,
            "--config",
            CFG,
            "--strategy",
            "psychic"
        ]))
        .unwrap_err()
        .contains("unknown strategy"));
        assert!(
            parse_args(&args(&["run", "--dag", "/no/such/file", "--config", CFG]))
                .unwrap_err()
                .contains("cannot read")
        );
    }
}
