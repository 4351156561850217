//! `insitu` — run a coupled workflow from a DAG description file and a
//! workload configuration file.
//!
//! ```text
//! insitu run [--dag] workflow.dag --config workload.cfg \
//!     [--strategy data-centric|round-robin|node-cyclic] [--modeled] \
//!     [--metrics-out m.json] [--trace-out t.json]
//! ```

use insitu::MappingStrategy;
use insitu_chaos::FaultSpec;
use insitu_cli::{
    run, CancelCmd, GateOptions, JoinCmd, LaunchCmd, Options, ProfileOptions, ServeCmd, ServiceCmd,
    StatusCmd, SubmitCmd, SubmitSource, WatchCmd,
};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
usage: insitu run     [--dag] <file> --config <file>
              [--strategy data-centric|round-robin|node-cyclic] [--modeled]
              [--metrics-out <path>] [--trace-out <path>]
       insitu profile [--dag] <file> --config <file>
              [--strategy <s>] [--modeled] [--json] [--trace-out <path>]
       insitu compare [--dag] <file> --config <file>
              [--metrics-out <path>] [--trace-out <path>]
              [--gate <baseline.json>] [--threshold <pct>]
              [--faults <spec>] [--seed <n>] [--write-baseline <path>]
       insitu chaos   [--seed <n>] [--cases <n>] [--faults <spec>]
       insitu serve   [--dag] <file> --config <file> --listen <addr>
              [--strategy <s>] [--timeout-ms <n>] [--ledger-out <path>]
              [--trace-out <path>] [--profile-out <path>] [--p2p] [--no-shm]
       insitu serve   --listen <addr> [--max-runs <n>] [--queue-depth <n>]
              [--pool-nodes <n>] [--artifacts <dir>] [--p2p] [--no-shm]
              [--faults <spec>] [--seed <n>] [--stall-ms <n>]
       insitu join    --connect <addr> --node <n> [--timeout-ms <n>] [--no-shm]
       insitu launch  [--dag] <file> --config <file> --procs <k>
              [--strategy <s>] [--timeout-ms <n>] [--ledger-out <path>]
              [--trace-out <path>] [--profile-out <path>] [--p2p] [--no-shm]
       insitu launch  <workflow.toml> --procs <k> [...]
       insitu submit  --connect <addr> <workflow.toml> [--set k=v]...
              [--name <s>] [--strategy <s>] [--get-timeout-ms <n>]
              [--timeout-ms <n>] [--wait] [--priority <n>]
       insitu submit  --connect <addr> [--dag] <file> --config <file> ...
       insitu status  --connect <addr> [--run <id>] [--json]
       insitu watch   --connect <addr> --run <id> [--interval-ms <n>]
              [--once] [--json]
       insitu cancel  --connect <addr> --run <id>

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
a side-by-side summary with a per-counter metrics delta table. With
`--gate` it instead checks the deterministic modeled profile against a
baseline document and exits nonzero on regression beyond `--threshold`
percent (default 10); `--faults` injects chaos link-slow faults into the
model and `--write-baseline` refreshes the baseline file.
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
`--p2p` runs the data plane peer-to-peer: every joiner binds a direct
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
`--stall-ms` (link-health watchdog stall threshold).";

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
    Gate {
        dag: String,
        config: String,
        opts: GateOptions,
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

/// The value after `flag`, parsed: `flag needs <needs>` when the command
/// line ends there, `bad <what> '<value>'` when it does not parse.
fn value<T: std::str::FromStr>(
    it: &mut std::slice::Iter<'_, String>,
    flag: &str,
    needs: &str,
    what: &str,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs {needs}"))?;
    v.parse().map_err(|_| format!("bad {what} '{v}'"))
}

fn parse_strategy(it: &mut std::slice::Iter<'_, String>) -> Result<MappingStrategy, String> {
    let v: String = value(it, "--strategy", "a name", "name")?;
    MappingStrategy::from_label(&v).ok_or_else(|| format!("unknown strategy {v:?}"))
}

fn parse_distrib_args(sub: &str, args: &[String]) -> Result<Command, String> {
    let mut dag_path: Option<String> = None;
    let mut config_path: Option<String> = None;
    let mut listen = None;
    let mut connect = None;
    let mut node: Option<u32> = None;
    let mut procs: Option<u32> = None;
    let mut strategy = MappingStrategy::DataCentric;
    let mut timeout_ms = 30_000u64;
    let mut ledger_out = None;
    let mut max_runs: Option<usize> = None;
    let mut queue_depth: Option<usize> = None;
    let mut pool_nodes: Option<u32> = None;
    let mut artifacts: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut profile_out: Option<PathBuf> = None;
    let mut faults: Option<FaultSpec> = None;
    let mut seed = 42u64;
    let mut stall_ms: Option<u64> = None;
    let mut p2p = false;
    let mut no_shm = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--faults" if sub == "serve" => {
                faults = Some(FaultSpec::parse(&value::<String>(
                    &mut it, a, "a spec", "spec",
                )?)?);
            }
            "--seed" if sub == "serve" => seed = value(&mut it, a, "a number", "seed")?,
            "--stall-ms" if sub == "serve" => {
                stall_ms = Some(value(&mut it, a, "a number", "threshold")?)
            }
            "--max-runs" if sub == "serve" => {
                max_runs = Some(value(&mut it, a, "a count", "run count")?)
            }
            "--queue-depth" if sub == "serve" => {
                queue_depth = Some(value(&mut it, a, "a count", "queue depth")?)
            }
            "--pool-nodes" if sub == "serve" => {
                pool_nodes = Some(value(&mut it, a, "a count", "node budget")?)
            }
            "--artifacts" if sub == "serve" => artifacts = Some(value(&mut it, a, "a dir", "dir")?),
            "--dag" if sub != "join" => dag_path = Some(value(&mut it, a, "a path", "path")?),
            "--config" if sub != "join" => config_path = Some(value(&mut it, a, "a path", "path")?),
            "--listen" if sub == "serve" => {
                listen = Some(value(&mut it, a, "an address", "address")?)
            }
            "--connect" if sub == "join" => {
                connect = Some(value(&mut it, a, "an address", "address")?)
            }
            "--node" if sub == "join" => node = Some(value(&mut it, a, "a number", "node")?),
            "--procs" if sub == "launch" => {
                procs = Some(value(&mut it, a, "a count", "process count")?)
            }
            "--p2p" if sub != "join" => p2p = true,
            "--no-shm" => no_shm = true,
            "--strategy" if sub != "join" => strategy = parse_strategy(&mut it)?,
            "--timeout-ms" => timeout_ms = value(&mut it, a, "a number", "timeout")?,
            "--ledger-out" if sub != "join" => {
                ledger_out = Some(value(&mut it, a, "a path", "path")?)
            }
            "--trace-out" if sub != "join" => {
                trace_out = Some(value(&mut it, a, "a path", "path")?)
            }
            "--profile-out" if sub != "join" => {
                profile_out = Some(value(&mut it, a, "a path", "path")?)
            }
            other if !other.starts_with('-') && sub != "join" && dag_path.is_none() => {
                dag_path = Some(other.to_string())
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if sub == "join" {
        return Ok(Command::Join(JoinCmd {
            connect: connect.ok_or("missing --connect")?,
            node: node.ok_or("missing --node")?,
            timeout_ms,
            no_shm,
        }));
    }
    if sub == "serve" && dag_path.is_none() && config_path.is_none() {
        // No workflow files: run the multi-tenant service.
        return Ok(Command::Service(ServiceCmd {
            listen: listen.ok_or("missing --listen")?,
            max_runs: max_runs.unwrap_or(4),
            queue_depth: queue_depth.unwrap_or(32),
            pool_nodes: pool_nodes.unwrap_or(8),
            artifacts,
            p2p,
            faults,
            seed,
            stall_ms,
            no_shm,
        }));
    }
    if max_runs.is_some()
        || queue_depth.is_some()
        || pool_nodes.is_some()
        || artifacts.is_some()
        || faults.is_some()
        || stall_ms.is_some()
    {
        return Err(
            "--max-runs/--queue-depth/--pool-nodes/--artifacts/--faults/--stall-ms need \
             service mode (serve without --dag/--config)"
                .into(),
        );
    }
    let dag_path = dag_path.ok_or("missing --dag")?;
    // A workflow.toml stands in for the --dag/--config pair: compile it
    // client-side exactly as `submit` would.
    let (dag, config) = if dag_path.ends_with(".toml") {
        if config_path.is_some() {
            return Err("give either a workflow.toml or --dag/--config, not both".into());
        }
        let source = std::fs::read_to_string(&dag_path)
            .map_err(|e| format!("cannot read {dag_path}: {e}"))?;
        let authored =
            insitu_workflow::compile_workflow(&source, &[]).map_err(|e| e.to_string())?;
        (authored.dag, authored.config)
    } else {
        let config_path = config_path.ok_or("missing --config")?;
        let dag = std::fs::read_to_string(&dag_path)
            .map_err(|e| format!("cannot read {dag_path}: {e}"))?;
        let config = std::fs::read_to_string(&config_path)
            .map_err(|e| format!("cannot read {config_path}: {e}"))?;
        (dag, config)
    };
    if sub == "serve" {
        Ok(Command::Serve(ServeCmd {
            dag,
            config,
            listen: listen.ok_or("missing --listen")?,
            strategy,
            timeout_ms,
            ledger_out,
            trace_out,
            profile_out,
            p2p,
            no_shm,
        }))
    } else {
        Ok(Command::Launch(LaunchCmd {
            dag,
            config,
            procs: procs.ok_or("missing --procs")?,
            strategy,
            timeout_ms,
            ledger_out,
            trace_out,
            profile_out,
            p2p,
            no_shm,
        }))
    }
}

fn parse_client_args(sub: &str, args: &[String]) -> Result<Command, String> {
    let mut connect: Option<String> = None;
    let mut run: Option<u64> = None;
    let mut json = false;
    let mut timeout_ms = 30_000u64;
    let mut dag_path: Option<String> = None;
    let mut config_path: Option<String> = None;
    let mut toml_path: Option<String> = None;
    let mut sets: Vec<(String, String)> = Vec::new();
    let mut name: Option<String> = None;
    let mut strategy = MappingStrategy::DataCentric;
    let mut get_timeout_ms = 60_000u64;
    let mut wait = false;
    let mut priority = 0u32;
    let mut interval_ms = 500u64;
    let mut once = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(value(&mut it, a, "an address", "address")?),
            "--timeout-ms" => timeout_ms = value(&mut it, a, "a number", "timeout")?,
            "--run" if sub != "submit" => run = Some(value(&mut it, a, "an id", "run id")?),
            "--json" if sub == "status" || sub == "watch" => json = true,
            "--interval-ms" if sub == "watch" => {
                interval_ms = value(&mut it, a, "a number", "interval")?
            }
            "--once" if sub == "watch" => once = true,
            "--dag" if sub == "submit" => dag_path = Some(value(&mut it, a, "a path", "path")?),
            "--config" if sub == "submit" => {
                config_path = Some(value(&mut it, a, "a path", "path")?)
            }
            "--set" if sub == "submit" => {
                let v: String = value(&mut it, a, "key=value", "override")?;
                sets.push(insitu_workflow::parse_override(&v).map_err(|e| e.to_string())?);
            }
            "--name" if sub == "submit" => name = Some(value(&mut it, a, "a string", "string")?),
            "--strategy" if sub == "submit" => strategy = parse_strategy(&mut it)?,
            "--get-timeout-ms" if sub == "submit" => {
                get_timeout_ms = value(&mut it, a, "a number", "timeout")?
            }
            "--wait" if sub == "submit" => wait = true,
            "--priority" if sub == "submit" => {
                priority = value(&mut it, a, "a number", "priority")?
            }
            other if !other.starts_with('-') && sub == "submit" => {
                if other.ends_with(".toml") {
                    toml_path = Some(other.to_string());
                } else if dag_path.is_none() {
                    dag_path = Some(other.to_string());
                } else {
                    return Err(format!("unexpected argument '{other}'"));
                }
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let connect = connect.ok_or("missing --connect")?;
    match sub {
        "status" => Ok(Command::Status(StatusCmd {
            connect,
            run,
            json,
            timeout_ms,
        })),
        "cancel" => Ok(Command::Cancel(CancelCmd {
            connect,
            run: run.ok_or("missing --run")?,
            timeout_ms,
        })),
        "watch" => Ok(Command::Watch(WatchCmd {
            connect,
            run: run.ok_or("missing --run")?,
            interval_ms,
            once,
            json,
            timeout_ms,
        })),
        _ => {
            let read = |p: &String| {
                std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"))
            };
            let source = match (toml_path, dag_path, config_path) {
                (Some(t), None, None) => SubmitSource::Toml {
                    source: read(&t)?,
                    sets,
                },
                (None, Some(d), Some(c)) => {
                    if !sets.is_empty() {
                        return Err("--set needs a workflow.toml, not --dag/--config".into());
                    }
                    SubmitSource::Plain {
                        dag: read(&d)?,
                        config: read(&c)?,
                    }
                }
                (Some(_), _, _) => {
                    return Err("give either a workflow.toml or --dag/--config, not both".into())
                }
                _ => return Err("missing workflow: a .toml file or --dag/--config".into()),
            };
            Ok(Command::Submit(SubmitCmd {
                connect,
                source,
                name,
                strategy: strategy.label().to_string(),
                get_timeout_ms,
                timeout_ms,
                wait,
                priority,
            }))
        }
    }
}

fn parse_chaos_args(args: &[String]) -> Result<Command, String> {
    let mut seed = 42u64;
    let mut cases = 25u64;
    let mut faults = FaultSpec::standard();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = value(&mut it, a, "a number", "seed")?,
            "--cases" => cases = value(&mut it, a, "a number", "case count")?,
            "--faults" => {
                faults = FaultSpec::parse(&value::<String>(&mut it, a, "a spec", "spec")?)?;
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(Command::Chaos {
        seed,
        cases,
        faults,
    })
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let sub = args.first().map(String::as_str);
    if sub == Some("chaos") {
        return parse_chaos_args(&args[1..]);
    }
    if let Some(s @ ("serve" | "join" | "launch")) = sub {
        return parse_distrib_args(s, &args[1..]);
    }
    if let Some(s @ ("submit" | "status" | "cancel" | "watch")) = sub {
        return parse_client_args(s, &args[1..]);
    }
    if sub != Some("run") && sub != Some("compare") && sub != Some("profile") {
        return Err(
            "expected the 'run', 'profile', 'compare', 'chaos', 'serve', 'join', 'launch', \
             'submit', 'status', 'watch' or 'cancel' subcommand"
                .into(),
        );
    }
    let mut dag_path: Option<String> = None;
    let mut config_path: Option<String> = None;
    let mut strategy = MappingStrategy::DataCentric;
    let mut threaded = true;
    let mut json = false;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut gate_baseline = None;
    let mut threshold_pct = 10.0f64;
    let mut gate_faults = None;
    let mut gate_seed = 42u64;
    let mut write_baseline = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dag" => dag_path = Some(value(&mut it, a, "a path", "path")?),
            "--config" => config_path = Some(value(&mut it, a, "a path", "path")?),
            "--strategy" => strategy = parse_strategy(&mut it)?,
            "--modeled" => threaded = false,
            "--json" if sub == Some("profile") => json = true,
            // A loud refusal, not a silent scope bug: single-process
            // profile output for a multi-process run would print a
            // plausible but wrong critical path.
            "--procs" if sub == Some("profile") => {
                return Err(
                    "profile is single-process: with --procs its trace would cover only this \
                     process and print a misleading critical path. Use `insitu launch --procs <k> \
                     --profile-out <p.json> --trace-out <t.json>` instead — the hub merges every \
                     joiner's shipped telemetry into one cross-process profile and trace"
                        .into(),
                )
            }
            "--metrics-out" => metrics_out = Some(value(&mut it, a, "a path", "path")?),
            "--trace-out" => trace_out = Some(value(&mut it, a, "a path", "path")?),
            "--gate" if sub == Some("compare") => {
                gate_baseline = Some(value(&mut it, a, "a path", "path")?)
            }
            "--threshold" if sub == Some("compare") => {
                threshold_pct = value(&mut it, a, "a percentage", "threshold")?
            }
            "--faults" if sub == Some("compare") => {
                gate_faults = Some(FaultSpec::parse(&value::<String>(
                    &mut it, a, "a spec", "spec",
                )?)?);
            }
            "--seed" if sub == Some("compare") => {
                gate_seed = value(&mut it, a, "a number", "seed")?
            }
            "--write-baseline" if sub == Some("compare") => {
                write_baseline = Some(value(&mut it, a, "a path", "path")?)
            }
            other if !other.starts_with('-') && dag_path.is_none() => {
                dag_path = Some(other.to_string())
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let dag_path = dag_path.ok_or("missing --dag")?;
    let config_path = config_path.ok_or("missing --config")?;
    let dag =
        std::fs::read_to_string(&dag_path).map_err(|e| format!("cannot read {dag_path}: {e}"))?;
    let config = std::fs::read_to_string(&config_path)
        .map_err(|e| format!("cannot read {config_path}: {e}"))?;
    if sub == Some("profile") {
        return Ok(Command::Profile(ProfileOptions {
            dag,
            config,
            strategy,
            threaded,
            json,
            trace_out,
        }));
    }
    if sub == Some("compare") {
        if gate_baseline.is_some() || write_baseline.is_some() {
            return Ok(Command::Gate {
                dag,
                config,
                opts: GateOptions {
                    baseline: gate_baseline,
                    threshold_pct,
                    faults: gate_faults,
                    seed: gate_seed,
                    write_baseline,
                },
            });
        }
        Ok(Command::Compare {
            dag,
            config,
            metrics_out,
            trace_out,
        })
    } else {
        Ok(Command::Run(Options {
            dag,
            config,
            strategy,
            threaded,
            metrics_out,
            trace_out,
        }))
    }
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
        Command::Gate { dag, config, opts } => match insitu_cli::gate(dag, config, opts) {
            Ok((report, passed)) => {
                print!("{report}");
                return if passed {
                    ExitCode::SUCCESS
                } else {
                    eprintln!("error: performance gate failed");
                    ExitCode::FAILURE
                };
            }
            Err(e) => Err(e),
        },
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
                assert_eq!(c.timeout_ms, 5000);
                assert!(c.dag.contains("APP_ID 1"));
                assert_eq!(
                    c.ledger_out.as_deref(),
                    Some(std::path::Path::new("l.json"))
                );
                assert!(!c.p2p, "p2p defaults off");
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
                    (c.connect.as_str(), c.node, c.timeout_ms),
                    ("127.0.0.1:7001", 1, 250)
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
            "--procs",
            "3",
            "--strategy",
            "round-robin",
            "--p2p",
        ]))
        .unwrap();
        match cmd {
            Command::Launch(c) => {
                assert_eq!(c.procs, 3);
                assert_eq!(c.strategy, MappingStrategy::RoundRobin);
                assert_eq!(c.timeout_ms, 30_000);
                assert!(c.p2p);
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
        match parse_args(&args(&["launch", DAG, "--config", CFG, "--procs", "3"])).unwrap() {
            Command::Launch(c) => assert!(!c.no_shm, "shm defaults on"),
            _ => panic!("expected launch"),
        }
        match parse_args(&args(&[
            "launch", DAG, "--config", CFG, "--procs", "3", "--no-shm",
        ]))
        .unwrap()
        {
            Command::Launch(c) => assert!(c.no_shm),
            _ => panic!("expected launch"),
        }
        match parse_args(&args(&[
            "serve", DAG, "--config", CFG, "--listen", "x:1", "--no-shm",
        ]))
        .unwrap()
        {
            Command::Serve(c) => assert!(c.no_shm),
            _ => panic!("expected serve"),
        }
        // Unlike --p2p (a hub topology choice), --no-shm is also a
        // per-node opt-out: a join without it still advertises a host
        // fingerprint, with it the node stays off the shm plane.
        match parse_args(&args(&["join", "--connect", "x:1", "--node", "0"])).unwrap() {
            Command::Join(c) => assert!(!c.no_shm),
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
            Command::Join(c) => assert!(c.no_shm),
            _ => panic!("expected join"),
        }
        // Service mode forwards the knob to every hosted run.
        match parse_args(&args(&["serve", "--listen", "x:1", "--no-shm"])).unwrap() {
            Command::Service(c) => assert!(c.no_shm),
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
                assert_eq!((c.max_runs, c.queue_depth, c.pool_nodes), (6, 9, 12));
                assert_eq!(c.artifacts.as_deref(), Some(std::path::Path::new("artdir")));
            }
            _ => panic!("expected service mode"),
        }
        // Defaults apply when only --listen is given.
        match parse_args(&args(&["serve", "--listen", "127.0.0.1:7002"])).unwrap() {
            Command::Service(c) => {
                assert_eq!((c.max_runs, c.queue_depth, c.pool_nodes), (4, 32, 8));
                assert!(c.artifacts.is_none());
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
        let err =
            parse_args(&args(&["profile", DAG, "--config", CFG, "--procs", "3"])).unwrap_err();
        assert!(err.contains("single-process"), "{err}");
        assert!(err.contains("launch"), "{err}");
    }

    #[test]
    fn parses_launch_telemetry_outputs_and_service_faults() {
        match parse_args(&args(&[
            "launch",
            DAG,
            "--config",
            CFG,
            "--procs",
            "3",
            "--trace-out",
            "t.json",
            "--profile-out",
            "p.json",
        ]))
        .unwrap()
        {
            Command::Launch(c) => {
                assert_eq!(c.trace_out.as_deref(), Some(std::path::Path::new("t.json")));
                assert_eq!(
                    c.profile_out.as_deref(),
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
                assert_eq!((c.seed, c.stall_ms), (7, Some(10)));
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
        assert!(parse_args(&args(&["launch", DAG, "--config", CFG]))
            .unwrap_err()
            .contains("--procs"));
        // join takes no workflow files: the server ships them.
        assert!(parse_args(&args(&["join", "--dag", DAG]))
            .unwrap_err()
            .contains("unknown argument"));
        assert!(
            parse_args(&args(&["launch", DAG, "--config", CFG, "--procs", "two"]))
                .unwrap_err()
                .contains("bad process count")
        );
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
