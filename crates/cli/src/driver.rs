//! Scenario assembly and execution for the command-line driver.

use crate::config::{parse_config, ConfigError, WorkloadConfig};
use insitu::{
    run_modeled_configured, run_threaded_configured, MappingStrategy, ModeledConfig, Scenario,
    ThreadedConfig,
};
use insitu_domain::{BoundingBox, Decomposition, ProcessGrid};
use insitu_fabric::{LedgerSnapshot, TrafficClass};
use insitu_obs::{chrome_trace_with_flows, Event, FlightRecorder, ProfileReport};
use insitu_telemetry::{Json, MetricsSnapshot, Recorder};
use insitu_workflow::{parse_dag, ParseError};
use std::path::PathBuf;

/// Command-line options (already parsed from `argv`).
#[derive(Clone, Debug)]
pub struct Options {
    /// DAG description file contents.
    pub dag: String,
    /// Workload configuration file contents.
    pub config: String,
    /// Mapping strategy.
    pub strategy: MappingStrategy,
    /// `true` = threaded executor (real data), `false` = modeled.
    pub threaded: bool,
    /// Write a metrics-registry JSON snapshot here after the run.
    pub metrics_out: Option<PathBuf>,
    /// Write the run's flight recording as a chrome://tracing timeline
    /// (put/get/pull slices plus put→pull flow arrows) here.
    pub trace_out: Option<PathBuf>,
}

/// Driver failures.
#[derive(Debug)]
pub enum CliError {
    /// DAG file problem.
    Dag(ParseError),
    /// Config file problem.
    Config(ConfigError),
    /// Structural mismatch between the two files.
    Mismatch(String),
    /// Could not write a requested output file.
    Io(String),
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Dag(e) => write!(f, "DAG file: {e}"),
            CliError::Config(e) => write!(f, "{e}"),
            CliError::Mismatch(m) => write!(f, "{m}"),
            CliError::Io(m) => write!(f, "{m}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Assemble a [`Scenario`] from the two parsed files.
pub fn build_scenario(dag: &str, config: &str) -> Result<Scenario, CliError> {
    let mut workflow = parse_dag(dag).map_err(CliError::Dag)?;
    let cfg: WorkloadConfig = parse_config(config).map_err(CliError::Config)?;
    let domain = BoundingBox::from_sizes(&cfg.domain);
    for app in &mut workflow.apps {
        let ac = cfg
            .apps
            .iter()
            .find(|a| a.id == app.id)
            .ok_or_else(|| CliError::Mismatch(format!("app {} has no APP config", app.id)))?;
        let dec = Decomposition::new(domain, ProcessGrid::new(&ac.grid), ac.dist);
        app.ntasks = dec.num_ranks() as u32;
        app.decomposition = Some(dec);
    }
    for c in &cfg.couplings {
        for id in std::iter::once(c.producer_app).chain(c.consumer_apps.iter().copied()) {
            if workflow.app(id).is_none() {
                return Err(CliError::Mismatch(format!(
                    "coupling '{}' references app {id} not in the DAG",
                    c.var
                )));
            }
        }
    }
    for s in &cfg.subscriptions {
        for id in [s.producer_app, s.subscriber_app] {
            if workflow.app(id).is_none() {
                return Err(CliError::Mismatch(format!(
                    "subscription '{}' references app {id} not in the DAG",
                    s.var
                )));
            }
        }
    }
    let scenario = Scenario {
        name: "cli workflow".into(),
        cores_per_node: cfg.cores_per_node,
        workflow,
        couplings: cfg.couplings,
        subscriptions: cfg.subscriptions,
        halo: cfg.halo,
        elem_bytes: 8,
        iterations: cfg.iterations,
    };
    scenario
        .workflow
        .validate()
        .map_err(|e| CliError::Mismatch(format!("invalid workflow: {e}")))?;
    Ok(scenario)
}

fn write_file(path: &PathBuf, contents: &str) -> Result<(), CliError> {
    std::fs::write(path, contents)
        .map_err(|e| CliError::Io(format!("cannot write {}: {e}", path.display())))
}

/// The flight recorder behind a `--trace-out`: live only when a trace
/// path was given.
fn flight_for(trace_out: Option<&PathBuf>) -> FlightRecorder {
    match trace_out {
        Some(_) => FlightRecorder::enabled(),
        None => FlightRecorder::disabled(),
    }
}

/// The one `--trace-out` writer: a flight recording as a chrome://tracing
/// document.
fn write_trace(path: &PathBuf, events: &[Event], dropped: u64) -> Result<(), CliError> {
    let doc = chrome_trace_with_flows(events, dropped);
    write_file(path, &(doc.render() + "\n"))
}

/// The line every flight-backed report ends with when the bounded log
/// refused events.
fn dropped_warning(flight: &FlightRecorder, what: &str) -> String {
    match flight.dropped() {
        0 => String::new(),
        n => format!("warning: {n} flight events dropped; the {what} is partial\n"),
    }
}

/// Render a name | round-robin | data-centric | delta table over the
/// union of both snapshots' counters.
fn metrics_delta_table(rr: &MetricsSnapshot, dc: &MetricsSnapshot) -> String {
    let names: std::collections::BTreeSet<&String> =
        rr.counters.keys().chain(dc.counters.keys()).collect();
    let width = names.iter().map(|n| n.len()).max().unwrap_or(6).max(7);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<width$}  {:>14}  {:>14}  {:>15}\n",
        "counter", "round-robin", "data-centric", "delta"
    ));
    for name in names {
        let a = rr.counter(name);
        let b = dc.counter(name);
        out.push_str(&format!(
            "{name:<width$}  {a:>14}  {b:>14}  {:>+15}\n",
            b as i64 - a as i64
        ));
    }
    out
}

/// Run the workflow under *both* mapping strategies (modeled executor)
/// and return a side-by-side comparison — the quickest way to see what
/// in-situ placement buys a given workflow. Includes a per-counter
/// metrics delta table; `metrics_out` gets both snapshots as one JSON
/// document and `trace_out` gets the data-centric run's trace.
pub fn compare(
    dag: &str,
    config: &str,
    metrics_out: Option<&PathBuf>,
    trace_out: Option<&PathBuf>,
) -> Result<String, CliError> {
    let scenario = build_scenario(dag, config)?;
    let rec_rr = Recorder::enabled();
    let rec_dc = Recorder::enabled();
    let rr = run_modeled_configured(
        &scenario,
        MappingStrategy::RoundRobin,
        &rec_rr,
        &Default::default(),
    );
    let flight = flight_for(trace_out);
    let dc = run_modeled_configured(
        &scenario,
        MappingStrategy::DataCentric,
        &rec_dc,
        &ModeledConfig {
            flight: flight.clone(),
            ..Default::default()
        },
    );
    let mut out = String::new();
    let net = |o: &insitu::ModeledOutcome| o.ledger.network_bytes(TrafficClass::InterApp);
    let total = rr.ledger.total_bytes(TrafficClass::InterApp);
    out.push_str(&format!("coupled data:        {total} B per iteration\n"));
    out.push_str(&format!(
        "over network:        round-robin {} B | data-centric {} B\n",
        net(&rr),
        net(&dc)
    ));
    if net(&rr) > 0 {
        out.push_str(&format!(
            "network reduction:   {:.1}%\n",
            100.0 * (1.0 - net(&dc) as f64 / net(&rr) as f64)
        ));
    }
    for (app, ms) in &rr.retrieve_ms {
        let dc_ms = dc.retrieve_ms.get(app).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "retrieve (app {app}):    round-robin {ms:.2} ms | data-centric {dc_ms:.2} ms\n"
        ));
    }
    let (snap_rr, snap_dc) = (rec_rr.metrics_snapshot(), rec_dc.metrics_snapshot());
    out.push_str("\nmetrics delta (data-centric vs round-robin):\n");
    out.push_str(&metrics_delta_table(&snap_rr, &snap_dc));
    if let Some(path) = metrics_out {
        let doc = Json::obj()
            .field("round_robin", snap_rr.to_json())
            .field("data_centric", snap_dc.to_json());
        write_file(path, &(doc.render() + "\n"))?;
        out.push_str(&format!("metrics written to   {}\n", path.display()));
    }
    if let Some(path) = trace_out {
        write_trace(path, &flight.snapshot(), flight.dropped())?;
        out.push_str(&format!("trace written to     {}\n", path.display()));
        out.push_str(&dropped_warning(&flight, "trace"));
    }
    Ok(out)
}

/// Options of the `profile` subcommand.
#[derive(Clone, Debug)]
pub struct ProfileOptions {
    /// DAG description file contents.
    pub dag: String,
    /// Workload configuration file contents.
    pub config: String,
    /// Mapping strategy.
    pub strategy: MappingStrategy,
    /// `true` = threaded executor (measured), `false` = modeled.
    pub threaded: bool,
    /// Emit the report as a JSON document instead of text.
    pub json: bool,
    /// Write a chrome://tracing timeline — one slice per flight event
    /// plus causal flow arrows from producer puts to consumer pulls —
    /// here after the run.
    pub trace_out: Option<PathBuf>,
}

/// Run the workflow with the flight recorder on and render the causal
/// critical-path profile: per-iteration category attribution (schedule /
/// shm / RDMA / wait), per-link-class queueing and size percentiles, and
/// the injected-fault tally. The same analysis reads threaded (measured)
/// and modeled (synthetic) runs.
pub fn profile(options: &ProfileOptions) -> Result<String, CliError> {
    let scenario = build_scenario(&options.dag, &options.config)?;
    let recorder = Recorder::enabled();
    let flight = FlightRecorder::enabled();
    if options.threaded {
        run_threaded_configured(
            &scenario,
            options.strategy,
            &recorder,
            &ThreadedConfig {
                flight: flight.clone(),
                ..Default::default()
            },
        );
    } else {
        run_modeled_configured(
            &scenario,
            options.strategy,
            &recorder,
            &ModeledConfig {
                flight: flight.clone(),
                ..Default::default()
            },
        );
    }
    let events = flight.snapshot();
    let report = ProfileReport::analyze(&events, flight.dropped());
    let mut out = if options.json {
        report.to_json().render() + "\n"
    } else {
        let mut s = format!(
            "profile: {} executor, {} mapping\n",
            if options.threaded {
                "threaded"
            } else {
                "modeled"
            },
            options.strategy.label()
        );
        s.push_str(&report.render());
        s
    };
    if let Some(path) = &options.trace_out {
        write_trace(path, &events, flight.dropped())?;
        if !options.json {
            out.push_str(&format!("trace written to {}\n", path.display()));
        }
    }
    if !options.json {
        out.push_str(&dropped_warning(&flight, "profile"));
    }
    Ok(out)
}

/// Run per `options` and return the printable report.
pub fn run(options: &Options) -> Result<String, CliError> {
    let scenario = build_scenario(&options.dag, &options.config)?;
    let mut out = String::new();
    let push = |out: &mut String, s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    push(&mut out, format!("strategy:  {}", options.strategy.label()));
    push(
        &mut out,
        format!(
            "executor:  {}",
            if options.threaded {
                "threaded"
            } else {
                "modeled"
            }
        ),
    );
    push(
        &mut out,
        format!("waves:     {:?}", scenario.workflow.bundle_waves().unwrap()),
    );

    // Telemetry costs nothing unless an output was requested: a disabled
    // recorder hands out detached handles, a disabled flight recorder
    // drops every event.
    let recorder = if options.metrics_out.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let flight = flight_for(options.trace_out.as_ref());
    let coupling_line = |ledger: &LedgerSnapshot| {
        format!(
            "coupling:  {} B over network, {} B in-situ ({:.1}% in-situ)",
            ledger.network_bytes(TrafficClass::InterApp),
            ledger.shm_bytes(TrafficClass::InterApp),
            100.0 * (1.0 - ledger.network_fraction(TrafficClass::InterApp)),
        )
    };
    if options.threaded {
        let o = run_threaded_configured(
            &scenario,
            options.strategy,
            &recorder,
            &ThreadedConfig {
                flight: flight.clone(),
                ..Default::default()
            },
        );
        push(
            &mut out,
            format!("verified:  {} cell mismatches", o.verify_failures),
        );
        push(&mut out, coupling_line(&o.ledger));
        push(
            &mut out,
            format!(
                "intra-app: {} B over network, {} B in-situ",
                o.ledger.network_bytes(TrafficClass::IntraApp),
                o.ledger.shm_bytes(TrafficClass::IntraApp),
            ),
        );
        push(&mut out, format!("gets:      {}", o.reports.len()));
    } else {
        let o = run_modeled_configured(
            &scenario,
            options.strategy,
            &recorder,
            &ModeledConfig {
                flight: flight.clone(),
                ..Default::default()
            },
        );
        push(&mut out, coupling_line(&o.ledger));
        for (app, ms) in &o.retrieve_ms {
            push(
                &mut out,
                format!("retrieve:  app {app}: {ms:.2} ms (max over tasks)"),
            );
        }
    }
    if let Some(path) = &options.metrics_out {
        write_file(path, &(recorder.metrics_json() + "\n"))?;
        push(&mut out, format!("metrics:   wrote {}", path.display()));
    }
    if let Some(path) = &options.trace_out {
        write_trace(path, &flight.snapshot(), flight.dropped())?;
        push(&mut out, format!("trace:     wrote {}", path.display()));
        out.push_str(&dropped_warning(&flight, "trace"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_workflow::ONLINE_PROCESSING_DAG;

    const CONFIG: &str = "\
CORES_PER_NODE 4
DOMAIN 16 16 16
HALO 1
APP 1 GRID 2 2 2 DIST blocked
APP 2 GRID 4 1 1 DIST blocked
COUPLING VAR t PRODUCER 1 CONSUMERS 2 MODE concurrent
";

    #[test]
    fn builds_scenario_from_files() {
        let s = build_scenario(ONLINE_PROCESSING_DAG, CONFIG).unwrap();
        assert_eq!(s.workflow.apps.len(), 2);
        assert_eq!(s.workflow.app(1).unwrap().ntasks, 8);
        assert_eq!(s.workflow.app(2).unwrap().ntasks, 4);
        assert_eq!(s.cores_per_node, 4);
    }

    fn options(strategy: MappingStrategy, threaded: bool) -> Options {
        Options {
            dag: ONLINE_PROCESSING_DAG.into(),
            config: CONFIG.into(),
            strategy,
            threaded,
            metrics_out: None,
            trace_out: None,
        }
    }

    #[test]
    fn threaded_run_produces_report() {
        let report = run(&options(MappingStrategy::DataCentric, true)).unwrap();
        assert!(report.contains("verified:  0 cell mismatches"), "{report}");
        assert!(report.contains("coupling:"));
    }

    #[test]
    fn modeled_run_produces_report() {
        let report = run(&options(MappingStrategy::RoundRobin, false)).unwrap();
        assert!(report.contains("retrieve:  app 2"), "{report}");
    }

    #[test]
    fn run_writes_metrics_and_trace_files() {
        let dir = std::env::temp_dir();
        let metrics = dir.join("insitu_cli_test_metrics.json");
        let trace = dir.join("insitu_cli_test_trace.json");
        let mut opts = options(MappingStrategy::DataCentric, true);
        opts.metrics_out = Some(metrics.clone());
        opts.trace_out = Some(trace.clone());
        let report = run(&opts).unwrap();
        assert!(report.contains("metrics:   wrote"), "{report}");
        let m = std::fs::read_to_string(&metrics).unwrap();
        assert!(m.contains("\"counters\""), "{m}");
        assert!(m.contains("fabric.bytes.inter_app"), "{m}");
        assert!(m.contains("\"workflow.execute_us\""), "{m}");
        let t = std::fs::read_to_string(&trace).unwrap();
        assert!(t.starts_with("{\"traceEvents\":["), "{t}");
        assert!(t.contains("\"obs.get_cont\""), "{t}");
        assert!(t.contains("\"ph\":\"s\""), "{t}");
        std::fs::remove_file(metrics).unwrap();
        std::fs::remove_file(trace).unwrap();
    }

    /// `(slice names, flow starts)` of a written `--trace-out` document.
    fn trace_shape(path: &PathBuf) -> (std::collections::BTreeSet<String>, usize) {
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        std::fs::remove_file(path).unwrap();
        assert!(doc.get("droppedSpans").is_none());
        assert_eq!(doc.get("droppedEvents").and_then(Json::as_u64), Some(0));
        let items = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let ph = |e: &Json, want: &str| e.get("ph").and_then(Json::as_str) == Some(want);
        let names = items
            .iter()
            .filter(|e| ph(e, "X"))
            .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        (names, items.iter().filter(|e| ph(e, "s")).count())
    }

    #[test]
    fn every_trace_out_writes_the_same_flight_document() {
        let dir = std::env::temp_dir();
        for threaded in [true, false] {
            let tag = if threaded { "threaded" } else { "modeled" };
            let run_path = dir.join(format!("insitu_cli_test_run_{tag}.json"));
            let mut opts = options(MappingStrategy::DataCentric, threaded);
            opts.trace_out = Some(run_path.clone());
            let report = run(&opts).unwrap();
            assert!(!report.contains("warning:"), "{report}");
            let profile_path = dir.join(format!("insitu_cli_test_profile_{tag}.json"));
            profile(&ProfileOptions {
                dag: opts.dag.clone(),
                config: opts.config.clone(),
                strategy: opts.strategy,
                threaded,
                json: false,
                trace_out: Some(profile_path.clone()),
            })
            .unwrap();
            let (names, flows) = trace_shape(&run_path);
            // Only the threaded executor records puts, so only it has
            // arrows to draw; the modeled timeline is gets and pulls.
            assert!(names.contains("obs.pull"), "{tag}: {names:?}");
            assert_eq!(flows > 0, threaded, "{tag}");
            assert_eq!((names, flows), trace_shape(&profile_path), "{tag}");
        }
        // `compare --trace-out` is the modeled data-centric run's recording.
        let cmp_path = dir.join("insitu_cli_test_compare_trace.json");
        let report = compare(ONLINE_PROCESSING_DAG, CONFIG, None, Some(&cmp_path)).unwrap();
        assert!(report.contains("trace written to"), "{report}");
        assert!(trace_shape(&cmp_path).0.contains("obs.pull"));
    }

    #[test]
    fn full_flight_log_warns_that_the_trace_is_partial() {
        let flight = FlightRecorder::with_capacity(1);
        assert_eq!(dropped_warning(&flight, "trace"), "");
        for _ in 0..3 {
            flight.record(Event::new(
                flight.next_seq(),
                insitu_obs::EventKind::NetSend,
            ));
        }
        assert_eq!(
            dropped_warning(&flight, "trace"),
            "warning: 2 flight events dropped; the trace is partial\n"
        );
    }

    #[test]
    fn compare_reports_reduction_and_metric_deltas() {
        let report = compare(ONLINE_PROCESSING_DAG, CONFIG, None, None).unwrap();
        assert!(report.contains("network reduction"), "{report}");
        assert!(report.contains("retrieve (app 2)"));
        assert!(report.contains("metrics delta"), "{report}");
        assert!(report.contains("fabric.bytes.inter_app.net"), "{report}");
    }

    #[test]
    fn compare_writes_combined_metrics() {
        let path = std::env::temp_dir().join("insitu_cli_test_compare.json");
        let report = compare(ONLINE_PROCESSING_DAG, CONFIG, Some(&path), None).unwrap();
        assert!(report.contains("metrics written to"), "{report}");
        let body = std::fs::read_to_string(&path).unwrap();
        assert!(body.starts_with("{\"round_robin\":{"), "{body}");
        assert!(body.contains("\"data_centric\":{"), "{body}");
        assert!(body.contains("\"workflow.map_us\""), "{body}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn missing_app_config_rejected() {
        let bad = "DOMAIN 16 16 16\nAPP 1 GRID 2 2 2 DIST blocked\n";
        let err = build_scenario(ONLINE_PROCESSING_DAG, bad).unwrap_err();
        assert!(matches!(err, CliError::Mismatch(_)));
        assert!(err.to_string().contains("app 2"));
    }

    #[test]
    fn coupling_to_unknown_app_rejected() {
        let bad = "\
DOMAIN 16 16 16
APP 1 GRID 2 2 2 DIST blocked
APP 2 GRID 4 1 1 DIST blocked
COUPLING VAR t PRODUCER 1 CONSUMERS 9 MODE concurrent
";
        let err = build_scenario(ONLINE_PROCESSING_DAG, bad).unwrap_err();
        assert!(err.to_string().contains("app 9"));
    }
}
