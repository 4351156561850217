//! The traced pass: the per-layer numbers, and how they tie back to the
//! end-to-end ones.
//!
//! It (1) derives the workload's op census and checks it against real
//! runs before trusting it, (2) runs the workload untraced and with the
//! program's own recorders on, reading the program's counters and its
//! critical-path profile, (3) replays the census single-threaded
//! through each layer's public functions under [`Tracer`] spans, and
//! (4) writes the spans as a chrome trace. End-to-end metrics never
//! come from this pass, and its times are as measured: `host.calib_ms`
//! says how fast the cores were (`clock`).

use crate::census::Census;
use crate::clock;
use crate::drive::{self, Finished, STRATEGY};
use crate::e2e::{self, Prepared};
use crate::layers;
use crate::report::Metric;
use crate::span::Tracer;
use crate::stats;
use crate::workloads::{Mode, Workload};
use insitu_obs::{merge_traces, Event, EventKind, FlightRecorder, LinkClass, ProfileReport};
use insitu_svc::RpcClient;
use insitu_telemetry::{Json, Recorder};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Every per-layer metric, in `BENCHMARK.json` order, with its unit.
/// A layer the workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("domain.copy_region.calls_per_iter", "count"),
    ("domain.copy_region.bytes_per_iter", "B"),
    ("domain.copy_region.busy_ms_per_iter", "ms"),
    ("domain.copy_region.gib_s", "GiB/s"),
    ("domain.memcpy_ref.gib_s", "GiB/s"),
    ("domain.copy_region.bw_ratio", "ratio"),
    ("sfc.spans_of_box.us_per_call", "us"),
    ("sfc.spans_per_box", "count"),
    ("cods.schedule.compute_us_per_get", "us"),
    ("cods.schedule.cached_us_per_get", "us"),
    ("cods.schedule.ops_per_get", "count"),
    ("cods.schedule.cache_hit_ratio", "ratio"),
    ("cods.dht.insert_us", "us"),
    ("cods.dht.query_us", "us"),
    ("cods.dht.cores_per_query", "count"),
    ("cods.put.us_per_call", "us"),
    ("cods.get.busy_us_per_call", "us"),
    ("cods.get.view_hit_ratio", "ratio"),
    ("dart.registry.register_us", "us"),
    ("dart.registry.rendezvous_us", "us"),
    ("dart.pull_many.us_per_piece", "us"),
    ("dart.pull.timeouts", "count"),
    ("net.frame.encode_ms_per_iter", "ms"),
    ("net.frame.decode_ms_per_iter", "ms"),
    ("net.frame.encode_gib_s", "GiB/s"),
    ("net.frame.decode_gib_s", "GiB/s"),
    ("net.frames_per_iter", "count"),
    ("net.bytes_per_iter", "B"),
    ("net.hub.relayed_frames_per_iter", "count"),
    ("net.reactor.frames_per_s", "1/s"),
    ("net.reactor.rtt_1k_us_p50", "us"),
    ("net.reactor.rtt_piece_us_p50", "us"),
    ("net.reactor.idle_cpu_ms_per_s", "ms/s"),
    ("net.shm.frames_per_iter", "count"),
    ("net.shm.fallbacks_per_iter", "count"),
    ("net.shm.full_wait_ms_per_iter", "ms"),
    ("net.reconnects", "count"),
    ("util.shm.push_us", "us"),
    ("util.shm.pop_release_us", "us"),
    ("util.shm.gib_s", "GiB/s"),
    ("util.shm.push_full_ratio", "ratio"),
    ("util.poller.wake_us_p50", "us"),
    ("sub.pushes_per_iter", "count"),
    ("sub.deliveries_per_iter", "count"),
    ("sub.push.us_per_fragment", "us"),
    ("sub.lagged", "count"),
    ("svc.submit_rpc_ms", "ms"),
    ("svc.queue_wait_ms", "ms"),
    ("svc.status_rpc_us", "us"),
    ("svc.refused", "count"),
    ("workflow.compile_us", "us"),
    ("workflow.parse_us", "us"),
    ("core.map_scenario_us", "us"),
    ("partition.edge_cut_ratio", "ratio"),
    ("fabric.ledger.network_bytes_per_iter", "B"),
    ("fabric.ledger.shm_bytes_per_iter", "B"),
    ("fabric.ledger.network_byte_ratio", "ratio"),
    ("fabric.ledger.account_ns", "ns"),
    ("obs.flight.record_ns", "ns"),
    ("telemetry.events_per_iter", "count"),
    ("obs.overhead_ratio", "ratio"),
    ("profile.schedule_ms_per_iter", "ms"),
    ("profile.shm_ms_per_iter", "ms"),
    ("profile.rdma_ms_per_iter", "ms"),
    ("profile.wait_ms_per_iter", "ms"),
    ("baseline.single_copy_ms_per_iter", "ms"),
    ("core.field_fill_verify_ms_per_iter", "ms"),
    ("host.calib_ms", "ms"),
    ("run.iter_ms", "ms"),
    ("run.tail_ms", "ms"),
    ("run.tail_percentile", "count"),
    ("layers.coupling_overhead_x", "ratio"),
    ("layers.busy_ms_per_iter", "ms"),
    ("layers.explained_ratio", "ratio"),
];

/// The traced pass's result.
pub struct Traced {
    /// Runs started.
    pub attempted: u64,
    /// Runs that failed the oracle or the census validation.
    pub failed: u64,
    /// Why, first few.
    pub failures: Vec<String>,
    /// Every [`PER_LAYER`] metric.
    pub metrics: Vec<Metric>,
}

/// What a run with the program's own recorders on left behind.
#[derive(Default)]
struct Recorded {
    counters: BTreeMap<String, u64>,
    /// Flight events recorded.
    events: u64,
    /// Critical-path totals over the whole run, microseconds:
    /// schedule, shm, rdma, wait.
    profile_us: [f64; 4],
    /// Σ ring-full waits (`insitu_net::link::record_shm_wait` events).
    shm_full_wait_us: u64,
    /// Task errors naming a pull timeout.
    timeouts: u64,
}

fn profile_of(events: &[Event], dropped: u64) -> [f64; 4] {
    let t = ProfileReport::analyze(events, dropped).totals();
    [t.schedule_us, t.shm_us, t.rdma_us, t.wait_us]
}

/// Ring-full waits are logged as shm-classed `Pull` events with neither
/// a parent get nor a box, which no consumer-side pull lacks.
fn shm_full_wait_us(events: &[Event]) -> u64 {
    events
        .iter()
        .filter(|e| e.link == Some(LinkClass::Shm) && e.parent.is_none() && e.bbox.is_none())
        .filter_map(|e| match e.kind {
            EventKind::Pull { wait_us } => Some(wait_us),
            _ => None,
        })
        .sum()
}

fn count_timeouts(errors: &[String]) -> u64 {
    errors
        .iter()
        .filter(|e| e.to_lowercase().contains("timed out") || e.to_lowercase().contains("timeout"))
        .count() as u64
}

fn counters_of_json(metrics_json: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    if let Ok(doc) = Json::parse(metrics_json) {
        if let Some(Json::Obj(fields)) = doc.get("counters") {
            for (k, v) in fields {
                out.insert(k.clone(), v.as_u64().unwrap_or(0));
            }
        }
    }
    out
}

/// Inter-application `(shm, network)` bytes of a rendered ledger.
fn inter_app_bytes(ledger_json: &str) -> Result<(u64, u64), String> {
    let doc = Json::parse(ledger_json)?;
    let cell = |key: &str| {
        doc.get("bytes")
            .and_then(|b| b.get(key))
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("ledger has no {key}"))
    };
    Ok((cell("inter_app.shm")?, cell("inter_app.net")?))
}

/// The method is checked before it is trusted: the census must predict
/// exactly what a real `k`-iteration run accounted and executed.
fn validate_census(census: &Census, k: u64, finished: &Finished) -> Result<(), String> {
    let Ok(seen) = &finished.seen else {
        return Ok(()); // a failed run is the oracle's to report
    };
    let (shm, net) = inter_app_bytes(&seen.ledger_json)?;
    let predicted = census.inter_app_bytes(k);
    if predicted != shm + net {
        return Err(format!(
            "census predicts {predicted} inter-app bytes over {k} iterations, the run's ledger has {}",
            shm + net
        ));
    }
    if let Some(gets) = seen.gets {
        if gets != census.get_count(k) {
            return Err(format!(
                "census predicts {} gets, the run completed {gets}",
                census.get_count(k)
            ));
        }
    }
    if let Some(ops) = finished.get_ops {
        if ops != census.get_ops(k) {
            return Err(format!(
                "census predicts {} transfers, the run's GetReports sum to {ops}",
                census.get_ops(k)
            ));
        }
    }
    Ok(())
}

/// Where outputs go: beside the build, never at the repository root.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let target = exe
        .parent()
        .and_then(|p| p.parent())
        .ok_or("executable has no target directory")?;
    let dir = target.join("insitu-perf-out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// The end-to-end half of the traced pass.
#[derive(Default)]
struct Runs {
    untraced_full: Vec<f64>,
    traced_full: Vec<f64>,
    single: Vec<f64>,
    /// `clock::calibrate` once per round (per run on the service).
    calib_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    recorded: Recorded,
    ledger_json: String,
    service: Vec<drive::ServiceRun>,
    refused: u64,
}

impl Runs {
    fn note(&mut self, verdict: Result<(), String>) -> bool {
        self.attempted += 1;
        if let Err(why) = verdict {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
            return false;
        }
        true
    }
}

fn recorded_from(finished: &Finished, recorder: Option<(&Recorder, &FlightRecorder)>) -> Recorded {
    let mut r = Recorded::default();
    if let Ok(seen) = &finished.seen {
        r.timeouts = count_timeouts(&seen.errors);
        if let Some(c) = &seen.counters {
            r.counters = c.clone();
        }
    }
    match recorder {
        Some((recorder, flight)) => {
            r.counters = recorder.metrics_snapshot().counters.into_iter().collect();
            let events = flight.snapshot();
            r.events = events.len() as u64;
            r.profile_us = profile_of(&events, flight.dropped());
            r.shm_full_wait_us = shm_full_wait_us(&events);
        }
        None => {
            let merged = merge_traces(finished.telemetry.clone());
            r.events = merged.events.len() as u64;
            r.profile_us = profile_of(&merged.events, merged.dropped);
            r.shm_full_wait_us = shm_full_wait_us(&merged.events);
        }
    }
    r
}

/// Threaded and distributed workloads: rounds of an untraced full run,
/// a full run with the program's recorders on, and a one-iteration run.
/// The shipped `insitu join` always records, so on distributed
/// workloads the two full runs are configured alike and their ratio is
/// the noise floor of `obs.overhead_ratio`.
fn run_rounds(p: &Prepared, census: &Census, budget: Duration) -> Result<Runs, String> {
    let mut runs = Runs::default();
    let (full, single) = &p.cases[0];
    let k = p.workload.k;
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || t0.elapsed() < budget {
        let untraced = p.run(full).map_err(|h| h.0)?;
        validate_census(census, k, &untraced)?;
        if runs.note(p.judge(full, &untraced.seen)) {
            runs.untraced_full.push(untraced.cost.wall_ms);
        }

        let (traced, recorded) = match p.workload.mode {
            Mode::Threaded => {
                let (recorder, flight) = (Recorder::enabled(), FlightRecorder::enabled());
                let f = drive::threaded_run(&full.input, Some((recorder.clone(), flight.clone())))
                    .map_err(|h| h.0)?;
                let r = recorded_from(&f, Some((&recorder, &flight)));
                (f, r)
            }
            _ => {
                let f = p.run(full).map_err(|h| h.0)?;
                let r = recorded_from(&f, None);
                (f, r)
            }
        };
        validate_census(census, k, &traced)?;
        if runs.note(p.judge(full, &traced.seen)) {
            runs.traced_full.push(traced.cost.wall_ms);
            runs.recorded = recorded;
            if let Ok(seen) = &traced.seen {
                runs.ledger_json = seen.ledger_json.clone();
            }
        }

        let one = p.run(single).map_err(|h| h.0)?;
        validate_census(census, 1, &one)?;
        if runs.note(p.judge(single, &one.seen)) {
            runs.single.push(one.cost.wall_ms);
        }
        runs.calib_ms.push(clock::calibrate());
        rounds += 1;
    }
    Ok(runs)
}

/// The service workload: a shortened closed loop, then one more run
/// whose artifacts carry the program's counters and profile.
fn run_service(p: &Prepared, census: &Census, seconds: f64) -> Result<Runs, String> {
    let samples = e2e::measure(p, seconds);
    let lat = |v: &[drive::Cost]| -> Vec<f64> { v.iter().map(|c| c.wall_ms).collect() };
    let full = lat(&samples.full);
    // No untraced service exists (every run executes under its own
    // recorders), so the overhead ratio compares alternate runs of one
    // configuration: its noise floor.
    let mut runs = Runs {
        untraced_full: full.iter().step_by(2).copied().collect(),
        traced_full: full.iter().skip(1).step_by(2).copied().collect(),
        single: lat(&samples.single),
        calib_ms: samples.full.iter().map(|c| c.calib_ms).collect(),
        attempted: samples.attempted,
        failed: samples.failed,
        refused: samples
            .failures
            .iter()
            .filter(|f| f.starts_with("refused"))
            .count() as u64,
        failures: samples.failures,
        service: samples.service_runs,
        ..Runs::default()
    };
    let svc = p.service.as_ref().expect("service mode");
    let mut client = RpcClient::connect(&svc.addr, Duration::from_secs(10))?;
    let (full_case, _) = &p.cases[0];
    let sub = drive::Submission {
        name: "census".into(),
        input: full_case.input.clone(),
        priority: 0,
    };
    let (_, seen, artifacts) = drive::service_run_with_artifacts(&mut client, &sub);
    let finished = Finished {
        cost: drive::Cost::default(),
        seen,
        get_ops: None,
        telemetry: Vec::new(),
    };
    validate_census(census, p.workload.k, &finished)?;
    if runs.note(p.judge(full_case, &finished.seen)) {
        if let (Ok(seen), Some(a)) = (&finished.seen, artifacts) {
            runs.ledger_json = seen.ledger_json.clone();
            runs.recorded.counters = counters_of_json(&a.metrics_json);
            if let Ok(profile) = Json::parse(&a.profile_json) {
                let total = |k: &str| {
                    profile
                        .get("totals")
                        .and_then(|t| t.get(k))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0)
                };
                runs.recorded.profile_us = [
                    total("schedule_us"),
                    total("shm_us"),
                    total("rdma_us"),
                    total("wait_us"),
                ];
                runs.recorded.events = profile.get("events").and_then(Json::as_u64).unwrap_or(0);
            }
        }
    }
    Ok(runs)
}

/// Run the traced pass of `w`.
pub fn run(w: &'static Workload, seed: u64, seconds: f64) -> Result<Traced, String> {
    let prepared = e2e::prepare(w, seed)?;
    let (full_case, _) = &prepared.cases[0];
    let input = std::sync::Arc::clone(&full_case.input);
    let scenario = &input.scenario;
    let mapped = insitu::map_scenario(scenario, STRATEGY);
    let census = Census::of(scenario, &mapped);
    let domain = *scenario
        .workflow
        .apps
        .iter()
        .find_map(|a| a.decomposition.as_ref())
        .ok_or("workflow has no decomposition")?
        .domain();
    let k = w.k as f64;

    // End-to-end runs get just under half of the time; the replays are
    // bounded by their own per-probe budgets.
    let runs = match w.mode {
        Mode::Service => run_service(&prepared, &census, seconds * 0.2)?,
        _ => run_rounds(&prepared, &census, Duration::from_secs_f64(seconds * 0.45))?,
    };
    let nodes = prepared.nodes;
    drop(prepared);

    let mut tracer = Tracer::default();
    let copy = layers::copy_probe(&census, &mut tracer);
    let field_ms = layers::field_probe(&census, &mut tracer);
    let sfc = layers::sfc_probe(&census, &domain, &mut tracer);
    let sched = layers::schedule_probe(&census, scenario, &mapped, &domain, &mut tracer);
    let space = layers::space_probe(&census, scenario, &mapped, &domain, &mut tracer);
    let dart = layers::dart_probe(&census, &mapped, &mut tracer);
    let frame = layers::frame_probe(&census, &mut tracer);
    let sub_push_us = layers::sub_push_us(&census, &mut tracer);
    // Which data plane carries the cross-node pieces decides which of
    // the transport probes the workload exercises.
    let (on_wire, on_shm) = match w.mode {
        Mode::Threaded => (false, false),
        Mode::Distrib { shm, .. } => (true, shm),
        Mode::Service => (true, true),
    };
    let reactor = if on_wire {
        layers::reactor_probe(&frame.payload_sizes, nodes as usize + 1)
    } else {
        layers::ReactorProbe::default()
    };
    let poller_wake_us = if on_wire {
        layers::poller_wake_us()
    } else {
        0.0
    };
    let shm = if on_shm {
        layers::shm_probe(&frame.payload_sizes, &mut tracer)
    } else {
        layers::ShmProbe::default()
    };
    let (source, overrides) = w.template_input(seed, w.k, &[])?;
    let control = layers::control_probe(&source, &overrides, &input, STRATEGY, &mut tracer);
    let account_ns = layers::ledger_account_ns();
    let record_ns = layers::flight_record_ns();

    let trace_path = out_dir()?.join(format!("trace_{}.json", w.name));
    std::fs::write(&trace_path, tracer.chrome_json(w.name))
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    println!(
        "chrome trace: {} ({} spans)",
        trace_path.display(),
        tracer.len()
    );
    println!("replayed self time by span (recorded passes):");
    for (name, busy) in tracer.busy_by_name() {
        println!(
            "  {name:<28} {:>8} calls {:>12.3} ms",
            busy.calls,
            busy.self_us / 1e3
        );
    }

    // ---- assemble, in PER_LAYER order ---------------------------------
    let c = |key: &str| runs.recorded.counters.get(key).copied().unwrap_or(0) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let run_ms = stats::median(&runs.untraced_full);
    let traced_ms = stats::median(&runs.traced_full);
    let launch_ms = stats::median(&runs.single);
    let iter_ms = stats::per_iteration(run_ms, launch_ms, w.k);
    let (ledger_shm, ledger_net) = inter_app_bytes(&runs.ledger_json).unwrap_or((0, 0));
    let all_full: Vec<f64> = runs
        .untraced_full
        .iter()
        .chain(&runs.traced_full)
        .copied()
        .collect();
    let (tail_p, tail_ms) = stats::tail(&all_full).map_or((0.0, 0.0), |(p, v)| (p as f64, v));
    let svc_mean = |f: fn(&drive::ServiceRun) -> f64| -> f64 {
        ratio(
            runs.service.iter().map(f).sum::<f64>(),
            runs.service.len() as f64,
        )
    };
    let status_calls: f64 = runs.service.iter().map(|r| r.status_calls as f64).sum();
    let status_us: f64 = runs.service.iter().map(|r| r.status_us).sum();

    let gets_per_iter = census.get_count(w.k) as f64 / k;
    let puts_per_iter = census.pieces.len() as f64;
    let pieces_moved = frame.payload_sizes.len() as f64;
    let transport_ms = if on_shm {
        pieces_moved * (shm.push_us + shm.pop_release_us) / 1e3
    } else if on_wire {
        frame.encode_ms_per_iter + frame.decode_ms_per_iter
    } else {
        0.0
    };
    let busy_ms = puts_per_iter * space.put_us_per_call / 1e3
        + gets_per_iter * space.get_busy_us_per_call / 1e3
        + census.pushes.len() as f64 * sub_push_us / 1e3
        + transport_ms
        + field_ms;

    let values: Vec<f64> = vec![
        copy.calls_per_iter,
        copy.bytes_per_iter,
        copy.busy_ms_per_iter,
        copy.gib_s,
        copy.memcpy_gib_s,
        ratio(copy.gib_s, copy.memcpy_gib_s),
        sfc.us_per_call,
        sfc.spans_per_box,
        sched.compute_us_per_get,
        sched.cached_us_per_get,
        sched.ops_per_get,
        ratio(
            c("cods.schedule_cache.hits"),
            c("cods.schedule_cache.hits") + c("cods.schedule_cache.misses"),
        ),
        sched.dht_insert_us,
        sched.dht_query_us,
        sched.dht_cores_per_query,
        space.put_us_per_call,
        space.get_busy_us_per_call,
        ratio(c("cods.view_hits"), c("cods.get")),
        dart.register_us,
        dart.rendezvous_us,
        dart.pull_many_us_per_piece,
        runs.recorded.timeouts as f64,
        frame.encode_ms_per_iter,
        frame.decode_ms_per_iter,
        frame.encode_gib_s,
        frame.decode_gib_s,
        c("net.frames") / k,
        c("net.bytes_sent") / k,
        (c("net.pull_frames_hub") + c("net.sub_push_hub")) / k,
        reactor.frames_per_s,
        reactor.rtt_small_us_p50,
        reactor.rtt_piece_us_p50,
        reactor.idle_cpu_ms_per_s,
        c("net.shm_frames") / k,
        c("net.shm_fallbacks") / k,
        runs.recorded.shm_full_wait_us as f64 / 1e3 / k,
        c("net.reconnects"),
        shm.push_us,
        shm.pop_release_us,
        shm.gib_s,
        shm.push_full_ratio,
        poller_wake_us,
        c("sub.pushes") / k,
        c("sub.deliveries") / k,
        sub_push_us,
        c("sub.lagged"),
        svc_mean(|r| r.submit_ms),
        svc_mean(|r| r.queue_wait_ms),
        ratio(status_us, status_calls),
        runs.refused as f64,
        control.compile_us,
        control.parse_us,
        control.map_scenario_us,
        control.edge_cut_ratio,
        ledger_net as f64 / k,
        ledger_shm as f64 / k,
        ratio(ledger_net as f64, (ledger_net + ledger_shm) as f64),
        account_ns,
        record_ns,
        runs.recorded.events as f64 / k,
        ratio(traced_ms, run_ms),
        runs.recorded.profile_us[0] / 1e3 / k,
        runs.recorded.profile_us[1] / 1e3 / k,
        runs.recorded.profile_us[2] / 1e3 / k,
        runs.recorded.profile_us[3] / 1e3 / k,
        copy.baseline_ms_per_iter,
        field_ms,
        stats::median(&runs.calib_ms),
        iter_ms,
        tail_ms,
        tail_p,
        ratio(iter_ms, copy.baseline_ms_per_iter),
        busy_ms,
        ratio(busy_ms, iter_ms),
    ];
    assert_eq!(
        values.len(),
        PER_LAYER.len(),
        "one value per per-layer metric"
    );
    let metrics = PER_LAYER
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| Metric::new(name, value, unit))
        .collect();
    Ok(Traced {
        attempted: runs.attempted,
        failed: runs.failed,
        failures: runs.failures,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    /// `BENCHMARK.json` and the code name the same workloads and
    /// metrics, in the same order.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str, field: &str| -> Vec<String> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|e| e.get(field).and_then(Json::as_str).unwrap().to_string())
                .collect()
        };
        let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(names("per_layer", "name"), per_layer);
        let units: Vec<String> = PER_LAYER.iter().map(|(_, u)| u.to_string()).collect();
        assert_eq!(names("per_layer", "unit"), units);
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        assert_eq!(names("workloads", "name"), workloads);
        let whys: Vec<String> = WORKLOADS.iter().map(|w| w.why.to_string()).collect();
        assert_eq!(names("workloads", "why"), whys);
        let e2e: Vec<String> = e2e::metrics(2, &[1.0], &e2e::Samples::default())
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(names("end_to_end", "name"), e2e);
    }

    #[test]
    fn ring_full_waits_are_told_from_consumer_pulls() {
        let wait = Event::new(1, EventKind::Pull { wait_us: 20_000 }).link(LinkClass::Shm);
        let pull = Event::new(2, EventKind::Pull { wait_us: 5 })
            .link(LinkClass::Shm)
            .parent(9)
            .bbox(insitu_domain::BoundingBox::from_sizes(&[2, 2]));
        let rdma = Event::new(3, EventKind::Pull { wait_us: 7 }).link(LinkClass::Rdma);
        assert_eq!(shm_full_wait_us(&[wait, pull, rdma]), 20_000);
    }
}
