//! End-to-end test of the distributed telemetry plane: a loopback
//! `insitu launch --p2p` run whose joiners ship their flight
//! recordings to the hub, which stitches them into one cross-process
//! trace. Mirrors the PR 3 single-process invariant at distributed
//! scale: every `PullData` wire hop must find both halves (zero
//! unmatched send/recv pairs) and the merged critical-path profile must
//! account for the end-to-end time within 5%.

use insitu::{join, serve, DistribOutcome, JoinOptions, MappingStrategy, ServeOptions};
use insitu_chaos::{FaultKind, FaultPlan, FaultSpec};
use insitu_cli::build_scenario;
use insitu_fabric::FaultInjector;
use insitu_obs::{merge_traces, FlightRecorder};
use insitu_telemetry::{Json, Recorder};
use std::net::TcpListener;
use std::path::PathBuf;
use std::process::Command;
use std::sync::Arc;
use std::time::Duration;

fn workflow_path(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../workflows")
        .join(name)
        .to_str()
        .unwrap()
        .to_string()
}

fn insitu() -> Command {
    Command::new(env!("CARGO_BIN_EXE_insitu"))
}

#[test]
fn merged_trace_stitches_every_wire_pair_and_profile_covers_e2e() {
    let trace = std::env::temp_dir().join("insitu_integration_merged_trace.json");
    let profile = std::env::temp_dir().join("insitu_integration_merged_profile.json");
    // Round-robin mapping forces cross-node coupling pulls, so the
    // p2p data plane carries real wire traffic to stitch.
    let out = insitu()
        .args([
            "launch",
            &workflow_path("distrib.dag"),
            "--config",
            &workflow_path("distrib.cfg"),
            "--p2p",
            "--strategy",
            "round-robin",
            "--timeout-ms",
            "60000",
            "--trace-out",
            trace.to_str().unwrap(),
            "--profile-out",
            profile.to_str().unwrap(),
        ])
        .output()
        .expect("launch runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "launch failed:\n{stdout}");
    assert!(stdout.contains("verified:  0 cell mismatches"), "{stdout}");
    assert!(
        stdout.contains("byte-identical to the single-process run"),
        "{stdout}"
    );
    // The merge must not degrade: no warnings in the report.
    assert!(!stdout.contains("warning:"), "{stdout}");

    // Merged chrome trace: one lane per joiner process, every PullData
    // send/recv pair stitched into a cross-process edge.
    let trace_body = std::fs::read_to_string(&trace).unwrap();
    assert!(trace_body.contains("\"processes\":2"), "{trace_body}");
    assert!(trace_body.contains("\"unmatchedSends\":0"), "{trace_body}");
    assert!(trace_body.contains("\"unmatchedRecvs\":0"), "{trace_body}");
    let stitched: u64 = trace_body
        .split("\"stitched\":")
        .nth(1)
        .and_then(|s| s.split([',', '}']).next())
        .and_then(|s| s.parse().ok())
        .expect("stitched count present");
    assert!(
        stitched > 0,
        "no cross-process edges stitched:\n{trace_body}"
    );

    // Merged critical-path profile: category attribution sums to the
    // end-to-end total within 5% (the PR 3 invariant, now cross-process).
    let doc = Json::parse(&std::fs::read_to_string(&profile).unwrap()).unwrap();
    let totals = doc.get("totals").expect("profile totals");
    let num = |key: &str| totals.get(key).and_then(Json::as_f64).unwrap();
    let e2e = num("end_to_end_us");
    let attributed = num("schedule_us") + num("shm_us") + num("rdma_us") + num("wait_us");
    assert!(e2e > 0.0, "empty merged profile: {doc:?}");
    assert!(
        (attributed - e2e).abs() <= 0.05 * e2e,
        "attribution {attributed} us vs end-to-end {e2e} us drifts past 5%"
    );

    std::fs::remove_file(trace).unwrap();
    std::fs::remove_file(profile).unwrap();
}

/// Run the distrib workflow in-process (hub + 2 joiner threads, the
/// same shape `launch --p2p` spawns) with a chaos plan that
/// drops telemetry frames on the joiners' wire at `rate`.
fn run_with_telemetry_faults(seed: u64, rate: f64) -> DistribOutcome {
    let dag = std::fs::read_to_string(workflow_path("distrib.dag")).unwrap();
    let cfg = std::fs::read_to_string(workflow_path("distrib.cfg")).unwrap();
    let scenario = build_scenario(&dag, &cfg).unwrap();
    let spec = FaultSpec::none().with_rate(FaultKind::NetTelemetry, rate);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let mut joiners = Vec::new();
    for node in 0..2u32 {
        let addr = addr.clone();
        let sc = scenario.clone();
        let injector = FaultInjector::new(Arc::new(FaultPlan::new(seed, spec)));
        joiners.push(std::thread::spawn(move || {
            join(
                &addr,
                node,
                move |_, _| Ok(sc),
                &JoinOptions {
                    timeout: Duration::from_secs(30),
                    injector,
                    recorder: Recorder::enabled(),
                    flight: FlightRecorder::enabled(),
                    shm: true,
                },
            )
        }));
    }
    let outcome = serve(
        &listener,
        &dag,
        &cfg,
        &scenario,
        &ServeOptions {
            strategy: MappingStrategy::RoundRobin,
            timeout: Duration::from_secs(30),
            p2p: true,
            ..ServeOptions::default()
        },
    )
    .expect("telemetry loss must never fail the run");
    for j in joiners {
        j.join().unwrap().expect("joiner must complete");
    }
    outcome
}

/// Chaos: every telemetry batch dropped on the wire. The run itself
/// must finish clean — telemetry is best-effort — and the merge must
/// degrade to "incomplete" with a warning, never hang or corrupt.
#[test]
fn telemetry_loss_degrades_to_per_process_traces() {
    let outcome = run_with_telemetry_faults(7, 1.0);
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    assert_eq!(outcome.verify_failures, 0);
    assert!(outcome.gets > 0, "run must have executed real work");
    assert_eq!(outcome.telemetry.len(), 2, "lost nodes still appear");
    for t in &outcome.telemetry {
        assert!(
            !t.complete,
            "node {} lost every batch, must report incomplete",
            t.node
        );
    }
    let merged = merge_traces(outcome.telemetry);
    let mut incomplete = merged.incomplete.clone();
    incomplete.sort_unstable();
    assert_eq!(incomplete, vec![0, 1]);
    assert_eq!(merged.stitched, 0, "nothing arrived, nothing to stitch");
    assert_eq!(merged.unmatched_sends, 0, "no phantom sends");
    assert_eq!(merged.unmatched_recvs, 0, "no phantom recvs");
    let warnings = merged.warnings();
    assert!(
        warnings.iter().any(|w| w.contains("incomplete")),
        "merge must warn about the degraded trace: {warnings:?}"
    );
}

/// The chaos plan is a pure function of (seed, site): two runs with
/// the same seed must drop the same telemetry batches and degrade the
/// same nodes.
#[test]
fn telemetry_loss_replays_bit_for_bit() {
    let fates = |o: &DistribOutcome| {
        o.telemetry
            .iter()
            .map(|t| (t.node, t.complete))
            .collect::<Vec<_>>()
    };
    let a = run_with_telemetry_faults(1234, 0.5);
    let b = run_with_telemetry_faults(1234, 0.5);
    assert_eq!(fates(&a), fates(&b), "same seed, same dropped batches");
    let mut ia = merge_traces(a.telemetry).incomplete;
    let mut ib = merge_traces(b.telemetry).incomplete;
    ia.sort_unstable();
    ib.sort_unstable();
    assert_eq!(ia, ib, "degraded node set must replay bit-for-bit");
}
