//! End-to-end test of the multi-tenant workflow service: one real
//! `insitu serve` process (service mode) executes many concurrently
//! submitted runs — raw DAG/config submissions mixed with
//! workflow.toml-authored ones, all using identical variable names and
//! versions — over a shared joiner pool, and every completed run's
//! merged transfer ledger must be byte-identical to the single-process
//! baseline. Also covers mid-service cancellation (the service stays
//! healthy) and the `submit`/`status --json`/`cancel` CLI clients.

use insitu_net::RunState;
use insitu_svc::RpcClient;
use insitu_workflow::compile_workflow;
use std::io::BufRead;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
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

/// Kills the service process when the test ends (pass or panic).
struct ServiceGuard(Child);

impl Drop for ServiceGuard {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start `insitu serve` in service mode on an ephemeral port and return
/// the guard plus the address it announced on stdout.
fn start_service(artifacts: &std::path::Path) -> (ServiceGuard, String) {
    let mut child = insitu()
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--max-runs",
            "4",
            "--pool-nodes",
            "8",
            "--artifacts",
            artifacts.to_str().unwrap(),
        ])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn insitu serve");
    let stdout = child.stdout.take().unwrap();
    let mut reader = std::io::BufReader::new(stdout);
    let mut addr = None;
    let mut line = String::new();
    while reader.read_line(&mut line).unwrap_or(0) > 0 {
        if let Some(rest) = line.split("listening on ").nth(1) {
            addr = Some(rest.split_whitespace().next().unwrap().to_string());
            break;
        }
        line.clear();
    }
    // Keep draining the service's run-lifecycle chatter so a full pipe
    // never blocks it.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while reader.read_line(&mut sink).unwrap_or(0) > 0 {
            sink.clear();
        }
    });
    let addr = addr.expect("service announced its address");
    (ServiceGuard(child), addr)
}

/// The single-process baseline ledger, produced (and itself verified
/// byte-identical to `run_threaded`) by `insitu launch --ledger-out`.
fn baseline_ledger() -> String {
    let path = std::env::temp_dir().join("insitu_integration_svc_baseline.json");
    let out = insitu()
        .args([
            "launch",
            &workflow_path("distrib.dag"),
            "--config",
            &workflow_path("distrib.cfg"),
            "--timeout-ms",
            "60000",
            "--ledger-out",
            path.to_str().unwrap(),
        ])
        .output()
        .expect("spawn insitu launch");
    assert!(
        out.status.success(),
        "baseline launch failed:\n{}\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let body = std::fs::read_to_string(&path).expect("baseline ledger written");
    std::fs::remove_file(&path).unwrap();
    body.trim_end().to_string()
}

#[test]
fn service_executes_concurrent_mixed_submissions_with_identical_ledgers() {
    let artifacts = std::env::temp_dir().join("insitu_integration_svc_artifacts");
    let _ = std::fs::remove_dir_all(&artifacts);
    std::fs::create_dir_all(&artifacts).unwrap();
    let expected = baseline_ledger();
    let (_guard, addr) = start_service(&artifacts);

    let dag = std::fs::read_to_string(workflow_path("distrib.dag")).unwrap();
    let config = std::fs::read_to_string(workflow_path("distrib.cfg")).unwrap();
    let toml = std::fs::read_to_string(workflow_path("distrib.toml")).unwrap();
    // The toml defaults compile to the same workflow as the dag/cfg pair.
    let authored = compile_workflow(&toml, &[]).unwrap();

    let mut rpc = RpcClient::connect(&addr, Duration::from_secs(10)).unwrap();
    let get_timeout = Duration::from_secs(60);

    // Nine concurrent submissions of the same logical workflow — five
    // raw dag/config, four authored from workflow.toml — all with
    // identical variable names ("temperature", "pressure") and version
    // sequences, so any cross-run key collision would corrupt ledgers.
    let mut runs = Vec::new();
    for i in 0..9 {
        let (d, c, name) = if i % 2 == 0 {
            (&dag, &config, format!("plain-{i}"))
        } else {
            (&authored.dag, &authored.config, format!("toml-{i}"))
        };
        let (run, _) = rpc
            .submit_with_priority(&name, d, c, "data-centric", get_timeout, 0)
            .unwrap();
        runs.push(run);
    }
    // A tenth run is cancelled mid-service; whichever way the race
    // lands, it must terminate and leave the service healthy.
    let (victim, _) = rpc
        .submit_with_priority("victim", &dag, &config, "data-centric", get_timeout, 0)
        .unwrap();
    rpc.cancel(victim).unwrap();

    for &run in &runs {
        let s = rpc.wait_terminal(run, Duration::from_secs(300)).unwrap();
        assert_eq!(s.state, RunState::Done, "run {run}: {}", s.detail);
        assert_eq!(s.nodes, 2, "run {run}");
        let art = rpc.result(run).unwrap();
        assert!(art.errors.is_empty(), "run {run}: {:?}", art.errors);
        assert_eq!(
            art.ledger_json, expected,
            "run {run} ledger must be byte-identical to the single-process baseline"
        );
        assert!(!art.profile_json.is_empty(), "run {run}");
    }
    let s = rpc.wait_terminal(victim, Duration::from_secs(300)).unwrap();
    assert!(
        matches!(s.state, RunState::Cancelled | RunState::Done),
        "victim ended {:?}",
        s.state
    );

    // The service stayed healthy after the cancel: a fresh submission
    // still completes correctly.
    let (after, _) = rpc
        .submit_with_priority(
            "after-cancel",
            &dag,
            &config,
            "data-centric",
            get_timeout,
            0,
        )
        .unwrap();
    let s = rpc.wait_terminal(after, Duration::from_secs(300)).unwrap();
    assert_eq!(s.state, RunState::Done, "{}", s.detail);
    assert_eq!(rpc.result(after).unwrap().ledger_json, expected);

    // Per-run artifact files landed in --artifacts.
    let run1_ledger = artifacts.join("run-1.ledger.json");
    assert_eq!(
        std::fs::read_to_string(&run1_ledger).expect("run-1 ledger file"),
        expected
    );
    assert!(artifacts.join("run-1.profile.json").exists());

    // The CLI clients speak to the same service. `submit --wait` blocks
    // until Done; `status --run N --json` returns the artifacts.
    let out = insitu()
        .args([
            "submit",
            "--connect",
            &addr,
            &workflow_path("distrib.toml"),
            "--set",
            "iters=1",
            "--wait",
            "--timeout-ms",
            "300000",
        ])
        .output()
        .expect("spawn insitu submit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "submit --wait failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("submitted: run"), "{stdout}");
    assert!(stdout.contains("done"), "{stdout}");

    let out = insitu()
        .args(["status", "--connect", &addr, "--run", "1", "--json"])
        .output()
        .expect("spawn insitu status");
    assert!(out.status.success());
    let body = String::from_utf8_lossy(&out.stdout);
    for key in [
        "\"state\":\"done\"",
        "\"ledger\"",
        "\"metrics\"",
        "\"profile\"",
    ] {
        assert!(body.contains(key), "status --json missing {key}: {body}");
    }

    let out = insitu()
        .args(["status", "--connect", &addr])
        .output()
        .expect("spawn insitu status");
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success());
    assert!(
        listing.contains("plain-0") && listing.contains("toml-1"),
        "{listing}"
    );

    let _ = std::fs::remove_dir_all(&artifacts);
}

#[test]
fn submit_rejects_invalid_workflows_client_side() {
    // No service needed: local validation refuses before connecting.
    let out = insitu()
        .args([
            "submit",
            "--connect",
            "127.0.0.1:9",
            "--dag",
            &workflow_path("unknown-bundle.dag"),
            "--config",
            &workflow_path("distrib.cfg"),
        ])
        .output()
        .expect("spawn insitu submit");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("error:"), "{stderr}");
}

#[test]
fn cancel_against_dead_service_fails_cleanly() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    let out = insitu()
        .args([
            "cancel",
            "--connect",
            &addr,
            "--run",
            "1",
            "--timeout-ms",
            "300",
        ])
        .output()
        .expect("spawn insitu cancel");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(&addr), "{stderr}");
}
