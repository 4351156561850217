//! The service's footprint does not grow with the runs it has served:
//! pooled workers hand every run's link, mappings and fds back, engine
//! threads are reaped, and a terminal run keeps three artifacts. By
//! counts read from `/proc/self`, so this file holds exactly one test —
//! it owns the process.
#![cfg(target_os = "linux")]

use insitu::{concurrent_scenario, pattern_pairs};
use insitu_net::RunState;
use insitu_svc::{RpcClient, Service, SvcConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the process holds: exact counts of what the service itself
/// opens and maps, and the total number of mappings.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Census {
    fds: usize,
    /// `/proc/self/maps` lines naming a `/dev/shm/insitu-*` segment.
    segments: usize,
    /// All `/proc/self/maps` lines: thread stacks and allocator arenas
    /// included, which glibc caches by its own rules.
    map_lines: usize,
}

fn census() -> Census {
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    Census {
        fds: std::fs::read_dir("/proc/self/fd").unwrap().count(),
        segments: maps.lines().filter(|l| l.contains("insitu-")).count(),
        map_lines: maps.lines().count(),
    }
}

/// How far the total mapping count may sit above its earlier reading.
/// glibc keeps exited threads' stacks and per-thread arenas cached, as
/// many as the peak number of threads alive at once — a scheduling
/// accident worth a few lines either way (± 2 seen under load). The
/// leak this guards against was 5 lines per run: 100 over these 20.
const MAP_LINE_JITTER: usize = 16;

fn same_footprint(now: Census, then: Census) -> bool {
    (now.fds, now.segments) == (then.fds, then.segments)
        && now.map_lines <= then.map_lines + MAP_LINE_JITTER
}

/// The census once it matches `then`, or after the deadline whatever it
/// reads. A terminal `status` is the engine's last store, made before
/// its thread and the pooled workers' `join` calls have quite returned;
/// idle is reached a moment later, and that moment is why this polls.
fn census_settling_to(then: Census) -> Census {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let now = census();
        if same_footprint(now, then) || Instant::now() >= deadline {
            return now;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Submit runs one at a time, each to completion, up to run id `last`.
fn run_to(client: &mut RpcClient, last: u64) {
    loop {
        let (run, _) = client
            .submit_with_priority("tiny", "ok", "", "round-robin", Duration::from_secs(60), 0)
            .unwrap();
        let s = client.wait_terminal(run, Duration::from_secs(120)).unwrap();
        assert_eq!(s.state, RunState::Done, "run {run}: {}", s.detail);
        if run == last {
            return;
        }
    }
}

#[test]
fn thirty_runs_leave_the_service_no_bigger_than_ten() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let cfg = SvcConfig {
        max_runs: 2,
        pool_nodes: 2,
        ..SvcConfig::default()
    };
    // 4 producers + 4 consumers at 4 cores a node: two joiners, and
    // under round-robin every get crosses between them over `/dev/shm`.
    let build = Arc::new(|_: &str, _: &str| {
        let mut s = concurrent_scenario(4, 4, 4, pattern_pairs(&[2, 2, 1])[0]).with_iterations(2);
        s.cores_per_node = 4;
        Ok(s)
    });
    let svc = Service::start(listener, cfg, build).unwrap();
    let mut client =
        RpcClient::connect(&svc.local_addr().to_string(), Duration::from_secs(10)).unwrap();

    run_to(&mut client, 1);
    let first = client.result(1).unwrap();
    assert!(first.metrics_json.contains("\"net.shm_frames\":"));
    assert!(!first.metrics_json.contains("\"net.shm_frames\":0"));

    run_to(&mut client, 10);
    std::thread::sleep(Duration::from_millis(200));
    let at_ten = census();
    assert_eq!(at_ten.segments, 0, "idle, yet a segment is still mapped");

    run_to(&mut client, 30);
    let at_thirty = census_settling_to(at_ten);
    assert!(
        same_footprint(at_thirty, at_ten),
        "after run 30: {at_thirty:?}, after run 10: {at_ten:?}"
    );

    // Serving 29 more runs cost run 1 nothing it is still asked for.
    let again = client.result(1).unwrap();
    assert_eq!(again.state, RunState::Done);
    assert_eq!(again.ledger_json, first.ledger_json);
    assert_eq!(again.metrics_json, first.metrics_json);
    assert_eq!(again.profile_json, first.profile_json);
    assert_eq!(again.errors, first.errors);
    svc.shutdown();
}
