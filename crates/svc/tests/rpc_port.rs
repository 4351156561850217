//! The service's RPC port adds no thread per client: every connection
//! lives on the port's one reactor. Nor does the node budget hold idle
//! threads: a run's joiner threads live and die with the run. By counts
//! read from `/proc/self/task`, so this file holds exactly one test — it
//! owns the process.
#![cfg(target_os = "linux")]

use insitu::{concurrent_scenario, pattern_pairs};
use insitu_net::RunState;
use insitu_svc::{RpcClient, Service, SvcConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// Wait, up to 10 s, for the thread count to come back to `idle`; a
/// thread that really stays is then caught by the caller's exact count.
fn settle(idle: usize) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while threads() != idle && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A service with a node budget of `pool_nodes` whose every run is two
/// nodes of the same scenario.
fn start(pool_nodes: u32) -> Service {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let cfg = SvcConfig {
        max_runs: 1,
        pool_nodes,
        ..SvcConfig::default()
    };
    let build = Arc::new(|_: &str, _: &str| {
        let mut s = concurrent_scenario(4, 4, 4, pattern_pairs(&[2, 2, 1])[0]);
        s.cores_per_node = 4;
        Ok(s)
    });
    Service::start(listener, cfg, build).unwrap()
}

#[test]
fn idle_rpc_connections_add_no_threads() {
    let svc = start(2);
    let idle = threads();
    let addr = svc.local_addr().to_string();
    let mut clients: Vec<RpcClient> = Vec::new();
    let mut counts = Vec::new();
    for k in [1, 16, 64] {
        while clients.len() < k {
            clients.push(RpcClient::connect(&addr, Duration::from_secs(10)).unwrap());
        }
        // An answer on every connection: each one is adopted, and idle.
        for client in &mut clients {
            assert!(client.list().unwrap().is_empty());
        }
        counts.push((k, threads()));
    }
    assert!(
        counts.iter().all(|&(_, n)| n == idle),
        "threads by open connections: {counts:?}, idle {idle}"
    );

    // One completed run: its engine and joiner threads end with it. The
    // terminal state is recorded before the joiners are joined, so the
    // count settles a moment later.
    let (run, _) = clients[0]
        .submit_with_priority("one", "ok", "", "round-robin", Duration::from_secs(60), 0)
        .unwrap();
    let s = clients[0]
        .wait_terminal(run, Duration::from_secs(120))
        .unwrap();
    assert_eq!(s.state, RunState::Done, "{}", s.detail);
    settle(idle);
    assert_eq!(threads(), idle, "threads after one completed run");
    drop(clients);
    svc.shutdown();

    // A budget of 64 nodes holds no more threads than one of 2. The
    // threads `shutdown` joined can outlive the join in /proc/self/task
    // for a moment while the kernel reaps them.
    let wide = start(64);
    settle(idle);
    assert_eq!(threads(), idle, "idle threads at pool_nodes 64 vs 2");
    wide.shutdown();
}
