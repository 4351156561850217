//! The service's RPC port adds no thread per client: every connection
//! lives on the port's one reactor. By counts read from
//! `/proc/self/task`, so this file holds exactly one test — it owns the
//! process.
#![cfg(target_os = "linux")]

use insitu::{concurrent_scenario, pattern_pairs};
use insitu_svc::{RpcClient, Service, SvcConfig};
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

#[test]
fn idle_rpc_connections_add_no_threads() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let cfg = SvcConfig {
        max_runs: 1,
        pool_nodes: 2,
        ..SvcConfig::default()
    };
    let build = Arc::new(|_: &str, _: &str| {
        let mut s = concurrent_scenario(4, 4, 4, pattern_pairs(&[2, 2, 1])[0]);
        s.cores_per_node = 4;
        Ok(s)
    });
    let svc = Service::start(listener, cfg, build).unwrap();
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
        counts.iter().all(|&(_, n)| n == counts[0].1),
        "threads by open connections: {counts:?}"
    );
    drop(clients);
    svc.shutdown();
}
