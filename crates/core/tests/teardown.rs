//! A run gives back what it took: after `join` returns, nothing it
//! built — link, reactor waker, segment mappings, registry buffers —
//! is left in the process. Asserted by counts read from `/proc/self`,
//! so this file holds exactly one test: it owns the process, and no
//! sibling test opens a socket or maps a segment under it.
#![cfg(target_os = "linux")]

use insitu::{
    join, pattern_pairs, sequential_scenario_with_grids, serve, JoinOptions, MappingStrategy,
    Scenario, ServeOptions,
};
use insitu_telemetry::Recorder;
use std::net::TcpListener;

/// RoundRobin placement of this scenario lands the consumers' gets away
/// from the staged pieces, so every run pulls across nodes — and, both
/// joiners sharing this host, through `/dev/shm` segments.
fn cross_node_scenario() -> Scenario {
    let mut s = sequential_scenario_with_grids(
        &[2, 2, 1],
        &[2, 1, 1],
        &[1, 2, 1],
        4,
        pattern_pairs(&[2, 2, 1])[0],
    );
    s.cores_per_node = 2;
    s
}

/// One in-process distributed run: `serve` on this thread, one `join`
/// thread per node, all of them returned before this does.
/// Returns the run's `net.shm_frames`.
fn run_once(scenario: &Scenario, p2p: bool) -> u64 {
    let recorder = Recorder::enabled();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let joiners: Vec<_> = (0..2)
        .map(|node| {
            let (addr, s, recorder) = (addr.clone(), scenario.clone(), recorder.clone());
            std::thread::spawn(move || {
                let opts = JoinOptions {
                    recorder,
                    shm: true,
                    ..JoinOptions::default()
                };
                join(&addr, node, move |_, _| Ok(s), &opts)
            })
        })
        .collect();
    let opts = ServeOptions {
        strategy: MappingStrategy::RoundRobin,
        recorder: recorder.clone(),
        p2p,
        shm: true,
        ..ServeOptions::default()
    };
    let outcome = serve(&listener, "", "", scenario, &opts).unwrap();
    assert_eq!(outcome.verify_failures, 0);
    assert!(outcome.errors.is_empty(), "{:?}", outcome.errors);
    for j in joiners {
        j.join().unwrap().unwrap();
    }
    recorder.metrics_snapshot().counter("net.shm_frames")
}

/// `(open fds, /proc/self/maps lines naming a segment)`.
fn census() -> (usize, usize) {
    let fds = std::fs::read_dir("/proc/self/fd").unwrap().count();
    let maps = std::fs::read_to_string("/proc/self/maps").unwrap();
    (fds, maps.lines().filter(|l| l.contains("insitu-")).count())
}

#[test]
fn back_to_back_distributed_runs_leave_no_fd_and_no_mapping_behind() {
    let scenario = cross_node_scenario();
    // Two runs, one per routing, pay every one-time cost (lazy statics,
    // allocator arenas); what the process holds after them is the floor.
    for p2p in [false, true] {
        assert!(run_once(&scenario, p2p) > 0, "the runs must ride shm");
    }
    let floor = census();
    assert_eq!(floor.1, 0, "a segment is still mapped with no run alive");
    for run in 3..=8 {
        run_once(&scenario, run % 2 == 0);
        assert_eq!(
            census(),
            floor,
            "(fds, segment mappings) after run {run} vs after run 2"
        );
    }
}
