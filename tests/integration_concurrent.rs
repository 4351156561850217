//! End-to-end concurrent coupling (the paper's online-data-processing
//! scenario, CAP1 + CAP2) on the threaded executor: real threads, real
//! data movement, exact verification, and the paper's qualitative result
//! (data-centric mapping slashes network-coupled bytes).

use insitu::{
    concurrent_scenario, pattern_pairs, run_threaded, run_threaded_configured, MappingStrategy,
    Scenario, ThreadedConfig,
};
use insitu_fabric::{ClientId, FaultHooks, FaultInjector, TrafficClass};
use insitu_telemetry::Recorder;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn small_cap(pattern_idx: usize) -> Scenario {
    // 16 producer tasks -> 8 consumer tasks, 6^3 regions, 4-core nodes.
    let mut s = concurrent_scenario(16, 8, 6, pattern_pairs(&[3, 3, 3])[pattern_idx]);
    s.cores_per_node = 4;
    s
}

#[test]
fn concurrent_coupling_moves_exact_data() {
    let s = small_cap(0);
    let o = run_threaded(&s, MappingStrategy::DataCentric);
    assert_eq!(o.verify_failures, 0, "retrieved data corrupted");
    // The whole shared domain is redistributed once.
    let domain_bytes = s.decomposition(1).domain().num_cells() as u64 * 8;
    assert_eq!(o.ledger.total_bytes(TrafficClass::InterApp), domain_bytes);
    // Concurrent coupling never touches the DHT.
    assert_eq!(o.ledger.total_bytes(TrafficClass::Dht), 0);
}

#[test]
fn data_centric_beats_round_robin_on_network_bytes() {
    let s = small_cap(0); // matched blocked/blocked
    let rr = run_threaded(&s, MappingStrategy::RoundRobin);
    let dc = run_threaded(&s, MappingStrategy::DataCentric);
    assert_eq!(rr.verify_failures + dc.verify_failures, 0);
    let rr_net = rr.ledger.network_bytes(TrafficClass::InterApp);
    let dc_net = dc.ledger.network_bytes(TrafficClass::InterApp);
    assert!(
        (dc_net as f64) < 0.5 * rr_net as f64,
        "expected a large reduction: rr={rr_net} dc={dc_net}"
    );
    // Totals identical: mapping only changes locality, never volume.
    assert_eq!(
        rr.ledger.total_bytes(TrafficClass::InterApp),
        dc.ledger.total_bytes(TrafficClass::InterApp)
    );
}

#[test]
fn mismatched_distributions_erode_the_benefit() {
    let matched = small_cap(0);
    let mismatched = small_cap(4); // blocked producer, cyclic consumer
    let reduction = |s: &Scenario| {
        let rr = run_threaded(s, MappingStrategy::RoundRobin);
        let dc = run_threaded(s, MappingStrategy::DataCentric);
        assert_eq!(rr.verify_failures + dc.verify_failures, 0);
        1.0 - dc.ledger.network_bytes(TrafficClass::InterApp) as f64
            / rr.ledger.network_bytes(TrafficClass::InterApp) as f64
    };
    let r_matched = reduction(&matched);
    let r_mismatched = reduction(&mismatched);
    assert!(
        r_matched > r_mismatched,
        "matched {r_matched:.2} should beat mismatched {r_mismatched:.2}"
    );
}

#[test]
fn consumer_intra_app_traffic_grows_under_data_centric() {
    // The Fig. 12 trade-off: CAP2's tasks scatter to follow data. Use a
    // coupling-dominant configuration (the paper's regime, §V.B: the
    // benefit "depends on the ratio of inter-application data transfer
    // size to intra-application exchange size").
    let mut s = concurrent_scenario(16, 8, 12, pattern_pairs(&[3, 3, 3])[0]);
    s.cores_per_node = 4;
    s.halo = 1;
    let rr = run_threaded(&s, MappingStrategy::RoundRobin);
    let dc = run_threaded(&s, MappingStrategy::DataCentric);
    let net = |o: &insitu::ThreadedOutcome, app| {
        o.ledger.app_bytes(
            app,
            TrafficClass::IntraApp,
            insitu_fabric::Locality::Network,
        )
    };
    assert!(
        net(&dc, 2) >= net(&rr, 2),
        "dc {} < rr {}",
        net(&dc, 2),
        net(&rr, 2)
    );
    // ...but the coupling reduction dominates total network traffic.
    assert!(dc.ledger.network_total() < rr.ledger.network_total());
}

#[test]
fn every_consumer_task_reports_a_get() {
    let s = small_cap(0);
    let o = run_threaded(&s, MappingStrategy::DataCentric);
    let per_task_bytes = s.decomposition(2).rank_cells(0) as u64 * 8;
    let consumer_reports: Vec<_> = o.reports.iter().filter(|(app, _, _)| *app == 2).collect();
    assert_eq!(consumer_reports.len(), 8);
    for (_, _, r) in consumer_reports {
        assert!(r.ops > 0);
        assert_eq!(r.shm_bytes + r.net_bytes, per_task_bytes);
    }
}

#[test]
fn node_cyclic_ablation_runs_clean() {
    let s = small_cap(1); // block-cyclic/block-cyclic
    let o = run_threaded(&s, MappingStrategy::NodeCyclic);
    assert_eq!(o.verify_failures, 0);
}

/// 8 producer ranks, 4 consumers, 12 versions of a 12^3 variable on
/// 4-core nodes.
fn windowed_cap() -> Scenario {
    let mut s = concurrent_scenario(8, 4, 6, pattern_pairs(&[3, 3, 3])[0]);
    s.cores_per_node = 4;
    s.iterations = 12;
    s
}

#[test]
fn every_producer_rank_honours_the_two_version_window() {
    let s = windowed_cap();
    let version_bytes = s.decomposition(1).domain().num_cells() as u64 * 8;
    for strategy in [MappingStrategy::RoundRobin, MappingStrategy::DataCentric] {
        let recorder = Recorder::enabled();
        let o = run_threaded_configured(&s, strategy, &recorder, &ThreadedConfig::default());
        assert_eq!(o.verify_failures, 0);
        assert!(o.errors.is_empty(), "{:?}", o.errors);
        // The gauge is fed `CodsSpace::staging_peak()`. No rank stages
        // v+1 before v-1 is consumed, and by the time v is consumed rank
        // 0 has evicted v-2: at most 4 of a rank's 12 pieces are ever
        // staged, so a node's (at most 4 of 8) ranks stay within two
        // whole versions.
        let peak = recorder.gauge("cods.staging_bytes").peak();
        assert!(peak <= 2 * version_bytes, "{strategy:?}: peak {peak} B");
    }
}

#[test]
fn producers_outlive_a_consumer_that_errors_out() {
    // Version 0 of the piece client 3 produces is never staged: the
    // consumers that need it time out and abandon the coupling, so no
    // version is ever fully consumed. Each producer rank must give its
    // window wait up after `get_timeout` and finish — 11 waits, not a hang.
    struct DeadClient3;
    impl FaultHooks for DeadClient3 {
        fn dead_producer(&self, _: u64, version: u64, owner: ClientId, _: u64) -> bool {
            version == 0 && owner == 3
        }
    }
    let cfg = ThreadedConfig {
        get_timeout: Duration::from_millis(40),
        injector: FaultInjector::new(Arc::new(DeadClient3)),
        ..Default::default()
    };
    let (s, start) = (windowed_cap(), Instant::now());
    let o = run_threaded_configured(&s, MappingStrategy::RoundRobin, &Recorder::disabled(), &cfg);
    assert!(
        !o.errors.is_empty() && o.errors.iter().all(|e| e.0 == 2),
        "{:?}",
        o.errors
    );
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "took {:?}",
        start.elapsed()
    );
}
