//! Multi-stage pipelines: workflows deeper than the paper's two scenarios
//! — chains and diamonds of sequentially coupled applications, exercising
//! wave-by-wave enactment, node reuse and multiple couplings in flight.

use insitu::{run_threaded, CouplingSpec, MappingStrategy, Scenario};
use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::TrafficClass;
use insitu_workflow::{AppSpec, WorkflowSpec};

fn blocked(domain: &[u64], grid: &[u64]) -> Decomposition {
    Decomposition::new(
        BoundingBox::from_sizes(domain),
        ProcessGrid::new(grid),
        Distribution::Blocked,
    )
}

/// A -> B -> C -> D chain: each stage stages its output in CoDS for the
/// next.
fn chain_scenario() -> Scenario {
    let domain = [12u64, 12, 12];
    let apps = vec![
        AppSpec::new(1, "A", 8).with_decomposition(blocked(&domain, &[2, 2, 2])),
        AppSpec::new(2, "B", 8).with_decomposition(blocked(&domain, &[2, 2, 2])),
        AppSpec::new(3, "C", 4).with_decomposition(blocked(&domain, &[4, 1, 1])),
        AppSpec::new(4, "D", 8).with_decomposition(blocked(&domain, &[1, 2, 4])),
    ];
    let workflow = WorkflowSpec {
        apps,
        edges: vec![(1, 2), (2, 3), (3, 4)],
        bundles: vec![],
    };
    let mk = |var: &str, p: u32, c: u32| CouplingSpec {
        var: var.into(),
        producer_app: p,
        consumer_apps: vec![c],
        concurrent: false,
        region: None,
    };
    Scenario {
        name: "four-stage pipeline".into(),
        cores_per_node: 4,
        workflow,
        couplings: vec![mk("stage1", 1, 2), mk("stage2", 2, 3), mk("stage3", 3, 4)],
        subscriptions: vec![],
        halo: 1,
        elem_bytes: 8,
        iterations: 1,
    }
}

#[test]
fn four_stage_chain_executes_in_order() {
    let s = chain_scenario();
    let waves = s.workflow.bundle_waves().unwrap();
    assert_eq!(waves.len(), 4);
    let o = run_threaded(&s, MappingStrategy::DataCentric);
    assert_eq!(o.verify_failures, 0);
    // Each coupling moved the full domain once: 3 stages.
    let domain_bytes = 12u64 * 12 * 12 * 8;
    assert_eq!(
        o.ledger.total_bytes(TrafficClass::InterApp),
        3 * domain_bytes
    );
    // Gets per stage: B 8, C 4, D 8.
    assert_eq!(o.reports.len(), 20);
}

#[test]
fn chain_under_round_robin_also_correct() {
    let o = run_threaded(&chain_scenario(), MappingStrategy::RoundRobin);
    assert_eq!(o.verify_failures, 0);
}

#[test]
fn four_dimensional_domain_coupling() {
    // Time-augmented 4-D domain (x, y, z, t): the framework's MAX_DIMS
    // case, end to end through SFC indexing, DHT and redistribution.
    let domain = [6u64, 6, 6, 4];
    let apps = vec![
        AppSpec::new(1, "sim4d", 8).with_decomposition(blocked(&domain, &[2, 2, 2, 1])),
        AppSpec::new(2, "ana4d", 4).with_decomposition(blocked(&domain, &[1, 1, 1, 4])),
    ];
    let workflow = WorkflowSpec {
        apps,
        edges: vec![],
        bundles: vec![vec![1, 2]],
    };
    let s = Scenario {
        name: "4-D coupling".into(),
        cores_per_node: 4,
        workflow,
        couplings: vec![CouplingSpec {
            var: "spacetime".into(),
            producer_app: 1,
            consumer_apps: vec![2],
            concurrent: true,
            region: None,
        }],
        subscriptions: vec![],
        halo: 1,
        elem_bytes: 8,
        iterations: 1,
    };
    let o = run_threaded(&s, MappingStrategy::DataCentric);
    assert_eq!(o.verify_failures, 0);
    assert_eq!(
        o.ledger.total_bytes(TrafficClass::InterApp),
        6 * 6 * 6 * 4 * 8
    );
}

/// Diamond: A feeds B and C (concurrently), both feed D.
#[test]
fn diamond_with_concurrent_middle_wave() {
    let domain = [8u64, 8, 8];
    let apps = vec![
        AppSpec::new(1, "src", 8).with_decomposition(blocked(&domain, &[2, 2, 2])),
        AppSpec::new(2, "left", 4).with_decomposition(blocked(&domain, &[4, 1, 1])),
        AppSpec::new(3, "right", 4).with_decomposition(blocked(&domain, &[1, 4, 1])),
        AppSpec::new(4, "sink", 8).with_decomposition(blocked(&domain, &[2, 2, 2])),
    ];
    let workflow = WorkflowSpec {
        apps,
        edges: vec![(1, 2), (1, 3), (2, 4), (3, 4)],
        bundles: vec![],
    };
    let s = Scenario {
        name: "diamond".into(),
        cores_per_node: 4,
        workflow,
        couplings: vec![
            CouplingSpec {
                var: "src_out".into(),
                producer_app: 1,
                consumer_apps: vec![2, 3],
                concurrent: false,
                region: None,
            },
            CouplingSpec {
                var: "left_out".into(),
                producer_app: 2,
                consumer_apps: vec![4],
                concurrent: false,
                region: None,
            },
            CouplingSpec {
                var: "right_out".into(),
                producer_app: 3,
                consumer_apps: vec![4],
                concurrent: false,
                region: None,
            },
        ],
        subscriptions: vec![],
        halo: 1,
        elem_bytes: 8,
        iterations: 1,
    };
    // Waves: [src], [left, right], [sink].
    let waves = s.workflow.bundle_waves().unwrap();
    assert_eq!(waves.len(), 3);
    assert_eq!(waves[1].len(), 2);

    let o = run_threaded(&s, MappingStrategy::DataCentric);
    assert_eq!(o.verify_failures, 0);
    let domain_bytes = 8u64 * 8 * 8 * 8;
    // src_out read twice, left_out once, right_out once.
    assert_eq!(
        o.ledger.total_bytes(TrafficClass::InterApp),
        4 * domain_bytes
    );
    // Sink consumed two different variables, 8 gets each.
    let sink_gets = o.reports.iter().filter(|(a, _, _)| *a == 4).count();
    assert_eq!(sink_gets, 16);
}
