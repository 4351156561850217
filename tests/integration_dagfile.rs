//! From DAG description file to executed workflow: parse the paper's
//! Listing-1 files, attach task counts and decompositions, and run the
//! resulting workflows end to end.

use insitu::{run_threaded, CouplingSpec, MappingStrategy, Scenario};
use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_workflow::{parse_dag, CLIMATE_MODELING_DAG, ONLINE_PROCESSING_DAG};

fn blocked(domain: &[u64], grid: &[u64]) -> Decomposition {
    Decomposition::new(
        BoundingBox::from_sizes(domain),
        ProcessGrid::new(grid),
        Distribution::Blocked,
    )
}

#[test]
fn online_processing_dag_runs() {
    let mut wf = parse_dag(ONLINE_PROCESSING_DAG).unwrap();
    // Attach workload configuration (not part of the file format).
    for app in &mut wf.apps {
        match app.id {
            1 => {
                app.ntasks = 8;
                app.decomposition = Some(blocked(&[8, 8, 8], &[2, 2, 2]));
            }
            2 => {
                app.ntasks = 4;
                app.decomposition = Some(blocked(&[8, 8, 8], &[4, 1, 1]));
            }
            _ => unreachable!(),
        }
    }
    let scenario = Scenario {
        name: "online processing from DAG file".into(),
        cores_per_node: 4,
        workflow: wf,
        couplings: vec![CouplingSpec {
            var: "sim_output".into(),
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
    let o = run_threaded(&scenario, MappingStrategy::DataCentric);
    assert_eq!(o.verify_failures, 0);
    assert_eq!(o.reports.len(), 4);
}

#[test]
fn climate_dag_runs_with_two_consumer_models() {
    let mut wf = parse_dag(CLIMATE_MODELING_DAG).unwrap();
    for app in &mut wf.apps {
        match app.id {
            1 => {
                app.ntasks = 8;
                app.decomposition = Some(blocked(&[8, 8, 8], &[2, 2, 2]));
            }
            2 => {
                app.ntasks = 4;
                app.decomposition = Some(blocked(&[8, 8, 8], &[2, 2, 1]));
            }
            3 => {
                app.ntasks = 4;
                app.decomposition = Some(blocked(&[8, 8, 8], &[1, 2, 2]));
            }
            _ => unreachable!(),
        }
    }
    let scenario = Scenario {
        name: "climate modeling from DAG file".into(),
        cores_per_node: 4,
        workflow: wf,
        couplings: vec![CouplingSpec {
            var: "atmosphere_boundary".into(),
            producer_app: 1,
            consumer_apps: vec![2, 3],
            concurrent: false,
            region: None,
        }],
        subscriptions: vec![],
        halo: 1,
        elem_bytes: 8,
        iterations: 1,
    };
    // The engine must schedule atmosphere first, then land + sea-ice.
    let waves = scenario.workflow.bundle_waves().unwrap();
    assert_eq!(waves.len(), 2);
    assert_eq!(waves[0], vec![vec![1]]);
    assert_eq!(waves[1].len(), 2);

    let o = run_threaded(&scenario, MappingStrategy::DataCentric);
    assert_eq!(o.verify_failures, 0);
    // Land and sea-ice each did 4 gets.
    assert_eq!(o.reports.iter().filter(|(a, _, _)| *a == 2).count(), 4);
    assert_eq!(o.reports.iter().filter(|(a, _, _)| *a == 3).count(), 4);
}

#[test]
fn malformed_dag_is_rejected_with_line_info() {
    let err = parse_dag("APP_ID 1\nPARENT_APPID 1\n").unwrap_err();
    assert_eq!(err.line, 2);
}

// Golden-file fixtures: structurally well-formed DAG files the validator
// must reject, with the exact user-facing message pinned so error-path
// regressions show up as test diffs.

#[test]
fn cyclic_dag_fixture_fails_validation_with_exact_message() {
    let wf = parse_dag(include_str!("../workflows/cyclic.dag"))
        .expect("the cycle is a semantic error, not a parse error");
    let err = wf.validate().unwrap_err();
    assert_eq!(err.to_string(), "workflow DAG has a cycle");
    // The wave scheduler refuses it too — the error is caught before any
    // execution machinery spins up.
    assert!(wf.bundle_waves().is_err());
}

#[test]
fn undeclared_bundle_member_fixture_fails_validation_with_exact_message() {
    let wf = parse_dag(include_str!("../workflows/unknown-bundle.dag"))
        .expect("the undeclared member is a semantic error, not a parse error");
    let err = wf.validate().unwrap_err();
    assert_eq!(err.to_string(), "unknown app id 4");
}
