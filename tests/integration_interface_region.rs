//! Interface-region coupling (Fig. 1's climate case): only the overlap
//! region between the models is exchanged, not the full domain — e.g. the
//! boundary layer between atmosphere and ocean.

use insitu::{run_modeled, run_threaded, CouplingSpec, MappingStrategy, Scenario};
use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{Locality, TrafficClass};
use insitu_workflow::{AppSpec, WorkflowSpec};

fn blocked(domain: &[u64], grid: &[u64]) -> Decomposition {
    Decomposition::new(
        BoundingBox::from_sizes(domain),
        ProcessGrid::new(grid),
        Distribution::Blocked,
    )
}

/// Atmosphere over a 16^3 domain feeds the ocean model, but only through
/// the z = [0, 1] boundary slab.
fn interface_scenario(concurrent: bool) -> Scenario {
    let domain = [16u64, 16, 16];
    let slab = BoundingBox::new(&[0, 0, 0], &[15, 15, 1]);
    let apps = vec![
        AppSpec::new(1, "atm", 8).with_decomposition(blocked(&domain, &[2, 2, 2])),
        AppSpec::new(2, "ocean", 8).with_decomposition(blocked(&domain, &[4, 2, 1])),
    ];
    let workflow = if concurrent {
        WorkflowSpec {
            apps,
            edges: vec![],
            bundles: vec![vec![1, 2]],
        }
    } else {
        WorkflowSpec {
            apps,
            edges: vec![(1, 2)],
            bundles: vec![],
        }
    };
    Scenario {
        name: "interface coupling".into(),
        cores_per_node: 4,
        workflow,
        couplings: vec![CouplingSpec {
            var: "boundary_flux".into(),
            producer_app: 1,
            consumer_apps: vec![2],
            concurrent,
            region: Some(slab),
        }],
        subscriptions: vec![],
        halo: 1,
        elem_bytes: 8,
        iterations: 1,
    }
}

#[test]
fn only_the_interface_region_moves() {
    for concurrent in [true, false] {
        let s = interface_scenario(concurrent);
        let o = run_threaded(&s, MappingStrategy::DataCentric);
        assert_eq!(o.verify_failures, 0, "concurrent={concurrent}");
        // Exactly the slab volume: 16 x 16 x 2 cells x 8 B.
        assert_eq!(
            o.ledger.total_bytes(TrafficClass::InterApp),
            16 * 16 * 2 * 8,
            "concurrent={concurrent}"
        );
        // Only consumer tasks whose region touches the slab issued gets:
        // ocean grid [4,2,1] -> all 8 tasks own z in [0,16) so all touch.
        assert_eq!(o.reports.len(), 8);
    }
}

#[test]
fn tasks_outside_the_interface_do_not_couple() {
    // Ocean grid [1, 1, 8]: only the z-lowest task touches the slab.
    let domain = [16u64, 16, 16];
    let slab = BoundingBox::new(&[0, 0, 0], &[15, 15, 1]);
    let apps = vec![
        AppSpec::new(1, "atm", 8).with_decomposition(blocked(&domain, &[2, 2, 2])),
        AppSpec::new(2, "ocean", 8).with_decomposition(blocked(&domain, &[1, 1, 8])),
    ];
    let s = Scenario {
        name: "sparse interface".into(),
        cores_per_node: 4,
        workflow: WorkflowSpec {
            apps,
            edges: vec![],
            bundles: vec![vec![1, 2]],
        },
        couplings: vec![CouplingSpec {
            var: "flux".into(),
            producer_app: 1,
            consumer_apps: vec![2],
            concurrent: true,
            region: Some(slab),
        }],
        subscriptions: vec![],
        halo: 1,
        elem_bytes: 8,
        iterations: 1,
    };
    let o = run_threaded(&s, MappingStrategy::DataCentric);
    assert_eq!(o.verify_failures, 0);
    // Only ocean rank 0 (z = 0..1) touches the slab.
    assert_eq!(o.reports.len(), 1);
    assert_eq!(
        o.ledger.total_bytes(TrafficClass::InterApp),
        16 * 16 * 2 * 8
    );
}

#[test]
fn interface_region_modeled_threaded_equivalence() {
    for concurrent in [true, false] {
        let s = interface_scenario(concurrent);
        for strategy in [MappingStrategy::RoundRobin, MappingStrategy::DataCentric] {
            let m = run_modeled(&s, strategy);
            let t = run_threaded(&s, strategy);
            assert_eq!(t.verify_failures, 0);
            for class in [TrafficClass::InterApp, TrafficClass::IntraApp] {
                for loc in [Locality::SharedMemory, Locality::Network] {
                    for app in [1u32, 2] {
                        assert_eq!(
                            m.ledger.app_bytes(app, class, loc),
                            t.ledger.app_bytes(app, class, loc),
                            "concurrent={concurrent} {strategy:?} app {app} {class:?} {loc:?}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn data_centric_favors_interface_locality() {
    let s = interface_scenario(false);
    let rr = run_threaded(&s, MappingStrategy::RoundRobin);
    let dc = run_threaded(&s, MappingStrategy::DataCentric);
    assert!(
        dc.ledger.network_bytes(TrafficClass::InterApp)
            <= rr.ledger.network_bytes(TrafficClass::InterApp)
    );
}
