//! The paper's second motivating scenario: coupled climate modeling. The
//! atmosphere model runs first and stages its boundary fields in CoDS;
//! the land and sea-ice models then launch *on the same compute nodes*
//! and consume the data in-situ. The workflow is driven by the paper's
//! Listing-1 DAG description file.
//!
//! ```text
//! cargo run --release --example climate_modeling
//! ```

use insitu::{run_threaded, CouplingSpec, MappingStrategy, Scenario};
use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::TrafficClass;
use insitu_workflow::{parse_dag, CLIMATE_MODELING_DAG};

fn blocked(domain: &[u64], grid: &[u64]) -> Decomposition {
    Decomposition::new(
        BoundingBox::from_sizes(domain),
        ProcessGrid::new(grid),
        Distribution::Blocked,
    )
}

fn main() {
    println!("== Coupled climate modeling: atmosphere -> land + sea-ice ==\n");
    println!("DAG description (paper Listing 1):\n{CLIMATE_MODELING_DAG}");

    let mut workflow = parse_dag(CLIMATE_MODELING_DAG).expect("valid DAG file");
    for app in &mut workflow.apps {
        match app.id {
            1 => {
                app.name = "atmosphere".into();
                app.ntasks = 24;
                app.decomposition = Some(blocked(&[24, 24, 24], &[4, 3, 2]));
            }
            2 => {
                app.name = "land".into();
                app.ntasks = 12;
                app.decomposition = Some(blocked(&[24, 24, 24], &[3, 2, 2]));
            }
            3 => {
                app.name = "sea-ice".into();
                app.ntasks = 12;
                app.decomposition = Some(blocked(&[24, 24, 24], &[2, 3, 2]));
            }
            _ => unreachable!(),
        }
    }
    let scenario = Scenario {
        name: "climate modeling".into(),
        cores_per_node: 6,
        workflow,
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

    let waves = scenario.workflow.bundle_waves().unwrap();
    println!("execution waves: {waves:?}\n");

    for strategy in [MappingStrategy::RoundRobin, MappingStrategy::DataCentric] {
        let o = run_threaded(&scenario, strategy);
        assert_eq!(o.verify_failures, 0);
        println!("[{}]", strategy.label());
        for (app, name) in [(2u32, "land"), (3u32, "sea-ice")] {
            let gets: Vec<_> = o.reports.iter().filter(|(a, _, _)| *a == app).collect();
            let local: u64 = gets.iter().map(|(_, _, r)| r.shm_bytes).sum();
            let remote: u64 = gets.iter().map(|(_, _, r)| r.net_bytes).sum();
            println!(
                "  {name:<8} retrieved {:>8} B, {:>5.1}% in-situ from local memory",
                local + remote,
                100.0 * local as f64 / (local + remote) as f64
            );
        }
        println!(
            "  DHT query traffic: {} B, coupling over network: {} B\n",
            o.ledger.total_bytes(TrafficClass::Dht),
            o.ledger.network_bytes(TrafficClass::InterApp)
        );
    }
    println!("(cf. paper Fig. 9: client-side data-centric mapping retrieves ~90% in-situ)");
}
