//! The modeled regression check: the modeled executor is deterministic,
//! so `insitu profile --modeled --json` of `workflows/online.dag` must
//! reproduce the checked-in `workflows/baseline_online.json` byte for
//! byte, and the same profile must grow once the chaos `link-slow` fault
//! spec degrades the torus (each hit link is slowed 2-8x).

use std::path::PathBuf;

use insitu::{map_scenario, run_modeled_configured, MappingStrategy, ModeledConfig};
use insitu_chaos::{FaultPlan, FaultSpec};
use insitu_cli::{build_scenario, profile, ProfileOptions};
use insitu_obs::{FlightRecorder, ProfileReport};
use insitu_telemetry::Recorder;

fn workflow_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../workflows")
        .join(name)
}

fn workflow_file(name: &str) -> String {
    let path = workflow_path(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn gate_fails_under_chaos_link_slowdown() {
    let dag = workflow_file("online.dag");
    let config = workflow_file("online.cfg");

    // The checked-in baseline is exactly what `insitu profile
    // workflows/online.dag --config workflows/online.cfg --modeled --json`
    // prints; refresh it with that command redirected into the file.
    let current = profile(&ProfileOptions {
        dag: dag.clone(),
        config: config.clone(),
        strategy: MappingStrategy::DataCentric,
        threaded: false,
        json: true,
        trace_out: None,
    })
    .expect("modeled profile");
    let baseline = std::fs::read(workflow_path("baseline_online.json")).expect("read baseline");
    assert!(
        current.as_bytes() == baseline.as_slice(),
        "modeled profile differs from workflows/baseline_online.json:\n{current}"
    );

    // The chaos link-fault spec at rate 1.0 slows every torus link by a
    // seeded 2-8x factor; the modeled critical path must lengthen.
    let scenario = build_scenario(&dag, &config).expect("scenario");
    let end_to_end = |link_faults| {
        let flight = FlightRecorder::enabled();
        run_modeled_configured(
            &scenario,
            MappingStrategy::DataCentric,
            &Recorder::disabled(),
            &ModeledConfig {
                link_faults,
                flight: flight.clone(),
            },
        );
        ProfileReport::analyze(&flight.snapshot(), flight.dropped()).end_to_end_total_us()
    };
    let nodes = map_scenario(&scenario, MappingStrategy::DataCentric)
        .machine
        .nodes;
    let spec = FaultSpec::parse("link-slow:1.0").expect("spec parses");
    let link_faults = FaultPlan::new(42, spec).link_faults(nodes);
    assert!(!link_faults.is_empty(), "rate 1.0 degrades every link");
    let healthy = end_to_end(Default::default());
    let slowed = end_to_end(link_faults);
    assert!(
        slowed > healthy,
        "chaos link slowdown not visible: {slowed} us vs healthy {healthy} us"
    );
}
