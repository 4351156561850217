//! Integration tests for the causal flight recorder and critical-path
//! profiler: category attribution must sum to the measured end-to-end
//! iteration time on BOTH executors (the acceptance bound is 5%), and
//! every consumer pull must have a chrome-trace flow pair back to its
//! producer put. The byte-for-byte modeled regression check and its
//! chaos link-fault case are the CLI crate's `integration_gate` test.

use insitu::{
    concurrent_scenario, pattern_pairs, run_modeled_configured, run_threaded_configured,
    sequential_scenario, MappingStrategy, ModeledConfig, ThreadedConfig,
};
use insitu_obs::{chrome_trace_with_flows, EventKind, FlightRecorder, ProfileReport};
use insitu_telemetry::{Json, Recorder};

fn two_app_cont() -> insitu::Scenario {
    // The two-app `*_cont` coupling the CI example also runs.
    let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]).with_iterations(3);
    s.cores_per_node = 4;
    s
}

fn run_threaded_flight(s: &insitu::Scenario) -> FlightRecorder {
    let flight = FlightRecorder::enabled();
    let cfg = ThreadedConfig {
        flight: flight.clone(),
        ..Default::default()
    };
    let o = run_threaded_configured(s, MappingStrategy::DataCentric, &Recorder::disabled(), &cfg);
    assert_eq!(o.verify_failures, 0);
    flight
}

#[test]
fn threaded_categories_sum_within_five_percent() {
    let s = two_app_cont();
    let flight = run_threaded_flight(&s);
    let report = ProfileReport::analyze(&flight.snapshot(), flight.dropped());
    assert_eq!(report.dropped, 0);
    assert_eq!(report.iterations.len(), 3, "one profile per version");
    for it in &report.iterations {
        let cov = it.coverage();
        assert!(
            (cov - 1.0).abs() <= 0.05,
            "version {}: categories cover {:.1}% of end-to-end ({:?} vs {} us)",
            it.version,
            cov * 100.0,
            it.breakdown,
            it.end_to_end_us
        );
    }
}

#[test]
fn modeled_categories_sum_exactly() {
    let mut s = sequential_scenario(16, 8, 8, 8, pattern_pairs(&[4, 4, 4])[0]).with_iterations(2);
    s.cores_per_node = 4;
    let flight = FlightRecorder::enabled();
    let cfg = ModeledConfig {
        flight: flight.clone(),
        ..Default::default()
    };
    run_modeled_configured(
        &s,
        MappingStrategy::DataCentric,
        &Recorder::disabled(),
        &cfg,
    );
    let report = ProfileReport::analyze(&flight.snapshot(), flight.dropped());
    assert_eq!(report.iterations.len(), 2);
    for it in &report.iterations {
        // The synthetic layout makes attribution exact, not just within 5%.
        assert!(
            (it.coverage() - 1.0).abs() < 1e-9,
            "version {}: {:?} vs {}",
            it.version,
            it.breakdown,
            it.end_to_end_us
        );
        assert_eq!(it.breakdown.wait_us, 0.0, "model has no queueing wait");
    }
    // The cold iteration pays the DHT schedule query; warm ones replay
    // the cached schedule, exactly as the threaded executor does.
    assert!(report.iterations[0].breakdown.schedule_us > 0.0);
    assert_eq!(report.iterations[1].breakdown.schedule_us, 0.0);
}

#[test]
fn every_pull_has_a_flow_pair_to_its_put() {
    let s = two_app_cont();
    let flight = run_threaded_flight(&s);
    let events = flight.snapshot();
    let pulls = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Pull { .. }))
        .count();
    assert!(pulls > 0);

    // Round-trip the rendered chrome trace through the JSON parser and
    // check the flow arrows pair up producer put -> consumer pull.
    let doc = chrome_trace_with_flows(&events, flight.dropped());
    let parsed = Json::parse(&doc.render()).expect("chrome trace parses");
    let trace = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
    let ids = |ph: &str| -> Vec<u64> {
        let mut v: Vec<u64> = trace
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .map(|e| e.get("id").and_then(Json::as_u64).unwrap())
            .collect();
        v.sort_unstable();
        v
    };
    let starts = ids("s");
    let finishes = ids("f");
    assert_eq!(starts, finishes, "every flow start has a finish");
    assert_eq!(
        starts.len(),
        pulls,
        "every consumer pull is connected to its producer put"
    );
    // Flow ids are the pull event seqs — each appears exactly once.
    let mut dedup = starts.clone();
    dedup.dedup();
    assert_eq!(dedup.len(), starts.len());
}

#[test]
fn threaded_and_modeled_profiles_share_schema() {
    // The same analysis must read both executors' logs: identical JSON
    // document shape, same link-class table keys.
    let s = two_app_cont();
    let flight_t = run_threaded_flight(&s);
    let flight_m = FlightRecorder::enabled();
    run_modeled_configured(
        &s,
        MappingStrategy::DataCentric,
        &Recorder::disabled(),
        &ModeledConfig {
            flight: flight_m.clone(),
            ..Default::default()
        },
    );
    for flight in [flight_t, flight_m] {
        let report = ProfileReport::analyze(&flight.snapshot(), flight.dropped());
        let json = ProfileReport::analyze(&flight.snapshot(), flight.dropped())
            .to_json()
            .render();
        let parsed = Json::parse(&json).unwrap();
        assert!(parsed.get("iterations").and_then(Json::as_arr).is_some());
        assert!(parsed.get("links").is_some());
        assert!(!report.iterations.is_empty());
    }
}
