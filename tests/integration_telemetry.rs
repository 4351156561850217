//! Integration tests for the telemetry subsystem: the metrics registry
//! must agree with the transfer ledger (one truth, two views), and the
//! threaded and modeled executors must produce identical transfer-count
//! and byte metrics on matched scenarios.

use insitu::{
    concurrent_scenario, pattern_pairs, run_modeled_configured, run_threaded_configured,
    sequential_scenario, MappingStrategy, ModeledConfig, ThreadedConfig,
};
use insitu_fabric::{Locality, TrafficClass};
use insitu_obs::{chrome_trace_with_flows, EventKind, FlightRecorder};
use insitu_telemetry::{Json, MetricsSnapshot, Recorder};
use std::collections::BTreeSet;

fn fabric_counter(snap: &MetricsSnapshot, kind: &str, class: TrafficClass, loc: Locality) -> u64 {
    snap.counter(&format!("fabric.{kind}.{}.{}", class.slug(), loc.slug()))
}

#[test]
fn threaded_byte_counters_equal_ledger_totals() {
    let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]).with_iterations(2);
    s.cores_per_node = 4;
    let rec = Recorder::enabled();
    let o = run_threaded_configured(&s, MappingStrategy::DataCentric, &rec, &Default::default());
    assert_eq!(o.verify_failures, 0);
    let snap = rec.metrics_snapshot();
    for class in TrafficClass::ALL {
        assert_eq!(
            fabric_counter(&snap, "bytes", class, Locality::SharedMemory),
            o.ledger.shm_bytes(class),
            "{class:?} shm"
        );
        assert_eq!(
            fabric_counter(&snap, "bytes", class, Locality::Network),
            o.ledger.network_bytes(class),
            "{class:?} net"
        );
    }
    // The dart layer saw every transfer the ledger saw.
    let transfers: u64 = TrafficClass::ALL
        .iter()
        .flat_map(|&c| Locality::ALL.iter().map(move |&l| (c, l)))
        .map(|(c, l)| fabric_counter(&snap, "transfers", c, l))
        .sum();
    assert_eq!(
        snap.counter("dart.transport.shm") + snap.counter("dart.transport.net"),
        transfers,
        "dart transport selections must cover every ledger record"
    );
    assert!(snap.counter("cods.put") > 0);
    assert!(snap.counter("cods.get") > 0);
}

#[test]
fn threaded_and_modeled_emit_identical_transfer_metrics() {
    // Matched blocked/blocked patterns, both coupling shapes: the two
    // executors must agree transfer-for-transfer, not just byte-for-byte.
    for (label, mut s) in [
        (
            "concurrent",
            concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]),
        ),
        (
            "sequential",
            sequential_scenario(8, 4, 4, 4, pattern_pairs(&[2, 2, 2])[0]),
        ),
    ] {
        s.cores_per_node = 4;
        let s = s.with_iterations(2);
        for strategy in [MappingStrategy::RoundRobin, MappingStrategy::DataCentric] {
            let rec_t = Recorder::enabled();
            let rec_m = Recorder::enabled();
            let t = run_threaded_configured(&s, strategy, &rec_t, &Default::default());
            run_modeled_configured(&s, strategy, &rec_m, &Default::default());
            assert_eq!(t.verify_failures, 0);
            let st = rec_t.metrics_snapshot();
            let sm = rec_m.metrics_snapshot();
            for class in [TrafficClass::InterApp, TrafficClass::IntraApp] {
                for loc in Locality::ALL {
                    for kind in ["bytes", "transfers"] {
                        assert_eq!(
                            fabric_counter(&st, kind, class, loc),
                            fabric_counter(&sm, kind, class, loc),
                            "{label} {strategy:?} fabric.{kind}.{}.{}",
                            class.slug(),
                            loc.slug()
                        );
                    }
                }
            }
        }
    }
}

/// What the one exporter must hold for any flight recording: the
/// document parses, every event is one `X` slice, every pull whose put
/// was recorded has one `s`/`f` pair, timestamps share one epoch, and
/// the drop tally is the recorder's.
fn assert_trace_matches_flight(flight: &FlightRecorder) -> usize {
    let events = flight.snapshot();
    let text = chrome_trace_with_flows(&events, flight.dropped()).render();
    let doc = Json::parse(&text).expect("trace must parse");
    assert_eq!(doc.get("droppedSpans"), None);
    assert_eq!(
        doc.get("droppedEvents").and_then(Json::as_u64),
        Some(flight.dropped())
    );
    let items = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
    let phase = |ph: &str| {
        items
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .count()
    };
    assert!(!events.is_empty());
    assert_eq!(phase("X"), events.len());
    let puts: BTreeSet<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Put { .. }))
        .filter_map(|e| e.piece_key())
        .collect();
    let flows = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Pull { .. }))
        .filter(|e| e.piece_key().is_some_and(|k| puts.contains(&k)))
        .count();
    assert_eq!((phase("s"), phase("f")), (flows, flows));
    assert_eq!(items.len(), events.len() + 2 * flows);
    // `Json::parse` reads a negative number as I64/F64, never as u64.
    assert!(items
        .iter()
        .all(|e| e.get("ts").and_then(Json::as_u64).is_some()));
    flows
}

#[test]
fn trace_exports_are_valid_and_disabled_recorders_stay_empty() {
    let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]);
    s.cores_per_node = 4;
    let rec = Recorder::enabled();
    let flight = FlightRecorder::enabled();
    let cfg = ThreadedConfig {
        flight: flight.clone(),
        ..Default::default()
    };
    run_threaded_configured(&s, MappingStrategy::RoundRobin, &rec, &cfg);
    assert!(assert_trace_matches_flight(&flight) > 0);
    let metrics = rec.metrics_json();
    assert!(metrics.starts_with('{') && metrics.ends_with('}'));

    let modeled = FlightRecorder::enabled();
    let cfg = ModeledConfig {
        flight: modeled.clone(),
        ..Default::default()
    };
    run_modeled_configured(&s, MappingStrategy::RoundRobin, &rec, &cfg);
    // The modeled executor records gets and pulls but no puts: slices,
    // no arrows.
    assert_eq!(assert_trace_matches_flight(&modeled), 0);

    // Disabled recorders leave no residue: no metrics, an empty timeline.
    let (off, dark) = (Recorder::disabled(), FlightRecorder::disabled());
    let cfg = ThreadedConfig {
        flight: dark.clone(),
        ..Default::default()
    };
    run_threaded_configured(&s, MappingStrategy::RoundRobin, &off, &cfg);
    assert_eq!(off.metrics_snapshot(), MetricsSnapshot::default());
    assert_eq!(
        chrome_trace_with_flows(&dark.snapshot(), dark.dropped()).render(),
        "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\",\"droppedEvents\":0}"
    );
}

#[test]
fn phase_numbers_travel_in_the_metrics_document() {
    let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]);
    s.cores_per_node = 4;
    let (threaded, modeled) = (Recorder::enabled(), Recorder::enabled());
    run_threaded_configured(
        &s,
        MappingStrategy::DataCentric,
        &threaded,
        &Default::default(),
    );
    run_modeled_configured(
        &s,
        MappingStrategy::DataCentric,
        &modeled,
        &Default::default(),
    );
    let count = |rec: &Recorder, name: &str| {
        let doc = Json::parse(&rec.metrics_json()).unwrap();
        let h = doc.get("histograms").and_then(|h| h.get(name));
        h.and_then(|h| h.get("count")).and_then(Json::as_u64)
    };
    for phase in ["map", "group", "execute"] {
        let name = format!("workflow.{phase}_us");
        assert!(count(&threaded, &name) >= Some(1), "{name}");
    }
    // One sample per task (8 producers + 4 consumers) under one name.
    assert_eq!(count(&threaded, "exec.task_us"), Some(12));
    assert_eq!(count(&modeled, "workflow.map_us"), Some(1));
    assert_eq!(count(&modeled, "exec.task_us"), None);
}
