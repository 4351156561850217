//! Fault-site and overlap behavior of the receiver-driven pull path:
//! injected pull faults must keep firing (and leaving flight events) now
//! that `get` issues its whole schedule through `pull_many`, and a slow
//! producer must no longer delay copies of pieces that already arrived.

use insitu_cods::{CodsConfig, CodsError, CodsSpace, Dht};
use insitu_dart::{DartRuntime, LocalTransport};
use insitu_domain::{layout, BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{
    ClientId, FaultAction, FaultHooks, FaultInjector, MachineSpec, Placement, TransferLedger,
};
use insitu_obs::{EventKind, FlightRecorder};
use insitu_sfc::HilbertCurve;
use insitu_telemetry::Recorder;
use std::sync::Arc;
use std::time::Duration;

/// A 4-client space (2 nodes x 2 cores) with the given fault hooks and an
/// enabled flight recorder.
fn space_with(
    hooks: Option<Arc<dyn FaultHooks>>,
    cfg: CodsConfig,
) -> (Arc<CodsSpace>, FlightRecorder) {
    let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
    let flight = FlightRecorder::enabled();
    let injector = match hooks {
        Some(h) => FaultInjector::new(h),
        None => FaultInjector::none(),
    };
    let dart = DartRuntime::with_transport(
        placement,
        Arc::new(TransferLedger::new()),
        Recorder::disabled(),
        injector,
        flight.clone(),
        Arc::new(LocalTransport),
    );
    let dht = Dht::new(Box::new(HilbertCurve::new(2, 5)), vec![0, 2]);
    (CodsSpace::new(dart, dht, cfg), flight)
}

fn domain() -> BoundingBox {
    BoundingBox::from_sizes(&[8, 8])
}

/// Producer `rank`'s half of the 8x8 domain (rows split).
fn piece_box(rank: u64) -> BoundingBox {
    BoundingBox::new(&[rank * 4, 0], &[rank * 4 + 3, 7])
}

fn tag(p: &[u64]) -> f64 {
    (p[0] * 100 + p[1]) as f64
}

#[test]
fn dropped_pulls_fault_every_scheduled_op_and_surface_timeout() {
    struct DropAll;
    impl FaultHooks for DropAll {
        fn on_pull(&self, _: u64, _: u64, _: u64) -> FaultAction {
            FaultAction::Drop
        }
    }
    let (s, flight) = space_with(
        Some(Arc::new(DropAll)),
        CodsConfig {
            get_timeout: Duration::from_millis(200),
            ..Default::default()
        },
    );
    for rank in 0..2u64 {
        let b = piece_box(rank);
        let data = layout::fill_with(&b, tag);
        s.put_seq(rank as ClientId, 1, "v", 0, 0, &b, &data)
            .unwrap();
    }
    let err = s.get_seq(2, 2, "v", 0, &domain()).unwrap_err();
    assert!(
        matches!(err, CodsError::Timeout { .. }),
        "expected typed timeout, got {err:?}"
    );
    // `pull_many` consults the injector for every key up front, so both
    // scheduled ops leave a drop-pull fault event, not just the first.
    let faults: Vec<_> = flight
        .snapshot()
        .into_iter()
        .filter(|e| matches!(e.kind, EventKind::Fault { kind: "drop-pull" }))
        .collect();
    assert_eq!(faults.len(), 2, "one fault event per scheduled op");
    let mut owners: Vec<ClientId> = faults.iter().map(|e| e.src.unwrap()).collect();
    owners.sort_unstable();
    assert_eq!(owners, vec![0, 1], "fault events name both owners");
}

#[test]
fn delayed_first_producer_assembles_out_of_order() {
    // Delay every pull from owner 0 (the buf-key's high word) by 60 ms:
    // owner 1's piece must be copied while owner 0's is still withheld,
    // the get must still verify, and the delay must leave fault events.
    struct DelayOwner0;
    impl FaultHooks for DelayOwner0 {
        fn on_pull(&self, _: u64, _: u64, piece: u64) -> FaultAction {
            if piece >> 32 == 0 {
                FaultAction::Delay(Duration::from_millis(60))
            } else {
                FaultAction::Proceed
            }
        }
    }
    let (s, flight) = space_with(
        Some(Arc::new(DelayOwner0)),
        CodsConfig {
            get_timeout: Duration::from_secs(5),
            ..Default::default()
        },
    );
    for rank in 0..2u64 {
        let b = piece_box(rank);
        let data = layout::fill_with(&b, tag);
        s.put_seq(rank as ClientId, 1, "v", 0, 0, &b, &data)
            .unwrap();
    }
    let q = domain();
    let (data, _) = s.get_seq(2, 2, "v", 0, &q).unwrap();
    for p in q.iter_points() {
        assert_eq!(data[layout::linear_index(&q, &p[..2])], tag(&p[..2]));
    }
    let events = flight.snapshot();
    let delays: Vec<_> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::Fault { kind: "delay-pull" }))
        .collect();
    assert!(!delays.is_empty(), "delay-pull fault site did not fire");
    assert!(delays.iter().all(|e| e.src == Some(0)));
    // Owner 1's copy completed while owner 0's piece was still withheld.
    let pull_end = |owner: ClientId| {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Pull { .. }) && e.src == Some(owner))
            .map(|e| e.start_us + e.duration_us)
            .max()
            .expect("pull event missing")
    };
    let fast = pull_end(1);
    let slow = pull_end(0);
    assert!(
        fast + 30_000 < slow,
        "fast piece ({fast} us) should complete well before the delayed one ({slow} us)"
    );
}

/// The threaded overlapped-wait property: with one producer deliberately
/// slow, pieces from the fast producer are copied as they arrive, so the
/// slow producer stretches only its own pull.
#[test]
fn slow_producer_no_longer_delays_arrived_pieces() {
    let (s, flight) = space_with(
        None,
        CodsConfig {
            get_timeout: Duration::from_secs(10),
            ..Default::default()
        },
    );
    let dec = Decomposition::new(domain(), ProcessGrid::new(&[2, 1]), Distribution::Blocked);
    let mut handles = Vec::new();
    for rank in 0..2u64 {
        let s = Arc::clone(&s);
        handles.push(std::thread::spawn(move || {
            if rank == 0 {
                // The slow producer: its piece lands 90 ms late.
                std::thread::sleep(Duration::from_millis(90));
            }
            let b = piece_box(rank);
            let data = layout::fill_with(&b, tag);
            s.put_cont(rank as ClientId, 1, "v", 0, 0, &b, &data)
                .unwrap();
        }));
    }
    let q = domain();
    let (data, _) = s.get_cont(2, 2, "v", 0, &q, &dec, &[0, 1]).unwrap();
    for h in handles {
        h.join().unwrap();
    }
    for p in q.iter_points() {
        assert_eq!(data[layout::linear_index(&q, &p[..2])], tag(&p[..2]));
    }
    let events = flight.snapshot();
    let pull_end = |owner: ClientId| {
        events
            .iter()
            .filter(|e| matches!(e.kind, EventKind::Pull { .. }) && e.src == Some(owner))
            .map(|e| e.start_us + e.duration_us)
            .max()
            .expect("pull event missing")
    };
    let (fast, slow) = (pull_end(1), pull_end(0));
    assert!(
        slow >= 75_000,
        "slow pull ({slow} us) must span the producer delay"
    );
    assert!(
        fast + 40_000 < slow,
        "overlapped: arrived piece ({fast} us) must not wait for the slow one ({slow} us)"
    );
}
