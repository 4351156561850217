//! A buffer goes back to the run that made it: two overlapping runs in
//! one process — two spaces over two runtimes — each take back only the
//! get assemblies they gave back, never the other's, and a run's cell
//! shelf is gone once the run has ended and dropped its last buffer.

use insitu_cods::{CodsConfig, CodsSpace, Dht, FieldData};
use insitu_dart::DartRuntime;
use insitu_domain::{layout, BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{ClientId, MachineSpec, Placement, TransferLedger};
use insitu_sfc::HilbertCurve;
use std::sync::Arc;

/// 256 x 256 cells staged as four pieces: a 512 KiB assembly per get.
fn side() -> BoundingBox {
    BoundingBox::from_sizes(&[256, 256])
}

/// One run: a space with version 0 of `"v"` staged, and a get of the
/// whole domain, which assembles.
fn run() -> (Arc<CodsSpace>, impl Fn(&Arc<CodsSpace>) -> FieldData) {
    let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(1, 4), 4));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let dht = Dht::new(Box::new(HilbertCurve::new(2, 8)), vec![0]);
    let s = CodsSpace::new(dart, dht, CodsConfig::default());
    let domain = side();
    let dec = Decomposition::new(domain, ProcessGrid::new(&[2, 2]), Distribution::Blocked);
    let tag = |p: &[u64]| (p[0] * 256 + p[1]) as f64;
    for rank in 0..4u64 {
        let b = dec.blocked_box(rank).unwrap();
        let data = layout::fill_with(&b, tag);
        s.put_cont(rank as ClientId, 1, "v", 0, 0, &b, data)
            .unwrap();
    }
    let clients: Vec<ClientId> = (0..4).collect();
    let get = move |s: &Arc<CodsSpace>| {
        let (data, report) = s.get_cont(0, 2, "v", 0, &domain, &dec, &clients).unwrap();
        assert_eq!((report.ops, data.is_view()), (4, false), "assembled");
        assert_eq!(data[layout::linear_index(&domain, &[3, 5])], tag(&[3, 5]));
        data
    };
    (s, get)
}

#[test]
fn overlapping_runs_take_back_only_their_own_buffers() {
    let (a, get_a) = run();
    let (b, get_b) = run();
    let a_shelf = a.dart().cells().downgrade();

    // Run A gives its assembly back; run B, overlapping, must not take
    // it: B's get is a fresh buffer while A's sits on A's shelf.
    let first_a = get_a(&a);
    let at_a = first_a.as_ptr();
    drop(first_a);
    let first_b = get_b(&b);
    let at_b = first_b.as_ptr();
    assert_ne!(at_b, at_a, "run B took run A's buffer");
    drop(first_b);
    // Each run's next get is the buffer it gave back itself.
    let again_a = get_a(&a);
    let again_b = get_b(&b);
    assert_eq!((again_a.as_ptr(), again_b.as_ptr()), (at_a, at_b));

    // Run A ends while one of its buffers is still out: its shelf lives
    // on for that buffer alone, and dies with it.
    drop(a);
    assert_eq!(a_shelf.strong_count(), 1, "the last buffer holds the shelf");
    drop(again_a);
    assert_eq!(a_shelf.strong_count(), 0, "run A's shelf outlived it");
    // Run B is untouched: what it gives back, it takes again.
    drop(again_b);
    assert_eq!(get_b(&b).as_ptr(), at_b);
}
