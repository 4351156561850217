//! A get lands in the buffer the previous get of its shape handed back:
//! under a pool lease, the array a `get_cont` assembles is recycled,
//! not fresh memory that faults its pages again.
//!
//! The pool is process-wide, so this file is its own test binary.

use insitu_cods::{CodsConfig, CodsSpace, Dht};
use insitu_dart::DartRuntime;
use insitu_domain::{layout, BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{ClientId, MachineSpec, Placement, TransferLedger};
use insitu_sfc::HilbertCurve;
use insitu_util::PoolLease;
use std::sync::Arc;

#[test]
fn two_consecutive_gets_of_one_rank_land_at_the_same_pointer() {
    let _lease = PoolLease::hold();
    let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(1, 4), 4));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let dht = Dht::new(Box::new(HilbertCurve::new(2, 8)), vec![0]);
    let s = CodsSpace::new(dart, dht, CodsConfig::default());
    // 256 x 256 cells in four pieces: a 512 KiB assembly per get.
    let domain = BoundingBox::from_sizes(&[256, 256]);
    let dec = Decomposition::new(domain, ProcessGrid::new(&[2, 2]), Distribution::Blocked);
    let clients: Vec<ClientId> = (0..4).collect();
    let tag = |version: u64| move |p: &[u64]| (version * 1_000_000 + p[0] * 256 + p[1]) as f64;
    for version in 0..2u64 {
        for rank in 0..4u64 {
            let b = dec.blocked_box(rank).unwrap();
            let data = layout::fill_with(&b, tag(version));
            s.put_cont(rank as ClientId, 1, "v", version, 0, &b, data)
                .unwrap();
        }
    }
    let get = |version| {
        let (data, report) = s
            .get_cont(0, 2, "v", version, &domain, &dec, &clients)
            .unwrap();
        assert_eq!((report.ops, data.is_view()), (4, false), "assembled");
        let wrong = domain
            .iter_points()
            .filter(|p| data[layout::linear_index(&domain, &p[..2])] != tag(version)(&p[..2]));
        assert_eq!(wrong.count(), 0, "version {version}");
        data
    };
    let first = get(0);
    let at = first.as_ptr();
    drop(first);
    // A plain allocation of the same size is held across the second
    // get, so an allocator that hands the freed address straight back
    // cannot pass for the pool.
    let blocker: Vec<f64> = Vec::with_capacity(domain.num_cells() as usize);
    let second = get(1);
    assert_eq!(second.as_ptr(), at, "the second get's array is the first's");
    assert_ne!(blocker.as_ptr(), at);
}
