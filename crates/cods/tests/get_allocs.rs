//! Allocation budget of a get on staged pieces: once its schedule is
//! cached, a `get_cont` whose pieces are all registered looks them up
//! and copies them — it builds no waiter, so it allocates only its key
//! list and its result, and once the previous result went back to the
//! run's cell shelf only its key list (the result is that buffer).
//!
//! The counting allocator is process-wide, so this file is its own test
//! binary; it counts only the allocations of the thread that opts in.

use insitu_cods::{CodsConfig, CodsSpace, Dht, FieldData, GetReport};
use insitu_dart::DartRuntime;
use insitu_domain::{layout, BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{ClientId, MachineSpec, Placement, TransferLedger};
use insitu_sfc::HilbertCurve;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// `Some(n)` while the thread counts: `n` allocations so far.
    static ALLOCS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count_one() {
    let _ = ALLOCS.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs_of<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|c| c.set(Some(0)));
    let out = f();
    let n = ALLOCS.with(|c| c.replace(None)).unwrap_or(0);
    (out, n)
}

/// A space with the `side` × `side` domain staged as four blocked
/// pieces of `"v"` version 0, and a get of the whole domain: no piece
/// covers it alone, so the result is an owned array. The first get has
/// run: it computed and cached the schedule and the version's
/// completion count.
fn warm_whole_domain_get(side: u64) -> impl Fn() -> (FieldData, GetReport) {
    let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(1, 4), 4));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let dht = Dht::new(Box::new(HilbertCurve::new(2, 5)), vec![0]);
    let s = CodsSpace::new(dart, dht, CodsConfig::default());
    let domain = BoundingBox::from_sizes(&[side, side]);
    let dec = Decomposition::new(domain, ProcessGrid::new(&[2, 2]), Distribution::Blocked);
    let clients: Vec<ClientId> = (0..4).collect();
    let tag = |p: &[u64]| (p[0] * 100 + p[1]) as f64;
    for rank in 0..4u64 {
        let b = dec.blocked_box(rank).unwrap();
        let data = layout::fill_with(&b, tag);
        s.put_cont(rank as ClientId, 1, "v", 0, 0, &b, data)
            .unwrap();
    }
    let get = move || s.get_cont(0, 2, "v", 0, &domain, &dec, &clients).unwrap();
    let (data, report) = get();
    assert!(!report.cache_hit);
    assert_eq!(report.ops, 4);
    for p in domain.iter_points() {
        assert_eq!(data[layout::linear_index(&domain, &p[..2])], tag(&p[..2]));
    }
    get
}

/// Allocations per cached get of `get`, over 16 gets whose results are
/// dropped one by one, or all held till the end if `hold`.
fn allocs_per_cached_get(get: impl Fn() -> (FieldData, GetReport), hold: bool) -> f64 {
    const GETS: u64 = 16;
    let mut total = 0;
    let mut held = Vec::with_capacity(GETS as usize);
    for _ in 0..GETS {
        let ((data, report), n) = allocs_of(&get);
        assert!(report.cache_hit);
        assert_eq!(report.ops, 4);
        if hold {
            held.push(data);
        }
        total += n;
    }
    total as f64 / GETS as f64
}

#[test]
fn cached_get_on_staged_pieces_allocates_only_keys_and_result() {
    let per_get = allocs_per_cached_get(warm_whole_domain_get(16), true);
    assert!(
        per_get <= 2.0,
        "a cached get on staged pieces made {per_get} allocations per get (budget 2: keys and result)"
    );
}

#[test]
fn a_cached_get_whose_last_result_went_back_allocates_only_its_keys() {
    // The warm-up's result goes back to the run's shelf when it drops.
    let per_get = allocs_per_cached_get(warm_whole_domain_get(24), false);
    assert!(
        per_get <= 1.0,
        "a cached get whose last result went back made {per_get} allocations per get (budget 1: keys)"
    );
}
