//! Property-based tests for the domain geometry invariants.

use insitu_domain::bbox::pt;
use insitu_domain::dist::count_owned_in_range;
use insitu_domain::layout::{copy_region, fill_with, linear_index};
use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_util::check::forall;
use insitu_util::SplitMix64;

fn arb_box_2d(rng: &mut SplitMix64, max: u64) -> BoundingBox {
    let a = rng.range_u64(0, max);
    let b = rng.range_u64(0, max);
    let c = rng.range_u64(0, max);
    let d = rng.range_u64(0, max);
    BoundingBox::new(&[a.min(b), c.min(d)], &[a.max(b), c.max(d)])
}

fn arb_dist(rng: &mut SplitMix64) -> Distribution {
    match rng.range_u32(0, 3) {
        0 => Distribution::Blocked,
        1 => Distribution::Cyclic,
        _ => {
            let a = rng.range_u64(1, 5);
            let b = rng.range_u64(1, 5);
            Distribution::block_cyclic(&[a, b])
        }
    }
}

#[test]
fn intersect_commutative_and_contained() {
    forall(256, |rng| {
        let a = arb_box_2d(rng, 32);
        let b = arb_box_2d(rng, 32);
        let ab = a.intersect(&b);
        let ba = b.intersect(&a);
        assert_eq!(ab, ba);
        if let Some(i) = ab {
            assert!(a.contains_box(&i));
            assert!(b.contains_box(&i));
            assert!(i.num_cells() <= a.num_cells().min(b.num_cells()));
        }
    });
}

#[test]
fn intersect_idempotent() {
    forall(256, |rng| {
        let a = arb_box_2d(rng, 32);
        assert_eq!(a.intersect(&a), Some(a));
    });
}

#[test]
fn count_owned_matches_brute() {
    forall(256, |rng| {
        let lo = rng.range_u64(0, 40);
        let len = rng.range_u64(0, 40);
        let b = rng.range_u64(1, 6);
        let p = rng.range_u64(1, 6);
        let g = rng.range_u64(0, 6) % p;
        let hi = lo + len;
        let brute = (lo..=hi).filter(|x| (x / b) % p == g).count() as u64;
        assert_eq!(count_owned_in_range(lo, hi, b, p, g), brute);
    });
}

#[test]
fn decomposition_tiles_domain() {
    forall(64, |rng| {
        let sx = rng.range_u64(1, 24);
        let sy = rng.range_u64(1, 24);
        let px = rng.range_u64(1, 4);
        let py = rng.range_u64(1, 4);
        let dist = arb_dist(rng);
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[sx, sy]),
            ProcessGrid::new(&[px, py]),
            dist,
        );
        // Every cell owned by exactly one rank; rank_cells sums to volume.
        let total: u128 = (0..dec.num_ranks()).map(|r| dec.rank_cells(r)).sum();
        assert_eq!(total, dec.domain().num_cells());
        for ptt in dec.domain().iter_points() {
            let owner = dec.owner_of_point(&ptt[..2]);
            assert!(owner < dec.num_ranks());
        }
    });
}

#[test]
fn overlaps_consistent_with_overlap_cells() {
    forall(64, |rng| {
        let sx = rng.range_u64(4, 20);
        let sy = rng.range_u64(4, 20);
        let px = rng.range_u64(1, 4);
        let py = rng.range_u64(1, 4);
        let dist = arb_dist(rng);
        let q = arb_box_2d(rng, 24);
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[sx, sy]),
            ProcessGrid::new(&[px, py]),
            dist,
        );
        let overlaps = dec.overlaps(&q);
        // Reported entries match per-rank closed form and are non-zero.
        for o in &overlaps {
            assert!(o.cells > 0);
            assert_eq!(o.cells, dec.overlap_cells(o.rank, &q));
        }
        // Non-reported ranks overlap nothing.
        let reported: std::collections::HashSet<u64> = overlaps.iter().map(|o| o.rank).collect();
        for r in 0..dec.num_ranks() {
            if !reported.contains(&r) {
                assert_eq!(dec.overlap_cells(r, &q), 0);
            }
        }
    });
}

#[test]
fn pieces_partition_overlap() {
    forall(64, |rng| {
        let sx = rng.range_u64(4, 16);
        let sy = rng.range_u64(4, 16);
        let px = rng.range_u64(1, 4);
        let py = rng.range_u64(1, 4);
        let dist = arb_dist(rng);
        let q = arb_box_2d(rng, 20);
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[sx, sy]),
            ProcessGrid::new(&[px, py]),
            dist,
        );
        for r in 0..dec.num_ranks() {
            let pieces = dec.pieces(r, &q);
            let vol: u128 = pieces.iter().map(|p| p.num_cells()).sum();
            assert_eq!(vol, dec.overlap_cells(r, &q));
            for (i, a) in pieces.iter().enumerate() {
                for b in &pieces[i + 1..] {
                    assert!(a.intersect(b).is_none());
                }
            }
        }
    });
}

#[test]
fn copy_region_moves_exactly_region() {
    forall(128, |rng| {
        let ax = rng.range_u64(0, 6);
        let ay = rng.range_u64(0, 6);
        let ex = rng.range_u64(1, 6);
        let ey = rng.range_u64(1, 6);
        // src and dst boxes both contain the region; src larger.
        let region = BoundingBox::new(&[ax + 2, ay + 2], &[ax + 1 + ex, ay + 1 + ey]);
        let src_box = BoundingBox::new(&[0, 0], &[15, 15]);
        let dst_box = BoundingBox::new(&[1, 1], &[14, 14]);
        let tag = |p: &[u64]| p[0] * 100 + p[1] + 1;
        let src = fill_with(&src_box, tag);
        let mut dst = vec![0u64; dst_box.num_cells() as usize];
        copy_region(&src, &src_box, &mut dst, &dst_box, &region);
        for p in dst_box.iter_points() {
            let got = dst[linear_index(&dst_box, &p[..2])];
            if region.contains_point(&p) {
                assert_eq!(got, tag(&p[..2]));
            } else {
                assert_eq!(got, 0);
            }
        }
    });
}

#[test]
fn copy_region_fast_and_general_paths_agree() {
    // 1-4-D regions spanning a random number of trailing dims of both
    // boxes (the folded run; all of them is the single-memcpy path) and
    // strided over the rest. Each must agree with a per-point reference
    // copy.
    forall(512, |rng| {
        let nd = rng.range_usize(1, 5);
        let folded = rng.range_usize(0, nd + 1);
        // Corners of region, src box, dst box.
        let (mut lo, mut hi) = ([[0u64; 4]; 3], [[0u64; 4]; 3]);
        for d in 0..nd {
            lo[0][d] = rng.range_u64(2, 6);
            hi[0][d] = lo[0][d] + rng.range_u64(0, 5);
            // Over the trailing `folded` dims both boxes end where the
            // region does.
            let pad = u64::from(d < nd - folded);
            for b in 1..3 {
                lo[b][d] = lo[0][d] - pad * rng.range_u64(0, 3);
                hi[b][d] = hi[0][d] + pad * rng.range_u64(0, 3);
            }
        }
        let [region, src_box, dst_box] =
            [0, 1, 2].map(|b| BoundingBox::new(&lo[b][..nd], &hi[b][..nd]));
        let tag = |p: &[u64]| p.iter().fold(7, |a, &x| a * 100 + x);
        let src = fill_with(&src_box, tag);

        // Per-point reference.
        let mut want = vec![0u64; dst_box.num_cells() as usize];
        for p in region.iter_points() {
            want[linear_index(&dst_box, &p[..nd])] = src[linear_index(&src_box, &p[..nd])];
        }

        let mut got = vec![0u64; want.len()];
        copy_region(&src, &src_box, &mut got, &dst_box, &region);
        assert_eq!(got, want, "region {region:?}");
    });
}

#[test]
fn owner_of_point_agrees_with_pieces() {
    forall(64, |rng| {
        let sx = rng.range_u64(2, 12);
        let sy = rng.range_u64(2, 12);
        let px = rng.range_u64(1, 3);
        let py = rng.range_u64(1, 3);
        let dist = arb_dist(rng);
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[sx, sy]),
            ProcessGrid::new(&[px, py]),
            dist,
        );
        for p in dec.domain().iter_points() {
            let owner = dec.owner_of_point(&p[..2]);
            let cell = BoundingBox::new(&[p[0], p[1]], &[p[0], p[1]]);
            assert_eq!(dec.overlap_cells(owner, &cell), 1);
        }
        // silence unused import lint for pt in some configurations
        let _ = pt(&[0, 0]);
    });
}
