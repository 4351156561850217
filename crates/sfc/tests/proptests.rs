//! Property tests: curve bijectivity, adjacency, and span-cover exactness.

use insitu_domain::BoundingBox;
use insitu_sfc::{spans_of_box, HilbertCurve, MortonCurve, SpaceFillingCurve, Span};
use insitu_util::check::forall;

#[test]
fn hilbert_roundtrip_2d() {
    forall(256, |rng| {
        let order = rng.range_u32(1, 10);
        let seed = rng.next_u64();
        let h = HilbertCurve::new(2, order);
        let side = h.side();
        let x = seed % side;
        let y = (seed >> 16) % side;
        let i = h.index_of(&[x, y]);
        assert_eq!(&h.point_of(i)[..2], &[x, y][..]);
    });
}

#[test]
fn hilbert_roundtrip_3d() {
    forall(256, |rng| {
        let order = rng.range_u32(1, 8);
        let seed = rng.next_u64();
        let h = HilbertCurve::new(3, order);
        let side = h.side();
        let p = [seed % side, (seed >> 12) % side, (seed >> 24) % side];
        assert_eq!(&h.point_of(h.index_of(&p))[..3], &p[..]);
    });
}

#[test]
fn morton_roundtrip_3d() {
    forall(256, |rng| {
        let order = rng.range_u32(1, 8);
        let seed = rng.next_u64();
        let m = MortonCurve::new(3, order);
        let side = m.side();
        let p = [seed % side, (seed >> 12) % side, (seed >> 24) % side];
        assert_eq!(&m.point_of(m.index_of(&p))[..3], &p[..]);
    });
}

#[test]
fn hilbert_adjacent_indices_adjacent_points() {
    forall(256, |rng| {
        let order = rng.range_u32(1, 6);
        let seed = rng.next_u64();
        let h = HilbertCurve::new(2, order);
        let i = seed as u128 % (h.index_count() - 1);
        let a = h.point_of(i);
        let b = h.point_of(i + 1);
        let dist: u64 = (0..2).map(|d| a[d].abs_diff(b[d])).sum();
        assert_eq!(dist, 1);
    });
}

#[test]
fn spans_cover_box_exactly_hilbert() {
    forall(128, |rng| {
        let order = rng.range_u32(2, 6);
        let ax = rng.range_u64(0, 16);
        let ay = rng.range_u64(0, 16);
        let w = rng.range_u64(0, 16);
        let hgt = rng.range_u64(0, 16);
        let h = HilbertCurve::new(2, order);
        let side = h.side();
        let lb = [ax % side, ay % side];
        let ub = [(lb[0] + w).min(side - 1), (lb[1] + hgt).min(side - 1)];
        let b = BoundingBox::new(&lb, &ub);
        let spans = spans_of_box(&h, &b);
        assert_eq!(spans.iter().map(Span::len).sum::<u128>(), b.num_cells());
        // Disjoint + sorted + maximal.
        for wd in spans.windows(2) {
            assert!(wd[0].last + 1 < wd[1].first);
        }
        // Sampled membership: corners of the box map into some span.
        for p in [[lb[0], lb[1]], [ub[0], ub[1]], [lb[0], ub[1]]] {
            let i = h.index_of(&p);
            assert!(spans.iter().any(|s| s.first <= i && i <= s.last));
        }
    });
}

#[test]
fn spans_cover_box_exactly_morton() {
    forall(128, |rng| {
        let order = rng.range_u32(2, 6);
        let ax = rng.range_u64(0, 16);
        let ay = rng.range_u64(0, 16);
        let w = rng.range_u64(0, 16);
        let hgt = rng.range_u64(0, 16);
        let m = MortonCurve::new(2, order);
        let side = m.side();
        let lb = [ax % side, ay % side];
        let ub = [(lb[0] + w).min(side - 1), (lb[1] + hgt).min(side - 1)];
        let b = BoundingBox::new(&lb, &ub);
        let spans = spans_of_box(&m, &b);
        assert_eq!(spans.iter().map(Span::len).sum::<u128>(), b.num_cells());
    });
}

/// Expand a span cover back into the set of lattice points it names.
fn cells_of_spans(
    curve: &dyn SpaceFillingCurve,
    spans: &[Span],
    ndim: usize,
) -> std::collections::BTreeSet<Vec<u64>> {
    let mut cells = std::collections::BTreeSet::new();
    for s in spans {
        let mut i = s.first;
        loop {
            cells.insert(curve.point_of(i)[..ndim].to_vec());
            if i == s.last {
                break;
            }
            i += 1;
        }
    }
    cells
}

#[test]
fn hilbert_and_morton_cover_identical_cell_sets_2d() {
    forall(64, |rng| {
        let order = rng.range_u32(2, 5);
        let h = HilbertCurve::new(2, order);
        let m = MortonCurve::new(2, order);
        let side = h.side();
        let lb = [rng.range_u64(0, side), rng.range_u64(0, side)];
        let ub = [
            (lb[0] + rng.range_u64(0, side)).min(side - 1),
            (lb[1] + rng.range_u64(0, side)).min(side - 1),
        ];
        let b = BoundingBox::new(&lb, &ub);
        let hc = cells_of_spans(&h, &spans_of_box(&h, &b), 2);
        let mc = cells_of_spans(&m, &spans_of_box(&m, &b), 2);
        assert_eq!(hc, mc, "curves disagree on box {b:?}");
        assert_eq!(hc.len() as u128, b.num_cells());
    });
}

#[test]
fn hilbert_and_morton_cover_identical_cell_sets_3d() {
    forall(32, |rng| {
        let order = rng.range_u32(1, 4);
        let h = HilbertCurve::new(3, order);
        let m = MortonCurve::new(3, order);
        let side = h.side();
        let lb = [
            rng.range_u64(0, side),
            rng.range_u64(0, side),
            rng.range_u64(0, side),
        ];
        let ub = [
            (lb[0] + rng.range_u64(0, side)).min(side - 1),
            (lb[1] + rng.range_u64(0, side)).min(side - 1),
            (lb[2] + rng.range_u64(0, side)).min(side - 1),
        ];
        let b = BoundingBox::new(&lb, &ub);
        let hc = cells_of_spans(&h, &spans_of_box(&h, &b), 3);
        let mc = cells_of_spans(&m, &spans_of_box(&m, &b), 3);
        assert_eq!(hc, mc, "curves disagree on box {b:?}");
        assert_eq!(hc.len() as u128, b.num_cells());
    });
}

#[test]
fn spans_outside_points_not_covered() {
    forall(128, |rng| {
        let order = rng.range_u32(2, 5);
        let seed = rng.next_u64();
        let h = HilbertCurve::new(2, order);
        let side = h.side();
        if side < 4 {
            return;
        }
        let b = BoundingBox::new(&[1, 1], &[side / 2, side / 2]);
        let spans = spans_of_box(&h, &b);
        // A point outside the box must not fall in any span.
        let outside = [0u64, seed % side];
        let i = h.index_of(&outside);
        assert!(!spans.iter().any(|s| s.first <= i && i <= s.last));
    });
}
