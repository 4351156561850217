//! Decomposition of a bounding box into contiguous curve-index spans.
//!
//! A CoDS `get()` translates its geometric descriptor into "a set of spans
//! of the linearized index space" (paper §IV.A) and routes each span to the
//! DHT core owning that interval. Both Hilbert and Morton curves have the
//! property that every aligned `2^k`-sided subcube occupies a contiguous
//! index range, so the decomposition is a recursive descent over the
//! implicit `2^ndim`-ary tree: subtrees fully inside the query emit their
//! whole range, partial subtrees recurse, disjoint subtrees are pruned.

use crate::SpaceFillingCurve;
use insitu_domain::{BoundingBox, MAX_DIMS};

/// A contiguous, inclusive interval of curve indices.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Span {
    /// First index of the interval.
    pub first: u128,
    /// Last index of the interval (inclusive).
    pub last: u128,
}

impl Span {
    /// Number of indices covered.
    pub fn len(&self) -> u128 {
        self.last - self.first + 1
    }

    /// Spans are never empty; provided for clippy symmetry.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Intersection with another span.
    pub fn intersect(&self, other: &Span) -> Option<Span> {
        let first = self.first.max(other.first);
        let last = self.last.min(other.last);
        (first <= last).then_some(Span { first, last })
    }
}

/// Decompose `query` into the minimal set of maximal contiguous index
/// spans under `curve`, sorted ascending.
///
/// # Panics
/// Panics if `query`'s rank differs from the curve's or it exceeds the
/// curve's domain.
pub fn spans_of_box(curve: &dyn SpaceFillingCurve, query: &BoundingBox) -> Vec<Span> {
    assert_eq!(query.ndim(), curve.ndim(), "query rank mismatch");
    let side = curve.side();
    for d in 0..query.ndim() {
        assert!(query.ub(d) < side, "query exceeds curve domain");
    }
    let mut out = Vec::new();
    descend(curve, query, 0, 0, &mut out);
    out.sort_unstable();
    merge_spans(&mut out);
    out
}

fn descend(
    curve: &dyn SpaceFillingCurve,
    query: &BoundingBox,
    prefix: u128,
    depth: u32,
    out: &mut Vec<Span>,
) {
    let n = curve.ndim() as u32;
    let order = curve.order();
    let cell_bits = n * (order - depth);
    let first = prefix << cell_bits;
    let cube = subtree_cube(curve, first, depth);
    let Some(overlap) = cube.intersect(query) else {
        return;
    };
    if overlap == cube {
        out.push(Span {
            first,
            last: first + (1u128 << cell_bits) - 1,
        });
        return;
    }
    debug_assert!(depth < order, "leaf cells are fully in or out");
    for child in 0..(1u128 << n) {
        descend(curve, query, (prefix << n) | child, depth + 1, out);
    }
}

/// The cells of the subtree at `depth` whose first index is `first`: an
/// aligned cube of side 2^(order-depth) containing that index's point.
fn subtree_cube(curve: &dyn SpaceFillingCurve, first: u128, depth: u32) -> BoundingBox {
    let side = 1u64 << (curve.order() - depth);
    let rep = curve.point_of(first);
    let mut lb = [0u64; MAX_DIMS];
    let mut ub = [0u64; MAX_DIMS];
    for d in 0..curve.ndim() {
        lb[d] = rep[d] & !(side - 1);
        ub[d] = lb[d] + side - 1;
    }
    BoundingBox::new(&lb[..curve.ndim()], &ub[..curve.ndim()])
}

/// The inverse of [`spans_of_box`]: decompose a contiguous index span
/// into the minimal set of maximal axis-aligned boxes it covers. This is
/// how a DHT core materializes "the distinct data region of the
/// application data domain" its interval is responsible for (paper
/// §IV.A).
pub fn boxes_of_span(curve: &dyn SpaceFillingCurve, span: &Span) -> Vec<BoundingBox> {
    assert!(span.last < curve.index_count(), "span exceeds curve range");
    let mut out = Vec::new();
    boxes_descend(curve, span, 0, 0, &mut out);
    out
}

fn boxes_descend(
    curve: &dyn SpaceFillingCurve,
    span: &Span,
    prefix: u128,
    depth: u32,
    out: &mut Vec<BoundingBox>,
) {
    let n = curve.ndim() as u32;
    let order = curve.order();
    let cell_bits = n * (order - depth);
    let first = prefix << cell_bits;
    let last = first + (1u128 << cell_bits) - 1;
    if span.intersect(&Span { first, last }).is_none() {
        return;
    }
    if span.first <= first && last <= span.last {
        // Whole subtree inside the span: emit its cube.
        out.push(subtree_cube(curve, first, depth));
        return;
    }
    debug_assert!(depth < order);
    for child in 0..(1u128 << n) {
        boxes_descend(curve, span, (prefix << n) | child, depth + 1, out);
    }
}

/// Merge adjacent or overlapping spans in a sorted list, in place.
pub(crate) fn merge_spans(spans: &mut Vec<Span>) {
    debug_assert!(
        spans.windows(2).all(|w| w[0] <= w[1]),
        "spans must be sorted"
    );
    let mut w = 0;
    for i in 1..spans.len() {
        if spans[i].first <= spans[w].last.saturating_add(1) {
            spans[w].last = spans[w].last.max(spans[i].last);
        } else {
            w += 1;
            spans[w] = spans[i];
        }
    }
    spans.truncate(if spans.is_empty() { 0 } else { w + 1 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{HilbertCurve, MortonCurve};

    fn check_exact_cover(curve: &dyn SpaceFillingCurve, query: &BoundingBox) {
        let spans = spans_of_box(curve, query);
        // Volume matches.
        assert_eq!(spans.iter().map(Span::len).sum::<u128>(), query.num_cells());
        // Sorted, disjoint, non-adjacent (maximal).
        for w in spans.windows(2) {
            assert!(w[0].last + 1 < w[1].first, "spans not maximal: {w:?}");
        }
        // Every covered index maps into the box, every box point is covered.
        for s in &spans {
            assert!(query.contains_point(&curve.point_of(s.first)));
            assert!(query.contains_point(&curve.point_of(s.last)));
        }
        for p in query.iter_points() {
            let i = curve.index_of(&p[..curve.ndim()]);
            assert!(
                spans.iter().any(|s| s.first <= i && i <= s.last),
                "point {p:?} (index {i}) uncovered"
            );
        }
    }

    #[test]
    fn full_domain_is_single_span() {
        let h = HilbertCurve::new(2, 3);
        let full = BoundingBox::from_sizes(&[8, 8]);
        let spans = spans_of_box(&h, &full);
        assert_eq!(spans, vec![Span { first: 0, last: 63 }]);
    }

    #[test]
    fn single_cell_is_single_span() {
        let h = HilbertCurve::new(2, 3);
        let cell = BoundingBox::new(&[5, 2], &[5, 2]);
        let spans = spans_of_box(&h, &cell);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].len(), 1);
        assert_eq!(spans[0].first, h.index_of(&[5, 2]));
    }

    #[test]
    fn hilbert_2d_exact_cover_various_boxes() {
        let h = HilbertCurve::new(2, 4);
        for bb in [
            BoundingBox::new(&[0, 0], &[7, 3]),
            BoundingBox::new(&[3, 3], &[12, 9]),
            BoundingBox::new(&[1, 14], &[14, 15]),
            BoundingBox::new(&[0, 0], &[15, 15]),
        ] {
            check_exact_cover(&h, &bb);
        }
    }

    #[test]
    fn morton_2d_exact_cover() {
        let m = MortonCurve::new(2, 4);
        check_exact_cover(&m, &BoundingBox::new(&[2, 5], &[11, 13]));
    }

    #[test]
    fn hilbert_3d_exact_cover() {
        let h = HilbertCurve::new(3, 3);
        check_exact_cover(&h, &BoundingBox::new(&[1, 0, 2], &[6, 7, 5]));
    }

    #[test]
    fn paper_figure6_shape_8x8() {
        // Fig. 6: an 8x8 domain linearized and divided across 4 DHT cores
        // of 16 indices each. A quadrant-aligned box must be one span.
        let h = HilbertCurve::new(2, 3);
        let quadrant = BoundingBox::new(&[0, 0], &[3, 3]);
        let spans = spans_of_box(&h, &quadrant);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].len(), 16);
    }

    #[test]
    fn merge_spans_merges_adjacent() {
        let mut v = vec![
            Span { first: 0, last: 3 },
            Span { first: 4, last: 7 },
            Span {
                first: 10,
                last: 11,
            },
        ];
        merge_spans(&mut v);
        assert_eq!(
            v,
            vec![
                Span { first: 0, last: 7 },
                Span {
                    first: 10,
                    last: 11
                }
            ]
        );
    }

    #[test]
    fn merge_spans_handles_empty() {
        let mut v: Vec<Span> = Vec::new();
        merge_spans(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn span_intersect() {
        let a = Span { first: 0, last: 10 };
        let b = Span { first: 5, last: 20 };
        assert_eq!(a.intersect(&b), Some(Span { first: 5, last: 10 }));
        let c = Span {
            first: 11,
            last: 12,
        };
        assert_eq!(a.intersect(&c), None);
    }

    #[test]
    fn boxes_of_span_roundtrip() {
        // spans(box) -> boxes(span) covers exactly the original cells.
        let h = HilbertCurve::new(2, 4);
        let query = BoundingBox::new(&[3, 5], &[12, 11]);
        let spans = spans_of_box(&h, &query);
        let mut covered = std::collections::HashSet::new();
        for s in &spans {
            for b in boxes_of_span(&h, s) {
                for p in b.iter_points() {
                    assert!(covered.insert((p[0], p[1])), "cell covered twice at {p:?}");
                    assert!(query.contains_point(&p), "cell {p:?} outside query");
                }
            }
        }
        assert_eq!(covered.len() as u128, query.num_cells());
    }

    #[test]
    fn boxes_of_span_volume_matches_length() {
        let h = HilbertCurve::new(3, 3);
        for s in [
            Span { first: 0, last: 63 },
            Span {
                first: 17,
                last: 93,
            },
            Span {
                first: 511,
                last: 511,
            },
        ] {
            let boxes = boxes_of_span(&h, &s);
            let vol: u128 = boxes.iter().map(|b| b.num_cells()).sum();
            assert_eq!(vol, s.len(), "{s:?}");
        }
    }

    #[test]
    fn dht_interval_region_figure6() {
        // Fig. 6: core 0 of four owns indices [0, 15] of the 8x8 domain —
        // exactly the first Hilbert quadrant.
        let h = HilbertCurve::new(2, 3);
        let boxes = boxes_of_span(&h, &Span { first: 0, last: 15 });
        assert_eq!(boxes, vec![BoundingBox::new(&[0, 0], &[3, 3])]);
    }

    #[test]
    #[should_panic(expected = "exceeds curve domain")]
    fn rejects_oversized_query() {
        let h = HilbertCurve::new(2, 3);
        spans_of_box(&h, &BoundingBox::new(&[0, 0], &[8, 8]));
    }

    #[test]
    fn hilbert_fewer_spans_than_morton_typically() {
        // Locality ablation: across a family of offset boxes the Hilbert
        // decomposition should not need more spans in aggregate.
        let h = HilbertCurve::new(2, 5);
        let m = MortonCurve::new(2, 5);
        let mut hs = 0usize;
        let mut ms = 0usize;
        for off in 0..8u64 {
            let b = BoundingBox::new(&[off, off + 1], &[off + 12, off + 9]);
            hs += spans_of_box(&h, &b).len();
            ms += spans_of_box(&m, &b).len();
        }
        assert!(hs <= ms, "hilbert {hs} spans vs morton {ms}");
    }
}
