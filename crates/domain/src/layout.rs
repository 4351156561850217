//! Row-major linearization of boxes and strided sub-box copies.
//!
//! Data for a box is stored as a dense row-major array (last dimension
//! fastest), the layout a Fortran/C mesh code would register with the
//! framework. Redistribution assembles a destination box from pieces of
//! several source boxes, which is the n-dimensional strided copy
//! implemented here.

use crate::bbox::{BoundingBox, MAX_DIMS};

/// Linear index of point `p` inside the dense row-major array of `bbox`.
///
/// # Panics
/// Debug-panics if the point lies outside the box.
#[inline]
pub fn linear_index(bbox: &BoundingBox, p: &[u64]) -> usize {
    debug_assert!(bbox.contains_point(p));
    let mut idx: u64 = 0;
    for d in 0..bbox.ndim() {
        idx = idx * bbox.extent(d) + (p[d] - bbox.lb(d));
    }
    idx as usize
}

/// Copy the cells of `region` from the dense array of `src_box` into the
/// dense array of `dst_box`.
///
/// `region` must be contained in both boxes. The trailing dimensions over
/// which `region` spans both boxes fold into one contiguous run copied
/// with `copy_from_slice`; the remaining leading dimensions are walked by
/// a [`RowWalk`], each run's offsets stepping by stride.
///
/// # Panics
/// Panics if `region` is not contained in both boxes or if array lengths
/// do not match their boxes.
pub fn copy_region<T: Copy>(
    src: &[T],
    src_box: &BoundingBox,
    dst: &mut [T],
    dst_box: &BoundingBox,
    region: &BoundingBox,
) {
    assert_eq!(
        src.len() as u128,
        src_box.num_cells(),
        "src length mismatch"
    );
    assert_eq!(
        dst.len() as u128,
        dst_box.num_cells(),
        "dst length mismatch"
    );
    assert!(src_box.contains_box(region), "region outside src box");
    assert!(dst_box.contains_box(region), "region outside dst box");

    let ndim = region.ndim();
    let lo = region.lower();

    // Fold every trailing dim the region spans in both boxes into the
    // contiguous run; dims [0, outer) are left to walk.
    let spans = |dim| {
        [src_box, dst_box]
            .iter()
            .all(|b| region.lb(dim) == b.lb(dim) && region.ub(dim) == b.ub(dim))
    };
    let mut outer = ndim - 1;
    let mut run = region.extent(outer) as usize;
    while outer > 0 && spans(outer) {
        outer -= 1;
        run *= region.extent(outer) as usize;
    }

    // Both arrays' strides of every dim.
    let mut strides = [(0usize, 0usize); MAX_DIMS];
    let (mut s_stride, mut d_stride) = (1, 1);
    for dim in (0..ndim).rev() {
        strides[dim] = (s_stride, d_stride);
        s_stride *= src_box.extent(dim) as usize;
        d_stride *= dst_box.extent(dim) as usize;
    }

    // The innermost walked dim is a plain loop of `runs` runs one stride
    // apart, so the walk below steps once per plane of runs, not around
    // every `memcpy` call. It walks the dims before that one, and
    // `heads[dim]` holds both offsets with the dims before `dim` at their
    // positions and the rest at the region's corner, so a plane
    // re-derives only the heads from the dim that moved.
    let inner = outer.saturating_sub(1);
    let runs = if outer == 0 { 1 } else { region.extent(inner) };
    let (s_run, d_run) = strides[inner];
    let mut heads = [(0, 0); MAX_DIMS];
    heads[0] = (
        linear_index(src_box, &lo[..ndim]),
        linear_index(dst_box, &lo[..ndim]),
    );
    let mut planes = RowWalk::new(region, inner);
    while let Some(moved) = planes.next() {
        for dim in moved..inner {
            let (i, (s_step, d_step)) = (planes.pos(dim) as usize, strides[dim]);
            let (s, d) = heads[dim];
            heads[dim + 1] = (s + i * s_step, d + i * d_step);
        }
        let (mut s, mut d) = heads[inner];
        for _ in 0..runs {
            dst[d..d + run].copy_from_slice(&src[s..s + run]);
            (s, d) = (s + s_run, d + d_run);
        }
    }
}

/// An odometer over the rows of a box's dense row-major array: the
/// positions of its first `dims` dimensions, the last of them fastest,
/// the dimensions after them being the row itself.
///
/// Each step yields the outermost walked dimension whose position
/// changed, every walked dimension after it being back at 0, so a
/// caller that keeps one partial state per dimension re-derives only
/// the states from that one on: a row costs the dimensions that moved,
/// not all of them. The first row yields 0, so everything is derived
/// once; a walk of no dimensions is one row.
#[derive(Debug)]
pub struct RowWalk {
    extent: [u64; MAX_DIMS],
    pos: [u64; MAX_DIMS],
    /// Walked dims; 0 once the walk is over, so it stays over.
    dims: usize,
    started: bool,
}

impl RowWalk {
    /// The walk over the first `dims` dimensions of `bbox`, before its
    /// first row.
    ///
    /// # Panics
    /// Panics if `dims` exceeds the box's dimensions.
    #[inline]
    pub fn new(bbox: &BoundingBox, dims: usize) -> Self {
        assert!(
            dims <= bbox.ndim(),
            "walking {dims} dims of a {}-D box",
            bbox.ndim()
        );
        let mut extent = [1; MAX_DIMS];
        for (dim, e) in extent[..dims].iter_mut().enumerate() {
            *e = bbox.extent(dim);
        }
        RowWalk {
            extent,
            pos: [0; MAX_DIMS],
            dims,
            started: false,
        }
    }

    /// The current row's position along walked dimension `dim`, from 0
    /// at the box's lower bound.
    #[inline]
    pub fn pos(&self, dim: usize) -> u64 {
        self.pos[dim]
    }
}

impl Iterator for RowWalk {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if !self.started {
            self.started = true;
            return Some(0);
        }
        for dim in (0..self.dims).rev() {
            self.pos[dim] += 1;
            if self.pos[dim] < self.extent[dim] {
                return Some(dim);
            }
            self.pos[dim] = 0;
        }
        self.dims = 0;
        None
    }
}

/// Fill the dense array of `bbox` with `f(point)` evaluated at every cell,
/// row-major. Used by tests and the synthetic workloads to create
/// verifiable data.
pub fn fill_with<T, F: FnMut(&[u64]) -> T>(bbox: &BoundingBox, mut f: F) -> Vec<T> {
    let mut out = Vec::with_capacity(bbox.num_cells() as usize);
    for p in bbox.iter_points() {
        out.push(f(&p[..bbox.ndim()]));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BoundingBox;
    use insitu_util::check::forall;
    use insitu_util::SplitMix64;

    #[test]
    fn linear_index_row_major() {
        let b = BoundingBox::new(&[0, 0], &[2, 3]);
        assert_eq!(linear_index(&b, &[0, 0]), 0);
        assert_eq!(linear_index(&b, &[0, 3]), 3);
        assert_eq!(linear_index(&b, &[1, 0]), 4);
        assert_eq!(linear_index(&b, &[2, 3]), 11);
    }

    #[test]
    fn linear_index_respects_origin() {
        let b = BoundingBox::new(&[5, 10], &[7, 13]);
        assert_eq!(linear_index(&b, &[5, 10]), 0);
        assert_eq!(linear_index(&b, &[6, 10]), 4);
    }

    fn tag(p: &[u64]) -> u64 {
        p.iter().fold(1u64, |a, &x| a * 1000 + x)
    }

    #[test]
    fn copy_region_2d() {
        let src_box = BoundingBox::new(&[0, 0], &[7, 7]);
        let dst_box = BoundingBox::new(&[4, 4], &[11, 11]);
        let region = BoundingBox::new(&[5, 4], &[7, 7]);
        let src = fill_with(&src_box, tag);
        let mut dst = vec![0u64; dst_box.num_cells() as usize];
        copy_region(&src, &src_box, &mut dst, &dst_box, &region);
        for p in dst_box.iter_points() {
            let expect = if region.contains_point(&p) {
                tag(&p[..2])
            } else {
                0
            };
            assert_eq!(dst[linear_index(&dst_box, &p[..2])], expect, "at {p:?}");
        }
    }

    #[test]
    fn copy_region_3d() {
        let src_box = BoundingBox::new(&[0, 0, 0], &[3, 3, 3]);
        let dst_box = BoundingBox::new(&[2, 2, 2], &[5, 5, 5]);
        let region = BoundingBox::new(&[2, 2, 2], &[3, 3, 3]);
        let src = fill_with(&src_box, tag);
        let mut dst = vec![0u64; dst_box.num_cells() as usize];
        copy_region(&src, &src_box, &mut dst, &dst_box, &region);
        for p in region.iter_points() {
            assert_eq!(dst[linear_index(&dst_box, &p[..3])], tag(&p[..3]));
        }
        // Outside the region must stay zero.
        let untouched = dst_box
            .iter_points()
            .filter(|p| !region.contains_point(p))
            .map(|p| dst[linear_index(&dst_box, &p[..3])])
            .all(|v| v == 0);
        assert!(untouched);
    }

    #[test]
    fn copy_region_1d() {
        let src_box = BoundingBox::new(&[0], &[9]);
        let dst_box = BoundingBox::new(&[5], &[14]);
        let region = BoundingBox::new(&[5], &[9]);
        let src: Vec<u64> = (0..10).collect();
        let mut dst = vec![0u64; 10];
        copy_region(&src, &src_box, &mut dst, &dst_box, &region);
        assert_eq!(&dst[..5], &[5, 6, 7, 8, 9]);
        assert_eq!(&dst[5..], &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn copy_region_full_overlap_is_identity() {
        let b = BoundingBox::new(&[0, 0, 0], &[2, 2, 2]);
        let src = fill_with(&b, tag);
        let mut dst = vec![0u64; src.len()];
        copy_region(&src, &b, &mut dst, &b, &b);
        assert_eq!(src, dst);
    }

    /// A random 1–4-D region (extents often 1) and two boxes holding it.
    /// Each side of each box sits on the region half the time and
    /// otherwise reaches 1–3 cells past it, so trailing spans fold in one
    /// box and not the other, and regions sit at box corners.
    fn arb_region_in_two_boxes(rng: &mut SplitMix64) -> [BoundingBox; 3] {
        let nd = rng.range_usize(1, MAX_DIMS + 1);
        let lb: Vec<u64> = (0..nd).map(|_| rng.range_u64(3, 60)).collect();
        let ub: Vec<u64> = lb
            .iter()
            .map(|&l| l + rng.range_u64(0, 2) * rng.range_u64(0, 6))
            .collect();
        let pad = |rng: &mut SplitMix64| rng.range_u64(0, 2) * rng.range_u64(1, 4);
        let around = |rng: &mut SplitMix64| {
            let l: Vec<u64> = lb.iter().map(|&l| l - pad(rng)).collect();
            let u: Vec<u64> = ub.iter().map(|&u| u + pad(rng)).collect();
            BoundingBox::new(&l, &u)
        };
        [around(rng), around(rng), BoundingBox::new(&lb, &ub)]
    }

    #[test]
    fn copy_region_moves_exactly_the_cells_a_per_point_copy_does() {
        forall(600, |rng| {
            let [src_box, dst_box, region] = arb_region_in_two_boxes(rng);
            let nd = region.ndim();
            let src = fill_with(&src_box, tag);
            let untouched = vec![u64::MAX; dst_box.num_cells() as usize];
            let mut want = untouched.clone();
            for p in region.iter_points() {
                want[linear_index(&dst_box, &p[..nd])] = src[linear_index(&src_box, &p[..nd])];
            }
            let mut dst = untouched;
            copy_region(&src, &src_box, &mut dst, &dst_box, &region);
            assert_eq!(
                dst, want,
                "src {src_box:?}, dst {dst_box:?}, region {region:?}"
            );
        });
    }

    #[test]
    fn a_row_walk_visits_every_row_and_names_the_outermost_dim_that_moved() {
        forall(300, |rng| {
            let nd = rng.range_usize(1, MAX_DIMS + 1);
            let lb: Vec<u64> = (0..nd).map(|_| rng.range_u64(0, 100)).collect();
            let ub: Vec<u64> = lb.iter().map(|&l| l + rng.range_u64(0, 4)).collect();
            let b = BoundingBox::new(&lb, &ub);
            let dims = rng.range_usize(0, nd + 1);
            let mut walk = RowWalk::new(&b, dims);
            let mut prev: Option<Vec<u64>> = None;
            let mut rows = 0u128;
            while let Some(moved) = walk.next() {
                let pos: Vec<u64> = (0..dims).map(|d| walk.pos(d)).collect();
                let want = prev.as_ref().map_or(0, |p| {
                    (0..dims).find(|&d| p[d] != pos[d]).expect("a row moved")
                });
                assert_eq!(moved, want, "box {b:?}, {dims} dims, at {pos:?}");
                if let Some(p) = &prev {
                    assert!(pos > *p, "rows in row-major order");
                }
                prev = Some(pos);
                rows += 1;
            }
            let heads: u128 = (0..dims).map(|d| u128::from(b.extent(d))).product();
            assert_eq!(rows, heads, "box {b:?}, {dims} dims");
            assert_eq!(walk.next(), None, "a finished walk stays finished");
        });
    }

    #[test]
    #[should_panic(expected = "region outside src box")]
    fn copy_region_rejects_bad_region() {
        let a = BoundingBox::new(&[0], &[3]);
        let b = BoundingBox::new(&[0], &[9]);
        let src = vec![0u64; 4];
        let mut dst = vec![0u64; 10];
        copy_region(&src, &a, &mut dst, &b, &BoundingBox::new(&[2], &[5]));
    }

    #[test]
    #[should_panic(expected = "src length mismatch")]
    fn copy_region_rejects_bad_length() {
        let a = BoundingBox::new(&[0], &[3]);
        let src = vec![0u64; 3];
        let mut dst = vec![0u64; 4];
        copy_region(&src, &a, &mut dst, &a, &a);
    }
}
