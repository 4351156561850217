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
/// stride.
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
    let s = linear_index(src_box, &lo[..ndim]);
    let d = linear_index(dst_box, &lo[..ndim]);

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

    // Per walked dim: the region's extent and both arrays' strides.
    let mut steps = [(0u64, 0usize, 0usize); MAX_DIMS];
    let (mut s_stride, mut d_stride) = (1, 1);
    for dim in (0..ndim).rev() {
        steps[dim] = (region.extent(dim), s_stride, d_stride);
        s_stride *= src_box.extent(dim) as usize;
        d_stride *= dst_box.extent(dim) as usize;
    }

    walk(src, dst, &steps[..outer], s, d, run);
}

/// Copy `run` elements at every position of the walked dims `steps`,
/// offsets moving by stride.
fn walk<T: Copy>(
    src: &[T],
    dst: &mut [T],
    steps: &[(u64, usize, usize)],
    s: usize,
    d: usize,
    run: usize,
) {
    let Some((&(extent, s_step, d_step), inner)) = steps.split_first() else {
        dst[d..d + run].copy_from_slice(&src[s..s + run]);
        return;
    };
    for i in 0..extent as usize {
        walk(src, dst, inner, s + i * s_step, d + i * d_step, run);
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
