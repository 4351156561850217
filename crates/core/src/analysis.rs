//! In-situ analysis kernels — the operations the paper's motivating
//! end-to-end workflows run on coupled data ("parallel data analysis
//! and/or transformation operations (e.g., redistribution, interpolation,
//! reduction) are executed asynchronously and concurrently", §I).
//!
//! Each kernel consumes the dense row-major array of a retrieved region
//! (what a CoDS `get` returns), so an analysis application's task is:
//! `get` its region, apply kernels, publish or accumulate results.

use insitu_domain::{layout, BoundingBox};

/// Summary statistics of one region.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RegionStats {
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Number of cells.
    pub cells: u64,
}

impl RegionStats {
    /// Merge two partial statistics (for tree or all-reduce combination
    /// across analysis tasks).
    pub fn merge(self, other: RegionStats) -> RegionStats {
        if other.cells == 0 {
            return self;
        }
        if self.cells == 0 {
            return other;
        }
        let cells = self.cells + other.cells;
        RegionStats {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
            mean: (self.mean * self.cells as f64 + other.mean * other.cells as f64) / cells as f64,
            cells,
        }
    }
}

/// Compute min/max/mean of a retrieved region.
///
/// # Panics
/// Panics if `data` length does not match the region volume or is empty.
pub fn region_stats(region: &BoundingBox, data: &[f64]) -> RegionStats {
    assert_eq!(
        data.len() as u128,
        region.num_cells(),
        "data length mismatch"
    );
    assert!(!data.is_empty(), "empty region");
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    let mut sum = 0.0;
    for &v in data {
        min = min.min(v);
        max = max.max(v);
        sum += v;
    }
    RegionStats {
        min,
        max,
        mean: sum / data.len() as f64,
        cells: data.len() as u64,
    }
}

/// Downsample a region by integer `factor` per dimension (block mean):
/// the decimation step of an in-situ visualization pipeline. Returns the
/// coarse box (in coarse coordinates, origin at `region.lower()/factor`)
/// and its data.
///
/// # Panics
/// Panics if `factor` is zero, or region bounds are not aligned to
/// `factor` (extent and origin must be multiples).
pub fn downsample(region: &BoundingBox, data: &[f64], factor: u64) -> (BoundingBox, Vec<f64>) {
    assert!(factor > 0, "factor must be positive");
    assert_eq!(
        data.len() as u128,
        region.num_cells(),
        "data length mismatch"
    );
    let ndim = region.ndim();
    let mut lb = Vec::with_capacity(ndim);
    let mut ub = Vec::with_capacity(ndim);
    for d in 0..ndim {
        assert!(
            region.lb(d) % factor == 0 && region.extent(d).is_multiple_of(factor),
            "region not aligned to factor {factor} in dim {d}"
        );
        lb.push(region.lb(d) / factor);
        ub.push((region.ub(d) + 1) / factor - 1);
    }
    let coarse = BoundingBox::new(&lb, &ub);
    let mut out = vec![0.0f64; coarse.num_cells() as usize];
    let cells_per_block = (factor as f64).powi(ndim as i32);
    for p in region.iter_points() {
        let mut cp = [0u64; insitu_domain::MAX_DIMS];
        for d in 0..ndim {
            cp[d] = p[d] / factor;
        }
        out[layout::linear_index(&coarse, &cp[..ndim])] +=
            data[layout::linear_index(region, &p[..ndim])] / cells_per_block;
    }
    (coarse, out)
}

/// Resample a region onto a target box of different resolution by
/// multilinear interpolation — the "interpolation" transformation the
/// paper lists among staged data operations (§I). Source and target boxes
/// are both interpreted over the unit cube: cell centers at
/// `(i + 0.5) / extent` per dimension, so any two resolutions map onto
/// each other. Values outside the source are clamped to its border.
///
/// Supports 1-3 dimensions.
///
/// # Panics
/// Panics on rank mismatch, length mismatch or more than 3 dimensions.
#[allow(clippy::needless_range_loop)] // corner-weight loop indexes two arrays
pub fn resample(src_box: &BoundingBox, src: &[f64], dst_box: &BoundingBox) -> Vec<f64> {
    assert_eq!(src_box.ndim(), dst_box.ndim(), "rank mismatch");
    assert!(src_box.ndim() <= 3, "resample supports up to 3 dimensions");
    assert_eq!(
        src.len() as u128,
        src_box.num_cells(),
        "data length mismatch"
    );
    let ndim = src_box.ndim();
    let mut out = Vec::with_capacity(dst_box.num_cells() as usize);
    // Per-dim: fractional source coordinate for each target index.
    let coord = |d: usize, i: u64| -> (usize, usize, f64) {
        let t = (i as f64 - dst_box.lb(d) as f64 + 0.5) / dst_box.extent(d) as f64;
        let s = t * src_box.extent(d) as f64 - 0.5;
        let lo = s.floor().clamp(0.0, (src_box.extent(d) - 1) as f64);
        let hi = (lo + 1.0).min((src_box.extent(d) - 1) as f64);
        (lo as usize, hi as usize, (s - lo).clamp(0.0, 1.0))
    };
    let idx = |c: &[usize]| -> usize {
        let mut i = 0usize;
        for d in 0..ndim {
            i = i * src_box.extent(d) as usize + c[d];
        }
        i
    };
    for p in dst_box.iter_points() {
        let axes: Vec<(usize, usize, f64)> = (0..ndim).map(|d| coord(d, p[d])).collect();
        let mut acc = 0.0;
        for corner in 0..(1usize << ndim) {
            let mut c = [0usize; 3];
            let mut w = 1.0;
            for d in 0..ndim {
                let (lo, hi, f) = axes[d];
                if corner >> d & 1 == 0 {
                    c[d] = lo;
                    w *= 1.0 - f;
                } else {
                    c[d] = hi;
                    w *= f;
                }
            }
            acc += w * src[idx(&c[..ndim])];
        }
        out.push(acc);
    }
    out
}

/// Count cells at or above `threshold` — the scalar core of iso-surface
/// extent estimation.
pub fn count_above(data: &[f64], threshold: f64) -> u64 {
    data.iter().filter(|&&v| v >= threshold).count() as u64
}

/// Value histogram over `[lo, hi)` with `bins` buckets (out-of-range
/// values clamp to the end bins).
///
/// # Panics
/// Panics if `bins` is zero or `hi <= lo`.
pub fn histogram(data: &[f64], lo: f64, hi: f64, bins: usize) -> Vec<u64> {
    assert!(bins > 0, "bins must be positive");
    assert!(hi > lo, "hi must exceed lo");
    let mut h = vec![0u64; bins];
    let scale = bins as f64 / (hi - lo);
    for &v in data {
        let b = (((v - lo) * scale) as i64).clamp(0, bins as i64 - 1) as usize;
        h[b] += 1;
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_domain::layout::fill_with;

    #[test]
    fn stats_basic() {
        let b = BoundingBox::from_sizes(&[2, 2]);
        let s = region_stats(&b, &[1.0, 2.0, 3.0, 6.0]);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 6.0);
        assert_eq!(s.mean, 3.0);
        assert_eq!(s.cells, 4);
    }

    #[test]
    fn stats_merge_matches_whole() {
        let b = BoundingBox::from_sizes(&[4]);
        let whole = region_stats(&b, &[1.0, 5.0, 2.0, 8.0]);
        let left = region_stats(&BoundingBox::from_sizes(&[2]), &[1.0, 5.0]);
        let right = region_stats(&BoundingBox::from_sizes(&[2]), &[2.0, 8.0]);
        let merged = left.merge(right);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        assert!((merged.mean - whole.mean).abs() < 1e-12);
        assert_eq!(merged.cells, whole.cells);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let s = RegionStats {
            min: 1.0,
            max: 2.0,
            mean: 1.5,
            cells: 4,
        };
        let empty = RegionStats {
            min: 0.0,
            max: 0.0,
            mean: 0.0,
            cells: 0,
        };
        assert_eq!(s.merge(empty), s);
        assert_eq!(empty.merge(s), s);
    }

    #[test]
    fn downsample_block_means() {
        // 4x4 field of row-major indices, factor 2.
        let b = BoundingBox::from_sizes(&[4, 4]);
        let data = fill_with(&b, |p| (p[0] * 4 + p[1]) as f64);
        let (coarse, out) = downsample(&b, &data, 2);
        assert_eq!(coarse, BoundingBox::from_sizes(&[2, 2]));
        // Block (0,0): values 0,1,4,5 -> mean 2.5.
        assert!((out[0] - 2.5).abs() < 1e-12);
        // Block (1,1): values 10,11,14,15 -> mean 12.5.
        assert!((out[3] - 12.5).abs() < 1e-12);
    }

    #[test]
    fn downsample_preserves_mean() {
        let b = BoundingBox::from_sizes(&[8, 8]);
        let data = fill_with(&b, |p| ((p[0] * 37 + p[1] * 11) % 13) as f64);
        let s0 = region_stats(&b, &data);
        let (coarse, out) = downsample(&b, &data, 4);
        let s1 = region_stats(&coarse, &out);
        assert!((s0.mean - s1.mean).abs() < 1e-9);
    }

    #[test]
    fn downsample_offset_region() {
        // Region not at the origin but factor-aligned.
        let b = BoundingBox::new(&[4, 8], &[7, 11]);
        let data = vec![1.0; 16];
        let (coarse, out) = downsample(&b, &data, 2);
        assert_eq!(coarse, BoundingBox::new(&[2, 4], &[3, 5]));
        assert!(out.iter().all(|&v| (v - 1.0).abs() < 1e-12));
    }

    #[test]
    #[should_panic(expected = "not aligned")]
    fn downsample_rejects_ragged_region() {
        let b = BoundingBox::from_sizes(&[5, 4]);
        downsample(&b, &[0.0; 20], 2);
    }

    #[test]
    fn resample_identity_resolution() {
        let b = BoundingBox::from_sizes(&[4, 4]);
        let data = fill_with(&b, |p| (p[0] * 4 + p[1]) as f64);
        let out = resample(&b, &data, &b);
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn resample_constant_field_any_resolution() {
        let src = BoundingBox::from_sizes(&[6, 6]);
        let data = vec![3.5; 36];
        for sizes in [[2u64, 9], [12, 12], [1, 1]] {
            let dst = BoundingBox::from_sizes(&sizes);
            let out = resample(&src, &data, &dst);
            assert!(out.iter().all(|v| (v - 3.5).abs() < 1e-12), "{sizes:?}");
        }
    }

    #[test]
    fn resample_linear_ramp_preserved() {
        // A linear ramp in x is reproduced exactly by linear interpolation
        // at interior points.
        let src = BoundingBox::from_sizes(&[8]);
        let data: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let dst = BoundingBox::from_sizes(&[16]);
        let out = resample(&src, &data, &dst);
        // Cell centers of dst map to src coordinate s = t*8 - 0.5.
        for (i, v) in out.iter().enumerate() {
            let s = ((i as f64 + 0.5) / 16.0) * 8.0 - 0.5;
            let expect = s.clamp(0.0, 7.0);
            assert!((v - expect).abs() < 1e-9, "i={i} got {v} want {expect}");
        }
    }

    #[test]
    fn resample_downscale_means_reasonable() {
        let src = BoundingBox::from_sizes(&[8, 8]);
        let data = fill_with(&src, |p| p[0] as f64);
        let dst = BoundingBox::from_sizes(&[4, 4]);
        let out = resample(&src, &data, &dst);
        let s = region_stats(&dst, &out);
        // The x-ramp midpoint is 3.5.
        assert!((s.mean - 3.5).abs() < 0.01, "mean {}", s.mean);
    }

    #[test]
    fn resample_3d() {
        let src = BoundingBox::from_sizes(&[4, 4, 4]);
        let data = fill_with(&src, |p| (p[0] + p[1] + p[2]) as f64);
        let dst = BoundingBox::from_sizes(&[2, 2, 2]);
        let out = resample(&src, &data, &dst);
        assert_eq!(out.len(), 8);
        // Symmetric ramp: corners average around the global mean 4.5.
        let mean = out.iter().sum::<f64>() / 8.0;
        assert!((mean - 4.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn resample_rejects_rank_mismatch() {
        let a = BoundingBox::from_sizes(&[4]);
        let b = BoundingBox::from_sizes(&[4, 4]);
        resample(&a, &[0.0; 4], &b);
    }

    #[test]
    fn count_above_threshold() {
        assert_eq!(count_above(&[0.1, 0.5, 0.9, 0.5], 0.5), 3);
        assert_eq!(count_above(&[], 0.0), 0);
    }

    #[test]
    fn histogram_bins_and_clamps() {
        let h = histogram(&[-1.0, 0.0, 0.49, 0.5, 0.99, 2.0], 0.0, 1.0, 2);
        assert_eq!(h, vec![3, 3]);
    }
}
