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
}
