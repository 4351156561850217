//! Process grids: the `(p_1, ..., p_n)` layout of a data-parallel
//! application's ranks over the dimensions of its data domain.

use crate::bbox::{pt, Pt, MAX_DIMS};

/// A Cartesian process layout. Rank 0 owns grid coordinate `(0,...,0)`;
/// ranks are numbered row-major with the last dimension varying fastest,
/// matching common MPI Cartesian-communicator conventions.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct ProcessGrid {
    ndim: u8,
    dims: Pt,
}

impl ProcessGrid {
    /// Create a grid from per-dimension process counts.
    ///
    /// # Panics
    /// Panics on an empty slice, more than [`MAX_DIMS`] dimensions, or a
    /// zero count in any dimension.
    pub fn new(dims: &[u64]) -> Self {
        assert!(
            !dims.is_empty() && dims.len() <= MAX_DIMS,
            "bad rank {}",
            dims.len()
        );
        for (d, &p) in dims.iter().enumerate() {
            assert!(p > 0, "zero processes in dim {d}");
        }
        ProcessGrid {
            ndim: dims.len() as u8,
            dims: pt(dims),
        }
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndim(&self) -> usize {
        self.ndim as usize
    }

    /// Process count along dimension `d`.
    #[inline]
    pub fn dim(&self, d: usize) -> u64 {
        debug_assert!(d < self.ndim());
        self.dims[d]
    }

    /// Total number of ranks in the grid.
    pub fn num_ranks(&self) -> u64 {
        (0..self.ndim()).map(|d| self.dims[d]).product()
    }

    /// Grid coordinates of `rank` (row-major, last dimension fastest).
    ///
    /// # Panics
    /// Panics if `rank >= num_ranks()`.
    pub fn coords_of(&self, rank: u64) -> Pt {
        assert!(rank < self.num_ranks(), "rank {rank} out of range");
        let mut c = [0u64; MAX_DIMS];
        let mut rem = rank;
        for d in (0..self.ndim()).rev() {
            c[d] = rem % self.dims[d];
            rem /= self.dims[d];
        }
        c
    }

    /// Rank owning grid coordinates `coords`.
    ///
    /// # Panics
    /// Panics if any coordinate exceeds the grid.
    pub fn rank_of(&self, coords: &[u64]) -> u64 {
        debug_assert!(coords.len() >= self.ndim());
        let mut rank = 0u64;
        for d in 0..self.ndim() {
            assert!(
                coords[d] < self.dims[d],
                "grid coord {} out of range in dim {d}",
                coords[d]
            );
            rank = rank * self.dims[d] + coords[d];
        }
        rank
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_roundtrip_3d() {
        let g = ProcessGrid::new(&[2, 3, 4]);
        assert_eq!(g.num_ranks(), 24);
        for r in 0..24 {
            let c = g.coords_of(r);
            assert_eq!(g.rank_of(&c), r);
        }
    }

    #[test]
    fn row_major_last_dim_fastest() {
        let g = ProcessGrid::new(&[2, 3]);
        assert_eq!(g.coords_of(0)[..2], [0, 0]);
        assert_eq!(g.coords_of(1)[..2], [0, 1]);
        assert_eq!(g.coords_of(3)[..2], [1, 0]);
    }

    #[test]
    #[should_panic(expected = "zero processes")]
    fn rejects_zero_dim() {
        ProcessGrid::new(&[2, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn coords_of_rejects_large_rank() {
        ProcessGrid::new(&[2, 2]).coords_of(4);
    }

    #[test]
    fn single_rank_grid() {
        let g = ProcessGrid::new(&[1, 1, 1]);
        assert_eq!(g.num_ranks(), 1);
        assert_eq!(g.coords_of(0), [0; MAX_DIMS]);
    }
}
