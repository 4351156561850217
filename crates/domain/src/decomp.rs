//! Domain decompositions: domain + process grid + distribution.
//!
//! A [`Decomposition`] answers the two questions the framework needs:
//!
//! 1. *Who owns what, and how much?* — overlap volumes between a query box
//!    and each rank's owned cell set, computed in closed form per dimension
//!    (never by enumerating cells). These weights drive the
//!    inter-application communication graph of the server-side data-centric
//!    mapper.
//! 2. *Which exact sub-boxes move?* — the rectangular pieces of a rank's
//!    owned set inside a query box, used to build M×N redistribution
//!    schedules for the actual data transfers.

use crate::bbox::{BoundingBox, Pt, MAX_DIMS};
use crate::dist::{count_owned_in_range, owned_ranges_in, Distribution};
use crate::grid::ProcessGrid;

/// Overlap between a query box and one rank's owned cells.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RankOverlap {
    /// Rank within the decomposition's process grid.
    pub rank: u64,
    /// Number of overlapped lattice cells.
    pub cells: u128,
}

/// A data-parallel application's decomposition of a multidimensional
/// domain across a process grid.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Decomposition {
    domain: BoundingBox,
    grid: ProcessGrid,
    dist: Distribution,
}

impl Decomposition {
    /// Create a decomposition.
    ///
    /// # Panics
    /// Panics if the domain and grid rank differ.
    pub fn new(domain: BoundingBox, grid: ProcessGrid, dist: Distribution) -> Self {
        assert_eq!(domain.ndim(), grid.ndim(), "domain/grid rank mismatch");
        Decomposition { domain, grid, dist }
    }

    /// The decomposed domain.
    #[inline]
    pub fn domain(&self) -> &BoundingBox {
        &self.domain
    }

    /// The process grid.
    #[inline]
    pub fn grid(&self) -> &ProcessGrid {
        &self.grid
    }

    /// Number of ranks.
    #[inline]
    pub fn num_ranks(&self) -> u64 {
        self.grid.num_ranks()
    }

    /// Effective block extent in dimension `d`.
    #[inline]
    pub fn block_extent(&self, d: usize) -> u64 {
        self.dist
            .block_extent(d, self.domain.extent(d), self.grid.dim(d))
    }

    /// Rank owning the lattice point `p`.
    ///
    /// # Panics
    /// Panics if the point lies outside the domain.
    pub fn owner_of_point(&self, p: &[u64]) -> u64 {
        assert!(self.domain.contains_point(p), "point outside domain");
        let mut coords = [0u64; MAX_DIMS];
        for d in 0..self.domain.ndim() {
            let rel = p[d] - self.domain.lb(d);
            let b = self.block_extent(d);
            coords[d] = (rel / b) % self.grid.dim(d);
        }
        self.grid.rank_of(&coords)
    }

    /// Total number of cells owned by `rank`.
    pub fn rank_cells(&self, rank: u64) -> u128 {
        self.overlap_cells(rank, &self.domain)
    }

    /// Number of cells of `query` (clamped to the domain) owned by `rank`.
    /// O(ndim), never enumerates cells.
    pub fn overlap_cells(&self, rank: u64, query: &BoundingBox) -> u128 {
        let Some(q) = self.domain.intersect(query) else {
            return 0;
        };
        let g = self.grid.coords_of(rank);
        let mut total: u128 = 1;
        for d in 0..self.domain.ndim() {
            let lo = q.lb(d) - self.domain.lb(d);
            let hi = q.ub(d) - self.domain.lb(d);
            let c = count_owned_in_range(lo, hi, self.block_extent(d), self.grid.dim(d), g[d]);
            if c == 0 {
                return 0;
            }
            total *= c as u128;
        }
        total
    }

    /// All ranks overlapping `query`, with overlap cell counts. Cost is
    /// O(sum of per-dim grid extents + number of overlapping ranks), which
    /// is what makes 8192-rank communication graphs cheap to build.
    pub fn overlaps(&self, query: &BoundingBox) -> Vec<RankOverlap> {
        let Some(q) = self.domain.intersect(query) else {
            return Vec::new();
        };
        let ndim = self.domain.ndim();
        // Per-dimension: count of overlapped positions for each grid coord.
        let mut counts: Vec<Vec<(u64, u64)>> = Vec::with_capacity(ndim); // (coord, count)
        for d in 0..ndim {
            let lo = q.lb(d) - self.domain.lb(d);
            let hi = q.ub(d) - self.domain.lb(d);
            let b = self.block_extent(d);
            let p = self.grid.dim(d);
            let mut v = Vec::new();
            for g in 0..p {
                let c = count_owned_in_range(lo, hi, b, p, g);
                if c > 0 {
                    v.push((g, c));
                }
            }
            counts.push(v);
        }
        // Cartesian product of nonzero coords across dimensions.
        let mut out = Vec::new();
        let mut idx = vec![0usize; ndim];
        if counts.iter().any(|v| v.is_empty()) {
            return out;
        }
        loop {
            let mut coords = [0u64; MAX_DIMS];
            let mut cells: u128 = 1;
            for d in 0..ndim {
                let (g, c) = counts[d][idx[d]];
                coords[d] = g;
                cells *= c as u128;
            }
            out.push(RankOverlap {
                rank: self.grid.rank_of(&coords),
                cells,
            });
            let mut d = ndim;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                if idx[d] + 1 < counts[d].len() {
                    idx[d] += 1;
                    for cd in d + 1..ndim {
                        idx[cd] = 0;
                    }
                    break;
                }
            }
        }
    }

    /// The rectangular pieces of `rank`'s owned set inside `query`
    /// (absolute coordinates). For blocked distributions this is at most a
    /// single box; for (block-)cyclic it is the lattice of owned blocks
    /// clipped to the query. Used to build redistribution schedules.
    pub fn pieces(&self, rank: u64, query: &BoundingBox) -> Vec<BoundingBox> {
        let Some(q) = self.domain.intersect(query) else {
            return Vec::new();
        };
        let ndim = self.domain.ndim();
        let g = self.grid.coords_of(rank);
        let mut ranges: Vec<Vec<(u64, u64)>> = Vec::with_capacity(ndim);
        for d in 0..ndim {
            let lo = q.lb(d) - self.domain.lb(d);
            let hi = q.ub(d) - self.domain.lb(d);
            let r = owned_ranges_in(lo, hi, self.block_extent(d), self.grid.dim(d), g[d]);
            if r.is_empty() {
                return Vec::new();
            }
            ranges.push(r);
        }
        let mut out = Vec::new();
        let mut idx = vec![0usize; ndim];
        loop {
            let mut lb = [0u64; MAX_DIMS];
            let mut ub = [0u64; MAX_DIMS];
            for d in 0..ndim {
                let (s, e) = ranges[d][idx[d]];
                lb[d] = s + self.domain.lb(d);
                ub[d] = e + self.domain.lb(d);
            }
            out.push(BoundingBox::new(&lb[..ndim], &ub[..ndim]));
            let mut d = ndim;
            loop {
                if d == 0 {
                    return out;
                }
                d -= 1;
                if idx[d] + 1 < ranges[d].len() {
                    idx[d] += 1;
                    for cd in d + 1..ndim {
                        idx[cd] = 0;
                    }
                    break;
                }
            }
        }
    }

    /// All pieces of `rank`'s owned set (absolute coordinates).
    pub fn rank_region(&self, rank: u64) -> Vec<BoundingBox> {
        self.pieces(rank, &self.domain)
    }

    /// For blocked distributions, the single box owned by `rank`, if any
    /// (edge ranks of a non-divisible domain may own nothing).
    pub fn blocked_box(&self, rank: u64) -> Option<BoundingBox> {
        debug_assert!(matches!(self.dist, Distribution::Blocked));
        let mut v = self.rank_region(rank);
        debug_assert!(v.len() <= 1);
        v.pop()
    }

    /// Grid coordinates of `rank` (delegates to the grid).
    pub fn coords_of(&self, rank: u64) -> Pt {
        self.grid.coords_of(rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d3(sizes: &[u64], procs: &[u64], dist: Distribution) -> Decomposition {
        Decomposition::new(
            BoundingBox::from_sizes(sizes),
            ProcessGrid::new(procs),
            dist,
        )
    }

    #[test]
    fn blocked_regions_tile_domain() {
        let dec = d3(&[8, 8], &[2, 4], Distribution::Blocked);
        let mut total = 0u128;
        for r in 0..dec.num_ranks() {
            let region = dec.rank_region(r);
            assert_eq!(region.len(), 1);
            total += region[0].num_cells();
        }
        assert_eq!(total, 64);
    }

    #[test]
    fn blocked_nondivisible_edge_ranks_shrink() {
        // extent 10 over 4 procs: b=3, coords own 3,3,3,1 positions.
        let dec = d3(&[10], &[4], Distribution::Blocked);
        let sizes: Vec<u128> = (0..4).map(|r| dec.rank_cells(r)).collect();
        assert_eq!(sizes, vec![3, 3, 3, 1]);
    }

    #[test]
    fn blocked_empty_edge_rank() {
        // extent 9 over 4 procs: b=3 -> coord 3 owns nothing.
        let dec = d3(&[9], &[4], Distribution::Blocked);
        assert_eq!(dec.rank_cells(3), 0);
        assert!(dec.rank_region(3).is_empty());
        assert!(dec.blocked_box(3).is_none());
    }

    #[test]
    fn owner_of_point_blocked() {
        let dec = d3(&[8, 8], &[2, 2], Distribution::Blocked);
        assert_eq!(dec.owner_of_point(&[0, 0, 0, 0]), 0);
        assert_eq!(dec.owner_of_point(&[0, 7, 0, 0]), 1);
        assert_eq!(dec.owner_of_point(&[7, 0, 0, 0]), 2);
        assert_eq!(dec.owner_of_point(&[7, 7, 0, 0]), 3);
    }

    #[test]
    fn cyclic_rank_cells_balanced() {
        let dec = d3(&[8, 8], &[2, 2], Distribution::Cyclic);
        for r in 0..4 {
            assert_eq!(dec.rank_cells(r), 16);
        }
    }

    #[test]
    fn overlap_cells_equals_brute_force() {
        for dist in [
            Distribution::Blocked,
            Distribution::Cyclic,
            Distribution::block_cyclic(&[3, 2]),
        ] {
            let dec = d3(&[11, 9], &[3, 2], dist);
            let q = BoundingBox::new(&[2, 1], &[9, 7]);
            for r in 0..dec.num_ranks() {
                let brute = q
                    .iter_points()
                    .filter(|p| dec.owner_of_point(&p[..2]) == r)
                    .count() as u128;
                assert_eq!(dec.overlap_cells(r, &q), brute, "{dist:?} rank {r}");
            }
        }
    }

    #[test]
    fn overlaps_sum_to_query_volume() {
        for dist in [
            Distribution::Blocked,
            Distribution::Cyclic,
            Distribution::block_cyclic(&[2, 3]),
        ] {
            let dec = d3(&[12, 10], &[2, 3], dist);
            let q = BoundingBox::new(&[1, 2], &[10, 9]);
            let total: u128 = dec.overlaps(&q).iter().map(|o| o.cells).sum();
            assert_eq!(total, q.num_cells(), "{dist:?}");
        }
    }

    #[test]
    fn overlaps_of_disjoint_query_is_empty() {
        let dec = d3(&[8, 8], &[2, 2], Distribution::Blocked);
        let q = BoundingBox::new(&[20, 20], &[30, 30]);
        assert!(dec.overlaps(&q).is_empty());
        assert_eq!(dec.overlap_cells(0, &q), 0);
    }

    #[test]
    fn overlaps_clamps_query_to_domain() {
        let dec = d3(&[8, 8], &[2, 2], Distribution::Blocked);
        let q = BoundingBox::new(&[4, 4], &[100, 100]);
        let total: u128 = dec.overlaps(&q).iter().map(|o| o.cells).sum();
        assert_eq!(total, 16);
    }

    #[test]
    fn pieces_cover_overlap_exactly() {
        for dist in [
            Distribution::Blocked,
            Distribution::Cyclic,
            Distribution::block_cyclic(&[2, 2]),
        ] {
            let dec = d3(&[9, 8], &[3, 2], dist);
            let q = BoundingBox::new(&[1, 1], &[7, 6]);
            for r in 0..dec.num_ranks() {
                let pieces = dec.pieces(r, &q);
                // Disjoint and total volume matches overlap_cells.
                let vol: u128 = pieces.iter().map(|b| b.num_cells()).sum();
                assert_eq!(vol, dec.overlap_cells(r, &q), "{dist:?} rank {r}");
                for (i, a) in pieces.iter().enumerate() {
                    assert!(q.contains_box(a));
                    for b in &pieces[i + 1..] {
                        assert!(a.intersect(b).is_none(), "pieces overlap");
                    }
                    for p in a.iter_points() {
                        assert_eq!(dec.owner_of_point(&p[..2]), r);
                    }
                }
            }
        }
    }

    #[test]
    fn nonzero_domain_origin() {
        let domain = BoundingBox::new(&[100, 50], &[107, 57]);
        let dec = Decomposition::new(domain, ProcessGrid::new(&[2, 2]), Distribution::Blocked);
        assert_eq!(dec.owner_of_point(&[100, 50, 0, 0]), 0);
        assert_eq!(dec.owner_of_point(&[107, 57, 0, 0]), 3);
        let q = BoundingBox::new(&[100, 50], &[107, 57]);
        let total: u128 = dec.overlaps(&q).iter().map(|o| o.cells).sum();
        assert_eq!(total, 64);
    }

    #[test]
    fn block_cyclic_3d_paper_scale_shape() {
        // A miniature of the paper's 3-D configuration.
        let dec = d3(
            &[64, 64, 64],
            &[4, 4, 4],
            Distribution::block_cyclic(&[8, 8, 8]),
        );
        assert_eq!(dec.num_ranks(), 64);
        for r in [0, 13, 63] {
            assert_eq!(dec.rank_cells(r), (64u128 * 64 * 64) / 64);
        }
    }

    #[test]
    #[should_panic(expected = "rank mismatch")]
    fn rejects_rank_mismatch() {
        Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[2, 2, 2]),
            Distribution::Blocked,
        );
    }
}
