//! Near-neighbor (halo) exchange geometry.
//!
//! The paper models intra-application communication with "2D or 3D
//! stencil-like near-neighbor data exchanges", the dominant pattern of the
//! targeted data-parallel codes. This module enumerates the exchange pairs
//! and per-pair cell volumes for a decomposition: each rank trades a halo
//! of width `w` with its grid neighbors along every dimension.

use crate::decomp::Decomposition;
use crate::dist::count_owned_in_range;

/// One bidirectional halo exchange between two grid-neighbor ranks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HaloExchange {
    /// Lower-coordinate rank of the pair.
    pub rank_a: u64,
    /// Higher-coordinate rank (neighbor of `rank_a` along `dim`).
    pub rank_b: u64,
    /// Dimension along which the pair are neighbors.
    pub dim: usize,
    /// Cells sent in each direction of the exchange.
    pub cells: u128,
}

/// Number of positions owned by grid coordinate `g` of dimension `d`.
fn owned_extent(dec: &Decomposition, d: usize, g: u64) -> u64 {
    let extent = dec.domain().extent(d);
    count_owned_in_range(0, extent - 1, dec.block_extent(d), dec.grid().dim(d), g)
}

/// Enumerate all halo exchanges of `dec` with halo width `halo` (cells per
/// direction per face). Pairs whose shared face is empty (an edge rank that
/// owns no cells in some dimension) are omitted.
///
/// Boundaries are non-periodic: coordinate `p-1` has no `+1` neighbor.
pub fn halo_exchanges(dec: &Decomposition, halo: u64) -> Vec<HaloExchange> {
    let ndim = dec.domain().ndim();
    let mut out = Vec::new();
    for rank in 0..dec.num_ranks() {
        let c = dec.coords_of(rank);
        // Face area factors per dimension for this rank.
        let owned: Vec<u64> = (0..ndim).map(|d| owned_extent(dec, d, c[d])).collect();
        if owned.contains(&0) {
            continue; // rank owns nothing
        }
        for d in 0..ndim {
            if c[d] + 1 >= dec.grid().dim(d) {
                continue;
            }
            // Neighbor one step up in dim d.
            let mut nc = c;
            nc[d] += 1;
            if owned_extent(dec, d, nc[d]) == 0 {
                continue;
            }
            let neighbor = dec.grid().rank_of(&nc);
            let face: u128 = (0..ndim)
                .filter(|&dd| dd != d)
                .map(|dd| owned[dd] as u128)
                .product();
            let depth = (halo as u128).min(owned[d] as u128);
            out.push(HaloExchange {
                rank_a: rank,
                rank_b: neighbor,
                dim: d,
                cells: face * depth,
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbox::BoundingBox;
    use crate::dist::Distribution;
    use crate::grid::ProcessGrid;

    fn dec(sizes: &[u64], procs: &[u64], dist: Distribution) -> Decomposition {
        Decomposition::new(
            BoundingBox::from_sizes(sizes),
            ProcessGrid::new(procs),
            dist,
        )
    }

    #[test]
    fn exchange_count_2d_grid() {
        // 3x3 grid: 2 edges per row x 3 rows x 2 orientations = 12 pairs.
        let d = dec(&[9, 9], &[3, 3], Distribution::Blocked);
        assert_eq!(halo_exchanges(&d, 1).len(), 12);
    }

    #[test]
    fn face_sizes_blocked_divisible() {
        // 8x8 over 2x2: each rank owns 4x4, each face = 4 cells x halo 1.
        let d = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let ex = halo_exchanges(&d, 1);
        assert_eq!(ex.len(), 4);
        assert!(ex.iter().all(|e| e.cells == 4));
    }

    #[test]
    fn halo_width_scales_volume() {
        let d = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let w1: u128 = halo_exchanges(&d, 1).iter().map(|e| e.cells).sum();
        let w2: u128 = halo_exchanges(&d, 2).iter().map(|e| e.cells).sum();
        assert_eq!(w2, 2 * w1);
    }

    #[test]
    fn halo_clamped_to_owned_depth() {
        // Each rank owns 4 cells deep; halo 10 clamps to 4.
        let d = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let ex = halo_exchanges(&d, 10);
        assert!(ex.iter().all(|e| e.cells == 4 * 4));
    }

    #[test]
    fn empty_edge_ranks_skip_exchanges() {
        // extent 9 over 4 procs blocked: coord 3 owns nothing in dim 0.
        let d = dec(&[9], &[4], Distribution::Blocked);
        let ex = halo_exchanges(&d, 1);
        // Pairs (0,1), (1,2) only; (2,3) dropped.
        assert_eq!(ex.len(), 2);
    }

    #[test]
    fn exchange_3d_face_area() {
        let d = dec(&[8, 8, 8], &[2, 2, 2], Distribution::Blocked);
        let ex = halo_exchanges(&d, 1);
        // 2x2x2 grid: 12 pairs, each face 4x4 cells.
        assert_eq!(ex.len(), 12);
        assert!(ex.iter().all(|e| e.cells == 16));
    }

    #[test]
    fn total_counts_both_directions() {
        let d = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let both: u128 = halo_exchanges(&d, 1).iter().map(|e| 2 * e.cells).sum();
        assert_eq!(both, 2 * 4 * 4);
    }

    #[test]
    fn cyclic_distribution_still_produces_exchanges() {
        let d = dec(&[8, 8], &[2, 2], Distribution::Cyclic);
        let ex = halo_exchanges(&d, 1);
        assert_eq!(ex.len(), 4);
        // Each coordinate owns 4 positions per dim.
        assert!(ex.iter().all(|e| e.cells == 4));
    }
}
