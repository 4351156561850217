//! Inter-application communication graph construction.
//!
//! For a bundle of concurrently coupled applications the server-side
//! mapper builds a graph whose vertices are computation tasks and whose
//! edges connect tasks of *different* applications that exchange coupled
//! data, weighted by overlap volume (§IV.B). Because all supported
//! distributions are separable per dimension, pairwise overlaps are
//! computed dimension-by-dimension with a single sweep over block
//! boundaries — never by enumerating cells — so 8192-task graphs are cheap.

use crate::spec::AppSpec;
use insitu_domain::{BoundingBox, Decomposition};
use insitu_partition::{Graph, GraphBuilder};

/// Joint ownership counts between two block-cyclic layouts of the same
/// 1-D extent, within the inclusive position window `[lo, hi]`:
/// `m[g1][g2]` = number of positions owned by coordinate `g1` of layout 1
/// *and* coordinate `g2` of layout 2. One sweep over block boundaries,
/// O((hi - lo) / min(b1, b2)) steps; the window is the per-dimension
/// primitive of interface-region coupling.
pub(crate) fn joint_dim_counts_range(
    lo: u64,
    hi: u64,
    b1: u64,
    p1: u64,
    b2: u64,
    p2: u64,
) -> Vec<Vec<u64>> {
    assert!(b1 > 0 && b2 > 0 && p1 > 0 && p2 > 0);
    assert!(lo <= hi, "empty window");
    let mut m = vec![vec![0u64; p2 as usize]; p1 as usize];
    let mut x = lo;
    loop {
        let g1 = (x / b1) % p1;
        let g2 = (x / b2) % p2;
        let next = ((x / b1 + 1) * b1).min((x / b2 + 1) * b2).min(hi + 1);
        m[g1 as usize][g2 as usize] += next - x;
        if next > hi {
            return m;
        }
        x = next;
    }
}

/// Pairwise task-overlap volumes between two decompositions of the same
/// domain, as a sparse list `(rank_a, rank_b, cells)`.
#[allow(clippy::needless_range_loop)]
pub fn pairwise_overlaps(a: &Decomposition, b: &Decomposition) -> Vec<(u64, u64, u128)> {
    pairwise_overlaps_region(a, b, a.domain())
}

/// [`pairwise_overlaps`] restricted to a coupled `region` (clamped to the
/// domain): the interface-region coupling of Fig. 1's climate case, where
/// only the boundary layer is exchanged.
#[allow(clippy::needless_range_loop)]
pub fn pairwise_overlaps_region(
    a: &Decomposition,
    b: &Decomposition,
    region: &BoundingBox,
) -> Vec<(u64, u64, u128)> {
    assert_eq!(
        a.domain(),
        b.domain(),
        "coupled apps must share the data domain"
    );
    let Some(region) = a.domain().intersect(region) else {
        return Vec::new();
    };
    let ndim = a.domain().ndim();
    // Per-dimension sparse joint counts.
    let mut dims: Vec<Vec<(u64, u64, u64)>> = Vec::with_capacity(ndim);
    for d in 0..ndim {
        let lo = region.lb(d) - a.domain().lb(d);
        let hi = region.ub(d) - a.domain().lb(d);
        let m = joint_dim_counts_range(
            lo,
            hi,
            a.block_extent(d),
            a.grid().dim(d),
            b.block_extent(d),
            b.grid().dim(d),
        );
        let mut sparse = Vec::new();
        for (g1, row) in m.iter().enumerate() {
            for (g2, &c) in row.iter().enumerate() {
                if c > 0 {
                    sparse.push((g1 as u64, g2 as u64, c));
                }
            }
        }
        dims.push(sparse);
    }
    // Cartesian product of nonzero per-dim pairs -> nonzero rank pairs.
    let mut out = Vec::new();
    let mut idx = vec![0usize; ndim];
    if dims.iter().any(|d| d.is_empty()) {
        return out;
    }
    loop {
        let mut ca = [0u64; insitu_domain::MAX_DIMS];
        let mut cb = [0u64; insitu_domain::MAX_DIMS];
        let mut cells: u128 = 1;
        for d in 0..ndim {
            let (g1, g2, c) = dims[d][idx[d]];
            ca[d] = g1;
            cb[d] = g2;
            cells *= c as u128;
        }
        out.push((a.grid().rank_of(&ca), b.grid().rank_of(&cb), cells));
        let mut d = ndim;
        loop {
            if d == 0 {
                return out;
            }
            d -= 1;
            if idx[d] + 1 < dims[d].len() {
                idx[d] += 1;
                for cd in d + 1..ndim {
                    idx[cd] = 0;
                }
                break;
            }
        }
    }
}

/// The inter-application communication graph of a bundle, plus the global
/// vertex offset of each app's task 0, with the coupling restricted to
/// `region` (interface-region coupling); `None` couples the full shared
/// domain.
///
/// Vertex `offsets[i] + rank` is task `rank` of `apps[i]`. Edge weights
/// are coupled bytes (`cells * elem_bytes`).
///
/// # Panics
/// Panics if any app lacks a decomposition or domains differ.
pub fn build_inter_app_graph_region(
    apps: &[&AppSpec],
    elem_bytes: u64,
    region: Option<&BoundingBox>,
) -> (Graph, Vec<u32>) {
    assert!(!apps.is_empty());
    let mut offsets = Vec::with_capacity(apps.len());
    let mut total = 0u32;
    for a in apps {
        offsets.push(total);
        total += a.ntasks;
    }
    let mut builder = GraphBuilder::new(total);
    for i in 0..apps.len() {
        for j in i + 1..apps.len() {
            let da = apps[i]
                .decomposition
                .as_ref()
                .unwrap_or_else(|| panic!("app {} lacks a decomposition", apps[i].id));
            let db = apps[j]
                .decomposition
                .as_ref()
                .unwrap_or_else(|| panic!("app {} lacks a decomposition", apps[j].id));
            let coupled = region.copied().unwrap_or(*da.domain());
            for (ra, rb, cells) in pairwise_overlaps_region(da, db, &coupled) {
                let w = (cells as u64).saturating_mul(elem_bytes);
                builder.add_edge(offsets[i] + ra as u32, offsets[j] + rb as u32, w);
            }
        }
    }
    (builder.build(), offsets)
}

/// Fan-out statistics of the coupling between two decompositions: for
/// each consumer rank of `b`, how many producer ranks of `a` it must
/// contact. This quantifies Fig. 10's mismatched-distribution effect.
pub fn fanout_per_consumer(a: &Decomposition, b: &Decomposition) -> Vec<u32> {
    let mut fanout = vec![0u32; b.num_ranks() as usize];
    for (_ra, rb, _cells) in pairwise_overlaps(a, b) {
        fanout[rb as usize] += 1;
    }
    fanout
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_domain::{BoundingBox, Distribution, ProcessGrid};

    fn dec(sizes: &[u64], procs: &[u64], dist: Distribution) -> Decomposition {
        Decomposition::new(
            BoundingBox::from_sizes(sizes),
            ProcessGrid::new(procs),
            dist,
        )
    }

    #[test]
    fn joint_counts_match_brute_force() {
        for (b1, p1, b2, p2, extent) in [
            (2u64, 3u64, 3u64, 2u64, 17u64),
            (1, 4, 4, 1, 16),
            (3, 2, 2, 3, 20),
        ] {
            let m = joint_dim_counts_range(0, extent - 1, b1, p1, b2, p2);
            for g1 in 0..p1 {
                for g2 in 0..p2 {
                    let brute = (0..extent)
                        .filter(|x| (x / b1) % p1 == g1 && (x / b2) % p2 == g2)
                        .count() as u64;
                    assert_eq!(m[g1 as usize][g2 as usize], brute, "g1={g1} g2={g2}");
                }
            }
        }
    }

    #[test]
    fn pairwise_overlaps_match_brute_force() {
        let a = dec(&[12, 10], &[2, 2], Distribution::Blocked);
        let b = dec(&[12, 10], &[3, 1], Distribution::Cyclic);
        let overlaps = pairwise_overlaps(&a, &b);
        // Brute force over cells.
        let mut brute = std::collections::HashMap::new();
        for p in a.domain().iter_points() {
            let ra = a.owner_of_point(&p[..2]);
            let rb = b.owner_of_point(&p[..2]);
            *brute.entry((ra, rb)).or_insert(0u128) += 1;
        }
        assert_eq!(overlaps.len(), brute.len());
        for (ra, rb, cells) in overlaps {
            assert_eq!(brute[&(ra, rb)], cells);
        }
    }

    #[test]
    fn overlaps_sum_to_domain_volume() {
        let a = dec(&[16, 16], &[4, 2], Distribution::block_cyclic(&[2, 4]));
        let b = dec(&[16, 16], &[2, 2], Distribution::Blocked);
        let total: u128 = pairwise_overlaps(&a, &b).iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total, 256);
    }

    #[test]
    fn identical_blocked_decompositions_pair_one_to_one() {
        let a = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let b = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let o = pairwise_overlaps(&a, &b);
        assert_eq!(o.len(), 4);
        assert!(o.iter().all(|&(ra, rb, c)| ra == rb && c == 16));
    }

    #[test]
    fn mismatched_distributions_fan_out() {
        // Blocked producer vs cyclic consumer: every consumer touches
        // every producer (the Fig. 10 pathology).
        let a = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let b = dec(&[8, 8], &[2, 2], Distribution::Cyclic);
        let fan = fanout_per_consumer(&a, &b);
        assert!(fan.iter().all(|&f| f == 4), "{fan:?}");
        // Matched: fan-out exactly 1.
        let fan_matched = fanout_per_consumer(&a, &a);
        assert!(fan_matched.iter().all(|&f| f == 1));
    }

    #[test]
    fn m_to_n_coarsening() {
        // 4-rank producer, 1-rank consumer: consumer touches all 4.
        let a = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let b = dec(&[8, 8], &[1, 1], Distribution::Blocked);
        let o = pairwise_overlaps(&a, &b);
        assert_eq!(o.len(), 4);
        assert!(o.iter().all(|&(_, rb, _)| rb == 0));
    }

    #[test]
    fn graph_vertices_and_offsets() {
        let a = AppSpec::new(1, "p", 4).with_decomposition(dec(
            &[8, 8],
            &[2, 2],
            Distribution::Blocked,
        ));
        let b = AppSpec::new(2, "c", 1).with_decomposition(dec(
            &[8, 8],
            &[1, 1],
            Distribution::Blocked,
        ));
        let (g, off) = build_inter_app_graph_region(&[&a, &b], 8, None);
        assert_eq!(g.num_vertices(), 5);
        assert_eq!(off, vec![0, 4]);
        // Consumer vertex 4 connects to all four producer tasks.
        assert_eq!(g.neighbors(4).count(), 4);
        // Edge weights: 16 cells x 8 bytes.
        for (_, w) in g.neighbors(4) {
            assert_eq!(w, 128);
        }
    }

    #[test]
    fn three_app_bundle_graph() {
        let d = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let apps: Vec<AppSpec> = (1..=3)
            .map(|i| AppSpec::new(i, format!("a{i}"), 4).with_decomposition(d))
            .collect();
        let refs: Vec<&AppSpec> = apps.iter().collect();
        let (g, off) = build_inter_app_graph_region(&refs, 1, None);
        assert_eq!(off, vec![0, 4, 8]);
        // Identical decompositions: each task couples 1:1 with its peer in
        // each other app -> degree 2.
        for v in 0..12u32 {
            assert_eq!(g.neighbors(v).count(), 2, "vertex {v}");
        }
    }

    #[test]
    #[should_panic(expected = "share the data domain")]
    fn rejects_mismatched_domains() {
        let a = dec(&[8, 8], &[2, 2], Distribution::Blocked);
        let b = dec(&[16, 16], &[2, 2], Distribution::Blocked);
        pairwise_overlaps(&a, &b);
    }

    #[test]
    #[should_panic(expected = "lacks a decomposition")]
    fn rejects_missing_decomposition() {
        let a = AppSpec::new(1, "p", 4).with_decomposition(dec(
            &[8, 8],
            &[2, 2],
            Distribution::Blocked,
        ));
        let b = AppSpec::new(2, "c", 1);
        build_inter_app_graph_region(&[&a, &b], 8, None);
    }
}
