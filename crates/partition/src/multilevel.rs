//! Multilevel k-way partitioning: the METIS-substitute used by the
//! server-side data-centric task mapper.
//!
//! Three phases, as in Karypis & Kumar's scheme:
//! 1. **Coarsening** — heavy-edge matching collapses matched pairs until
//!    the graph is small;
//! 2. **Initial partitioning** — greedy graph growing on the coarsest
//!    graph;
//! 3. **Uncoarsening + refinement** — the partition is projected back one
//!    level at a time, with FM-style boundary moves (positive-gain,
//!    cap-respecting) after each projection.

use crate::graph::{Graph, GraphBuilder};
use crate::partitioner::{grow_parts, PartitionConfig, Partitioner};

/// The multilevel k-way partitioner.
#[derive(Clone, Copy, Debug, Default)]
pub struct MultilevelPartitioner;

/// Coarsening stops once the graph has at most this many vertices per
/// part (and never below 64 vertices).
const COARSEN_TO_PER_PART: usize = 8;

/// Refinement passes after each projection.
const REFINE_PASSES: usize = 4;

struct Level {
    graph: Graph,
    /// fine vertex -> coarse vertex of the *next* level.
    map_to_coarse: Vec<u32>,
}

impl MultilevelPartitioner {
    fn coarsen(g: &Graph, nparts: usize) -> (Vec<Level>, Graph) {
        let mut levels: Vec<Level> = Vec::new();
        let mut cur = g.clone();
        // Keep enough coarse vertices to seed every part.
        let target = COARSEN_TO_PER_PART.saturating_mul(nparts).max(64);
        loop {
            if cur.num_vertices() <= target {
                break;
            }
            let (mapping, coarse_n) = heavy_edge_matching(&cur);
            if coarse_n as usize >= cur.num_vertices() * 9 / 10 {
                break; // matching stalled; further coarsening is useless
            }
            let coarse = contract(&cur, &mapping, coarse_n);
            levels.push(Level {
                graph: cur,
                map_to_coarse: mapping,
            });
            cur = coarse;
        }
        (levels, cur)
    }

    fn refine(g: &Graph, parts: &mut [u32], nparts: usize, cap: u64) {
        let mut weights = g.part_weights(parts, nparts);
        for _ in 0..REFINE_PASSES {
            let mut moved = false;
            for v in 0..g.num_vertices() as u32 {
                let own = parts[v as usize];
                // Connectivity to each adjacent part.
                let mut conn: Vec<(u32, u64)> = Vec::new();
                let mut own_conn = 0u64;
                for (u, w) in g.neighbors(v) {
                    let pu = parts[u as usize];
                    if pu == own {
                        own_conn += w;
                    } else if let Some(e) = conn.iter_mut().find(|e| e.0 == pu) {
                        e.1 += w;
                    } else {
                        conn.push((pu, w));
                    }
                }
                let vw = g.vertex_weight(v);
                let best = conn
                    .iter()
                    .filter(|&&(p, _)| weights[p as usize] + vw <= cap)
                    .max_by_key(|&&(p, c)| (c, std::cmp::Reverse(p)))
                    .copied();
                if let Some((p, c)) = best {
                    if c > own_conn {
                        parts[v as usize] = p;
                        weights[own as usize] -= vw;
                        weights[p as usize] += vw;
                        moved = true;
                    }
                }
            }
            if !moved {
                break;
            }
        }
    }
}

impl Partitioner for MultilevelPartitioner {
    fn partition(&self, g: &Graph, cfg: &PartitionConfig) -> Vec<u32> {
        let total = g.total_vertex_weight();
        let cap = cfg.effective_cap(total);
        assert!(cfg.nparts > 0, "nparts must be positive");
        assert!(
            cap.saturating_mul(cfg.nparts as u64) >= total,
            "infeasible: cap {cap} x {} parts < total weight {total}",
            cfg.nparts
        );
        if cfg.nparts == 1 {
            return vec![0; g.num_vertices()];
        }

        let (levels, coarsest) = Self::coarsen(g, cfg.nparts);
        let mut parts = grow_parts(&coarsest, cfg.nparts, cap);
        Self::refine(&coarsest, &mut parts, cfg.nparts, cap);

        // Project back through the levels, refining at each.
        for level in levels.iter().rev() {
            let mut fine_parts = vec![0u32; level.graph.num_vertices()];
            for v in 0..level.graph.num_vertices() {
                fine_parts[v] = parts[level.map_to_coarse[v] as usize];
            }
            parts = fine_parts;
            Self::refine(&level.graph, &mut parts, cfg.nparts, cap);
        }
        // Coarse levels may carry soft cap overflows (super-vertex
        // granularity); enforce the hard cap on the finest graph, then
        // give refinement a final cap-respecting pass.
        crate::partitioner::rebalance(g, &mut parts, cfg.nparts, cap);
        Self::refine(g, &mut parts, cfg.nparts, cap);
        debug_assert_eq!(parts.len(), g.num_vertices());
        debug_assert!(g.part_weights(&parts, cfg.nparts).iter().all(|&w| w <= cap));
        parts
    }

    fn name(&self) -> &'static str {
        "multilevel"
    }
}

/// Heavy-edge matching: visit vertices in index order; match each
/// unmatched vertex with its heaviest unmatched neighbor (ties to the
/// smaller index). Returns (fine -> coarse mapping, coarse vertex count).
fn heavy_edge_matching(g: &Graph) -> (Vec<u32>, u32) {
    let n = g.num_vertices();
    const UNMATCHED: u32 = u32::MAX;
    let mut mate = vec![UNMATCHED; n];
    for v in 0..n as u32 {
        if mate[v as usize] != UNMATCHED {
            continue;
        }
        let best = g
            .neighbors(v)
            .filter(|&(u, _)| mate[u as usize] == UNMATCHED && u != v)
            .max_by_key(|&(u, w)| (w, std::cmp::Reverse(u)));
        match best {
            Some((u, _)) => {
                mate[v as usize] = u;
                mate[u as usize] = v;
            }
            None => mate[v as usize] = v, // matched with itself
        }
    }
    let mut map = vec![0u32; n];
    let mut next = 0u32;
    for v in 0..n as u32 {
        let m = mate[v as usize];
        if m >= v {
            // v is the representative of the pair (or singleton).
            map[v as usize] = next;
            if m != v {
                map[m as usize] = next;
            }
            next += 1;
        }
    }
    (map, next)
}

/// Contract a graph along a fine->coarse mapping.
fn contract(g: &Graph, map: &[u32], coarse_n: u32) -> Graph {
    let mut b = GraphBuilder::new(coarse_n);
    let mut vw = vec![0u64; coarse_n as usize];
    for v in 0..g.num_vertices() as u32 {
        vw[map[v as usize] as usize] += g.vertex_weight(v);
    }
    for (c, &w) in vw.iter().enumerate() {
        b.set_vertex_weight(c as u32, w.max(1));
    }
    for v in 0..g.num_vertices() as u32 {
        for (u, w) in g.neighbors(v) {
            if u > v {
                b.add_edge(map[v as usize], map[u as usize], w);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::partitioner::RoundRobinPartitioner;

    /// Two communities of size `k` densely connected inside, one weak
    /// bridge between them.
    fn two_communities(k: u32) -> Graph {
        let mut b = GraphBuilder::new(2 * k);
        for base in [0, k] {
            for i in 0..k {
                for j in i + 1..k {
                    b.add_edge(base + i, base + j, 10);
                }
            }
        }
        b.add_edge(0, k, 1);
        b.build()
    }

    #[test]
    fn finds_community_structure() {
        let g = two_communities(8);
        let cfg = PartitionConfig::with_cap(2, 8);
        let parts = MultilevelPartitioner.partition(&g, &cfg);
        // The weak bridge should be the only cut edge.
        assert_eq!(g.edge_cut(&parts), 1);
    }

    #[test]
    fn beats_round_robin_on_grid() {
        // 8x8 grid graph, 4 parts of 16.
        let n = 8u32;
        let mut b = GraphBuilder::new(n * n);
        for i in 0..n {
            for j in 0..n {
                let v = i * n + j;
                if j + 1 < n {
                    b.add_edge(v, v + 1, 1);
                }
                if i + 1 < n {
                    b.add_edge(v, v + n, 1);
                }
            }
        }
        let g = b.build();
        let cfg = PartitionConfig::with_cap(4, 16);
        let ml = MultilevelPartitioner.partition(&g, &cfg);
        let rr = RoundRobinPartitioner.partition(&g, &cfg);
        assert!(
            g.edge_cut(&ml) <= g.edge_cut(&rr),
            "multilevel {} vs round-robin {}",
            g.edge_cut(&ml),
            g.edge_cut(&rr)
        );
        // A 4-way split of an 8x8 grid can achieve cut 16; allow slack.
        assert!(g.edge_cut(&ml) <= 24, "cut {}", g.edge_cut(&ml));
    }

    #[test]
    fn respects_hard_cap() {
        let g = two_communities(10);
        let cfg = PartitionConfig::with_cap(5, 4);
        let parts = MultilevelPartitioner.partition(&g, &cfg);
        let w = g.part_weights(&parts, 5);
        assert!(w.iter().all(|&x| x <= 4), "{w:?}");
        assert_eq!(w.iter().sum::<u64>(), 20);
    }

    #[test]
    fn handles_disconnected_graph() {
        let g = GraphBuilder::new(10).build();
        let cfg = PartitionConfig::with_cap(5, 2);
        let parts = MultilevelPartitioner.partition(&g, &cfg);
        let w = g.part_weights(&parts, 5);
        assert!(w.iter().all(|&x| x <= 2));
    }

    #[test]
    fn single_part() {
        let g = two_communities(4);
        let parts = MultilevelPartitioner.partition(
            &g,
            &PartitionConfig {
                nparts: 1,
                max_part_weight: None,
            },
        );
        assert!(parts.iter().all(|&p| p == 0));
    }

    #[test]
    fn matching_halves_vertices_on_path() {
        let mut b = GraphBuilder::new(8);
        for v in 0..7 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let (map, cn) = heavy_edge_matching(&g);
        assert_eq!(cn, 4);
        assert_eq!(map.len(), 8);
    }

    #[test]
    fn contract_preserves_total_weight() {
        let g = two_communities(4);
        let (map, cn) = heavy_edge_matching(&g);
        let c = contract(&g, &map, cn);
        assert_eq!(c.total_vertex_weight(), g.total_vertex_weight());
    }

    #[test]
    fn deterministic() {
        let g = two_communities(16);
        let cfg = PartitionConfig::with_cap(4, 8);
        let a = MultilevelPartitioner.partition(&g, &cfg);
        let b = MultilevelPartitioner.partition(&g, &cfg);
        assert_eq!(a, b);
    }
}
