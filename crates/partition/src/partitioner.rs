//! Partitioner trait and simple baselines.

use crate::graph::Graph;

/// Constraints and knobs for a k-way partitioning.
#[derive(Clone, Copy, Debug)]
pub struct PartitionConfig {
    /// Number of parts.
    pub nparts: usize,
    /// Hard cap on the total vertex weight of any part. The workflow
    /// mapper uses the node core count here so every group fits a node.
    pub max_part_weight: Option<u64>,
}

impl PartitionConfig {
    /// `nparts` parts with a hard per-part weight cap.
    pub fn with_cap(nparts: usize, cap: u64) -> Self {
        PartitionConfig {
            nparts,
            max_part_weight: Some(cap),
        }
    }

    /// The effective cap: the configured one, or a 3% slack over perfect
    /// balance (METIS's default imbalance tolerance class).
    pub(crate) fn effective_cap(&self, total_weight: u64) -> u64 {
        match self.max_part_weight {
            Some(c) => c,
            None => {
                let perfect = total_weight.div_ceil(self.nparts as u64);
                (perfect + perfect / 32).max(perfect + 1)
            }
        }
    }
}

/// A k-way graph partitioner. Returns one part id (`< nparts`) per vertex.
pub trait Partitioner {
    /// Partition `g` under `cfg`.
    ///
    /// # Panics
    /// Implementations panic if the instance is infeasible (e.g. the cap
    /// times `nparts` cannot hold the total vertex weight).
    fn partition(&self, g: &Graph, cfg: &PartitionConfig) -> Vec<u32>;

    /// Short name used in ablation output.
    fn name(&self) -> &'static str;
}

fn assert_feasible(g: &Graph, cfg: &PartitionConfig) -> u64 {
    assert!(cfg.nparts > 0, "nparts must be positive");
    let cap = cfg.effective_cap(g.total_vertex_weight());
    assert!(
        cap.saturating_mul(cfg.nparts as u64) >= g.total_vertex_weight(),
        "infeasible: cap {cap} x {} parts < total weight {}",
        cfg.nparts,
        g.total_vertex_weight()
    );
    let max_v = (0..g.num_vertices() as u32)
        .map(|v| g.vertex_weight(v))
        .max()
        .unwrap_or(0);
    assert!(
        max_v <= cap,
        "infeasible: vertex weight {max_v} exceeds cap {cap}"
    );
    cap
}

/// Deals vertices to parts in index order, wrapping around — the task
/// placement a plain MPI launcher produces and the paper's baseline.
///
/// Note this corresponds to *block* placement of consecutive ranks onto a
/// node when the part is a node: ranks `0..cap` to part 0, etc., which is
/// how `aprun`-style launchers fill nodes core by core.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundRobinPartitioner;

impl Partitioner for RoundRobinPartitioner {
    #[allow(clippy::needless_range_loop)]
    fn partition(&self, g: &Graph, cfg: &PartitionConfig) -> Vec<u32> {
        let cap = assert_feasible(g, cfg);
        let mut parts = vec![0u32; g.num_vertices()];
        let mut weights = vec![0u64; cfg.nparts];
        let mut p = 0usize;
        for v in 0..g.num_vertices() {
            let w = g.vertex_weight(v as u32);
            let mut tries = 0;
            while weights[p] + w > cap {
                p = (p + 1) % cfg.nparts;
                tries += 1;
                assert!(tries <= cfg.nparts, "no part can hold vertex {v}");
            }
            parts[v] = p as u32;
            weights[p] += w;
        }
        parts
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Greedy graph-growing: grow each part around a seed by repeatedly
/// absorbing the unassigned vertex most strongly connected to the part.
/// One level, no refinement — the quality baseline between round-robin
/// and the multilevel partitioner.
#[derive(Clone, Copy, Debug, Default)]
pub struct GreedyGrowthPartitioner;

impl Partitioner for GreedyGrowthPartitioner {
    fn partition(&self, g: &Graph, cfg: &PartitionConfig) -> Vec<u32> {
        let cap = assert_feasible(g, cfg);
        let mut parts = grow_parts(g, cfg.nparts, cap);
        rebalance(g, &mut parts, cfg.nparts, cap);
        parts
    }

    fn name(&self) -> &'static str {
        "greedy-growth"
    }
}

/// Greedy growth used both directly and as the coarsest-level seed of the
/// multilevel partitioner.
#[allow(clippy::needless_range_loop)]
pub(crate) fn grow_parts(g: &Graph, nparts: usize, cap: u64) -> Vec<u32> {
    let n = g.num_vertices();
    const UNASSIGNED: u32 = u32::MAX;
    let mut parts = vec![UNASSIGNED; n];
    let mut weights = vec![0u64; nparts];
    // gain[v] = connectivity to the currently growing part.
    let mut gain = vec![0u64; n];
    let mut next_seed = 0usize;

    for p in 0..nparts {
        // Seed: first unassigned vertex (deterministic).
        while next_seed < n && parts[next_seed] != UNASSIGNED {
            next_seed += 1;
        }
        if next_seed >= n {
            break;
        }
        let target = g.total_vertex_weight().div_ceil(nparts as u64);
        gain.iter_mut().for_each(|x| *x = 0);
        let mut frontier: Vec<u32> = Vec::new();
        let grow = |v: u32,
                    parts: &mut Vec<u32>,
                    weights: &mut Vec<u64>,
                    gain: &mut Vec<u64>,
                    frontier: &mut Vec<u32>| {
            parts[v as usize] = p as u32;
            weights[p] += g.vertex_weight(v);
            for (u, w) in g.neighbors(v) {
                if parts[u as usize] == UNASSIGNED {
                    if gain[u as usize] == 0 {
                        frontier.push(u);
                    }
                    gain[u as usize] += w;
                }
            }
        };
        grow(
            next_seed as u32,
            &mut parts,
            &mut weights,
            &mut gain,
            &mut frontier,
        );
        while weights[p] < target {
            // Pick the frontier vertex with max gain that fits.
            frontier.retain(|&u| parts[u as usize] == UNASSIGNED);
            let candidate = frontier
                .iter()
                .filter(|&&u| weights[p] + g.vertex_weight(u) <= cap)
                .max_by_key(|&&u| (gain[u as usize], std::cmp::Reverse(u)))
                .copied()
                .or_else(|| {
                    // Frontier exhausted before the part is full (a graph
                    // component ended): restart growth from a fresh seed
                    // so the part still reaches its balanced target.
                    (0..n as u32).find(|&u| {
                        parts[u as usize] == UNASSIGNED && weights[p] + g.vertex_weight(u) <= cap
                    })
                });
            let Some(best) = candidate else {
                break;
            };
            if weights[p] + g.vertex_weight(best) > target && weights[p] > 0 {
                // Would overshoot the balanced target; stop growing.
                if weights[p] + g.vertex_weight(best) > cap {
                    break;
                }
            }
            grow(best, &mut parts, &mut weights, &mut gain, &mut frontier);
        }
    }

    // Sweep leftovers into any part with room, preferring connected parts.
    for v in 0..n {
        if parts[v] != UNASSIGNED {
            continue;
        }
        let w = g.vertex_weight(v as u32);
        // Prefer the neighbor part with max connectivity that fits.
        let mut conn = std::collections::HashMap::new();
        for (u, ew) in g.neighbors(v as u32) {
            if parts[u as usize] != UNASSIGNED {
                *conn.entry(parts[u as usize]).or_insert(0u64) += ew;
            }
        }
        let chosen = conn
            .iter()
            .filter(|&(&p, _)| weights[p as usize] + w <= cap)
            .max_by_key(|&(&p, &c)| (c, std::cmp::Reverse(p)))
            .map(|(&p, _)| p)
            .or_else(|| (0..nparts as u32).find(|&p| weights[p as usize] + w <= cap))
            // Coarse graphs can hit bin-packing corners (weight-2 super
            // vertices vs 1-unit gaps); place on the lightest part and let
            // rebalance() restore the cap at a finer level.
            .unwrap_or_else(|| {
                (0..nparts as u32)
                    .min_by_key(|&p| weights[p as usize])
                    .unwrap()
            });
        parts[v] = chosen;
        weights[chosen as usize] += w;
    }
    parts
}

/// Restore a hard per-part cap by moving vertices out of overfull parts,
/// preferring moves that cut the least intra-part connectivity. With
/// unit vertex weights (one task per vertex) this always succeeds when
/// `total <= nparts * cap`.
///
/// # Panics
/// Panics if no sequence of single-vertex moves can satisfy the cap.
pub(crate) fn rebalance(g: &Graph, parts: &mut [u32], nparts: usize, cap: u64) {
    let mut weights = g.part_weights(parts, nparts);
    loop {
        let Some(over) = (0..nparts)
            .filter(|&p| weights[p] > cap)
            .max_by_key(|&p| weights[p])
        else {
            return;
        };
        // Candidate vertices of the overfull part, lightest connectivity
        // to their own part first.
        let mut best: Option<(u64, u32, u32)> = None; // (loss, vertex, dest)
        for v in 0..g.num_vertices() as u32 {
            if parts[v as usize] as usize != over {
                continue;
            }
            let w = g.vertex_weight(v);
            let Some(dest) = (0..nparts as u32)
                .filter(|&p| p as usize != over && weights[p as usize] + w <= cap)
                .max_by_key(|&p| {
                    g.neighbors(v)
                        .filter(|&(u, _)| parts[u as usize] == p)
                        .map(|(_, ew)| ew)
                        .sum::<u64>()
                })
            else {
                continue;
            };
            let loss: u64 = g
                .neighbors(v)
                .filter(|&(u, _)| parts[u as usize] as usize == over)
                .map(|(_, ew)| ew)
                .sum();
            if best.map(|(l, _, _)| loss < l).unwrap_or(true) {
                best = Some((loss, v, dest));
            }
        }
        let (_, v, dest) = best.expect("rebalance stuck: no movable vertex fits any part");
        let w = g.vertex_weight(v);
        weights[parts[v as usize] as usize] -= w;
        weights[dest as usize] += w;
        parts[v as usize] = dest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    fn path_graph(n: u32) -> Graph {
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v, v + 1, 1);
        }
        b.build()
    }

    #[test]
    fn round_robin_respects_cap() {
        let g = path_graph(10);
        let cfg = PartitionConfig::with_cap(5, 2);
        let parts = RoundRobinPartitioner.partition(&g, &cfg);
        let w = g.part_weights(&parts, 5);
        assert!(w.iter().all(|&x| x <= 2));
        assert_eq!(w.iter().sum::<u64>(), 10);
    }

    #[test]
    fn round_robin_fills_in_order() {
        let g = path_graph(6);
        let cfg = PartitionConfig::with_cap(3, 2);
        let parts = RoundRobinPartitioner.partition(&g, &cfg);
        assert_eq!(parts, vec![0, 0, 1, 1, 2, 2]);
    }

    #[test]
    fn greedy_growth_valid_and_capped() {
        let g = path_graph(12);
        let cfg = PartitionConfig::with_cap(4, 3);
        let parts = GreedyGrowthPartitioner.partition(&g, &cfg);
        assert!(parts.iter().all(|&p| p < 4));
        let w = g.part_weights(&parts, 4);
        assert!(w.iter().all(|&x| x <= 3), "{w:?}");
    }

    #[test]
    fn greedy_growth_cuts_path_optimally() {
        // A path cut into contiguous chunks has cut = nparts - 1.
        let g = path_graph(16);
        let cfg = PartitionConfig::with_cap(4, 4);
        let parts = GreedyGrowthPartitioner.partition(&g, &cfg);
        assert_eq!(g.edge_cut(&parts), 3);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn rejects_infeasible_cap() {
        let g = path_graph(10);
        RoundRobinPartitioner.partition(&g, &PartitionConfig::with_cap(2, 4));
    }

    #[test]
    fn single_part_puts_everything_together() {
        let g = path_graph(5);
        let parts = GreedyGrowthPartitioner.partition(
            &g,
            &PartitionConfig {
                nparts: 1,
                max_part_weight: None,
            },
        );
        assert!(parts.iter().all(|&p| p == 0));
        assert_eq!(g.edge_cut(&parts), 0);
    }
}
