//! Undirected weighted graphs in CSR form.
//!
//! Vertices are computation tasks; edge weights are inter-task
//! communication volumes (bytes or cells). The workflow management server
//! builds one of these from the coupled applications' decompositions and
//! partitions it so heavily communicating tasks land on the same node.

use std::collections::BTreeMap;

/// An undirected graph with vertex and edge weights, stored in compressed
/// sparse row form. Immutable once built; construct via [`GraphBuilder`].
#[derive(Clone, Debug)]
pub struct Graph {
    xadj: Vec<usize>,
    adjncy: Vec<u32>,
    adjwgt: Vec<u64>,
    vwgt: Vec<u64>,
}

impl Graph {
    /// Number of vertices.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.xadj.len() - 1
    }

    /// Weight of vertex `v`.
    #[inline]
    pub(crate) fn vertex_weight(&self, v: u32) -> u64 {
        self.vwgt[v as usize]
    }

    /// Sum of all vertex weights.
    pub(crate) fn total_vertex_weight(&self) -> u64 {
        self.vwgt.iter().sum()
    }

    /// Iterate `(neighbor, edge_weight)` pairs of `v`.
    #[inline]
    pub fn neighbors(&self, v: u32) -> impl Iterator<Item = (u32, u64)> + '_ {
        let r = self.xadj[v as usize]..self.xadj[v as usize + 1];
        self.adjncy[r.clone()]
            .iter()
            .copied()
            .zip(self.adjwgt[r].iter().copied())
    }

    /// Sum of edge weights crossing part boundaries under `parts`
    /// (each undirected edge counted once).
    ///
    /// # Panics
    /// Panics if `parts` is shorter than the vertex count.
    pub fn edge_cut(&self, parts: &[u32]) -> u64 {
        assert!(parts.len() >= self.num_vertices());
        let mut cut = 0u64;
        for v in 0..self.num_vertices() as u32 {
            for (u, w) in self.neighbors(v) {
                if u > v && parts[v as usize] != parts[u as usize] {
                    cut += w;
                }
            }
        }
        cut
    }

    /// Total weight of each part under `parts`.
    pub fn part_weights(&self, parts: &[u32], nparts: usize) -> Vec<u64> {
        let mut w = vec![0u64; nparts];
        for v in 0..self.num_vertices() {
            w[parts[v] as usize] += self.vwgt[v];
        }
        w
    }
}

/// Incremental builder accumulating parallel edges into summed weights.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: u32,
    vwgt: Vec<u64>,
    edges: BTreeMap<(u32, u32), u64>,
}

impl GraphBuilder {
    /// A builder for `n` vertices, all with weight 1.
    pub fn new(n: u32) -> Self {
        GraphBuilder {
            n,
            vwgt: vec![1; n as usize],
            edges: BTreeMap::new(),
        }
    }

    /// Set the weight of vertex `v`.
    pub(crate) fn set_vertex_weight(&mut self, v: u32, w: u64) {
        self.vwgt[v as usize] = w;
    }

    /// Add (accumulate) an undirected edge. Self-loops are ignored; zero
    /// weights are ignored.
    pub fn add_edge(&mut self, a: u32, b: u32, w: u64) {
        assert!(a < self.n && b < self.n, "edge endpoint out of range");
        if a == b || w == 0 {
            return;
        }
        let key = (a.min(b), a.max(b));
        *self.edges.entry(key).or_insert(0) += w;
    }

    /// Finalize into CSR form.
    pub fn build(self) -> Graph {
        let n = self.n as usize;
        let mut deg = vec![0usize; n];
        for &(a, b) in self.edges.keys() {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut xadj = vec![0usize; n + 1];
        for v in 0..n {
            xadj[v + 1] = xadj[v] + deg[v];
        }
        let m = xadj[n];
        let mut adjncy = vec![0u32; m];
        let mut adjwgt = vec![0u64; m];
        let mut fill = xadj.clone();
        for (&(a, b), &w) in &self.edges {
            adjncy[fill[a as usize]] = b;
            adjwgt[fill[a as usize]] = w;
            fill[a as usize] += 1;
            adjncy[fill[b as usize]] = a;
            adjwgt[fill[b as usize]] = w;
            fill[b as usize] += 1;
        }
        Graph {
            xadj,
            adjncy,
            adjwgt,
            vwgt: self.vwgt,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 5);
        b.add_edge(1, 2, 3);
        b.add_edge(2, 0, 2);
        b.build()
    }

    #[test]
    fn csr_structure() {
        let g = triangle();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.adjncy.len() / 2, 3);
        assert_eq!(g.neighbors(0).count(), 2);
        let n0: Vec<_> = g.neighbors(0).collect();
        assert_eq!(n0, vec![(1, 5), (2, 2)]);
    }

    #[test]
    fn parallel_edges_accumulate() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 1, 3);
        b.add_edge(1, 0, 4);
        let g = b.build();
        assert_eq!(g.adjncy.len() / 2, 1);
        assert_eq!(g.neighbors(0).next(), Some((1, 7)));
    }

    #[test]
    fn self_loops_and_zero_weights_ignored() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(0, 0, 9);
        b.add_edge(0, 1, 0);
        let g = b.build();
        assert_eq!(g.adjncy.len() / 2, 0);
    }

    #[test]
    fn edge_cut_counts_crossing_once() {
        let g = triangle();
        assert_eq!(g.edge_cut(&[0, 0, 0]), 0);
        assert_eq!(g.edge_cut(&[0, 1, 1]), 5 + 2);
        assert_eq!(g.edge_cut(&[0, 1, 2]), 10);
    }

    #[test]
    fn vertex_weights() {
        let mut b = GraphBuilder::new(3);
        b.set_vertex_weight(1, 7);
        let g = b.build();
        assert_eq!(g.vertex_weight(0), 1);
        assert_eq!(g.vertex_weight(1), 7);
        assert_eq!(g.total_vertex_weight(), 9);
        assert_eq!(g.part_weights(&[0, 1, 1], 2), vec![1, 8]);
    }

    #[test]
    fn isolated_vertices_allowed() {
        let g = GraphBuilder::new(4).build();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.adjncy.len() / 2, 0);
        assert_eq!(g.edge_cut(&[0, 1, 2, 3]), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_out_of_range_edge() {
        GraphBuilder::new(2).add_edge(0, 2, 1);
    }
}
