//! Property tests: every partitioner produces valid, cap-respecting
//! partitions on arbitrary graphs.

use insitu_partition::{
    Graph, GraphBuilder, GreedyGrowthPartitioner, MultilevelPartitioner, PartitionConfig,
    Partitioner, RoundRobinPartitioner,
};
use insitu_util::check::forall;
use insitu_util::SplitMix64;

fn arb_graph(rng: &mut SplitMix64) -> Graph {
    let n = rng.range_u32(2, 40);
    let mut b = GraphBuilder::new(n);
    for _ in 0..rng.range_usize(0, 120) {
        let a = rng.next_u64() as u32 % n;
        let bb = rng.next_u64() as u32 % n;
        let w = rng.range_u64(1, 100);
        b.add_edge(a, bb, w);
    }
    b.build()
}

fn check(g: &Graph, parts: &[u32], nparts: usize, cap: u64) {
    assert_eq!(parts.len(), g.num_vertices());
    assert!(parts.iter().all(|&p| (p as usize) < nparts));
    let w = g.part_weights(parts, nparts);
    assert!(
        w.iter().all(|&x| x <= cap),
        "part weights {w:?} exceed cap {cap}"
    );
}

#[test]
fn round_robin_valid() {
    forall(64, |rng| {
        let g = arb_graph(rng);
        let k = rng.range_usize(1, 8);
        let n = g.num_vertices() as u64;
        let cap = n.div_ceil(k as u64) + 1;
        let cfg = PartitionConfig::with_cap(k, cap);
        let parts = RoundRobinPartitioner.partition(&g, &cfg);
        check(&g, &parts, k, cap);
    });
}

#[test]
fn greedy_valid() {
    forall(64, |rng| {
        let g = arb_graph(rng);
        let k = rng.range_usize(1, 8);
        let n = g.num_vertices() as u64;
        let cap = n.div_ceil(k as u64) + 1;
        let cfg = PartitionConfig::with_cap(k, cap);
        let parts = GreedyGrowthPartitioner.partition(&g, &cfg);
        check(&g, &parts, k, cap);
    });
}

#[test]
fn multilevel_valid() {
    forall(64, |rng| {
        let g = arb_graph(rng);
        let k = rng.range_usize(1, 8);
        let n = g.num_vertices() as u64;
        let cap = n.div_ceil(k as u64) + 1;
        let cfg = PartitionConfig::with_cap(k, cap);
        let parts = MultilevelPartitioner.partition(&g, &cfg);
        check(&g, &parts, k, cap);
    });
}

#[test]
fn multilevel_never_worse_than_all_cut() {
    forall(64, |rng| {
        let g = arb_graph(rng);
        let k = rng.range_usize(2, 6);
        let n = g.num_vertices() as u64;
        let cap = n.div_ceil(k as u64) + 1;
        let cfg = PartitionConfig::with_cap(k, cap);
        let parts = MultilevelPartitioner.partition(&g, &cfg);
        // Edge cut can never exceed total edge weight.
        let total: u64 = (0..g.num_vertices() as u32)
            .flat_map(|v| g.neighbors(v).map(move |(u, w)| if u > v { w } else { 0 }))
            .sum();
        assert!(g.edge_cut(&parts) <= total);
    });
}

#[test]
fn edge_cut_zero_iff_single_part_on_connected() {
    forall(32, |rng| {
        let n = rng.range_u32(2, 20);
        let mut b = GraphBuilder::new(n);
        for v in 0..n - 1 {
            b.add_edge(v, v + 1, 1);
        }
        let g = b.build();
        let parts = MultilevelPartitioner.partition(
            &g,
            &PartitionConfig {
                nparts: 1,
                max_part_weight: None,
            },
        );
        assert_eq!(g.edge_cut(&parts), 0);
    });
}
