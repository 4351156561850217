//! Task-mapping strategies.
//!
//! Each function is named after the strategy label it runs:
//!
//! * [`map_packed`] — the paper's `round-robin` baseline, what a plain
//!   MPI launcher does: ranks fill node 0, then node 1, ...;
//! * [`map_node_cyclic`] — `node-cyclic`: ranks dealt to nodes in turn;
//! * [`map_data_centric_server`] — for bundles of *concurrently* coupled
//!   applications: partition the inter-application communication graph
//!   (METIS-style) into node-sized groups so communicating tasks share a
//!   node (§IV.B);
//! * [`map_client_side`] — for *sequentially* coupled consumers: each
//!   task is dispatched to the node already holding the largest share of
//!   its required data (§IV.B).

use crate::comm_graph::build_inter_app_graph_region;
use crate::spec::AppSpec;
use insitu_fabric::{CoreId, MachineSpec, NodeId};
use insitu_partition::{MultilevelPartitioner, PartitionConfig, Partitioner};
use std::collections::HashMap;

/// Tracks free cores while mapping one or more applications onto a
/// (possibly shared) machine.
#[derive(Clone, Debug)]
pub struct CoreAllocator {
    spec: MachineSpec,
    free: Vec<Vec<bool>>, // [node][local core]
}

impl CoreAllocator {
    /// All cores free.
    pub fn new(spec: MachineSpec) -> Self {
        CoreAllocator {
            spec,
            free: vec![vec![true; spec.cores_per_node as usize]; spec.nodes as usize],
        }
    }

    /// The machine.
    pub fn spec(&self) -> MachineSpec {
        self.spec
    }

    /// Free cores remaining on `node`.
    pub(crate) fn free_on(&self, node: NodeId) -> u32 {
        self.free[node as usize].iter().filter(|&&f| f).count() as u32
    }

    /// Claim the lowest free core on `node`.
    pub(crate) fn alloc_on(&mut self, node: NodeId) -> Option<CoreId> {
        let locals = &mut self.free[node as usize];
        let local = locals.iter().position(|&f| f)?;
        locals[local] = false;
        Some(self.spec.core(node, local as u32))
    }

    /// Claim a core on the first node with space at or after `start`,
    /// cycling around.
    pub(crate) fn alloc_cyclic_from(&mut self, start: NodeId) -> Option<CoreId> {
        for i in 0..self.spec.nodes {
            let node = (start + i) % self.spec.nodes;
            if let Some(c) = self.alloc_on(node) {
                return Some(c);
            }
        }
        None
    }

    /// Release a core.
    pub fn release(&mut self, core: CoreId) {
        let node = self.spec.node_of_core(core) as usize;
        let local = self.spec.local_core(core) as usize;
        assert!(!self.free[node][local], "double release of core {core}");
        self.free[node][local] = true;
    }
}

/// Per-app task -> core assignment for one bundle.
#[derive(Clone, Debug, Default)]
pub struct BundleMapping {
    /// `cores[&app_id][rank]` is the core of that app's task `rank`.
    pub cores: HashMap<u32, Vec<CoreId>>,
}

/// `node-cyclic`: deal tasks (apps concatenated in declaration order)
/// to nodes cyclically, taking the next free core on each.
///
/// # Panics
/// Panics if the allocator lacks capacity.
pub fn map_node_cyclic(alloc: &mut CoreAllocator, apps: &[&AppSpec]) -> BundleMapping {
    let mut mapping = BundleMapping::default();
    let mut node: NodeId = 0;
    for app in apps {
        let mut cores = Vec::with_capacity(app.ntasks as usize);
        for _ in 0..app.ntasks {
            let core = alloc
                .alloc_cyclic_from(node)
                .expect("not enough cores for bundle");
            node = (alloc.spec().node_of_core(core) + 1) % alloc.spec().nodes;
            cores.push(core);
        }
        mapping.cores.insert(app.id, cores);
    }
    mapping
}

/// The paper's `round-robin` baseline: launcher-style sequential packing
/// (ranks fill node 0, then node 1, ...), with no knowledge of coupling.
///
/// # Panics
/// Panics if the allocator lacks capacity.
pub fn map_packed(alloc: &mut CoreAllocator, apps: &[&AppSpec]) -> BundleMapping {
    let mut mapping = BundleMapping::default();
    for app in apps {
        let mut cores = Vec::with_capacity(app.ntasks as usize);
        for _ in 0..app.ntasks {
            let core = alloc
                .alloc_cyclic_from(0)
                .expect("not enough cores for bundle");
            cores.push(core);
        }
        mapping.cores.insert(app.id, cores);
    }
    mapping
}

/// Server-side data-centric mapping for concurrently coupled bundles:
/// build the inter-application communication graph (`elem_bytes` per
/// coupled cell, restricted to `region` when the coupling declares one),
/// partition it with the [`MultilevelPartitioner`] (METIS substitute)
/// into `total_tasks / cores_per_node` groups with a hard per-group cap
/// of `cores_per_node`, map each group to one node, and deal the group's
/// tasks to that node's cores. A single-app bundle has no inter-app
/// edges and is packed.
///
/// # Panics
/// Panics if the allocator lacks capacity.
pub fn map_data_centric_server(
    alloc: &mut CoreAllocator,
    apps: &[&AppSpec],
    elem_bytes: u64,
    region: Option<&insitu_domain::BoundingBox>,
) -> BundleMapping {
    if apps.len() < 2 {
        return map_packed(alloc, apps);
    }
    let (graph, offsets) = build_inter_app_graph_region(apps, elem_bytes, region);
    let total: u32 = apps.iter().map(|a| a.ntasks).sum();
    let cap = alloc.spec().cores_per_node as u64;
    let nparts = (total as u64).div_ceil(cap) as usize;
    let parts = MultilevelPartitioner.partition(&graph, &PartitionConfig::with_cap(nparts, cap));

    // Choose a distinct node (with full capacity preferred) per group.
    let mut group_node: Vec<Option<NodeId>> = vec![None; nparts];
    let mut next_node: NodeId = 0;
    let mut node_for_group = |g: usize, alloc: &CoreAllocator| -> NodeId {
        let mut hops = 0;
        while alloc.free_on(next_node) == 0 {
            next_node = (next_node + 1) % alloc.spec().nodes;
            hops += 1;
            assert!(hops <= alloc.spec().nodes, "no capacity for group {g}");
        }
        let n = next_node;
        next_node = (next_node + 1) % alloc.spec().nodes;
        n
    };

    let mut mapping = BundleMapping::default();
    for app in apps {
        mapping.cores.insert(app.id, vec![0; app.ntasks as usize]);
    }
    for (ai, app) in apps.iter().enumerate() {
        for rank in 0..app.ntasks {
            let v = (offsets[ai] + rank) as usize;
            let g = parts[v] as usize;
            let node = match group_node[g] {
                Some(n) => n,
                None => {
                    let n = node_for_group(g, alloc);
                    group_node[g] = Some(n);
                    n
                }
            };
            let core = alloc
                .alloc_on(node)
                .or_else(|| alloc.alloc_cyclic_from(node))
                .expect("not enough cores for bundle");
            mapping.cores.get_mut(&app.id).unwrap()[rank as usize] = core;
        }
    }
    mapping
}

/// Client-side data-centric mapping for a sequentially coupled consumer:
/// for each task, `locate(rank)` reports how many bytes of the task's
/// required region live on each node (from the Data Lookup service); the
/// task is dispatched to the feasible node holding the most.
///
/// Returns the task -> core assignment.
///
/// # Panics
/// Panics if the allocator runs out of cores.
pub fn map_client_side(
    alloc: &mut CoreAllocator,
    ntasks: u32,
    mut locate: impl FnMut(u32) -> Vec<(NodeId, u64)>,
) -> Vec<CoreId> {
    let mut cores = Vec::with_capacity(ntasks as usize);
    for rank in 0..ntasks {
        let mut candidates = locate(rank);
        // Prefer max local bytes; deterministic tie-break on node id.
        candidates.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        let chosen = candidates
            .iter()
            .find_map(|&(node, _)| alloc.alloc_on(node))
            .or_else(|| alloc.alloc_cyclic_from(rank % alloc.spec().nodes))
            .expect("not enough cores for consumer app");
        cores.push(chosen);
    }
    cores
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};

    /// Free cores summed over every node.
    fn total_free(a: &CoreAllocator) -> u32 {
        (0..a.spec.nodes).map(|n| a.free_on(n)).sum()
    }

    fn blocked_app(id: u32, sizes: &[u64], procs: &[u64]) -> AppSpec {
        let ntasks: u64 = procs.iter().product();
        AppSpec::new(id, format!("a{id}"), ntasks as u32).with_decomposition(Decomposition::new(
            BoundingBox::from_sizes(sizes),
            ProcessGrid::new(procs),
            Distribution::Blocked,
        ))
    }

    #[test]
    fn allocator_basics() {
        let mut a = CoreAllocator::new(MachineSpec::new(2, 2));
        assert_eq!(total_free(&a), 4);
        let c0 = a.alloc_on(0).unwrap();
        assert_eq!(c0, 0);
        assert_eq!(a.free_on(0), 1);
        a.release(c0);
        assert_eq!(a.free_on(0), 2);
    }

    #[test]
    fn allocator_cyclic_skips_full_nodes() {
        let mut a = CoreAllocator::new(MachineSpec::new(2, 1));
        assert_eq!(a.alloc_cyclic_from(0), Some(0));
        assert_eq!(a.alloc_cyclic_from(0), Some(1));
        assert_eq!(a.alloc_cyclic_from(0), None);
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn allocator_rejects_double_release() {
        let mut a = CoreAllocator::new(MachineSpec::new(1, 1));
        let c = a.alloc_on(0).unwrap();
        a.release(c);
        a.release(c);
    }

    #[test]
    fn round_robin_spreads_across_nodes() {
        let spec = MachineSpec::new(4, 2);
        let mut alloc = CoreAllocator::new(spec);
        let apps = [blocked_app(1, &[8, 8], &[2, 2])];
        let m = map_node_cyclic(&mut alloc, &[&apps[0]]);
        let nodes: Vec<NodeId> = m.cores[&1].iter().map(|&c| spec.node_of_core(c)).collect();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
    }

    #[test]
    fn packed_fills_first_node() {
        let spec = MachineSpec::new(4, 2);
        let mut alloc = CoreAllocator::new(spec);
        let apps = [blocked_app(1, &[8, 8], &[2, 2])];
        let m = map_packed(&mut alloc, &[&apps[0]]);
        let nodes: Vec<NodeId> = m.cores[&1].iter().map(|&c| spec.node_of_core(c)).collect();
        assert_eq!(nodes, vec![0, 0, 1, 1]);
    }

    #[test]
    fn data_centric_colocates_coupled_pairs() {
        // Producer 2x2 and consumer 2x2 with identical decompositions:
        // coupled pairs (same rank) must share a node; 4 nodes x 2 cores.
        let spec = MachineSpec::new(4, 2);
        let mut alloc = CoreAllocator::new(spec);
        let p = blocked_app(1, &[8, 8], &[2, 2]);
        let c = blocked_app(2, &[8, 8], &[2, 2]);
        let m = map_data_centric_server(&mut alloc, &[&p, &c], 8, None);
        for rank in 0..4 {
            let np = spec.node_of_core(m.cores[&1][rank]);
            let nc = spec.node_of_core(m.cores[&2][rank]);
            assert_eq!(np, nc, "coupled pair {rank} split across nodes");
        }
    }

    #[test]
    fn data_centric_respects_capacity() {
        let spec = MachineSpec::new(2, 4);
        let mut alloc = CoreAllocator::new(spec);
        let p = blocked_app(1, &[8, 8], &[2, 2]);
        let c = blocked_app(2, &[8, 8], &[2, 2]);
        let m = map_data_centric_server(&mut alloc, &[&p, &c], 8, None);
        // 8 tasks on 8 cores, no node oversubscribed.
        let mut per_node = [0u32; 2];
        for cores in m.cores.values() {
            for &core in cores {
                per_node[spec.node_of_core(core) as usize] += 1;
            }
        }
        assert_eq!(per_node, [4, 4]);
        assert_eq!(total_free(&alloc), 0);
    }

    #[test]
    fn data_centric_single_app_falls_back_to_packed() {
        let spec = MachineSpec::new(2, 2);
        let mut alloc = CoreAllocator::new(spec);
        let p = blocked_app(1, &[8, 8], &[2, 2]);
        let m = map_data_centric_server(&mut alloc, &[&p], 8, None);
        assert_eq!(m.cores[&1].len(), 4);
    }

    #[test]
    fn client_side_follows_data() {
        let spec = MachineSpec::new(4, 2);
        let mut alloc = CoreAllocator::new(spec);
        // Task r's data lives on node r.
        let cores = map_client_side(&mut alloc, 4, |r| vec![(r, 1000)]);
        for (r, &core) in cores.iter().enumerate() {
            assert_eq!(spec.node_of_core(core), r as u32);
        }
    }

    #[test]
    fn client_side_prefers_biggest_share() {
        let spec = MachineSpec::new(3, 2);
        let mut alloc = CoreAllocator::new(spec);
        let cores = map_client_side(&mut alloc, 1, |_| vec![(0, 10), (1, 500), (2, 20)]);
        assert_eq!(spec.node_of_core(cores[0]), 1);
    }

    #[test]
    fn client_side_overflows_when_preferred_full() {
        let spec = MachineSpec::new(2, 1);
        let mut alloc = CoreAllocator::new(spec);
        // Both tasks want node 0, which has one core.
        let cores = map_client_side(&mut alloc, 2, |_| vec![(0, 100), (1, 1)]);
        assert_eq!(spec.node_of_core(cores[0]), 0);
        assert_eq!(spec.node_of_core(cores[1]), 1);
    }

    #[test]
    fn client_side_no_location_info_falls_back() {
        let spec = MachineSpec::new(2, 2);
        let mut alloc = CoreAllocator::new(spec);
        let cores = map_client_side(&mut alloc, 4, |_| vec![]);
        assert_eq!(cores.len(), 4);
    }
}
