//! Machine description and task placements.
//!
//! The paper's platform is the Jaguar Cray XT5: multicore compute nodes
//! (dual hex-core, 12 cores each) joined by a 3-D torus. [`MachineSpec`]
//! describes such a machine; [`Placement`] records which core each
//! execution client (one per computation task) runs on — the output of a
//! task-mapping strategy and the input to every byte-accounting and
//! time-model question ("is this transfer intra-node or inter-node?").

/// Identifier of a compute node.
pub type NodeId = u32;
/// Global core identifier: `node * cores_per_node + local_core`.
pub type CoreId = u32;
/// Identifier of an execution client (equivalently, a computation task
/// slot): one client per core in a full allocation.
pub type ClientId = u32;

/// Shape of the simulated machine.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MachineSpec {
    /// Number of compute nodes.
    pub nodes: u32,
    /// Processor cores per node (12 on Jaguar XT5).
    pub cores_per_node: u32,
}

impl MachineSpec {
    /// Create a spec.
    ///
    /// # Panics
    /// Panics if either count is zero.
    pub fn new(nodes: u32, cores_per_node: u32) -> Self {
        assert!(nodes > 0 && cores_per_node > 0, "machine must be non-empty");
        MachineSpec {
            nodes,
            cores_per_node,
        }
    }

    /// Total core count.
    pub fn total_cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }

    /// Node owning a global core id.
    #[inline]
    pub fn node_of_core(&self, core: CoreId) -> NodeId {
        debug_assert!(core < self.total_cores());
        core / self.cores_per_node
    }

    /// Local index of a core within its node.
    #[inline]
    pub fn local_core(&self, core: CoreId) -> u32 {
        core % self.cores_per_node
    }

    /// Global core id from node and local index.
    #[inline]
    pub fn core(&self, node: NodeId, local: u32) -> CoreId {
        debug_assert!(node < self.nodes && local < self.cores_per_node);
        node * self.cores_per_node + local
    }
}

/// A mapping from execution clients to processor cores.
#[derive(Clone, Debug)]
pub struct Placement {
    spec: MachineSpec,
    core_of: Vec<CoreId>,
}

impl Placement {
    /// Build from an explicit client -> core vector.
    ///
    /// # Panics
    /// Panics if any core id is out of range or two clients share a core.
    pub fn new(spec: MachineSpec, core_of: Vec<CoreId>) -> Self {
        let mut used = vec![false; spec.total_cores() as usize];
        for &c in &core_of {
            assert!(c < spec.total_cores(), "core {c} out of range");
            assert!(!used[c as usize], "core {c} assigned twice");
            used[c as usize] = true;
        }
        Placement { spec, core_of }
    }

    /// Launcher-style sequential packing: client `i` on core `i` (fills
    /// node 0 completely, then node 1, ...).
    pub fn pack_sequential(spec: MachineSpec, clients: u32) -> Self {
        assert!(clients <= spec.total_cores(), "more clients than cores");
        Self::new(spec, (0..clients).collect())
    }

    /// Number of placed clients.
    pub fn num_clients(&self) -> u32 {
        self.core_of.len() as u32
    }

    /// Node of a client.
    #[inline]
    pub fn node_of(&self, client: ClientId) -> NodeId {
        self.spec.node_of_core(self.core_of[client as usize])
    }

    /// Whether two clients share a compute node (and can therefore use
    /// shared memory for their transfers).
    #[inline]
    pub fn colocated(&self, a: ClientId, b: ClientId) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_core_math() {
        let s = MachineSpec::new(4, 12);
        assert_eq!(s.total_cores(), 48);
        assert_eq!(s.node_of_core(0), 0);
        assert_eq!(s.node_of_core(11), 0);
        assert_eq!(s.node_of_core(12), 1);
        assert_eq!(s.local_core(13), 1);
        assert_eq!(s.core(3, 11), 47);
    }

    #[test]
    fn pack_sequential_fills_nodes_in_order() {
        let p = Placement::pack_sequential(MachineSpec::new(3, 4), 9);
        assert_eq!(p.node_of(0), 0);
        assert_eq!(p.node_of(3), 0);
        assert_eq!(p.node_of(4), 1);
        assert_eq!(p.node_of(8), 2);
    }

    #[test]
    fn colocated_detection() {
        let p = Placement::pack_sequential(MachineSpec::new(2, 2), 4);
        assert!(p.colocated(0, 1));
        assert!(!p.colocated(1, 2));
    }

    #[test]
    fn clients_on_node() {
        let p = Placement::new(MachineSpec::new(2, 2), vec![0, 2, 1, 3]);
        let on = |node| {
            (0..p.num_clients())
                .filter(|&c| p.node_of(c) == node)
                .collect::<Vec<_>>()
        };
        assert_eq!(on(0), vec![0, 2]);
        assert_eq!(on(1), vec![1, 3]);
    }

    #[test]
    #[should_panic(expected = "assigned twice")]
    fn rejects_shared_core() {
        Placement::new(MachineSpec::new(1, 2), vec![0, 0]);
    }

    #[test]
    #[should_panic(expected = "more clients than cores")]
    fn rejects_overflow() {
        Placement::pack_sequential(MachineSpec::new(1, 2), 3);
    }
}
