//! k-way graph partitioning for data-centric task mapping.
//!
//! The paper's workflow management server "uses graph partitioning tools
//! (e.g., METIS) to group and map data-intensive communicating tasks onto
//! the same compute node" (§III.A). This crate is that tool: a multilevel
//! k-way partitioner in the Karypis-Kumar style ([`MultilevelPartitioner`]),
//! plus the baselines the evaluation compares against
//! ([`RoundRobinPartitioner`], [`GreedyGrowthPartitioner`]).
//!
//! All partitioners honor a hard per-part weight cap
//! ([`PartitionConfig::with_cap`]): with unit vertex weights and
//! `cap = cores_per_node`, every part fits on one compute node.

#![warn(missing_docs)]

pub mod graph;
pub(crate) mod multilevel;
pub(crate) mod partitioner;

pub use graph::{Graph, GraphBuilder};
pub use multilevel::MultilevelPartitioner;
pub use partitioner::{
    GreedyGrowthPartitioner, PartitionConfig, Partitioner, RoundRobinPartitioner,
};
