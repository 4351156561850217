//! Workflow management for in-situ coupled scientific applications.
//!
//! The paper's workflow management server (§III.A) has two modules.
//! This crate is the model behind its *Workflow Engine*: the DAG, its
//! waves and the task mappers. `insitu::map_scenario` maps each wave
//! and the executors dispatch and barrier them. *Execution Client
//! Management* is the distributed hub's greeting (`insitu_net::Hub`):
//! each node process claims its node with a `Hello` and learns the run
//! from the `Welcome`.
//!
//! * `parser` — the DAG description-file format of Listing 1;
//! * [`spec`] — applications, dependency edges, bundles and the wave
//!   schedule;
//! * `comm_graph` — inter-application communication graphs built from
//!   declared data decompositions (closed-form overlap volumes);
//! * `mappers` — one function per strategy: the packed (`round-robin`)
//!   and `node-cyclic` baselines, server-side data-centric mapping (graph
//!   partitioning) and client-side data-centric mapping (follow the data);
//! * `groups` — dynamic client grouping by application color, the
//!   `MPI_Comm_split` analog.

#![warn(missing_docs)]

pub(crate) mod authoring;
pub(crate) mod comm_graph;
pub(crate) mod groups;
pub(crate) mod mappers;
pub(crate) mod parser;
pub mod spec;

pub use authoring::{compile_workflow, parse_override, AuthorError, AuthoredWorkflow};
pub use comm_graph::{
    build_inter_app_graph_region, fanout_per_consumer, pairwise_overlaps, pairwise_overlaps_region,
};
pub use groups::AppGroup;
pub use mappers::{
    map_client_side, map_data_centric_server, map_node_cyclic, map_packed, BundleMapping,
    CoreAllocator,
};
pub use parser::{parse_dag, ParseError, CLIMATE_MODELING_DAG, ONLINE_PROCESSING_DAG};
pub use spec::{AppSpec, SpecError, WorkflowSpec};
