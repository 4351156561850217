//! # insitu — in-situ execution of coupled scientific workflows
//!
//! A Rust reproduction of Zhang et al., *"Enabling In-situ Execution of
//! Coupled Scientific Workflow on Multi-core Platform"* (IPDPS 2012): a
//! distributed data sharing and task execution framework that (1) maps
//! computations from coupled applications onto processor cores so that
//! most data exchange happens through intra-node shared memory, and
//! (2) provides a shared-space programming abstraction (CoDS) with
//! one-sided asynchronous `put`/`get` operators addressed by geometric
//! descriptors.
//!
//! ## Quick start
//!
//! ```
//! use insitu::{concurrent_scenario, pattern_pairs, run_threaded, MappingStrategy};
//! use insitu_fabric::TrafficClass;
//!
//! // A miniature of the paper's concurrent coupling scenario: 8 producer
//! // tasks feed 4 consumer tasks over a shared 3-D domain.
//! let mut scenario = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]);
//! scenario.cores_per_node = 4;
//!
//! let outcome = run_threaded(&scenario, MappingStrategy::DataCentric);
//! assert_eq!(outcome.verify_failures, 0);
//! let net = outcome.ledger.network_bytes(TrafficClass::InterApp);
//! let total = outcome.ledger.total_bytes(TrafficClass::InterApp);
//! println!("coupled data over network: {net} of {total} bytes");
//! ```
//!
//! ## Layers
//!
//! | crate | role |
//! |---|---|
//! | `insitu-domain` | boxes, decompositions, overlap math |
//! | `insitu-sfc` | Hilbert/Morton curves, box → index spans |
//! | `insitu-partition` | multilevel graph partitioner (METIS stand-in) |
//! | `insitu-fabric` | simulated machine, byte ledger, torus, time model |
//! | `insitu-dart` | HybridDART transports and registered buffers |
//! | `insitu-cods` | the CoDS shared space (DHT + schedules + put/get) |
//! | `insitu-workflow` | DAG parsing, bundles, task mappers, grouping |
//! | `insitu-core` | this facade: scenarios and the two executors |
//!
//! Two executors share one mapping/accounting pipeline: [`run_threaded`]
//! really moves data between threads (tests, examples), [`run_modeled`]
//! evaluates the same byte arithmetic analytically (the paper-scale
//! experiment harness).

#![warn(missing_docs)]

pub mod analysis;
pub mod comm;
pub mod distrib;
mod exec;
pub mod mapping;
pub mod mapreduce;
pub mod miniapp;
pub mod modeled;
pub(crate) mod pgas;
pub mod scenario;
pub mod threaded;

pub use comm::{GroupComm, ReduceOp};
pub use distrib::{
    join, serve, DistribOutcome, JoinOptions, ServeOptions, DEFAULT_CONNECT_TIMEOUT,
};
pub use mapping::{map_scenario, MappedScenario, MappingStrategy};
pub use modeled::{run_modeled, run_modeled_configured, ModeledConfig, ModeledOutcome};
pub use pgas::GlobalArray;
pub use scenario::{
    aligned_grid, balanced_grid, concurrent_scenario, concurrent_scenario_with_grids,
    pattern_pairs, sequential_scenario, sequential_scenario_with_grids, CouplingSpec, PatternPair,
    Scenario, SubscriptionSpec,
};
pub use threaded::{
    field_value, fill_field, fill_piece, run_threaded, run_threaded_configured, staging_slab,
    verify_field, ThreadedConfig, ThreadedOutcome,
};

// Re-export the substrate crates so downstream users need one dependency.
pub use insitu_cods as cods;
pub use insitu_dart as dart;
pub use insitu_domain as domain;
pub use insitu_fabric as fabric;
pub use insitu_obs as obs;
pub use insitu_partition as partition;
pub use insitu_sfc as sfc;
pub use insitu_sub as sub;
pub use insitu_workflow as workflow;
