//! Library half of the `insitu` command-line driver: workload
//! configuration parsing and scenario assembly, kept separate from
//! `main.rs` so it is unit-testable.
//!
//! The DAG structure comes from the paper's Listing-1 description file;
//! the workload configuration (task counts, decompositions, couplings,
//! machine shape) comes from a companion file in a similar line-oriented
//! format:
//!
//! ```text
//! # workload configuration
//! CORES_PER_NODE 12
//! DOMAIN 64 64 64
//! HALO 2
//! ITERATIONS 1
//! APP 1 GRID 2 2 2 DIST blocked
//! APP 2 GRID 4 1 1 DIST block-cyclic 8 8 8
//! COUPLING VAR temperature PRODUCER 1 CONSUMERS 2 MODE concurrent
//! ```
//!
//! Plain text keeps the driver free of serialization dependencies and
//! close to the paper's own file format.

#![warn(missing_docs)]

pub mod config;
pub mod distrib;
pub mod driver;
pub(crate) mod svc_cmd;

pub use config::{ConfigError, WorkloadConfig};
pub use distrib::{join_cmd, launch_cmd, serve_cmd, JoinCmd, LaunchCmd, RunOutputs, ServeCmd};
pub use driver::{build_scenario, profile, run, CliError, Options, ProfileOptions};
pub use svc_cmd::{
    cancel_cmd, service_cmd, status_cmd, submit_cmd, watch_cmd, CancelCmd, ServiceCmd, StatusCmd,
    SubmitCmd, SubmitSource, WatchCmd,
};
