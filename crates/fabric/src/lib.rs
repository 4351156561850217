//! Simulated multicore HPC platform.
//!
//! This crate substitutes for the paper's Jaguar Cray XT5 testbed. It
//! provides:
//!
//! * [`MachineSpec`] / [`Placement`] — nodes × cores and the mapping from
//!   execution clients to cores (the *output* of a task-mapping strategy);
//! * [`TransferLedger`] — thread-safe byte accounting classified by
//!   traffic class, application and locality (shared memory vs network),
//!   the measured quantity of Figs. 8, 9 and 12–15;
//! * [`TorusTopology`] — SeaStar2+-style 3-D torus with dimension-ordered
//!   routing, used for link-contention accounting;
//! * [`NetworkModel`] / [`estimate_retrieves`] — the analytic time
//!   model that stands in for wall-clock measurements on the Cray
//!   (Figs. 11 and 16).

#![warn(missing_docs)]

pub mod fault;
pub mod ledger;
pub mod machine;
pub(crate) mod timemodel;
pub(crate) mod torus;

pub use fault::{FaultAction, FaultHooks, FaultInjector, FaultKind, NetOp};
pub use ledger::{LedgerSnapshot, Locality, TrafficClass, TransferLedger};
pub use machine::{ClientId, CoreId, MachineSpec, NodeId, Placement};
pub use timemodel::{
    estimate_file_coupling_time, estimate_retrieves, ClientRetrieve, FilesystemModel, LinkFaults,
    NetworkModel, RetrieveBreakdown, Transfer, TransferSlot,
};
pub use torus::{LinkId, TorusTopology};
