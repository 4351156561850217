//! HybridDART: the asynchronous communication layer.
//!
//! The paper's HybridDART (§III.A) extends DART with a shared-memory fast
//! path: it "dynamically select\[s\] the appropriate data transfer
//! mechanism, i.e., shared memory or RDMA-supported network transport,
//! depending on the locations of the communicating tasks". In this
//! reproduction all execution clients live in one address space, so the
//! shared-memory path is literal; the "RDMA" path moves the same bytes but
//! is *accounted* as network traffic in the [`TransferLedger`](insitu_fabric::TransferLedger) according
//! to the placement — which is exactly the quantity the paper measures.
//!
//! Facilities:
//! * [`Mailbox`] messaging — the RPC-like two-sided primitive used by the
//!   control plane (registration, task dispatch, group formation);
//! * [`registry`] — remotely accessible registered buffers with blocking
//!   rendezvous, the one-sided substrate of the receiver-driven pull;
//! * transport selection + accounting on [`DartRuntime`].

#![warn(missing_docs)]

pub mod mailbox;
pub mod registry;
pub mod runtime;
pub mod transport;

pub use mailbox::{Mailbox, Msg};
pub use registry::{piece_owner, BufKey, BufferHandle, BufferRegistry};
pub use runtime::DartRuntime;
pub use transport::{LocalTransport, Transport};
