//! Std-only shared utilities for the insitu workspace.
//!
//! The workspace builds with no network access, so the external crates a
//! system like this would normally pull in are replaced by small local
//! equivalents:
//!
//! - [`Bytes`] — a cheaply clonable, immutable byte buffer (replaces
//!   `bytes::Bytes` for the subset of its API the workspace uses);
//! - [`rng::SplitMix64`] — a tiny seeded PRNG (replaces `rand` in tests
//!   and synthetic workloads);
//! - [`check`] — a deterministic property-test driver (replaces
//!   `proptest`: seeded random cases, plain `assert!`s, reproducible
//!   failures);
//! - [`Poller`] — a readiness poller over non-blocking sockets, on a
//!   self-declared `epoll` + `eventfd` binding (replaces `mio` for the
//!   `insitu-net` reactor's needs);
//! - [`shm`] — file-backed shared-memory mappings and the SPSC
//!   descriptor ring of the intra-host data plane (replaces `memmap2`
//!   with a minimal self-declared `mmap` shim);
//! - [`Recycled`] and [`HugeSlab`] — the birth sites of the data path's
//!   large cell and payload buffers: a transient buffer goes back warm
//!   to the [`Shelf`] of its owner (a run's runtime, a reactor) for the
//!   next one of its length, and retained [`HugeCells`] are carved from
//!   one slab advised onto transparent huge pages before its first
//!   touch;
//! - [`HugeAlloc`] — the `insitu` binary's global allocator, which
//!   places every large block on whole, aligned huge pages.

#![warn(missing_docs)]

pub mod bytes;
pub mod check;
mod huge;
pub mod poller;
mod recycle;
pub mod rng;
pub mod shm;

pub use bytes::Bytes;
pub use huge::{HugeAlloc, HugeCells, HugeSlab, HUGE_PAGE};
pub use poller::Poller;
pub use recycle::{Recycled, Shelf};
pub use rng::SplitMix64;
