//! Co-located DataSpaces (CoDS): the virtual shared-space abstraction.
//!
//! CoDS "constructs a distributed hash table (DHT) that spans cores across
//! all the compute nodes, which keeps track of locations of the coupled
//! data and uses a semantically specialized indexing that is based on the
//! scientific applications' representation of the data domain" (§IV.A).
//!
//! * [`Dht`] — Hilbert-SFC interval DHT with per-core location tables;
//! * [`schedule`] — communication-schedule computation (from DHT entries
//!   or directly from a producer's decomposition) and the schedule cache;
//! * [`CodsSpace`] — the `put`/`get` operator API of Table I, one-sided,
//!   asynchronous, geometric-descriptor addressed;
//! * [`codec`] — field data ↔ byte buffer conversion.

#![warn(missing_docs)]

pub mod codec;
pub mod dht;
pub mod schedule;
pub mod space;

pub use codec::FieldData;
pub use dht::{var_id, Dht, LocationEntry};
pub use schedule::{
    schedule_from_decomposition, schedule_from_entries, CommSchedule, ScheduleCache, TransferOp,
};
pub use space::{CodsConfig, CodsError, CodsSpace, GetReport, SubHandle, DEFAULT_GET_TIMEOUT};
