//! n-dimensional domain geometry and data decompositions.
//!
//! This crate provides the geometric substrate used throughout the in-situ
//! workflow framework:
//!
//! * [`BoundingBox`] — axis-aligned boxes with inclusive bounds over an
//!   unsigned integer lattice, the "geometric descriptor" of the paper's
//!   CoDS `put()`/`get()` operators;
//! * [`ProcessGrid`] — the `(p_1, ..., p_n)` process layout of a data
//!   parallel application;
//! * [`Distribution`] — the three distribution types supported by the
//!   framework: blocked, cyclic and block-cyclic;
//! * [`Decomposition`] — a domain + grid + distribution triple that can
//!   answer ownership, overlap-volume and region-enumeration queries, the
//!   inputs for both the inter-application communication graph and the
//!   M×N redistribution schedules;
//! * [`layout`] — row-major linearization and strided sub-box copies used
//!   by the actual data movement;
//! * [`stencil`] — near-neighbor (halo) exchange geometry used to model
//!   intra-application communication.

#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // odometer/index loops read clearer with explicit dims

pub mod bbox;
pub(crate) mod decomp;
pub mod dist;
pub mod grid;
pub mod layout;
pub mod stencil;

pub use bbox::{BoundingBox, Pt, MAX_DIMS};
pub use decomp::{Decomposition, RankOverlap};
pub use dist::Distribution;
pub use grid::ProcessGrid;
