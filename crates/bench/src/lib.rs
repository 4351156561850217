//! Experiment harness for the paper's evaluation section.
//!
//! Every figure of the evaluation (Figs. 8–16) is a row of
//! [`emit::FIGURES`]; the one binary, `figures`, regenerates them by
//! running the modeled executor on the paper's configurations, printing
//! each table and writing a machine-readable `BENCH_figNN.json`. The
//! experiment drivers live in `experiments`, where tier-1 tests lock
//! each figure's shape at a miniature scale.

#![warn(missing_docs)]

pub mod emit;
pub(crate) mod experiments;
pub mod table;

pub use experiments::*;
