//! # insitu-chaos — deterministic fault injection and workflow fuzzing
//!
//! Chaos testing for the in-situ workflow stack: a seeded [`FaultPlan`]
//! drives the runtime's [`insitu_fabric::FaultHooks`] sites (dead
//! producers between DHT insert and buffer registration, dropped and
//! delayed pulls, DHT-core blackouts, staging-memory exhaustion, wire
//! and telemetry loss, shm-attach failures, sub-push drops, torus-link
//! slowdowns in the time model) while a randomized generator
//! fuzzes whole workflow cases — DAG shapes, bundles, decompositions,
//! `*_cont`/`*_seq` couplings — through the threaded executor, checking
//! cross-layer invariants and (on fault-free cases) byte-exact ledger
//! equivalence against the modeled executor.
//!
//! Everything is a pure function of `(seed, case count, fault spec)`:
//!
//! ```
//! let spec = insitu_chaos::FaultSpec::standard();
//! let a = insitu_chaos::run_chaos(42, 2, &spec);
//! let b = insitu_chaos::run_chaos(42, 2, &spec);
//! assert_eq!(a.render(), b.render()); // bit-for-bit replayable
//! ```
//!
//! When a case violates an invariant, `shrink` greedily minimizes it
//! while the violation persists and [`run_chaos`] renders the result as a
//! ready-to-paste `#[test]` reproducer, so a CI failure becomes a local
//! unit test by copy-paste (see `insitu chaos --help` and DESIGN.md §6).
//!
//! The fault vocabulary is not stated here: [`FaultKind`] and the hook
//! contract live in `insitu_fabric::fault`, and this crate re-exports
//! the kind. What the crate adds is the plan — a [`FaultSpec`] of
//! per-kind rates and the seeded rolls that decide each site.

#![warn(missing_docs)]

mod generator;
mod harness;
mod plan;
mod shrink;

pub use generator::CaseSpec;
pub use harness::{run_case_spec, run_chaos, CaseOutcome, ChaosReport};
pub use insitu_fabric::FaultKind;
pub use plan::{FaultPlan, FaultSpec};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shrink::{reproducer, shrink};

    /// The acceptance demo: a deliberately injected dead-producer fault is
    /// caught by the harness as a typed timeout naming the owner, shrunk,
    /// and reported as a minimal paste-ready reproducer.
    #[test]
    fn dead_producer_is_caught_shrunk_and_reproduced() {
        let spec = FaultSpec::none().with_rate(FaultKind::DeadProducer, 1.0);
        let case = CaseSpec {
            concurrent: true,
            pgrid: vec![2, 2],
            cgrid: vec![2, 1],
            c2grid: vec![1, 1],
            region_side: 3,
            pattern: 0,
            iterations: 2,
            halo: 1,
            cores_per_node: 4,
            subregion: false,
            sub_every: 0,
        };
        let outcome = run_case_spec(7, 0, &spec, &case);
        // Every put is orphaned: the harness sees injected faults and the
        // consumers report typed timeouts naming the owning client.
        assert!(outcome.injected[FaultKind::DeadProducer.idx()] > 0);
        assert!(!outcome.errors.is_empty(), "orphaned puts must surface");
        assert!(
            outcome.errors.iter().any(|e| e.contains("from client")),
            "timeouts must name the owner: {:?}",
            outcome.errors
        );
        assert!(outcome.ok(), "invariants hold: {:?}", outcome.violations);

        // Shrinking under "still produces errors" reaches the floor case.
        let minimal = shrink(&case, &|cand| {
            !run_case_spec(7, 0, &spec, cand).errors.is_empty()
        });
        assert_eq!(minimal.pgrid, vec![1, 1]);
        assert_eq!(minimal.cgrid, vec![1, 1]);
        assert_eq!(minimal.iterations, 1);
        assert_eq!(minimal.region_side, 2);

        let rep = reproducer(7, 0, &spec, &minimal, "orphaned puts time out");
        assert!(rep.contains("#[test]"));
        assert!(rep.contains("dead-producer:1"));
        assert!(rep.contains("insitu_chaos::run_case_spec(7, 0, &spec, &case)"));
    }

    /// The reproducer a full chaos run emits for a violating case replays
    /// the violation through `run_case_spec` exactly as pasted.
    #[test]
    fn emitted_reproducers_replay() {
        // Force a (synthetic) violation path by treating any erroring case
        // as the shrink target, then check the minimal case still errors
        // when replayed with the printed arguments.
        let spec = FaultSpec::none().with_rate(FaultKind::DropPull, 1.0);
        let case = CaseSpec {
            concurrent: false,
            pgrid: vec![2, 1],
            cgrid: vec![1, 2],
            c2grid: vec![1, 1],
            region_side: 2,
            pattern: 1,
            iterations: 1,
            halo: 0,
            cores_per_node: 2,
            subregion: false,
            sub_every: 0,
        };
        let minimal = shrink(&case, &|cand| {
            !run_case_spec(3, 5, &spec, cand).errors.is_empty()
        });
        let replayed = run_case_spec(3, 5, &spec, &minimal);
        assert!(!replayed.errors.is_empty());
        assert!(replayed.ok(), "violations: {:?}", replayed.violations);
    }
}
