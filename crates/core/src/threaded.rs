//! The threaded executor: one OS thread per computation task, really
//! moving field data through CoDS and HybridDART.
//!
//! Execution clients (threads) are pinned to simulated cores by the task
//! mapping; HybridDART classifies every transfer as shared-memory or
//! network by that placement. Consumers verify every retrieved cell
//! against the deterministic field function, so a passing run certifies
//! the whole redistribution pipeline end to end.
//!
//! The state construction and the per-task routine live in the
//! crate-private `exec` module, shared with the multi-process
//! [`distrib`](crate::distrib) runner; this module is the single-process
//! wave engine on top.

use crate::exec::{dispatch_payload, wave_tasks, ExecEnv, TAG_DISPATCH};
use crate::mapping::{MappedScenario, MappingStrategy};
use crate::scenario::Scenario;
use insitu_cods::{CodsError, GetReport};
use insitu_fabric::{FaultInjector, LedgerSnapshot, TrafficClass};
use insitu_obs::FlightRecorder;
use insitu_telemetry::Recorder;
use insitu_util::Bytes;
use std::time::Duration;

pub(crate) use crate::exec::TAG_COLLECTIVE_BASE;
pub use crate::exec::{field_value, fill_field, fill_piece, staging_slab, verify_field};

/// Results of a threaded run.
#[derive(Clone, Debug)]
pub struct ThreadedOutcome {
    /// Strategy the scenario ran under.
    pub strategy: MappingStrategy,
    /// Byte ledger, comparable with the modeled executor's.
    pub ledger: LedgerSnapshot,
    /// One report per consumer `get`, tagged `(app, rank)`.
    pub reports: Vec<(u32, u64, GetReport)>,
    /// Cells whose retrieved value did not match the field function.
    pub verify_failures: u64,
    /// Operator errors tasks hit, tagged `(app, rank)` and sorted for
    /// determinism. Empty on a fault-free run; never triggers a panic —
    /// a failed coupling is abandoned, the rest of the task proceeds.
    pub errors: Vec<(u32, u64, CodsError)>,
    /// Buffers still registered (staged) when the workflow finished —
    /// lost puts show up here as the difference from evictions.
    pub staged_buffers: u64,
    /// The placements used.
    pub mapped: MappedScenario,
}

/// Execution knobs of the threaded executor: the `get` timeout, the
/// fault sites chaos testing drives, and the flight recorder `insitu
/// profile` reads.
#[derive(Clone, Debug)]
pub struct ThreadedConfig {
    /// How long a `get` waits for a missing piece, and how long producers
    /// wait for a version to be consumed before giving up on reclaim.
    pub get_timeout: Duration,
    /// Fault sites to consult (inert by default).
    pub injector: FaultInjector,
    /// Flight recorder for causal put/get/pull events (disabled by
    /// default; enable for `insitu profile`).
    pub flight: FlightRecorder,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            get_timeout: Duration::from_secs(60),
            injector: FaultInjector::none(),
            flight: FlightRecorder::disabled(),
        }
    }
}

/// Run `scenario` under `strategy` with real threads and data.
///
/// Intended for up to a few hundred tasks (tests, examples); use
/// [`crate::run_modeled`] for paper-scale configurations.
pub fn run_threaded(scenario: &Scenario, strategy: MappingStrategy) -> ThreadedOutcome {
    run_threaded_configured(
        scenario,
        strategy,
        &Recorder::disabled(),
        &ThreadedConfig::default(),
    )
}

/// [`run_threaded`], recording metrics into `recorder` — the layers'
/// counters plus one histogram sample per workflow phase
/// (`workflow.{map,group,execute}_us`) and per task
/// (`exec.task_us`) — under explicit execution knobs: a custom `get`
/// timeout, a [`FaultInjector`] consulted at the runtime's fault sites,
/// a flight recorder. Pass `&ThreadedConfig::default()` for none.
pub fn run_threaded_configured(
    scenario: &Scenario,
    strategy: MappingStrategy,
    recorder: &Recorder,
    cfg: &ThreadedConfig,
) -> ThreadedOutcome {
    // One execution client per core, client id == core id.
    let env = ExecEnv::build(scenario, strategy, recorder, cfg, None);
    let group_us = recorder.histogram("workflow.group_us");
    let execute_us = recorder.histogram("workflow.execute_us");
    for wave in &env.mapped.waves {
        let tasks = wave_tasks(&env.scenario, &env.mapped, wave);
        // The workflow management server dispatches each task assignment
        // (app id, rank) to its execution client before launch — the
        // paper's "initial distribution of computation tasks". The server
        // is modeled as co-resident with client 0's node; dispatches are
        // Control-class traffic. These are enqueued before any task thread
        // exists, so each client's first message is its assignment.
        group_us.time(|| {
            for &(app_id, rank, client) in &tasks {
                env.dart.send(
                    app_id,
                    TrafficClass::Control,
                    0,
                    client,
                    TAG_DISPATCH,
                    Bytes::from(dispatch_payload(app_id, rank)),
                );
            }
        });
        let local: Vec<(u32, u64)> = tasks.iter().map(|&(a, r, _)| (a, r)).collect();
        execute_us.time(|| env.run_tasks(&local));
    }

    env.into_outcome(strategy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::curve_for;
    use crate::scenario::{concurrent_scenario, pattern_pairs, sequential_scenario};
    use insitu_domain::BoundingBox;
    use insitu_sfc::SpaceFillingCurve;

    #[test]
    fn field_value_deterministic_and_varied() {
        let a = field_value(1, 0, &[1, 2, 3]);
        assert_eq!(a, field_value(1, 0, &[1, 2, 3]));
        assert_ne!(a, field_value(1, 0, &[1, 2, 4]));
        assert_ne!(a, field_value(2, 0, &[1, 2, 3]));
        assert_ne!(a, field_value(1, 1, &[1, 2, 3]));
        assert!((0.0..1.0).contains(&a));
    }

    #[test]
    fn curve_covers_domain() {
        let c = curve_for(&BoundingBox::from_sizes(&[24, 24, 24]));
        assert_eq!(c.side(), 32);
        let c = curve_for(&BoundingBox::from_sizes(&[32, 8]));
        assert_eq!(c.side(), 32);
    }

    #[test]
    fn threaded_concurrent_verifies_clean() {
        let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        let o = run_threaded(&s, MappingStrategy::DataCentric);
        assert_eq!(o.verify_failures, 0);
        assert_eq!(o.reports.len(), 4);
        // Full domain redistributed: 32^3... domain is grid*region = (2,2,2)*4 = 8^3.
        assert_eq!(o.ledger.total_bytes(TrafficClass::InterApp), 8 * 8 * 8 * 8);
    }

    #[test]
    fn threaded_sequential_verifies_clean() {
        let mut s = sequential_scenario(8, 4, 4, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        let o = run_threaded(&s, MappingStrategy::DataCentric);
        assert_eq!(o.verify_failures, 0);
        // SAP2 and SAP3 each read the whole domain.
        assert_eq!(
            o.ledger.total_bytes(TrafficClass::InterApp),
            2 * 8 * 8 * 8 * 8
        );
        // Sequential gets consult the DHT.
        assert!(o
            .reports
            .iter()
            .any(|(_, _, r)| r.dht_cores_queried > 0 || r.cache_hit));
    }

    #[test]
    fn threaded_mismatched_patterns_verify_clean() {
        // block-cyclic consumer: many pieces, still exact.
        let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[2]);
        s.cores_per_node = 4;
        let o = run_threaded(&s, MappingStrategy::RoundRobin);
        assert_eq!(o.verify_failures, 0);
    }

    #[test]
    fn iterative_concurrent_coupling_verifies_and_reclaims() {
        let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]).with_iterations(4);
        s.cores_per_node = 4;
        let o = run_threaded(&s, MappingStrategy::DataCentric);
        assert_eq!(o.verify_failures, 0);
        // 4 consumers x 4 versions of gets.
        assert_eq!(o.reports.len(), 16);
        // Versions after the first replay the cached schedule.
        let hits = o.reports.iter().filter(|(_, _, r)| r.cache_hit).count();
        assert!(hits >= 12, "expected cache replays, got {hits}");
        // Coupled volume scales with iterations.
        let domain_bytes = s.decomposition(1).domain().num_cells() as u64 * 8;
        assert_eq!(
            o.ledger.total_bytes(TrafficClass::InterApp),
            4 * domain_bytes
        );
    }

    #[test]
    fn iterative_sequential_coupling_verifies() {
        let mut s =
            sequential_scenario(8, 4, 4, 4, pattern_pairs(&[2, 2, 2])[0]).with_iterations(2);
        s.cores_per_node = 4;
        let o = run_threaded(&s, MappingStrategy::RoundRobin);
        assert_eq!(o.verify_failures, 0);
        let domain_bytes = s.decomposition(1).domain().num_cells() as u64 * 8;
        assert_eq!(
            o.ledger.total_bytes(TrafficClass::InterApp),
            2 * 2 * domain_bytes // two consumers x two versions
        );
    }

    #[test]
    fn threaded_stencil_traffic_recorded() {
        let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        let o = run_threaded(&s, MappingStrategy::RoundRobin);
        assert!(o.ledger.total_bytes(TrafficClass::IntraApp) > 0);
    }

    #[test]
    fn telemetry_mirrors_ledger_and_traces_phases() {
        let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        let rec = Recorder::enabled();
        let o =
            run_threaded_configured(&s, MappingStrategy::DataCentric, &rec, &Default::default());
        assert_eq!(o.verify_failures, 0);
        let snap = rec.metrics_snapshot();
        for class in TrafficClass::ALL {
            let mirrored: u64 = insitu_fabric::Locality::ALL
                .iter()
                .map(|l| snap.counter(&format!("fabric.bytes.{}.{}", class.slug(), l.slug())))
                .sum();
            assert_eq!(mirrored, o.ledger.total_bytes(class), "{class:?}");
        }
        // All three workflow phases, and one sample per task (8 + 4).
        for phase in ["map", "group", "execute"] {
            let name = format!("workflow.{phase}_us");
            let count = snap.histograms.get(&name).map_or(0, |h| h.count);
            assert!(count >= 1, "missing {name}");
        }
        assert_eq!(snap.histograms["exec.task_us"].count, 12);
        // A disabled recorder leaves no residue.
        let off = Recorder::disabled();
        run_threaded_configured(&s, MappingStrategy::DataCentric, &off, &Default::default());
        assert_eq!(off.metrics_snapshot(), Default::default());
    }

    #[test]
    fn task_dispatch_is_control_traffic() {
        let mut s = concurrent_scenario(8, 4, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        let o = run_threaded(&s, MappingStrategy::RoundRobin);
        // One 12-byte dispatch per task.
        assert_eq!(o.ledger.total_bytes(TrafficClass::Control), 12 * 12);
    }
}
