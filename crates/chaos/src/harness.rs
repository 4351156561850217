//! The chaos harness: run fuzzed cases under injected faults and check
//! cross-layer invariants.
//!
//! Each case runs the threaded executor with a seeded [`FaultPlan`]
//! installed, then asserts properties that must hold *whatever* the
//! faults did:
//!
//! - delivered data always verifies against the field function,
//! - no operator error without an injected fault behind it,
//! - every fault surfaces as a typed [`CodsError`] (never a panic or a
//!   silent wrong answer), with timeouts naming the owning client,
//! - telemetry balances: `cods.put` = staged buffers + `cods.evictions`
//!   + dead-producer orphans,
//! - the ledger's observer tap agrees with its snapshot byte-for-byte,
//! - fault-free cases are ledger-equivalent to the modeled executor,
//! - link slowdowns never make a modeled retrieve *faster*.
//!
//! The whole run is a pure function of `(seed, cases, fault spec)`; the
//! rendered report is byte-identical across invocations, so CI can diff
//! two consecutive runs to prove replayability.

use crate::generator::{dag_round_trip, random_workflow, CaseSpec};
use crate::plan::{FaultPlan, FaultSpec};
use crate::shrink::{reproducer, shrink};
use insitu::{run_modeled, run_threaded_configured, MappingStrategy, ThreadedConfig};
use insitu_cods::CodsError;
use insitu_fabric::{
    estimate_retrieves, ClientRetrieve, FaultInjector, FaultKind, LinkFaults, Locality,
    NetworkModel, TorusTopology, TrafficClass, Transfer,
};
use insitu_obs::{EventKind, FlightRecorder};
use insitu_telemetry::Recorder;
use insitu_util::rng::SplitMix64;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

/// Derive the per-case seed from the run seed and the case index.
pub(crate) fn case_seed(seed: u64, idx: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ idx.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

/// Everything one case produced: what was injected, what errored, which
/// invariants broke, and the deterministic telemetry slice.
#[derive(Clone, Debug)]
pub struct CaseOutcome {
    /// Case index within the run.
    pub idx: u64,
    /// The generated (or replayed) case.
    pub case: CaseSpec,
    /// Distinct fault sites triggered, per [`FaultKind::ALL`] entry.
    pub injected: [u64; FaultKind::ALL.len()],
    /// Typed operator errors, rendered `app/rank: message`, sorted.
    pub errors: Vec<String>,
    /// Invariant violations (empty means the case passed).
    pub violations: Vec<String>,
    /// Replay-stable counters (racy ones — schedule-cache hits, DHT
    /// traffic, transport tallies — are deliberately excluded).
    pub counters: BTreeMap<String, u64>,
}

impl CaseOutcome {
    /// `true` when every invariant held.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total injected fault sites across all kinds.
    pub(crate) fn injected_total(&self) -> u64 {
        self.injected.iter().sum()
    }
}

/// Generate case `idx` of a run and execute it.
pub(crate) fn run_case(seed: u64, idx: u64, spec: &FaultSpec) -> CaseOutcome {
    let mut rng = SplitMix64::new(case_seed(seed, idx));
    // Standalone DAG-parser fuzzing rides along with every case.
    let dag_violation = dag_round_trip(&random_workflow(&mut rng)).err();
    let case = CaseSpec::generate(&mut rng);
    let mut outcome = run_case_spec(seed, idx, spec, &case);
    if let Some(v) = dag_violation {
        outcome.violations.insert(0, format!("random DAG: {v}"));
    }
    outcome
}

/// Execute one explicit case (the replay/shrink entry point): install the
/// fault plan, run the threaded executor, check every invariant.
pub fn run_case_spec(seed: u64, idx: u64, spec: &FaultSpec, case: &CaseSpec) -> CaseOutcome {
    let cseed = case_seed(seed, idx);
    let scenario = case.scenario();
    let mut violations = Vec::new();

    if let Err(v) = dag_round_trip(&scenario.workflow) {
        violations.push(format!("scenario DAG: {v}"));
    }

    let plan = Arc::new(FaultPlan::new(cseed, *spec));
    let recorder = Recorder::enabled();
    let flight = FlightRecorder::enabled();
    let cfg = ThreadedConfig {
        get_timeout: Duration::from_millis(400),
        injector: FaultInjector::new(plan.clone()),
        flight: flight.clone(),
    };
    let outcome = run_threaded_configured(&scenario, MappingStrategy::DataCentric, &recorder, &cfg);
    let snap = recorder.metrics_snapshot();
    let ledger = &outcome.ledger;

    // Time-model faults: slowing links must never speed a retrieve up,
    // and an empty fault set must not perturb the estimate at all.
    let nodes = outcome.mapped.machine.nodes;
    let link_faults = plan.link_faults(nodes);
    let retrieves = synthesized_retrieves(cseed, nodes);
    let topo = TorusTopology::cubic_for(nodes);
    let model = NetworkModel::default();
    let totals = |faults: &LinkFaults| -> Vec<f64> {
        estimate_retrieves(&model, &topo, &retrieves, faults)
            .into_iter()
            .map(|(b, _)| b.total_ms)
            .collect()
    };
    let healthy = totals(&LinkFaults::default());
    let faulted = totals(&link_faults);
    if link_faults.is_empty() {
        if healthy != faulted {
            violations.push("empty link-fault set changed time estimates".into());
        }
    } else {
        for (i, (h, f)) in healthy.iter().zip(&faulted).enumerate() {
            if *f < *h - 1e-9 {
                violations.push(format!(
                    "slowed links made retrieve {i} faster: {f:.6} < {h:.6} ms"
                ));
            }
        }
    }

    // Snapshot injections only after every fault site (including the
    // link-fault sweep above) has been consulted.
    let injected = plan.injected();
    let injected_total: u64 = injected.iter().sum();

    // Injected faults must be visible in the causal flight log: every
    // distinct data-plane site that fired left at least one typed fault
    // event (link-slow and DHT blackouts have no event site — the former
    // only biases the time model, the latter shows as missing DHT cores).
    let mut fault_events: BTreeMap<&str, u64> = BTreeMap::new();
    for e in flight.snapshot() {
        if let EventKind::Fault { kind } = e.kind {
            *fault_events.entry(kind).or_insert(0) += 1;
        }
    }
    for kind in [
        FaultKind::DeadProducer,
        FaultKind::DropPull,
        FaultKind::DelayPull,
        FaultKind::StageFull,
        FaultKind::SubPush,
    ] {
        let sites = injected[kind.idx()];
        let seen = fault_events.get(kind.slug()).copied().unwrap_or(0);
        if seen < sites {
            violations.push(format!(
                "flight log shows {seen} {} events but {sites} distinct sites fired",
                kind.slug()
            ));
        }
    }

    // Delivered data is never silently wrong, faulted or not.
    if outcome.verify_failures > 0 {
        violations.push(format!(
            "{} delivered cells failed verification",
            outcome.verify_failures
        ));
    }

    // Errors only ever happen because we injected something.
    if !outcome.errors.is_empty() && injected_total == 0 {
        violations.push(format!(
            "{} operator errors without any injected fault",
            outcome.errors.len()
        ));
    }

    // Every surfaced fault is a typed CodsError whose message carries
    // enough identity to debug it; timeouts must name the owner rank.
    for (app, rank, err) in &outcome.errors {
        let msg = err.to_string();
        if msg.is_empty() {
            violations.push(format!("app{app}/r{rank}: error with empty message"));
        }
        if matches!(err, CodsError::Timeout { .. }) && !msg.contains("from client") {
            violations.push(format!(
                "app{app}/r{rank}: timeout does not name the owning client: {msg}"
            ));
        }
    }

    // Telemetry balance: every successful put is still staged, was
    // evicted, or was orphaned by an injected dead producer.
    let puts = snap.counter("cods.put");
    let evictions = snap.counter("cods.evictions");
    let orphans = injected[FaultKind::DeadProducer.idx()];
    if puts != outcome.staged_buffers + evictions + orphans {
        violations.push(format!(
            "put/staging imbalance: puts={} staged={} evictions={} orphans={}",
            puts, outcome.staged_buffers, evictions, orphans
        ));
    }

    // The ledger's observer tap saw exactly what its snapshot reports.
    for class in TrafficClass::ALL {
        let pairs = [
            (Locality::SharedMemory, ledger.shm_bytes(class)),
            (Locality::Network, ledger.network_bytes(class)),
        ];
        for (loc, expect) in pairs {
            let seen = plan.observed_bytes(class, loc);
            if seen != expect {
                violations.push(format!(
                    "observer saw {seen} bytes of {class:?}/{loc:?}, ledger says {expect}"
                ));
            }
        }
    }

    // A case in which nothing fired must match the modeled executor's
    // coupled/halo byte accounting exactly.
    if injected_total == 0 {
        if !outcome.errors.is_empty() {
            violations.push("errors on a case with zero injected faults".into());
        }
        let modeled = run_modeled(&scenario, MappingStrategy::DataCentric);
        for class in [TrafficClass::InterApp, TrafficClass::IntraApp] {
            let (t_shm, m_shm) = (ledger.shm_bytes(class), modeled.ledger.shm_bytes(class));
            let (t_net, m_net) = (
                ledger.network_bytes(class),
                modeled.ledger.network_bytes(class),
            );
            if (t_shm, t_net) != (m_shm, m_net) {
                violations.push(format!(
                    "executor divergence on {class:?}: threaded shm/net {t_shm}/{t_net}, modeled {m_shm}/{m_net}"
                ));
            }
        }
    }

    let errors = outcome
        .errors
        .iter()
        .map(|(app, rank, e)| format!("app{app}/r{rank}: {e}"))
        .collect();

    let mut counters = BTreeMap::new();
    // `sub.deliveries` is deliberately excluded: a delivery degrades to a
    // timed-out take (healed by the resync get) under scheduler stalls,
    // so only the producer-side push tallies are replay-stable.
    for key in ["cods.put", "cods.get", "sub.pushes", "sub.push_drops"] {
        counters.insert(key.to_string(), snap.counter(key));
    }
    // Eviction tallies (and the staged-buffer remainder, which is
    // puts - evictions) are replay-stable only without a standing
    // query: a subscribed producer's reclaim wait races the monitor's
    // take-timeout -> resync-get path, so whether a version is
    // reclaimed before the deadline is wall-clock-dependent.
    if !(case.concurrent && case.sub_every >= 1) {
        counters.insert("cods.evictions".into(), snap.counter("cods.evictions"));
        counters.insert("staged_buffers".into(), outcome.staged_buffers);
    }
    for class in [
        TrafficClass::InterApp,
        TrafficClass::IntraApp,
        TrafficClass::Control,
    ] {
        counters.insert(
            format!("bytes.{}.shm", class.slug()),
            ledger.shm_bytes(class),
        );
        counters.insert(
            format!("bytes.{}.net", class.slug()),
            ledger.network_bytes(class),
        );
    }

    CaseOutcome {
        idx,
        case: case.clone(),
        injected,
        errors,
        violations,
        counters,
    }
}

/// A deterministic pull set for exercising the faulted time model on an
/// `nodes`-node torus.
fn synthesized_retrieves(cseed: u64, nodes: u32) -> Vec<ClientRetrieve> {
    let mut rng = SplitMix64::new(cseed ^ 0x11ce_0000_0000_0001);
    (0..6)
        .map(|_| ClientRetrieve {
            dst_node: rng.range_u32(0, nodes.max(1)),
            transfers: (0..rng.range_usize(1, 4))
                .map(|_| Transfer::new(rng.range_u32(0, nodes.max(1)), rng.range_u64(1, 1 << 20)))
                .collect(),
            dht_queries: rng.range_u32(0, 3),
        })
        .collect()
}

/// The result of a whole chaos run.
#[derive(Clone, Debug)]
pub struct ChaosReport {
    /// Run seed.
    pub seed: u64,
    /// Fault rates the run injected.
    pub spec: FaultSpec,
    /// Per-case outcomes, in case order.
    pub cases: Vec<CaseOutcome>,
    /// Ready-to-paste minimal reproducer for the first violating case.
    pub reproducer: Option<String>,
}

impl ChaosReport {
    /// Total invariant violations across all cases.
    pub fn violations(&self) -> usize {
        self.cases.iter().map(|c| c.violations.len()).sum()
    }

    /// Render the deterministic text report (byte-identical across runs
    /// of the same seed/cases/spec).
    pub fn render(&self) -> String {
        let mut out = format!(
            "insitu-chaos seed={} cases={} faults={}\n",
            self.seed,
            self.cases.len(),
            self.spec.canonical()
        );
        for c in &self.cases {
            let inj: Vec<String> = FaultKind::ALL
                .iter()
                .zip(&c.injected)
                .filter(|(_, &n)| n > 0)
                .map(|(k, n)| format!("{}={n}", k.slug()))
                .collect();
            let inj = if inj.is_empty() {
                "clean".to_string()
            } else {
                inj.join(",")
            };
            out.push_str(&format!(
                "case {:03} [{}] {} errors={} {}\n",
                c.idx,
                c.case.label(),
                inj,
                c.errors.len(),
                if c.ok() { "ok" } else { "VIOLATION" }
            ));
            for v in &c.violations {
                out.push_str(&format!("  violation: {v}\n"));
            }
        }
        // Replay-stable telemetry aggregate over all cases.
        let mut totals: BTreeMap<String, u64> = BTreeMap::new();
        for c in &self.cases {
            for (k, v) in &c.counters {
                *totals.entry(k.clone()).or_insert(0) += v;
            }
        }
        out.push_str("telemetry (replay-stable aggregate):\n");
        for (k, v) in &totals {
            out.push_str(&format!("  {k} = {v}\n"));
        }
        let faulted = self.cases.iter().filter(|c| c.injected_total() > 0).count();
        let errors: usize = self.cases.iter().map(|c| c.errors.len()).sum();
        out.push_str(&format!(
            "summary: cases={} faulted={} errors={} violations={}\n",
            self.cases.len(),
            faulted,
            errors,
            self.violations()
        ));
        if let Some(rep) = &self.reproducer {
            out.push_str("minimal reproducer for first violation:\n");
            out.push_str(rep);
            if !rep.ends_with('\n') {
                out.push('\n');
            }
        }
        out
    }
}

/// Run `cases` fuzzed workflow cases from `seed` under `spec`, shrinking
/// the first violating case (if any) to a minimal reproducer.
pub fn run_chaos(seed: u64, cases: u64, spec: &FaultSpec) -> ChaosReport {
    let outcomes: Vec<CaseOutcome> = (0..cases).map(|idx| run_case(seed, idx, spec)).collect();
    let reproducer = outcomes
        .iter()
        .find(|c| !c.ok())
        .map(|bad| shrink_to_reproducer(seed, bad, spec));
    ChaosReport {
        seed,
        spec: *spec,
        cases: outcomes,
        reproducer,
    }
}

/// Shrink a violating case and render it as a paste-ready `#[test]`.
pub(crate) fn shrink_to_reproducer(seed: u64, bad: &CaseOutcome, spec: &FaultSpec) -> String {
    let idx = bad.idx;
    let minimal = shrink(&bad.case, &|cand| {
        !run_case_spec(seed, idx, spec, cand).violations.is_empty()
    });
    let witness = run_case_spec(seed, idx, spec, &minimal);
    let reason = witness
        .violations
        .first()
        .cloned()
        .unwrap_or_else(|| bad.violations.first().cloned().unwrap_or_default());
    reproducer(seed, idx, spec, &minimal, &reason)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_seed_is_stable_and_spreads() {
        assert_eq!(case_seed(42, 3), case_seed(42, 3));
        assert_ne!(case_seed(42, 3), case_seed(42, 4));
        assert_ne!(case_seed(42, 3), case_seed(43, 3));
    }

    #[test]
    fn fault_free_cases_pass_all_invariants() {
        let spec = FaultSpec::none();
        for idx in 0..4 {
            let c = run_case(7, idx, &spec);
            assert!(c.ok(), "case {idx} violated: {:?}", c.violations);
            assert_eq!(c.injected_total(), 0);
            assert!(c.errors.is_empty());
        }
    }

    #[test]
    fn chaos_run_is_replayable() {
        let spec = FaultSpec::standard();
        let a = run_chaos(42, 4, &spec);
        let b = run_chaos(42, 4, &spec);
        assert_eq!(a.render(), b.render());
    }

    /// A standing query pulled into a fault-free case must keep every
    /// invariant — in particular the modeled executor now accounts the
    /// push fragments and verify gets, so the ledger comparison holds.
    #[test]
    fn fault_free_subscribed_case_matches_modeled_ledger() {
        let case = CaseSpec {
            concurrent: true,
            pgrid: vec![2, 1],
            cgrid: vec![1, 2],
            c2grid: vec![1, 1],
            region_side: 3,
            pattern: 0,
            iterations: 2,
            halo: 1,
            cores_per_node: 2,
            subregion: false,
            sub_every: 1,
        };
        let c = run_case_spec(9, 0, &FaultSpec::none(), &case);
        assert!(c.ok(), "violations: {:?}", c.violations);
        assert!(c.errors.is_empty());
        // 2 producer pieces x 2 on-stride versions reach the monitor.
        assert_eq!(c.counters["sub.pushes"], 4);
        assert_eq!(c.counters["sub.push_drops"], 0);
    }

    /// Killing every push leaves the subscriber on the resync-get path:
    /// drops are injected and recorded, data still verifies, and no
    /// invariant breaks.
    #[test]
    fn dropped_pushes_heal_through_resync_gets() {
        let spec = FaultSpec::none().with_rate(crate::FaultKind::SubPush, 1.0);
        let case = CaseSpec {
            concurrent: true,
            pgrid: vec![2, 1],
            cgrid: vec![1, 1],
            c2grid: vec![1, 1],
            region_side: 2,
            pattern: 0,
            iterations: 2,
            halo: 0,
            cores_per_node: 2,
            subregion: false,
            sub_every: 1,
        };
        let c = run_case_spec(4, 0, &spec, &case);
        assert!(c.ok(), "violations: {:?}", c.violations);
        assert!(c.injected[crate::FaultKind::SubPush.idx()] > 0);
        assert_eq!(c.counters["sub.pushes"], 0, "every push was dropped");
        assert_eq!(c.counters["sub.push_drops"], 4);
    }

    #[test]
    fn injected_faults_surface_as_typed_errors_not_panics() {
        // Kill every pull: consumers must report timeouts, not panic, and
        // the invariants must still hold.
        let spec = FaultSpec::none().with_rate(crate::FaultKind::DropPull, 1.0);
        let case = CaseSpec {
            concurrent: true,
            pgrid: vec![1, 1],
            cgrid: vec![1, 1],
            c2grid: vec![1, 1],
            region_side: 2,
            pattern: 0,
            iterations: 1,
            halo: 0,
            cores_per_node: 2,
            subregion: false,
            sub_every: 0,
        };
        let c = run_case_spec(1, 0, &spec, &case);
        assert!(c.ok(), "violations: {:?}", c.violations);
        assert!(!c.errors.is_empty(), "dropped pulls must surface");
        assert!(c.injected[crate::FaultKind::DropPull.idx()] > 0);
    }
}
