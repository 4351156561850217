//! The shared task-mapping pipeline.
//!
//! Both executors (modeled and threaded) place tasks with exactly this
//! code, so their byte ledgers agree by construction. Strategy selection
//! follows the paper: server-side data-centric mapping for bundles of
//! concurrently coupled apps, client-side data-centric mapping for
//! sequentially coupled consumers, and the launcher baseline otherwise.

use crate::scenario::Scenario;
use insitu_fabric::{CoreId, MachineSpec, NodeId};
use insitu_workflow::{
    map_client_side, map_data_centric_server, map_node_cyclic, map_packed,
    pairwise_overlaps_region, AppSpec, CoreAllocator, WorkflowSpec,
};
use std::collections::{BTreeMap, HashMap};

/// Which task-mapping strategy to run a scenario under.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MappingStrategy {
    /// The paper's baseline: the placement a plain MPI launcher produces,
    /// dealing ranks to cores in order, filling each node before moving to
    /// the next (the paper calls this "round-robin task mapping").
    RoundRobin,
    /// Locality-aware data-centric mapping (the paper's contribution).
    DataCentric,
    /// Ablation: deal tasks across nodes cyclically (one rank per node per
    /// cycle), the other common launcher mode.
    NodeCyclic,
}

impl MappingStrategy {
    /// Label used in experiment output.
    pub fn label(&self) -> &'static str {
        match self {
            MappingStrategy::RoundRobin => "round-robin",
            MappingStrategy::DataCentric => "data-centric",
            MappingStrategy::NodeCyclic => "node-cyclic",
        }
    }

    /// Inverse of [`MappingStrategy::label`]: parse a strategy from its
    /// experiment-output label (used by the CLI and the wire handshake).
    pub fn from_label(label: &str) -> Option<MappingStrategy> {
        match label {
            "round-robin" => Some(MappingStrategy::RoundRobin),
            "data-centric" => Some(MappingStrategy::DataCentric),
            "node-cyclic" => Some(MappingStrategy::NodeCyclic),
            _ => None,
        }
    }
}

/// A fully mapped scenario: every task of every app has a core.
#[derive(Clone, Debug)]
pub struct MappedScenario {
    /// The machine the scenario runs on.
    pub machine: MachineSpec,
    /// `app_cores[&app][rank]` is the core of that task.
    pub app_cores: BTreeMap<u32, Vec<CoreId>>,
    /// The wave structure (from the workflow engine).
    pub waves: Vec<Vec<Vec<u32>>>,
}

impl MappedScenario {
    /// Node a task runs on.
    #[inline]
    pub fn node_of_task(&self, app: u32, rank: u64) -> NodeId {
        self.machine
            .node_of_core(self.app_cores[&app][rank as usize])
    }

    /// Core of a task.
    #[inline]
    pub fn core_of_task(&self, app: u32, rank: u64) -> CoreId {
        self.app_cores[&app][rank as usize]
    }
}

/// Map every wave of `scenario` under `strategy`.
///
/// Cores of a wave are released before the next wave is mapped (completed
/// applications free their nodes, which the paper's sequential scenario
/// reuses).
///
/// # Panics
/// Panics if the workflow is invalid or the machine lacks capacity.
pub fn map_scenario(scenario: &Scenario, strategy: MappingStrategy) -> MappedScenario {
    let spec = &scenario.workflow;
    let waves = spec
        .validate()
        .and_then(|()| spec.bundle_waves())
        .expect("invalid workflow spec");
    let machine = machine_for(spec, &waves, scenario.cores_per_node);
    let mut alloc = CoreAllocator::new(machine);
    let mut app_cores: BTreeMap<u32, Vec<CoreId>> = BTreeMap::new();
    let mut wave_cores: Vec<CoreId> = Vec::new();

    for wave in &waves {
        // The previous wave's applications have completed; their cores are
        // free for this wave.
        for c in wave_cores.drain(..) {
            alloc.release(c);
        }
        for bundle in wave {
            let apps: Vec<&AppSpec> = bundle
                .iter()
                .map(|&id| scenario.workflow.app(id).expect("validated"))
                .collect();
            let mapping = match strategy {
                MappingStrategy::RoundRobin => map_packed(&mut alloc, &apps),
                MappingStrategy::NodeCyclic => map_node_cyclic(&mut alloc, &apps),
                MappingStrategy::DataCentric => {
                    map_bundle_data_centric(scenario, &app_cores, machine, &mut alloc, &apps)
                }
            };
            for (app, cores) in mapping.cores {
                wave_cores.extend(cores.iter().copied());
                app_cores.insert(app, cores);
            }
        }
    }
    MappedScenario {
        machine,
        app_cores,
        waves,
    }
}

/// Machine sized to the widest wave (every task of every bundle of the
/// wave runs concurrently), assuming `cores_per_node`-core nodes.
fn machine_for(spec: &WorkflowSpec, waves: &[Vec<Vec<u32>>], cores_per_node: u32) -> MachineSpec {
    let max_wave_tasks = waves
        .iter()
        .map(|w| {
            w.iter()
                .flatten()
                .map(|&id| spec.app(id).map(|a| a.ntasks).unwrap_or(0))
                .sum::<u32>()
        })
        .max()
        .unwrap_or(0)
        .max(1);
    MachineSpec::new(max_wave_tasks.div_ceil(cores_per_node), cores_per_node)
}

fn map_bundle_data_centric(
    scenario: &Scenario,
    app_cores: &BTreeMap<u32, Vec<CoreId>>,
    machine: MachineSpec,
    alloc: &mut CoreAllocator,
    apps: &[&AppSpec],
) -> insitu_workflow::BundleMapping {
    if apps.len() >= 2 {
        // Concurrently coupled bundle: server-side graph partitioning,
        // restricted to the bundle's coupled region when one is declared.
        let region = apps
            .iter()
            .find_map(|a| scenario.coupling_into(a.id))
            .and_then(|c| c.region);
        return map_data_centric_server(alloc, apps, scenario.elem_bytes, region.as_ref());
    }
    let app = apps[0];
    // Sequentially coupled consumer with an already-mapped producer:
    // client-side mapping toward the data.
    if let Some(coupling) = scenario.coupling_into(app.id) {
        if let Some(producer_cores) = app_cores.get(&coupling.producer_app) {
            let producer_dec = scenario.decomposition(coupling.producer_app);
            let consumer_dec = scenario.decomposition(app.id);
            let coupled_region = coupling.region.unwrap_or(*producer_dec.domain());
            // Bytes of each consumer task's region per node, precomputed
            // from the closed-form pairwise overlaps.
            let mut per_rank: Vec<HashMap<NodeId, u64>> = vec![HashMap::new(); app.ntasks as usize];
            for (prank, crank, cells) in
                pairwise_overlaps_region(producer_dec, consumer_dec, &coupled_region)
            {
                let node = machine.node_of_core(producer_cores[prank as usize]);
                *per_rank[crank as usize].entry(node).or_insert(0) +=
                    cells as u64 * scenario.elem_bytes;
            }
            let cores = map_client_side(alloc, app.ntasks, |rank| {
                per_rank[rank as usize]
                    .iter()
                    .map(|(&n, &b)| (n, b))
                    .collect()
            });
            let mut mapping = insitu_workflow::BundleMapping::default();
            mapping.cores.insert(app.id, cores);
            return mapping;
        }
    }
    // Producer (or uncoupled) app: launcher placement.
    map_packed(alloc, apps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{concurrent_scenario, pattern_pairs, sequential_scenario};
    use insitu_workflow::pairwise_overlaps;

    fn small_concurrent() -> Scenario {
        // 16 producer tasks, 8 consumer tasks, 4^3 regions, 4-core nodes.
        let mut s = concurrent_scenario(16, 8, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        s
    }

    fn small_sequential() -> Scenario {
        let mut s = sequential_scenario(16, 8, 8, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        s
    }

    #[test]
    fn concurrent_mapping_places_all_tasks() {
        for strat in [
            MappingStrategy::RoundRobin,
            MappingStrategy::DataCentric,
            MappingStrategy::NodeCyclic,
        ] {
            let m = map_scenario(&small_concurrent(), strat);
            assert_eq!(m.app_cores[&1].len(), 16);
            assert_eq!(m.app_cores[&2].len(), 8);
            // No core used twice within the concurrent wave.
            let mut all: Vec<CoreId> = m.app_cores.values().flatten().copied().collect();
            all.sort_unstable();
            all.dedup();
            assert_eq!(all.len(), 24, "{strat:?}");
        }
    }

    #[test]
    fn machine_sized_for_widest_wave() {
        let m = map_scenario(&small_concurrent(), MappingStrategy::RoundRobin);
        assert_eq!(m.machine, MachineSpec::new(6, 4));
        let m = map_scenario(&small_sequential(), MappingStrategy::RoundRobin);
        // Widest wave: SAP1 alone (16) == SAP2+SAP3 (16) -> 4 nodes.
        assert_eq!(m.machine, MachineSpec::new(4, 4));
    }

    #[test]
    fn machine_sized_to_widest_wave() {
        let climate = WorkflowSpec {
            apps: vec![
                AppSpec::new(1, "atm", 4),
                AppSpec::new(2, "land", 2),
                AppSpec::new(3, "ice", 2),
            ],
            edges: vec![(1, 2), (1, 3)],
            bundles: vec![vec![1], vec![2], vec![3]],
        };
        let waves = climate.bundle_waves().unwrap();
        // Wave 0 needs 4 tasks; wave 1 needs 2+2 = 4. 2-core nodes -> 2.
        assert_eq!(machine_for(&climate, &waves, 2), MachineSpec::new(2, 2));
    }

    #[test]
    fn sequential_waves_reuse_cores() {
        let m = map_scenario(&small_sequential(), MappingStrategy::RoundRobin);
        // SAP2+SAP3 run on the same cores SAP1 used.
        let mut second_wave: Vec<CoreId> = m.app_cores[&2]
            .iter()
            .chain(m.app_cores[&3].iter())
            .copied()
            .collect();
        second_wave.sort_unstable();
        let mut first_wave = m.app_cores[&1].clone();
        first_wave.sort_unstable();
        assert_eq!(second_wave, first_wave);
    }

    #[test]
    fn data_centric_concurrent_colocates_couples() {
        // Matched blocked/blocked decompositions: count coupled pairs
        // sharing a node under both strategies; data-centric must win.
        let s = small_concurrent();
        let rr = map_scenario(&s, MappingStrategy::RoundRobin);
        let dc = map_scenario(&s, MappingStrategy::DataCentric);
        let p = s.decomposition(1);
        let c = s.decomposition(2);
        let colocated_bytes = |m: &MappedScenario| -> u128 {
            pairwise_overlaps(p, c)
                .into_iter()
                .filter(|&(pr, cr, _)| m.node_of_task(1, pr) == m.node_of_task(2, cr))
                .map(|(_, _, cells)| cells)
                .sum()
        };
        assert!(
            colocated_bytes(&dc) > colocated_bytes(&rr),
            "dc {} <= rr {}",
            colocated_bytes(&dc),
            colocated_bytes(&rr)
        );
        // For this perfectly matched case the partitioner should get close
        // to full co-location.
        let total: u128 = pairwise_overlaps(p, c).iter().map(|&(_, _, c)| c).sum();
        assert!(
            colocated_bytes(&dc) * 2 >= total,
            "less than half co-located"
        );
    }

    #[test]
    fn data_centric_sequential_follows_data() {
        let s = small_sequential();
        let rr = map_scenario(&s, MappingStrategy::RoundRobin);
        let dc = map_scenario(&s, MappingStrategy::DataCentric);
        let p = s.decomposition(1);
        for consumer in [2u32, 3] {
            let c = s.decomposition(consumer);
            let local = |m: &MappedScenario| -> u128 {
                pairwise_overlaps(p, c)
                    .into_iter()
                    .filter(|&(pr, cr, _)| m.node_of_task(1, pr) == m.node_of_task(consumer, cr))
                    .map(|(_, _, cells)| cells)
                    .sum()
            };
            assert!(local(&dc) >= local(&rr), "app {consumer}");
        }
    }

    #[test]
    fn strategies_have_labels() {
        assert_eq!(MappingStrategy::RoundRobin.label(), "round-robin");
        assert_eq!(MappingStrategy::DataCentric.label(), "data-centric");
    }

    #[test]
    fn paper_fig7_shape_colocates_bundle() {
        // Fig. 7's illustration: APP1 with 12 tasks and APP2 with 4 tasks
        // on two 8-core nodes — data-centric mapping co-locates each APP2
        // task with the APP1 tasks it couples to.
        use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
        let domain = BoundingBox::from_sizes(&[12, 4]);
        let app1 = AppSpec::new(1, "APP1", 12).with_decomposition(Decomposition::new(
            domain,
            ProcessGrid::new(&[12, 1]),
            Distribution::Blocked,
        ));
        let app2 = AppSpec::new(2, "APP2", 4).with_decomposition(Decomposition::new(
            domain,
            ProcessGrid::new(&[4, 1]),
            Distribution::Blocked,
        ));
        let s = Scenario {
            name: "fig7".into(),
            cores_per_node: 8,
            workflow: WorkflowSpec {
                apps: vec![app1, app2],
                edges: vec![],
                bundles: vec![vec![1, 2]],
            },
            subscriptions: vec![],
            couplings: vec![crate::CouplingSpec {
                var: "v".into(),
                producer_app: 1,
                consumer_apps: vec![2],
                concurrent: true,
                region: None,
            }],
            halo: 1,
            elem_bytes: 8,
            iterations: 1,
        };
        let m = map_scenario(&s, MappingStrategy::DataCentric);
        assert_eq!(m.machine, MachineSpec::new(2, 8));
        // Every APP2 task couples with 3 consecutive APP1 tasks; all three
        // must share its node.
        for crank in 0..4u64 {
            let cnode = m.node_of_task(2, crank);
            for prank in crank * 3..(crank + 1) * 3 {
                assert_eq!(
                    m.node_of_task(1, prank),
                    cnode,
                    "APP1 task {prank} split from APP2 task {crank}: {:?}",
                    m.app_cores
                );
            }
        }
    }
}
