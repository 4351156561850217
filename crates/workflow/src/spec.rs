//! Workflow specifications: applications, dependency edges and bundles.
//!
//! The DAG representation extends DAGMan-style DAGs "with the concept of a
//! 'bundle' which represents a group of parallel applications that need to
//! be scheduled simultaneously" (§III.B). Edges represent data dependencies
//! between sequentially coupled applications.

use insitu_domain::Decomposition;
use std::collections::{HashMap, HashSet};

/// One parallel application of the workflow.
#[derive(Clone, Debug)]
pub struct AppSpec {
    /// User-assigned unique application id (the "color" of its clients).
    pub id: u32,
    /// Human-readable name.
    pub name: String,
    /// Number of computation tasks (MPI processes) the app runs with.
    pub ntasks: u32,
    /// Declared decomposition of the coupled data domain, required for
    /// data-centric mapping.
    pub decomposition: Option<Decomposition>,
}

impl AppSpec {
    /// An app with no declared decomposition.
    pub fn new(id: u32, name: impl Into<String>, ntasks: u32) -> Self {
        AppSpec {
            id,
            name: name.into(),
            ntasks,
            decomposition: None,
        }
    }

    /// Attach the coupled-data decomposition.
    pub fn with_decomposition(mut self, dec: Decomposition) -> Self {
        assert_eq!(
            dec.num_ranks(),
            self.ntasks as u64,
            "decomposition ranks must equal ntasks"
        );
        self.decomposition = Some(dec);
        self
    }
}

/// Errors from workflow validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// Two applications share an id.
    DuplicateAppId(u32),
    /// An edge or bundle references an unknown application.
    UnknownApp(u32),
    /// An application appears in more than one bundle.
    AppInMultipleBundles(u32),
    /// The dependency graph has a cycle.
    Cyclic,
    /// A bundle would depend on itself through its member apps.
    IntraBundleDependency(u32, u32),
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::DuplicateAppId(id) => write!(f, "duplicate app id {id}"),
            SpecError::UnknownApp(id) => write!(f, "unknown app id {id}"),
            SpecError::AppInMultipleBundles(id) => {
                write!(f, "app {id} appears in multiple bundles")
            }
            SpecError::Cyclic => write!(f, "workflow DAG has a cycle"),
            SpecError::IntraBundleDependency(a, b) => {
                write!(f, "apps {a} and {b} are bundled but sequentially dependent")
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// A complete workflow: apps, edges and bundles.
#[derive(Clone, Debug, Default)]
pub struct WorkflowSpec {
    /// The component applications.
    pub apps: Vec<AppSpec>,
    /// Data-dependency edges `(parent_app, child_app)`.
    pub edges: Vec<(u32, u32)>,
    /// Bundles of concurrently coupled applications (by app id). Apps not
    /// listed in any bundle are treated as singleton bundles by
    /// `WorkflowSpec::normalized_bundles`.
    pub bundles: Vec<Vec<u32>>,
}

impl WorkflowSpec {
    /// Look up an app by id.
    pub fn app(&self, id: u32) -> Option<&AppSpec> {
        self.apps.iter().find(|a| a.id == id)
    }

    /// Bundles with singleton bundles added for unbundled apps, preserving
    /// declaration order.
    pub(crate) fn normalized_bundles(&self) -> Vec<Vec<u32>> {
        let mut bundles = self.bundles.clone();
        let bundled: HashSet<u32> = bundles.iter().flatten().copied().collect();
        for a in &self.apps {
            if !bundled.contains(&a.id) {
                bundles.push(vec![a.id]);
            }
        }
        bundles
    }

    /// Validate ids, bundle membership and acyclicity.
    pub fn validate(&self) -> Result<(), SpecError> {
        let mut ids = HashSet::new();
        for a in &self.apps {
            if !ids.insert(a.id) {
                return Err(SpecError::DuplicateAppId(a.id));
            }
        }
        for &(p, c) in &self.edges {
            if !ids.contains(&p) {
                return Err(SpecError::UnknownApp(p));
            }
            if !ids.contains(&c) {
                return Err(SpecError::UnknownApp(c));
            }
        }
        let mut seen = HashSet::new();
        for b in &self.bundles {
            for &id in b {
                if !ids.contains(&id) {
                    return Err(SpecError::UnknownApp(id));
                }
                if !seen.insert(id) {
                    return Err(SpecError::AppInMultipleBundles(id));
                }
            }
        }
        // No dependency may connect two apps of the same bundle.
        for b in &self.normalized_bundles() {
            let set: HashSet<u32> = b.iter().copied().collect();
            for &(p, c) in &self.edges {
                if set.contains(&p) && set.contains(&c) {
                    return Err(SpecError::IntraBundleDependency(p, c));
                }
            }
        }
        self.bundle_schedule().map(|_| ())
    }

    /// Execution *waves* of (normalized) bundles: wave `k+1` contains
    /// every bundle whose dependencies are all satisfied by waves `0..=k`.
    /// Bundles of the same wave launch simultaneously — this is how SAP2
    /// and SAP3 run concurrently after SAP1 in the paper's sequential
    /// scenario.
    pub fn bundle_waves(&self) -> Result<Vec<Vec<Vec<u32>>>, SpecError> {
        let bundles = self.normalized_bundles();
        let bundle_of: HashMap<u32, usize> = bundles
            .iter()
            .enumerate()
            .flat_map(|(i, b)| b.iter().map(move |&id| (id, i)))
            .collect();
        let n = bundles.len();
        let mut deps: Vec<HashSet<usize>> = vec![HashSet::new(); n];
        for &(p, c) in &self.edges {
            let (bp, bc) = (bundle_of[&p], bundle_of[&c]);
            if bp != bc {
                deps[bc].insert(bp);
            }
        }
        let mut waves = Vec::new();
        let mut done: HashSet<usize> = HashSet::new();
        while done.len() < n {
            let ready: Vec<usize> = (0..n)
                .filter(|i| !done.contains(i) && deps[*i].iter().all(|d| done.contains(d)))
                .collect();
            if ready.is_empty() {
                return Err(SpecError::Cyclic);
            }
            waves.push(ready.iter().map(|&i| bundles[i].clone()).collect());
            done.extend(ready);
        }
        Ok(waves)
    }

    /// Topological order of (normalized) bundles: [`Self::bundle_waves`]
    /// flattened. This is the Workflow Engine's enactment order.
    pub(crate) fn bundle_schedule(&self) -> Result<Vec<Vec<u32>>, SpecError> {
        Ok(self.bundle_waves()?.into_iter().flatten().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's online-data-processing workflow: two concurrently
    /// coupled apps in one bundle.
    fn online_processing() -> WorkflowSpec {
        WorkflowSpec {
            apps: vec![
                AppSpec::new(1, "simulation", 8),
                AppSpec::new(2, "analysis", 2),
            ],
            edges: vec![],
            bundles: vec![vec![1, 2]],
        }
    }

    /// The paper's climate-modeling workflow: atmosphere feeds land and
    /// sea-ice, each a singleton bundle.
    fn climate() -> WorkflowSpec {
        WorkflowSpec {
            apps: vec![
                AppSpec::new(1, "atmosphere", 8),
                AppSpec::new(2, "land", 2),
                AppSpec::new(3, "sea-ice", 6),
            ],
            edges: vec![(1, 2), (1, 3)],
            bundles: vec![vec![1], vec![2], vec![3]],
        }
    }

    #[test]
    fn online_processing_valid_single_bundle() {
        let w = online_processing();
        w.validate().unwrap();
        assert_eq!(w.bundle_schedule().unwrap(), vec![vec![1, 2]]);
        assert_eq!(w.apps.iter().map(|a| a.ntasks).sum::<u32>(), 10);
    }

    #[test]
    fn climate_schedule_order() {
        let w = climate();
        w.validate().unwrap();
        let sched = w.bundle_schedule().unwrap();
        assert_eq!(sched[0], vec![1]);
        // Land and sea-ice both after atmosphere (order between them free).
        assert_eq!(sched.len(), 3);
        assert!(sched[1..].iter().any(|b| b == &vec![2]));
        assert!(sched[1..].iter().any(|b| b == &vec![3]));
    }

    #[test]
    fn climate_runs_in_two_waves() {
        let waves = climate().bundle_waves().unwrap();
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[0], vec![vec![1]]);
        // Wave 2: land and sea-ice concurrently, as separate bundles.
        assert_eq!(waves[1].len(), 2);
    }

    #[test]
    fn unbundled_apps_get_singletons() {
        let mut w = online_processing();
        w.bundles.clear();
        let b = w.normalized_bundles();
        assert_eq!(b, vec![vec![1], vec![2]]);
    }

    #[test]
    fn rejects_duplicate_ids() {
        let w = WorkflowSpec {
            apps: vec![AppSpec::new(1, "a", 1), AppSpec::new(1, "b", 1)],
            ..Default::default()
        };
        assert_eq!(w.validate(), Err(SpecError::DuplicateAppId(1)));
    }

    #[test]
    fn rejects_unknown_edge_app() {
        let w = WorkflowSpec {
            apps: vec![AppSpec::new(1, "a", 1)],
            edges: vec![(1, 9)],
            ..Default::default()
        };
        assert_eq!(w.validate(), Err(SpecError::UnknownApp(9)));
    }

    #[test]
    fn rejects_app_in_two_bundles() {
        let w = WorkflowSpec {
            apps: vec![AppSpec::new(1, "a", 1), AppSpec::new(2, "b", 1)],
            bundles: vec![vec![1, 2], vec![2]],
            ..Default::default()
        };
        assert_eq!(w.validate(), Err(SpecError::AppInMultipleBundles(2)));
    }

    #[test]
    fn rejects_cycle() {
        let w = WorkflowSpec {
            apps: vec![AppSpec::new(1, "a", 1), AppSpec::new(2, "b", 1)],
            edges: vec![(1, 2), (2, 1)],
            ..Default::default()
        };
        assert_eq!(w.validate(), Err(SpecError::Cyclic));
    }

    #[test]
    fn rejects_invalid_spec() {
        let bad = WorkflowSpec {
            apps: vec![AppSpec::new(1, "a", 1)],
            edges: vec![(1, 1)],
            ..Default::default()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn rejects_dependency_inside_bundle() {
        let w = WorkflowSpec {
            apps: vec![AppSpec::new(1, "a", 1), AppSpec::new(2, "b", 1)],
            edges: vec![(1, 2)],
            bundles: vec![vec![1, 2]],
        };
        assert_eq!(w.validate(), Err(SpecError::IntraBundleDependency(1, 2)));
    }

    #[test]
    fn diamond_dependency_schedules_correctly() {
        let w = WorkflowSpec {
            apps: (1..=4)
                .map(|i| AppSpec::new(i, format!("a{i}"), 1))
                .collect(),
            edges: vec![(1, 2), (1, 3), (2, 4), (3, 4)],
            bundles: vec![],
        };
        let sched = w.bundle_schedule().unwrap();
        let pos = |id: u32| sched.iter().position(|b| b.contains(&id)).unwrap();
        assert!(pos(1) < pos(2) && pos(1) < pos(3));
        assert!(pos(2) < pos(4) && pos(3) < pos(4));
    }

    #[test]
    #[should_panic(expected = "decomposition ranks must equal ntasks")]
    fn decomposition_rank_mismatch_panics() {
        use insitu_domain::{BoundingBox, Distribution, ProcessGrid};
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[8, 8]),
            ProcessGrid::new(&[2, 2]),
            Distribution::Blocked,
        );
        let _ = AppSpec::new(1, "a", 3).with_decomposition(dec);
    }
}
