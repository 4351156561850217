//! Scenario definitions: a workflow plus its coupling relationships and
//! workload parameters, including builders for the paper's two evaluation
//! scenarios (CAP and SAP).

use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_workflow::{AppSpec, WorkflowSpec};

/// A data-coupling relationship: each consumer application retrieves, from
/// `producer_app`'s output variable, the region its own decomposition
/// assigns to each task (the overlapped-domain coupling of Fig. 1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CouplingSpec {
    /// Shared variable name.
    pub var: String,
    /// Producing application id.
    pub producer_app: u32,
    /// Consuming application ids.
    pub consumer_apps: Vec<u32>,
    /// `true` for concurrent coupling (`*_cont` operators, no DHT),
    /// `false` for sequential coupling through the CoDS store.
    pub concurrent: bool,
    /// The coupled data region. `None` couples the entire shared domain
    /// (the end-to-end workflow case of Fig. 1); `Some(box)` couples only
    /// that region (the interface-region case, e.g. the boundary layer the
    /// climate models exchange).
    pub region: Option<BoundingBox>,
}

/// A standing query: `subscriber_app` receives a push of every matching
/// region of `var` as the producer puts it — Linda-style `rd`-with-
/// notification layered over the coupling in `CouplingSpec` for the same
/// variable. Subscriptions never replace a coupling; they ride one, and
/// the subscriber still issues a verification `get` per pushed version so
/// producer-side consumption accounting stays deterministic.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubscriptionSpec {
    /// Shared variable name (must match a coupling's variable).
    pub var: String,
    /// Producing application id (must match the coupling's producer).
    pub producer_app: u32,
    /// Subscribing application id.
    pub subscriber_app: u32,
    /// Push stride: only versions with `version % every_k == 0` are
    /// pushed. Must be at least 1.
    pub every_k: u64,
    /// Region of interest. `None` subscribes to the producer's whole
    /// domain.
    pub region: Option<BoundingBox>,
    /// Per-piece bounded queue depth (versions buffered before the
    /// oldest is dropped and the subscriber resyncs with a get).
    pub queue_cap: usize,
}

/// A complete experiment scenario.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Display name.
    pub name: String,
    /// Cores per compute node (12 on Jaguar XT5).
    pub cores_per_node: u32,
    /// The workflow (apps must carry decompositions).
    pub workflow: WorkflowSpec,
    /// Data couplings between the apps.
    pub couplings: Vec<CouplingSpec>,
    /// Standing queries layered over the couplings.
    pub subscriptions: Vec<SubscriptionSpec>,
    /// Stencil halo width for intra-application exchanges.
    pub halo: u64,
    /// Bytes per field element.
    pub elem_bytes: u64,
    /// Coupling iterations (versions) to run. Iteration `v` produces and
    /// consumes version `v`; schedules are computed once and replayed
    /// (§IV.A), and producers of concurrent couplings reclaim version
    /// `v-1` once fully consumed.
    pub iterations: u64,
}

impl Scenario {
    /// Set the iteration count (builder style).
    pub fn with_iterations(mut self, iterations: u64) -> Self {
        assert!(iterations >= 1, "at least one iteration");
        self.iterations = iterations;
        self
    }
    /// Decomposition of an app (must be declared).
    pub fn decomposition(&self, app: u32) -> &Decomposition {
        self.workflow
            .app(app)
            .unwrap_or_else(|| panic!("unknown app {app}"))
            .decomposition
            .as_ref()
            .unwrap_or_else(|| panic!("app {app} lacks a decomposition"))
    }

    /// The coupling that feeds `consumer`, if any.
    pub fn coupling_into(&self, consumer: u32) -> Option<&CouplingSpec> {
        self.couplings
            .iter()
            .find(|c| c.consumer_apps.contains(&consumer))
    }

    /// The coupling a subscription rides (same variable, same producer).
    /// Subscriptions are validated to have one, so this only returns
    /// `None` for hand-built scenarios that skipped validation.
    pub fn coupling_of_subscription(&self, sub: &SubscriptionSpec) -> Option<&CouplingSpec> {
        self.couplings
            .iter()
            .find(|c| c.var == sub.var && c.producer_app == sub.producer_app)
    }
}

/// A named pair of distribution types for the Fig. 8/9 pattern sweeps.
#[derive(Clone, Copy, Debug)]
pub struct PatternPair {
    /// Producer-side distribution.
    pub producer: Distribution,
    /// Consumer-side distribution.
    pub consumer: Distribution,
}

impl PatternPair {
    /// Label like `blocked/block-cyclic`.
    pub fn label(&self) -> String {
        format!("{}/{}", self.producer.label(), self.consumer.label())
    }
}

/// The pattern pairs swept by Figs. 8 and 9: matched pairs first, then the
/// mismatched ones where data-centric mapping loses its edge.
pub fn pattern_pairs(block: &[u64]) -> Vec<PatternPair> {
    let bc = Distribution::block_cyclic(block);
    vec![
        PatternPair {
            producer: Distribution::Blocked,
            consumer: Distribution::Blocked,
        },
        PatternPair {
            producer: bc,
            consumer: bc,
        },
        PatternPair {
            producer: Distribution::Blocked,
            consumer: bc,
        },
        PatternPair {
            producer: bc,
            consumer: Distribution::Blocked,
        },
        PatternPair {
            producer: Distribution::Blocked,
            consumer: Distribution::Cyclic,
        },
    ]
}

/// Pick a process grid of `n` ranks over `ndim` dimensions, as square /
/// cubic as possible (largest factors first).
pub fn balanced_grid(n: u64, ndim: usize) -> Vec<u64> {
    let mut dims = vec![1u64; ndim];
    let mut rem = n;
    while rem > 1 {
        // Smallest prime factor of the remainder, assigned to the
        // currently smallest dimension, keeps the grid near-cubic.
        let f = (2..)
            .find(|f| rem.is_multiple_of(*f) || f * f > rem)
            .map(|f| if rem.is_multiple_of(f) { f } else { rem });
        let f = f.unwrap();
        let d = (0..ndim).min_by_key(|&i| dims[i]).unwrap();
        dims[d] *= f;
        rem /= f;
    }
    dims.sort_unstable_by(|a, b| b.cmp(a));
    dims
}

/// Pick a process grid of `n` ranks *aligned* with a producer grid: in
/// each dimension the consumer count divides or is divided by the
/// producer count, preferring alignment in the earliest (slowest-varying)
/// dimensions so one consumer task's region maps to *consecutive*
/// producer ranks — the decomposition a coupling-aware user declares
/// (§III.B: decompositions are user-specified). Falls back to
/// [`balanced_grid`] when `n` has no such factorization.
pub fn aligned_grid(n: u64, producer: &[u64]) -> Vec<u64> {
    let ndim = producer.len();
    fn divisors(n: u64) -> Vec<u64> {
        let mut v: Vec<u64> = (1..=n).filter(|d| n.is_multiple_of(*d)).collect();
        v.sort_unstable();
        v
    }
    // Enumerate factorizations of n into ndim ordered factors.
    fn enumerate(n: u64, ndim: usize, cur: &mut Vec<u64>, out: &mut Vec<Vec<u64>>) {
        if ndim == 1 {
            cur.push(n);
            out.push(cur.clone());
            cur.pop();
            return;
        }
        for d in divisors(n) {
            cur.push(d);
            enumerate(n / d, ndim - 1, cur, out);
            cur.pop();
        }
    }
    let mut all = Vec::new();
    enumerate(n, ndim, &mut Vec::new(), &mut all);

    // Number of consecutive producer-rank runs one consumer task covers
    // when every consumer count divides the producer count. 1 run =
    // perfectly packable onto the producers' nodes.
    let rank_runs = |g: &Vec<u64>| -> Option<u64> {
        if (0..ndim).any(|d| !producer[d].is_multiple_of(g[d])) {
            return None;
        }
        let extents: Vec<u64> = (0..ndim).map(|d| producer[d] / g[d]).collect();
        // Covered ranks of consumer task (0,...,0), row-major.
        let mut ranks = Vec::new();
        let mut c = vec![0u64; ndim];
        loop {
            let mut r = 0u64;
            for d in 0..ndim {
                r = r * producer[d] + c[d];
            }
            ranks.push(r);
            let mut d = ndim;
            let mut adv = false;
            while d > 0 {
                d -= 1;
                if c[d] + 1 < extents[d] {
                    c[d] += 1;
                    c[d + 1..].iter_mut().for_each(|x| *x = 0);
                    adv = true;
                    break;
                }
            }
            if !adv {
                break;
            }
        }
        ranks.sort_unstable();
        Some(1 + ranks.windows(2).filter(|w| w[1] != w[0] + 1).count() as u64)
    };

    // Primary: minimal runs among component-wise dividing grids.
    if let Some(best) = all
        .iter()
        .filter_map(|g| rank_runs(g).map(|r| (r, g.clone())))
        .min_by_key(|(r, g)| (*r, *g.iter().max().unwrap(), g.clone()))
    {
        return best.1;
    }
    // Fallback: per-dim alignment flags, earlier dims weighted heavier
    // (misalignment there strides across distant ranks). Only *coarser*
    // consumer dims (producer % g == 0) count as aligned: oversubscribing
    // a dimension beyond the producer's count risks empty edge ranks on
    // non-divisible extents. Ties go to the more balanced grid.
    let score = |g: &Vec<u64>| -> (u64, std::cmp::Reverse<u64>) {
        let mut s = 0u64;
        for d in 0..ndim {
            if producer[d].is_multiple_of(g[d]) {
                s += 1 << (ndim - d);
            }
        }
        (s, std::cmp::Reverse(*g.iter().max().unwrap()))
    };
    all.into_iter()
        .max_by_key(score)
        .unwrap_or_else(|| balanced_grid(n, ndim))
}

/// [`concurrent_scenario`] with explicit process grids (used by the
/// weak-scaling experiments, which must keep the decomposition family
/// fixed while only one dimension grows).
pub fn concurrent_scenario_with_grids(
    pgrid: &[u64],
    cgrid: &[u64],
    region_side: u64,
    pattern: PatternPair,
) -> Scenario {
    let prod_tasks: u64 = pgrid.iter().product();
    let cons_tasks: u64 = cgrid.iter().product();
    let domain_sizes: Vec<u64> = pgrid.iter().map(|&p| p * region_side).collect();
    let domain = BoundingBox::from_sizes(&domain_sizes);
    let producer_dec = Decomposition::new(domain, ProcessGrid::new(pgrid), pattern.producer);
    let consumer_dec = Decomposition::new(domain, ProcessGrid::new(cgrid), pattern.consumer);
    let workflow = WorkflowSpec {
        apps: vec![
            AppSpec::new(1, "CAP1", prod_tasks as u32).with_decomposition(producer_dec),
            AppSpec::new(2, "CAP2", cons_tasks as u32).with_decomposition(consumer_dec),
        ],
        edges: vec![],
        bundles: vec![vec![1, 2]],
    };
    Scenario {
        name: format!("concurrent {prod_tasks}/{cons_tasks} {}", pattern.label()),
        cores_per_node: 12,
        workflow,
        couplings: vec![CouplingSpec {
            var: "coupled".into(),
            producer_app: 1,
            consumer_apps: vec![2],
            concurrent: true,
            region: None,
        }],
        subscriptions: vec![],
        halo: 2,
        elem_bytes: 8,
        iterations: 1,
    }
}

/// Build the paper's **concurrent coupling scenario**: CAP1 (producer,
/// `prod_tasks` cores) and CAP2 (consumer, `cons_tasks` cores) run
/// concurrently as one bundle, sharing a 3-D domain sized so each CAP1
/// task owns a `region_side`^3 block (128^3 = 16 MB of f64 in the paper).
pub fn concurrent_scenario(
    prod_tasks: u64,
    cons_tasks: u64,
    region_side: u64,
    pattern: PatternPair,
) -> Scenario {
    let pgrid = balanced_grid(prod_tasks, 3);
    let cgrid = aligned_grid(cons_tasks, &pgrid);
    concurrent_scenario_with_grids(&pgrid, &cgrid, region_side, pattern)
}

/// [`sequential_scenario`] with explicit process grids.
pub fn sequential_scenario_with_grids(
    pgrid: &[u64],
    c1grid: &[u64],
    c2grid: &[u64],
    region_side: u64,
    pattern: PatternPair,
) -> Scenario {
    let prod_tasks: u64 = pgrid.iter().product();
    let cons1_tasks: u64 = c1grid.iter().product();
    let cons2_tasks: u64 = c2grid.iter().product();
    let domain_sizes: Vec<u64> = pgrid.iter().map(|&p| p * region_side).collect();
    let domain = BoundingBox::from_sizes(&domain_sizes);
    let producer_dec = Decomposition::new(domain, ProcessGrid::new(pgrid), pattern.producer);
    let c1 = Decomposition::new(domain, ProcessGrid::new(c1grid), pattern.consumer);
    let c2 = Decomposition::new(domain, ProcessGrid::new(c2grid), pattern.consumer);
    let workflow = WorkflowSpec {
        apps: vec![
            AppSpec::new(1, "SAP1", prod_tasks as u32).with_decomposition(producer_dec),
            AppSpec::new(2, "SAP2", cons1_tasks as u32).with_decomposition(c1),
            AppSpec::new(3, "SAP3", cons2_tasks as u32).with_decomposition(c2),
        ],
        edges: vec![(1, 2), (1, 3)],
        bundles: vec![vec![1], vec![2], vec![3]],
    };
    Scenario {
        name: format!(
            "sequential {prod_tasks}/({cons1_tasks}+{cons2_tasks}) {}",
            pattern.label()
        ),
        cores_per_node: 12,
        workflow,
        couplings: vec![CouplingSpec {
            var: "coupled".into(),
            producer_app: 1,
            consumer_apps: vec![2, 3],
            concurrent: false,
            region: None,
        }],
        subscriptions: vec![],
        halo: 2,
        elem_bytes: 8,
        iterations: 1,
    }
}

/// Build the paper's **sequential coupling scenario**: SAP1 produces into
/// CoDS on `prod_tasks` cores; SAP2 (`cons1_tasks`) and SAP3
/// (`cons2_tasks`) then launch on the same nodes and retrieve the coupled
/// data.
pub fn sequential_scenario(
    prod_tasks: u64,
    cons1_tasks: u64,
    cons2_tasks: u64,
    region_side: u64,
    pattern: PatternPair,
) -> Scenario {
    let pgrid = balanced_grid(prod_tasks, 3);
    let c1grid = aligned_grid(cons1_tasks, &pgrid);
    let c2grid = aligned_grid(cons2_tasks, &pgrid);
    sequential_scenario_with_grids(&pgrid, &c1grid, &c2grid, region_side, pattern)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_grid_products() {
        for (n, d) in [
            (512u64, 3usize),
            (64, 3),
            (128, 3),
            (384, 3),
            (8192, 3),
            (12, 2),
        ] {
            let g = balanced_grid(n, d);
            assert_eq!(g.iter().product::<u64>(), n, "grid {g:?} for {n}");
            assert_eq!(g.len(), d);
        }
    }

    #[test]
    fn balanced_grid_is_roughly_cubic() {
        let g = balanced_grid(512, 3);
        assert_eq!(g, vec![8, 8, 8]);
        let g = balanced_grid(64, 3);
        assert_eq!(g, vec![4, 4, 4]);
    }

    #[test]
    fn concurrent_scenario_paper_config() {
        // The paper's small config: CAP1=512, CAP2=64, 128^3 regions.
        let s = concurrent_scenario(512, 64, 128, pattern_pairs(&[32, 32, 32])[0]);
        let d = s.decomposition(1);
        assert_eq!(d.num_ranks(), 512);
        // 8 GB total coupled data: 1024^3 cells x 8 B.
        assert_eq!(d.domain().num_cells() * 8, 8 << 30);
        // Each producer task: 16 MB.
        assert_eq!(d.rank_cells(0) * 8, 16 << 20);
        // Each CAP2 task retrieves 128 MB.
        let c = s.decomposition(2);
        assert_eq!(c.rank_cells(0) * 8, 128 << 20);
        s.workflow.validate().unwrap();
    }

    #[test]
    fn sequential_scenario_paper_config() {
        let s = sequential_scenario(512, 128, 384, 128, pattern_pairs(&[32, 32, 32])[0]);
        assert_eq!(s.decomposition(1).num_ranks(), 512);
        // SAP2: 64 MB per task; SAP3: ~22 MB per task.
        assert_eq!(s.decomposition(2).rank_cells(0) * 8, 64 << 20);
        let sap3 = s.decomposition(3).rank_cells(0) * 8;
        assert!(
            sap3 > 21 << 20 && sap3 < 23 << 20,
            "SAP3 per-task {} MB",
            sap3 >> 20
        );
        s.workflow.validate().unwrap();
        // Two waves: SAP1, then SAP2+SAP3 concurrently.
        let waves = s.workflow.bundle_waves().unwrap();
        assert_eq!(waves.len(), 2);
        assert_eq!(waves[1].len(), 2);
    }

    #[test]
    fn pattern_pairs_cover_matched_and_mismatched() {
        let pairs = pattern_pairs(&[4, 4, 4]);
        assert_eq!(pairs.len(), 5);
        assert_eq!(pairs[0].label(), "blocked/blocked");
        assert_eq!(pairs[2].label(), "blocked/block-cyclic");
    }

    #[test]
    fn coupling_lookup() {
        let s = sequential_scenario(8, 4, 4, 4, pattern_pairs(&[2, 2, 2])[0]);
        assert!(s.coupling_into(2).is_some());
        assert!(s.coupling_into(3).is_some());
        assert!(s.coupling_into(1).is_none());
    }
}
