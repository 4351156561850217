//! Randomized workflow cases: scenario fuzzing plus DAG-text round-trips.
//!
//! A [`CaseSpec`] is a small, fully-enumerable description of one fuzzed
//! workflow: coupling style (`*_cont` vs `*_seq`), process grids,
//! per-rank region size, distribution pattern pair, halo width, coupling
//! iterations, cores per node and an optional interface sub-region. It is
//! `Clone + PartialEq + Debug` so the shrinker can mutate and compare it,
//! and it renders itself as a Rust struct literal so a failing case can be
//! pasted straight into a `#[test]`.

use insitu::{
    concurrent_scenario_with_grids, pattern_pairs, sequential_scenario_with_grids, Scenario,
    SubscriptionSpec,
};
use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_util::rng::SplitMix64;
use insitu_workflow::{parse_dag, AppSpec, WorkflowSpec};

/// One generated workflow case. All fields public so reproducers can be
/// written as plain struct literals.
#[derive(Clone, Debug, PartialEq)]
pub struct CaseSpec {
    /// `true` runs a 2-app concurrent (`*_cont`) coupling, `false` a
    /// 3-app sequential (`*_seq`) fan-out through the CoDS store.
    pub concurrent: bool,
    /// Producer process grid (1–3 dims of 1–2 ranks).
    pub pgrid: Vec<u64>,
    /// First consumer process grid (same rank count rules).
    pub cgrid: Vec<u64>,
    /// Second consumer grid, used only by sequential cases.
    pub c2grid: Vec<u64>,
    /// Cells per producer rank per dimension (domain = pgrid × side).
    pub region_side: u64,
    /// Index into [`pattern_pairs`] (0–4).
    pub pattern: usize,
    /// Coupling iterations (data versions).
    pub iterations: u64,
    /// Stencil halo width for intra-app exchanges.
    pub halo: u64,
    /// Cores per simulated node.
    pub cores_per_node: u32,
    /// Couple only the lower-corner half of the domain instead of all
    /// of it (the interface-region case).
    pub subregion: bool,
    /// Standing-query stride: `0` means no subscription; `k >= 1` adds a
    /// one-task monitor app holding a whole-domain subscription pushed
    /// every `k`-th version. Effective on concurrent cases only — a
    /// sequential case's monitor would sit in a later bundle, so its
    /// resync gets could never overlap the producers.
    pub sub_every: u64,
}

impl CaseSpec {
    /// Draw a random case from `rng`.
    pub(crate) fn generate(rng: &mut SplitMix64) -> CaseSpec {
        let ndim = rng.range_usize(2, 4); // 2-D or 3-D domains
        let grid =
            |rng: &mut SplitMix64| -> Vec<u64> { (0..ndim).map(|_| rng.range_u64(1, 3)).collect() };
        CaseSpec {
            concurrent: rng.bool(),
            pgrid: grid(rng),
            cgrid: grid(rng),
            c2grid: grid(rng),
            region_side: rng.range_u64(2, 5),
            pattern: rng.range_usize(0, 5),
            iterations: rng.range_u64(1, 3),
            halo: rng.range_u64(0, 3),
            cores_per_node: rng.range_u32(1, 3) * 2,
            subregion: rng.f64() < 0.25,
            sub_every: if rng.f64() < 0.4 {
                rng.range_u64(1, 3)
            } else {
                0
            },
        }
    }

    /// Materialize the full [`Scenario`] this case describes.
    pub fn scenario(&self) -> Scenario {
        let pattern = pattern_pairs(&vec![1; self.pgrid.len()])[self.pattern];
        let mut s = if self.concurrent {
            concurrent_scenario_with_grids(&self.pgrid, &self.cgrid, self.region_side, pattern)
        } else {
            sequential_scenario_with_grids(
                &self.pgrid,
                &self.cgrid,
                &self.c2grid,
                self.region_side,
                pattern,
            )
        };
        s.cores_per_node = self.cores_per_node;
        s.halo = self.halo;
        s = s.with_iterations(self.iterations);
        if self.subregion {
            let domain = *s.decomposition(1).domain();
            let lower = vec![0u64; domain.ndim()];
            let upper: Vec<u64> = (0..domain.ndim())
                .map(|d| domain.extent(d).div_ceil(2) - 1)
                .collect();
            let region = BoundingBox::new(&lower, &upper);
            for c in &mut s.couplings {
                c.region = Some(region);
            }
        }
        if self.concurrent && self.sub_every >= 1 {
            let domain = *s.decomposition(1).domain();
            let mdec = Decomposition::new(
                domain,
                ProcessGrid::new(&vec![1; self.pgrid.len()]),
                Distribution::Blocked,
            );
            s.workflow
                .apps
                .push(AppSpec::new(3, "MON", 1).with_decomposition(mdec));
            s.workflow.bundles[0].push(3);
            s.subscriptions.push(SubscriptionSpec {
                var: "coupled".into(),
                producer_app: 1,
                subscriber_app: 3,
                every_k: self.sub_every,
                region: None,
                queue_cap: 4,
            });
        }
        s
    }

    /// Render the case as a Rust struct literal for reproducers.
    pub fn literal(&self) -> String {
        format!(
            "insitu_chaos::CaseSpec {{\n        concurrent: {},\n        pgrid: vec!{:?},\n        cgrid: vec!{:?},\n        c2grid: vec!{:?},\n        region_side: {},\n        pattern: {},\n        iterations: {},\n        halo: {},\n        cores_per_node: {},\n        subregion: {},\n        sub_every: {},\n    }}",
            self.concurrent,
            self.pgrid,
            self.cgrid,
            self.c2grid,
            self.region_side,
            self.pattern,
            self.iterations,
            self.halo,
            self.cores_per_node,
            self.subregion,
            self.sub_every,
        )
    }

    /// A one-line human label for report lines.
    pub fn label(&self) -> String {
        let g = |v: &[u64]| v.iter().map(u64::to_string).collect::<Vec<_>>().join("x");
        let kind = if self.concurrent { "cont" } else { "seq" };
        let extra = if self.concurrent {
            String::new()
        } else {
            format!("+{}", g(&self.c2grid))
        };
        let sub = if self.concurrent && self.sub_every >= 1 {
            format!(" sub/k{}", self.sub_every)
        } else {
            String::new()
        };
        format!(
            "{kind} {}→{}{} side={} pat={} it={} halo={} cpn={}{}{}",
            g(&self.pgrid),
            g(&self.cgrid),
            extra,
            self.region_side,
            self.pattern,
            self.iterations,
            self.halo,
            self.cores_per_node,
            if self.subregion { " subregion" } else { "" },
            sub,
        )
    }
}

/// Render a workflow spec in the paper's Listing-1 DAG file syntax.
pub(crate) fn render_dag(w: &WorkflowSpec) -> String {
    let mut out = String::new();
    for a in &w.apps {
        out.push_str(&format!("APP_ID {}\n", a.id));
    }
    for (p, c) in &w.edges {
        out.push_str(&format!("PARENT_APPID {p} CHILD_APPID {c}\n"));
    }
    for b in &w.bundles {
        let ids: Vec<String> = b.iter().map(u32::to_string).collect();
        out.push_str(&format!("BUNDLE {}\n", ids.join(" ")));
    }
    out
}

/// Check that a workflow survives a DAG-text round-trip: render it in
/// Listing-1 syntax, re-parse, and compare ids, edges and bundles. Returns
/// a violation description on mismatch.
pub(crate) fn dag_round_trip(w: &WorkflowSpec) -> Result<(), String> {
    let text = render_dag(w);
    let parsed =
        parse_dag(&text).map_err(|e| format!("rendered DAG failed to parse: {e}\n{text}"))?;
    let ids = |w: &WorkflowSpec| w.apps.iter().map(|a| a.id).collect::<Vec<_>>();
    if ids(&parsed) != ids(w) {
        return Err(format!(
            "app ids changed in round-trip: {:?} vs {:?}",
            ids(&parsed),
            ids(w)
        ));
    }
    if parsed.edges != w.edges {
        return Err(format!(
            "edges changed in round-trip: {:?} vs {:?}",
            parsed.edges, w.edges
        ));
    }
    if parsed.bundles != w.bundles {
        return Err(format!(
            "bundles changed in round-trip: {:?} vs {:?}",
            parsed.bundles, w.bundles
        ));
    }
    parsed
        .validate()
        .map_err(|e| format!("round-tripped DAG fails validation: {e}"))
}

/// Generate a random *standalone* workflow DAG (apps, forward edges,
/// disjoint bundles) for parser fuzzing, independent of any scenario.
pub(crate) fn random_workflow(rng: &mut SplitMix64) -> WorkflowSpec {
    let n = rng.range_u32(1, 7);
    let apps: Vec<u32> = (1..=n).collect();
    let mut w = WorkflowSpec::default();
    for &id in &apps {
        w.apps
            .push(insitu_workflow::AppSpec::new(id, format!("app{id}"), 0));
    }
    // Forward edges only, so the DAG is acyclic by construction.
    let n = apps.len();
    let mut adj = vec![vec![false; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.f64() < 0.3 {
                w.edges.push((apps[i], apps[j]));
                adj[i][j] = true;
            }
        }
    }
    // Transitive closure (edges all point forward, so one pass works).
    for i in (0..n).rev() {
        for j in (i + 1)..n {
            if adj[i][j] {
                let reach_j = adj[j].clone();
                for (k, &reach) in reach_j.iter().enumerate() {
                    if reach {
                        adj[i][k] = true;
                    }
                }
            }
        }
    }
    // Greedy disjoint bundles of mutually independent apps: only bundle
    // an app with apps it neither reaches nor is reached by.
    let mut bundles: Vec<Vec<usize>> = Vec::new();
    for (i, row) in adj.iter().enumerate() {
        let fits = bundles
            .last()
            .is_some_and(|b| b.iter().all(|&m| !adj[m][i] && !row[m]));
        if fits && rng.bool() {
            bundles.last_mut().unwrap().push(i);
        } else {
            bundles.push(vec![i]);
        }
    }
    w.bundles = bundles
        .into_iter()
        .map(|b| b.into_iter().map(|i| apps[i]).collect())
        .collect();
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a: Vec<CaseSpec> = {
            let mut rng = SplitMix64::new(5);
            (0..20).map(|_| CaseSpec::generate(&mut rng)).collect()
        };
        let b: Vec<CaseSpec> = {
            let mut rng = SplitMix64::new(5);
            (0..20).map(|_| CaseSpec::generate(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn generated_cases_build_scenarios() {
        let mut rng = SplitMix64::new(11);
        for _ in 0..30 {
            let case = CaseSpec::generate(&mut rng);
            let s = case.scenario();
            assert_eq!(s.iterations, case.iterations);
            assert_eq!(s.cores_per_node, case.cores_per_node);
            s.workflow.validate().expect("generated workflow validates");
            let subscribed = case.concurrent && case.sub_every >= 1;
            let apps = if case.concurrent {
                2 + subscribed as usize
            } else {
                3
            };
            assert_eq!(s.workflow.apps.len(), apps);
            assert_eq!(s.subscriptions.len(), subscribed as usize);
            if let Some(sub) = s.subscriptions.first() {
                assert_eq!(sub.every_k, case.sub_every);
                assert!(s.coupling_of_subscription(sub).is_some());
            }
        }
    }

    #[test]
    fn scenario_workflows_round_trip_through_dag_text() {
        let mut rng = SplitMix64::new(23);
        for _ in 0..30 {
            let case = CaseSpec::generate(&mut rng);
            dag_round_trip(&case.scenario().workflow).unwrap();
        }
    }

    #[test]
    fn random_workflows_round_trip_and_validate() {
        let mut rng = SplitMix64::new(31);
        for _ in 0..200 {
            let w = random_workflow(&mut rng);
            w.validate().expect("forward-edge workflow is valid");
            dag_round_trip(&w).unwrap();
        }
    }

    #[test]
    fn literal_is_paste_ready() {
        let mut rng = SplitMix64::new(1);
        let case = CaseSpec::generate(&mut rng);
        let lit = case.literal();
        assert!(lit.starts_with("insitu_chaos::CaseSpec {"));
        assert!(lit.contains("pgrid: vec!["));
        assert!(lit.contains(&format!("region_side: {}", case.region_side)));
        assert!(lit.contains(&format!("sub_every: {}", case.sub_every)));
    }
}
