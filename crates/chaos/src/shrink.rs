//! Shrink a failing case to a minimal one and render a reproducer.
//!
//! The shrinker greedily applies structure-reducing rewrites (fewer
//! iterations, no halo, whole-domain coupling, smaller grids and regions,
//! concurrent instead of three-app sequential) and keeps any rewrite
//! under which the failure predicate still holds, iterating to a fixed
//! point. Because every candidate is re-run under the same seeded fault
//! plan, the search is as deterministic as the harness itself.

use crate::generator::CaseSpec;
use crate::plan::FaultSpec;

/// Candidate one-step reductions of `c`, most aggressive first.
fn reductions(c: &CaseSpec) -> Vec<CaseSpec> {
    let mut out = Vec::new();
    if !c.concurrent {
        let mut d = c.clone();
        d.concurrent = true;
        out.push(d);
    }
    if c.iterations > 1 {
        let mut d = c.clone();
        d.iterations = 1;
        out.push(d);
    }
    if c.halo > 0 {
        let mut d = c.clone();
        d.halo = 0;
        out.push(d);
    }
    if c.subregion {
        let mut d = c.clone();
        d.subregion = false;
        out.push(d);
    }
    if c.sub_every > 0 {
        let mut d = c.clone();
        d.sub_every = 0;
        out.push(d);
        if c.sub_every > 1 {
            let mut d = c.clone();
            d.sub_every = 1;
            out.push(d);
        }
    }
    if c.pattern != 0 {
        let mut d = c.clone();
        d.pattern = 0;
        out.push(d);
    }
    if c.cores_per_node > 2 {
        let mut d = c.clone();
        d.cores_per_node = 2;
        out.push(d);
    }
    // Drop a whole dimension (all grids shrink together so ranks match);
    // 2-D is the floor, matching the generator's domain space.
    if c.pgrid.len() > 2 {
        let mut d = c.clone();
        d.pgrid.pop();
        d.cgrid.pop();
        d.c2grid.pop();
        out.push(d);
    }
    // Halve one grid extent at a time.
    for (which, grid) in [(0, &c.pgrid), (1, &c.cgrid), (2, &c.c2grid)] {
        for (dim, &g) in grid.iter().enumerate() {
            if g > 1 {
                let mut d = c.clone();
                match which {
                    0 => d.pgrid[dim] = 1,
                    1 => d.cgrid[dim] = 1,
                    _ => d.c2grid[dim] = 1,
                }
                out.push(d);
            }
        }
    }
    if c.region_side > 2 {
        let mut d = c.clone();
        d.region_side = 2;
        out.push(d);
        let mut d = c.clone();
        d.region_side = c.region_side - 1;
        out.push(d);
    }
    out
}

/// Greedily minimize `case` while `still_fails` holds, to a fixed point.
pub(crate) fn shrink(case: &CaseSpec, still_fails: &dyn Fn(&CaseSpec) -> bool) -> CaseSpec {
    let mut cur = case.clone();
    loop {
        let better = reductions(&cur).into_iter().find(|cand| still_fails(cand));
        match better {
            Some(cand) => cur = cand,
            None => return cur,
        }
    }
}

/// Render a minimal failing case as a paste-ready `#[test]`, including
/// the CLI line that replays the surrounding chaos run.
pub(crate) fn reproducer(
    seed: u64,
    idx: u64,
    spec: &FaultSpec,
    case: &CaseSpec,
    reason: &str,
) -> String {
    format!(
        "// Reproduces: {reason}\n\
         // Replay the full run: insitu chaos --seed {seed} --cases {n} --faults {faults}\n\
         #[test]\n\
         fn chaos_seed_{seed}_case_{idx}() {{\n    \
             let spec = insitu_chaos::FaultSpec::parse(\"{faults}\").unwrap();\n    \
             let case = {literal};\n    \
             let outcome = insitu_chaos::run_case_spec({seed}, {idx}, &spec, &case);\n    \
             assert!(outcome.ok(), \"{{:?}}\", outcome.violations);\n\
         }}\n",
        n = idx + 1,
        faults = spec.canonical(),
        literal = case.literal(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big_case() -> CaseSpec {
        CaseSpec {
            concurrent: false,
            pgrid: vec![2, 2, 2],
            cgrid: vec![2, 2, 1],
            c2grid: vec![1, 2, 2],
            region_side: 4,
            pattern: 3,
            iterations: 2,
            halo: 2,
            cores_per_node: 4,
            subregion: true,
            sub_every: 2,
        }
    }

    #[test]
    fn shrinks_to_smallest_case_when_everything_fails() {
        let minimal = shrink(&big_case(), &|_| true);
        assert!(minimal.concurrent);
        assert_eq!(minimal.iterations, 1);
        assert_eq!(minimal.halo, 0);
        assert!(!minimal.subregion);
        assert_eq!(minimal.pattern, 0);
        assert_eq!(minimal.cores_per_node, 2);
        assert_eq!(minimal.pgrid, vec![1, 1]);
        assert_eq!(minimal.cgrid, vec![1, 1]);
        assert_eq!(minimal.region_side, 2);
        assert_eq!(minimal.sub_every, 0);
    }

    #[test]
    fn keeps_structure_the_failure_needs() {
        // Failure requires a sequential workflow with at least 2 producer
        // ranks: the shrinker must not cross either line.
        let pred = |c: &CaseSpec| !c.concurrent && c.pgrid.iter().product::<u64>() >= 2;
        let minimal = shrink(&big_case(), &pred);
        assert!(pred(&minimal));
        assert_eq!(minimal.pgrid.iter().product::<u64>(), 2);
        assert_eq!(minimal.iterations, 1);
        assert_eq!(minimal.region_side, 2);
    }

    #[test]
    fn shrink_of_non_failing_case_is_identity() {
        let c = big_case();
        assert_eq!(shrink(&c, &|_| false), c);
    }

    #[test]
    fn reproducer_is_a_complete_test() {
        let rep = reproducer(
            42,
            3,
            &FaultSpec::parse("dead-producer:1").unwrap(),
            &big_case(),
            "put/staging imbalance",
        );
        assert!(rep.contains("#[test]"));
        assert!(rep.contains("fn chaos_seed_42_case_3()"));
        assert!(rep.contains("insitu chaos --seed 42 --cases 4 --faults dead-producer:1"));
        assert!(rep.contains("insitu_chaos::run_case_spec(42, 3, &spec, &case)"));
        assert!(rep.contains("// Reproduces: put/staging imbalance"));
    }
}
