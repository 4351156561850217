//! Property tests over the mapping pipeline and scenario builders.

use insitu::domain::{layout::fill_with, BoundingBox};
use insitu::{
    aligned_grid, balanced_grid, concurrent_scenario, field_value, fill_field, map_scenario,
    pattern_pairs, sequential_scenario, verify_field, MappingStrategy,
};
use insitu_util::check::forall;
use insitu_util::SplitMix64;

fn arb_strategy(rng: &mut SplitMix64) -> MappingStrategy {
    *rng.choose(&[
        MappingStrategy::RoundRobin,
        MappingStrategy::DataCentric,
        MappingStrategy::NodeCyclic,
    ])
}

#[test]
fn balanced_grid_always_multiplies_out() {
    forall(48, |rng| {
        let n = rng.range_u64(1, 5000);
        let ndim = rng.range_usize(1, 4);
        let g = balanced_grid(n, ndim);
        assert_eq!(g.len(), ndim);
        assert_eq!(g.iter().product::<u64>(), n);
        assert!(g.iter().all(|&d| d >= 1));
    });
}

#[test]
fn aligned_grid_always_multiplies_out() {
    forall(48, |rng| {
        let n = rng.range_u64(1, 200);
        let p0 = rng.range_u64(1, 9);
        let p1 = rng.range_u64(1, 9);
        let p2 = rng.range_u64(1, 9);
        let g = aligned_grid(n, &[p0, p1, p2]);
        assert_eq!(g.len(), 3);
        assert_eq!(g.iter().product::<u64>(), n);
    });
}

#[test]
fn aligned_grid_perfect_when_divisible() {
    forall(8, |rng| {
        // Consumer count = producer count / 2^k along z: the aligned grid
        // must divide component-wise.
        let k = rng.range_u64(1, 5);
        let producer = [8u64, 8, 8];
        let n = 512 / (1 << k);
        let g = aligned_grid(n, &producer);
        for d in 0..3 {
            assert_eq!(producer[d] % g[d], 0, "grid {g:?}");
        }
    });
}

#[test]
fn concurrent_mapping_valid_for_arbitrary_sizes() {
    forall(48, |rng| {
        // Producer 2^pexp tasks, consumer 2^cexp (consumer <= producer).
        let pexp = rng.range_u32(1, 5);
        let cexp = rng.range_u32(0, 4);
        let strategy = arb_strategy(rng);
        let pattern_idx = rng.range_usize(0, 5);
        let prod = 1u64 << pexp;
        let cons = 1u64 << cexp.min(pexp);
        let mut s = concurrent_scenario(prod, cons, 4, pattern_pairs(&[2, 2, 2])[pattern_idx]);
        s.cores_per_node = 4;
        let m = map_scenario(&s, strategy);
        // Every task mapped, no core reused within the concurrent wave.
        let mut cores: Vec<u32> = m.app_cores.values().flatten().copied().collect();
        assert_eq!(cores.len() as u64, prod + cons);
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len() as u64, prod + cons, "core reused");
        for &c in &cores {
            assert!(c < m.machine.total_cores());
        }
    });
}

#[test]
fn sequential_mapping_valid() {
    forall(48, |rng| {
        let pexp = rng.range_u32(2, 5);
        let strategy = arb_strategy(rng);
        let prod = 1u64 << pexp;
        let c1 = prod / 2;
        let c2 = prod / 2;
        let mut s = sequential_scenario(prod, c1, c2, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        let m = map_scenario(&s, strategy);
        // Wave 2 apps fit the machine together.
        let mut cores: Vec<u32> = m.app_cores[&2]
            .iter()
            .chain(m.app_cores[&3].iter())
            .copied()
            .collect();
        cores.sort_unstable();
        cores.dedup();
        assert_eq!(cores.len() as u64, c1 + c2);
    });
}

#[test]
fn data_centric_never_loses_to_baseline_on_matched_patterns() {
    forall(8, |rng| {
        use insitu::run_modeled;
        use insitu_fabric::TrafficClass;
        let pexp = rng.range_u32(2, 5);
        let prod = 1u64 << pexp;
        let cons = prod / 2;
        let mut s = concurrent_scenario(prod, cons, 4, pattern_pairs(&[2, 2, 2])[0]);
        s.cores_per_node = 4;
        let rr = run_modeled(&s, MappingStrategy::RoundRobin);
        let dc = run_modeled(&s, MappingStrategy::DataCentric);
        assert!(
            dc.ledger.network_bytes(TrafficClass::InterApp)
                <= rr.ledger.network_bytes(TrafficClass::InterApp)
        );
    });
}

/// A 1–4-D box with non-zero lower corners; extent-1 dims (rows
/// included) are common.
fn arb_field_box(rng: &mut SplitMix64) -> BoundingBox {
    let nd = rng.range_usize(1, 5);
    let lb: Vec<u64> = (0..nd).map(|_| rng.range_u64(1, 1000)).collect();
    let ub: Vec<u64> = lb.iter().map(|&l| l + rng.range_u64(0, 6)).collect();
    BoundingBox::new(&lb, &ub)
}

#[test]
fn fill_field_is_field_value_bit_for_bit() {
    forall(256, |rng| {
        let b = arb_field_box(rng);
        let (var, version) = (rng.next_u64(), rng.range_u64(0, 50));
        let rows = fill_field(var, version, &b);
        let cells = fill_with(&b, |p| field_value(var, version, p));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&rows), bits(&cells), "box {b:?}");
    });
}

#[test]
fn verify_field_counts_exactly_the_corrupted_cells() {
    forall(256, |rng| {
        let b = arb_field_box(rng);
        let (var, version) = (rng.next_u64(), rng.range_u64(0, 50));
        let mut data = fill_field(var, version, &b);
        let (cells, row) = (data.len(), b.extent(b.ndim() - 1) as usize);
        assert_eq!(verify_field(var, version, &b, &data), 0);
        // The wrong variable or version differs at every cell (53-bit
        // collisions aside).
        assert_eq!(verify_field(var ^ 1, version, &b, &data), cells as u64);
        assert_eq!(verify_field(var, version + 1, &b, &data), cells as u64);

        // Corrupt the first and last cell of one row and up to 8 random
        // cells; a cell hit twice is corrupted once.
        let r = rng.range_usize(0, cells / row) * row;
        let mut hit = vec![r, r + row - 1];
        hit.extend((0..rng.range_usize(0, 9)).map(|_| rng.range_usize(0, cells)));
        hit.sort_unstable();
        hit.dedup();
        for &i in &hit {
            data[i] = f64::from_bits(data[i].to_bits() ^ 1);
        }
        assert_eq!(verify_field(var, version, &b, &data), hit.len() as u64);
    });
}
