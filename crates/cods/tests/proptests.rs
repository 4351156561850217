//! Property tests: the space returns exactly what was put, for any
//! distribution type, grid shape and query box — the M×N redistribution
//! correctness invariant.

use insitu_cods::{CodsConfig, CodsSpace, Dht};
use insitu_dart::DartRuntime;
use insitu_domain::{layout, BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{ClientId, MachineSpec, Placement, TransferLedger};
use insitu_sfc::HilbertCurve;
use insitu_util::check::forall;
use insitu_util::SplitMix64;
use std::sync::Arc;

fn arb_dist(rng: &mut SplitMix64) -> Distribution {
    match rng.range_u32(0, 3) {
        0 => Distribution::Blocked,
        1 => Distribution::Cyclic,
        _ => {
            let a = rng.range_u64(1, 4);
            let b = rng.range_u64(1, 4);
            Distribution::block_cyclic(&[a, b])
        }
    }
}

fn tag(p: &[u64]) -> f64 {
    (p[0] * 1000 + p[1]) as f64 + 0.5
}

fn make_space(clients: u32) -> Arc<CodsSpace> {
    let nodes = clients.div_ceil(2).max(1);
    let placement = Arc::new(Placement::pack_sequential(
        MachineSpec::new(nodes, 2),
        clients,
    ));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let dht_cores: Vec<ClientId> = (0..nodes.min(clients)).map(|n| n * 2).collect();
    let dht = Dht::new(Box::new(HilbertCurve::new(2, 4)), dht_cores);
    CodsSpace::new(dart, dht, CodsConfig::default())
}

#[test]
fn get_seq_returns_what_was_put() {
    forall(64, |rng| {
        let px = rng.range_u64(1, 3);
        let py = rng.range_u64(1, 3);
        let dist = arb_dist(rng);
        let qx = rng.range_u64(0, 12);
        let qy = rng.range_u64(0, 12);
        let qw = rng.range_u64(0, 12);
        let qh = rng.range_u64(0, 12);
        // Domain fixed at 16x16 (curve order 4).
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[16, 16]),
            ProcessGrid::new(&[px, py]),
            dist,
        );
        let nclients = dec.num_ranks() as u32;
        let space = make_space(nclients);
        for r in 0..dec.num_ranks() {
            for (pi, piece) in dec.rank_region(r).into_iter().enumerate() {
                let data = layout::fill_with(&piece, tag);
                space
                    .put_seq(r as ClientId, 1, "v", 3, pi as u64, &piece, &data)
                    .unwrap();
            }
        }
        let query = BoundingBox::new(&[qx, qy], &[(qx + qw).min(15), (qy + qh).min(15)]);
        let (data, _) = space.get_seq(0, 2, "v", 3, &query).unwrap();
        for p in query.iter_points() {
            assert_eq!(data[layout::linear_index(&query, &p[..2])], tag(&p[..2]));
        }
    });
}

#[test]
fn get_cont_agrees_with_get_seq() {
    forall(64, |rng| {
        let px = rng.range_u64(1, 3);
        let py = rng.range_u64(1, 3);
        let dist = arb_dist(rng);
        let qx = rng.range_u64(0, 10);
        let qy = rng.range_u64(0, 10);
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[16, 16]),
            ProcessGrid::new(&[px, py]),
            dist,
        );
        let nclients = dec.num_ranks() as u32;
        let space_seq = make_space(nclients);
        let space_cont = make_space(nclients);
        let clients: Vec<ClientId> = (0..nclients).collect();
        for r in 0..dec.num_ranks() {
            for (pi, piece) in dec.rank_region(r).into_iter().enumerate() {
                let data = layout::fill_with(&piece, tag);
                space_seq
                    .put_seq(r as ClientId, 1, "v", 0, pi as u64, &piece, &data)
                    .unwrap();
                space_cont
                    .put_cont(r as ClientId, 1, "v", 0, pi as u64, &piece, &data)
                    .unwrap();
            }
        }
        let query = BoundingBox::new(&[qx, qy], &[qx + 5, qy + 5]);
        let (a, _) = space_seq.get_seq(0, 2, "v", 0, &query).unwrap();
        let (b, _) = space_cont
            .get_cont(0, 2, "v", 0, &query, &dec, &clients)
            .unwrap();
        assert_eq!(a[..], b[..]);
    });
}

#[test]
fn ledger_total_equals_moved_bytes() {
    forall(64, |rng| {
        let px = rng.range_u64(1, 3);
        let py = rng.range_u64(1, 3);
        let dist = arb_dist(rng);
        let dec = Decomposition::new(
            BoundingBox::from_sizes(&[16, 16]),
            ProcessGrid::new(&[px, py]),
            dist,
        );
        let nclients = dec.num_ranks() as u32;
        let space = make_space(nclients);
        for r in 0..dec.num_ranks() {
            for (pi, piece) in dec.rank_region(r).into_iter().enumerate() {
                let data = layout::fill_with(&piece, tag);
                space
                    .put_cont(r as ClientId, 1, "v", 0, pi as u64, &piece, &data)
                    .unwrap();
            }
        }
        let clients: Vec<ClientId> = (0..nclients).collect();
        let query = BoundingBox::from_sizes(&[16, 16]);
        let (_, report) = space
            .get_cont(0, 2, "v", 0, &query, &dec, &clients)
            .unwrap();
        // Conservation: shm + net = full query volume in bytes.
        assert_eq!(
            report.shm_bytes + report.net_bytes,
            query.num_cells() as u64 * 8
        );
        let snap = space.dart().ledger().snapshot();
        assert_eq!(
            snap.total_bytes(insitu_fabric::TrafficClass::InterApp),
            report.shm_bytes + report.net_bytes
        );
    });
}
