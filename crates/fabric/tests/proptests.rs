//! Property tests for the simulated fabric: torus routing invariants,
//! placement integrity and ledger conservation.

use insitu_fabric::{
    estimate_retrieves, ClientRetrieve, LinkFaults, Locality, NetworkModel, TorusTopology,
    TrafficClass, Transfer, TransferLedger,
};
use insitu_util::check::forall;

#[test]
fn torus_route_is_a_valid_path() {
    forall(64, |rng| {
        let dims = [
            rng.range_u32(1, 5),
            rng.range_u32(1, 5),
            rng.range_u32(1, 5),
        ];
        let t = TorusTopology::new(dims);
        let n = t.num_nodes() as u64;
        let a = rng.range_u64(0, n) as u32;
        let b = rng.range_u64(0, n) as u32;
        let links = t.route(a, b);
        assert_eq!(links.len() as u32, t.hop_distance(a, b));
        // Links form a contiguous walk from a to b.
        let mut cur = a;
        for l in &links {
            assert_eq!(l.from, cur);
            let mut c = t.coords_of(cur);
            let dims = t.dims();
            let d = l.dim as usize;
            c[d] = if l.plus {
                (c[d] + 1) % dims[d]
            } else {
                (c[d] + dims[d] - 1) % dims[d]
            };
            cur = t.node_of(c);
        }
        assert_eq!(cur, b);
    });
}

#[test]
fn torus_distance_symmetric_and_bounded() {
    forall(64, |rng| {
        let dims = [
            rng.range_u32(1, 5),
            rng.range_u32(1, 5),
            rng.range_u32(1, 5),
        ];
        let t = TorusTopology::new(dims);
        let n = t.num_nodes() as u64;
        let a = rng.range_u64(0, n) as u32;
        let b = rng.range_u64(0, n) as u32;
        assert_eq!(t.hop_distance(a, b), t.hop_distance(b, a));
        let diameter: u32 = dims.iter().map(|d| d / 2).sum();
        assert!(t.hop_distance(a, b) <= diameter);
    });
}

#[test]
fn ledger_conserves_bytes() {
    forall(64, |rng| {
        let ledger = TransferLedger::new();
        let mut shm = 0u64;
        let mut net = 0u64;
        for _ in 0..rng.range_usize(0, 60) {
            let app = rng.range_u32(0, 4);
            let locality = *rng.choose(&[Locality::SharedMemory, Locality::Network]);
            let bytes = rng.range_u64(1, 10_000);
            ledger.record(app, TrafficClass::InterApp, locality, bytes);
            match locality {
                Locality::SharedMemory => shm += bytes,
                Locality::Network => net += bytes,
            }
        }
        let snap = ledger.snapshot();
        assert_eq!(snap.shm_bytes(TrafficClass::InterApp), shm);
        assert_eq!(snap.network_bytes(TrafficClass::InterApp), net);
        // Per-app breakdown sums to the totals.
        let per_app: u64 = (0..4)
            .map(|a| {
                snap.app_bytes(a, TrafficClass::InterApp, Locality::SharedMemory)
                    + snap.app_bytes(a, TrafficClass::InterApp, Locality::Network)
            })
            .sum();
        assert_eq!(per_app, shm + net);
    });
}

#[test]
fn retrieve_times_monotone_in_bytes() {
    forall(64, |rng| {
        let base = rng.range_u64(1, 1_000_000);
        let extra = rng.range_u64(1, 1_000_000);
        let src = rng.range_u32(0, 64);
        let m = NetworkModel::jaguar();
        let t = TorusTopology::new([4, 4, 4]);
        let mk = |bytes| ClientRetrieve {
            dst_node: 0,
            transfers: vec![Transfer::new(src, bytes)],
            dht_queries: 0,
        };
        let total = |r| {
            estimate_retrieves(&m, &t, &[r], &LinkFaults::default())[0]
                .0
                .total_ms
        };
        let small = total(mk(base));
        let large = total(mk(base + extra));
        assert!(large >= small);
    });
}

#[test]
fn retrieve_times_nonnegative_and_finite() {
    forall(64, |rng| {
        let m = NetworkModel::jaguar();
        let t = TorusTopology::new([3, 3, 3]);
        let retrieves: Vec<ClientRetrieve> = (0..rng.range_usize(1, 20))
            .map(|_| ClientRetrieve {
                dst_node: rng.range_u32(0, 27),
                transfers: vec![Transfer::new(
                    rng.range_u32(0, 27),
                    rng.range_u64(0, 1_000_000),
                )],
                dht_queries: 1,
            })
            .collect();
        for (est, _) in estimate_retrieves(&m, &t, &retrieves, &LinkFaults::default()) {
            assert!(est.total_ms.is_finite() && est.total_ms >= 0.0);
        }
    });
}
