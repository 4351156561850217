//! Full in-situ analytics pipeline, hand-wired from the framework's
//! parts: an iterative simulation streams a field through CoDS to a
//! concurrent analysis application, which computes region statistics,
//! reduces them across its ranks with group collectives, and downsamples
//! the field for visualization — all without touching a file system
//! (the paper's §I end-to-end I/O pipeline scenario).
//!
//! ```text
//! cargo run --release --example insitu_analytics
//! ```

use insitu::analysis::{downsample, region_stats, RegionStats};
use insitu::cods::{var_id, CodsConfig, CodsSpace, Dht};
use insitu::comm::{GroupComm, ReduceOp};
use insitu::dart::DartRuntime;
use insitu::domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu::fabric::{MachineSpec, Placement, TrafficClass, TransferLedger};
use insitu::fill_field;
use insitu::sfc::HilbertCurve;
use insitu::workflow::AppGroup;
use std::sync::Arc;

const ITERATIONS: u64 = 3;

fn main() {
    // 16 simulation tasks + 4 analysis tasks on 4-core nodes.
    let sim_dec = Decomposition::new(
        BoundingBox::from_sizes(&[32, 32]),
        ProcessGrid::new(&[4, 4]),
        Distribution::Blocked,
    );
    let ana_dec = Decomposition::new(
        BoundingBox::from_sizes(&[32, 32]),
        ProcessGrid::new(&[4, 1]),
        Distribution::Blocked,
    );
    let machine = MachineSpec::new(5, 4);
    let placement = Arc::new(Placement::pack_sequential(machine, 20));
    let ledger = Arc::new(TransferLedger::new());
    let dart = DartRuntime::new(placement, Arc::clone(&ledger));
    let dht = Dht::new(Box::new(HilbertCurve::new(2, 5)), vec![0, 4, 8, 12, 16]);
    let space = CodsSpace::new(Arc::clone(&dart), dht, CodsConfig::default());
    space.set_expected_gets("field", 4);

    let vid = var_id("field");
    let mut handles = Vec::new();

    // Simulation application: clients 0..16, one region per rank, a new
    // version every iteration; old versions reclaimed once analyzed.
    for rank in 0..16u64 {
        let space = Arc::clone(&space);
        handles.push(std::thread::spawn(move || {
            let piece = sim_dec.blocked_box(rank).unwrap();
            for version in 0..ITERATIONS {
                let data = fill_field(vid, version, &piece);
                space
                    .put_cont(rank as u32, 1, "field", version, 0, &piece, data)
                    .unwrap();
                // Every rank holds the two-version window; rank 0 evicts.
                let window = std::time::Duration::from_secs(10);
                if version > 0
                    && space.wait_version_consumed("field", version - 1, window)
                    && rank == 0
                {
                    space.evict_version("field", version - 1);
                }
            }
        }));
    }

    // Analysis application: clients 16..20, forming a process group with
    // collectives for the cross-rank reduction.
    let group = Arc::new(AppGroup {
        app_id: 2,
        members: (16..20).collect(),
    });
    let sim_clients: Vec<u32> = (0..16).collect();
    let mut analysis = Vec::new();
    for rank in 0..4u32 {
        let space = Arc::clone(&space);
        let dart = Arc::clone(&dart);
        let group = Arc::clone(&group);
        let sim_clients = sim_clients.clone();
        analysis.push(std::thread::spawn(move || {
            let client = group.client_of(rank);
            let mailbox = dart.take_mailbox(client);
            let comm = GroupComm::new(&dart, &group, rank, &mailbox);
            let region = ana_dec.blocked_box(rank as u64).unwrap();
            let mut per_version = Vec::new();
            for version in 0..ITERATIONS {
                let (data, _) = space
                    .get_cont(client, 2, "field", version, &region, &sim_dec, &sim_clients)
                    .unwrap();
                let local = region_stats(&region, &data);
                // Reduce across the analysis group.
                let global = RegionStats {
                    min: comm.allreduce_f64(local.min, ReduceOp::Min),
                    max: comm.allreduce_f64(local.max, ReduceOp::Max),
                    mean: comm.allreduce_f64(local.mean * local.cells as f64, ReduceOp::Sum)
                        / comm.allreduce_f64(local.cells as f64, ReduceOp::Sum),
                    cells: 32 * 32,
                };
                // Decimate for the (notional) visualization stage.
                let (coarse, coarse_data) = downsample(&region, &data, 4);
                per_version.push((version, global, coarse, coarse_data.len()));
            }
            dart.return_mailbox(client, mailbox);
            (rank, per_version)
        }));
    }

    for h in handles {
        h.join().unwrap();
    }
    println!(
        "== In-situ analytics: 16 sim tasks -> 4 analysis tasks, {ITERATIONS} iterations ==\n"
    );
    for h in analysis {
        let (rank, versions) = h.join().unwrap();
        if rank == 0 {
            for (version, stats, coarse, n) in versions {
                println!(
                    "iteration {version}: field min {:.4} max {:.4} mean {:.4} | downsampled to {coarse:?} ({n} cells/rank)",
                    stats.min, stats.max, stats.mean
                );
            }
        }
    }
    let snap = ledger.snapshot();
    println!(
        "\ncoupling: {} B in-situ, {} B over network across {ITERATIONS} iterations",
        snap.shm_bytes(TrafficClass::InterApp),
        snap.network_bytes(TrafficClass::InterApp)
    );
    println!(
        "staging peak: {} B per node (old versions reclaimed as consumed)",
        space.staging_peak()
    );
}
