//! Property tests for the group collectives: correctness across arbitrary
//! group sizes, roots, payload sizes and operation sequences.

use insitu::comm::{GroupComm, ReduceOp};
use insitu_dart::DartRuntime;
use insitu_fabric::{MachineSpec, Placement, TransferLedger};
use insitu_util::check::forall;
use insitu_util::Bytes;
use insitu_workflow::AppGroup;
use std::sync::Arc;

/// Run `f` as every rank of an `n`-member group on real threads, collect
/// per-rank results. `f` gets the handle and its rank.
fn with_group<T, F>(n: u32, f: F) -> Vec<T>
where
    T: Send + 'static,
    F: Fn(&GroupComm<'_>, u32) -> T + Send + Sync + 'static,
{
    let placement = Arc::new(Placement::pack_sequential(
        MachineSpec::new(n.div_ceil(3).max(1), 3),
        n,
    ));
    let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
    let group = Arc::new(AppGroup {
        app_id: 1,
        members: (0..n).collect(),
    });
    let f = Arc::new(f);
    let mut handles = Vec::new();
    for rank in 0..n {
        let dart = Arc::clone(&dart);
        let group = Arc::clone(&group);
        let f = Arc::clone(&f);
        handles.push(std::thread::spawn(move || {
            let mailbox = dart.take_mailbox(group.client_of(rank));
            let comm = GroupComm::new(&dart, &group, rank, &mailbox);
            f(&comm, rank)
        }));
    }
    handles.into_iter().map(|h| h.join().unwrap()).collect()
}

#[test]
fn broadcast_any_root_any_payload() {
    forall(24, |rng| {
        let n = rng.range_u32(1, 10);
        let root = rng.next_u64() as u32 % n;
        let len = rng.range_usize(0, 300);
        let payload: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        let expected = payload.clone();
        let results = with_group(n, move |comm, rank| {
            let data = if rank == root {
                Bytes::from(payload.clone())
            } else {
                Bytes::new()
            };
            comm.broadcast(root, data).to_vec()
        });
        for r in results {
            assert_eq!(&r[..], &expected[..]);
        }
    });
}

#[test]
fn allreduce_sum_matches_serial() {
    forall(24, |rng| {
        let n = rng.range_u32(1, 9);
        let seed = rng.next_u64();
        let values: Vec<f64> = (0..n)
            .map(|i| ((seed >> (i % 48)) & 0xff) as f64 / 7.0)
            .collect();
        let expect: f64 = values.iter().sum();
        let v2 = values.clone();
        let results = with_group(n, move |comm, rank| {
            comm.allreduce_f64(v2[rank as usize], ReduceOp::Sum)
        });
        for r in results {
            assert!((r - expect).abs() < 1e-9, "{r} != {expect}");
        }
    });
}

#[test]
fn interleaved_collective_sequences() {
    forall(24, |rng| {
        // broadcast / gather / all-reduce interleaved `rounds` times;
        // every rank must observe consistent results at each step.
        let n = rng.range_u32(2, 7);
        let rounds = rng.range_u32(1, 5);
        let results = with_group(n, move |comm, rank| {
            let mut log = Vec::new();
            for round in 0..rounds {
                let root = round % comm.size();
                let b = comm.broadcast(
                    root,
                    if rank == root {
                        Bytes::from(vec![round as u8; 3])
                    } else {
                        Bytes::new()
                    },
                );
                log.push(b[0]);
                let gathered = comm.gather(0, Bytes::from(vec![rank as u8]));
                if rank == 0 {
                    log.push(gathered.len() as u8);
                }
                let m = comm.allreduce_f64(rank as f64, ReduceOp::Max);
                log.push(m as u8);
            }
            log
        });
        let n8 = (n - 1) as u8;
        for (rank, log) in results.into_iter().enumerate() {
            let mut i = 0;
            for round in 0..rounds as u8 {
                assert_eq!(log[i], round, "rank {rank} round {round} broadcast");
                i += 1;
                if rank == 0 {
                    assert_eq!(log[i] as u32, n, "gather size");
                    i += 1;
                }
                assert_eq!(log[i], n8, "allreduce max");
                i += 1;
            }
        }
    });
}
