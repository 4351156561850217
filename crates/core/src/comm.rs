//! Intra-application collectives over HybridDART: the communicator the
//! dynamically formed process groups (§IV.C) hand to application
//! routines. Implements the small set of operations the paper's synthetic
//! workloads and coupled models need — broadcast, gather, all-reduce —
//! on top of tagged mailbox messages, with locality-aware
//! byte accounting like every other transfer in the system.

use crate::threaded::TAG_COLLECTIVE_BASE;
use insitu_dart::{DartRuntime, Mailbox, Msg};
use insitu_fabric::{ClientId, TrafficClass};
use insitu_util::Bytes;
use insitu_workflow::AppGroup;
use std::sync::Arc;

/// Reduction operators for [`GroupComm::allreduce_f64`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    /// Sum of contributions.
    Sum,
    /// Minimum contribution.
    Min,
    /// Maximum contribution.
    Max,
}

impl ReduceOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }
}

/// A rank's handle on its application group: the `MPI_Comm` analog.
///
/// Collectives are matched by an internal sequence number, so every
/// member must invoke the same collectives in the same order (the usual
/// SPMD contract). Messages of other tags arriving meanwhile (e.g. halo
/// payloads) are stashed and re-delivered by `GroupComm::recv_tagged`.
pub struct GroupComm<'a> {
    dart: &'a Arc<DartRuntime>,
    group: &'a AppGroup,
    rank: u32,
    client: ClientId,
    mailbox: &'a Mailbox,
    seq: std::cell::Cell<u64>,
    stash: std::cell::RefCell<Vec<Msg>>,
}

impl<'a> GroupComm<'a> {
    /// Create the handle for `rank` of `group`, whose thread owns
    /// `mailbox`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn new(
        dart: &'a Arc<DartRuntime>,
        group: &'a AppGroup,
        rank: u32,
        mailbox: &'a Mailbox,
    ) -> Self {
        assert!(rank < group.size(), "rank {rank} out of range");
        GroupComm {
            dart,
            group,
            rank,
            client: group.client_of(rank),
            mailbox,
            seq: std::cell::Cell::new(0),
            stash: std::cell::RefCell::new(Vec::new()),
        }
    }

    /// Group size.
    pub fn size(&self) -> u32 {
        self.group.size()
    }

    fn send_to_rank(&self, dest: u32, tag: u64, payload: Bytes) {
        self.dart.send(
            self.group.app_id,
            TrafficClass::IntraApp,
            self.client,
            self.group.client_of(dest),
            tag,
            payload,
        );
    }

    /// Receive the next message with `tag`, stashing mismatches.
    pub(crate) fn recv_tagged(&self, tag: u64) -> Msg {
        let mut stash = self.stash.borrow_mut();
        if let Some(pos) = stash.iter().position(|m| m.tag == tag) {
            return stash.swap_remove(pos);
        }
        loop {
            let m = self.mailbox.recv();
            if m.tag == tag {
                return m;
            }
            stash.push(m);
        }
    }

    fn next_tag(&self, round: u64) -> u64 {
        // Tag space: base | app | seq | round. The app id keeps bundled
        // applications sharing a node from colliding.
        let s = self.seq.get();
        TAG_COLLECTIVE_BASE
            | ((self.group.app_id as u64 & 0xffff) << 32)
            | ((s & 0xffffff) << 8)
            | (round & 0xff)
    }

    fn bump_seq(&self) {
        self.seq.set(self.seq.get() + 1);
    }

    /// Broadcast `data` from `root` to every member; returns the payload.
    /// Binomial-tree dissemination.
    pub fn broadcast(&self, root: u32, data: Bytes) -> Bytes {
        let n = self.size();
        assert!(root < n, "root {root} out of range");
        // Work in the rotated space where root is rank 0.
        let vrank = (self.rank + n - root) % n;
        let tag = self.next_tag(0);
        let payload = if vrank == 0 {
            data
        } else {
            self.recv_tagged(tag).payload
        };
        // Binomial forwarding: once vrank v holds the data it sends to
        // v + 2^j for every power of two 2^j >= v + 1 (so each vrank
        // receives exactly once, from the highest power of two below it).
        let mut k = if vrank == 0 {
            1
        } else {
            (vrank + 1).next_power_of_two()
        };
        while vrank + k < n {
            let dest = (vrank + k + root) % n;
            self.send_to_rank(dest, tag, payload.clone());
            k <<= 1;
        }
        self.bump_seq();
        payload
    }

    /// Gather every rank's payload at `root` (rank order). Non-roots get
    /// an empty vec.
    pub fn gather(&self, root: u32, data: Bytes) -> Vec<Bytes> {
        let n = self.size();
        assert!(root < n, "root {root} out of range");
        let tag = self.next_tag(0);
        let out = if self.rank == root {
            let mut slots: Vec<Option<Bytes>> = vec![None; n as usize];
            slots[self.rank as usize] = Some(data);
            for _ in 0..n - 1 {
                let m = self.recv_tagged(tag);
                // Sender rank rides in the first 4 payload bytes.
                let sender = u32::from_ne_bytes(m.payload[..4].try_into().unwrap());
                slots[sender as usize] = Some(Bytes::copy_from_slice(&m.payload[4..]));
            }
            slots
                .into_iter()
                .map(|s| s.expect("missing contribution"))
                .collect()
        } else {
            let mut framed = Vec::with_capacity(4 + data.len());
            framed.extend_from_slice(&self.rank.to_ne_bytes());
            framed.extend_from_slice(&data);
            self.send_to_rank(root, tag, Bytes::from(framed));
            Vec::new()
        };
        self.bump_seq();
        out
    }

    /// All-reduce one `f64`: gather-to-0 + broadcast (correct for any
    /// group size; these groups are small enough that the log-round
    /// algorithms buy nothing).
    pub fn allreduce_f64(&self, value: f64, op: ReduceOp) -> f64 {
        let contributions = self.gather(0, Bytes::copy_from_slice(&value.to_ne_bytes()));
        let reduced = if self.rank == 0 {
            let acc = contributions
                .iter()
                .map(|b| f64::from_ne_bytes(b[..8].try_into().unwrap()))
                .reduce(|a, b| op.apply(a, b))
                .expect("non-empty group");
            Bytes::copy_from_slice(&acc.to_ne_bytes())
        } else {
            Bytes::new()
        };
        let out = self.broadcast(0, reduced);
        f64::from_ne_bytes(out[..8].try_into().unwrap())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_fabric::{MachineSpec, Placement, TransferLedger};

    fn with_group<F>(n: u32, f: F)
    where
        F: Fn(GroupComm<'_>, u32) + Send + Sync + 'static,
    {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 4), n));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let group = Arc::new(AppGroup {
            app_id: 7,
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
                f(comm, rank);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn broadcast_delivers_to_all() {
        for n in [1u32, 2, 3, 6, 7] {
            with_group(n, move |comm, rank| {
                for root in 0..comm.size() {
                    let data = if rank == root {
                        Bytes::from(format!("hello-{root}").into_bytes())
                    } else {
                        Bytes::new()
                    };
                    let got = comm.broadcast(root, data);
                    assert_eq!(&got[..], format!("hello-{root}").as_bytes());
                }
            });
        }
    }

    #[test]
    fn gather_collects_in_rank_order() {
        with_group(5, |comm, rank| {
            let mine = Bytes::from(vec![rank as u8; 2]);
            let all = comm.gather(2, mine);
            if rank == 2 {
                assert_eq!(all.len(), 5);
                for (r, b) in all.iter().enumerate() {
                    assert_eq!(&b[..], &[r as u8, r as u8]);
                }
            } else {
                assert!(all.is_empty());
            }
        });
    }

    #[test]
    fn allreduce_sum_min_max() {
        with_group(6, |comm, rank| {
            let v = rank as f64 + 1.0; // 1..=6
            assert_eq!(comm.allreduce_f64(v, ReduceOp::Sum), 21.0);
            assert_eq!(comm.allreduce_f64(v, ReduceOp::Min), 1.0);
            assert_eq!(comm.allreduce_f64(v, ReduceOp::Max), 6.0);
        });
    }

    #[test]
    fn collectives_account_intra_app_traffic() {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 1), 2));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let group = Arc::new(AppGroup {
            app_id: 3,
            members: vec![0, 1],
        });
        let d2 = Arc::clone(&dart);
        let g2 = Arc::clone(&group);
        let h = std::thread::spawn(move || {
            let mb = d2.take_mailbox(1);
            let comm = GroupComm::new(&d2, &g2, 1, &mb);
            comm.broadcast(0, Bytes::new())
        });
        let mb = dart.take_mailbox(0);
        let comm = GroupComm::new(&dart, &group, 0, &mb);
        comm.broadcast(0, Bytes::from_static(b"12345678"));
        h.join().unwrap();
        // Two clients on different nodes: payload crossed the network.
        let snap = dart.ledger().snapshot();
        assert_eq!(snap.network_bytes(TrafficClass::IntraApp), 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_rank() {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(1, 2), 2));
        let dart = DartRuntime::new(placement, Arc::new(TransferLedger::new()));
        let group = AppGroup {
            app_id: 1,
            members: vec![0, 1],
        };
        let mb = dart.take_mailbox(0);
        let _ = GroupComm::new(&dart, &group, 9, &mb);
    }
}
