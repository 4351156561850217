//! A real data-parallel mini-application on the framework: 2-D Jacobi
//! heat diffusion. Unlike the synthetic CAP/SAP workloads (which move
//! verifiable but meaningless bytes), this solver exchanges *real*
//! boundary rows through HybridDART mailboxes every iteration, relaxes
//! its local block, reduces the global residual with group collectives,
//! and publishes the converged field into CoDS for a consumer — i.e. it
//! exercises the full paper stack with a computation whose answer can be
//! checked against a serial reference bit for bit.

use crate::comm::{GroupComm, ReduceOp};
use insitu_cods::{CodsConfig, CodsSpace, Dht};
use insitu_dart::{DartRuntime, Msg};
use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{
    ClientId, LedgerSnapshot, MachineSpec, Placement, TrafficClass, TransferLedger,
};
use insitu_sfc::HilbertCurve;
use insitu_util::Bytes;
use insitu_workflow::AppGroup;
use std::sync::Arc;

/// Configuration of a Jacobi run.
#[derive(Clone, Copy, Debug)]
pub struct JacobiConfig {
    /// Interior grid size (cells per side; the hot boundary is implicit).
    pub size: u64,
    /// Process grid (rows, cols); product = task count.
    pub grid: [u64; 2],
    /// Jacobi sweeps to run.
    pub sweeps: u32,
    /// Cores per simulated node.
    pub cores_per_node: u32,
}

/// Result of a Jacobi run.
#[derive(Clone, Debug)]
pub struct JacobiOutcome {
    /// The final field, row-major over the full interior.
    pub field: Vec<f64>,
    /// Global max-abs update of the final sweep (residual).
    pub residual: f64,
    /// Byte ledger of the whole run (halo + collective + publish traffic).
    pub ledger: LedgerSnapshot,
}

/// Serial reference: identical sweeps on one grid. Boundary conditions:
/// the left wall is held at 1.0, the other three walls at 0.0.
pub fn jacobi_serial(size: u64, sweeps: u32) -> (Vec<f64>, f64) {
    let n = size as usize;
    let mut cur = vec![0.0f64; n * n];
    let mut next = vec![0.0f64; n * n];
    let mut residual = 0.0;
    let at = |g: &[f64], r: i64, c: i64| -> f64 {
        if c < 0 {
            1.0 // hot left wall
        } else if r < 0 || r >= n as i64 || c >= n as i64 {
            0.0
        } else {
            g[r as usize * n + c as usize]
        }
    };
    for _ in 0..sweeps {
        residual = 0.0;
        for r in 0..n as i64 {
            for c in 0..n as i64 {
                let v = 0.25
                    * (at(&cur, r - 1, c)
                        + at(&cur, r + 1, c)
                        + at(&cur, r, c - 1)
                        + at(&cur, r, c + 1));
                let d = (v - cur[r as usize * n + c as usize]).abs();
                if d > residual {
                    residual = d;
                }
                next[r as usize * n + c as usize] = v;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    (cur, residual)
}

const TAG_HALO_BASE: u64 = 0x4a41_0000_0000; // "JA"

fn halo_tag(sweep: u32, dir: u8) -> u64 {
    TAG_HALO_BASE | ((sweep as u64) << 8) | dir as u64
}

fn encode(v: &[f64]) -> Bytes {
    let mut b = Vec::with_capacity(v.len() * 8);
    for x in v {
        b.extend_from_slice(&x.to_ne_bytes());
    }
    Bytes::from(b)
}

fn decode(b: &[u8]) -> Vec<f64> {
    b.chunks_exact(8)
        .map(|c| f64::from_ne_bytes(c.try_into().unwrap()))
        .collect()
}

/// Run the distributed solver and return the assembled field (gathered
/// through CoDS), the global residual and the transfer ledger.
///
/// # Panics
/// Panics if the process grid does not divide the domain.
pub fn run_jacobi(cfg: &JacobiConfig) -> JacobiOutcome {
    let tasks = (cfg.grid[0] * cfg.grid[1]) as u32;
    assert!(
        cfg.size.is_multiple_of(cfg.grid[0]) && cfg.size.is_multiple_of(cfg.grid[1]),
        "grid must divide the domain"
    );
    // One extra client gathers the published field.
    let clients = tasks + 1;
    let machine = MachineSpec::new(clients.div_ceil(cfg.cores_per_node), cfg.cores_per_node);
    let placement = Arc::new(Placement::pack_sequential(machine, clients));
    let ledger = Arc::new(TransferLedger::new());
    let dart = DartRuntime::new(placement, Arc::clone(&ledger));
    let order = 64 - (cfg.size - 1).leading_zeros().max(1);
    let dht_clients: Vec<ClientId> = (0..machine.nodes).map(|n| machine.core(n, 0)).collect();
    let dht = Dht::new(Box::new(HilbertCurve::new(2, order.max(1))), dht_clients);
    let space = CodsSpace::new(Arc::clone(&dart), dht, CodsConfig::default());
    let dec = Decomposition::new(
        BoundingBox::from_sizes(&[cfg.size, cfg.size]),
        ProcessGrid::new(&cfg.grid),
        Distribution::Blocked,
    );
    let group = Arc::new(AppGroup {
        app_id: 1,
        members: (0..tasks).collect(),
    });

    let mut handles = Vec::new();
    for rank in 0..tasks {
        let dart = Arc::clone(&dart);
        let space = Arc::clone(&space);
        let group = Arc::clone(&group);
        let cfg = *cfg;
        handles.push(std::thread::spawn(move || {
            jacobi_rank(&cfg, &dec, rank, &dart, &space, &group)
        }));
    }
    let residual = handles
        .into_iter()
        .map(|h| h.join().expect("solver rank panicked"))
        .fold(0.0f64, f64::max);

    // Gather the published field through the space (the in-situ consumer).
    let full = BoundingBox::from_sizes(&[cfg.size, cfg.size]);
    let (field, _) = space
        .get_seq(tasks, 2, "temperature", cfg.sweeps as u64, &full)
        .expect("field gather failed");
    JacobiOutcome {
        field: field.into_vec(),
        residual,
        ledger: ledger.snapshot(),
    }
}

/// One solver rank: ghosted local block, per-sweep halo exchange, local
/// relaxation, final residual all-reduce and field publish.
fn jacobi_rank(
    cfg: &JacobiConfig,
    dec: &Decomposition,
    rank: u32,
    dart: &Arc<DartRuntime>,
    space: &Arc<CodsSpace>,
    group: &Arc<AppGroup>,
) -> f64 {
    let client = group.client_of(rank);
    let mailbox = dart.take_mailbox(client);
    let comm = GroupComm::new(dart, group, rank, &mailbox);

    let region = dec.blocked_box(rank as u64).expect("divisible grid");
    let (rows, cols) = (region.extent(0) as usize, region.extent(1) as usize);
    let coords = dec.coords_of(rank as u64);
    let (gr, gc) = (coords[0], coords[1]);
    let neighbor = |dr: i64, dc: i64| -> Option<ClientId> {
        let nr = gr as i64 + dr;
        let nc = gc as i64 + dc;
        if nr < 0 || nc < 0 || nr >= cfg.grid[0] as i64 || nc >= cfg.grid[1] as i64 {
            None
        } else {
            Some(group.client_of(dec.grid().rank_of(&[nr as u64, nc as u64, 0, 0]) as u32))
        }
    };

    // Ghosted local block, row-major (rows+2) x (cols+2). Boundary ghosts
    // hold the wall conditions; neighbor ghosts are refreshed per sweep.
    let gw = cols + 2;
    let mut cur = vec![0.0f64; (rows + 2) * gw];
    let mut next = cur.clone();
    let set_walls = |g: &mut [f64]| {
        if gc == 0 {
            for r in 0..rows + 2 {
                g[r * gw] = 1.0; // hot left wall
            }
        }
    };
    set_walls(&mut cur);
    set_walls(&mut next);

    // All receives go through the group communicator's tagged stash: a
    // faster rank's collective contribution can arrive interleaved with
    // halo payloads, and a second stash would strand it.
    let recv_tag = |tag: u64| -> Msg { comm.recv_tagged(tag) };

    let mut residual = 0.0f64;
    for sweep in 0..cfg.sweeps {
        // Exchange halos: directions 0=up,1=down,2=left,3=right; a
        // message's tag carries the direction *from the receiver's view*.
        let top: Vec<f64> = cur[gw + 1..gw + 1 + cols].to_vec();
        let bottom: Vec<f64> = cur[rows * gw + 1..rows * gw + 1 + cols].to_vec();
        let left: Vec<f64> = (1..=rows).map(|r| cur[r * gw + 1]).collect();
        let right: Vec<f64> = (1..=rows).map(|r| cur[r * gw + cols]).collect();
        let sends = [
            (neighbor(-1, 0), halo_tag(sweep, 1), top),
            (neighbor(1, 0), halo_tag(sweep, 0), bottom),
            (neighbor(0, -1), halo_tag(sweep, 3), left),
            (neighbor(0, 1), halo_tag(sweep, 2), right),
        ];
        for (peer, tag, data) in sends {
            if let Some(p) = peer {
                dart.send(1, TrafficClass::IntraApp, client, p, tag, encode(&data));
            }
        }
        if neighbor(-1, 0).is_some() {
            let m = decode(&recv_tag(halo_tag(sweep, 0)).payload);
            cur[1..1 + cols].copy_from_slice(&m);
        }
        if neighbor(1, 0).is_some() {
            let m = decode(&recv_tag(halo_tag(sweep, 1)).payload);
            cur[(rows + 1) * gw + 1..(rows + 1) * gw + 1 + cols].copy_from_slice(&m);
        }
        if neighbor(0, -1).is_some() {
            let m = decode(&recv_tag(halo_tag(sweep, 2)).payload);
            for (r, v) in m.into_iter().enumerate() {
                cur[(r + 1) * gw] = v;
            }
        }
        if neighbor(0, 1).is_some() {
            let m = decode(&recv_tag(halo_tag(sweep, 3)).payload);
            for (r, v) in m.into_iter().enumerate() {
                cur[(r + 1) * gw + cols + 1] = v;
            }
        }

        // Relax.
        residual = 0.0;
        for r in 1..=rows {
            for c in 1..=cols {
                let v = 0.25
                    * (cur[(r - 1) * gw + c]
                        + cur[(r + 1) * gw + c]
                        + cur[r * gw + c - 1]
                        + cur[r * gw + c + 1]);
                let d = (v - cur[r * gw + c]).abs();
                if d > residual {
                    residual = d;
                }
                next[r * gw + c] = v;
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }

    // Global residual and field publish for the in-situ consumer.
    let global_residual = comm.allreduce_f64(residual, ReduceOp::Max);
    let interior: Vec<f64> = (1..=rows)
        .flat_map(|r| cur[r * gw + 1..r * gw + 1 + cols].to_vec())
        .collect();
    space
        .put_seq(
            client,
            1,
            "temperature",
            cfg.sweeps as u64,
            0,
            &region,
            interior,
        )
        .expect("field publish failed");
    dart.return_mailbox(client, mailbox);
    global_residual
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_reference_converges() {
        let (field, r1) = jacobi_serial(8, 5);
        let (_, r2) = jacobi_serial(8, 50);
        assert!(r2 < r1, "residual should shrink: {r1} -> {r2}");
        // Heat flows in from the left: left column hotter than right.
        assert!(field[0] > field[7]);
    }

    #[test]
    fn parallel_matches_serial_bitwise_2x2() {
        let cfg = JacobiConfig {
            size: 12,
            grid: [2, 2],
            sweeps: 9,
            cores_per_node: 4,
        };
        let out = run_jacobi(&cfg);
        let (reference, ref_residual) = jacobi_serial(12, 9);
        assert_eq!(out.field, reference, "parallel field deviates from serial");
        assert_eq!(out.residual, ref_residual);
    }

    #[test]
    fn parallel_matches_serial_uneven_grid() {
        let cfg = JacobiConfig {
            size: 12,
            grid: [4, 2],
            sweeps: 7,
            cores_per_node: 4,
        };
        let out = run_jacobi(&cfg);
        let (reference, _) = jacobi_serial(12, 7);
        assert_eq!(out.field, reference);
    }

    #[test]
    fn single_rank_degenerate() {
        let cfg = JacobiConfig {
            size: 8,
            grid: [1, 1],
            sweeps: 4,
            cores_per_node: 2,
        };
        let out = run_jacobi(&cfg);
        let (reference, _) = jacobi_serial(8, 4);
        assert_eq!(out.field, reference);
    }

    #[test]
    fn halo_traffic_accounted_with_locality() {
        let cfg = JacobiConfig {
            size: 16,
            grid: [4, 1],
            sweeps: 3,
            cores_per_node: 2,
        };
        let out = run_jacobi(&cfg);
        let snap = &out.ledger;
        // 3 boundaries x 2 directions x 16 cells x 8 B x 3 sweeps, plus
        // collective traffic — split between shm and network by placement.
        let halo_total =
            snap.shm_bytes(TrafficClass::IntraApp) + snap.network_bytes(TrafficClass::IntraApp);
        assert!(halo_total >= 3 * 2 * 16 * 8 * 3, "halo bytes {halo_total}");
        assert!(snap.network_bytes(TrafficClass::IntraApp) > 0);
        assert!(snap.shm_bytes(TrafficClass::IntraApp) > 0);
    }
}
