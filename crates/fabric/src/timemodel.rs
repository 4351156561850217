//! Analytic transfer-time model.
//!
//! We do not have a Cray to measure on, so retrieve times (Figs. 11 and
//! 16) come from an explicit cost model over the *measured* transfer sets:
//! per-message latency, bandwidth serialization at the destination NIC,
//! per-source fan-out sharing at the source NIC, and contention on shared
//! torus links along dimension-ordered routes. The model's constants are
//! order-of-magnitude Jaguar-class values; the experiments only rely on
//! the *shape* it produces (shared memory ≪ network; contention grows
//! mildly with scale).

use crate::machine::NodeId;
use crate::torus::TorusTopology;
use std::collections::HashMap;

/// Bandwidth/latency constants of the simulated platform.
#[derive(Clone, Copy, Debug)]
pub struct NetworkModel {
    /// One-way network message latency, microseconds.
    pub net_latency_us: f64,
    /// Node injection/ejection (NIC) bandwidth, GB/s.
    pub nic_bandwidth_gbps: f64,
    /// Per torus link bandwidth, GB/s.
    pub link_bandwidth_gbps: f64,
    /// Shared-memory transfer startup latency, microseconds.
    pub shm_latency_us: f64,
    /// Shared-memory copy bandwidth, GB/s.
    pub shm_bandwidth_gbps: f64,
    /// Round-trip cost of one DHT span query, microseconds.
    pub dht_query_us: f64,
}

impl NetworkModel {
    /// Jaguar-class constants (SeaStar2+ era).
    pub fn jaguar() -> Self {
        NetworkModel {
            net_latency_us: 6.0,
            nic_bandwidth_gbps: 1.6,
            link_bandwidth_gbps: 3.0,
            shm_latency_us: 0.5,
            shm_bandwidth_gbps: 4.0,
            dht_query_us: 12.0,
        }
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::jaguar()
    }
}

/// One data pull: `bytes` fetched from `src_node` (the destination is the
/// owning [`ClientRetrieve`]'s node). The source piece is already staged
/// when the retrieve is issued.
#[derive(Clone, Copy, Debug)]
pub struct Transfer {
    /// Node the data is pulled from.
    pub src_node: NodeId,
    /// Payload size.
    pub bytes: u64,
}

impl Transfer {
    /// A pull of `bytes` from `src_node`.
    pub fn new(src_node: NodeId, bytes: u64) -> Self {
        Transfer { src_node, bytes }
    }
}

/// All pulls one execution client issues for a `get()`.
#[derive(Clone, Debug)]
pub struct ClientRetrieve {
    /// Node the pulling client runs on.
    pub dst_node: NodeId,
    /// The pulls (receiver-driven, issued in parallel).
    pub transfers: Vec<Transfer>,
    /// Number of DHT span queries needed to plan the pulls (0 when the
    /// communication schedule was cached).
    pub dht_queries: u32,
}

/// Per-link bandwidth degradation factors for fault modeling: a slowed
/// link divides its bandwidth by the given factor (≥ 1). Links not listed
/// run at full speed, so the default (empty) value models a healthy torus.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkFaults {
    slow: HashMap<(NodeId, u8, bool), f64>,
}

impl LinkFaults {
    /// Degrade one directed link's bandwidth by `factor` (clamped to
    /// ≥ 1). Repeated calls on the same link keep the worst factor.
    pub fn slow_link(&mut self, from: NodeId, dim: u8, plus: bool, factor: f64) {
        let f = factor.max(1.0);
        let e = self.slow.entry((from, dim, plus)).or_insert(1.0);
        *e = e.max(f);
    }

    /// The degradation factor of one directed link (1 when healthy).
    pub fn factor(&self, from: NodeId, dim: u8, plus: bool) -> f64 {
        self.slow.get(&(from, dim, plus)).copied().unwrap_or(1.0)
    }

    /// Whether no link is slowed.
    pub fn is_empty(&self) -> bool {
        self.slow.is_empty()
    }
}

/// Component times of one modeled retrieve, all in milliseconds. The
/// completion time composes as `query + max(shm, net)`: the client
/// copies local data itself while remote pulls proceed in parallel, so
/// only the slower branch is on the critical path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RetrieveBreakdown {
    /// DHT schedule-query time.
    pub query_ms: f64,
    /// Serialized shared-memory branch time: the copies end to end.
    pub shm_ms: f64,
    /// Network branch time: the slowest flow, or the destination NIC's
    /// serialization of all inbound bytes if that takes longer.
    pub net_ms: f64,
    /// Completion time: `query + max(shm, net)`.
    pub total_ms: f64,
}

/// Modeled timeline of one transfer inside its retrieve, microseconds
/// relative to the end of the schedule query. The receiver issues every
/// pull up front; `wait_us` is the idle span before this one's copy
/// begins (for shared memory, the earlier copies in the per-core chain;
/// a network flow starts at once) and `duration_us` the busy copy
/// itself. Concurrent transfers overlap, so the retrieve's branch time
/// is the max of slot ends, not their sum.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TransferSlot {
    /// Idle microseconds before this transfer's copy starts.
    pub wait_us: f64,
    /// Busy copy microseconds.
    pub duration_us: f64,
    /// Shared-memory (true) or network (false) transfer.
    pub shm: bool,
}

impl TransferSlot {
    /// When the transfer completes, relative to the branch start.
    pub fn end_us(&self) -> f64 {
        self.wait_us + self.duration_us
    }
}

/// Each client's retrieve, all clients starting simultaneously: its
/// component times — the paper's "time to retrieve coupled data" is the
/// per-application maximum of `total_ms` — and the per-transfer timeline
/// they compose from. Slots align one-to-one with the retrieve's
/// `transfers` (zero-byte entries get an all-zero slot).
///
/// Injected torus-link slowdowns divide each flow's effective bandwidth
/// by the worst [`LinkFaults::factor`] along its dimension-ordered route;
/// an empty `faults` is the healthy torus.
///
/// This is where the overlapped receiver-driven pull semantics live:
/// all pulls are issued together, shared-memory copies serialize on the
/// destination core in transfer order, network flows run concurrently
/// (each ending at `latency + bytes/eff_bw`, with the slowest stretched
/// to when the destination NIC drains), and the branch time is the max
/// of slot ends rather than their sum.
pub fn estimate_retrieves(
    model: &NetworkModel,
    topo: &TorusTopology,
    retrieves: &[ClientRetrieve],
    faults: &LinkFaults,
) -> Vec<(RetrieveBreakdown, Vec<TransferSlot>)> {
    // Pass 1: global contention state.
    let mut link_sharers: HashMap<(NodeId, u8, bool), u32> = HashMap::new();
    let mut src_outflows: HashMap<NodeId, u32> = HashMap::new();
    for r in retrieves {
        for t in &r.transfers {
            if t.src_node == r.dst_node || t.bytes == 0 {
                continue;
            }
            *src_outflows.entry(t.src_node).or_insert(0) += 1;
            for l in topo.route(t.src_node, r.dst_node) {
                *link_sharers.entry((l.from, l.dim, l.plus)).or_insert(0) += 1;
            }
        }
    }

    let gbps = |g: f64| g * 1e9; // bytes per second
    let to_us = 1e6; // seconds -> microseconds

    // Pass 2: per-client completion.
    retrieves
        .iter()
        .map(|r| {
            let mut slots = vec![TransferSlot::default(); r.transfers.len()];

            // Shared-memory copies serialize on the destination core, in
            // transfer order.
            let mut cursor = 0.0f64;
            for (i, t) in r.transfers.iter().enumerate() {
                if t.src_node != r.dst_node || t.bytes == 0 {
                    continue;
                }
                let dur =
                    model.shm_latency_us + t.bytes as f64 / gbps(model.shm_bandwidth_gbps) * to_us;
                slots[i] = TransferSlot {
                    wait_us: cursor,
                    duration_us: dur,
                    shm: true,
                };
                cursor += dur;
            }
            let shm_end = cursor;

            // Network flows run concurrently; the destination NIC
            // serializes inbound bytes from the start, and the slowest
            // flow is stretched to that drain time.
            let mut net_bytes = 0u64;
            let mut worst: Option<usize> = None;
            for (i, t) in r.transfers.iter().enumerate() {
                if t.src_node == r.dst_node || t.bytes == 0 {
                    continue;
                }
                net_bytes += t.bytes;
                // Slowest shared resource along the path. A link's cost
                // is its sharer count scaled by any injected slowdown
                // (factor 1 when healthy).
                let mut worst_link = 1.0f64;
                for l in topo.route(t.src_node, r.dst_node) {
                    let cost = link_sharers[&(l.from, l.dim, l.plus)] as f64
                        * faults.factor(l.from, l.dim, l.plus);
                    worst_link = worst_link.max(cost);
                }
                let src_n = src_outflows[&t.src_node].max(1);
                let eff_bw = (gbps(model.nic_bandwidth_gbps) / src_n as f64)
                    .min(gbps(model.link_bandwidth_gbps) / worst_link)
                    .min(gbps(model.nic_bandwidth_gbps));
                let dur = model.net_latency_us + t.bytes as f64 / eff_bw * to_us;
                slots[i] = TransferSlot {
                    wait_us: 0.0,
                    duration_us: dur,
                    shm: false,
                };
                if worst.is_none_or(|w| slots[i].end_us() > slots[w].end_us()) {
                    worst = Some(i);
                }
            }
            let net_end = if let Some(w) = worst {
                let nic_drain = net_bytes as f64 / gbps(model.nic_bandwidth_gbps) * to_us;
                let end = slots[w].end_us().max(nic_drain);
                slots[w].duration_us = end - slots[w].wait_us;
                end
            } else {
                0.0
            };

            let query_ms = r.dht_queries as f64 * model.dht_query_us * 1e-3;
            let shm_ms = shm_end * 1e-3;
            let net_ms = net_end * 1e-3;
            (
                RetrieveBreakdown {
                    query_ms,
                    shm_ms,
                    net_ms,
                    total_ms: query_ms + shm_ms.max(net_ms),
                },
                slots,
            )
        })
        .collect()
}

/// Parallel-filesystem constants for the *file-based coupling baseline* —
/// the Pegasus/Kepler-style data sharing the paper's Related Work
/// contrasts with CoDS ("data sharing between the different component
/// applications are usually performed by reading data files stored in the
/// distributed file systems").
#[derive(Clone, Copy, Debug)]
pub struct FilesystemModel {
    /// Aggregate parallel-filesystem bandwidth shared by all clients, GB/s.
    pub aggregate_bandwidth_gbps: f64,
    /// Metadata/open/close latency per file operation, milliseconds.
    pub op_latency_ms: f64,
    /// Metadata operations the filesystem can service concurrently.
    pub metadata_concurrency: u32,
}

impl FilesystemModel {
    /// Jaguar-era Spider/Lustre-class constants (center-wide filesystem,
    /// shared by the whole machine — a single job sees a slice).
    pub fn jaguar_spider() -> Self {
        FilesystemModel {
            aggregate_bandwidth_gbps: 60.0,
            op_latency_ms: 5.0,
            metadata_concurrency: 64,
        }
    }
}

impl Default for FilesystemModel {
    fn default() -> Self {
        Self::jaguar_spider()
    }
}

/// Time (ms) for one file-based coupling round: every producer writes its
/// output file, then every consumer reads what it needs. Both phases are
/// bandwidth-shared across the aggregate filesystem and pay metadata
/// latency serialized over the metadata servers. `read_bytes` may exceed
/// `write_bytes` when several consumers read the same data (the paper's
/// SAP2+SAP3 scenario reads everything twice).
pub fn estimate_file_coupling_time(
    fs: &FilesystemModel,
    write_bytes: u64,
    writer_files: u32,
    read_bytes: u64,
    reader_files: u32,
) -> f64 {
    let bw = fs.aggregate_bandwidth_gbps * 1e9;
    let md =
        |files: u32| fs.op_latency_ms * (files.div_ceil(fs.metadata_concurrency.max(1))) as f64;
    let write_ms = md(writer_files) + write_bytes as f64 / bw * 1e3;
    let read_ms = md(reader_files) + read_bytes as f64 / bw * 1e3;
    write_ms + read_ms
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> TorusTopology {
        TorusTopology::new([4, 4, 4])
    }

    /// Each retrieve's completion time under `faults`.
    fn totals(
        m: &NetworkModel,
        t: &TorusTopology,
        retrieves: &[ClientRetrieve],
        faults: &LinkFaults,
    ) -> Vec<f64> {
        estimate_retrieves(m, t, retrieves, faults)
            .into_iter()
            .map(|(b, _)| b.total_ms)
            .collect()
    }

    #[test]
    fn file_coupling_scales_with_bytes_and_files() {
        let fs = FilesystemModel::jaguar_spider();
        let small = estimate_file_coupling_time(&fs, 1 << 30, 512, 1 << 30, 64);
        let big = estimate_file_coupling_time(&fs, 8 << 30, 512, 8 << 30, 64);
        assert!(big > small * 4.0);
        // More files -> more metadata time at equal bytes.
        let few = estimate_file_coupling_time(&fs, 1 << 30, 64, 1 << 30, 64);
        let many = estimate_file_coupling_time(&fs, 1 << 30, 8192, 1 << 30, 64);
        assert!(many > few);
    }

    #[test]
    fn file_coupling_far_slower_than_memory_for_paper_config() {
        // The paper's Related Work claim, quantified: 8 GiB coupled data
        // through the filesystem vs the in-memory path.
        let fs = FilesystemModel::jaguar_spider();
        let file_ms = estimate_file_coupling_time(&fs, 8 << 30, 512, 8 << 30, 64);
        // In-memory, in-situ mix (the data-centric mapping's ~80% local
        // fraction): 64 consumers each pull 128 MiB, 80% from their own
        // node and the rest over the network.
        let m = NetworkModel::jaguar();
        let t = TorusTopology::cubic_for(48);
        let retrieves: Vec<ClientRetrieve> = (0..64u32)
            .map(|i| ClientRetrieve {
                dst_node: i % 48,
                transfers: vec![
                    Transfer::new(i % 48, 102 << 20),
                    Transfer::new((i + 7) % 48, 26 << 20),
                ],
                dht_queries: 2,
            })
            .collect();
        let mem_ms = totals(&m, &t, &retrieves, &LinkFaults::default())
            .into_iter()
            .fold(0.0f64, f64::max);
        assert!(
            file_ms > 2.0 * mem_ms,
            "file {file_ms:.0} ms should dwarf memory {mem_ms:.0} ms"
        );
    }

    #[test]
    fn shared_memory_beats_network() {
        let m = NetworkModel::jaguar();
        let t = topo();
        let shm = ClientRetrieve {
            dst_node: 0,
            transfers: vec![Transfer::new(0, 16 << 20)],
            dht_queries: 0,
        };
        let net = ClientRetrieve {
            dst_node: 0,
            transfers: vec![Transfer::new(5, 16 << 20)],
            dht_queries: 0,
        };
        let times = totals(&m, &t, &[shm, net], &LinkFaults::default());
        assert!(times[0] < times[1], "shm {} vs net {}", times[0], times[1]);
    }

    #[test]
    fn empty_retrieve_costs_only_queries() {
        let m = NetworkModel::jaguar();
        let times = totals(
            &m,
            &topo(),
            &[ClientRetrieve {
                dst_node: 0,
                transfers: vec![],
                dht_queries: 4,
            }],
            &LinkFaults::default(),
        );
        let expect = 4.0 * m.dht_query_us * 1e-6 * 1e3;
        assert!((times[0] - expect).abs() < 1e-12);
    }

    #[test]
    fn contention_slows_shared_links() {
        let m = NetworkModel::jaguar();
        let t = TorusTopology::new([8, 1, 1]);
        // One flow 0 -> 4.
        let solo = vec![ClientRetrieve {
            dst_node: 4,
            transfers: vec![Transfer::new(0, 64 << 20)],
            dht_queries: 0,
        }];
        // Eight flows all crossing the same ring segment.
        let crowded: Vec<ClientRetrieve> = (0..8)
            .map(|_| ClientRetrieve {
                dst_node: 4,
                transfers: vec![Transfer::new(0, 64 << 20)],
                dht_queries: 0,
            })
            .collect();
        let t_solo = totals(&m, &t, &solo, &LinkFaults::default())[0];
        let t_crowd = totals(&m, &t, &crowded, &LinkFaults::default())[0];
        assert!(t_crowd > t_solo * 2.0, "solo {t_solo} crowd {t_crowd}");
    }

    #[test]
    fn fanout_at_source_slows_flows() {
        let m = NetworkModel::jaguar();
        let t = topo();
        // One source serving 4 different destinations: each flow slower
        // than a dedicated source.
        let dedicated = vec![ClientRetrieve {
            dst_node: 1,
            transfers: vec![Transfer::new(0, 32 << 20)],
            dht_queries: 0,
        }];
        let fanout: Vec<ClientRetrieve> = [1u32, 2, 3, 5]
            .iter()
            .map(|&d| ClientRetrieve {
                dst_node: d,
                transfers: vec![Transfer::new(0, 32 << 20)],
                dht_queries: 0,
            })
            .collect();
        let td = totals(&m, &t, &dedicated, &LinkFaults::default())[0];
        let tf = totals(&m, &t, &fanout, &LinkFaults::default())[0];
        assert!(tf > td * 1.5, "dedicated {td} fanout {tf}");
    }

    #[test]
    fn bigger_transfers_take_longer() {
        let m = NetworkModel::jaguar();
        let t = topo();
        let mk = |bytes| ClientRetrieve {
            dst_node: 2,
            transfers: vec![Transfer::new(7, bytes)],
            dht_queries: 1,
        };
        let a = totals(&m, &t, &[mk(1 << 20)], &LinkFaults::default())[0];
        let b = totals(&m, &t, &[mk(64 << 20)], &LinkFaults::default())[0];
        assert!(b > a * 10.0);
    }

    #[test]
    fn link_fault_slows_only_affected_routes() {
        let m = NetworkModel::jaguar();
        let t = TorusTopology::new([8, 1, 1]);
        let mk = |src: u32, dst: u32| ClientRetrieve {
            dst_node: dst,
            transfers: vec![Transfer::new(src, 64 << 20)],
            dht_queries: 0,
        };
        let retrieves = vec![mk(0, 2), mk(5, 6)];
        let healthy = totals(&m, &t, &retrieves, &LinkFaults::default());
        // Slow the 0->1 hop: only the first flow routes through it.
        let mut faults = LinkFaults::default();
        faults.slow_link(0, 0, true, 8.0);
        assert_eq!(faults.factor(0, 0, true), 8.0);
        let faulted = totals(&m, &t, &retrieves, &faults);
        assert!(
            faulted[0] > healthy[0] * 2.0,
            "{} vs {}",
            faulted[0],
            healthy[0]
        );
        assert_eq!(faulted[1], healthy[1]);
    }

    #[test]
    fn empty_link_faults_match_healthy_estimate_exactly() {
        let m = NetworkModel::jaguar();
        let t = TorusTopology::cubic_for(12);
        let retrieves: Vec<ClientRetrieve> = (0..10u32)
            .map(|i| ClientRetrieve {
                dst_node: i % 12,
                transfers: vec![Transfer::new((i + 5) % 12, (i as u64 + 1) << 20)],
                dht_queries: i,
            })
            .collect();
        // Every link the flows cross, listed at factor 1, is no fault.
        let mut listed = LinkFaults::default();
        for r in &retrieves {
            for l in t.route(r.transfers[0].src_node, r.dst_node) {
                listed.slow_link(l.from, l.dim, l.plus, 1.0);
            }
        }
        assert!(!listed.is_empty());
        assert_eq!(
            totals(&m, &t, &retrieves, &LinkFaults::default()),
            totals(&m, &t, &retrieves, &listed)
        );
    }

    #[test]
    fn breakdown_components_compose_to_total() {
        let m = NetworkModel::jaguar();
        let t = topo();
        let retrieves = vec![ClientRetrieve {
            dst_node: 0,
            transfers: vec![
                Transfer::new(0, 8 << 20),
                Transfer::new(5, 16 << 20),
                Transfer::new(3, 4 << 20),
                Transfer::new(6, 4 << 20),
            ],
            dht_queries: 3,
        }];
        let (b, slots) = &estimate_retrieves(&m, &t, &retrieves, &LinkFaults::default())[0];
        assert!(b.query_ms > 0.0 && b.shm_ms > 0.0 && b.net_ms > 0.0);
        assert_eq!(b.total_ms, b.query_ms + b.shm_ms.max(b.net_ms));
        // One slot per transfer.
        assert_eq!(slots.len(), retrieves[0].transfers.len());
        // The network flows start together and overlap: the branch ends
        // with the last flow, not after their durations end to end.
        let net: Vec<&TransferSlot> = slots.iter().filter(|s| !s.shm).collect();
        assert_eq!(net.len(), 3);
        assert!(net.iter().all(|s| s.wait_us == 0.0));
        let last_end = net.iter().map(|s| s.end_us()).fold(0.0, f64::max);
        let serialized: f64 = net.iter().map(|s| s.duration_us).sum();
        assert_eq!(b.net_ms, last_end * 1e-3);
        assert!(last_end < serialized, "max {last_end} vs sum {serialized}");
    }

    #[test]
    fn zero_byte_transfers_ignored() {
        let m = NetworkModel::jaguar();
        let times = totals(
            &m,
            &topo(),
            &[ClientRetrieve {
                dst_node: 0,
                transfers: vec![Transfer::new(3, 0)],
                dht_queries: 0,
            }],
            &LinkFaults::default(),
        );
        assert_eq!(times[0], 0.0);
    }
}
