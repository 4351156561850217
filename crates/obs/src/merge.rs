//! Cross-process trace merge: stitch per-process flight recordings
//! into one causal trace.
//!
//! Every process in a distributed run records events against its own
//! recorder — its own `Instant` epoch and its own 1-based sequence
//! numbers. The merge turns a set of such [`ProcessTrace`]s into a
//! single trace three steps at a time:
//!
//! 1. **Renumber**: each process's sequence numbers (and the `parent`
//!    references into them) are shifted by a per-process base so they
//!    stay unique and causal links stay intact; each event is tagged
//!    with its process lane (`pid = node + 1`).
//! 2. **Align**: per-process clocks are reconciled with a
//!    happens-before relaxation over matched `NetSend`/`NetRecv`
//!    pairs. A receive cannot start before its send finished, so each
//!    matched pair contributes the constraint
//!    `offset[recv] >= offset[send] + send.end - recv.start`; offsets
//!    start at zero and are relaxed for `P` rounds (Bellman-Ford over
//!    at most `P`-hop constraint chains). Offsets only grow, so no
//!    event moves before its own process's epoch.
//! 3. **Stitch**: the k-th send and k-th recv sharing a wire key
//!    `(src, dst, var, version, piece)` (each ordered by start time)
//!    are joined by setting `recv.parent = send.seq` — the
//!    cross-process edge that lets put → schedule → pull → get chains
//!    span process boundaries. Unmatched halves are counted, never
//!    invented.
//!
//! The merged event list feeds the existing single-process consumers
//! unchanged: [`crate::ProfileReport::analyze`] for the merged
//! critical-path profile and [`crate::chrome_trace_merged`] for the
//! merged chrome trace with per-process lanes.

use std::collections::BTreeMap;

use crate::event::{Event, EventKind};

/// One process's contribution to a merged trace.
#[derive(Clone, Debug)]
pub struct ProcessTrace {
    /// Node id of the process (joiner index).
    pub node: u32,
    /// The process's flight-recorder snapshot (local seqs and clock).
    pub events: Vec<Event>,
    /// Flight events the process dropped at its bounded log.
    pub dropped: u64,
    /// The process's metrics counters at snapshot time.
    pub counters: BTreeMap<String, u64>,
    /// False when telemetry shipping was cut short (frames lost,
    /// timeout): the trace may be partial and the merge says so.
    pub complete: bool,
}

/// The stitched, clock-aligned union of several [`ProcessTrace`]s.
#[derive(Clone, Debug, Default)]
pub struct MergeReport {
    /// All events, renumbered, aligned and sorted by `(start_us, seq)`.
    pub events: Vec<Event>,
    /// Number of processes merged.
    pub processes: u32,
    /// Sum of per-process dropped flight events.
    pub dropped: u64,
    /// Counters summed across processes by name.
    pub counters: BTreeMap<String, u64>,
    /// Nodes whose telemetry arrived incomplete (or not at all).
    pub incomplete: Vec<u32>,
    /// `NetSend` events on hops where *no* recv ever appeared (the
    /// other half of the wire hop is truly missing).
    pub unmatched_sends: u64,
    /// `NetRecv` events on hops where *no* send ever appeared.
    pub unmatched_recvs: u64,
    /// Surplus send/recv events on hops that did stitch: wire retries
    /// under load (a re-requested pull re-sends `PullData`; the late
    /// duplicate is discarded without a recv). Benign — the hop's
    /// causal edge exists — so these never warn.
    pub retried: u64,
    /// Cross-process edges created (recv.parent -> send.seq).
    pub stitched: u64,
    /// Per-process clock offsets applied, in input order (µs).
    pub offsets_us: Vec<u64>,
}

impl MergeReport {
    /// True when every wire hop found both halves and every process
    /// shipped a complete trace.
    pub fn fully_stitched(&self) -> bool {
        self.unmatched_sends == 0 && self.unmatched_recvs == 0 && self.incomplete.is_empty()
    }

    /// Human-readable degradation warnings (empty when the merge is
    /// complete and fully stitched).
    pub fn warnings(&self) -> Vec<String> {
        let mut out = Vec::new();
        if !self.incomplete.is_empty() {
            let nodes: Vec<String> = self.incomplete.iter().map(u32::to_string).collect();
            out.push(format!(
                "telemetry from node(s) {} is incomplete; the merged trace degrades to the \
                 processes that reported",
                nodes.join(", ")
            ));
        }
        if self.unmatched_sends > 0 || self.unmatched_recvs > 0 {
            out.push(format!(
                "{} wire send(s) and {} wire recv(s) found no cross-process match; their \
                 causal chains stay process-local",
                self.unmatched_sends, self.unmatched_recvs
            ));
        }
        if self.dropped > 0 {
            out.push(format!(
                "{} flight event(s) dropped across processes; the merged profile is partial",
                self.dropped
            ));
        }
        out
    }
}

/// Merge per-process traces into one causal trace (see module docs for
/// the renumber / align / stitch pipeline). Input order does not matter
/// — traces are sorted by node id first, so the merge is deterministic.
pub fn merge_traces(mut traces: Vec<ProcessTrace>) -> MergeReport {
    traces.sort_by_key(|t| t.node);

    let mut report = MergeReport {
        processes: traces.len() as u32,
        ..MergeReport::default()
    };

    // Step 1: renumber seqs/parents into one space, tag process lanes.
    let mut base = 0u64;
    let mut per_proc: Vec<Vec<Event>> = Vec::with_capacity(traces.len());
    for trace in &traces {
        let max_seq = trace.events.iter().map(|e| e.seq).max().unwrap_or(0);
        let pid = trace.node + 1;
        per_proc.push(
            trace
                .events
                .iter()
                .map(|e| {
                    let mut e = e.clone();
                    e.seq += base;
                    e.parent = e.parent.map(|p| p + base);
                    e.pid = pid;
                    e
                })
                .collect(),
        );
        base += max_seq;
        report.dropped += trace.dropped;
        for (name, value) in &trace.counters {
            *report.counters.entry(name.clone()).or_insert(0) += value;
        }
        if !trace.complete {
            report.incomplete.push(trace.node);
        }
    }

    // Pair wire hops by key: k-th send to k-th recv, ordered by local
    // start time. All sends for a key come from one process (the
    // owner), all recvs from another, so local ordering is sound even
    // before clocks are aligned.
    #[derive(Default)]
    struct Hop {
        /// (process index, position in per_proc[idx])
        sends: Vec<(usize, usize)>,
        recvs: Vec<(usize, usize)>,
    }
    let mut hops: BTreeMap<(u32, u32, u64, u64, u64), Hop> = BTreeMap::new();
    for (pi, events) in per_proc.iter().enumerate() {
        for (ei, e) in events.iter().enumerate() {
            let Some(key) = e.wire_key() else { continue };
            let hop = hops.entry(key).or_default();
            match e.kind {
                EventKind::NetSend => hop.sends.push((pi, ei)),
                EventKind::NetRecv => hop.recvs.push((pi, ei)),
                _ => unreachable!("wire_key is only Some for NetSend/NetRecv"),
            }
        }
    }
    let mut pairs: Vec<((usize, usize), (usize, usize))> = Vec::new();
    for hop in hops.values_mut() {
        hop.sends
            .sort_by_key(|&(pi, ei)| (per_proc[pi][ei].start_us, per_proc[pi][ei].seq));
        hop.recvs
            .sort_by_key(|&(pi, ei)| (per_proc[pi][ei].start_us, per_proc[pi][ei].seq));
        let matched = hop.sends.len().min(hop.recvs.len());
        let surplus = (hop.sends.len() + hop.recvs.len() - 2 * matched) as u64;
        if matched > 0 {
            // The hop stitched; leftovers are retry duplicates, not a
            // missing half of the wire hop.
            report.retried += surplus;
        } else {
            report.unmatched_sends += hop.sends.len() as u64;
            report.unmatched_recvs += hop.recvs.len() as u64;
        }
        pairs.extend(hop.sends.iter().copied().zip(hop.recvs.iter().copied()));
    }

    // Step 2: happens-before clock alignment. offset[r] must be at
    // least offset[s] + send.end - recv.start for every matched pair;
    // relax for P rounds so constraint chains up to P hops propagate.
    let mut offsets = vec![0i64; per_proc.len()];
    for _ in 0..per_proc.len() {
        let mut changed = false;
        for &((spi, sei), (rpi, rei)) in &pairs {
            if spi == rpi {
                continue;
            }
            let send_end = per_proc[spi][sei].end_us() as i64;
            let recv_start = per_proc[rpi][rei].start_us as i64;
            let need = offsets[spi] + send_end - recv_start;
            if need > offsets[rpi] {
                offsets[rpi] = need;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    report.offsets_us = offsets.iter().map(|&o| o.max(0) as u64).collect();
    for (pi, events) in per_proc.iter_mut().enumerate() {
        let off = report.offsets_us[pi];
        for e in events {
            e.start_us += off;
        }
    }

    // Step 3: stitch — the recv's causal parent becomes the send.
    for &((spi, sei), (rpi, rei)) in &pairs {
        let send_seq = per_proc[spi][sei].seq;
        per_proc[rpi][rei].parent = Some(send_seq);
        report.stitched += 1;
    }

    report.events = per_proc.into_iter().flatten().collect();
    report.events.sort_by_key(|e| (e.start_us, e.seq));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LinkClass;

    fn trace(node: u32, events: Vec<Event>) -> ProcessTrace {
        ProcessTrace {
            node,
            events,
            dropped: 0,
            counters: BTreeMap::new(),
            complete: true,
        }
    }

    /// Producer process 0 puts and sends; consumer process 1 receives,
    /// pulls and gets. The wire hop crosses the process boundary.
    fn coupled_pair() -> Vec<ProcessTrace> {
        let producer = vec![
            Event::new(1, EventKind::Put { indexed: false })
                .var(7)
                .version(1)
                .src(2)
                .piece(5)
                .window(0, 100),
            Event::new(2, EventKind::NetSend)
                .var(7)
                .version(1)
                .src(2)
                .dst(6)
                .piece(5)
                .bytes(512)
                .window(100, 40),
        ];
        // The consumer's clock reads earlier than the producer's: its
        // recv "starts" at 20µs local, before the send even began.
        let consumer = vec![
            Event::new(1, EventKind::Get { cont: true })
                .var(7)
                .version(1)
                .dst(6)
                .window(0, 400),
            Event::new(2, EventKind::NetRecv)
                .var(7)
                .version(1)
                .src(2)
                .dst(6)
                .piece(5)
                .bytes(512)
                .window(20, 30),
            Event::new(3, EventKind::Pull { wait_us: 10 })
                .parent(1)
                .var(7)
                .version(1)
                .src(2)
                .dst(6)
                .piece(5)
                .link(LinkClass::Rdma)
                .window(60, 80),
        ];
        vec![trace(0, producer), trace(1, consumer)]
    }

    #[test]
    fn merge_renumbers_and_stitches() {
        let report = merge_traces(coupled_pair());
        assert_eq!(report.processes, 2);
        assert_eq!(report.stitched, 1);
        assert_eq!(report.unmatched_sends, 0);
        assert_eq!(report.unmatched_recvs, 0);
        assert!(report.fully_stitched());
        assert!(report.warnings().is_empty());

        // Seqs are unique, consumer events renumbered past producer's.
        let mut seqs: Vec<u64> = report.events.iter().map(|e| e.seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), report.events.len());

        // The recv's parent is the producer's send.
        let send = report
            .events
            .iter()
            .find(|e| e.kind == EventKind::NetSend)
            .unwrap();
        let recv = report
            .events
            .iter()
            .find(|e| e.kind == EventKind::NetRecv)
            .unwrap();
        assert_eq!(recv.parent, Some(send.seq));
        assert_eq!(send.pid, 1);
        assert_eq!(recv.pid, 2);

        // The consumer's intra-process parent still resolves after
        // renumbering: pull.parent == get.seq.
        let get = report
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Get { .. }))
            .unwrap();
        let pull = report
            .events
            .iter()
            .find(|e| matches!(e.kind, EventKind::Pull { .. }))
            .unwrap();
        assert_eq!(pull.parent, Some(get.seq));
    }

    #[test]
    fn merge_aligns_clocks_by_happens_before() {
        let report = merge_traces(coupled_pair());
        // Producer is the reference; consumer must shift so its recv
        // (local start 20) does not precede the send's end (140).
        assert_eq!(report.offsets_us, vec![0, 120]);
        let send = report
            .events
            .iter()
            .find(|e| e.kind == EventKind::NetSend)
            .unwrap();
        let recv = report
            .events
            .iter()
            .find(|e| e.kind == EventKind::NetRecv)
            .unwrap();
        assert!(recv.start_us >= send.end_us());
    }

    #[test]
    fn unmatched_halves_are_counted_not_invented() {
        let mut traces = coupled_pair();
        // Drop the consumer's recv: the send has no partner.
        traces[1].events.retain(|e| e.kind != EventKind::NetRecv);
        let report = merge_traces(traces);
        assert_eq!(report.stitched, 0);
        assert_eq!(report.unmatched_sends, 1);
        assert_eq!(report.unmatched_recvs, 0);
        assert!(!report.fully_stitched());
        assert!(report
            .warnings()
            .iter()
            .any(|w| w.contains("no cross-process match")));
    }

    #[test]
    fn retried_send_on_a_stitched_hop_is_benign() {
        let mut traces = coupled_pair();
        // A re-requested pull re-sends `PullData`: the owner records a
        // second send with the same wire identity, the late duplicate
        // is discarded by the consumer without a recv.
        let retry = Event::new(3, EventKind::NetSend)
            .var(7)
            .version(1)
            .src(2)
            .dst(6)
            .piece(5)
            .bytes(512)
            .window(200, 40);
        traces[0].events.push(retry);
        let report = merge_traces(traces);
        // The hop stitched (first send, by local start order, pairs
        // with the recv); the surplus send counts as a retry, never as
        // degradation.
        assert_eq!(report.stitched, 1);
        assert_eq!(report.retried, 1);
        assert_eq!(report.unmatched_sends, 0);
        assert_eq!(report.unmatched_recvs, 0);
        assert!(report.fully_stitched());
        assert!(report.warnings().is_empty(), "{:?}", report.warnings());
    }

    #[test]
    fn incomplete_and_counters_aggregate() {
        let mut traces = coupled_pair();
        traces[0].counters.insert("net.bytes_sent".into(), 512);
        traces[1].counters.insert("net.bytes_sent".into(), 40);
        traces[1].dropped = 2;
        traces[1].complete = false;
        let report = merge_traces(traces);
        assert_eq!(report.counters.get("net.bytes_sent"), Some(&552));
        assert_eq!(report.dropped, 2);
        assert_eq!(report.incomplete, vec![1]);
        let warnings = report.warnings();
        assert!(warnings.iter().any(|w| w.contains("incomplete")));
        // One buffer, one drop tally: flight events, never spans.
        assert!(warnings.iter().any(|w| w.contains("2 flight event(s)")));
        assert!(!warnings.iter().any(|w| w.contains("span")));
    }

    #[test]
    fn merge_is_input_order_independent() {
        let forward = merge_traces(coupled_pair());
        let mut reversed_in = coupled_pair();
        reversed_in.reverse();
        let reversed = merge_traces(reversed_in);
        assert_eq!(forward.events.len(), reversed.events.len());
        assert_eq!(forward.offsets_us, reversed.offsets_us);
        for (a, b) in forward.events.iter().zip(&reversed.events) {
            assert_eq!(a.seq, b.seq);
            assert_eq!(a.start_us, b.start_us);
            assert_eq!(a.parent, b.parent);
        }
    }
}
