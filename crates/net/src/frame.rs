//! The length-prefixed binary frame codec.
//!
//! Every frame on the wire is
//!
//! ```text
//! [u32 len (LE)] [u8 version] [u8 kind] [payload ...]
//! ```
//!
//! where `len` counts everything after the length word (so `len ==
//! 2 + payload.len()`). Integers are little-endian; strings are UTF-8
//! with a `u32` byte-length prefix; byte and `u64` vectors carry a `u32`
//! element-count prefix. Decoding is total: malformed input of any shape
//! — truncated payloads, oversized length words, unknown versions or
//! kinds, trailing garbage — returns a [`FrameError`], never panics, so
//! a confused or hostile peer cannot take the process down.

use insitu_fabric::{LedgerSnapshot, Locality, TrafficClass};
use insitu_obs::{Event, EventKind, LinkClass};
use std::io::{Read, Write};

/// Protocol revision; bumped on any incompatible codec change.
/// Version 2 added the service RPC frames and `Welcome::run_epoch`;
/// version 3 added `Hello::peer_addr` and `Welcome::peers` for the
/// direct node↔node data plane; version 4 added the telemetry plane
/// (`Telemetry`/`TelemetryAck`), live run streaming (`Watch`/
/// `Progress`) and the `RunSummary` link-health fields; version 5
/// added the intra-host shared-memory data plane (`Hello::host`,
/// `Welcome::hosts`, `ShmOffer`/`ShmAck`/`ShmDoorbell`); version 6
/// added the standing-query plane (`Subscribe`/`SubAck`/`SubPush`/
/// `SubCancel`/`SubLagged`).
pub const WIRE_VERSION: u8 = 6;

/// Upper bound on `len`: rejects absurd length words before any
/// allocation happens (a 256 MiB frame comfortably fits the largest
/// paper-scale piece).
pub const MAX_FRAME_LEN: u32 = 256 << 20;

/// Decode (and stream-read) failures. Every variant is a rejection — the
/// codec never panics on wire input.
#[derive(Clone, Debug, PartialEq)]
pub enum FrameError {
    /// The stream ended or the payload is shorter than its fields claim.
    Truncated,
    /// The length word exceeds [`MAX_FRAME_LEN`] (or is too short to hold
    /// the version and kind bytes).
    BadLength(u32),
    /// Unknown protocol revision.
    BadVersion(u8),
    /// Unknown frame kind byte.
    BadKind(u8),
    /// Structurally invalid payload (bad UTF-8, bad enum index, trailing
    /// bytes, ...).
    BadPayload(&'static str),
    /// Underlying stream error while reading or writing a frame.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "truncated frame"),
            FrameError::BadLength(n) => write!(f, "bad frame length {n}"),
            FrameError::BadVersion(v) => {
                write!(f, "unsupported wire version {v} (expected {WIRE_VERSION})")
            }
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::BadPayload(why) => write!(f, "bad frame payload: {why}"),
            FrameError::Io(e) => write!(f, "frame i/o: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One execution client's end-of-run report: its ledger snapshot plus
/// the outcome fields the server folds into the merged
/// `DistribOutcome`.
#[derive(Clone, Debug, PartialEq)]
pub struct NodeReport {
    /// Reporting node.
    pub node: u32,
    /// The node process's complete transfer ledger.
    pub ledger: LedgerSnapshot,
    /// Value-verification failures observed by consumer tasks.
    pub verify_failures: u64,
    /// Buffers owned by this node's clients still registered at the end.
    pub staged: u64,
    /// Completed `get` operations.
    pub gets: u64,
    /// Task errors, rendered to strings (sorted by the sender).
    pub errors: Vec<String>,
}

/// Lifecycle state of one service run, as carried on the wire.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RunState {
    /// Accepted, waiting for admission (max-runs or pool capacity).
    Queued,
    /// Executing on the joiner pool.
    Running,
    /// Completed successfully; artifacts are available.
    Done,
    /// Ended with an error; `detail` names it.
    Failed,
    /// Cancelled while queued or mid-flight.
    Cancelled,
}

impl RunState {
    /// All states, in wire order.
    pub const ALL: [RunState; 5] = [
        RunState::Queued,
        RunState::Running,
        RunState::Done,
        RunState::Failed,
        RunState::Cancelled,
    ];

    /// Wire byte for this state.
    pub fn idx(self) -> u8 {
        match self {
            RunState::Queued => 0,
            RunState::Running => 1,
            RunState::Done => 2,
            RunState::Failed => 3,
            RunState::Cancelled => 4,
        }
    }

    /// Decode a wire byte; `None` on unknown values.
    pub fn from_idx(idx: u8) -> Option<RunState> {
        RunState::ALL.get(idx as usize).copied()
    }

    /// Whether the run can no longer change state.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            RunState::Done | RunState::Failed | RunState::Cancelled
        )
    }

    /// Lower-case slug used by the CLI and JSON artifacts.
    pub fn slug(self) -> &'static str {
        match self {
            RunState::Queued => "queued",
            RunState::Running => "running",
            RunState::Done => "done",
            RunState::Failed => "failed",
            RunState::Cancelled => "cancelled",
        }
    }
}

impl std::fmt::Display for RunState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.slug())
    }
}

/// One run's summary row, carried by [`Frame::RunStatus`] and
/// [`Frame::RunList`].
#[derive(Clone, Debug, PartialEq)]
pub struct RunSummary {
    /// Service-assigned run id.
    pub run: u64,
    /// Submitter-chosen display name.
    pub name: String,
    /// Current lifecycle state.
    pub state: RunState,
    /// Simulated nodes the run occupies while running.
    pub nodes: u32,
    /// Human-readable detail (failure reason, queue position, ...).
    pub detail: String,
    /// Link-stall episodes the service watchdog counted for this run
    /// (mirrors the `net.link_stalls` counter).
    pub link_stalls: u64,
    /// Structured health events the watchdog recorded, oldest first
    /// (e.g. `"link-stall: no pull progress for 2000ms"`).
    pub health: Vec<String>,
}

/// A protocol message.
///
/// Control-plane frames are never offered to fault injection: the
/// management plane is reliable, as in the paper. [`Frame::PullData`]
/// is the data plane and carries the `net.send`/`net.recv` chaos fault
/// sites; [`Frame::Telemetry`] is the observability plane and carries
/// its own droppable `net-telemetry` site — losing a telemetry batch
/// degrades the merged trace, never the run.
#[derive(Clone, Debug, PartialEq)]
pub enum Frame {
    /// Joiner → server: first frame on a connection; registers the
    /// process as the host of simulated node `node`.
    Hello {
        /// Node this process hosts.
        node: u32,
        /// Address (`ip:port`) where this process accepts direct
        /// node↔node data-plane connections; empty when the joiner has
        /// no peer listener (star-only transport).
        peer_addr: String,
        /// Host fingerprint (boot id) for same-host detection; two
        /// processes with equal non-empty fingerprints may exchange
        /// PullData over shared memory. Empty = shm opted out
        /// (`--no-shm`) or unavailable on this platform.
        host: String,
    },
    /// Server → joiner: registration accepted; carries everything the
    /// joiner needs to deterministically rebuild the scenario replica.
    Welcome {
        /// Total nodes (= joiner processes) in the run.
        nodes: u32,
        /// Mapping-strategy slug (`data-centric`, `round-robin`, ...).
        strategy: String,
        /// Get timeout every replica must use, in milliseconds.
        get_timeout_ms: u64,
        /// The workflow DAG description text.
        dag: String,
        /// The workload configuration text.
        config: String,
        /// Run epoch salting the DataSpace/BufferRegistry/DHT key space
        /// so concurrent runs over one pool cannot collide (0 = no
        /// salting; standalone `serve` runs use 0).
        run_epoch: u64,
        /// Peer data-plane addresses indexed by node, as advertised in
        /// each joiner's `Hello`. Empty = star topology (all PullData
        /// routed through the hub); length `nodes` = reactor/p2p mode
        /// (PullData flows node↔node, the hub carries control only).
        peers: Vec<String>,
        /// Host fingerprints indexed by node, as advertised in each
        /// joiner's `Hello`. A pair of nodes with equal non-empty
        /// fingerprints is same-host: the producer may offer a
        /// shared-memory segment for its PullData. Empty = shm
        /// disabled run-wide.
        hosts: Vec<String>,
    },
    /// A mailbox message for a client hosted elsewhere (task dispatch
    /// from the server, halo exchange between joiners). Routed by the
    /// server; already accounted by the sender.
    Relay {
        /// Destination client.
        to: u32,
        /// Source client.
        src: u32,
        /// Message tag.
        tag: u64,
        /// Message payload.
        payload: Vec<u8>,
    },
    /// Joiner → server: a buffer was registered locally (put-notify).
    /// Informational: pull routing is by the owner packed in the key.
    PutNotify {
        /// Buffer name hash.
        name: u64,
        /// Version.
        version: u64,
        /// Piece id with the owner client in the upper 32 bits.
        piece: u64,
        /// Owning client.
        owner: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// Consumer joiner → server → owner joiner: request one buffer.
    PullRequest {
        /// Buffer name hash.
        name: u64,
        /// Version.
        version: u64,
        /// Piece id with the owner client in the upper 32 bits.
        piece: u64,
        /// Node of the requesting process (reply routing).
        from_node: u32,
    },
    /// Owner joiner → server → consumer joiner: the requested bytes.
    /// The only data-plane frame; `net.send`/`net.recv` fault sites
    /// apply to it.
    PullData {
        /// Buffer name hash.
        name: u64,
        /// Version.
        version: u64,
        /// Piece id with the owner client in the upper 32 bits.
        piece: u64,
        /// Owning client (becomes the registered handle's owner).
        owner: u32,
        /// Node of the requesting process.
        to_node: u32,
        /// The staged bytes.
        data: Vec<u8>,
    },
    /// Owner joiner → server → consumer joiner: the buffer never
    /// appeared before the owner's timeout; the consumer's own wait
    /// will surface the pull timeout.
    PullNack {
        /// Buffer name hash.
        name: u64,
        /// Version.
        version: u64,
        /// Piece id with the owner client in the upper 32 bits.
        piece: u64,
        /// Node of the requesting process.
        to_node: u32,
    },
    /// Joiner → server → all other joiners: mirror of a local DHT
    /// insert, so every replica answers location queries identically.
    DhtInsert {
        /// Variable name hash.
        var: u64,
        /// Version.
        version: u64,
        /// Owning client.
        owner: u32,
        /// Piece id (unpacked).
        piece: u64,
        /// Bounding-box lower corner.
        lbs: Vec<u64>,
        /// Bounding-box upper corner.
        ubs: Vec<u64>,
    },
    /// Joiner → server → all other joiners: a `get` of `(var, version)`
    /// completed (version-consumption bookkeeping for producers).
    GetDone {
        /// Variable name hash.
        var: u64,
        /// Version.
        version: u64,
    },
    /// Joiner → server → all other joiners: versions of `var` up to and
    /// including `version` were evicted.
    Evict {
        /// Variable name hash.
        var: u64,
        /// Highest evicted version.
        version: u64,
    },
    /// Server → joiners: all of wave `wave`'s dispatch relays precede
    /// this frame on each connection; start executing local tasks.
    RunWave {
        /// Wave index.
        wave: u32,
    },
    /// Joiner → server: all local tasks of `wave` finished and their
    /// mirror frames precede this frame on the connection.
    Barrier {
        /// Wave index.
        wave: u32,
        /// Reporting node.
        node: u32,
    },
    /// Joiner → server: final per-process outcome.
    Report(NodeReport),
    /// Server → joiners: the run is over; close down.
    Shutdown {
        /// Whether the run completed successfully.
        ok: bool,
        /// Human-readable reason (empty on success).
        reason: String,
    },
    /// Client → service: enqueue a new workflow run.
    Submit {
        /// Display name for status listings.
        name: String,
        /// The workflow DAG description text.
        dag: String,
        /// The workload configuration text.
        config: String,
        /// Mapping-strategy slug.
        strategy: String,
        /// Get timeout the run's replicas must use, in milliseconds.
        get_timeout_ms: u64,
        /// Admission priority: a higher value is queued ahead of every
        /// lower one, first-come-first-served within a level. 0 (the
        /// default) is plain FIFO.
        priority: u32,
    },
    /// Service → client: the run was accepted and queued.
    Submitted {
        /// Assigned run id.
        run: u64,
        /// Runs ahead of this one in the admission queue.
        queued_ahead: u32,
    },
    /// Client → service: cancel a queued or running run.
    Cancel {
        /// Run to cancel.
        run: u64,
    },
    /// Client → service: ask for one run's summary.
    Status {
        /// Run to describe.
        run: u64,
    },
    /// Client → service: ask for every run's summary.
    ListRuns,
    /// Service → client: one run's summary (answer to `Status` and
    /// `Cancel`).
    RunStatus(RunSummary),
    /// Service → client: all runs (answer to `ListRuns`).
    RunList {
        /// Every run the service knows, in submission order.
        runs: Vec<RunSummary>,
    },
    /// Client → service: ask for a completed run's artifacts.
    RunResult {
        /// Run whose artifacts to fetch.
        run: u64,
    },
    /// Service → client: a run's artifacts (answer to `RunResult`).
    /// JSON fields are empty until the run reaches a terminal state.
    RunReport {
        /// Run id.
        run: u64,
        /// Terminal (or current) state.
        state: RunState,
        /// Merged transfer ledger, rendered as JSON.
        ledger_json: String,
        /// Per-run metrics registry snapshot, rendered as JSON.
        metrics_json: String,
        /// Per-run critical-path profile, rendered as JSON.
        profile_json: String,
        /// Task errors, sorted.
        errors: Vec<String>,
    },
    /// Service → client: an RPC could not be served (unknown run, full
    /// queue, malformed workflow, ...).
    RpcErr {
        /// Human-readable reason.
        message: String,
    },
    /// Joiner → server: one bounded batch of the joiner's flight
    /// recording plus (on the last batch) its metrics counters — the
    /// telemetry plane's unit of shipping. Batches ride the same FIFO
    /// connection as control traffic but are sized so they can never
    /// starve data frames, and they are fault-eligible: a dropped batch
    /// costs trace completeness, not run correctness.
    Telemetry {
        /// Shipping node.
        node: u32,
        /// Batch index within this node's shipment (0-based).
        batch: u32,
        /// True on the final batch; its arrival marks the node's trace
        /// complete. A node that never delivers a `last` batch is
        /// reported as incomplete by the merge.
        last: bool,
        /// Flight events the node's bounded recorder dropped.
        dropped_events: u64,
        /// Trace spans the node's telemetry sink dropped
        /// (`trace.dropped_spans`), so drops on *any* process surface
        /// in the merged report.
        dropped_spans: u64,
        /// Metrics counters `(name, value)` at snapshot time; only
        /// populated on the last batch.
        counters: Vec<(String, u64)>,
        /// The flight events of this batch, in recording order.
        events: Vec<Event>,
    },
    /// Server → joiner: `Telemetry` batch received; the shipper's
    /// bounded-window flow control (ship, await ack, ship next).
    TelemetryAck {
        /// Acknowledged node.
        node: u32,
        /// Acknowledged batch index.
        batch: u32,
    },
    /// Client → service: subscribe to periodic run-progress frames.
    Watch {
        /// Run to watch.
        run: u64,
        /// Requested sampling interval in milliseconds (the service
        /// clamps to its watchdog cadence).
        interval_ms: u64,
        /// Deliver exactly one `Progress` frame, then stop (CI mode).
        once: bool,
    },
    /// Service → client: one live progress sample of a watched run
    /// (answer stream to `Watch`; `done` marks the final frame).
    Progress {
        /// Watched run.
        run: u64,
        /// Lifecycle state at sample time.
        state: RunState,
        /// True on the final frame of the stream.
        done: bool,
        /// Completed waves (iterations dispatched so far).
        wave: u32,
        /// Total waves in the run's schedule.
        waves: u32,
        /// Completed pulls across the run's processes.
        pulls: u64,
        /// Bytes moved by those pulls.
        pull_bytes: u64,
        /// Shared-memory pull-wait p50, microseconds.
        shm_wait_p50_us: u64,
        /// Shared-memory pull-wait p99, microseconds.
        shm_wait_p99_us: u64,
        /// RDMA pull-wait p50, microseconds.
        rdma_wait_p50_us: u64,
        /// RDMA pull-wait p99, microseconds.
        rdma_wait_p99_us: u64,
        /// Pulls currently in flight (requested, not yet landed).
        pulls_in_flight: u64,
        /// Bytes currently staged and pullable across the run
        /// (`cods.staging_bytes`).
        bytes_in_flight: u64,
        /// Bytes staged on the run's wire send paths, not yet flushed
        /// (`net.bytes_in_flight`); 0 for in-process runs.
        queue_depth: u64,
        /// Standing queries currently registered (`sub.active`).
        sub_active: u64,
        /// Subscription fragments pushed so far (`sub.pushes`).
        sub_pushes: u64,
        /// Deliveries lost to subscriber queue overflow (`sub.lagged`).
        sub_lagged: u64,
        /// Link-stall episodes the watchdog has counted so far.
        link_stalls: u64,
        /// Structured health events recorded so far, oldest first.
        health: Vec<String>,
    },
    /// Producer → consumer (control plane): the producer created a
    /// shared-memory segment for its directed pair with `dst_node`;
    /// subsequent PullData for that pair rides the segment's ring,
    /// announced by `ShmDoorbell` frames on this same FIFO link.
    /// Control plane: never fault-eligible, never data plane — the
    /// chaos `shm-attach` site fires at segment creation/attach, not
    /// on the wire.
    ShmOffer {
        /// Producer's node (segment creator).
        src_node: u32,
        /// Consumer's node (segment attacher).
        dst_node: u32,
        /// Directed-pair segment id (`src << 32 | dst`).
        segment: u64,
        /// Filesystem path of the segment file (producer's view; the
        /// pair is same-host, so the consumer opens the same path).
        path: String,
        /// Descriptor-ring slot count.
        slots: u64,
        /// Payload arena length in bytes.
        arena_bytes: u64,
    },
    /// Consumer → producer (control plane): the consumer's answer to
    /// `ShmOffer` (`attached` = mapped and validated) and, later, its
    /// credit/nack channel: `attached == false` after records were
    /// published tells the producer to resend them as PullData and
    /// retire the segment.
    ShmAck {
        /// Producer's node.
        src_node: u32,
        /// Consumer's node.
        dst_node: u32,
        /// Directed-pair segment id.
        segment: u64,
        /// Ring sequence the consumer has consumed through (0 on the
        /// initial attach answer).
        seq: u64,
        /// Whether the consumer is attached to the segment.
        attached: bool,
    },
    /// Producer → consumer (control plane): one or more records were
    /// published to the pair's ring at or below `seq`; drain it. The
    /// doorbell carries no payload — the data already sits in the
    /// consumer-mapped segment.
    ShmDoorbell {
        /// Producer's node.
        src_node: u32,
        /// Consumer's node.
        dst_node: u32,
        /// Directed-pair segment id.
        segment: u64,
        /// Ring head sequence after the publish.
        seq: u64,
    },
    /// Joiner → hub (control plane): register a standing query on every
    /// replica. The hub broadcasts it to all nodes except the origin
    /// and answers the origin with `SubAck`. Idempotent by `sub_id`
    /// (the spec-deterministic `SubSpec::id`), so re-registration after
    /// a reconnect is harmless.
    Subscribe {
        /// Deterministic subscription id.
        sub_id: u64,
        /// Variable key (epoch-salted).
        var: u64,
        /// Push stride: every `every_k`-th version.
        every_k: u64,
        /// Subscribing execution client.
        subscriber: u32,
        /// Watched-region lower corner, one per dimension.
        lbs: Vec<u64>,
        /// Watched-region upper corner, matching `lbs`.
        ubs: Vec<u64>,
    },
    /// Hub → origin node: the `Subscribe` was broadcast; producers on
    /// every replica now feed the query. Registration rendezvous for
    /// the subscriber task.
    SubAck {
        /// Acknowledged subscription.
        sub_id: u64,
        /// Node the ack is addressed to (the subscriber's node).
        to_node: u32,
    },
    /// Producer → subscriber: one pushed fragment (producer piece ∩
    /// subscription region) of a matching version. Deliberately NOT
    /// data plane (it must not count toward the pull routing gates)
    /// and NOT wire-fault-eligible: the chaos `sub-push` site fires in
    /// the shared put path before the transport split, so a seed drops
    /// the same fragments whether or not a wire is involved.
    SubPush {
        /// Target subscription.
        sub_id: u64,
        /// Variable key (epoch-salted).
        var: u64,
        /// Pushed version.
        version: u64,
        /// Producing client.
        src: u32,
        /// Subscribing client (routing key: `subscriber / cores_per_node`).
        subscriber: u32,
        /// Fragment lower corner, one per dimension.
        lbs: Vec<u64>,
        /// Fragment upper corner, matching `lbs`.
        ubs: Vec<u64>,
        /// Fragment payload (f64 cells, little-endian bytes).
        data: Vec<u8>,
    },
    /// Joiner → hub (control plane): tear down a standing query on
    /// every replica. Broadcast to all nodes except the origin.
    SubCancel {
        /// Subscription to cancel.
        sub_id: u64,
    },
    /// Joiner → hub (diagnostics): the subscriber's bounded queue
    /// dropped `version`. The hub only counts these — gap healing is
    /// the subscriber's resync `get`, which needs no frame.
    SubLagged {
        /// Lagging subscription.
        sub_id: u64,
        /// Version lost to the bounded queue.
        version: u64,
        /// Subscribing client.
        subscriber: u32,
    },
}

const KIND_HELLO: u8 = 1;
const KIND_WELCOME: u8 = 2;
const KIND_RELAY: u8 = 3;
const KIND_PUT_NOTIFY: u8 = 4;
const KIND_PULL_REQUEST: u8 = 5;
/// The pull-data kind byte, exposed so fault gating and tests can name
/// the data-plane frame without decoding.
pub const KIND_PULL_DATA: u8 = 6;
const KIND_PULL_NACK: u8 = 7;
const KIND_DHT_INSERT: u8 = 8;
const KIND_GET_DONE: u8 = 9;
const KIND_EVICT: u8 = 10;
const KIND_RUN_WAVE: u8 = 11;
const KIND_BARRIER: u8 = 12;
const KIND_REPORT: u8 = 13;
const KIND_SHUTDOWN: u8 = 14;
const KIND_SUBMIT: u8 = 15;
const KIND_SUBMITTED: u8 = 16;
const KIND_CANCEL: u8 = 17;
const KIND_STATUS: u8 = 18;
const KIND_LIST_RUNS: u8 = 19;
const KIND_RUN_STATUS: u8 = 20;
const KIND_RUN_LIST: u8 = 21;
const KIND_RUN_RESULT: u8 = 22;
const KIND_RUN_REPORT: u8 = 23;
const KIND_RPC_ERR: u8 = 24;
/// The telemetry-batch kind byte, exposed so the chaos plan's
/// `net-telemetry` fault site can classify frames without decoding.
pub const KIND_TELEMETRY: u8 = 25;
const KIND_TELEMETRY_ACK: u8 = 26;
const KIND_WATCH: u8 = 27;
const KIND_PROGRESS: u8 = 28;
const KIND_SHM_OFFER: u8 = 29;
const KIND_SHM_ACK: u8 = 30;
const KIND_SHM_DOORBELL: u8 = 31;
const KIND_SUBSCRIBE: u8 = 32;
const KIND_SUB_ACK: u8 = 33;
/// The standing-query push kind byte, exposed so routing counters and
/// tests can name the frame without decoding.
pub const KIND_SUB_PUSH: u8 = 34;
const KIND_SUB_CANCEL: u8 = 35;
const KIND_SUB_LAGGED: u8 = 36;

impl Frame {
    /// The kind byte this frame encodes with.
    pub fn kind(&self) -> u8 {
        match self {
            Frame::Hello { .. } => KIND_HELLO,
            Frame::Welcome { .. } => KIND_WELCOME,
            Frame::Relay { .. } => KIND_RELAY,
            Frame::PutNotify { .. } => KIND_PUT_NOTIFY,
            Frame::PullRequest { .. } => KIND_PULL_REQUEST,
            Frame::PullData { .. } => KIND_PULL_DATA,
            Frame::PullNack { .. } => KIND_PULL_NACK,
            Frame::DhtInsert { .. } => KIND_DHT_INSERT,
            Frame::GetDone { .. } => KIND_GET_DONE,
            Frame::Evict { .. } => KIND_EVICT,
            Frame::RunWave { .. } => KIND_RUN_WAVE,
            Frame::Barrier { .. } => KIND_BARRIER,
            Frame::Report(_) => KIND_REPORT,
            Frame::Shutdown { .. } => KIND_SHUTDOWN,
            Frame::Submit { .. } => KIND_SUBMIT,
            Frame::Submitted { .. } => KIND_SUBMITTED,
            Frame::Cancel { .. } => KIND_CANCEL,
            Frame::Status { .. } => KIND_STATUS,
            Frame::ListRuns => KIND_LIST_RUNS,
            Frame::RunStatus(_) => KIND_RUN_STATUS,
            Frame::RunList { .. } => KIND_RUN_LIST,
            Frame::RunResult { .. } => KIND_RUN_RESULT,
            Frame::RunReport { .. } => KIND_RUN_REPORT,
            Frame::RpcErr { .. } => KIND_RPC_ERR,
            Frame::Telemetry { .. } => KIND_TELEMETRY,
            Frame::TelemetryAck { .. } => KIND_TELEMETRY_ACK,
            Frame::Watch { .. } => KIND_WATCH,
            Frame::Progress { .. } => KIND_PROGRESS,
            Frame::ShmOffer { .. } => KIND_SHM_OFFER,
            Frame::ShmAck { .. } => KIND_SHM_ACK,
            Frame::ShmDoorbell { .. } => KIND_SHM_DOORBELL,
            Frame::Subscribe { .. } => KIND_SUBSCRIBE,
            Frame::SubAck { .. } => KIND_SUB_ACK,
            Frame::SubPush { .. } => KIND_SUB_PUSH,
            Frame::SubCancel { .. } => KIND_SUB_CANCEL,
            Frame::SubLagged { .. } => KIND_SUB_LAGGED,
        }
    }

    /// Whether this frame is data plane (a bulk `PullData` payload).
    /// Feeds the `net.pull_hub`/`net.pull_p2p` routing counters and the
    /// p2p acceptance gate; telemetry is deliberately excluded so the
    /// observability plane cannot perturb those gates.
    pub fn is_data_plane(&self) -> bool {
        matches!(self, Frame::PullData { .. })
    }

    /// Whether this frame may be offered to `net.send`/`net.recv` fault
    /// injection: the data plane (`PullData`) and the telemetry plane
    /// (`Telemetry`). Dropping other control frames would model an
    /// unreliable management server, which the system does not have.
    pub fn fault_eligible(&self) -> bool {
        matches!(self, Frame::PullData { .. } | Frame::Telemetry { .. })
    }

    /// The `(a, b)` identity of this frame's chaos fault site: the
    /// buffer name and packed piece for pull data, the node and batch
    /// for telemetry, zeros otherwise.
    pub fn fault_ids(&self) -> (u64, u64) {
        match self {
            Frame::PullData { name, piece, .. } => (*name, *piece),
            Frame::Telemetry { node, batch, .. } => (*node as u64, *batch as u64),
            _ => (0, 0),
        }
    }

    /// Encode to a complete wire frame (length word included).
    pub fn encode(&self) -> Vec<u8> {
        let mut p = Vec::new();
        match self {
            Frame::Hello {
                node,
                peer_addr,
                host,
            } => {
                put_u32(&mut p, *node);
                put_str(&mut p, peer_addr);
                put_str(&mut p, host);
            }
            Frame::Welcome {
                nodes,
                strategy,
                get_timeout_ms,
                dag,
                config,
                run_epoch,
                peers,
                hosts,
            } => {
                put_u32(&mut p, *nodes);
                put_str(&mut p, strategy);
                put_u64(&mut p, *get_timeout_ms);
                put_str(&mut p, dag);
                put_str(&mut p, config);
                put_u64(&mut p, *run_epoch);
                put_strs(&mut p, peers);
                put_strs(&mut p, hosts);
            }
            Frame::Relay {
                to,
                src,
                tag,
                payload,
            } => {
                put_u32(&mut p, *to);
                put_u32(&mut p, *src);
                put_u64(&mut p, *tag);
                put_bytes(&mut p, payload);
            }
            Frame::PutNotify {
                name,
                version,
                piece,
                owner,
                bytes,
            } => {
                put_u64(&mut p, *name);
                put_u64(&mut p, *version);
                put_u64(&mut p, *piece);
                put_u32(&mut p, *owner);
                put_u64(&mut p, *bytes);
            }
            Frame::PullRequest {
                name,
                version,
                piece,
                from_node,
            } => {
                put_u64(&mut p, *name);
                put_u64(&mut p, *version);
                put_u64(&mut p, *piece);
                put_u32(&mut p, *from_node);
            }
            Frame::PullData {
                name,
                version,
                piece,
                owner,
                to_node,
                data,
            } => {
                put_u64(&mut p, *name);
                put_u64(&mut p, *version);
                put_u64(&mut p, *piece);
                put_u32(&mut p, *owner);
                put_u32(&mut p, *to_node);
                put_bytes(&mut p, data);
            }
            Frame::PullNack {
                name,
                version,
                piece,
                to_node,
            } => {
                put_u64(&mut p, *name);
                put_u64(&mut p, *version);
                put_u64(&mut p, *piece);
                put_u32(&mut p, *to_node);
            }
            Frame::DhtInsert {
                var,
                version,
                owner,
                piece,
                lbs,
                ubs,
            } => {
                put_u64(&mut p, *var);
                put_u64(&mut p, *version);
                put_u32(&mut p, *owner);
                put_u64(&mut p, *piece);
                put_u64s(&mut p, lbs);
                put_u64s(&mut p, ubs);
            }
            Frame::GetDone { var, version } | Frame::Evict { var, version } => {
                put_u64(&mut p, *var);
                put_u64(&mut p, *version);
            }
            Frame::RunWave { wave } => put_u32(&mut p, *wave),
            Frame::Barrier { wave, node } => {
                put_u32(&mut p, *wave);
                put_u32(&mut p, *node);
            }
            Frame::Report(r) => {
                put_u32(&mut p, r.node);
                for cell in r.ledger.shm_cells() {
                    put_u64(&mut p, cell);
                }
                for cell in r.ledger.net_cells() {
                    put_u64(&mut p, cell);
                }
                let entries: Vec<_> = r.ledger.per_app().collect();
                put_u32(&mut p, entries.len() as u32);
                for (app, class, loc, bytes) in entries {
                    put_u32(&mut p, app);
                    p.push(class.idx() as u8);
                    p.push(loc.idx() as u8);
                    put_u64(&mut p, bytes);
                }
                put_u64(&mut p, r.verify_failures);
                put_u64(&mut p, r.staged);
                put_u64(&mut p, r.gets);
                put_u32(&mut p, r.errors.len() as u32);
                for e in &r.errors {
                    put_str(&mut p, e);
                }
            }
            Frame::Shutdown { ok, reason } => {
                p.push(*ok as u8);
                put_str(&mut p, reason);
            }
            Frame::Submit {
                name,
                dag,
                config,
                strategy,
                get_timeout_ms,
                priority,
            } => {
                put_str(&mut p, name);
                put_str(&mut p, dag);
                put_str(&mut p, config);
                put_str(&mut p, strategy);
                put_u64(&mut p, *get_timeout_ms);
                put_u32(&mut p, *priority);
            }
            Frame::Submitted { run, queued_ahead } => {
                put_u64(&mut p, *run);
                put_u32(&mut p, *queued_ahead);
            }
            Frame::Cancel { run } | Frame::Status { run } | Frame::RunResult { run } => {
                put_u64(&mut p, *run);
            }
            Frame::ListRuns => {}
            Frame::RunStatus(s) => put_run_summary(&mut p, s),
            Frame::RunList { runs } => {
                put_u32(&mut p, runs.len() as u32);
                for s in runs {
                    put_run_summary(&mut p, s);
                }
            }
            Frame::RunReport {
                run,
                state,
                ledger_json,
                metrics_json,
                profile_json,
                errors,
            } => {
                put_u64(&mut p, *run);
                p.push(state.idx());
                put_str(&mut p, ledger_json);
                put_str(&mut p, metrics_json);
                put_str(&mut p, profile_json);
                put_u32(&mut p, errors.len() as u32);
                for e in errors {
                    put_str(&mut p, e);
                }
            }
            Frame::RpcErr { message } => put_str(&mut p, message),
            Frame::Telemetry {
                node,
                batch,
                last,
                dropped_events,
                dropped_spans,
                counters,
                events,
            } => {
                put_u32(&mut p, *node);
                put_u32(&mut p, *batch);
                p.push(*last as u8);
                put_u64(&mut p, *dropped_events);
                put_u64(&mut p, *dropped_spans);
                put_u32(&mut p, counters.len() as u32);
                for (name, value) in counters {
                    put_str(&mut p, name);
                    put_u64(&mut p, *value);
                }
                put_u32(&mut p, events.len() as u32);
                for e in events {
                    put_event(&mut p, e);
                }
            }
            Frame::TelemetryAck { node, batch } => {
                put_u32(&mut p, *node);
                put_u32(&mut p, *batch);
            }
            Frame::Watch {
                run,
                interval_ms,
                once,
            } => {
                put_u64(&mut p, *run);
                put_u64(&mut p, *interval_ms);
                p.push(*once as u8);
            }
            Frame::Progress {
                run,
                state,
                done,
                wave,
                waves,
                pulls,
                pull_bytes,
                shm_wait_p50_us,
                shm_wait_p99_us,
                rdma_wait_p50_us,
                rdma_wait_p99_us,
                pulls_in_flight,
                bytes_in_flight,
                queue_depth,
                sub_active,
                sub_pushes,
                sub_lagged,
                link_stalls,
                health,
            } => {
                put_u64(&mut p, *run);
                p.push(state.idx());
                p.push(*done as u8);
                put_u32(&mut p, *wave);
                put_u32(&mut p, *waves);
                put_u64(&mut p, *pulls);
                put_u64(&mut p, *pull_bytes);
                put_u64(&mut p, *shm_wait_p50_us);
                put_u64(&mut p, *shm_wait_p99_us);
                put_u64(&mut p, *rdma_wait_p50_us);
                put_u64(&mut p, *rdma_wait_p99_us);
                put_u64(&mut p, *pulls_in_flight);
                put_u64(&mut p, *bytes_in_flight);
                put_u64(&mut p, *queue_depth);
                put_u64(&mut p, *sub_active);
                put_u64(&mut p, *sub_pushes);
                put_u64(&mut p, *sub_lagged);
                put_u64(&mut p, *link_stalls);
                put_strs(&mut p, health);
            }
            Frame::ShmOffer {
                src_node,
                dst_node,
                segment,
                path,
                slots,
                arena_bytes,
            } => {
                put_u32(&mut p, *src_node);
                put_u32(&mut p, *dst_node);
                put_u64(&mut p, *segment);
                put_str(&mut p, path);
                put_u64(&mut p, *slots);
                put_u64(&mut p, *arena_bytes);
            }
            Frame::ShmAck {
                src_node,
                dst_node,
                segment,
                seq,
                attached,
            } => {
                put_u32(&mut p, *src_node);
                put_u32(&mut p, *dst_node);
                put_u64(&mut p, *segment);
                put_u64(&mut p, *seq);
                p.push(*attached as u8);
            }
            Frame::ShmDoorbell {
                src_node,
                dst_node,
                segment,
                seq,
            } => {
                put_u32(&mut p, *src_node);
                put_u32(&mut p, *dst_node);
                put_u64(&mut p, *segment);
                put_u64(&mut p, *seq);
            }
            Frame::Subscribe {
                sub_id,
                var,
                every_k,
                subscriber,
                lbs,
                ubs,
            } => {
                put_u64(&mut p, *sub_id);
                put_u64(&mut p, *var);
                put_u64(&mut p, *every_k);
                put_u32(&mut p, *subscriber);
                put_u64s(&mut p, lbs);
                put_u64s(&mut p, ubs);
            }
            Frame::SubAck { sub_id, to_node } => {
                put_u64(&mut p, *sub_id);
                put_u32(&mut p, *to_node);
            }
            Frame::SubPush {
                sub_id,
                var,
                version,
                src,
                subscriber,
                lbs,
                ubs,
                data,
            } => {
                put_u64(&mut p, *sub_id);
                put_u64(&mut p, *var);
                put_u64(&mut p, *version);
                put_u32(&mut p, *src);
                put_u32(&mut p, *subscriber);
                put_u64s(&mut p, lbs);
                put_u64s(&mut p, ubs);
                put_bytes(&mut p, data);
            }
            Frame::SubCancel { sub_id } => put_u64(&mut p, *sub_id),
            Frame::SubLagged {
                sub_id,
                version,
                subscriber,
            } => {
                put_u64(&mut p, *sub_id);
                put_u64(&mut p, *version);
                put_u32(&mut p, *subscriber);
            }
        }
        let mut out = Vec::with_capacity(6 + p.len());
        put_u32(&mut out, 2 + p.len() as u32);
        out.push(WIRE_VERSION);
        out.push(self.kind());
        out.extend_from_slice(&p);
        out
    }

    /// Decode one frame body (`version`, `kind` and `payload` — the
    /// bytes after the length word). Rejects trailing payload bytes.
    pub fn decode(version: u8, kind: u8, payload: &[u8]) -> Result<Frame, FrameError> {
        if version != WIRE_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let mut c = Cursor {
            buf: payload,
            pos: 0,
        };
        let frame = match kind {
            KIND_HELLO => Frame::Hello {
                node: c.u32()?,
                peer_addr: c.str()?,
                host: c.str()?,
            },
            KIND_WELCOME => Frame::Welcome {
                nodes: c.u32()?,
                strategy: c.str()?,
                get_timeout_ms: c.u64()?,
                dag: c.str()?,
                config: c.str()?,
                run_epoch: c.u64()?,
                peers: c.strs()?,
                hosts: c.strs()?,
            },
            KIND_RELAY => Frame::Relay {
                to: c.u32()?,
                src: c.u32()?,
                tag: c.u64()?,
                payload: c.bytes()?,
            },
            KIND_PUT_NOTIFY => Frame::PutNotify {
                name: c.u64()?,
                version: c.u64()?,
                piece: c.u64()?,
                owner: c.u32()?,
                bytes: c.u64()?,
            },
            KIND_PULL_REQUEST => Frame::PullRequest {
                name: c.u64()?,
                version: c.u64()?,
                piece: c.u64()?,
                from_node: c.u32()?,
            },
            KIND_PULL_DATA => Frame::PullData {
                name: c.u64()?,
                version: c.u64()?,
                piece: c.u64()?,
                owner: c.u32()?,
                to_node: c.u32()?,
                data: c.bytes()?,
            },
            KIND_PULL_NACK => Frame::PullNack {
                name: c.u64()?,
                version: c.u64()?,
                piece: c.u64()?,
                to_node: c.u32()?,
            },
            KIND_DHT_INSERT => Frame::DhtInsert {
                var: c.u64()?,
                version: c.u64()?,
                owner: c.u32()?,
                piece: c.u64()?,
                lbs: c.u64s()?,
                ubs: c.u64s()?,
            },
            KIND_GET_DONE => Frame::GetDone {
                var: c.u64()?,
                version: c.u64()?,
            },
            KIND_EVICT => Frame::Evict {
                var: c.u64()?,
                version: c.u64()?,
            },
            KIND_RUN_WAVE => Frame::RunWave { wave: c.u32()? },
            KIND_BARRIER => Frame::Barrier {
                wave: c.u32()?,
                node: c.u32()?,
            },
            KIND_REPORT => {
                let node = c.u32()?;
                let shm = [c.u64()?, c.u64()?, c.u64()?, c.u64()?];
                let net = [c.u64()?, c.u64()?, c.u64()?, c.u64()?];
                let n = c.u32()? as usize;
                let mut per_app = Vec::new();
                for _ in 0..n {
                    let app = c.u32()?;
                    let class = TrafficClass::from_idx(c.u8()? as usize)
                        .ok_or(FrameError::BadPayload("traffic class index"))?;
                    let loc = Locality::from_idx(c.u8()? as usize)
                        .ok_or(FrameError::BadPayload("locality index"))?;
                    per_app.push((app, class, loc, c.u64()?));
                }
                let verify_failures = c.u64()?;
                let staged = c.u64()?;
                let gets = c.u64()?;
                let n_err = c.u32()? as usize;
                let mut errors = Vec::new();
                for _ in 0..n_err {
                    errors.push(c.str()?);
                }
                Frame::Report(NodeReport {
                    node,
                    ledger: LedgerSnapshot::from_parts(shm, net, per_app),
                    verify_failures,
                    staged,
                    gets,
                    errors,
                })
            }
            KIND_SHUTDOWN => Frame::Shutdown {
                ok: match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::BadPayload("bool")),
                },
                reason: c.str()?,
            },
            KIND_SUBMIT => Frame::Submit {
                name: c.str()?,
                dag: c.str()?,
                config: c.str()?,
                strategy: c.str()?,
                get_timeout_ms: c.u64()?,
                priority: c.u32()?,
            },
            KIND_SUBMITTED => Frame::Submitted {
                run: c.u64()?,
                queued_ahead: c.u32()?,
            },
            KIND_CANCEL => Frame::Cancel { run: c.u64()? },
            KIND_STATUS => Frame::Status { run: c.u64()? },
            KIND_LIST_RUNS => Frame::ListRuns,
            KIND_RUN_STATUS => Frame::RunStatus(c.run_summary()?),
            KIND_RUN_LIST => {
                let n = c.u32()? as usize;
                // A RunSummary occupies at least 33 bytes (run + two
                // length words + state + nodes + link_stalls + the
                // health count); guard the count before allocating so a
                // hostile count cannot OOM.
                if c.buf.len() - c.pos < n.saturating_mul(33) {
                    return Err(FrameError::Truncated);
                }
                let mut runs = Vec::with_capacity(n);
                for _ in 0..n {
                    runs.push(c.run_summary()?);
                }
                Frame::RunList { runs }
            }
            KIND_RUN_RESULT => Frame::RunResult { run: c.u64()? },
            KIND_RUN_REPORT => {
                let run = c.u64()?;
                let state =
                    RunState::from_idx(c.u8()?).ok_or(FrameError::BadPayload("run state index"))?;
                let ledger_json = c.str()?;
                let metrics_json = c.str()?;
                let profile_json = c.str()?;
                let n = c.u32()? as usize;
                let mut errors = Vec::new();
                for _ in 0..n {
                    errors.push(c.str()?);
                }
                Frame::RunReport {
                    run,
                    state,
                    ledger_json,
                    metrics_json,
                    profile_json,
                    errors,
                }
            }
            KIND_RPC_ERR => Frame::RpcErr { message: c.str()? },
            KIND_TELEMETRY => {
                let node = c.u32()?;
                let batch = c.u32()?;
                let last = match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::BadPayload("bool")),
                };
                let dropped_events = c.u64()?;
                let dropped_spans = c.u64()?;
                let n = c.u32()? as usize;
                // Every counter costs at least its name length word
                // plus the u64 value; guard before allocating.
                if c.buf.len() - c.pos < n.saturating_mul(12) {
                    return Err(FrameError::Truncated);
                }
                let mut counters = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = c.str()?;
                    counters.push((name, c.u64()?));
                }
                let n = c.u32()? as usize;
                // A wire event occupies at least EVENT_WIRE_MIN bytes;
                // a hostile count must not OOM.
                if c.buf.len() - c.pos < n.saturating_mul(EVENT_WIRE_MIN) {
                    return Err(FrameError::Truncated);
                }
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    events.push(c.event()?);
                }
                Frame::Telemetry {
                    node,
                    batch,
                    last,
                    dropped_events,
                    dropped_spans,
                    counters,
                    events,
                }
            }
            KIND_TELEMETRY_ACK => Frame::TelemetryAck {
                node: c.u32()?,
                batch: c.u32()?,
            },
            KIND_WATCH => Frame::Watch {
                run: c.u64()?,
                interval_ms: c.u64()?,
                once: match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::BadPayload("bool")),
                },
            },
            KIND_PROGRESS => Frame::Progress {
                run: c.u64()?,
                state: RunState::from_idx(c.u8()?)
                    .ok_or(FrameError::BadPayload("run state index"))?,
                done: match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::BadPayload("bool")),
                },
                wave: c.u32()?,
                waves: c.u32()?,
                pulls: c.u64()?,
                pull_bytes: c.u64()?,
                shm_wait_p50_us: c.u64()?,
                shm_wait_p99_us: c.u64()?,
                rdma_wait_p50_us: c.u64()?,
                rdma_wait_p99_us: c.u64()?,
                pulls_in_flight: c.u64()?,
                bytes_in_flight: c.u64()?,
                queue_depth: c.u64()?,
                sub_active: c.u64()?,
                sub_pushes: c.u64()?,
                sub_lagged: c.u64()?,
                link_stalls: c.u64()?,
                health: c.strs()?,
            },
            KIND_SHM_OFFER => Frame::ShmOffer {
                src_node: c.u32()?,
                dst_node: c.u32()?,
                segment: c.u64()?,
                path: c.str()?,
                slots: c.u64()?,
                arena_bytes: c.u64()?,
            },
            KIND_SHM_ACK => Frame::ShmAck {
                src_node: c.u32()?,
                dst_node: c.u32()?,
                segment: c.u64()?,
                seq: c.u64()?,
                attached: match c.u8()? {
                    0 => false,
                    1 => true,
                    _ => return Err(FrameError::BadPayload("bool")),
                },
            },
            KIND_SHM_DOORBELL => Frame::ShmDoorbell {
                src_node: c.u32()?,
                dst_node: c.u32()?,
                segment: c.u64()?,
                seq: c.u64()?,
            },
            KIND_SUBSCRIBE => Frame::Subscribe {
                sub_id: c.u64()?,
                var: c.u64()?,
                every_k: c.u64()?,
                subscriber: c.u32()?,
                lbs: c.u64s()?,
                ubs: c.u64s()?,
            },
            KIND_SUB_ACK => Frame::SubAck {
                sub_id: c.u64()?,
                to_node: c.u32()?,
            },
            KIND_SUB_PUSH => Frame::SubPush {
                sub_id: c.u64()?,
                var: c.u64()?,
                version: c.u64()?,
                src: c.u32()?,
                subscriber: c.u32()?,
                lbs: c.u64s()?,
                ubs: c.u64s()?,
                data: c.bytes()?,
            },
            KIND_SUB_CANCEL => Frame::SubCancel { sub_id: c.u64()? },
            KIND_SUB_LAGGED => Frame::SubLagged {
                sub_id: c.u64()?,
                version: c.u64()?,
                subscriber: c.u32()?,
            },
            other => return Err(FrameError::BadKind(other)),
        };
        if c.pos != payload.len() {
            return Err(FrameError::BadPayload("trailing bytes"));
        }
        Ok(frame)
    }

    /// Read one complete frame from a blocking stream.
    ///
    /// Stream errors map to [`FrameError::Io`]; a clean EOF *before* the
    /// length word also maps to `Io` (connection closed). Malformed
    /// content is rejected with the corresponding decode error.
    pub fn read_from(r: &mut impl Read) -> Result<Frame, FrameError> {
        Frame::read_counted(r).map(|(frame, _)| frame)
    }

    /// [`Frame::read_from`], also returning the frame's size on the
    /// wire (length word included) for byte accounting.
    pub fn read_counted(r: &mut impl Read) -> Result<(Frame, usize), FrameError> {
        let mut lenb = [0u8; 4];
        read_exact(r, &mut lenb)?;
        let len = u32::from_le_bytes(lenb);
        if !(2..=MAX_FRAME_LEN).contains(&len) {
            return Err(FrameError::BadLength(len));
        }
        let mut body = vec![0u8; len as usize];
        read_exact(r, &mut body)?;
        let frame = Frame::decode(body[0], body[1], &body[2..])?;
        Ok((frame, lenb.len() + body.len()))
    }

    /// Write the encoded frame to a blocking stream.
    pub fn write_to(&self, w: &mut impl Write) -> Result<usize, FrameError> {
        let bytes = self.encode();
        w.write_all(&bytes)
            .and_then(|_| w.flush())
            .map_err(|e| FrameError::Io(e.to_string()))?;
        Ok(bytes.len())
    }
}

/// Encode a batch of frames into one contiguous byte run (each frame
/// complete with its own length word). This is the reactor's small-
/// message coalescing primitive: a batch crosses the socket in one
/// `write` syscall, and any split of the byte run — including splits
/// inside a frame — decodes back to the identical sequence through
/// [`FrameDecoder`].
pub fn encode_batch(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for f in frames {
        out.extend_from_slice(&f.encode());
    }
    out
}

/// Incremental frame decoder over an arbitrarily-chunked byte stream.
///
/// The reactor reads whatever the socket has buffered — which may end
/// mid-frame, or hold several coalesced frames — feeds it in with
/// [`push`](FrameDecoder::push), and drains complete frames with
/// [`next_frame`](FrameDecoder::next_frame). Decoding is total: malformed input
/// surfaces as a [`FrameError`] exactly as [`Frame::read_from`] would
/// report it, after which the connection is poisoned (every subsequent
/// `next` repeats the error) — a protocol error leaves no way to
/// re-synchronise the stream.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append freshly-read bytes to the pending buffer.
    pub fn push(&mut self, bytes: &[u8]) {
        // Compact before growing: drop the prefix already consumed by
        // decoded frames so the buffer stays bounded by one frame plus
        // one socket read.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode the next complete frame, `Ok(None)` when more bytes are
    /// needed, or the (sticky) protocol error.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        let rest = &self.buf[self.pos..];
        if rest.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
        if !(2..=MAX_FRAME_LEN).contains(&len) {
            return Err(self.poison(FrameError::BadLength(len)));
        }
        let total = 4 + len as usize;
        if rest.len() < total {
            return Ok(None);
        }
        let body = &rest[4..total];
        match Frame::decode(body[0], body[1], &body[2..]) {
            Ok(frame) => {
                self.pos += total;
                Ok(Some(frame))
            }
            Err(e) => Err(self.poison(e)),
        }
    }

    fn poison(&mut self, err: FrameError) -> FrameError {
        self.poisoned = Some(err.clone());
        err
    }
}

fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        _ => FrameError::Io(e.to_string()),
    })
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_u32(out, v.len() as u32);
    out.extend_from_slice(v);
}

fn put_str(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

fn put_u64s(out: &mut Vec<u8>, v: &[u64]) {
    put_u32(out, v.len() as u32);
    for &x in v {
        put_u64(out, x);
    }
}

fn put_strs(out: &mut Vec<u8>, v: &[String]) {
    put_u32(out, v.len() as u32);
    for s in v {
        put_str(out, s);
    }
}

fn put_run_summary(out: &mut Vec<u8>, s: &RunSummary) {
    put_u64(out, s.run);
    put_str(out, &s.name);
    out.push(s.state.idx());
    put_u32(out, s.nodes);
    put_str(out, &s.detail);
    put_u64(out, s.link_stalls);
    put_strs(out, &s.health);
}

/// Fixed cost of one wire event: seq (8) + parent (8) + kind (1) +
/// app (4) + var (8) + version (8) + bbox flag (1) + src flag (1) +
/// dst flag (1) + link (1) + piece (8) + bytes (8) + start (8) +
/// duration (8) + pid (4). Kind arguments only add to it. Used to
/// guard hostile event counts before allocation.
const EVENT_WIRE_MIN: usize = 77;

/// Event kind wire bytes (indexes into the `EventKind` shapes; kinds
/// with an argument encode it right after the byte).
const EK_PUT_CONT: u8 = 0;
const EK_PUT_SEQ: u8 = 1;
const EK_GET_SEQ: u8 = 2;
const EK_GET_CONT: u8 = 3;
const EK_SCHED_MISS: u8 = 4;
const EK_SCHED_HIT: u8 = 5;
const EK_DHT_LOOKUP: u8 = 6;
const EK_PULL: u8 = 7;
const EK_FAULT: u8 = 8;
const EK_NET_SEND: u8 = 9;
const EK_NET_RECV: u8 = 10;
const EK_SUB_PUSH: u8 = 11;
const EK_SUB_DELIVER: u8 = 12;

/// Map a fault slug read off the wire back to the `&'static str` the
/// event schema carries. Slugs name the chaos fault kinds; an unknown
/// slug (a newer peer's kind) degrades to the generic `"fault"`.
fn intern_fault_slug(slug: &str) -> &'static str {
    match slug {
        "dead-producer" => "dead-producer",
        "drop-pull" => "drop-pull",
        "delay-pull" => "delay-pull",
        "dht-blackout" => "dht-blackout",
        "stage-full" => "stage-full",
        "link-slow" => "link-slow",
        "net-connect" => "net-connect",
        "net-send" => "net-send",
        "net-recv" => "net-recv",
        "net-telemetry" => "net-telemetry",
        "shm-attach" => "shm-attach",
        "sub-push" => "sub-push",
        _ => "fault",
    }
}

fn put_event(out: &mut Vec<u8>, e: &Event) {
    put_u64(out, e.seq);
    put_u64(out, e.parent.unwrap_or(0)); // seqs are 1-based; 0 = none
    match e.kind {
        EventKind::Put { indexed: false } => out.push(EK_PUT_CONT),
        EventKind::Put { indexed: true } => out.push(EK_PUT_SEQ),
        EventKind::Get { cont: false } => out.push(EK_GET_SEQ),
        EventKind::Get { cont: true } => out.push(EK_GET_CONT),
        EventKind::Schedule { hit: false } => out.push(EK_SCHED_MISS),
        EventKind::Schedule { hit: true } => out.push(EK_SCHED_HIT),
        EventKind::DhtLookup { cores } => {
            out.push(EK_DHT_LOOKUP);
            put_u32(out, cores);
        }
        EventKind::Pull { wait_us } => {
            out.push(EK_PULL);
            put_u64(out, wait_us);
        }
        EventKind::Fault { kind } => {
            out.push(EK_FAULT);
            put_str(out, kind);
        }
        EventKind::NetSend => out.push(EK_NET_SEND),
        EventKind::NetRecv => out.push(EK_NET_RECV),
        EventKind::SubPush => out.push(EK_SUB_PUSH),
        EventKind::SubDeliver => out.push(EK_SUB_DELIVER),
    }
    put_u32(out, e.app);
    put_u64(out, e.var);
    put_u64(out, e.version);
    match &e.bbox {
        Some(bb) => {
            out.push(1);
            let lbs: Vec<u64> = (0..bb.ndim()).map(|d| bb.lb(d)).collect();
            let ubs: Vec<u64> = (0..bb.ndim()).map(|d| bb.ub(d)).collect();
            put_u64s(out, &lbs);
            put_u64s(out, &ubs);
        }
        None => out.push(0),
    }
    match e.src {
        Some(src) => {
            out.push(1);
            put_u32(out, src);
        }
        None => out.push(0),
    }
    match e.dst {
        Some(dst) => {
            out.push(1);
            put_u32(out, dst);
        }
        None => out.push(0),
    }
    out.push(match e.link {
        None => 0,
        Some(LinkClass::Shm) => 1,
        Some(LinkClass::Rdma) => 2,
    });
    put_u64(out, e.piece);
    put_u64(out, e.bytes);
    put_u64(out, e.start_us);
    put_u64(out, e.duration_us);
    put_u32(out, e.pid);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], FrameError> {
        if self.buf.len() - self.pos < n {
            return Err(FrameError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, FrameError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, FrameError> {
        let n = self.u32()? as usize;
        Ok(self.take(n)?.to_vec())
    }

    fn str(&mut self) -> Result<String, FrameError> {
        String::from_utf8(self.bytes()?).map_err(|_| FrameError::BadPayload("utf-8"))
    }

    fn run_summary(&mut self) -> Result<RunSummary, FrameError> {
        Ok(RunSummary {
            run: self.u64()?,
            name: self.str()?,
            state: RunState::from_idx(self.u8()?)
                .ok_or(FrameError::BadPayload("run state index"))?,
            nodes: self.u32()?,
            detail: self.str()?,
            link_stalls: self.u64()?,
            health: self.strs()?,
        })
    }

    fn event(&mut self) -> Result<Event, FrameError> {
        let seq = self.u64()?;
        let parent = self.u64()?;
        let kind = match self.u8()? {
            EK_PUT_CONT => EventKind::Put { indexed: false },
            EK_PUT_SEQ => EventKind::Put { indexed: true },
            EK_GET_SEQ => EventKind::Get { cont: false },
            EK_GET_CONT => EventKind::Get { cont: true },
            EK_SCHED_MISS => EventKind::Schedule { hit: false },
            EK_SCHED_HIT => EventKind::Schedule { hit: true },
            EK_DHT_LOOKUP => EventKind::DhtLookup { cores: self.u32()? },
            EK_PULL => EventKind::Pull {
                wait_us: self.u64()?,
            },
            EK_FAULT => EventKind::Fault {
                kind: intern_fault_slug(&self.str()?),
            },
            EK_NET_SEND => EventKind::NetSend,
            EK_NET_RECV => EventKind::NetRecv,
            EK_SUB_PUSH => EventKind::SubPush,
            EK_SUB_DELIVER => EventKind::SubDeliver,
            _ => return Err(FrameError::BadPayload("event kind index")),
        };
        let mut e = Event::new(seq, kind);
        if parent != 0 {
            e.parent = Some(parent);
        }
        e.app = self.u32()?;
        e.var = self.u64()?;
        e.version = self.u64()?;
        e.bbox = match self.u8()? {
            0 => None,
            1 => {
                let lbs = self.u64s()?;
                let ubs = self.u64s()?;
                // BoundingBox::new panics on invalid corners; the codec
                // must stay total, so validate the wire shape first.
                if lbs.is_empty()
                    || lbs.len() != ubs.len()
                    || lbs.len() > insitu_domain::MAX_DIMS
                    || lbs.iter().zip(&ubs).any(|(l, u)| l > u)
                {
                    return Err(FrameError::BadPayload("bbox corners"));
                }
                Some(insitu_domain::BoundingBox::new(&lbs, &ubs))
            }
            _ => return Err(FrameError::BadPayload("bool")),
        };
        e.src = match self.u8()? {
            0 => None,
            1 => Some(self.u32()?),
            _ => return Err(FrameError::BadPayload("bool")),
        };
        e.dst = match self.u8()? {
            0 => None,
            1 => Some(self.u32()?),
            _ => return Err(FrameError::BadPayload("bool")),
        };
        e.link = match self.u8()? {
            0 => None,
            1 => Some(LinkClass::Shm),
            2 => Some(LinkClass::Rdma),
            _ => return Err(FrameError::BadPayload("link class index")),
        };
        e.piece = self.u64()?;
        e.bytes = self.u64()?;
        e.start_us = self.u64()?;
        e.duration_us = self.u64()?;
        e.pid = self.u32()?;
        Ok(e)
    }

    fn u64s(&mut self) -> Result<Vec<u64>, FrameError> {
        let n = self.u32()? as usize;
        // Guard the element count against the remaining payload before
        // allocating (a hostile count of u32::MAX must not OOM).
        if self.buf.len() - self.pos < n.saturating_mul(8) {
            return Err(FrameError::Truncated);
        }
        (0..n).map(|_| self.u64()).collect()
    }

    fn strs(&mut self) -> Result<Vec<String>, FrameError> {
        let n = self.u32()? as usize;
        // Every string costs at least its 4-byte length word; guard the
        // count before allocating.
        if self.buf.len() - self.pos < n.saturating_mul(4) {
            return Err(FrameError::Truncated);
        }
        (0..n).map(|_| self.str()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_util::check::forall;
    use insitu_util::rng::SplitMix64;

    fn arb_string(rng: &mut SplitMix64, max: usize) -> String {
        let n = rng.range_usize(0, max);
        (0..n)
            .map(|_| char::from_u32(rng.range_u32(32, 0x24F)).unwrap_or('x'))
            .collect()
    }

    fn arb_bytes(rng: &mut SplitMix64, max: usize) -> Vec<u8> {
        let n = rng.range_usize(0, max);
        (0..n).map(|_| rng.next_u64() as u8).collect()
    }

    fn arb_report(rng: &mut SplitMix64) -> NodeReport {
        let n = rng.range_usize(0, 6);
        let per_app: Vec<_> = (0..n)
            .map(|_| {
                (
                    rng.range_u32(0, 8),
                    *rng.choose(&TrafficClass::ALL),
                    *rng.choose(&Locality::ALL),
                    rng.next_u64() >> 8,
                )
            })
            .collect();
        NodeReport {
            node: rng.range_u32(0, 16),
            ledger: LedgerSnapshot::from_parts(
                std::array::from_fn(|_| rng.next_u64() >> 8),
                std::array::from_fn(|_| rng.next_u64() >> 8),
                per_app,
            ),
            verify_failures: rng.range_u64(0, 5),
            staged: rng.next_u64(),
            gets: rng.next_u64(),
            errors: (0..rng.range_usize(0, 3))
                .map(|_| arb_string(rng, 40))
                .collect(),
        }
    }

    /// One random frame of every message type, driven by `rng`.
    fn arb_frames(rng: &mut SplitMix64) -> Vec<Frame> {
        vec![
            Frame::Hello {
                node: rng.range_u32(0, 64),
                peer_addr: arb_string(rng, 24),
                host: arb_string(rng, 36),
            },
            Frame::Welcome {
                nodes: rng.range_u32(1, 64),
                strategy: arb_string(rng, 16),
                get_timeout_ms: rng.next_u64(),
                dag: arb_string(rng, 200),
                config: arb_string(rng, 200),
                run_epoch: rng.next_u64(),
                peers: (0..rng.range_usize(0, 4))
                    .map(|_| arb_string(rng, 24))
                    .collect(),
                hosts: (0..rng.range_usize(0, 4))
                    .map(|_| arb_string(rng, 36))
                    .collect(),
            },
            Frame::Relay {
                to: rng.range_u32(0, 256),
                src: rng.range_u32(0, 256),
                tag: rng.next_u64(),
                payload: arb_bytes(rng, 64),
            },
            Frame::PutNotify {
                name: rng.next_u64(),
                version: rng.next_u64(),
                piece: rng.next_u64(),
                owner: rng.range_u32(0, 256),
                bytes: rng.next_u64(),
            },
            Frame::PullRequest {
                name: rng.next_u64(),
                version: rng.next_u64(),
                piece: rng.next_u64(),
                from_node: rng.range_u32(0, 64),
            },
            Frame::PullData {
                name: rng.next_u64(),
                version: rng.next_u64(),
                piece: rng.next_u64(),
                owner: rng.range_u32(0, 256),
                to_node: rng.range_u32(0, 64),
                data: arb_bytes(rng, 128),
            },
            Frame::PullNack {
                name: rng.next_u64(),
                version: rng.next_u64(),
                piece: rng.next_u64(),
                to_node: rng.range_u32(0, 64),
            },
            Frame::DhtInsert {
                var: rng.next_u64(),
                version: rng.next_u64(),
                owner: rng.range_u32(0, 256),
                piece: rng.next_u64(),
                lbs: (0..rng.range_usize(1, 4)).map(|_| rng.next_u64()).collect(),
                ubs: (0..rng.range_usize(1, 4)).map(|_| rng.next_u64()).collect(),
            },
            Frame::GetDone {
                var: rng.next_u64(),
                version: rng.next_u64(),
            },
            Frame::Evict {
                var: rng.next_u64(),
                version: rng.next_u64(),
            },
            Frame::RunWave {
                wave: rng.range_u32(0, 1024),
            },
            Frame::Barrier {
                wave: rng.range_u32(0, 1024),
                node: rng.range_u32(0, 64),
            },
            Frame::Report(arb_report(rng)),
            Frame::Shutdown {
                ok: rng.bool(),
                reason: arb_string(rng, 60),
            },
            Frame::Submit {
                name: arb_string(rng, 24),
                dag: arb_string(rng, 200),
                config: arb_string(rng, 200),
                strategy: arb_string(rng, 16),
                get_timeout_ms: rng.next_u64(),
                priority: rng.range_u32(0, 8),
            },
            Frame::Submitted {
                run: rng.next_u64(),
                queued_ahead: rng.range_u32(0, 64),
            },
            Frame::Cancel {
                run: rng.next_u64(),
            },
            Frame::Status {
                run: rng.next_u64(),
            },
            Frame::ListRuns,
            Frame::RunStatus(arb_run_summary(rng)),
            Frame::RunList {
                runs: (0..rng.range_usize(0, 5))
                    .map(|_| arb_run_summary(rng))
                    .collect(),
            },
            Frame::RunResult {
                run: rng.next_u64(),
            },
            Frame::RunReport {
                run: rng.next_u64(),
                state: *rng.choose(&RunState::ALL),
                ledger_json: arb_string(rng, 120),
                metrics_json: arb_string(rng, 120),
                profile_json: arb_string(rng, 120),
                errors: (0..rng.range_usize(0, 3))
                    .map(|_| arb_string(rng, 40))
                    .collect(),
            },
            Frame::RpcErr {
                message: arb_string(rng, 60),
            },
            Frame::Telemetry {
                node: rng.range_u32(0, 64),
                batch: rng.range_u32(0, 16),
                last: rng.bool(),
                dropped_events: rng.range_u64(0, 100),
                dropped_spans: rng.range_u64(0, 100),
                counters: (0..rng.range_usize(0, 4))
                    .map(|_| (arb_string(rng, 24), rng.next_u64()))
                    .collect(),
                events: (0..rng.range_usize(0, 6)).map(|_| arb_event(rng)).collect(),
            },
            Frame::TelemetryAck {
                node: rng.range_u32(0, 64),
                batch: rng.range_u32(0, 16),
            },
            Frame::Watch {
                run: rng.next_u64(),
                interval_ms: rng.range_u64(0, 10_000),
                once: rng.bool(),
            },
            Frame::Progress {
                run: rng.next_u64(),
                state: *rng.choose(&RunState::ALL),
                done: rng.bool(),
                wave: rng.range_u32(0, 64),
                waves: rng.range_u32(0, 64),
                pulls: rng.next_u64(),
                pull_bytes: rng.next_u64(),
                shm_wait_p50_us: rng.next_u64(),
                shm_wait_p99_us: rng.next_u64(),
                rdma_wait_p50_us: rng.next_u64(),
                rdma_wait_p99_us: rng.next_u64(),
                pulls_in_flight: rng.range_u64(0, 64),
                bytes_in_flight: rng.next_u64(),
                queue_depth: rng.range_u64(0, 1024),
                sub_active: rng.range_u64(0, 64),
                sub_pushes: rng.next_u64(),
                sub_lagged: rng.range_u64(0, 64),
                link_stalls: rng.range_u64(0, 8),
                health: (0..rng.range_usize(0, 3))
                    .map(|_| arb_string(rng, 40))
                    .collect(),
            },
            Frame::ShmOffer {
                src_node: rng.range_u32(0, 64),
                dst_node: rng.range_u32(0, 64),
                segment: rng.next_u64(),
                path: arb_string(rng, 48),
                slots: rng.range_u64(1, 1 << 16),
                arena_bytes: rng.next_u64(),
            },
            Frame::ShmAck {
                src_node: rng.range_u32(0, 64),
                dst_node: rng.range_u32(0, 64),
                segment: rng.next_u64(),
                seq: rng.next_u64(),
                attached: rng.bool(),
            },
            Frame::ShmDoorbell {
                src_node: rng.range_u32(0, 64),
                dst_node: rng.range_u32(0, 64),
                segment: rng.next_u64(),
                seq: rng.next_u64(),
            },
            Frame::Subscribe {
                sub_id: rng.next_u64(),
                var: rng.next_u64(),
                every_k: rng.range_u64(1, 16),
                subscriber: rng.range_u32(0, 256),
                lbs: (0..rng.range_usize(1, 4)).map(|_| rng.next_u64()).collect(),
                ubs: (0..rng.range_usize(1, 4)).map(|_| rng.next_u64()).collect(),
            },
            Frame::SubAck {
                sub_id: rng.next_u64(),
                to_node: rng.range_u32(0, 64),
            },
            Frame::SubPush {
                sub_id: rng.next_u64(),
                var: rng.next_u64(),
                version: rng.range_u64(0, 1024),
                src: rng.range_u32(0, 256),
                subscriber: rng.range_u32(0, 256),
                lbs: (0..rng.range_usize(1, 4)).map(|_| rng.next_u64()).collect(),
                ubs: (0..rng.range_usize(1, 4)).map(|_| rng.next_u64()).collect(),
                data: arb_bytes(rng, 128),
            },
            Frame::SubCancel {
                sub_id: rng.next_u64(),
            },
            Frame::SubLagged {
                sub_id: rng.next_u64(),
                version: rng.range_u64(0, 1024),
                subscriber: rng.range_u32(0, 256),
            },
        ]
    }

    fn arb_run_summary(rng: &mut SplitMix64) -> RunSummary {
        RunSummary {
            run: rng.next_u64(),
            name: arb_string(rng, 24),
            state: *rng.choose(&RunState::ALL),
            nodes: rng.range_u32(1, 16),
            detail: arb_string(rng, 40),
            link_stalls: rng.range_u64(0, 8),
            health: (0..rng.range_usize(0, 3))
                .map(|_| arb_string(rng, 32))
                .collect(),
        }
    }

    fn arb_event(rng: &mut SplitMix64) -> Event {
        let kind = match rng.range_u32(0, 14) {
            0 => EventKind::Put { indexed: false },
            1 => EventKind::Put { indexed: true },
            2 => EventKind::Get { cont: false },
            3 => EventKind::Get { cont: true },
            4 => EventKind::Schedule { hit: false },
            5 => EventKind::Schedule { hit: true },
            6 => EventKind::DhtLookup {
                cores: rng.range_u32(0, 64),
            },
            7 => EventKind::Pull {
                wait_us: rng.next_u64(),
            },
            8 => EventKind::Fault { kind: "drop-pull" },
            9 => EventKind::Fault {
                kind: "net-telemetry",
            },
            10 => EventKind::NetSend,
            11 => EventKind::NetRecv,
            12 => EventKind::SubPush,
            _ => EventKind::SubDeliver,
        };
        let mut e = Event::new(rng.range_u64(1, 1 << 40), kind);
        if rng.bool() {
            e.parent = Some(rng.range_u64(1, 1 << 40));
        }
        e.app = rng.range_u32(0, 8);
        e.var = rng.next_u64();
        e.version = rng.range_u64(0, 64);
        if rng.bool() {
            let ndim = rng.range_usize(1, insitu_domain::MAX_DIMS + 1);
            let lbs: Vec<u64> = (0..ndim).map(|_| rng.range_u64(0, 100)).collect();
            let ubs: Vec<u64> = lbs.iter().map(|&l| l + rng.range_u64(0, 50)).collect();
            e.bbox = Some(insitu_domain::BoundingBox::new(&lbs, &ubs));
        }
        if rng.bool() {
            e.src = Some(rng.range_u32(0, 256));
        }
        if rng.bool() {
            e.dst = Some(rng.range_u32(0, 256));
        }
        e.link = match rng.range_u32(0, 3) {
            0 => None,
            1 => Some(LinkClass::Shm),
            _ => Some(LinkClass::Rdma),
        };
        e.piece = rng.next_u64();
        e.bytes = rng.next_u64() >> 8;
        e.start_us = rng.next_u64() >> 16;
        e.duration_us = rng.next_u64() >> 16;
        e.pid = rng.range_u32(0, 16);
        e
    }

    #[test]
    fn every_message_type_round_trips() {
        forall(64, |rng| {
            for frame in arb_frames(rng) {
                let wire = frame.encode();
                let len = u32::from_le_bytes(wire[..4].try_into().unwrap());
                assert_eq!(len as usize, wire.len() - 4);
                let decoded = Frame::decode(wire[4], wire[5], &wire[6..]).unwrap();
                assert_eq!(decoded, frame, "round-trip of kind {}", frame.kind());
                // And via the stream reader.
                let mut cursor = std::io::Cursor::new(wire);
                assert_eq!(Frame::read_from(&mut cursor).unwrap(), frame);
            }
        });
    }

    #[test]
    fn truncation_at_every_boundary_is_rejected_not_panicking() {
        forall(16, |rng| {
            for frame in arb_frames(rng) {
                let wire = frame.encode();
                for cut in 6..wire.len() {
                    let err = Frame::decode(wire[4], wire[5], &wire[6..cut]).unwrap_err();
                    assert!(
                        matches!(err, FrameError::Truncated | FrameError::BadPayload(_)),
                        "cut at {cut} of kind {}: {err:?}",
                        frame.kind()
                    );
                }
            }
        });
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        forall(16, |rng| {
            for frame in arb_frames(rng) {
                let mut wire = frame.encode();
                wire.push(0xEE);
                assert_eq!(
                    Frame::decode(wire[4], wire[5], &wire[6..]),
                    Err(FrameError::BadPayload("trailing bytes")),
                    "kind {}",
                    frame.kind()
                );
            }
        });
    }

    #[test]
    fn bad_version_and_kind_are_rejected() {
        let wire = Frame::RunWave { wave: 3 }.encode();
        assert_eq!(
            Frame::decode(WIRE_VERSION + 1, wire[5], &wire[6..]),
            Err(FrameError::BadVersion(WIRE_VERSION + 1))
        );
        assert_eq!(
            Frame::decode(0, wire[5], &wire[6..]),
            Err(FrameError::BadVersion(0))
        );
        assert_eq!(
            Frame::decode(WIRE_VERSION, 0xEE, &wire[6..]),
            Err(FrameError::BadKind(0xEE))
        );
        assert_eq!(
            Frame::decode(WIRE_VERSION, 0, &wire[6..]),
            Err(FrameError::BadKind(0))
        );
    }

    #[test]
    fn oversized_length_word_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        wire.push(WIRE_VERSION);
        wire.push(KIND_RUN_WAVE);
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            Frame::read_from(&mut cursor),
            Err(FrameError::BadLength(MAX_FRAME_LEN + 1))
        );
        // Too-short length words (cannot hold version + kind) as well.
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(WIRE_VERSION);
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(Frame::read_from(&mut cursor), Err(FrameError::BadLength(1)));
    }

    #[test]
    fn hostile_element_counts_do_not_allocate() {
        // A DhtInsert whose lbs count claims u32::MAX elements.
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        put_u64(&mut p, 2);
        put_u32(&mut p, 3);
        put_u64(&mut p, 4);
        put_u32(&mut p, u32::MAX);
        assert_eq!(
            Frame::decode(WIRE_VERSION, KIND_DHT_INSERT, &p),
            Err(FrameError::Truncated)
        );
        // A RunList whose run count claims u32::MAX summaries.
        let mut p = Vec::new();
        put_u32(&mut p, u32::MAX);
        assert_eq!(
            Frame::decode(WIRE_VERSION, KIND_RUN_LIST, &p),
            Err(FrameError::Truncated)
        );
        // A Welcome whose peer count claims u32::MAX strings.
        let mut p = Vec::new();
        put_u32(&mut p, 2); // nodes
        put_str(&mut p, "s");
        put_u64(&mut p, 1); // get_timeout_ms
        put_str(&mut p, "");
        put_str(&mut p, "");
        put_u64(&mut p, 0); // run_epoch
        put_u32(&mut p, u32::MAX); // hostile peer count
        assert_eq!(
            Frame::decode(WIRE_VERSION, KIND_WELCOME, &p),
            Err(FrameError::Truncated)
        );
        // And a hostile host-fingerprint count after valid peers.
        let mut p = Vec::new();
        put_u32(&mut p, 2); // nodes
        put_str(&mut p, "s");
        put_u64(&mut p, 1); // get_timeout_ms
        put_str(&mut p, "");
        put_str(&mut p, "");
        put_u64(&mut p, 0); // run_epoch
        put_u32(&mut p, 0); // no peers
        put_u32(&mut p, u32::MAX); // hostile host count
        assert_eq!(
            Frame::decode(WIRE_VERSION, KIND_WELCOME, &p),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn invalid_run_state_byte_is_rejected() {
        let mut wire = Frame::RunStatus(RunSummary {
            run: 7,
            name: "x".into(),
            state: RunState::Running,
            nodes: 2,
            detail: String::new(),
            link_stalls: 0,
            health: Vec::new(),
        })
        .encode();
        // The state byte sits after run (8) + name len (4) + "x" (1).
        let state_at = 6 + 8 + 4 + 1;
        wire[state_at] = 0xEE;
        assert_eq!(
            Frame::decode(wire[4], wire[5], &wire[6..]),
            Err(FrameError::BadPayload("run state index"))
        );
        assert_eq!(RunState::from_idx(5), None);
        for s in RunState::ALL {
            assert_eq!(RunState::from_idx(s.idx()), Some(s));
        }
    }

    #[test]
    fn truncated_stream_reports_truncation() {
        let wire = Frame::Hello {
            node: 1,
            peer_addr: String::new(),
            host: String::new(),
        }
        .encode();
        let mut cursor = std::io::Cursor::new(&wire[..wire.len() - 1]);
        assert_eq!(Frame::read_from(&mut cursor), Err(FrameError::Truncated));
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(Frame::read_from(&mut empty), Err(FrameError::Truncated));
    }

    /// A random permuted multiset of frames (1–3 copies of a random
    /// subset of every message type), modelling a coalesced write run.
    fn arb_batch(rng: &mut SplitMix64) -> Vec<Frame> {
        let mut batch = Vec::new();
        for _ in 0..rng.range_usize(1, 4) {
            for frame in arb_frames(rng) {
                if rng.bool() {
                    batch.push(frame);
                }
            }
        }
        // Fisher–Yates so batches are not grouped by kind.
        for i in (1..batch.len()).rev() {
            batch.swap(i, rng.range_usize(0, i + 1));
        }
        batch
    }

    /// Feed `wire` to a decoder in chunks split at `cuts` (ascending
    /// byte offsets), draining after every chunk; return all frames.
    fn decode_split(wire: &[u8], cuts: &[usize]) -> Vec<Frame> {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut at = 0;
        for &cut in cuts.iter().chain(std::iter::once(&wire.len())) {
            dec.push(&wire[at..cut]);
            at = cut;
            while let Some(f) = dec.next_frame().expect("valid batch bytes") {
                out.push(f);
            }
        }
        assert_eq!(dec.pending(), 0, "undecoded bytes left over");
        out
    }

    #[test]
    fn batched_frames_split_at_arbitrary_boundaries_decode_identically() {
        forall(48, |rng| {
            let batch = arb_batch(rng);
            let wire = encode_batch(&batch);
            // One-shot.
            assert_eq!(decode_split(&wire, &[]), batch);
            // Byte-at-a-time.
            let every: Vec<usize> = (1..wire.len()).collect();
            assert_eq!(decode_split(&wire, &every), batch);
            // Random split points.
            let mut cuts: Vec<usize> = (0..rng.range_usize(0, 9))
                .map(|_| rng.range_usize(0, wire.len() + 1))
                .collect();
            cuts.sort_unstable();
            cuts.dedup();
            assert_eq!(decode_split(&wire, &cuts), batch);
        });
    }

    #[test]
    fn decoder_surfaces_mid_batch_corruption_after_prior_frames() {
        forall(24, |rng| {
            let good = arb_batch(rng);
            let mut wire = encode_batch(&good);
            let tail_at = wire.len();
            // Append a frame with a corrupted version byte mid-batch.
            let mut bad = Frame::RunWave { wave: 9 }.encode();
            bad[4] = WIRE_VERSION + 1;
            wire.extend_from_slice(&bad);
            wire.extend_from_slice(&Frame::ListRuns.encode());

            let mut dec = FrameDecoder::new();
            // Feed in two chunks split inside the bad frame to prove
            // the error only fires once the frame is complete.
            let cut = tail_at + 2;
            dec.push(&wire[..cut]);
            let mut seen = Vec::new();
            while let Some(f) = dec.next_frame().unwrap() {
                seen.push(f);
            }
            assert_eq!(seen, good, "all frames before the corruption decode");
            dec.push(&wire[cut..]);
            let err = loop {
                match dec.next_frame() {
                    Ok(Some(f)) => seen.push(f),
                    Ok(None) => panic!("corruption not surfaced"),
                    Err(e) => break e,
                }
            };
            assert_eq!(seen, good);
            assert_eq!(err, FrameError::BadVersion(WIRE_VERSION + 1));
            // Poisoned: the error is sticky even after more (valid) bytes.
            dec.push(&Frame::ListRuns.encode());
            assert_eq!(
                dec.next_frame(),
                Err(FrameError::BadVersion(WIRE_VERSION + 1))
            );
        });
    }

    #[test]
    fn decoder_rejects_oversized_and_short_length_words_mid_batch() {
        let mut wire = encode_batch(&[Frame::ListRuns, Frame::RunWave { wave: 1 }]);
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        wire.extend_from_slice(&[WIRE_VERSION, KIND_RUN_WAVE]);
        let mut dec = FrameDecoder::new();
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Ok(Some(Frame::ListRuns)));
        assert_eq!(dec.next_frame(), Ok(Some(Frame::RunWave { wave: 1 })));
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::BadLength(MAX_FRAME_LEN + 1))
        );

        // A length word too short to hold version + kind.
        let mut dec = FrameDecoder::new();
        let mut wire = Frame::ListRuns.encode();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(WIRE_VERSION);
        dec.push(&wire);
        assert_eq!(dec.next_frame(), Ok(Some(Frame::ListRuns)));
        assert_eq!(dec.next_frame(), Err(FrameError::BadLength(1)));
    }

    #[test]
    fn decoder_truncation_mid_batch_waits_for_more_bytes() {
        let frames = [
            Frame::GetDone { var: 1, version: 2 },
            Frame::Evict { var: 3, version: 4 },
        ];
        let wire = encode_batch(&frames);
        let mut dec = FrameDecoder::new();
        // Everything except the last byte: first frame decodes, second
        // is incomplete — not an error, just "need more".
        dec.push(&wire[..wire.len() - 1]);
        assert_eq!(dec.next_frame(), Ok(Some(frames[0].clone())));
        assert_eq!(dec.next_frame(), Ok(None));
        assert!(dec.pending() > 0);
        dec.push(&wire[wire.len() - 1..]);
        assert_eq!(dec.next_frame(), Ok(Some(frames[1].clone())));
        assert_eq!(dec.next_frame(), Ok(None));
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn data_plane_classification() {
        let pd = Frame::PullData {
            name: 9,
            version: 1,
            piece: (3u64 << 32) | 7,
            owner: 3,
            to_node: 0,
            data: vec![1, 2, 3],
        };
        assert!(pd.is_data_plane());
        assert!(pd.fault_eligible());
        assert_eq!(pd.fault_ids(), (9, (3u64 << 32) | 7));
        assert!(!Frame::RunWave { wave: 0 }.is_data_plane());
        assert!(!Frame::RunWave { wave: 0 }.fault_eligible());
        assert_eq!(Frame::RunWave { wave: 0 }.fault_ids(), (0, 0));
        // Telemetry is fault-eligible (droppable observability) but
        // NOT data plane: it must not count toward pull routing gates.
        let tel = Frame::Telemetry {
            node: 2,
            batch: 5,
            last: true,
            dropped_events: 0,
            dropped_spans: 0,
            counters: Vec::new(),
            events: Vec::new(),
        };
        assert!(!tel.is_data_plane());
        assert!(tel.fault_eligible());
        assert_eq!(tel.fault_ids(), (2, 5));
        assert_eq!(tel.kind(), KIND_TELEMETRY);
        // The shm frames are control plane: not data plane (the bytes
        // ride the segment, not the wire) and never fault-eligible (the
        // `shm-attach` chaos site fires at create/attach instead).
        let bell = Frame::ShmDoorbell {
            src_node: 1,
            dst_node: 0,
            segment: 1 << 32,
            seq: 3,
        };
        assert!(!bell.is_data_plane());
        assert!(!bell.fault_eligible());
        let offer = Frame::ShmOffer {
            src_node: 1,
            dst_node: 0,
            segment: 1 << 32,
            path: "/dev/shm/insitu-1-2-s1-d0".into(),
            slots: 256,
            arena_bytes: 1 << 23,
        };
        assert!(!offer.is_data_plane() && !offer.fault_eligible());
        // A standing-query push is NOT data plane (it must not count
        // toward the pull routing gates) and NOT wire-fault-eligible:
        // the chaos `sub-push` site fires in the shared put path, so a
        // seed drops the same fragments with or without a wire.
        let push = Frame::SubPush {
            sub_id: 0xfeed,
            var: 9,
            version: 4,
            src: 1,
            subscriber: 6,
            lbs: vec![0, 0],
            ubs: vec![3, 3],
            data: vec![0; 16],
        };
        assert!(!push.is_data_plane());
        assert!(!push.fault_eligible());
        assert_eq!(push.kind(), KIND_SUB_PUSH);
        let sub = Frame::Subscribe {
            sub_id: 0xfeed,
            var: 9,
            every_k: 2,
            subscriber: 6,
            lbs: vec![0],
            ubs: vec![7],
        };
        assert!(!sub.is_data_plane() && !sub.fault_eligible());
        assert!(
            !Frame::SubCancel { sub_id: 1 }.fault_eligible()
                && !Frame::SubAck {
                    sub_id: 1,
                    to_node: 0
                }
                .fault_eligible()
                && !Frame::SubLagged {
                    sub_id: 1,
                    version: 0,
                    subscriber: 2
                }
                .fault_eligible()
        );
    }

    #[test]
    fn hostile_telemetry_counts_do_not_allocate() {
        // A Telemetry frame whose counter count claims u32::MAX.
        let mut p = Vec::new();
        put_u32(&mut p, 1); // node
        put_u32(&mut p, 0); // batch
        p.push(1); // last
        put_u64(&mut p, 0); // dropped_events
        put_u64(&mut p, 0); // dropped_spans
        put_u32(&mut p, u32::MAX); // hostile counter count
        assert_eq!(
            Frame::decode(WIRE_VERSION, KIND_TELEMETRY, &p),
            Err(FrameError::Truncated)
        );
        // And a hostile event count.
        let mut p = Vec::new();
        put_u32(&mut p, 1);
        put_u32(&mut p, 0);
        p.push(1);
        put_u64(&mut p, 0);
        put_u64(&mut p, 0);
        put_u32(&mut p, 0); // no counters
        put_u32(&mut p, u32::MAX); // hostile event count
        assert_eq!(
            Frame::decode(WIRE_VERSION, KIND_TELEMETRY, &p),
            Err(FrameError::Truncated)
        );
    }

    #[test]
    fn hostile_event_bbox_is_rejected_not_panicking() {
        // An event whose bbox corners are inverted (lb > ub) must be a
        // decode error — BoundingBox::new would panic on it.
        let event = Event::new(1, EventKind::NetSend);
        let frame = Frame::Telemetry {
            node: 0,
            batch: 0,
            last: true,
            dropped_events: 0,
            dropped_spans: 0,
            counters: Vec::new(),
            events: vec![event],
        };
        let mut wire = frame.encode();
        // The bbox flag sits after node(4)+batch(4)+last(1)+drops(16)+
        // counter count(4)+event count(4)+seq(8)+parent(8)+kind(1)+
        // app(4)+var(8)+version(8) of payload (frame header is 6).
        let flag_at = 6 + 4 + 4 + 1 + 16 + 4 + 4 + 8 + 8 + 1 + 4 + 8 + 8;
        assert_eq!(wire[flag_at], 0, "located the bbox flag");
        wire[flag_at] = 1;
        // lbs = [5], ubs = [2]: inverted.
        let mut corners = Vec::new();
        put_u64s(&mut corners, &[5]);
        put_u64s(&mut corners, &[2]);
        wire.splice(flag_at + 1..flag_at + 1, corners);
        let len = (wire.len() - 4) as u32;
        wire[..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(
            Frame::decode(wire[4], wire[5], &wire[6..]),
            Err(FrameError::BadPayload("bbox corners"))
        );
    }

    #[test]
    fn fault_slugs_intern_to_known_kinds() {
        assert_eq!(intern_fault_slug("drop-pull"), "drop-pull");
        assert_eq!(intern_fault_slug("net-telemetry"), "net-telemetry");
        assert_eq!(intern_fault_slug("some-future-kind"), "fault");
        // Round-trip through the wire keeps the static slug.
        let frame = Frame::Telemetry {
            node: 0,
            batch: 0,
            last: true,
            dropped_events: 0,
            dropped_spans: 0,
            counters: Vec::new(),
            events: vec![Event::new(1, EventKind::Fault { kind: "link-slow" })],
        };
        let wire = frame.encode();
        let decoded = Frame::decode(wire[4], wire[5], &wire[6..]).unwrap();
        assert_eq!(decoded, frame);
    }
}
