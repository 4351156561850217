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
//! with a `u32` byte-length prefix; byte vectors and vectors of any
//! other field type carry a `u32` element-count prefix.
//!
//! Each message is described **once**, in the `frames!` table below:
//! kind byte, variant, and `field: Type` list in wire order. The table
//! generates the [`Frame`] enum, [`Frame::kind`], the payload writer
//! and reader and the tests' one-frame-per-kind generator; how a *type*
//! crosses the wire is the private `Wire` trait, implemented once per
//! field type. DESIGN.md §9.1 has the recipe for adding a message.
//!
//! Decoding is total: malformed input of any shape — truncated
//! payloads, oversized length words, unknown versions or kinds, hostile
//! element counts, trailing garbage — returns a [`FrameError`], never
//! panics, so a confused or hostile peer cannot take the process down.

use insitu_domain::BoundingBox;
use insitu_fabric::{FaultKind, LedgerSnapshot, Locality, TrafficClass};
use insitu_obs::{Event, EventKind, LinkClass};
use insitu_util::Recycled;
use std::io::{Read, Write};

/// Protocol revision; bumped on any incompatible codec change.
/// Version 2 added the service RPC frames and a run-epoch key salt in
/// `Welcome`; version 3 added `Hello::peer_addr` and `Welcome::peers`
/// for the direct node↔node data plane; version 4 added the telemetry plane
/// (`Telemetry` and kind 26, its ack, since retired: shipment is
/// unpaced), live run streaming (`Watch`/`Progress`) and the
/// `RunSummary` link-health fields; version 5 added the intra-host
/// shared-memory data plane (`Hello::host`, `Welcome::hosts`,
/// `ShmOffer`/`ShmAck`/`ShmDoorbell`); version 6 added the
/// standing-query plane (`SubPush`, now reserved, and kinds 32, 33, 35
/// and 36, since retired); version 7 dropped the `Welcome` salt: every
/// run owns its hub, joiners and spaces, so no key space is shared.
pub const WIRE_VERSION: u8 = 7;

/// Upper bound on `len`: rejects absurd length words before any
/// allocation happens (a 256 MiB frame comfortably fits the largest
/// paper-scale piece). Senders refuse to stage a frame past it.
pub const MAX_FRAME_LEN: u32 = 256 << 20;

/// Codec failures. Every variant is a rejection — the codec never
/// panics on wire input.
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
    /// A blocking read's timeout passed before a whole frame arrived.
    TimedOut,
    /// An outbound frame would exceed [`MAX_FRAME_LEN`], so every peer
    /// would reject it; the sender refuses it and writes nothing.
    TooLong {
        /// Kind byte of the refused frame.
        kind: u8,
        /// Its length after the length word, in bytes.
        len: u64,
    },
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
            FrameError::TimedOut => write!(f, "no whole frame within the read timeout"),
            FrameError::TooLong { kind, len } => write!(
                f,
                "frame kind {kind} of {len} bytes exceeds the {MAX_FRAME_LEN}-byte frame limit; not sent"
            ),
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
    /// Accepted, waiting for admission (max-runs or the node budget).
    Queued,
    /// Executing, each of its nodes on a joiner thread of its own.
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

/// Expands the frame table into the [`Frame`] enum and everything that
/// must agree with it field for field. An entry reads
/// `kind => Variant { field: Type, .. }`, `kind => Variant` (no
/// payload) or `kind => Variant(name: Type)` (the payload is one
/// structured value); fields cross the wire in the order listed, each
/// through its type's `Wire` impl.
macro_rules! frames {
    (
        $(#[$enum_meta:meta])*
        pub enum Frame {$(
            $(#[$meta:meta])*
            $kind:literal => $name:ident
                $({ $( $(#[$field_meta:meta])* $field:ident: $ty:ty ),* $(,)? })?
                $(( $body:ident: $body_ty:ty ))?
        ),* $(,)?}
    ) => {
        $(#[$enum_meta])*
        pub enum Frame {$(
            $(#[$meta])*
            $name $({ $( $(#[$field_meta])* $field: $ty ),* })? $(( $body_ty ))?
        ),*}

        impl Frame {
            /// The kind byte this frame encodes with.
            pub fn kind(&self) -> u8 {
                match self {
                    $( Frame::$name { .. } => $kind ),*
                }
            }

            /// Append the payload: every field, in table order.
            fn put_payload(&self, out: &mut Vec<u8>) {
                match self {$(
                    Frame::$name $({ $($field),* })? $(( $body ))? => {
                        $($( $field.put(out); )*)?
                        $( $body.put(out); )?
                    }
                ),*}
            }

            /// Read the payload of a `kind` frame, field by field.
            fn take_payload(kind: u8, c: &mut &[u8]) -> Result<Frame, FrameError> {
                Ok(match kind {
                    $(
                        $kind => Frame::$name
                            $({ $( $field: Wire::take(c)? ),* })?
                            $(( <$body_ty as Wire>::take(c)? ))?,
                    )*
                    other => return Err(FrameError::BadKind(other)),
                })
            }

            /// One arbitrary frame of every kind, in table order.
            #[cfg(test)]
            fn arb_each(rng: &mut insitu_util::rng::SplitMix64) -> Vec<Frame> {
                use tests::Arb;
                vec![$(
                    Frame::$name
                        $({ $( $field: Arb::arb(rng) ),* })?
                        $(( <$body_ty as Arb>::arb(rng) ))?
                ),*]
            }
        }
    };
}

// Kinds 4, 7, 26, 32, 33, 35 and 36 are retired (`PutNotify`,
// `PullNack`, the telemetry batch ack, `Subscribe`, `SubAck`,
// `SubCancel`, `SubLagged`: nothing sends them). They decode as
// unknown kinds, and are never reused.
frames! {
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
    1 => Hello {
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
    2 => Welcome {
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
    3 => Relay {
        /// Destination client.
        to: u32,
        /// Source client.
        src: u32,
        /// Message tag.
        tag: u64,
        /// Message payload.
        payload: Vec<u8>,
    },
    /// Consumer joiner → server → owner joiner: request one buffer.
    5 => PullRequest {
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
    6 => PullData {
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
    /// Joiner → server → all other joiners: mirror of a local DHT
    /// insert, so every replica answers location queries identically.
    8 => DhtInsert {
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
    9 => GetDone {
        /// Variable name hash.
        var: u64,
        /// Version.
        version: u64,
    },
    /// Joiner → server → all other joiners: versions of `var` up to and
    /// including `version` were evicted.
    10 => Evict {
        /// Variable name hash.
        var: u64,
        /// Highest evicted version.
        version: u64,
    },
    /// Server → joiners: all of wave `wave`'s dispatch relays precede
    /// this frame on each connection; start executing local tasks.
    11 => RunWave {
        /// Wave index.
        wave: u32,
    },
    /// Joiner → server: all local tasks of `wave` finished and their
    /// mirror frames precede this frame on the connection.
    12 => Barrier {
        /// Wave index.
        wave: u32,
        /// Reporting node.
        node: u32,
    },
    /// Joiner → server: final per-process outcome.
    13 => Report(report: NodeReport),
    /// Server → joiners: the run is over; close down.
    14 => Shutdown {
        /// Whether the run completed successfully.
        ok: bool,
        /// Human-readable reason (empty on success).
        reason: String,
    },
    /// Client → service: enqueue a new workflow run.
    15 => Submit {
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
    16 => Submitted {
        /// Assigned run id.
        run: u64,
        /// Runs ahead of this one in the admission queue.
        queued_ahead: u32,
    },
    /// Client → service: cancel a queued or running run.
    17 => Cancel {
        /// Run to cancel.
        run: u64,
    },
    /// Client → service: ask for one run's summary.
    18 => Status {
        /// Run to describe.
        run: u64,
    },
    /// Client → service: ask for every run's summary.
    19 => ListRuns,
    /// Service → client: one run's summary (answer to `Status` and
    /// `Cancel`).
    20 => RunStatus(summary: RunSummary),
    /// Service → client: all runs (answer to `ListRuns`).
    21 => RunList {
        /// Every run the service knows, in submission order.
        runs: Vec<RunSummary>,
    },
    /// Client → service: ask for a completed run's artifacts.
    22 => RunResult {
        /// Run whose artifacts to fetch.
        run: u64,
    },
    /// Service → client: a run's artifacts (answer to `RunResult`).
    /// JSON fields are empty until the run reaches a terminal state.
    23 => RunReport {
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
    24 => RpcErr {
        /// Human-readable reason.
        message: String,
    },
    /// Joiner → server: one bounded batch of the joiner's flight
    /// recording plus (on the last batch) its metrics counters — the
    /// telemetry plane's unit of shipping. Batches ride the same FIFO
    /// connection as control traffic but are sized so they can never
    /// starve data frames, and they are fault-eligible: a dropped batch
    /// costs trace completeness, not run correctness.
    25 => Telemetry {
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
        /// Reserved since the span tracer left: senders write 0, the
        /// hub ignores it. Kept so wire v7 stays byte-identical.
        dropped_spans: u64,
        /// Metrics counters `(name, value)` at snapshot time; only
        /// populated on the last batch.
        counters: Vec<(String, u64)>,
        /// The flight events of this batch, in recording order.
        events: Vec<Event>,
    },
    /// Client → service: subscribe to periodic run-progress frames.
    27 => Watch {
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
    28 => Progress {
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
    29 => ShmOffer {
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
    30 => ShmAck {
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
    31 => ShmDoorbell {
        /// Producer's node.
        src_node: u32,
        /// Consumer's node.
        dst_node: u32,
        /// Directed-pair segment id.
        segment: u64,
        /// Ring head sequence after the publish.
        seq: u64,
    },
    /// Reserved, no sender: a standing query's push is the producer's
    /// staged piece sent as a `PullData` nobody requested, which lands
    /// in the subscriber's registry and sinks. Kept so wire v7 stays
    /// byte-identical; hub and link refuse it as unexpected.
    34 => SubPush {
        /// Target subscription.
        sub_id: u64,
        /// Variable key (`var_id`).
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
}
}

/// The length word for a frame whose version, kind and payload occupy
/// `len` bytes — or the refusal its sender reports, since every
/// receiver would reject the frame (and past 4 GiB the word would
/// wrap).
fn length_word(kind: u8, len: usize) -> Result<u32, FrameError> {
    u32::try_from(len)
        .ok()
        .filter(|&word| word <= MAX_FRAME_LEN)
        .ok_or(FrameError::TooLong {
            kind,
            len: len as u64,
        })
}

impl Frame {
    /// The frame's bulk tail: the byte vector that ends a `Relay` or a
    /// `PullData` — on the wire a count, then payload to the frame's
    /// end. The reactor moves it out, the decoder a payload in.
    pub(crate) fn bulk_mut(&mut self) -> Option<&mut Vec<u8>> {
        match self {
            Frame::Relay { payload: bulk, .. } | Frame::PullData { data: bulk, .. } => Some(bulk),
            _ => None,
        }
    }

    /// Append the complete wire frame (length word included) to `out`
    /// in one pass, returning its size on the wire — how senders stage
    /// frames back to back without a buffer per frame. A frame over
    /// [`MAX_FRAME_LEN`] is refused: `out` is rolled back to what it
    /// held and the error names the kind and size. A frame whose bulk
    /// tail was moved out says so with `tail`, the payload bytes its
    /// sender puts on the wire right behind what this appends: length
    /// word, count and the size returned include them.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>, tail: usize) -> Result<usize, FrameError> {
        let start = out.len();
        out.extend_from_slice(&[0, 0, 0, 0, WIRE_VERSION, self.kind()]);
        self.put_payload(out);
        let word = length_word(self.kind(), out.len() - start - 4 + tail)
            .inspect_err(|_| out.truncate(start))?;
        out[start..start + 4].copy_from_slice(&word.to_le_bytes());
        if tail > 0 {
            // The emptied tail encoded as a zero count, the last word.
            let count = out.len() - 4;
            out[count..].copy_from_slice(&(tail as u32).to_le_bytes());
        }
        Ok(out.len() - start + tail)
    }

    /// Encode to a complete wire frame (length word included).
    ///
    /// # Panics
    /// Panics if the frame exceeds [`MAX_FRAME_LEN`]; a sender that can
    /// meet such a frame stages it with `Frame::encode_into`.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out, 0)
            .expect("frame within MAX_FRAME_LEN");
        out
    }

    /// Decode one frame body (`version`, `kind` and `payload` — the
    /// bytes after the length word). Rejects trailing payload bytes.
    pub fn decode(version: u8, kind: u8, payload: &[u8]) -> Result<Frame, FrameError> {
        if version != WIRE_VERSION {
            return Err(FrameError::BadVersion(version));
        }
        let mut rest = payload;
        let frame = Frame::take_payload(kind, &mut rest)?;
        if !rest.is_empty() {
            return Err(FrameError::BadPayload("trailing bytes"));
        }
        Ok(frame)
    }

    /// Read one complete frame from a blocking stream, with its size on
    /// the wire (length word included) for byte accounting.
    ///
    /// Stream errors map to [`FrameError::Io`]; a clean EOF *before* the
    /// length word also maps to `Io` (connection closed), and an
    /// expired read timeout to [`FrameError::TimedOut`]. Malformed
    /// content is rejected with the corresponding decode error.
    pub(crate) fn read_counted(r: &mut impl Read) -> Result<(Frame, usize), FrameError> {
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

    /// Write the encoded frame to a blocking stream; a frame over
    /// [`MAX_FRAME_LEN`] is refused before any byte is written.
    pub fn write_to(&self, w: &mut impl Write) -> Result<usize, FrameError> {
        let mut bytes = Vec::new();
        self.encode_into(&mut bytes, 0)?;
        w.write_all(&bytes)
            .and_then(|_| w.flush())
            .map_err(|e| FrameError::Io(e.to_string()))?;
        Ok(bytes.len())
    }
}

/// Bytes of a `PullData` frame that precede its payload: length word,
/// version, kind, the five integer fields and the payload's count.
const PULL_DATA_HEAD: usize = 42;
const KIND_PULL_DATA: u8 = 6;

/// Incremental frame decoder over an arbitrarily-chunked byte stream.
///
/// The reactor lets it read whatever the socket has buffered — which may
/// end mid-frame, or hold several coalesced frames — with
/// [`read_from`](FrameDecoder::read_from) (a caller that holds the bytes
/// hands them to [`push`](FrameDecoder::push)) and drains complete
/// frames with [`next_frame`](FrameDecoder::next_frame). Decoding is
/// total: malformed input surfaces as a [`FrameError`] exactly as the
/// blocking [`recv_frame`](crate::recv_frame) would report it, after
/// which the connection is poisoned (every subsequent `next` repeats the
/// error) — a protocol error leaves no way to re-synchronise the stream.
///
/// A `PullData` is decoded in place: behind a head [`Frame::decode`]
/// would accept, the payload vector is allocated at its exact size and
/// filled where it stays, by `read_from` straight off the stream. Any
/// other frame — a `PullData` whose head is off in any way included —
/// waits in the buffer until it is whole and `Frame::decode` judges it.
#[derive(Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
    /// A `PullData` being decoded in place: the frame, its payload, and
    /// the length that fills to. Nothing is buffered behind it till then.
    bulk: Option<(Frame, Vec<u8>, usize)>,
    /// `PullData` payload bytes copied in user space, for whoever
    /// reports them to take: what `push` brought of one, twice if it
    /// crossed the pending buffer. Fed by `read_from` alone: 0.
    pub(crate) copied: u64,
    poisoned: Option<FrameError>,
}

impl FrameDecoder {
    /// A decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Append freshly-read bytes to the pending buffer.
    pub fn push(&mut self, mut bytes: &[u8]) {
        if let Some((_, payload, want)) = &mut self.bulk {
            let (mine, rest) = bytes.split_at(bytes.len().min(*want - payload.len()));
            payload.extend_from_slice(mine);
            self.copied += mine.len() as u64;
            bytes = rest;
        }
        // Compact before growing: drop the prefix already consumed by
        // decoded frames so the buffer stays bounded by one frame plus
        // one socket read.
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// One `read` of `r` — into a filling payload if there is one, else
    /// through `scratch` — returning the bytes read, 0 at end of stream.
    /// Called with every frame drained, it stops short of any payload
    /// decodable in place: none ever crosses `scratch`.
    pub fn read_from(&mut self, r: &mut impl Read, scratch: &mut [u8]) -> std::io::Result<usize> {
        let filling = self.bulk.as_mut().filter(|bulk| bulk.1.len() < bulk.2);
        if let Some((_, payload, want)) = filling {
            // Exactly the room the vector has left: it never grows. An
            // error behind some bytes comes again with the next call.
            let had = payload.len();
            let end = r.take((*want - had) as u64).read_to_end(payload);
            let got = payload.len() - had;
            return if got > 0 { Ok(got) } else { end };
        }
        // To the end of the frame being buffered and one `PullData` head
        // beyond; to the end of that head alone while it is being.
        let rest = &self.buf[self.pos..];
        let limit = match rest {
            [a, b, c, d, _, kind, ..]
                if *kind != KIND_PULL_DATA || rest.len() >= PULL_DATA_HEAD =>
            {
                let total = 4 + u32::from_le_bytes([*a, *b, *c, *d]) as usize;
                total.saturating_sub(rest.len()) + PULL_DATA_HEAD
            }
            _ => PULL_DATA_HEAD - rest.len(),
        };
        let limit = limit.min(scratch.len());
        let n = r.read(&mut scratch[..limit])?;
        self.push(&scratch[..n]);
        Ok(n)
    }

    /// Bytes buffered but not yet decoded.
    #[cfg(test)]
    fn pending(&self) -> usize {
        self.buf.len() - self.pos + self.bulk.as_ref().map_or(0, |b| PULL_DATA_HEAD + b.1.len())
    }

    /// Decode the next complete frame, `Ok(None)` when more bytes are
    /// needed, or the (sticky) protocol error.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        if let Some(err) = &self.poisoned {
            return Err(err.clone());
        }
        if self.bulk.is_none() {
            let rest = &self.buf[self.pos..];
            if rest.len() < 4 {
                return Ok(None);
            }
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
            if !(2..=MAX_FRAME_LEN).contains(&len) {
                return Err(self.poison(FrameError::BadLength(len)));
            }
            let total = 4 + len as usize;
            if let Some(head) = pull_data_head(rest, total) {
                // What the buffer holds of the payload was copied into
                // it, and is copied out.
                let want = total - PULL_DATA_HEAD;
                let have = &rest[PULL_DATA_HEAD..rest.len().min(total)];
                let mut payload = Recycled::with_capacity(want).into_vec();
                payload.extend_from_slice(have);
                self.copied += 2 * have.len() as u64;
                self.pos += PULL_DATA_HEAD + have.len();
                self.bulk = Some((head, payload, want));
            } else if rest.len() < total {
                return Ok(None);
            } else {
                let body = &rest[4..total];
                return match Frame::decode(body[0], body[1], &body[2..]) {
                    Ok(frame) => {
                        self.pos += total;
                        Ok(Some(frame))
                    }
                    Err(e) => Err(self.poison(e)),
                };
            }
        }
        let full = self
            .bulk
            .take_if(|(_, payload, want)| payload.len() == *want);
        Ok(full.map(|(mut frame, payload, _)| {
            *frame.bulk_mut().expect("PullData has a bulk tail") = payload;
            frame
        }))
    }

    fn poison(&mut self, err: FrameError) -> FrameError {
        self.poisoned = Some(err.clone());
        err
    }
}

/// The `PullData`, its payload left empty, whose head `rest` — the
/// buffered start of a frame `total` bytes long — holds, if
/// [`Frame::decode`] would accept the frame whatever its payload. `None`
/// for any other kind, a head not all there yet, and a head that is off.
fn pull_data_head(rest: &[u8], total: usize) -> Option<Frame> {
    let head = rest.get(..PULL_DATA_HEAD)?;
    let count = u32::from_le_bytes(head[38..].try_into().expect("four bytes")) as usize;
    if head[5] != KIND_PULL_DATA || total.checked_sub(PULL_DATA_HEAD) != Some(count) {
        return None;
    }
    // The table's own reader, over the fields and an empty payload.
    let mut empty = [0u8; PULL_DATA_HEAD - 6];
    empty[..32].copy_from_slice(&head[6..38]);
    Frame::decode(head[4], KIND_PULL_DATA, &empty).ok()
}

fn read_exact(r: &mut impl Read, buf: &mut [u8]) -> Result<(), FrameError> {
    r.read_exact(buf).map_err(|e| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => FrameError::Truncated,
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => FrameError::TimedOut,
        _ => FrameError::Io(e.to_string()),
    })
}

/// Split the next `n` bytes off the unread payload `c`.
fn take<'a>(c: &mut &'a [u8], n: usize) -> Result<&'a [u8], FrameError> {
    if c.len() < n {
        return Err(FrameError::Truncated);
    }
    let (head, rest) = c.split_at(n);
    *c = rest;
    Ok(head)
}

/// The next payload byte.
fn take_u8(c: &mut &[u8]) -> Result<u8, FrameError> {
    Ok(take(c, 1)?[0])
}

/// How one field type crosses the wire. Every frame field and every
/// structured payload goes through an impl of this trait, so a layout
/// rule — and the guard on element counts — is stated once.
trait Wire: Sized {
    /// Fewest bytes one value can occupy: what lets `Vec<T>` refuse an
    /// element count the remaining payload cannot hold before reading
    /// a single element. Every type occupies at least a byte; types
    /// that travel in vectors state their real minimum.
    const MIN_LEN: usize = 1;

    /// Append this value's encoding.
    fn put(&self, out: &mut Vec<u8>);

    /// Read one value off the front of the unread payload.
    fn take(c: &mut &[u8]) -> Result<Self, FrameError>;
}

/// Little-endian fixed-width integers.
macro_rules! wire_int {
    ($($int:ty),*) => {$(
        impl Wire for $int {
            const MIN_LEN: usize = std::mem::size_of::<$int>();

            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }

            fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
                let bytes = take(c, Self::MIN_LEN)?;
                Ok(<$int>::from_le_bytes(bytes.try_into().expect("take returned MIN_LEN bytes")))
            }
        }
    )*};
}
wire_int!(u32, u64);

/// One byte, 0 or 1.
impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        match take_u8(c)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(FrameError::BadPayload("bool")),
        }
    }
}

/// A `u32` byte count, then the bytes, copied once in either direction.
impl Wire for Vec<u8> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self);
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        let n = u32::take(c)? as usize;
        let bytes = take(c, n)?;
        let mut out = Recycled::with_capacity(n).into_vec();
        out.extend_from_slice(bytes);
        Ok(out)
    }
}

/// UTF-8 bytes behind a `u32` byte count.
impl Wire for String {
    const MIN_LEN: usize = 4;

    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        String::from_utf8(Vec::take(c)?).map_err(|_| FrameError::BadPayload("utf-8"))
    }
}

/// A `u32` element count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        for item in self {
            item.put(out);
        }
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        let n = u32::take(c)? as usize;
        // The one hostile-count guard: a count of u32::MAX in a
        // six-byte payload must not allocate, let alone OOM.
        if c.len() < n.saturating_mul(T::MIN_LEN) {
            return Err(FrameError::Truncated);
        }
        (0..n).map(|_| T::take(c)).collect()
    }
}

/// A presence byte (0 or 1), then the value if present.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(value) = self {
            value.put(out);
        }
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        Ok(if bool::take(c)? {
            Some(T::take(c)?)
        } else {
            None
        })
    }
}

/// The state's wire byte ([`RunState::idx`]).
impl Wire for RunState {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(self.idx());
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        RunState::from_idx(take_u8(c)?).ok_or(FrameError::BadPayload("run state index"))
    }
}

/// A telemetry counter: name, then value.
impl Wire for (String, u64) {
    const MIN_LEN: usize = String::MIN_LEN + u64::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        Ok((String::take(c)?, u64::take(c)?))
    }
}

impl Wire for RunSummary {
    const MIN_LEN: usize = 3 * String::MIN_LEN + 2 * u64::MIN_LEN + u32::MIN_LEN + 1;

    fn put(&self, out: &mut Vec<u8>) {
        self.run.put(out);
        self.name.put(out);
        self.state.put(out);
        self.nodes.put(out);
        self.detail.put(out);
        self.link_stalls.put(out);
        self.health.put(out);
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        Ok(RunSummary {
            run: Wire::take(c)?,
            name: Wire::take(c)?,
            state: Wire::take(c)?,
            nodes: Wire::take(c)?,
            detail: Wire::take(c)?,
            link_stalls: Wire::take(c)?,
            health: Wire::take(c)?,
        })
    }
}

/// One per-application cell of a report's ledger: app, traffic class
/// byte, locality byte, bytes moved.
type LedgerCell = (u32, TrafficClass, Locality, u64);

impl Wire for LedgerCell {
    const MIN_LEN: usize = u32::MIN_LEN + 2 + u64::MIN_LEN;

    fn put(&self, out: &mut Vec<u8>) {
        let (app, class, loc, bytes) = self;
        app.put(out);
        out.push(class.idx() as u8);
        out.push(loc.idx() as u8);
        bytes.put(out);
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        let app = u32::take(c)?;
        let class = TrafficClass::from_idx(take_u8(c)? as usize)
            .ok_or(FrameError::BadPayload("traffic class index"))?;
        let loc = Locality::from_idx(take_u8(c)? as usize)
            .ok_or(FrameError::BadPayload("locality index"))?;
        Ok((app, class, loc, u64::take(c)?))
    }
}

/// The node, the ledger (four shared-memory totals, four network
/// totals, then the per-application cells) and the outcome fields.
impl Wire for NodeReport {
    fn put(&self, out: &mut Vec<u8>) {
        self.node.put(out);
        for cell in self
            .ledger
            .shm_cells()
            .iter()
            .chain(&self.ledger.net_cells())
        {
            cell.put(out);
        }
        self.ledger.per_app().collect::<Vec<LedgerCell>>().put(out);
        self.verify_failures.put(out);
        self.staged.put(out);
        self.gets.put(out);
        self.errors.put(out);
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        let node = u32::take(c)?;
        let mut total = || u64::take(c);
        let shm = [total()?, total()?, total()?, total()?];
        let net = [total()?, total()?, total()?, total()?];
        let per_app = Vec::<LedgerCell>::take(c)?;
        Ok(NodeReport {
            node,
            ledger: LedgerSnapshot::from_parts(shm, net, per_app),
            verify_failures: Wire::take(c)?,
            staged: Wire::take(c)?,
            gets: Wire::take(c)?,
            errors: Wire::take(c)?,
        })
    }
}

/// The two corners, each a `u64` vector. Corners that do not make a
/// box (empty, ragged, too many dimensions, `lb > ub`) are a payload
/// error: decoding never hands the panicking constructor wire input.
impl Wire for BoundingBox {
    fn put(&self, out: &mut Vec<u8>) {
        let dims = 0..self.ndim();
        dims.clone()
            .map(|d| self.lb(d))
            .collect::<Vec<u64>>()
            .put(out);
        dims.map(|d| self.ub(d)).collect::<Vec<u64>>().put(out);
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        let (lbs, ubs) = (Vec::<u64>::take(c)?, Vec::<u64>::take(c)?);
        BoundingBox::try_new(&lbs, &ubs).ok_or(FrameError::BadPayload("bbox corners"))
    }
}

/// One byte naming the event shape; the three kinds with an argument
/// encode it right after the byte.
impl Wire for EventKind {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(match self {
            EventKind::Put { indexed: false } => 0,
            EventKind::Put { indexed: true } => 1,
            EventKind::Get { cont: false } => 2,
            EventKind::Get { cont: true } => 3,
            EventKind::Schedule { hit: false } => 4,
            EventKind::Schedule { hit: true } => 5,
            EventKind::DhtLookup { .. } => 6,
            EventKind::Pull { .. } => 7,
            EventKind::Fault { .. } => 8,
            EventKind::NetSend => 9,
            EventKind::NetRecv => 10,
            EventKind::SubPush => 11,
            EventKind::SubDeliver => 12,
        });
        match self {
            EventKind::DhtLookup { cores } => cores.put(out),
            EventKind::Pull { wait_us } => wait_us.put(out),
            EventKind::Fault { kind } => kind.to_string().put(out),
            _ => {}
        }
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        Ok(match take_u8(c)? {
            0 => EventKind::Put { indexed: false },
            1 => EventKind::Put { indexed: true },
            2 => EventKind::Get { cont: false },
            3 => EventKind::Get { cont: true },
            4 => EventKind::Schedule { hit: false },
            5 => EventKind::Schedule { hit: true },
            6 => EventKind::DhtLookup {
                cores: Wire::take(c)?,
            },
            7 => EventKind::Pull {
                wait_us: Wire::take(c)?,
            },
            // A slug that names no kind (a newer peer's) reads as "fault".
            8 => EventKind::Fault {
                kind: FaultKind::from_slug(&String::take(c)?).map_or("fault", FaultKind::slug),
            },
            9 => EventKind::NetSend,
            10 => EventKind::NetRecv,
            11 => EventKind::SubPush,
            12 => EventKind::SubDeliver,
            _ => return Err(FrameError::BadPayload("event kind index")),
        })
    }
}

/// A flight event: seq, parent (seqs are 1-based, so 0 = none), kind,
/// app, var, version, optional bbox / src / dst, a link byte (0 = none,
/// 1 = shm, 2 = rdma), piece, bytes, start, duration, pid.
impl Wire for Event {
    const MIN_LEN: usize = 8 * u64::MIN_LEN + 2 * u32::MIN_LEN + 5;

    fn put(&self, out: &mut Vec<u8>) {
        self.seq.put(out);
        self.parent.unwrap_or(0).put(out);
        self.kind.put(out);
        self.app.put(out);
        self.var.put(out);
        self.version.put(out);
        self.bbox.put(out);
        self.src.put(out);
        self.dst.put(out);
        out.push(match self.link {
            None => 0,
            Some(LinkClass::Shm) => 1,
            Some(LinkClass::Rdma) => 2,
        });
        self.piece.put(out);
        self.bytes.put(out);
        self.start_us.put(out);
        self.duration_us.put(out);
        self.pid.put(out);
    }

    fn take(c: &mut &[u8]) -> Result<Self, FrameError> {
        let seq = u64::take(c)?;
        let parent = u64::take(c)?;
        let mut e = Event::new(seq, EventKind::take(c)?);
        e.parent = (parent != 0).then_some(parent);
        e.app = Wire::take(c)?;
        e.var = Wire::take(c)?;
        e.version = Wire::take(c)?;
        e.bbox = Wire::take(c)?;
        e.src = Wire::take(c)?;
        e.dst = Wire::take(c)?;
        e.link = match take_u8(c)? {
            0 => None,
            1 => Some(LinkClass::Shm),
            2 => Some(LinkClass::Rdma),
            _ => return Err(FrameError::BadPayload("link class index")),
        };
        e.piece = Wire::take(c)?;
        e.bytes = Wire::take(c)?;
        e.start_us = Wire::take(c)?;
        e.duration_us = Wire::take(c)?;
        e.pid = Wire::take(c)?;
        Ok(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_util::check::forall;
    use insitu_util::rng::SplitMix64;

    /// Test data driven by type: the frame table's field types alone
    /// decide what `Frame::arb_each` fills each field with.
    pub(super) trait Arb {
        fn arb(rng: &mut SplitMix64) -> Self;
    }

    impl Arb for u32 {
        fn arb(rng: &mut SplitMix64) -> Self {
            rng.next_u64() as u32
        }
    }

    impl Arb for u64 {
        fn arb(rng: &mut SplitMix64) -> Self {
            rng.next_u64()
        }
    }

    impl Arb for bool {
        fn arb(rng: &mut SplitMix64) -> Self {
            rng.bool()
        }
    }

    impl Arb for String {
        fn arb(rng: &mut SplitMix64) -> Self {
            let n = rng.range_usize(0, 48);
            (0..n)
                .map(|_| char::from_u32(rng.range_u32(32, 0x24F)).unwrap_or('x'))
                .collect()
        }
    }

    impl Arb for Vec<u8> {
        fn arb(rng: &mut SplitMix64) -> Self {
            let n = rng.range_usize(0, 128);
            (0..n).map(|_| rng.next_u64() as u8).collect()
        }
    }

    impl<T: Arb> Arb for Vec<T> {
        fn arb(rng: &mut SplitMix64) -> Self {
            (0..rng.range_usize(0, 5)).map(|_| T::arb(rng)).collect()
        }
    }

    impl Arb for (String, u64) {
        fn arb(rng: &mut SplitMix64) -> Self {
            (Arb::arb(rng), Arb::arb(rng))
        }
    }

    impl Arb for RunState {
        fn arb(rng: &mut SplitMix64) -> Self {
            *rng.choose(&RunState::ALL)
        }
    }

    impl Arb for RunSummary {
        fn arb(rng: &mut SplitMix64) -> Self {
            RunSummary {
                run: Arb::arb(rng),
                name: Arb::arb(rng),
                state: Arb::arb(rng),
                nodes: Arb::arb(rng),
                detail: Arb::arb(rng),
                link_stalls: Arb::arb(rng),
                health: Arb::arb(rng),
            }
        }
    }

    impl Arb for NodeReport {
        fn arb(rng: &mut SplitMix64) -> Self {
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
                node: Arb::arb(rng),
                ledger: LedgerSnapshot::from_parts(
                    std::array::from_fn(|_| rng.next_u64() >> 8),
                    std::array::from_fn(|_| rng.next_u64() >> 8),
                    per_app,
                ),
                verify_failures: Arb::arb(rng),
                staged: Arb::arb(rng),
                gets: Arb::arb(rng),
                errors: Arb::arb(rng),
            }
        }
    }

    impl Arb for Event {
        fn arb(rng: &mut SplitMix64) -> Self {
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
                e.bbox = Some(BoundingBox::new(&lbs, &ubs));
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
    }

    /// Every frame's wire bytes, back to back — what a connection's
    /// staged write buffer holds.
    fn encode_run(frames: &[Frame]) -> Vec<u8> {
        let mut out = Vec::new();
        for f in frames {
            f.encode_into(&mut out, 0).unwrap();
        }
        out
    }

    /// Kind bytes whose frames were deleted; none may be reused.
    const RETIRED: [u8; 7] = [4, 7, 26, 32, 33, 35, 36];

    #[test]
    fn every_message_type_round_trips() {
        forall(64, |rng| {
            let frames = Frame::arb_each(rng);
            let kinds: Vec<u8> = frames.iter().map(Frame::kind).collect();
            let live: Vec<u8> = (1..=34).filter(|k| !RETIRED.contains(k)).collect();
            assert_eq!(kinds, live, "one per kind");
            for frame in frames {
                let wire = frame.encode();
                let len = u32::from_le_bytes(wire[..4].try_into().unwrap());
                assert_eq!(len as usize, wire.len() - 4);
                let decoded = Frame::decode(wire[4], wire[5], &wire[6..]).unwrap();
                assert_eq!(decoded, frame, "round-trip of kind {}", frame.kind());
                // And via the stream reader.
                let mut cursor = std::io::Cursor::new(wire);
                assert_eq!(Frame::read_counted(&mut cursor).unwrap().0, frame);
            }
        });
    }

    #[test]
    fn truncation_at_every_boundary_is_rejected_not_panicking() {
        forall(16, |rng| {
            for frame in Frame::arb_each(rng) {
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
            for frame in Frame::arb_each(rng) {
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

    /// Kind bytes the hand-built payloads below are decoded as.
    const RUN_WAVE: u8 = 11;
    const DHT_INSERT: u8 = 8;
    const WELCOME: u8 = 2;
    const RUN_LIST: u8 = 21;

    #[test]
    fn oversized_length_word_is_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        wire.push(WIRE_VERSION);
        wire.push(RUN_WAVE);
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            Frame::read_counted(&mut cursor).unwrap_err(),
            FrameError::BadLength(MAX_FRAME_LEN + 1)
        );
        // Too-short length words (cannot hold version + kind) as well.
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(WIRE_VERSION);
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(
            Frame::read_counted(&mut cursor).unwrap_err(),
            FrameError::BadLength(1)
        );
    }

    #[test]
    fn outbound_length_is_checked_at_the_limit() {
        let max = MAX_FRAME_LEN as usize;
        assert_eq!(length_word(6, max), Ok(MAX_FRAME_LEN));
        let refused = length_word(6, max + 1).unwrap_err();
        let len = max as u64 + 1;
        assert_eq!(refused, FrameError::TooLong { kind: 6, len });
        // The refusal names the kind, the size and the limit.
        let text = refused.to_string();
        for part in ["kind 6".to_string(), len.to_string(), max.to_string()] {
            assert!(text.contains(&part), "{text}");
        }
        // Past 4 GiB the length word must not wrap into a valid one.
        assert!(length_word(6, (1 << 32) + 10).is_err());
    }

    #[test]
    fn hostile_element_counts_do_not_allocate() {
        // A DhtInsert whose lbs count claims u32::MAX elements.
        let mut p = Vec::new();
        1u64.put(&mut p);
        2u64.put(&mut p);
        3u32.put(&mut p);
        4u64.put(&mut p);
        u32::MAX.put(&mut p);
        assert_eq!(
            Frame::decode(WIRE_VERSION, DHT_INSERT, &p),
            Err(FrameError::Truncated)
        );
        // A RunList whose run count claims u32::MAX summaries.
        let mut p = Vec::new();
        u32::MAX.put(&mut p);
        assert_eq!(
            Frame::decode(WIRE_VERSION, RUN_LIST, &p),
            Err(FrameError::Truncated)
        );
        // A Welcome whose peer count claims u32::MAX strings.
        let mut p = Vec::new();
        2u32.put(&mut p); // nodes
        "s".to_string().put(&mut p);
        1u64.put(&mut p); // get_timeout_ms
        String::new().put(&mut p);
        String::new().put(&mut p);
        let valid_prefix = p.clone();
        u32::MAX.put(&mut p); // hostile peer count
        assert_eq!(
            Frame::decode(WIRE_VERSION, WELCOME, &p),
            Err(FrameError::Truncated)
        );
        // And a hostile host-fingerprint count after valid peers.
        let mut p = valid_prefix;
        0u32.put(&mut p); // no peers
        u32::MAX.put(&mut p); // hostile host count
        assert_eq!(
            Frame::decode(WIRE_VERSION, WELCOME, &p),
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
        assert_eq!(
            Frame::read_counted(&mut cursor).unwrap_err(),
            FrameError::Truncated
        );
        let mut empty = std::io::Cursor::new(Vec::<u8>::new());
        assert_eq!(
            Frame::read_counted(&mut empty).unwrap_err(),
            FrameError::Truncated
        );
    }

    /// A random permuted multiset of frames (1–3 copies of a random
    /// subset of every message type), modelling a coalesced write run.
    fn arb_batch(rng: &mut SplitMix64) -> Vec<Frame> {
        let mut batch = Vec::new();
        for _ in 0..rng.range_usize(1, 4) {
            for frame in Frame::arb_each(rng) {
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

    /// Up to eight ascending split points inside `0..=len`.
    fn arb_cuts(rng: &mut SplitMix64, len: usize) -> Vec<usize> {
        let mut cuts: Vec<usize> = (0..rng.range_usize(0, 9))
            .map(|_| rng.range_usize(0, len + 1))
            .collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts
    }

    /// Feed `wire` to a decoder in chunks split at `cuts` (ascending
    /// byte offsets), draining after every chunk. Returns the frames
    /// decoded and how the stream ended: the count of bytes left
    /// undecoded, or the protocol error — after which the decoder must
    /// stay poisoned whatever else arrives, which is checked here.
    fn decode_split(wire: &[u8], cuts: &[usize]) -> (Vec<Frame>, Result<usize, FrameError>) {
        let mut dec = FrameDecoder::new();
        let mut out = Vec::new();
        let mut at = 0;
        for &cut in cuts.iter().chain(std::iter::once(&wire.len())) {
            dec.push(&wire[at..cut]);
            at = cut;
            loop {
                match dec.next_frame() {
                    Ok(Some(f)) => out.push(f),
                    Ok(None) => break,
                    Err(e) => {
                        dec.push(&wire[at..]);
                        dec.push(&Frame::ListRuns.encode());
                        assert_eq!(dec.next_frame(), Err(e.clone()), "error is sticky");
                        return (out, Err(e));
                    }
                }
            }
        }
        (out, Ok(dec.pending()))
    }

    #[test]
    fn batched_frames_split_at_arbitrary_boundaries_decode_identically() {
        forall(48, |rng| {
            let batch = arb_batch(rng);
            let wire = encode_run(&batch);
            let whole = (batch, Ok(0));
            // One-shot.
            assert_eq!(decode_split(&wire, &[]), whole);
            // Byte-at-a-time.
            let every: Vec<usize> = (1..wire.len()).collect();
            assert_eq!(decode_split(&wire, &every), whole);
            // Random split points.
            assert_eq!(decode_split(&wire, &arb_cuts(rng, wire.len())), whole);
        });
    }

    /// Random bytes never panic the decoder, whether or not they start
    /// with a plausible header that steers them into a payload reader.
    #[test]
    fn fuzz_random_bytes_never_panic_the_decoder() {
        forall(512, |rng| {
            let mut wire = Vec::<u8>::arb(rng);
            if wire.len() >= 6 && rng.bool() {
                let len = (wire.len() - 4) as u32;
                wire[..4].copy_from_slice(&len.to_le_bytes());
                wire[4] = WIRE_VERSION;
                wire[5] = rng.range_u32(0, 40) as u8;
            }
            // Returning at all is the property.
            let _ = decode_split(&wire, &arb_cuts(rng, wire.len()));
        });
    }

    /// Valid byte runs with a few bytes flipped, a hostile `u32::MAX`
    /// count spliced in, or the tail cut off: the decoder never panics,
    /// never yields a frame after an error (`decode_split` checks the
    /// poisoning), and every frame that ends before the first damaged
    /// byte still decodes to what was sent.
    #[test]
    fn fuzz_damaged_batches_keep_the_undamaged_prefix() {
        forall(256, |rng| {
            let batch = arb_batch(rng);
            let mut wire = encode_run(&batch);
            let first_damaged = match rng.range_u32(0, 3) {
                0 => {
                    let at: Vec<usize> = (0..rng.range_usize(1, 5))
                        .map(|_| rng.range_usize(0, wire.len()))
                        .collect();
                    for &i in &at {
                        wire[i] ^= 1 << rng.range_u32(0, 8);
                    }
                    at.into_iter().min().unwrap()
                }
                1 => {
                    let at = rng.range_usize(0, wire.len() - 3);
                    wire[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
                    at
                }
                _ => {
                    wire.truncate(rng.range_usize(0, wire.len()));
                    wire.len()
                }
            };
            let (frames, _) = decode_split(&wire, &arb_cuts(rng, wire.len()));
            let mut end = 0;
            let intact = batch.iter().take_while(|f| {
                end += f.encode().len();
                end <= first_damaged
            });
            for (i, sent) in intact.enumerate() {
                assert_eq!(frames.get(i), Some(sent), "frame {i} precedes the damage");
            }
        });
    }

    /// What decoding the whole of `wire` at once yields, by
    /// [`Frame::decode`] alone: the reference the incremental decoder
    /// must agree with however the bytes reach it.
    fn decode_whole(wire: &[u8]) -> (Vec<Frame>, Result<usize, FrameError>) {
        let (mut out, mut rest) = (Vec::new(), wire);
        while rest.len() >= 4 {
            let len = u32::from_le_bytes(rest[..4].try_into().unwrap());
            if !(2..=MAX_FRAME_LEN).contains(&len) {
                return (out, Err(FrameError::BadLength(len)));
            }
            let Some(body) = rest.get(4..4 + len as usize) else {
                break;
            };
            match Frame::decode(body[0], body[1], &body[2..]) {
                Ok(frame) => out.push(frame),
                Err(e) => return (out, Err(e)),
            }
            rest = &rest[4 + len as usize..];
        }
        (out, Ok(rest.len()))
    }

    /// `wire` as a non-blocking socket would deliver it: nothing past
    /// the next of `cuts` until a read there has been refused once.
    struct Chunked<'a> {
        wire: &'a [u8],
        at: usize,
        cuts: std::collections::VecDeque<usize>,
    }

    impl Read for Chunked<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let end = self.cuts.front().copied().unwrap_or(self.wire.len());
            if self.at == end && self.cuts.pop_front().is_some() {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(end - self.at);
            buf[..n].copy_from_slice(&self.wire[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    /// [`decode_split`], the decoder reading the chunks itself — the
    /// way the reactor drives it. No payload byte may cross the scratch
    /// buffer on the way, which the copy count shows.
    fn decode_read(wire: &[u8], cuts: &[usize]) -> (Vec<Frame>, Result<usize, FrameError>) {
        let mut dec = FrameDecoder::new();
        let mut stream = Chunked {
            wire,
            at: 0,
            cuts: cuts.iter().copied().collect(),
        };
        let mut scratch = [0u8; 512];
        let mut out = Vec::new();
        loop {
            match dec.read_from(&mut stream, &mut scratch) {
                Ok(0) => break,
                Ok(_) => loop {
                    match dec.next_frame() {
                        Ok(Some(f)) => out.push(f),
                        Ok(None) => break,
                        Err(e) => return (out, Err(e)),
                    }
                },
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) => panic!("the chunked stream has no other error: {e}"),
            }
        }
        assert_eq!(
            std::mem::take(&mut dec.copied),
            0,
            "a payload byte was copied"
        );
        (out, Ok(dec.pending()))
    }

    /// [`arb_batch`] with bulk among the small: a few `PullData` whose
    /// payloads dwarf the scratch buffer and every socket read.
    fn arb_mixed_batch(rng: &mut SplitMix64) -> Vec<Frame> {
        let mut batch = arb_batch(rng);
        for _ in 0..rng.range_usize(0, 4) {
            let n = rng.range_usize(0, 200_000);
            let bulk = Frame::PullData {
                name: rng.next_u64(),
                version: rng.next_u64(),
                piece: rng.next_u64(),
                owner: rng.next_u64() as u32,
                to_node: rng.next_u64() as u32,
                data: (0..n).map(|i| (i * 31) as u8).collect(),
            };
            batch.insert(rng.range_usize(0, batch.len() + 1), bulk);
        }
        batch
    }

    /// The differential property: any frames, bulk and small, split at
    /// any points, pushed or read, intact or damaged, decode to the
    /// frames and the error of [`Frame::decode`] over the whole bytes.
    #[test]
    fn pushed_or_read_in_any_chunks_decodes_as_the_whole_bytes_do() {
        forall(64, |rng| {
            let batch = arb_mixed_batch(rng);
            let mut wire = encode_run(&batch);
            match rng.range_u32(0, 4) {
                0 => {
                    for _ in 0..rng.range_usize(1, 5) {
                        let at = rng.range_usize(0, wire.len());
                        wire[at] ^= 1 << rng.range_u32(0, 8);
                    }
                }
                1 => wire.truncate(rng.range_usize(0, wire.len())),
                _ => assert_eq!(decode_whole(&wire), (batch, Ok(0))),
            }
            let whole = decode_whole(&wire);
            let cuts = arb_cuts(rng, wire.len());
            assert_eq!(decode_split(&wire, &cuts), whole, "pushed, cut at {cuts:?}");
            assert_eq!(decode_read(&wire, &cuts), whole, "read, cut at {cuts:?}");
        });
    }

    /// A `PullData` head is irregular in every way one can be, and the
    /// stream cut mid-payload: each ends as it does for the whole bytes,
    /// poisoning included (which `decode_split` checks).
    #[test]
    fn irregular_pull_data_heads_get_the_whole_frame_errors() {
        let frame = Frame::PullData {
            name: 1,
            version: 2,
            piece: 3,
            owner: 4,
            to_node: 5,
            data: vec![7; 1000],
        };
        let sound = frame.encode();
        assert_eq!(sound.len(), PULL_DATA_HEAD + 1000);
        assert_eq!(frame.kind(), KIND_PULL_DATA);
        let patched = |at: usize, word: u32| {
            let mut wire = sound.clone();
            wire[at..at + 4].copy_from_slice(&word.to_le_bytes());
            wire.extend_from_slice(&Frame::ListRuns.encode());
            wire
        };
        let mut bad_version = patched(0, 1038);
        bad_version[4] = WIRE_VERSION + 1;
        let rows = [
            // The count claims more than the length word leaves, or less.
            (patched(38, 1001), Err(FrameError::Truncated)),
            (
                patched(38, 999),
                Err(FrameError::BadPayload("trailing bytes")),
            ),
            (patched(0, 1037), Err(FrameError::Truncated)),
            (bad_version, Err(FrameError::BadVersion(WIRE_VERSION + 1))),
            (
                patched(0, MAX_FRAME_LEN + 1),
                Err(FrameError::BadLength(MAX_FRAME_LEN + 1)),
            ),
            // Cut mid-payload: not an error, bytes the peer still owes.
            (sound[..500].to_vec(), Ok(500)),
        ];
        for (wire, end) in rows {
            assert_eq!(decode_whole(&wire), (Vec::new(), end.clone()));
            for cuts in [vec![], vec![PULL_DATA_HEAD], vec![6, 100, 400]] {
                assert_eq!(decode_split(&wire, &cuts), (Vec::new(), end.clone()));
                assert_eq!(decode_read(&wire, &cuts), (Vec::new(), end.clone()));
            }
        }
    }

    /// The payload of a `PullData` lands in a vector of exactly its
    /// size, and what `push` makes the decoder copy is counted: once if
    /// the payload arrives behind an accepted head, twice if it waited
    /// in the pending buffer beside it.
    #[test]
    fn pushed_payload_bytes_are_counted_and_the_vector_is_exact() {
        let wire = Frame::PullData {
            name: 1,
            version: 2,
            piece: 3,
            owner: 4,
            to_node: 5,
            data: vec![7; 5000],
        }
        .encode();
        for (head_first, copies) in [(true, 1), (false, 2)] {
            let mut dec = FrameDecoder::new();
            let mut rest = &wire[..];
            if head_first {
                dec.push(&wire[..PULL_DATA_HEAD]);
                assert_eq!(dec.next_frame(), Ok(None));
                rest = &wire[PULL_DATA_HEAD..];
            }
            dec.push(rest);
            let Ok(Some(Frame::PullData { data, .. })) = dec.next_frame() else {
                panic!("no PullData");
            };
            assert_eq!((data.len(), data.capacity()), (5000, 5000));
            assert_eq!(std::mem::take(&mut dec.copied), copies * 5000);
        }
    }

    /// A get reads a landed payload as `f64` cells in place and refuses
    /// one it cannot, so every `PullData` payload of whole cells must come
    /// out viewable as cells — decoded whole, pushed or read in place, cut
    /// anywhere, behind ragged payloads or none. The allocator's alignment
    /// is what this rests on: where it breaks, this fails, not a run.
    #[test]
    fn whole_cell_payloads_come_out_viewable_as_cells() {
        use insitu_cods::codec::{f64s_of_bytes, ELEM_BYTES};
        forall(48, |rng| {
            let mut batch = arb_batch(rng);
            for _ in 0..rng.range_usize(1, 6) {
                let len = match rng.range_u32(0, 3) {
                    0 => rng.range_usize(1, 40),
                    _ => rng.range_usize(1, 20_000) * ELEM_BYTES,
                };
                let bulk = Frame::PullData {
                    name: rng.next_u64(),
                    version: rng.next_u64(),
                    piece: rng.next_u64(),
                    owner: rng.next_u64() as u32,
                    to_node: rng.next_u64() as u32,
                    data: vec![0xa5; len],
                };
                batch.insert(rng.range_usize(0, batch.len() + 1), bulk);
            }
            let wire = encode_run(&batch);
            let cuts = arb_cuts(rng, wire.len());
            for (how, (frames, end)) in [
                ("decoded whole", decode_whole(&wire)),
                ("pushed", decode_split(&wire, &cuts)),
                ("read in place", decode_read(&wire, &cuts)),
            ] {
                assert_eq!(end, Ok(0), "{how}");
                for frame in frames {
                    let Frame::PullData { data, .. } = frame else {
                        continue;
                    };
                    if !data.is_empty() && data.len() % ELEM_BYTES == 0 {
                        assert!(
                            f64s_of_bytes(&data).is_some(),
                            "{how}: {} bytes at {:p} are not cells",
                            data.len(),
                            data.as_ptr()
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn decoder_surfaces_mid_batch_corruption_after_prior_frames() {
        forall(24, |rng| {
            let good = arb_batch(rng);
            let mut wire = encode_run(&good);
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
        let mut wire = encode_run(&[Frame::ListRuns, Frame::RunWave { wave: 1 }]);
        wire.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        wire.extend_from_slice(&[WIRE_VERSION, RUN_WAVE]);
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
        let wire = encode_run(&frames);
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

    /// Retired kind bytes decode as unknown kinds, whatever follows
    /// them: a frame given one of these numbers again would be read by
    /// an older peer as the message it used to be.
    #[test]
    fn retired_kinds_decode_as_unknown() {
        for kind in RETIRED {
            for payload in [&[][..], &[0u8; 64][..]] {
                assert_eq!(
                    Frame::decode(WIRE_VERSION, kind, payload),
                    Err(FrameError::BadKind(kind))
                );
            }
        }
    }

    #[test]
    fn hostile_telemetry_counts_do_not_allocate() {
        // A Telemetry frame whose counter count claims u32::MAX.
        let mut p = Vec::new();
        1u32.put(&mut p); // node
        0u32.put(&mut p); // batch
        true.put(&mut p); // last
        0u64.put(&mut p); // dropped_events
        0u64.put(&mut p); // dropped_spans
        u32::MAX.put(&mut p); // hostile counter count
        assert_eq!(
            Frame::decode(WIRE_VERSION, 25, &p),
            Err(FrameError::Truncated)
        );
        // And a hostile event count.
        let mut p = Vec::new();
        1u32.put(&mut p);
        0u32.put(&mut p);
        p.push(1);
        0u64.put(&mut p);
        0u64.put(&mut p);
        0u32.put(&mut p); // no counters
        u32::MAX.put(&mut p); // hostile event count
        assert_eq!(
            Frame::decode(WIRE_VERSION, 25, &p),
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
        vec![5u64].put(&mut corners);
        vec![2u64].put(&mut corners);
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
        let decode_slug = |slug: &'static str| {
            let frame = Frame::Telemetry {
                node: 0,
                batch: 0,
                last: true,
                dropped_events: 0,
                dropped_spans: 0,
                counters: Vec::new(),
                events: vec![Event::new(1, EventKind::Fault { kind: slug })],
            };
            let wire = frame.encode();
            match Frame::decode(wire[4], wire[5], &wire[6..]).unwrap() {
                Frame::Telemetry { events, .. } => events[0].kind,
                other => panic!("decoded {other:?}"),
            }
        };
        // Every kind's slug comes back as itself; a slug that names no
        // kind (a newer peer's) degrades to the generic "fault".
        for kind in FaultKind::ALL {
            assert_eq!(
                decode_slug(kind.slug()),
                EventKind::Fault { kind: kind.slug() }
            );
        }
        assert_eq!(
            decode_slug("some-future-kind"),
            EventKind::Fault { kind: "fault" }
        );
    }
}
