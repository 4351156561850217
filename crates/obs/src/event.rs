//! The flight-recorder event schema.
//!
//! Every event carries the full coupling tag `(app, var, version, bbox,
//! src, dst, link_class)` plus a window on the run's timeline and an
//! optional causal parent (the `seq` of the enclosing event). Producer
//! puts are joined to consumer pulls by the *piece key*
//! `(var, version, owner, piece)` — the same key the staging registry
//! and DHT use — so causal chains survive even when the two ends were
//! recorded by different threads.

use insitu_domain::BoundingBox;
use insitu_fabric::{ClientId, Locality};

/// Which side of the fabric a transfer used, in the sense of the paper's
/// breakdown: intra-node shared memory vs inter-node RDMA.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkClass {
    /// Intra-node transfer via shared memory.
    Shm,
    /// Inter-node transfer across the torus (modeled as RDMA).
    Rdma,
}

impl LinkClass {
    /// Stable lowercase name for reports and metric keys.
    pub fn slug(self) -> &'static str {
        match self {
            LinkClass::Shm => "shm",
            LinkClass::Rdma => "rdma",
        }
    }

    /// Map the ledger's [`Locality`] onto a link class.
    pub fn from_locality(loc: Locality) -> LinkClass {
        match loc {
            Locality::SharedMemory => LinkClass::Shm,
            Locality::Network => LinkClass::Rdma,
        }
    }
}

/// What an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A producer staged one piece (`put_cont` / `put_seq`).
    Put {
        /// True for `put_seq` (piece also indexed in the DHT).
        indexed: bool,
    },
    /// A consumer-side retrieve (`get_cont` / `get_seq`); the causal
    /// root of schedule, DHT and pull children.
    Get {
        /// True for `get_cont` (schedule derived from the decomposition
        /// instead of a DHT query).
        cont: bool,
    },
    /// Schedule computation for a get.
    Schedule {
        /// True when served from the schedule cache.
        hit: bool,
    },
    /// A DHT lookup performed for a `get_seq` schedule miss.
    DhtLookup {
        /// Number of DHT cores queried.
        cores: u32,
    },
    /// One pull of a staged piece into the consumer's buffer. The
    /// window covers wait + copy; `wait_us` is the queueing delay until
    /// the piece was available, the remainder is the copy/transfer.
    Pull {
        /// Queueing delay in microseconds.
        wait_us: u64,
    },
    /// A chaos-injected fault observed at an instrumented site (slug
    /// from the chaos fault plan, e.g. `"drop-pull"`).
    Fault {
        /// Fault-kind slug.
        kind: &'static str,
    },
    /// A `PullData` payload left this process on the wire. The window
    /// covers serialization + enqueue on the sender; `src` is the owner
    /// client, `dst` the requesting client. Matched against the
    /// receiving process's [`EventKind::NetRecv`] by
    /// `(src, dst, var, version, piece)` when traces are merged.
    NetSend,
    /// A `PullData` payload arrived from the wire. After cross-process
    /// merge its `parent` points at the matching [`EventKind::NetSend`]
    /// on the sending process — the stitched edge that lets causal
    /// chains span process boundaries.
    NetRecv,
    /// A standing-query push fragment left the producer's put path
    /// toward a subscriber (`src` = producing client, `dst` =
    /// subscribing client, `piece` = subscription id). Parented to the
    /// originating [`EventKind::Put`], so put→push→deliver chains
    /// render as one causal tree.
    SubPush,
    /// A subscriber's sink completed assembly of one pushed version
    /// (`dst` = subscribing client, `piece` = subscription id).
    SubDeliver,
}

impl EventKind {
    /// Stable event name, used as the chrome slice name.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Put { indexed: false } => "obs.put_cont",
            EventKind::Put { indexed: true } => "obs.put_seq",
            EventKind::Get { cont: true } => "obs.get_cont",
            EventKind::Get { cont: false } => "obs.get_seq",
            EventKind::Schedule { hit: true } => "obs.schedule_hit",
            EventKind::Schedule { hit: false } => "obs.schedule_miss",
            EventKind::DhtLookup { .. } => "obs.dht_lookup",
            EventKind::Pull { .. } => "obs.pull",
            EventKind::Fault { .. } => "obs.fault",
            EventKind::NetSend => "obs.net_send",
            EventKind::NetRecv => "obs.net_recv",
            EventKind::SubPush => "obs.sub_push",
            EventKind::SubDeliver => "obs.sub_deliver",
        }
    }
}

/// One structured flight-recorder event.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// Monotone sequence number (unique per recorder; 1-based).
    pub seq: u64,
    /// Causal parent (`seq` of the enclosing event), if any.
    pub parent: Option<u64>,
    /// What happened.
    pub kind: EventKind,
    /// Application id.
    pub app: u32,
    /// Variable id the operation concerns.
    pub var: u64,
    /// Dataset version (iteration).
    pub version: u64,
    /// Geometric region, when the operation has one.
    pub bbox: Option<BoundingBox>,
    /// Source client (producer / owner of the pulled piece).
    pub src: Option<ClientId>,
    /// Destination client (consumer).
    pub dst: Option<ClientId>,
    /// Link classification, when the operation moved bytes.
    pub link: Option<LinkClass>,
    /// Piece id within `(var, version, owner)`.
    pub piece: u64,
    /// Originating process lane in a merged multi-process trace:
    /// `node + 1` for a joiner, `0` for a single-process run (assigned
    /// by the merge; recorders always emit `0`).
    pub pid: u32,
    /// Payload bytes moved (or staged).
    pub bytes: u64,
    /// Window start, microseconds from the recorder epoch.
    pub start_us: u64,
    /// Window length in microseconds.
    pub duration_us: u64,
}

impl Event {
    /// A new event with every tag empty.
    pub fn new(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            parent: None,
            kind,
            app: 0,
            var: 0,
            version: 0,
            bbox: None,
            src: None,
            dst: None,
            link: None,
            piece: 0,
            pid: 0,
            bytes: 0,
            start_us: 0,
            duration_us: 0,
        }
    }

    /// Set the causal parent.
    pub fn parent(mut self, seq: u64) -> Event {
        self.parent = Some(seq);
        self
    }

    /// Set the application id.
    pub fn app(mut self, app: u32) -> Event {
        self.app = app;
        self
    }

    /// Set the variable id.
    pub fn var(mut self, var: u64) -> Event {
        self.var = var;
        self
    }

    /// Set the dataset version.
    pub fn version(mut self, version: u64) -> Event {
        self.version = version;
        self
    }

    /// Set the geometric region.
    pub fn bbox(mut self, bbox: BoundingBox) -> Event {
        self.bbox = Some(bbox);
        self
    }

    /// Set the source client.
    pub fn src(mut self, src: ClientId) -> Event {
        self.src = Some(src);
        self
    }

    /// Set the destination client.
    pub fn dst(mut self, dst: ClientId) -> Event {
        self.dst = Some(dst);
        self
    }

    /// Set the link class.
    pub fn link(mut self, link: LinkClass) -> Event {
        self.link = Some(link);
        self
    }

    /// Set the piece id.
    pub fn piece(mut self, piece: u64) -> Event {
        self.piece = piece;
        self
    }

    /// Set the process lane for merged traces.
    pub fn pid(mut self, pid: u32) -> Event {
        self.pid = pid;
        self
    }

    /// Set the payload size.
    pub fn bytes(mut self, bytes: u64) -> Event {
        self.bytes = bytes;
        self
    }

    /// Set the timeline window.
    pub fn window(mut self, start_us: u64, duration_us: u64) -> Event {
        self.start_us = start_us;
        self.duration_us = duration_us;
        self
    }

    /// End of the event's window.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.duration_us
    }

    /// The piece key joining producer puts to consumer pulls:
    /// `(var, version, owner, piece)`. `Some` only for puts (owner =
    /// `src`) and pulls (owner = `src`, the client the piece was pulled
    /// from).
    pub fn piece_key(&self) -> Option<(u64, u64, ClientId, u64)> {
        match self.kind {
            EventKind::Put { .. } | EventKind::Pull { .. } => self
                .src
                .map(|owner| (self.var, self.version, owner, self.piece)),
            _ => None,
        }
    }

    /// The chrome track this event renders on: the consumer for
    /// gets/pulls, the producer for puts, 0 otherwise.
    pub(crate) fn track(&self) -> u64 {
        match self.kind {
            EventKind::Put { .. } | EventKind::NetSend | EventKind::SubPush => {
                self.src.unwrap_or(0) as u64
            }
            _ => self.dst.or(self.src).unwrap_or(0) as u64,
        }
    }

    /// The cross-process stitch key for `PullData` wire hops:
    /// `(src, dst, var, version, piece)`. `Some` only for
    /// [`EventKind::NetSend`] / [`EventKind::NetRecv`] events with both
    /// endpoints tagged.
    pub(crate) fn wire_key(&self) -> Option<(ClientId, ClientId, u64, u64, u64)> {
        match self.kind {
            EventKind::NetSend | EventKind::NetRecv => match (self.src, self.dst) {
                (Some(src), Some(dst)) => Some((src, dst, self.var, self.version, self.piece)),
                _ => None,
            },
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_class_mapping() {
        assert_eq!(
            LinkClass::from_locality(Locality::SharedMemory),
            LinkClass::Shm
        );
        assert_eq!(LinkClass::from_locality(Locality::Network), LinkClass::Rdma);
        assert_eq!(LinkClass::Shm.slug(), "shm");
        assert_eq!(LinkClass::Rdma.slug(), "rdma");
    }

    #[test]
    fn piece_key_joins_put_and_pull() {
        let put = Event::new(1, EventKind::Put { indexed: false })
            .var(7)
            .version(3)
            .src(2)
            .piece(5);
        let pull = Event::new(9, EventKind::Pull { wait_us: 10 })
            .var(7)
            .version(3)
            .src(2)
            .dst(6)
            .piece(5);
        assert_eq!(put.piece_key(), pull.piece_key());
        assert_eq!(put.piece_key(), Some((7, 3, 2, 5)));
        let get = Event::new(2, EventKind::Get { cont: true }).var(7);
        assert_eq!(get.piece_key(), None);
    }

    #[test]
    fn tracks_follow_data_direction() {
        let put = Event::new(1, EventKind::Put { indexed: true }).src(3);
        assert_eq!(put.track(), 3);
        let pull = Event::new(2, EventKind::Pull { wait_us: 0 }).src(3).dst(8);
        assert_eq!(pull.track(), 8);
        let send = Event::new(3, EventKind::NetSend).src(3).dst(8);
        assert_eq!(send.track(), 3);
        let recv = Event::new(4, EventKind::NetRecv).src(3).dst(8);
        assert_eq!(recv.track(), 8);
    }

    #[test]
    fn wire_key_joins_send_and_recv() {
        let send = Event::new(1, EventKind::NetSend)
            .src(2)
            .dst(6)
            .var(7)
            .version(3)
            .piece(5);
        let recv = Event::new(9, EventKind::NetRecv)
            .src(2)
            .dst(6)
            .var(7)
            .version(3)
            .piece(5);
        assert_eq!(send.wire_key(), recv.wire_key());
        assert_eq!(send.wire_key(), Some((2, 6, 7, 3, 5)));
        // Non-wire events and untagged wire events have no stitch key.
        assert_eq!(
            Event::new(2, EventKind::Pull { wait_us: 0 })
                .src(2)
                .dst(6)
                .wire_key(),
            None
        );
        assert_eq!(Event::new(3, EventKind::NetSend).src(2).wire_key(), None);
    }
}
