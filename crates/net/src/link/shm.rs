//! `Carrier::Shm`: the intra-host shared-memory data plane of a link
//! (DESIGN.md §13). Each [`Pair`] holds one peer node's [`DataPath`]
//! and the rings of both directions; the rest is the `NetLink` half of
//! the offer / doorbell / ack protocol — create and offer a segment,
//! push a pull answer into it, attach and drain the peer's, degrade to
//! the wire on a refused attach, unlink at teardown.

use super::{Carrier, DataPath, NetLink, Route};
use crate::frame::Frame;
use crate::reactor::Token;
use insitu_dart::BufKey;
use insitu_util::shm::{self, MapRegion, PushError, RecordDesc, Ring, RingMem, ShmMap};
use insitu_util::Bytes;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Descriptor slots per directed shm pair.
const SHM_SLOTS: u32 = 256;

/// Payload arena bytes per directed shm pair, sized for two versions
/// of a pair's traffic: a range is held from `push` until the consumer
/// node has *consumed* the version (its last declared get completed),
/// so one version can be in use while the next is pushed. The
/// `/dev/shm` budget is pairs × arena — 6 directed pairs × 8 MiB =
/// 48 MiB, inside a container's default 64 MiB; at 16 MiB the same six
/// pairs would need 96 MiB, to turn the last few skew-caused refusals
/// into ring pushes that save less than a socket hop each.
pub(super) const SHM_ARENA: u64 = 8 << 20;

/// Distinguishes segments created by different links in one process
/// (the in-process tests run every joiner as a thread, so pid alone
/// does not make names unique).
static SHM_NONCE: AtomicU64 = AtomicU64::new(1);

/// Fault/offer identity of the directed pair's segment. Derived from
/// the pair, not a counter, so a seeded chaos replay rolls the same
/// `shm-attach` verdicts run after run.
fn shm_segment_id(src: u32, dst: u32) -> u64 {
    ((src as u64) << 32) | dst as u64
}

/// This link's state for one node of the run: its [`DataPath`], and
/// the shared-memory rings while the carrier is [`Carrier::Shm`].
pub(super) struct Pair {
    /// `None` for this node itself ([`DataPath::Local`]).
    route: Option<Route>,
    /// The lock serializes push/doorbell against the ack handler, so a
    /// record is either in the ring when a refused attach resends
    /// `unconsumed`, or pushed after the carrier flipped to the wire —
    /// never lost.
    out: Mutex<Outbound>,
    /// Consumer side: the peer's ring, once its offer was accepted.
    inbound: Mutex<Option<Arc<Ring>>>,
}

/// What carries pull answers to the peer and, producer side, the
/// segment behind [`Carrier::Shm`].
struct Outbound {
    carrier: Carrier,
    /// Created and offered on the first pull answer headed to the peer;
    /// dropped when the carrier degrades.
    ring: Option<OutRing>,
}

struct OutRing {
    ring: Arc<Ring>,
    segment: u64,
    /// The segment's name; cleared by the early unlink once the
    /// consumer acks its attach.
    path: Option<PathBuf>,
}

impl Pair {
    pub(super) fn new(path: DataPath) -> Pair {
        let (route, carrier) = match path {
            DataPath::Local => (None, Carrier::Wire),
            DataPath::Remote { route, carrier } => (Some(route), carrier),
        };
        Pair {
            route,
            out: Mutex::new(Outbound {
                carrier,
                ring: None,
            }),
            inbound: Mutex::new(None),
        }
    }

    /// Where frames for the node leave; lock-free, a route never changes.
    pub(super) fn route(&self) -> Option<Route> {
        self.route
    }

    /// The node's path as it stands, a degraded carrier included.
    #[cfg(test)]
    pub(super) fn path(&self) -> DataPath {
        match self.route {
            None => DataPath::Local,
            Some(route) => DataPath::Remote {
                route,
                carrier: self.out.lock().unwrap().carrier,
            },
        }
    }
}

impl Outbound {
    /// The carrier degrades to the wire, for good.
    fn degrade(&mut self) {
        self.carrier = Carrier::Wire;
        self.ring = None;
    }
}

impl OutRing {
    fn unlink(&mut self) {
        if let Some(p) = self.path.take() {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl NetLink {
    /// Create the segment of the pair this node → `dst` and offer it to
    /// the consumer. Run once per destination, on the first pull answer
    /// headed there; `None` when the pair must use the wire.
    fn shm_create(&self, dst: u32, reply: Token) -> Option<OutRing> {
        let segment = shm_segment_id(self.node, dst);
        // Op-independent chaos verdict: the consumer rolls the same
        // (creator, segment) hash at attach, so a doomed pair skips
        // straight to the wire instead of staging records in a ring
        // nobody will ever drain.
        if self.injector.shm_attach_fails(self.node, segment) {
            return None;
        }
        let nonce = SHM_NONCE.fetch_add(1, Ordering::Relaxed);
        let path =
            shm::segment_dir().join(shm::segment_name(std::process::id(), nonce, self.node, dst));
        let Ok(map) = ShmMap::create(&path, Ring::required_len(SHM_SLOTS, SHM_ARENA)) else {
            // No mmap (non-unix), no space, no permission: the wire
            // still works.
            let _ = std::fs::remove_file(&path);
            return None;
        };
        let ring = Arc::new(Ring::create(
            RingMem::from_map(Arc::new(map)),
            SHM_SLOTS,
            SHM_ARENA,
        ));
        self.handle.send(
            reply,
            Frame::ShmOffer {
                src_node: self.node,
                dst_node: dst,
                segment,
                path: path.to_string_lossy().into_owned(),
                slots: SHM_SLOTS as u64,
                arena_bytes: SHM_ARENA,
            },
        );
        Some(OutRing {
            ring,
            segment,
            path: Some(path),
        })
    }

    /// Try to move one pull answer to `dst` through the pair's ring.
    /// Returns `true` when the record was published and doorbelled (the
    /// caller must not also send `PullData`), `false` when the caller
    /// must use the wire. Never waits: a ring with no free slot or arena
    /// range means the consumer still holds two versions' worth of
    /// records, and one socket hop for *this* record is cheaper than any
    /// cross-process wait — and keeps the pair lock, which concurrent
    /// answers to `dst` queue on, held for a copy at most. Records the
    /// `NetSend` between publish and doorbell, mirroring the wire
    /// path's record-before-send rule.
    pub(super) fn shm_send(&self, dst: u32, desc: RecordDesc, data: &[u8], reply: Token) -> bool {
        let Some(pair) = self.paths.get(dst as usize) else {
            return false;
        };
        let mut out = pair.out.lock().unwrap();
        if out.carrier == Carrier::Wire {
            return false;
        }
        if out.ring.is_none() {
            out.ring = self.shm_create(dst, reply);
        }
        let Some(OutRing { ring, segment, .. }) = &out.ring else {
            self.metrics.shm_fallbacks.inc();
            out.degrade();
            return false;
        };
        match ring.push(&desc, data) {
            Ok(seq) => {
                let key = BufKey {
                    name: desc.name,
                    version: desc.version,
                    piece: desc.piece,
                };
                let requester = self.client_of(dst);
                let bytes = data.len() as u64;
                self.wire_event(Carrier::Shm, key, desc.owner, requester, bytes, None);
                self.handle.send(
                    reply,
                    Frame::ShmDoorbell {
                        src_node: self.node,
                        dst_node: dst,
                        segment: *segment,
                        seq,
                    },
                );
                self.metrics.shm_frames.inc();
                self.metrics.shm_bytes.add(bytes);
                true
            }
            // This payload can never fit the arena; the pair itself
            // stays live for smaller records.
            Err(PushError::TooBig) => {
                self.metrics.shm_fallbacks.inc();
                false
            }
            // Backpressure is the ring itself: the refused record goes
            // over the wire now, later ones try the ring again.
            Err(PushError::SlotsFull | PushError::ArenaFull) => {
                self.metrics.shm_fallbacks.inc();
                self.metrics.shm_fallbacks_full.inc();
                false
            }
        }
    }

    /// Consumer side of a `ShmOffer`: attach the producer's segment.
    /// Returns whether the attach succeeded (the `ShmAck` verdict).
    pub(super) fn shm_accept(&self, src_node: u32, segment: u64, path: &str) -> bool {
        let Some(pair) = self.paths.get(src_node as usize) else {
            return false;
        };
        // Same hash the producer rolled at create; a one-sided chaos
        // plan still degrades cleanly through the nack.
        let attach = || {
            if self.injector.shm_attach_fails(src_node, segment) {
                return None;
            }
            let map = ShmMap::open(Path::new(path)).ok()?;
            Ring::attach(RingMem::from_map(Arc::new(map))).ok()
        };
        let Some(ring) = attach() else {
            self.metrics.shm_fallbacks.inc();
            return false;
        };
        *pair.inbound.lock().unwrap() = Some(Arc::new(ring));
        true
    }

    /// Consumer side of a `ShmDoorbell`: land every published record
    /// from the pair's ring whose owner its piece names. The payload is
    /// *not* copied — the landed [`Bytes`] borrows the mapping, and
    /// dropping its last clone releases the arena range back to the
    /// producer.
    pub(super) fn shm_drain(&self, src_node: u32) {
        let ring = match self.paths.get(src_node as usize) {
            Some(pair) => pair.inbound.lock().unwrap().clone(),
            None => None,
        };
        // No ring: the attach failed and our nack makes the producer
        // resend over the wire — the doorbell is moot.
        let Some(ring) = ring else { return };
        while let Some(rec) = ring.pop() {
            let t0 = self.flight.now_us();
            let key = BufKey {
                name: rec.desc.name,
                version: rec.desc.version,
                piece: rec.desc.piece,
            };
            let release_ring = Arc::clone(&ring);
            let range = rec.range;
            let region = MapRegion::new(
                ring.mem().clone(),
                rec.off,
                rec.len,
                Some(Box::new(move || release_ring.release(range))),
            );
            let data = Bytes::from_map(Arc::new(region));
            // Skipped like a misaddressed `PullData`: dropping `data`
            // hands its arena range back.
            if self.names_its_owner(key.piece, rec.desc.owner) {
                self.land(key, rec.desc.owner, data, Carrier::Shm, t0);
            }
        }
    }

    /// Producer side of a `ShmAck`. Attached: unlink the segment name
    /// early — the consumer holds its own mapping now, so a crash from
    /// here on leaks nothing. Refused: resend everything staged over
    /// the wire and degrade the pair's carrier for good.
    pub(super) fn shm_on_ack(&self, dst_node: u32, attached: bool, reply: Token) {
        let Some(pair) = self.paths.get(dst_node as usize) else {
            return;
        };
        let mut out = pair.out.lock().unwrap();
        let Some(staged) = &mut out.ring else { return };
        staged.unlink();
        if attached {
            return;
        }
        // The consumer never attached, so nothing was popped: every
        // staged record is still in `unconsumed`. The earlier
        // shm-classed `NetSend`s match the `NetRecv`s these wire copies
        // will produce (the merge matches by key, not link class).
        for rec in staged.ring.unconsumed() {
            self.metrics.shm_fallbacks.inc();
            // Sent from the segment itself: the view keeps it mapped.
            let view = MapRegion::new(staged.ring.mem().clone(), rec.off, rec.len, None);
            self.send_pull_data(reply, dst_node, rec.desc, Bytes::from_map(Arc::new(view)));
        }
        out.degrade();
    }

    /// Unlink any segment whose ack never arrived. The early unlink
    /// handles the common case; this catches runs torn down between
    /// offer and ack.
    pub(super) fn shm_teardown(&self) {
        for pair in &self.paths {
            if let Some(staged) = &mut pair.out.lock().unwrap().ring {
                staged.unlink();
            }
        }
    }
}
