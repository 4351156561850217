//! Standing queries: the push plane over CoDS. A subscription is
//! registered once; every later matching `put` fans its piece out from
//! inside the put path — into the subscriber's sink when it is hosted
//! here, as a pull answer nobody asked for otherwise, which lands in
//! the subscriber's registry and feeds its sink from there
//! ([`CodsSpace::apply_remote_piece`]).

use super::{buf_key, piece_id, CodsSpace};
use crate::codec::{f64s_of_bytes, ELEM_BYTES};
use crate::dht::var_id;
use insitu_dart::BufferHandle;
use insitu_domain::BoundingBox;
use insitu_fabric::{ClientId, FaultAction, FaultKind, TrafficClass};
use insitu_obs::{Event, EventKind};
use insitu_sub::{SubId, SubSink, SubSpec, TakeResult};
use insitu_util::Bytes;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The consumer end of one standing query registered through
/// [`CodsSpace::subscribe`]: pass it back to [`CodsSpace::sub_take`] to
/// block on pushed versions.
pub struct SubHandle {
    /// Deterministic subscription id ([`SubSpec::id`]).
    pub id: SubId,
    /// The registered query.
    pub spec: SubSpec,
    sink: Arc<SubSink>,
    app: u32,
}

impl SubHandle {
    /// Versions this subscription has lost to its bounded queue.
    pub fn lagged(&self) -> u64 {
        self.sink.lagged()
    }

    /// Fully assembled versions so far (delivered or later dropped).
    pub fn completed(&self) -> u64 {
        self.sink.completed()
    }

    /// Declare that `owner` puts piece `piece` as `bbox` every version,
    /// so a copy of it that lands from another process feeds this query.
    pub fn expect_piece(&self, owner: ClientId, piece: u64, bbox: &BoundingBox) {
        self.sink.expect(piece_id(owner, piece), *bbox);
    }
}

impl CodsSpace {
    /// Register a standing query for a subscriber hosted in this
    /// process: every subsequent matching `put` pushes the overlapping
    /// fragment into the returned handle's sink, where
    /// [`Self::sub_take`] assembles and delivers whole versions.
    ///
    /// Nothing is mirrored. In a distributed run every process compiles
    /// the same scenario, so each replica registers every subscription
    /// from its own copy — here where the subscriber runs, with
    /// [`Self::apply_remote_subscribe`] everywhere else — and no
    /// registration can race a put.
    ///
    /// # Panics
    /// Panics on `every_k == 0` — user-facing config validation rejects
    /// that before it reaches the space.
    pub fn subscribe(
        &self,
        client: ClientId,
        app: u32,
        var: &str,
        region: &BoundingBox,
        every_k: u64,
        queue_cap: usize,
    ) -> SubHandle {
        let spec = SubSpec {
            vid: var_id(var),
            region: *region,
            every_k,
            subscriber: client,
        };
        let entry = self.dart.subs().register(spec.clone());
        let sink = entry.attach_sink(queue_cap);
        self.sub_active.set(self.dart.subs().active());
        SubHandle {
            id: entry.id,
            spec,
            sink,
            app,
        }
    }

    /// Block until `version` of the subscribed region is fully assembled
    /// in `handle`'s sink, up to `timeout`. On [`TakeResult::Lagged`] or
    /// [`TakeResult::TimedOut`] the caller heals the gap with an
    /// ordinary `get` — the space stays policy-free about resync.
    pub fn sub_take(&self, handle: &SubHandle, version: u64, timeout: Duration) -> TakeResult {
        let res = handle.sink.take_version(version, Instant::now() + timeout);
        match &res {
            TakeResult::Data(data) => {
                self.sub_deliveries.inc();
                let flight = self.dart.flight();
                if flight.is_enabled() {
                    let now = flight.now_us();
                    flight.record(
                        Event::new(flight.next_seq(), EventKind::SubDeliver)
                            .app(handle.app)
                            .var(handle.spec.vid)
                            .version(version)
                            .bbox(handle.spec.region)
                            .dst(handle.spec.subscriber)
                            .piece(handle.id)
                            .bytes(data.len() as u64 * ELEM_BYTES as u64)
                            .window(now, 0),
                    );
                }
            }
            TakeResult::Lagged => self.sub_lagged_count.inc(),
            _ => {}
        }
        res
    }

    /// Fan a freshly put piece out to every matching standing query.
    ///
    /// This runs synchronously inside `put`, before the transport split:
    /// a subscriber hosted in this process gets the piece's cells — the
    /// staged bytes (`staged`), viewed in place — offered straight into
    /// its sink, which cuts its overlap; a subscriber's process elsewhere
    /// is sent the staged bytes once per put, however many of its queries
    /// match. The chaos `sub-push` site is consulted here — on the shared
    /// path — once per query, so an injected drop replays identically
    /// whether or not the subscriber sits behind the wire.
    #[allow(clippy::too_many_arguments)] // put_impl's identity plus the parent seq
    pub(super) fn push_to_subs(
        &self,
        client: ClientId,
        app: u32,
        vid: u64,
        version: u64,
        piece: u64,
        bbox: &BoundingBox,
        staged: Bytes,
        put_seq: u64,
    ) {
        let data = f64s_of_bytes(&staged).expect("staged bytes are 8-aligned cells");
        let injector = self.dart.injector();
        let flight = self.dart.flight();
        // The nodes this put's piece was already sent to.
        let mut sent: Vec<u32> = Vec::new();
        for entry in self.dart.subs().matching(vid, version) {
            let Some(overlap) = entry.spec.region.intersect(bbox) else {
                continue;
            };
            if matches!(
                injector.on_sub_push(vid, version, entry.spec.subscriber, piece),
                FaultAction::Drop
            ) {
                self.record_fault(FaultKind::SubPush, app, vid, version, client, piece);
                self.sub_push_drops.inc();
                continue;
            }
            let frag_bytes = overlap.num_cells() as u64 * ELEM_BYTES as u64;
            self.sub_pushes.inc();
            self.sub_push_bytes.add(frag_bytes);
            // Producer-side accounting, exactly once per fragment: the
            // remote replica lands pushes without re-accounting, so
            // merged ledgers match a single-process run byte for byte.
            self.dart.account(
                app,
                TrafficClass::InterApp,
                client,
                entry.spec.subscriber,
                frag_bytes,
            );
            if flight.is_enabled() {
                let now = flight.now_us();
                flight.record(
                    Event::new(flight.next_seq(), EventKind::SubPush)
                        .parent(put_seq)
                        .app(app)
                        .var(vid)
                        .version(version)
                        .bbox(overlap)
                        .src(client)
                        .dst(entry.spec.subscriber)
                        .piece(entry.id)
                        .bytes(frag_bytes)
                        .window(now, 0),
                );
            }
            match entry.sink() {
                Some(sink) => {
                    sink.offer(version, bbox, data);
                }
                None => {
                    let node = self.dart.placement().node_of(entry.spec.subscriber);
                    if !sent.contains(&node) {
                        sent.push(node);
                        // A pull answer nobody asked for; accounted above.
                        let key = buf_key(vid, version, client, piece);
                        let handle = BufferHandle {
                            owner: client,
                            data: staged.clone(),
                        };
                        self.dart.wire().push(entry.spec.subscriber, &key, handle);
                    }
                }
            }
        }
    }
}
