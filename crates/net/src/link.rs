//! The execution client's end of the wire: `NetLink` implements both
//! [`insitu_dart::Transport`] (mailbox forwarding, buffer publication,
//! pull requests) and [`insitu_cods::space::SpaceMirror`] (DHT-replica
//! maintenance), speaking frames to the hub — and, when the `Welcome`
//! carried a peer table, directly to peer joiners.
//!
//! Every link owns one [`Reactor`]: the hub connection, the local peer
//! listener and every direct peer connection live on its event-loop
//! thread, and every frame leaves through `ReactorHandle::send`. What
//! the `Welcome` decides is only where the data plane is *addressed*:
//!
//! - **No peer table** (star routing): `PullRequest`, `SubPush` and the
//!   shm control frames go up the hub connection and the hub relays
//!   them; the answers come back down it.
//! - **Peer table** (p2p routing): `PullRequest` goes straight to the
//!   owner's node over a lazily-dialed direct connection (see
//!   [`PeerTable`]); the `PullData`/`PullNack` answer — or the shm
//!   offer and doorbells standing in for it — returns on the same
//!   socket. The hub carries only control traffic.
//!
//! Construction is two-phase because the link and the runtime need each
//! other: build the `NetLink` first (it only needs the socket), hand it
//! to `DartRuntime::with_transport` and `CodsSpace::with_mirror`, then
//! call [`NetLink::start_reader`] with both — it adopts the connections
//! onto the reactor and returns the control channel (`RunWave` /
//! `Shutdown`) that drives the joiner's wave loop.
//!
//! Ownership runs one way (DESIGN.md §9.4): the runtime and the space
//! own the link, the link only *looks back* at them through `Weak`
//! handles, so whoever built the three — `insitu::join` — is their sole
//! owner and dropping them there frees the registry's buffers, unmaps
//! both shm segments and closes the reactor's waker. A frame that
//! arrives once the runtime is gone is dropped.
//!
//! The telemetry plane rides the same connections: with a flight
//! recorder attached ([`NetLink::set_flight`]) the link records a
//! `NetSend` event when it answers a remote pull and a `NetRecv` when
//! pulled bytes land, and at teardown [`NetLink::ship_telemetry`]
//! ships the recording to the hub in ack-paced batches for the
//! cross-process trace merge.

use crate::conn::{NetError, NetMetrics};
use crate::frame::{Frame, NodeReport};
use crate::peers::PeerTable;
use crate::reactor::{ConnEvent, Reactor, ReactorHandle, Sink, Token};
use insitu_cods::space::SpaceMirror;
use insitu_cods::{CodsSpace, LocationEntry};
use insitu_dart::transport::Transport;
use insitu_dart::{BufKey, DartRuntime, Msg};
use insitu_domain::BoundingBox;
use insitu_fabric::{ClientId, FaultInjector};
use insitu_obs::{Event, EventKind, FlightRecorder, LinkClass};
use insitu_sub::{SubId, SubSpec};
use insitu_util::channel::{unbounded, Receiver, Sender};
use insitu_util::shm::{self, MapRegion, PushError, RecordDesc, Ring, RingMem, ShmMap};
use insitu_util::Bytes;
use std::collections::{HashMap, HashSet};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::Duration;

/// Control frames the reader surfaces to the joiner's wave loop.
#[derive(Clone, Debug, PartialEq)]
pub enum Ctl {
    /// Run the local tasks of this wave.
    RunWave(u32),
    /// The server ended the run.
    Shutdown {
        /// Whether the run completed successfully.
        ok: bool,
        /// Human-readable reason (empty on success).
        reason: String,
    },
}

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
const SHM_ARENA: u64 = 8 << 20;

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

/// The intra-host shared-memory data plane (DESIGN.md §13): host
/// fingerprints from the `Welcome` plus this link's producer and
/// consumer ring state. Present only after [`NetLink::set_shm`].
struct ShmPlane {
    /// Per-node host fingerprints, indexed by node id. An empty entry
    /// never matches (that joiner opted out or has no fingerprint); an
    /// empty table means the whole run opted out at the hub.
    hosts: Vec<String>,
    /// Producer side: outbound segment per consumer node. The per-pair
    /// inner lock serializes push/doorbell against the ack handler so a
    /// record is either in the ring when a nack resends `unconsumed`,
    /// or pushed after the pair flipped to TCP — never lost.
    out: Mutex<HashMap<u32, Arc<Mutex<ShmOut>>>>,
    /// Consumer side: attached ring per producer node.
    inbound: Mutex<HashMap<u32, Arc<Ring>>>,
}

/// Producer-side state of one directed pair.
enum ShmOut {
    /// Segment created and offered; pushes allowed. `path` is cleared
    /// by the early unlink once the consumer acks its attach.
    Live {
        ring: Arc<Ring>,
        segment: u64,
        path: Option<PathBuf>,
    },
    /// The pair degraded to the wire for good.
    Tcp,
}

/// One joiner process's connection(s) to the run.
pub struct NetLink {
    node: u32,
    cores_per_node: u32,
    /// The process's one wire thread.
    reactor: Reactor,
    /// The reactor's send handle (kept to avoid a clone per frame).
    handle: ReactorHandle,
    /// The hub connection's token on the reactor.
    hub: Token,
    injector: FaultInjector,
    metrics: NetMetrics,
    /// The hub stream, parked until `start_reader` adopts it.
    stream: Mutex<Option<TcpStream>>,
    /// The peer listener, parked until `start_reader` (p2p routing).
    listener: Mutex<Option<TcpListener>>,
    /// Direct connections to peer nodes. `None` is star routing: the
    /// `Welcome` carried no peer table, so pulls, pushes and shm
    /// control go up the hub connection and the hub relays them.
    peers: Option<PeerTable>,
    /// Back-reference for building reactor sinks from `&self` methods;
    /// `Weak` so sinks never keep the link (or its reactor) alive.
    self_ref: Weak<NetLink>,
    /// Keys with an outstanding `PullRequest`, so concurrent local
    /// waiters ask the owner once, not once per waiter.
    inflight: Mutex<HashSet<BufKey>>,
    /// How long the owner side waits for a requested buffer to be put
    /// before answering `PullNack`.
    get_timeout: Duration,
    /// Back-references to what this link serves, set by `start_reader`.
    /// `Weak` because both own the link (as their `Transport` /
    /// `SpaceMirror`): a strong handle here is a cycle that keeps every
    /// run's registry, mappings and fds alive in a long-lived process.
    dart: OnceLock<Weak<DartRuntime>>,
    space: OnceLock<Weak<CodsSpace>>,
    /// The process's flight recorder; wire send/recv events land here
    /// so the hub-side merge can stitch cross-process causal chains.
    /// Disabled until [`NetLink::set_flight`].
    flight: OnceLock<FlightRecorder>,
    /// Live only while [`NetLink::ship_telemetry`] runs: the demux
    /// forwards `TelemetryAck` batch indices here.
    telemetry_ack: Mutex<Option<Sender<u32>>>,
    /// The intra-host shared-memory data plane, armed by
    /// [`NetLink::set_shm`] after the `Welcome`. Unset means every pull
    /// answer rides the wire.
    shm: OnceLock<ShmPlane>,
}

/// Flight events per `Telemetry` frame. Bounds frame size (~100 B per
/// event) so a telemetry batch can never monopolise the reactor loop
/// against data-plane traffic.
const TELEMETRY_BATCH_EVENTS: usize = 2048;

impl NetLink {
    /// Wrap an established, greeted connection. `stream` must be past
    /// the Hello/Welcome handshake; `get_timeout` mirrors the space's
    /// get timeout (from `Welcome`).
    ///
    /// `peers` is the address table from the `Welcome` — empty means
    /// star routing, and `listener` is simply dropped; otherwise
    /// `listener` is this process's own peer listener, already bound to
    /// the address it advertised in its `Hello`, and `dial_timeout`
    /// bounds each direct peer dial (retried transparently while it
    /// lasts).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        stream: TcpStream,
        node: u32,
        cores_per_node: u32,
        get_timeout: Duration,
        injector: FaultInjector,
        metrics: NetMetrics,
        peers: Vec<String>,
        listener: TcpListener,
        dial_timeout: Duration,
    ) -> Result<Arc<NetLink>, NetError> {
        let reactor = Reactor::spawn(&format!("node-{node}"), injector.clone(), metrics.clone())
            .map_err(|e| NetError::Io(e.to_string()))?;
        let handle = reactor.handle();
        let p2p = !peers.is_empty();
        Ok(Arc::new_cyclic(|self_ref| NetLink {
            node,
            cores_per_node,
            hub: handle.alloc_token(),
            handle,
            reactor,
            injector,
            metrics,
            stream: Mutex::new(Some(stream)),
            listener: Mutex::new(p2p.then_some(listener)),
            peers: p2p.then(|| PeerTable::new(peers, dial_timeout)),
            self_ref: self_ref.clone(),
            inflight: Mutex::new(HashSet::new()),
            get_timeout,
            dart: OnceLock::new(),
            space: OnceLock::new(),
            flight: OnceLock::new(),
            telemetry_ack: Mutex::new(None),
            shm: OnceLock::new(),
        }))
    }

    /// Attach the process's flight recorder. Call before the run starts
    /// (alongside `start_reader`); until then wire events are not
    /// recorded. Setting it twice is a bug.
    pub fn set_flight(&self, flight: FlightRecorder) {
        assert!(self.flight.set(flight).is_ok(), "set_flight called twice");
    }

    fn flight(&self) -> FlightRecorder {
        self.flight.get().cloned().unwrap_or_default()
    }

    /// Arm the shared-memory data plane with the `Welcome`'s per-node
    /// host fingerprints. Call before the run starts (alongside
    /// `start_reader`); until then — or when `hosts` carries no match
    /// for this node — every pull answer rides the wire. Setting it
    /// twice is a bug.
    pub fn set_shm(&self, hosts: Vec<String>) {
        let plane = ShmPlane {
            hosts,
            out: Mutex::new(HashMap::new()),
            inbound: Mutex::new(HashMap::new()),
        };
        assert!(self.shm.set(plane).is_ok(), "set_shm called twice");
    }

    /// Whether pull answers to `dst` should ride a shared-memory ring:
    /// both ends advertised the same non-empty host fingerprint.
    fn shm_to(&self, dst: u32) -> bool {
        let Some(plane) = self.shm.get() else {
            return false;
        };
        let me = plane.hosts.get(self.node as usize);
        let them = plane.hosts.get(dst as usize);
        matches!((me, them), (Some(a), Some(b)) if !a.is_empty() && a == b)
    }

    /// The sink of one connection: demux its frames with `reply` as
    /// the way back, and hand its end to `on_closed`.
    fn sink(
        &self,
        reply: Token,
        ctl: Option<Sender<Ctl>>,
        on_closed: impl Fn(&NetLink, String) + Send + 'static,
    ) -> Sink {
        let weak = self.self_ref.clone();
        Box::new(move |ev| {
            let Some(link) = weak.upgrade() else { return };
            match ev {
                ConnEvent::Frame(frame) => link.on_frame(frame, reply, ctl.as_ref()),
                ConnEvent::Closed(reason) => on_closed(&link, reason),
            }
        })
    }

    /// Adopt the connections onto the reactor and return the control
    /// channel their demux feeds. Must be called exactly once, after
    /// the runtime and space were built around this link. The link does
    /// not keep either alive: the caller owns them, and frames arriving
    /// after it dropped them are ignored.
    pub fn start_reader(
        self: &Arc<Self>,
        dart: &Arc<DartRuntime>,
        space: &Arc<CodsSpace>,
    ) -> Receiver<Ctl> {
        let once = "start_reader called twice";
        self.dart.set(Arc::downgrade(dart)).expect(once);
        self.space.set(Arc::downgrade(space)).expect(once);
        let (ctl_tx, ctl_rx) = unbounded();
        let stream = self
            .stream
            .lock()
            .unwrap()
            .take()
            .expect("start_reader called twice");
        // Hub connection: demux frames, surface lost-hub as Shutdown to
        // the wave loop.
        let lost_hub = ctl_tx.clone();
        self.handle.add_stream(
            self.hub,
            stream,
            self.sink(self.hub, Some(ctl_tx), move |_, reason| {
                let _ = lost_hub.send(Ctl::Shutdown {
                    ok: false,
                    reason: if reason.is_empty() {
                        "server closed the connection".into()
                    } else {
                        format!("server connection lost: {reason}")
                    },
                });
            }),
        );
        // Peer listener (p2p routing): every inbound direct connection
        // serves pulls for this process's staged buffers. An inbound
        // peer that vanishes needs no handling: its dialer
        // re-establishes on the next pull.
        if let Some(listener) = self.listener.lock().unwrap().take() {
            let weak = Arc::downgrade(self);
            self.handle.add_listener(
                listener,
                Box::new(move |token, _addr| match weak.upgrade() {
                    Some(link) => link.sink(token, None, |_, _| {}),
                    None => Box::new(|_| {}),
                }),
            );
        }
        ctl_rx
    }

    /// Queue `frame` on the hub connection.
    fn hub_send(&self, frame: Frame) {
        self.handle.send(self.hub, frame);
    }

    /// Answer out the connection a request arrived on, counting bulk
    /// data by route: a `PullData` on a direct peer connection is p2p;
    /// on the hub connection it is a relay the hub counts itself.
    fn reply_send(&self, reply: Token, frame: Frame) {
        if frame.is_data_plane() && reply != self.hub {
            self.metrics.pull_p2p.inc();
        }
        self.handle.send(reply, frame);
    }

    /// Tell the server this node finished a wave.
    pub fn barrier(&self, wave: u32) {
        self.hub_send(Frame::Barrier {
            wave,
            node: self.node,
        });
    }

    /// Send the final per-process report.
    pub fn report(&self, report: NodeReport) {
        self.hub_send(Frame::Report(report));
    }

    /// Ship this process's flight recording and counter snapshot to the
    /// hub as bounded `Telemetry` batches. The shipper waits for the
    /// hub's `TelemetryAck` between batches — one batch in flight at a
    /// time — so telemetry can never build an unbounded queue behind
    /// the data plane. Call before [`NetLink::report`]: the hub
    /// connection is FIFO, so when the `Report` lands the hub already
    /// holds every batch that survived the wire.
    ///
    /// Returns `false` when an ack misses `ack_timeout` (e.g. the
    /// batch was chaos-dropped): the remainder is abandoned and the
    /// hub reports this node's trace incomplete — telemetry loss
    /// degrades the merge, never the run.
    pub fn ship_telemetry(
        &self,
        events: &[Event],
        dropped_events: u64,
        counters: Vec<(String, u64)>,
        ack_timeout: Duration,
    ) -> bool {
        let (tx, rx) = unbounded();
        *self.telemetry_ack.lock().unwrap() = Some(tx);
        // At least one batch even with zero events, so the counters and
        // drop tallies always travel and the hub sees a `last` marker.
        let total = events.len().div_ceil(TELEMETRY_BATCH_EVENTS).max(1);
        let mut chunks = events.chunks(TELEMETRY_BATCH_EVENTS);
        let mut ok = true;
        for batch in 0..total {
            let last = batch + 1 == total;
            self.hub_send(Frame::Telemetry {
                node: self.node,
                batch: batch as u32,
                last,
                dropped_events,
                dropped_spans: 0, // reserved on the wire
                counters: if last { counters.clone() } else { Vec::new() },
                events: chunks.next().unwrap_or(&[]).to_vec(),
            });
            match rx.recv_timeout(ack_timeout) {
                Ok(acked) if acked == batch as u32 => {}
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        *self.telemetry_ack.lock().unwrap() = None;
        ok
    }

    /// Flush every queued frame onto the wire and stop the transport.
    /// Call before process exit so the `Report` is not lost.
    pub fn close(&self) {
        self.shm_teardown();
        self.reactor.shutdown();
    }

    /// Demux one incoming frame, on the reactor thread. `reply` is
    /// where pull answers go — back up the connection the request
    /// arrived on. `ctl` is present on the hub connection (which
    /// carries `RunWave`/`Shutdown`) and absent on direct peer
    /// connections.
    fn on_frame(&self, frame: Frame, reply: Token, ctl: Option<&Sender<Ctl>>) {
        // The run was torn down under a frame still in flight: nothing
        // is left to apply it to, and this is the process's only wire
        // thread — drop the frame, never panic.
        let (Some(dart), Some(space)) = (
            self.dart.get().and_then(Weak::upgrade),
            self.space.get().and_then(Weak::upgrade),
        ) else {
            return;
        };
        let (dart, space) = (&dart, &space);
        // A frame this end cannot act on — an unexpected kind, or corners
        // that make no box (checked here, never handed to the panicking
        // constructor: this is the process's only wire thread). On a
        // direct peer connection it is ignored, not fatal to the run:
        // that peer's pulls simply won't complete. From the server it
        // ends the run, by name.
        let kind = frame.kind();
        let confused = |what: &str| {
            if let Some(ctl) = ctl {
                let _ = ctl.send(Ctl::Shutdown {
                    ok: false,
                    reason: format!("{what} frame kind {kind} from server"),
                });
            }
        };
        match frame {
            Frame::Relay {
                to,
                src,
                tag,
                payload,
            } => {
                dart.deliver(
                    to,
                    Msg {
                        src,
                        tag,
                        payload: Bytes::copy_from_slice(&payload),
                    },
                );
            }
            Frame::PullRequest {
                name,
                version,
                piece,
                from_node,
            } => self.answer_pull(name, version, piece, from_node, dart, reply),
            Frame::PullData {
                name,
                version,
                piece,
                owner,
                data,
                ..
            } => {
                let flight = self.flight();
                let t0 = flight.now_us();
                let key = BufKey {
                    name,
                    version,
                    piece,
                };
                self.settle(&key);
                // Register directly (NOT through the runtime): the
                // bytes were accounted by the puller's `pull` and
                // must not be re-published as a local put.
                if dart.registry().get(&key).is_none() {
                    let bytes = data.len() as u64;
                    dart.registry()
                        .register(key, owner, Bytes::copy_from_slice(&data));
                    // The recv half of the wire hop. The merge matches
                    // it to the owner side's NetSend by
                    // (src, dst, var, version, piece); dst is the
                    // requesting node's representative client (its
                    // core 0) because the wire carries nodes, not the
                    // individual waiter.
                    flight.record(
                        Event::new(flight.next_seq(), EventKind::NetRecv)
                            .var(name)
                            .version(version)
                            .piece(piece)
                            .src(owner)
                            .dst(self.node * self.cores_per_node)
                            .link(LinkClass::Rdma)
                            .bytes(bytes)
                            .window(t0, flight.now_us().saturating_sub(t0).max(1)),
                    );
                }
            }
            Frame::PullNack {
                name,
                version,
                piece,
                ..
            } => {
                // The owner gave up; our local wait will time out
                // and surface the pull failure. Allow a retry to
                // re-request.
                self.settle(&BufKey {
                    name,
                    version,
                    piece,
                });
            }
            Frame::ShmOffer {
                src_node,
                segment,
                path,
                ..
            } => {
                let attached = self.shm_accept(src_node, segment, &path);
                self.reply_send(
                    reply,
                    Frame::ShmAck {
                        src_node,
                        dst_node: self.node,
                        segment,
                        seq: 0,
                        attached,
                    },
                );
            }
            Frame::ShmDoorbell { src_node, .. } => self.shm_drain(src_node, dart),
            Frame::ShmAck {
                dst_node, attached, ..
            } => self.shm_on_ack(dst_node, attached, reply),
            Frame::TelemetryAck { batch, .. } => {
                // Flow control for an in-progress `ship_telemetry`;
                // a stray ack after the shipper gave up is dropped.
                if let Some(tx) = self.telemetry_ack.lock().unwrap().as_ref() {
                    let _ = tx.send(batch);
                }
            }
            Frame::DhtInsert {
                var,
                version,
                owner,
                piece,
                lbs,
                ubs,
            } => {
                let Some(bbox) = BoundingBox::try_new(&lbs, &ubs) else {
                    return confused("bbox corners in");
                };
                space.apply_remote_dht_insert(var, version, LocationEntry { bbox, owner, piece });
            }
            Frame::GetDone { var, version } => space.apply_remote_get_done(var, version),
            Frame::Evict { var, version } => space.apply_remote_evict(var, version),
            Frame::Subscribe {
                var,
                every_k,
                subscriber,
                lbs,
                ubs,
                ..
            } => {
                let Some(region) = BoundingBox::try_new(&lbs, &ubs) else {
                    return confused("bbox corners in");
                };
                space.apply_remote_subscribe(&SubSpec {
                    vid: var,
                    region,
                    every_k,
                    subscriber,
                });
            }
            Frame::SubAck { .. } => {
                // Registration acknowledgement, for protocol symmetry
                // only: the registration race (a put landing before the
                // Subscribe broadcast) is healed by the subscriber's
                // deadline-driven resync, not by waiting on this ack.
            }
            Frame::SubCancel { sub_id } => space.apply_remote_sub_cancel(sub_id),
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
                let Some(frag) = BoundingBox::try_new(&lbs, &ubs) else {
                    return confused("bbox corners in");
                };
                let flight = self.flight();
                let t0 = flight.now_us();
                let bytes = data.len() as u64;
                space.apply_remote_sub_push(sub_id, version, &frag, &data);
                // The recv half of the push's wire hop; the merge pairs
                // it with the producer side's NetSend by
                // (src, dst, var, version, piece = sub id).
                flight.record(
                    Event::new(flight.next_seq(), EventKind::NetRecv)
                        .var(var)
                        .version(version)
                        .piece(sub_id)
                        .src(src)
                        .dst(subscriber)
                        .link(LinkClass::Rdma)
                        .bytes(bytes)
                        .window(t0, flight.now_us().saturating_sub(t0).max(1)),
                );
            }
            Frame::SubLagged { .. } => {
                // Lag announcements are hub-side diagnostics; one
                // echoed down to a joiner is harmless.
            }
            Frame::RunWave { wave } => {
                if let Some(ctl) = ctl {
                    let _ = ctl.send(Ctl::RunWave(wave));
                }
            }
            Frame::Shutdown { ok, reason } => {
                if let Some(ctl) = ctl {
                    let _ = ctl.send(Ctl::Shutdown { ok, reason });
                }
            }
            _ => confused("unexpected"),
        }
    }

    /// Serve one remote pull: wait (on a throwaway thread, so the demux
    /// never blocks) for the buffer to be put locally, then answer with
    /// its bytes — or `PullNack` if the producer never delivers within
    /// the get timeout.
    fn answer_pull(
        &self,
        name: u64,
        version: u64,
        piece: u64,
        from_node: u32,
        dart: &Arc<DartRuntime>,
        reply: Token,
    ) {
        let key = BufKey {
            name,
            version,
            piece,
        };
        let dart = Arc::clone(dart);
        let timeout = self.get_timeout;
        let flight = self.flight();
        let requester = from_node * self.cores_per_node;
        let weak = self.self_ref.clone();
        std::thread::Builder::new()
            .name("net-pull-wait".into())
            .spawn(move || {
                let found = dart.registry().wait_for(&key, timeout);
                // Hold the runtime for the wait only, so a waiter never
                // outlives its run by more than the answer it is sending.
                drop(dart);
                // The link is gone only when the run is: nobody is left
                // to answer.
                let Some(link) = weak.upgrade() else { return };
                let Some(handle) = found else {
                    link.reply_send(
                        reply,
                        Frame::PullNack {
                            name,
                            version,
                            piece,
                            to_node: from_node,
                        },
                    );
                    return;
                };
                // Same-host pairs go through the shared-memory ring
                // instead of the socket; everything below is the wire
                // path.
                let desc = RecordDesc {
                    name,
                    version,
                    piece,
                    owner: handle.owner,
                };
                if link.shm_send(
                    from_node,
                    desc,
                    handle.data.as_slice(),
                    reply,
                    &flight,
                    requester,
                ) {
                    return;
                }
                // Record *before* enqueueing the answer: once the
                // consumer can observe these bytes the send event
                // is already in this process's recorder, so the
                // collect wave snapshots with no wire event still
                // unrecorded (zero unmatched pairs). The nominal
                // 1µs window keeps `send.end <= recv.start` in
                // real time, which the merge's clock alignment
                // relaxes over.
                let t0 = flight.now_us();
                flight.record(
                    Event::new(flight.next_seq(), EventKind::NetSend)
                        .var(name)
                        .version(version)
                        .piece(piece)
                        .src(handle.owner)
                        .dst(requester)
                        .link(LinkClass::Rdma)
                        .bytes(handle.data.as_slice().len() as u64)
                        .window(t0, 1),
                );
                link.reply_send(
                    reply,
                    Frame::PullData {
                        name,
                        version,
                        piece,
                        owner: handle.owner,
                        to_node: from_node,
                        data: handle.data.as_slice().to_vec(),
                    },
                );
            })
            .expect("spawn pull waiter");
    }

    /// Create this pair's segment and offer it to the consumer. Run
    /// once per destination, on the first pull answer headed there.
    fn shm_create(&self, dst: u32, reply: Token) -> ShmOut {
        let segment = shm_segment_id(self.node, dst);
        // Op-independent chaos verdict: the consumer rolls the same
        // (creator, segment) hash at attach, so a doomed pair skips
        // straight to the wire instead of staging records in a ring
        // nobody will ever drain.
        if self.injector.shm_attach_fails(self.node, segment) {
            self.metrics.shm_fallbacks.inc();
            return ShmOut::Tcp;
        }
        let nonce = SHM_NONCE.fetch_add(1, Ordering::Relaxed);
        let path =
            shm::segment_dir().join(shm::segment_name(std::process::id(), nonce, self.node, dst));
        let map = match ShmMap::create(&path, Ring::required_len(SHM_SLOTS, SHM_ARENA)) {
            Ok(m) => Arc::new(m),
            Err(_) => {
                // No mmap (non-unix), no space, no permission: the wire
                // still works.
                let _ = std::fs::remove_file(&path);
                self.metrics.shm_fallbacks.inc();
                return ShmOut::Tcp;
            }
        };
        let ring = Arc::new(Ring::create(RingMem::from_map(map), SHM_SLOTS, SHM_ARENA));
        self.reply_send(
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
        ShmOut::Live {
            ring,
            segment,
            path: Some(path),
        }
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
    fn shm_send(
        &self,
        dst: u32,
        desc: RecordDesc,
        data: &[u8],
        reply: Token,
        flight: &FlightRecorder,
        requester: u32,
    ) -> bool {
        if !self.shm_to(dst) {
            return false;
        }
        let plane = self.shm.get().expect("shm_to checked the plane");
        let slot = {
            let mut out = plane.out.lock().unwrap();
            match out.get(&dst) {
                Some(s) => Arc::clone(s),
                None => {
                    let s = Arc::new(Mutex::new(self.shm_create(dst, reply)));
                    out.insert(dst, Arc::clone(&s));
                    s
                }
            }
        };
        let slot = slot.lock().unwrap();
        let ShmOut::Live { ring, segment, .. } = &*slot else {
            return false;
        };
        match ring.push(&desc, data) {
            Ok(seq) => {
                let t0 = flight.now_us();
                flight.record(
                    Event::new(flight.next_seq(), EventKind::NetSend)
                        .var(desc.name)
                        .version(desc.version)
                        .piece(desc.piece)
                        .src(desc.owner)
                        .dst(requester)
                        .link(LinkClass::Shm)
                        .bytes(data.len() as u64)
                        .window(t0, 1),
                );
                self.reply_send(
                    reply,
                    Frame::ShmDoorbell {
                        src_node: self.node,
                        dst_node: dst,
                        segment: *segment,
                        seq,
                    },
                );
                self.metrics.shm_frames.inc();
                self.metrics.shm_bytes.add(data.len() as u64);
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
    fn shm_accept(&self, src_node: u32, segment: u64, path: &str) -> bool {
        // Same hash the producer rolled at create; a one-sided chaos
        // plan still degrades cleanly through the nack.
        if self.injector.shm_attach_fails(src_node, segment) {
            self.metrics.shm_fallbacks.inc();
            return false;
        }
        let Some(plane) = self.shm.get() else {
            return false;
        };
        let map = match ShmMap::open(Path::new(path)) {
            Ok(m) => Arc::new(m),
            Err(_) => {
                self.metrics.shm_fallbacks.inc();
                return false;
            }
        };
        let ring = match Ring::attach(RingMem::from_map(map)) {
            Ok(r) => Arc::new(r),
            Err(_) => {
                self.metrics.shm_fallbacks.inc();
                return false;
            }
        };
        plane.inbound.lock().unwrap().insert(src_node, ring);
        true
    }

    /// Consumer side of a `ShmDoorbell`: drain every published record
    /// from the pair's ring into the registry. The payload is *not*
    /// copied — the registered [`Bytes`] borrows the mapping, and
    /// dropping its last clone releases the arena range back to the
    /// producer.
    fn shm_drain(&self, src_node: u32, dart: &Arc<DartRuntime>) {
        let ring = match self.shm.get() {
            Some(plane) => plane.inbound.lock().unwrap().get(&src_node).cloned(),
            None => None,
        };
        // No ring: the attach failed and our nack makes the producer
        // resend over the wire — the doorbell is moot.
        let Some(ring) = ring else { return };
        let flight = self.flight();
        while let Some(rec) = ring.pop() {
            let t0 = flight.now_us();
            let key = BufKey {
                name: rec.desc.name,
                version: rec.desc.version,
                piece: rec.desc.piece,
            };
            self.settle(&key);
            if dart.registry().get(&key).is_none() {
                let release_ring = Arc::clone(&ring);
                let range = rec.range;
                let region = MapRegion::new(
                    ring.mem().clone(),
                    rec.off,
                    rec.len,
                    Some(Box::new(move || release_ring.release(range))),
                );
                let bytes = rec.len as u64;
                // Register directly, like the PullData branch: the
                // puller's `pull` already accounted these bytes.
                dart.registry()
                    .register(key, rec.desc.owner, Bytes::from_map(Arc::new(region)));
                self.metrics.shm_frames.inc();
                self.metrics.shm_bytes.add(bytes);
                flight.record(
                    Event::new(flight.next_seq(), EventKind::NetRecv)
                        .var(key.name)
                        .version(key.version)
                        .piece(key.piece)
                        .src(rec.desc.owner)
                        .dst(self.node * self.cores_per_node)
                        .link(LinkClass::Shm)
                        .bytes(bytes)
                        .window(t0, flight.now_us().saturating_sub(t0).max(1)),
                );
            } else {
                // A wire copy beat this record in (pull retry, or the
                // pair degraded mid-flight); the space comes straight
                // back.
                ring.release(rec.range);
            }
        }
    }

    /// Producer side of a `ShmAck`. Attached: unlink the segment name
    /// early — the consumer holds its own mapping now, so a crash from
    /// here on leaks nothing. Refused: resend everything staged over
    /// the wire and degrade the pair for good.
    fn shm_on_ack(&self, dst_node: u32, attached: bool, reply: Token) {
        let slot = match self.shm.get() {
            Some(plane) => plane.out.lock().unwrap().get(&dst_node).cloned(),
            None => None,
        };
        let Some(slot) = slot else { return };
        let mut slot = slot.lock().unwrap();
        match &mut *slot {
            ShmOut::Live { path, .. } if attached => {
                if let Some(p) = path.take() {
                    let _ = std::fs::remove_file(p);
                }
            }
            ShmOut::Live { ring, path, .. } => {
                // The consumer never attached, so nothing was popped:
                // every staged record is still in `unconsumed`. The
                // earlier shm-classed `NetSend`s match the `NetRecv`s
                // these wire copies will produce (the merge matches by
                // key, not link class).
                for rec in ring.unconsumed() {
                    self.metrics.shm_fallbacks.inc();
                    self.reply_send(
                        reply,
                        Frame::PullData {
                            name: rec.desc.name,
                            version: rec.desc.version,
                            piece: rec.desc.piece,
                            owner: rec.desc.owner,
                            to_node: dst_node,
                            data: ring.mem().slice(rec.off, rec.len).to_vec(),
                        },
                    );
                }
                if let Some(p) = path.take() {
                    let _ = std::fs::remove_file(p);
                }
                *slot = ShmOut::Tcp;
            }
            ShmOut::Tcp => {}
        }
    }

    /// Unlink any segment whose ack never arrived. The early unlink
    /// handles the common case; this catches runs torn down between
    /// offer and ack.
    fn shm_teardown(&self) {
        if let Some(plane) = self.shm.get() {
            for slot in plane.out.lock().unwrap().values() {
                if let ShmOut::Live { path, .. } = &mut *slot.lock().unwrap() {
                    if let Some(p) = path.take() {
                        let _ = std::fs::remove_file(p);
                    }
                }
            }
        }
    }

    /// The pull for `key` is no longer outstanding (answered, refused
    /// or unsendable): a later wait may request it again.
    fn settle(&self, key: &BufKey) {
        let mut inflight = self.inflight.lock().unwrap();
        inflight.remove(key);
        self.metrics.pulls_in_flight.set(inflight.len() as u64);
    }

    /// The routing policy: the connection on which data-plane frames
    /// for `node` leave. Without a peer table that is the hub
    /// connection (the hub relays); with one, the direct connection to
    /// `node`, dialed first if needed.
    fn route_to(&self, node: u32) -> Result<Token, NetError> {
        let Some(table) = &self.peers else {
            return Ok(self.hub);
        };
        table.ensure(
            node,
            self.node,
            &self.handle,
            &self.injector,
            &self.metrics,
            |token| {
                // Forget a dead connection so the next pull re-dials
                // (transparent reconnect).
                self.sink(token, None, move |link, _| {
                    if let Some(table) = &link.peers {
                        table.forget(token);
                    }
                })
            },
        )
    }
}

impl Transport for NetLink {
    fn hosts(&self, client: ClientId) -> bool {
        client / self.cores_per_node == self.node
    }

    fn forward(&self, to: ClientId, msg: &Msg) {
        self.hub_send(Frame::Relay {
            to,
            src: msg.src,
            tag: msg.tag,
            payload: msg.payload.as_slice().to_vec(),
        });
    }

    fn publish(&self, key: &BufKey, owner: ClientId, bytes: u64) {
        self.hub_send(Frame::PutNotify {
            name: key.name,
            version: key.version,
            piece: key.piece,
            owner,
            bytes,
        });
    }

    fn request(&self, key: &BufKey) {
        // A piece one of this node's own clients produces arrives by
        // that client's local put, which wakes the same registry wait.
        // Asking the wire for it would only race the put: whether the
        // request (and, on a same-host run, a node-to-itself segment
        // with its own `shm-attach` roll) exists at all would depend on
        // thread timing, not on the workflow or the chaos seed.
        let owner = (key.piece >> 32) as ClientId;
        if self.hosts(owner) {
            return;
        }
        {
            let mut inflight = self.inflight.lock().unwrap();
            if !inflight.insert(*key) {
                return;
            }
            self.metrics.pulls_in_flight.set(inflight.len() as u64);
        }
        let req = Frame::PullRequest {
            name: key.name,
            version: key.version,
            piece: key.piece,
            from_node: self.node,
        };
        match self.route_to(owner / self.cores_per_node) {
            Ok(token) => self.handle.send(token, req),
            // Dial failed: release the inflight slot so the local wait
            // times out naming the owner (and a retry may re-dial).
            Err(_) => self.settle(key),
        }
    }

    fn dial_peer(&self, client: ClientId) -> bool {
        self.peers.is_some() && self.route_to(client / self.cores_per_node).is_ok()
    }
}

impl SpaceMirror for NetLink {
    fn dht_insert(&self, var: u64, version: u64, entry: &LocationEntry) {
        let nd = entry.bbox.ndim();
        self.hub_send(Frame::DhtInsert {
            var,
            version,
            owner: entry.owner,
            piece: entry.piece,
            lbs: (0..nd).map(|d| entry.bbox.lb(d)).collect(),
            ubs: (0..nd).map(|d| entry.bbox.ub(d)).collect(),
        });
    }

    fn get_done(&self, var: u64, version: u64) {
        self.hub_send(Frame::GetDone { var, version });
    }

    fn evict(&self, var: u64, version: u64) {
        self.hub_send(Frame::Evict { var, version });
    }

    fn sub_open(&self, spec: &SubSpec) {
        let nd = spec.region.ndim();
        self.hub_send(Frame::Subscribe {
            sub_id: spec.id(),
            var: spec.vid,
            every_k: spec.every_k,
            subscriber: spec.subscriber,
            lbs: (0..nd).map(|d| spec.region.lb(d)).collect(),
            ubs: (0..nd).map(|d| spec.region.ub(d)).collect(),
        });
    }

    fn sub_cancel(&self, id: SubId) {
        self.hub_send(Frame::SubCancel { sub_id: id });
    }

    fn sub_push(
        &self,
        id: SubId,
        var: u64,
        version: u64,
        src: ClientId,
        subscriber: ClientId,
        frag: &BoundingBox,
        data: &[u8],
    ) {
        let nd = frag.ndim();
        let frame = Frame::SubPush {
            sub_id: id,
            var,
            version,
            src,
            subscriber,
            lbs: (0..nd).map(|d| frag.lb(d)).collect(),
            ubs: (0..nd).map(|d| frag.ub(d)).collect(),
            data: data.to_vec(),
        };
        // Record the send half before the bytes become observable
        // remotely, mirroring the pull path's ordering guarantee.
        let flight = self.flight();
        let t0 = flight.now_us();
        flight.record(
            Event::new(flight.next_seq(), EventKind::NetSend)
                .var(var)
                .version(version)
                .piece(id)
                .src(src)
                .dst(subscriber)
                .link(LinkClass::Rdma)
                .bytes(data.len() as u64)
                .window(t0, 1),
        );
        // Under p2p routing a failed dial is a lost push — the
        // subscriber's deadline fires and it resyncs with an ordinary
        // get, so the loss is always healable.
        if let Ok(token) = self.route_to(subscriber / self.cores_per_node) {
            if token != self.hub {
                self.metrics.sub_push_p2p.inc();
            }
            self.handle.send(token, frame);
        }
    }

    fn sub_lagged(&self, id: SubId, version: u64, subscriber: ClientId) {
        self.hub_send(Frame::SubLagged {
            sub_id: id,
            version,
            subscriber,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{recv_frame, send_frame};
    use insitu_cods::{CodsConfig, Dht};
    use insitu_fabric::{MachineSpec, Placement, TransferLedger};
    use insitu_sfc::HilbertCurve;
    use insitu_telemetry::Recorder;

    fn key(piece: u64) -> BufKey {
        BufKey {
            name: 7,
            version: 0,
            piece,
        }
    }

    /// Node 0's started link over loopback, with this test playing the
    /// hub on the far end of its one connection (bare socket, 10 s read
    /// bound — generous, and far above what a socket hop takes).
    struct Rig {
        link: Arc<NetLink>,
        dart: Arc<DartRuntime>,
        /// The link only looks back at the space: the rig is its owner.
        space: Arc<CodsSpace>,
        ctl: Receiver<Ctl>,
        wire: TcpStream,
        inj: FaultInjector,
        rec: Recorder,
        metrics: NetMetrics,
    }

    fn rig() -> Rig {
        let inj = FaultInjector::none();
        let rec = Recorder::enabled();
        let metrics = NetMetrics::new(&rec);
        let hub = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(hub.local_addr().unwrap()).unwrap();
        let (wire, _) = hub.accept().unwrap();
        wire.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();

        let link = NetLink::new(
            stream,
            0,
            1,
            Duration::from_secs(10),
            inj.clone(),
            metrics.clone(),
            Vec::new(),
            TcpListener::bind("127.0.0.1:0").unwrap(),
            Duration::from_secs(1),
        )
        .unwrap();
        link.set_shm(vec!["host".into(), "host".into()]);
        let dart = DartRuntime::with_transport(
            Arc::new(Placement::pack_sequential(MachineSpec::new(2, 1), 2)),
            Arc::new(TransferLedger::new()),
            rec.clone(),
            inj.clone(),
            FlightRecorder::disabled(),
            Arc::clone(&link) as Arc<dyn Transport>,
        );
        let space = CodsSpace::with_mirror(
            Arc::clone(&dart),
            Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 1]),
            CodsConfig::default(),
            Arc::clone(&link) as Arc<dyn SpaceMirror>,
        );
        let ctl = link.start_reader(&dart, &space);
        Rig {
            link,
            dart,
            space,
            ctl,
            wire,
            inj,
            rec,
            metrics,
        }
    }

    /// A refused push costs one socket hop, not a wait. Node 0's link
    /// answers pulls from node 1 — played, hub and all, by this test on
    /// a bare socket that never attaches the offered segment, so
    /// nothing is ever popped or released. Two half-arena records fill
    /// the ring; the next two answers, woken together, must both come
    /// back as `PullData` at once and be tallied as ring-full.
    #[test]
    fn refused_push_falls_back_to_pull_data_without_waiting() {
        let mut r = rig();
        let dart = Arc::clone(&r.dart);
        let mut rx = r.wire.try_clone().unwrap();
        let mut ask = |piece: u64| {
            let req = Frame::PullRequest {
                name: 7,
                version: 0,
                piece,
                from_node: 1,
            };
            send_frame(&mut r.wire, &req, &r.inj, &r.metrics).unwrap();
        };
        let mut answer = || match recv_frame(&mut rx, &r.inj, &r.metrics) {
            Ok(frame) => frame,
            Err(e) => panic!("no answer within the bound: {e:?}"),
        };
        // Two staged half-arena buffers ride the ring and fill it.
        let half = Bytes::from(vec![0u8; (SHM_ARENA / 2) as usize]);
        dart.registry().register(key(0), 0, half.clone());
        dart.registry().register(key(1), 0, half);
        ask(0);
        ask(1);
        let mut doorbells = 0;
        while doorbells < 2 {
            match answer() {
                Frame::ShmOffer { arena_bytes, .. } => assert_eq!(arena_bytes, SHM_ARENA),
                Frame::ShmDoorbell { .. } => doorbells += 1,
                other => panic!("unexpected frame kind {}", other.kind()),
            }
        }
        // Two more pulls park on keys nobody has put yet, so that one
        // producer's puts release both answers at the same moment.
        ask(2);
        ask(3);
        while dart.registry().waiter_count() < 2 {
            std::thread::yield_now();
        }
        dart.registry()
            .register(key(2), 0, Bytes::from_static(b"two"));
        dart.registry()
            .register(key(3), 0, Bytes::from_static(b"three"));
        let mut data = Vec::new();
        while data.len() < 2 {
            match answer() {
                Frame::PullData { piece, data: d, .. } => data.push((piece, d)),
                other => panic!("unexpected frame kind {}", other.kind()),
            }
        }
        data.sort();
        assert_eq!(data, vec![(2, b"two".to_vec()), (3, b"three".to_vec())]);
        let snap = r.rec.metrics_snapshot();
        assert_eq!(snap.counter("net.shm_frames"), 2);
        assert_eq!(snap.counter("net.shm_fallbacks_full"), 2);
        assert_eq!(snap.counter("net.shm_fallbacks"), 2);
        r.link.close();
    }

    /// Corners that make no box — inverted, ragged, empty — decode fine
    /// (they are two `u64` vectors) and used to reach the panicking
    /// constructor on the reactor thread, killing the process's only
    /// wire thread. Each must now end the run by name, and the thread
    /// must still be delivering the `RunWave` sent right behind it.
    #[test]
    fn hostile_corners_do_not_kill_the_wire_thread() {
        let mut r = rig();
        let hostile = [
            Frame::DhtInsert {
                var: 1,
                version: 0,
                owner: 1,
                piece: 0,
                lbs: vec![5],
                ubs: vec![1],
            },
            Frame::Subscribe {
                sub_id: 9,
                var: 1,
                every_k: 1,
                subscriber: 1,
                lbs: vec![0, 0],
                ubs: vec![3],
            },
            Frame::SubPush {
                sub_id: 9,
                var: 1,
                version: 0,
                src: 1,
                subscriber: 0,
                lbs: vec![],
                ubs: vec![],
                data: vec![0; 8],
            },
        ];
        for frame in hostile {
            let wave = frame.kind() as u32;
            send_frame(&mut r.wire, &frame, &r.inj, &r.metrics).unwrap();
            send_frame(&mut r.wire, &Frame::RunWave { wave }, &r.inj, &r.metrics).unwrap();
            let bound = Duration::from_secs(10);
            match r.ctl.recv_timeout(bound) {
                Ok(Ctl::Shutdown { ok: false, reason }) => assert!(
                    reason.contains("bbox corners") && reason.contains(&format!("kind {wave}")),
                    "{reason}"
                ),
                other => panic!("kind {wave} was not refused by name: {other:?}"),
            }
            assert_eq!(r.ctl.recv_timeout(bound), Ok(Ctl::RunWave(wave)));
        }
        r.link.close();
    }

    /// The link does not own what it serves. Once the rig — standing in
    /// for `insitu::join` — drops the runtime and the space, both are
    /// really gone, and frames of every plane still in flight towards
    /// the link are dropped on the floor: the wire thread survives them
    /// and goes on to report the hub's hangup.
    #[test]
    fn frames_after_the_runtime_is_gone_are_dropped_not_a_panic() {
        let Rig {
            link,
            dart,
            space,
            ctl,
            mut wire,
            inj,
            metrics,
            ..
        } = rig();
        let (weak_dart, weak_space) = (Arc::downgrade(&dart), Arc::downgrade(&space));
        drop((dart, space));
        assert!(weak_dart.upgrade().is_none(), "the link owns the runtime");
        assert!(weak_space.upgrade().is_none(), "the link owns the space");
        let late = [
            Frame::Relay {
                to: 0,
                src: 1,
                tag: 3,
                payload: vec![1, 2, 3],
            },
            Frame::PullRequest {
                name: 7,
                version: 0,
                piece: 0,
                from_node: 1,
            },
            Frame::PullData {
                name: 7,
                version: 0,
                piece: 1 << 32,
                owner: 1,
                to_node: 0,
                data: vec![0; 64],
            },
            Frame::GetDone { var: 7, version: 0 },
            Frame::RunWave { wave: 0 },
        ];
        for frame in &late {
            send_frame(&mut wire, frame, &inj, &metrics).unwrap();
        }
        drop(wire);
        // Nothing was demuxed — not even the `RunWave`, there is no run
        // to drive — and the thread lived to see the connection end.
        match ctl.recv_timeout(Duration::from_secs(10)) {
            Ok(Ctl::Shutdown { ok: false, reason }) => {
                assert!(reason.contains("server closed"), "{reason}")
            }
            other => panic!("the wire thread did not outlive the late frames: {other:?}"),
        }
        link.close();
    }

    /// The send path and the demux run where a sleep stalls every peer
    /// of this process: backpressure must be a refusal, never a nap.
    #[test]
    fn link_source_never_sleeps() {
        let src = include_str!("link.rs");
        let needle = ["thread", "::", "sleep"].concat();
        assert!(!src.contains(&needle), "a {needle} crept into link.rs");
    }
}
