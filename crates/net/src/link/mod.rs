//! The execution client's end of the wire: `NetLink` implements
//! [`insitu_dart::Transport`] — mailbox forwarding, pull requests, the
//! pushes of standing queries and CoDS's replica changes (DHT inserts,
//! completed gets, evictions) — speaking frames to the hub and, when
//! the `Welcome` carried a peer table, directly to peer joiners.
//!
//! Every link owns one [`Reactor`]: the hub connection, the local peer
//! listener and every direct peer connection live on its event-loop
//! thread, and every frame leaves through `ReactorHandle::send`. What
//! the `Welcome` decides is HybridDART's one choice per peer node, the
//! `DataPath`: on which connection frames for that node leave, and
//! what carries a pull answer's payload. It is computed once, in
//! [`NetLink::new`]; everything below reads it.
//!
//! Construction is two-phase because the link and the space need each
//! other: [`NetLink::new`] builds the whole link from the greeted
//! socket and the `Welcome`, it is handed to
//! `DartRuntime::with_transport`, the space is built over that runtime,
//! and [`NetLink::start_reader`] with the space adopts the connections
//! onto the reactor and returns the control channel (`RunWave` /
//! `Shutdown`) that drives the joiner's wave loop.
//!
//! Ownership runs one way (DESIGN.md §9.4): space → runtime → link;
//! the link only *looks back* at the space, through one `Weak` handle,
//! so whoever built the three — `insitu::join` — is their sole owner and
//! dropping them there frees the registry's buffers, unmaps both shm
//! segments and closes the reactor's waker. A frame that arrives once
//! the space is gone is dropped.
//!
//! The telemetry plane rides the same connections: the link records a
//! `NetSend` flight event when it answers a remote pull or pushes a
//! piece and a `NetRecv` when the bytes land, and at teardown
//! [`NetLink::ship_telemetry`] stages the recording for the hub in
//! bounded batches, unpaced, for the cross-process trace merge.

mod shm;
#[cfg(test)]
mod tests;

use crate::conn::{NetError, NetMetrics};
use crate::frame::{Frame, NodeReport};
use crate::peers::PeerTable;
use crate::reactor::{ConnEvent, Reactor, ReactorHandle, Sink, Token};
use insitu_cods::{CodsSpace, LocationEntry};
use insitu_dart::transport::Transport;
use insitu_dart::{BufKey, BufferHandle, DartRuntime, Msg};
use insitu_domain::BoundingBox;
use insitu_fabric::{ClientId, FaultInjector, MachineSpec};
use insitu_obs::{Event, EventKind, FlightRecorder, LinkClass};
use insitu_util::shm::RecordDesc;
use insitu_util::{Bytes, Recycled};
use std::collections::HashSet;
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{self, Receiver, Sender};
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

/// HybridDART's transport selection (paper §III.A; DESIGN.md §9.2), per
/// peer node of a distributed run: one I/O model — the reactor — and
/// one choice of where frames for the node leave and what carries the
/// payload of a pull answer to it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum DataPath {
    /// This node itself. Its clients' pieces arrive by their local puts,
    /// which wake the same registry wait: nothing is ever sent.
    Local,
    /// Another node's process.
    Remote {
        /// Where `PullRequest`s and pushes for the node leave.
        route: Route,
        /// What carries a pull answer (or a push) to the node.
        carrier: Carrier,
    },
}

/// The connection on which frames for a peer node leave.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Route {
    /// Up the hub connection, and the hub relays — star routing, the
    /// default: the `Welcome` carried no peer table.
    Hub,
    /// A direct connection to the node's advertised listener (`--p2p`),
    /// dialed on first use; the answers return on the same socket.
    Direct,
}

/// What carries the payload of a pull answer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Carrier {
    /// A `PullData` frame, out the connection the request arrived on.
    Wire,
    /// The pair's `/dev/shm` ring (DESIGN.md §13); only the
    /// `ShmOffer`/`ShmAck`/`ShmDoorbell` control frames travel, on the
    /// connection the `PullData` would have taken. Degrades to `Wire`
    /// for good when the segment cannot be created or attached.
    Shm,
}

impl DataPath {
    /// The decision, from the `Welcome`: `peers` is its peer address
    /// table (empty: star routing), `hosts` its host fingerprints
    /// (empty: the run opted out of shared memory; an empty entry: that
    /// joiner did, or has no fingerprint — it never matches).
    fn select(me: u32, node: u32, peers: &[String], hosts: &[String]) -> DataPath {
        if node == me {
            return DataPath::Local;
        }
        let host = |n: u32| hosts.get(n as usize).filter(|h| !h.is_empty());
        DataPath::Remote {
            route: if peers.is_empty() {
                Route::Hub
            } else {
                Route::Direct
            },
            carrier: match (host(me), host(node)) {
                (Some(mine), Some(theirs)) if mine == theirs => Carrier::Shm,
                _ => Carrier::Wire,
            },
        }
    }
}

/// One joiner process's connection(s) to the run.
pub struct NetLink {
    node: u32,
    machine: MachineSpec,
    /// The process's one wire thread.
    reactor: Reactor,
    /// The reactor's send handle (kept to avoid a clone per frame).
    handle: ReactorHandle,
    /// The hub connection's token on the reactor.
    hub: Token,
    injector: FaultInjector,
    metrics: NetMetrics,
    /// The process's flight recorder; wire send/recv events land here
    /// so the hub-side merge can stitch cross-process causal chains.
    flight: FlightRecorder,
    /// The hub stream, parked until `start_reader` adopts it.
    stream: Mutex<Option<TcpStream>>,
    /// The peer listener, parked until `start_reader` (`Route::Direct`).
    listener: Mutex<Option<TcpListener>>,
    /// How each node of the run is reached, indexed by node: the
    /// [`DataPath`] selected in `new`. Routes never change; a carrier
    /// only ever degrades `Shm` → `Wire`, under its pair's lock.
    paths: Vec<shm::Pair>,
    /// The connections behind `Route::Direct`.
    peers: PeerTable,
    /// Back-reference for building reactor sinks from `&self` methods;
    /// `Weak` so sinks never keep the link (or its reactor) alive.
    self_ref: Weak<NetLink>,
    /// Keys with an outstanding `PullRequest`, so concurrent local
    /// waiters ask the owner once, not once per waiter.
    inflight: Mutex<HashSet<BufKey>>,
    /// Back-reference to the space this link serves (the runtime is
    /// `space.dart()`), set by `start_reader`. `Weak` because the space
    /// owns the runtime, which owns the link: a strong handle here is a
    /// cycle that keeps every run's registry, mappings and fds alive in
    /// a long-lived process.
    space: OnceLock<Weak<CodsSpace>>,
}

/// Flight events per `Telemetry` frame. Bounds frame size (at most
/// 174 B per event) so a telemetry batch can never monopolise the
/// reactor loop against data-plane traffic.
const TELEMETRY_BATCH_EVENTS: usize = 2048;

impl NetLink {
    /// Build the link around an established, greeted connection and the
    /// `Welcome` it received. `stream` must be past the Hello/Welcome
    /// handshake; `node` is this process's slot in `machine` (the run's
    /// node and cores-per-node counts).
    ///
    /// `peers` and `hosts` are the `Welcome`'s address and host
    /// fingerprint tables, from which every peer node's `DataPath` is
    /// decided here, once. With an empty `peers` (star routing)
    /// `listener` is simply dropped; otherwise it is this process's own
    /// peer listener, already bound to the address it advertised in its
    /// `Hello`, and `dial_timeout` bounds each direct peer dial (retried
    /// transparently while it lasts). Wire send/recv events are
    /// recorded into `flight`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        stream: TcpStream,
        node: u32,
        machine: MachineSpec,
        injector: FaultInjector,
        metrics: NetMetrics,
        flight: FlightRecorder,
        peers: Vec<String>,
        hosts: Vec<String>,
        listener: TcpListener,
        dial_timeout: Duration,
    ) -> Result<Arc<NetLink>, NetError> {
        let reactor = Reactor::spawn(&format!("node-{node}"), injector.clone(), metrics.clone())
            .map_err(|e| NetError::Io(e.to_string()))?;
        let handle = reactor.handle();
        let paths = (0..machine.nodes)
            .map(|n| shm::Pair::new(DataPath::select(node, n, &peers, &hosts)))
            .collect();
        Ok(Arc::new_cyclic(|self_ref| NetLink {
            node,
            machine,
            hub: handle.alloc_token(),
            handle,
            reactor,
            injector,
            metrics,
            flight,
            stream: Mutex::new(Some(stream)),
            listener: Mutex::new((!peers.is_empty()).then_some(listener)),
            paths,
            peers: PeerTable::new(peers, dial_timeout),
            self_ref: self_ref.clone(),
            inflight: Mutex::new(HashSet::new()),
            space: OnceLock::new(),
        }))
    }

    /// Where frames for `node` leave: `None` for this node itself
    /// ([`DataPath::Local`]) and for a node outside the run (only a
    /// hostile or corrupt frame names one).
    fn route(&self, node: u32) -> Option<Route> {
        self.paths.get(node as usize)?.route()
    }

    /// The node hosting `client`.
    fn node_of(&self, client: ClientId) -> u32 {
        client / self.machine.cores_per_node
    }

    /// Whether `owner` is a client of the run and the one `piece`'s id
    /// names. A get accounts a landed copy under its owner: one outside
    /// the run indexes the placement out of bounds, a wrong one in
    /// range charges the wrong locality.
    fn names_its_owner(&self, piece: u64, owner: ClientId) -> bool {
        piece >> 32 == owner as u64 && owner < self.machine.total_cores()
    }

    /// The client a wire event names for `node` (its core 0): the wire
    /// carries nodes, not the individual waiter.
    fn client_of(&self, node: u32) -> ClientId {
        self.machine.core(node, 0)
    }

    /// The live connection frames for `node` leave on by `route`: the
    /// hub connection, or the direct one — dialed first if needed.
    fn conn(&self, node: u32, route: Route) -> Result<Token, NetError> {
        match route {
            Route::Hub => Ok(self.hub),
            Route::Direct => self.peers.ensure(
                node,
                self.node,
                &self.handle,
                &self.injector,
                &self.metrics,
                // Forget a dead connection so the next pull re-dials
                // (transparent reconnect).
                |token| self.sink(token, None, move |link, _| link.peers.forget(token)),
            ),
        }
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
    /// the space was built over the runtime built around this link. The
    /// link does not keep the space alive: the caller owns it, and
    /// frames arriving after it dropped it are ignored.
    pub fn start_reader(self: &Arc<Self>, space: &Arc<CodsSpace>) -> Receiver<Ctl> {
        let once = "start_reader called twice";
        self.space.set(Arc::downgrade(space)).expect(once);
        let (ctl_tx, ctl_rx) = mpsc::channel();
        let stream = self.stream.lock().unwrap().take().expect(once);
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

    /// Stage this process's flight recording and counter snapshot for
    /// the hub as `Telemetry` batches of at most
    /// `TELEMETRY_BATCH_EVENTS` events, and return: nothing paces them.
    /// The recorder bounds the shipment — a full default one is
    /// 11.4 MB on the wire, under a fifth of
    /// [`crate::reactor::STAGED_LIMIT`]. Call before
    /// [`NetLink::report`]: the hub connection is FIFO, so when the
    /// `Report` lands the hub already holds every batch that survived
    /// the wire. A batch lost on the way leaves a gap the hub marks
    /// incomplete — telemetry loss degrades the merge, never the run.
    pub fn ship_telemetry(
        &self,
        events: &[Event],
        dropped_events: u64,
        counters: Vec<(String, u64)>,
    ) {
        // At least one batch even with zero events, so the counters and
        // drop tallies always travel and the hub sees a `last` marker.
        let total = events.len().div_ceil(TELEMETRY_BATCH_EVENTS).max(1);
        let mut chunks = events.chunks(TELEMETRY_BATCH_EVENTS);
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
        }
    }

    /// Flush every queued frame onto the wire and stop the transport.
    /// Call before process exit so the `Report` is not lost.
    pub fn close(&self) {
        self.shm_teardown();
        self.reactor.shutdown();
    }

    /// Record one half of a wire hop of `bytes` from client `src` to
    /// client `dst`: a `NetSend` stamped now, or — given when the frame
    /// reached the demux — the `NetRecv` spanning since then. The merge
    /// pairs the halves by `(src, dst, key)`.
    ///
    /// A send is recorded *before* its frame is enqueued: once the far
    /// side can observe the bytes the event is already in this
    /// process's recorder, so the collect wave snapshots with no wire
    /// event still unrecorded (zero unmatched pairs). Its nominal 1 µs
    /// window keeps `send.end <= recv.start` in real time, which the
    /// merge's clock alignment relaxes over.
    fn wire_event(
        &self,
        carrier: Carrier,
        key: BufKey,
        src: ClientId,
        dst: ClientId,
        bytes: u64,
        recv_since: Option<u64>,
    ) {
        let now = self.flight.now_us();
        let (kind, start, dur) = match recv_since {
            Some(t0) => (EventKind::NetRecv, t0, now.saturating_sub(t0).max(1)),
            None => (EventKind::NetSend, now, 1),
        };
        self.flight.record(
            Event::new(self.flight.next_seq(), kind)
                .var(key.name)
                .version(key.version)
                .piece(key.piece)
                .src(src)
                .dst(dst)
                .link(match carrier {
                    Carrier::Wire => LinkClass::Rdma,
                    Carrier::Shm => LinkClass::Shm,
                })
                .bytes(bytes)
                .window(start, dur),
        );
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
        let Some(space) = self.space.get().and_then(Weak::upgrade) else {
            return;
        };
        let (space, dart) = (&space, space.dart());
        // A frame this end cannot act on — an unexpected kind, a client
        // or node outside the run, or corners that make no box (all
        // checked here, never handed to a panicking index or
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
        // When the frame reached the demux: where its `NetRecv` starts,
        // if it carries one half of a wire hop.
        let t0 = self.flight.now_us();
        match frame {
            // Only the server sends these: from a peer, ignored.
            Frame::Relay { .. }
            | Frame::DhtInsert { .. }
            | Frame::GetDone { .. }
            | Frame::Evict { .. }
                if ctl.is_none() => {}
            Frame::Relay {
                to,
                src,
                tag,
                payload,
            } => {
                if !self.hosts(to) || to >= dart.num_clients() {
                    return confused("misaddressed");
                }
                dart.deliver(
                    to,
                    Msg {
                        src,
                        tag,
                        payload: Bytes::from_owner(Recycled::from(payload)),
                    },
                );
            }
            Frame::PullRequest {
                name,
                version,
                piece,
                from_node,
            } => {
                if self.route(from_node).is_none() {
                    return confused("misaddressed");
                }
                let key = BufKey {
                    name,
                    version,
                    piece,
                };
                self.answer_pull(key, from_node, dart, reply)
            }
            Frame::PullData {
                name,
                version,
                piece,
                owner,
                data,
                ..
            } => {
                if !self.names_its_owner(piece, owner) {
                    return confused("misaddressed");
                }
                let key = BufKey {
                    name,
                    version,
                    piece,
                };
                // The vector is the one the socket read filled; it goes
                // back to the wave's pool when the piece is dropped.
                let data = Bytes::from_owner(Recycled::from(data));
                self.land(key, owner, data, Carrier::Wire, t0);
            }
            Frame::ShmOffer {
                src_node,
                segment,
                path,
                ..
            } => {
                let attached = self.shm_accept(src_node, segment, &path);
                self.handle.send(
                    reply,
                    Frame::ShmAck {
                        src_node,
                        dst_node: self.node,
                        segment,
                        seq: 0,
                        attached,
                    },
                );
                // Under p2p a push and an answer for this pair can leave
                // on different connections: a doorbell may have beaten
                // the offer here.
                if attached {
                    self.shm_drain(src_node);
                }
            }
            Frame::ShmDoorbell { src_node, .. } => self.shm_drain(src_node),
            Frame::ShmAck {
                dst_node, attached, ..
            } => self.shm_on_ack(dst_node, attached, reply),
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

    /// Serve one remote pull: answer with the buffer's bytes — through
    /// `to_node`'s ring or as `PullData` — from the thread that registers
    /// it (the producer's put), or here on the demux if it is staged
    /// already. Nothing waits: until then the answer is parked in the
    /// registry, and it dies with the run if the producer never puts.
    fn answer_pull(&self, key: BufKey, to_node: u32, dart: &DartRuntime, reply: Token) {
        let weak = self.self_ref.clone();
        dart.registry().on_register(key, move |handle| {
            // The link is gone only when the run is: nobody is left to
            // answer.
            if let Some(link) = weak.upgrade() {
                link.answer(key, to_node, handle, reply);
            }
        });
    }

    /// Send `key`'s buffer to `to_node` out `reply` — through the
    /// pair's ring, or as `PullData` — recording the `NetSend`.
    fn answer(&self, key: BufKey, to_node: u32, handle: BufferHandle, reply: Token) {
        let desc = RecordDesc {
            name: key.name,
            version: key.version,
            piece: key.piece,
            owner: handle.owner,
        };
        if !self.shm_send(to_node, desc, &handle.data, reply) {
            let requester = self.client_of(to_node);
            let bytes = handle.data.len() as u64;
            self.wire_event(Carrier::Wire, key, desc.owner, requester, bytes, None);
            self.send_pull_data(reply, to_node, desc, handle.data);
        }
    }

    /// Land a pulled or pushed copy: the space holds it and feeds the
    /// sinks that expect it, then the pull settles — in that order, so
    /// a waiter asking in between finds the key held and the payload
    /// crosses once.
    fn land(&self, key: BufKey, owner: ClientId, data: Bytes, carrier: Carrier, t0: u64) {
        let bytes = data.len() as u64;
        if carrier == Carrier::Shm {
            self.metrics.shm_frames.inc();
            self.metrics.shm_bytes.add(bytes);
        }
        let dst = self.client_of(self.node);
        self.wire_event(carrier, key, owner, dst, bytes, Some(t0));
        if let Some(space) = self.space.get().and_then(Weak::upgrade) {
            space.apply_remote_piece(key, owner, data);
        }
        self.settle(&key);
    }

    /// Answer a pull from `to_node` with the bytes themselves (the
    /// staged buffer, shared, not a copy), out the connection the request
    /// arrived on, counting bulk data by route: on a direct connection
    /// it is p2p; on the hub connection it is a relay the hub counts.
    fn send_pull_data(&self, reply: Token, to_node: u32, desc: RecordDesc, data: Bytes) {
        if self.route(to_node) == Some(Route::Direct) {
            self.metrics.pull_p2p.inc();
        }
        self.handle.send_shared(
            reply,
            Frame::PullData {
                name: desc.name,
                version: desc.version,
                piece: desc.piece,
                owner: desc.owner,
                to_node,
                data: Vec::new(),
            },
            data,
        );
    }

    /// The pull for `key` is no longer outstanding (landed or
    /// unsendable): a later wait may request it again.
    fn settle(&self, key: &BufKey) {
        let mut inflight = self.inflight.lock().unwrap();
        inflight.remove(key);
        self.metrics.pulls_in_flight.set(inflight.len() as u64);
    }
}

impl Transport for NetLink {
    fn hosts(&self, client: ClientId) -> bool {
        self.node_of(client) == self.node
    }

    fn forward(&self, to: ClientId, msg: &Msg) {
        let head = Frame::Relay {
            to,
            src: msg.src,
            tag: msg.tag,
            payload: Vec::new(),
        };
        self.handle.send_shared(self.hub, head, msg.payload.clone());
    }

    fn request(&self, key: &BufKey) {
        // A piece one of this node's own clients produces arrives by
        // that client's local put, which wakes the same registry wait.
        // Asking the wire for it would only race the put: whether the
        // request (and, on a same-host run, a node-to-itself segment
        // with its own `shm-attach` roll) exists at all would depend on
        // thread timing, not on the workflow or the chaos seed.
        let owner_node = self.node_of((key.piece >> 32) as ClientId);
        let Some(route) = self.route(owner_node) else {
            return;
        };
        {
            // Under the lock `land` settles under, after it registered:
            // a key held here, or already asked for, needs no frame.
            let mut inflight = self.inflight.lock().unwrap();
            let space = self.space.get().and_then(Weak::upgrade);
            let held = space.is_some_and(|s| s.dart().registry().get(key).is_some());
            if held || !inflight.insert(*key) {
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
        match self.conn(owner_node, route) {
            Ok(token) => self.handle.send(token, req),
            // Dial failed: release the inflight slot so the local wait
            // times out naming the owner (and a retry may re-dial).
            Err(_) => self.settle(key),
        }
    }

    fn push(&self, to: ClientId, key: &BufKey, handle: BufferHandle) {
        let node = self.node_of(to);
        // A subscriber hosted here has a sink, fed by the put itself.
        let Some(route) = self.route(node) else {
            return;
        };
        // A failed direct dial is a lost push — the subscriber's take
        // times out and its get heals the gap.
        if let Ok(token) = self.conn(node, route) {
            self.answer(*key, node, handle, token);
        }
    }

    fn dht_insert(
        &self,
        var: u64,
        version: u64,
        owner: ClientId,
        piece: u64,
        lbs: &[u64],
        ubs: &[u64],
    ) {
        self.hub_send(Frame::DhtInsert {
            var,
            version,
            owner,
            piece,
            lbs: lbs.to_vec(),
            ubs: ubs.to_vec(),
        });
    }

    fn get_done(&self, var: u64, version: u64) {
        self.hub_send(Frame::GetDone { var, version });
    }

    fn evict(&self, var: u64, version: u64) {
        self.hub_send(Frame::Evict { var, version });
    }
}
