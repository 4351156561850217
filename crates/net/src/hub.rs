//! The workflow-server hub: one [`Reactor`] event-loop thread accepts
//! one TCP connection per simulated node and routes frames between
//! them. A connection's first frame greets it: a `Hello` for an
//! unclaimed node of the run (with a peer address, under p2p) makes it
//! that node's; anything else refuses it, answered with `Shutdown { ok:
//! false }` naming why. A refused or silent connection costs only
//! itself.
//!
//! Routing is a policy, not a second transport. A star-routed run
//! (`p2p: false`) ships no peer table, so joiners address everything —
//! including bulk `PullData` (a pull's answer, or a standing query's
//! push) and the shm control frames — up their hub connection and the
//! hub relays it. A `p2p: true` run ships each joiner's advertised peer
//! address in the `Welcome`, so `PullRequest`/`PullData` flow directly
//! node↔node and the hub carries only control traffic (registration,
//! dispatch relays, wave barriers, DHT mirror broadcasts, reports,
//! shutdown). `net.pull_frames_hub` counts the bulk frames the hub
//! relays, and the launch gate asserts it stays zero under p2p.
//!
//! Routing rules:
//!
//! - `Relay` goes to the node hosting the destination client
//!   (`to / cores_per_node`).
//! - `PullRequest` goes to the node of the owner client packed in the
//!   upper 32 bits of the piece id.
//! - `PullData` goes to the node carried in the frame: the requester,
//!   once the owner has the buffer (it parks the request until then),
//!   or a subscriber's node, pushed by the put.
//! - `DhtInsert` / `GetDone` / `Evict` are broadcast to every node
//!   except the origin (each replica already applied its own change).
//! - `Barrier` and `Report` land in hub state for the wave engine.
//! - `Telemetry` batches accumulate per node in hub state (drained by
//!   [`Hub::take_telemetry`] for the cross-process trace merge); a
//!   batch index that skips marks the node's trace incomplete.
//!
//! Because each connection's staged reactor buffer preserves FIFO order
//! and TCP preserves order, forwarding a joiner's mirror frames
//! *before* the next wave's `RunWave` guarantees every replica sees
//! wave N's DHT state before any wave N+1 task runs — the ordering the
//! wave barriers rely on.

use crate::conn::{NetError, NetMetrics};
use crate::frame::{Frame, NodeReport};
use crate::reactor::{ConnEvent, Reactor, ReactorHandle, Sink, Token};
use insitu_dart::piece_owner;
use insitu_fabric::FaultInjector;
use insitu_obs::{Event, ProcessTrace};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// Everything the hub needs to accept and greet its joiners.
pub struct HubConfig {
    /// Number of joiner processes (= simulated nodes) to wait for.
    pub nodes: u32,
    /// Cores per node, for routing by client id.
    pub cores_per_node: u32,
    /// Mapping-strategy slug sent in `Welcome`.
    pub strategy: String,
    /// Get timeout every replica must use, in milliseconds.
    pub get_timeout_ms: u64,
    /// Workflow DAG text sent in `Welcome`.
    pub dag: String,
    /// Workload configuration text sent in `Welcome`.
    pub config: String,
    /// How long to wait for all joiners to connect and greet.
    pub accept_timeout: Duration,
    /// Publish the joiners' peer addresses in `Welcome` so PullData
    /// flows node↔node; off, the hub relays it.
    pub p2p: bool,
    /// Publish the joiners' host fingerprints in `Welcome` so same-host
    /// pairs can carry PullData over shared-memory segments. When off,
    /// the `Welcome` ships no fingerprints and every pair stays on TCP.
    pub shm: bool,
}

/// The hub's one router: everything a connection sink needs to greet a
/// joiner, relay a frame or land it in the state the wave engine waits
/// on.
struct Router {
    nodes: u32,
    cores_per_node: u32,
    /// Whether a `Hello` must advertise a peer address.
    p2p: bool,
    handle: ReactorHandle,
    /// Each node's connection token on the reactor, fixed once every
    /// node is greeted and before the first `Welcome` leaves.
    tokens: OnceLock<Vec<Token>>,
    metrics: NetMetrics,
    inner: Mutex<Inner>,
    changed: Condvar,
}

#[derive(Default)]
struct Inner {
    /// Each node's accepted `Hello`, indexed by node. A claimed node
    /// stays claimed for the life of the run.
    greeted: Vec<Option<Greeting>>,
    /// Every refused connection: its address and why.
    refusals: Vec<String>,
    /// Nodes that reached each wave's barrier.
    barriers: HashMap<u32, HashSet<u32>>,
    /// Final per-node reports, indexed by node.
    reports: Vec<Option<NodeReport>>,
    /// Connection-level failures (peer hangups, protocol violations).
    failures: Vec<String>,
    /// Flight-recorder shipments, accumulating per node until the
    /// `last` batch marks a trace complete.
    telemetry: HashMap<u32, NodeTelemetry>,
}

/// A node's connection, and the peer address and host fingerprint its
/// `Hello` advertised.
#[derive(Clone)]
struct Greeting {
    token: Token,
    peer_addr: String,
    host: String,
}

/// Where an accepted connection stands: no frame yet, a node's, or
/// refused — whatever else it sends is ignored.
#[derive(Clone, Copy)]
enum Caller {
    Ungreeted,
    Node(u32),
    Refused,
}

/// One node's telemetry shipment as it accumulates batch by batch.
#[derive(Default)]
struct NodeTelemetry {
    events: Vec<Event>,
    /// The batch index expected next; an out-of-order arrival (a batch
    /// lost to fault injection, with the shipper retrying nothing)
    /// marks the trace gapped and therefore incomplete.
    next_batch: u32,
    gap: bool,
    last_seen: bool,
    dropped_events: u64,
    counters: Vec<(String, u64)>,
}

/// The server's end of every joiner connection.
pub struct Hub {
    reactor: Reactor,
    router: Arc<Router>,
}

impl Hub {
    /// Accept `cfg.nodes` joiners on `listener` and greet them.
    ///
    /// The reactor adopts a clone of `listener`. Once every node is
    /// greeted all `Welcome`s go out — under p2p routing each carries
    /// the complete peer table, which only exists once everyone has
    /// arrived. Fails with a [`NetError::Timeout`] naming the greeted
    /// count and every refusal if `cfg.accept_timeout` passes first.
    pub fn accept(
        listener: &TcpListener,
        cfg: &HubConfig,
        injector: &FaultInjector,
        metrics: &NetMetrics,
    ) -> Result<Hub, NetError> {
        let io_err = |e: std::io::Error| NetError::Io(e.to_string());
        let reactor = Reactor::spawn("hub", injector.clone(), metrics.clone()).map_err(io_err)?;
        let router = Arc::new(Router {
            nodes: cfg.nodes,
            cores_per_node: cfg.cores_per_node,
            p2p: cfg.p2p,
            handle: reactor.handle(),
            tokens: OnceLock::new(),
            metrics: metrics.clone(),
            inner: Mutex::new(Inner {
                greeted: (0..cfg.nodes).map(|_| None).collect(),
                reports: (0..cfg.nodes).map(|_| None).collect(),
                ..Inner::default()
            }),
            changed: Condvar::new(),
        });
        let r = Arc::clone(&router);
        router.handle.add_listener(
            listener.try_clone().map_err(io_err)?,
            Box::new(move |token, addr| Router::sink(Arc::clone(&r), token, addr)),
        );
        let greeted = router.wait_for("joiners greeted", cfg.accept_timeout, |i| {
            filled(&i.greeted)
        })?;
        let _ = router.tokens.set(greeted.iter().map(|g| g.token).collect());
        // A table ships empty when its knob is off: an opted-out run
        // ships no fingerprints, so no joiner ever offers a segment —
        // one knob, decided at the hub.
        let table = |on, f: fn(&Greeting) -> String| greeted.iter().filter(|_| on).map(f).collect();
        let welcome = Frame::Welcome {
            nodes: cfg.nodes,
            strategy: cfg.strategy.clone(),
            get_timeout_ms: cfg.get_timeout_ms,
            dag: cfg.dag.clone(),
            config: cfg.config.clone(),
            peers: table(cfg.p2p, |g| g.peer_addr.clone()),
            hosts: table(cfg.shm, |g| g.host.clone()),
        };
        let hub = Hub { reactor, router };
        hub.broadcast(welcome);
        Ok(hub)
    }

    /// Enqueue a frame for one node.
    pub fn send_to(&self, node: u32, frame: Frame) {
        self.router.send_to(node, frame);
    }

    /// Enqueue a frame for every node.
    pub fn broadcast(&self, frame: Frame) {
        for node in 0..self.router.nodes {
            self.send_to(node, frame.clone());
        }
    }

    /// Block until every node reported wave `wave`'s barrier. Fails if
    /// a peer failure is recorded or `timeout` expires first.
    pub fn wait_barrier(&self, wave: u32, timeout: Duration) -> Result<(), NetError> {
        let nodes = self.router.nodes as usize;
        self.router
            .wait_for(&format!("wave {wave} barrier"), timeout, |inner| {
                let arrived = inner.barriers.get(&wave).map_or(0, HashSet::len);
                if arrived < nodes {
                    return Err(arrived);
                }
                inner.barriers.remove(&wave);
                Ok(())
            })
    }

    /// Block until every node's final [`NodeReport`] arrived.
    pub fn collect_reports(&self, timeout: Duration) -> Result<Vec<NodeReport>, NetError> {
        self.router
            .wait_for("reports", timeout, |inner| filled(&inner.reports))
    }

    /// Drain the telemetry the joiners shipped, as merge inputs: one
    /// [`ProcessTrace`] per node `0..nodes`, marked complete only when
    /// that node's `last` batch arrived with no gaps. A node whose
    /// shipment was lost entirely yields an empty, incomplete trace —
    /// the merge degrades to the processes that reported.
    ///
    /// Call after [`Hub::collect_reports`]: each hub connection is
    /// FIFO and joiners ship telemetry before their `Report`, so every
    /// batch that survived the wire has landed by then.
    pub fn take_telemetry(&self) -> Vec<ProcessTrace> {
        let mut inner = self.router.inner.lock().unwrap();
        let mut shipped = std::mem::take(&mut inner.telemetry);
        (0..self.router.nodes)
            .map(|node| {
                let t = shipped.remove(&node).unwrap_or_default();
                ProcessTrace {
                    node,
                    events: t.events,
                    dropped: t.dropped_events,
                    counters: t.counters.into_iter().collect::<BTreeMap<_, _>>(),
                    complete: t.last_seen && !t.gap,
                }
            })
            .collect()
    }

    /// Broadcast `Shutdown`, flush every staged frame onto the wire and
    /// stop the event loop.
    pub fn shutdown(self, ok: bool, reason: &str) {
        self.broadcast(Frame::Shutdown {
            ok,
            reason: reason.to_string(),
        });
        self.reactor.shutdown();
    }
}

/// Every slot's value once none is empty; until then, how many are
/// filled.
fn filled<T: Clone>(slots: &[Option<T>]) -> Result<Vec<T>, usize> {
    let arrived: Vec<T> = slots.iter().flatten().cloned().collect();
    let n = arrived.len();
    (n == slots.len()).then_some(arrived).ok_or(n)
}

impl Router {
    /// The sink of the connection `token` accepted from `addr`, on the
    /// reactor thread: its first event greets or refuses it, and a
    /// greeted connection's events are its node's from then on.
    fn sink(router: Arc<Router>, token: Token, addr: SocketAddr) -> Sink {
        let mut caller = Caller::Ungreeted;
        Box::new(move |ev| match caller {
            Caller::Node(node) => router.on_event(node, ev),
            Caller::Refused => {}
            Caller::Ungreeted => match router.greet(token, ev) {
                Ok(node) => caller = Caller::Node(node),
                Err(why) => {
                    caller = Caller::Refused;
                    router.refuse(token, addr, why);
                }
            },
        })
    }

    /// Claim a node for the connection `token`, whose first event is
    /// `ev` — or say why not.
    fn greet(&self, token: Token, ev: ConnEvent) -> Result<u32, String> {
        let (node, peer_addr, host) = match ev {
            ConnEvent::Frame(Frame::Hello {
                node,
                peer_addr,
                host,
            }) => (node, peer_addr, host),
            ConnEvent::Frame(other) => {
                return Err(format!("sent frame kind {} before its Hello", other.kind()))
            }
            ConnEvent::Closed(reason) if reason.is_empty() => {
                return Err("hung up before its Hello".into())
            }
            ConnEvent::Closed(reason) => return Err(reason),
        };
        let mut inner = self.inner.lock().unwrap();
        let slot = inner
            .greeted
            .get_mut(node as usize)
            .ok_or_else(|| format!("node {node} is outside the run's {} nodes", self.nodes))?;
        if slot.is_some() {
            return Err(format!("node {node} is already claimed"));
        }
        if self.p2p && peer_addr.is_empty() {
            return Err(format!(
                "node {node} advertises no peer address, but the run is p2p"
            ));
        }
        *slot = Some(Greeting {
            token,
            peer_addr,
            host,
        });
        self.changed.notify_all();
        Ok(node)
    }

    /// Tell a refused connection why, while it still listens, and
    /// record it for the accept's timeout error.
    fn refuse(&self, token: Token, addr: SocketAddr, why: String) {
        let refusal = format!("{addr}: {why}");
        let (ok, reason) = (false, why);
        self.handle.send(token, Frame::Shutdown { ok, reason });
        self.inner.lock().unwrap().refusals.push(refusal);
    }

    /// Queue `frame` for `node`; before the node table is fixed, for
    /// nobody — only a joiner talking before its `Welcome` routes one.
    fn send_to(&self, node: u32, frame: Frame) {
        if let Some(tokens) = self.tokens.get() {
            self.handle.send(tokens[node as usize], frame);
        }
    }

    /// Forward `from`'s frame to node `to`. The destination comes from
    /// the joiner's payload: one outside the run fails the run, not the
    /// hub.
    fn relay(&self, from: u32, to: u32, frame: Frame) {
        if to < self.nodes {
            return self.send_to(to, frame);
        }
        self.fail(format!(
            "node {from} sent frame kind {} addressed to node {to} of {}",
            frame.kind(),
            self.nodes
        ));
    }

    /// Enqueue `frame` for every node but `origin` (which already
    /// applied its own change).
    fn send_to_others(&self, origin: u32, frame: &Frame) {
        for node in (0..self.nodes).filter(|&n| n != origin) {
            self.send_to(node, frame.clone());
        }
    }

    fn fail(&self, why: String) {
        self.inner.lock().unwrap().failures.push(why);
        self.changed.notify_all();
    }

    /// Block until `check` yields a value, a failure is recorded, or
    /// `timeout` expires; while unmet, `check` reports how many nodes
    /// have arrived, for the timeout message, which also lists every
    /// connection refused so far.
    fn wait_for<T>(
        &self,
        what: &str,
        timeout: Duration,
        mut check: impl FnMut(&mut Inner) -> Result<T, usize>,
    ) -> Result<T, NetError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock().unwrap();
        loop {
            if !inner.failures.is_empty() {
                return Err(NetError::Io(inner.failures.join("; ")));
            }
            let arrived = match check(&mut inner) {
                Ok(value) => return Ok(value),
                Err(arrived) => arrived,
            };
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout(format!(
                    "{what}: {arrived} of {} nodes within {}ms; refused: [{}]",
                    self.nodes,
                    timeout.as_millis(),
                    inner.refusals.join("; ")
                )));
            }
            inner = self.changed.wait_timeout(inner, deadline - now).unwrap().0;
        }
    }

    /// The events of `node`'s greeted connection, on the reactor thread.
    fn on_event(&self, node: u32, ev: ConnEvent) {
        match ev {
            ConnEvent::Frame(frame) => self.route(node, frame),
            // EOF is a clean hangup only after the node reported;
            // mid-run it is a crashed joiner.
            ConnEvent::Closed(reason) if reason.is_empty() => {
                let reported = self.inner.lock().unwrap().reports[node as usize].is_some();
                if !reported {
                    self.fail(format!("node {node} hung up before reporting"));
                }
            }
            ConnEvent::Closed(reason) => {
                self.fail(format!("connection to node {node}: {reason}"));
            }
        }
    }

    /// Route one frame arriving from `node`. A protocol violation fails
    /// the run and the loop stays alive for the other connections.
    fn route(&self, node: u32, frame: Frame) {
        match frame {
            Frame::Relay { to, .. } => self.relay(node, to / self.cores_per_node, frame),
            Frame::PullRequest { piece, .. } => {
                let owner_node = piece_owner(piece) / self.cores_per_node;
                self.relay(node, owner_node, frame);
            }
            Frame::PullData { to_node, .. } => {
                // Data plane through the control plane. Expected under
                // star routing; the p2p acceptance gate asserts this
                // counter stays zero.
                self.metrics.pull_hub.inc();
                self.relay(node, to_node, frame);
            }
            // Shm control frames ride the hub under star routing
            // exactly like the pull frames they replace — offers and
            // doorbells go to the consumer, acks back to the producer.
            // The payloads themselves never transit here: they sit in
            // the pair's segment.
            Frame::ShmOffer { dst_node, .. } | Frame::ShmDoorbell { dst_node, .. } => {
                self.relay(node, dst_node, frame);
            }
            Frame::ShmAck { src_node, .. } => self.relay(node, src_node, frame),
            Frame::DhtInsert { .. } | Frame::GetDone { .. } | Frame::Evict { .. } => {
                self.send_to_others(node, &frame)
            }
            // Hub state is keyed by the connection's node, not a frame
            // field: the connection identity is authenticated by the
            // handshake, the payload is not.
            Frame::Barrier { wave, .. } => {
                let mut inner = self.inner.lock().unwrap();
                inner.barriers.entry(wave).or_default().insert(node);
                self.changed.notify_all();
            }
            Frame::Report(report) => {
                self.inner.lock().unwrap().reports[node as usize] = Some(report);
                self.changed.notify_all();
            }
            Frame::Telemetry {
                batch,
                last,
                dropped_events,
                counters,
                events,
                ..
            } => {
                let mut inner = self.inner.lock().unwrap();
                let t = inner.telemetry.entry(node).or_default();
                if batch != t.next_batch {
                    t.gap = true;
                }
                t.next_batch = batch.saturating_add(1);
                t.events.extend(events);
                if last {
                    t.last_seen = true;
                    t.dropped_events = dropped_events;
                    t.counters = counters;
                }
            }
            other => self.fail(format!(
                "node {node} sent unexpected frame kind {}",
                other.kind()
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::conn::{recv_frame, send_frame};
    use insitu_telemetry::Recorder;
    use std::io::Write;
    use std::net::TcpStream;

    /// A star-routed hub with `nodes` greeted raw-socket joiners, and
    /// the counters of its reactor.
    fn star_hub(nodes: u32) -> (Hub, Vec<TcpStream>, NetMetrics) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let inj = FaultInjector::none();
        let m = NetMetrics::new(&Recorder::disabled());
        let mut joiners = Vec::new();
        for node in 0..nodes {
            let mut s = TcpStream::connect(addr).unwrap();
            let hello = Frame::Hello {
                node,
                peer_addr: String::new(),
                host: String::new(),
            };
            send_frame(&mut s, &hello, &inj, &m).unwrap();
            joiners.push(s);
        }
        let cfg = HubConfig {
            nodes,
            cores_per_node: 1,
            strategy: "data-centric".into(),
            get_timeout_ms: 1000,
            dag: String::new(),
            config: String::new(),
            accept_timeout: Duration::from_secs(10),
            p2p: false,
            shm: false,
        };
        let hub = Hub::accept(&listener, &cfg, &inj, &m).unwrap();
        for s in &mut joiners {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            let welcome = recv_frame(s, &inj, &m).unwrap();
            assert!(matches!(welcome, Frame::Welcome { ref peers, .. } if peers.is_empty()));
        }
        (hub, joiners, m)
    }

    /// A hostile joiner on a star-routed run fails that run with one
    /// error naming its node — never a hub panic — and the other
    /// joiners still hear `Shutdown`. Node 1 writes `bytes`, then
    /// either hangs up or keeps its socket open past the verdict.
    fn hostile_joiner_fails_the_run(bytes: &[u8], hang_up: bool, expect: &str) {
        let (hub, mut joiners, _) = star_hub(3);
        let mut hostile = Some(joiners.remove(1));
        hostile.as_mut().unwrap().write_all(bytes).unwrap();
        if hang_up {
            hostile = None;
        }
        let err = hub.wait_barrier(0, Duration::from_secs(10)).unwrap_err();
        let NetError::Io(why) = err else {
            panic!("expected the connection failure, got {err:?}");
        };
        assert!(why.contains("node 1") && why.contains(expect), "{why}");
        assert!(!why.contains("; "), "more than one failure: {why}");
        hub.shutdown(false, &why);
        let inj = FaultInjector::none();
        let m = NetMetrics::new(&Recorder::disabled());
        for s in &mut joiners {
            match recv_frame(s, &inj, &m).unwrap() {
                Frame::Shutdown { ok: false, reason } => assert_eq!(reason, why),
                other => panic!("expected Shutdown, got kind {}", other.kind()),
            }
        }
        drop(hostile);
    }

    #[test]
    fn oversized_length_word_fails_the_star_run_naming_the_node() {
        // The socket stays open: the failure must come from the bytes.
        let mut bytes = u32::MAX.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 8]);
        hostile_joiner_fails_the_run(&bytes, false, "protocol");
    }

    #[test]
    fn frame_addressed_outside_the_run_fails_it_without_panicking_the_hub() {
        let stray = Frame::ShmDoorbell {
            src_node: 1,
            dst_node: 999,
            segment: 2,
            seq: 3,
        };
        hostile_joiner_fails_the_run(&stray.encode(), false, "addressed to node 999");
    }

    /// A `PullData` is decoded in place only behind a sound head; one
    /// that is off in any way is judged whole, by `Frame::decode`, and
    /// fails the run with that error.
    #[test]
    fn irregular_pull_data_heads_fail_the_star_run_with_the_decode_error() {
        for (wire, rejection) in crate::conn::irregular_pull_data() {
            hostile_joiner_fails_the_run(&wire, false, &format!("protocol: {rejection}"));
        }
        // Cut mid-payload, the head sound: the hangup it is.
        let cut = &crate::conn::greedy_pull_data()[..500];
        hostile_joiner_fails_the_run(cut, true, "hung up before reporting");
    }

    /// Reserving is not touching: a joiner that declares the largest
    /// payload there is, delivers a MiB of it and stalls has cost the
    /// hub that MiB, and ends as the hangup it is.
    #[test]
    fn a_declared_256_mib_payload_costs_the_hub_what_arrived() {
        let (hub, mut joiners, m) = star_hub(3);
        let wire = crate::conn::greedy_pull_data();
        let (before, resident) = (m.bytes_recv.get(), crate::conn::resident_bytes());
        let mut hostile = joiners.remove(1);
        hostile.write_all(&wire).unwrap();
        while m.bytes_recv.get() < before + wire.len() as u64 {
            std::thread::yield_now();
        }
        let grown = crate::conn::resident_bytes().saturating_sub(resident);
        assert!(grown < 64 << 20, "resident set grew {grown} bytes");
        drop(hostile);
        let err = hub.wait_barrier(0, Duration::from_secs(10)).unwrap_err();
        assert!(
            matches!(&err, NetError::Io(why) if why.contains("node 1 hung up before reporting")),
            "{err:?}"
        );
        hub.shutdown(false, "hostile joiner");
    }

    /// A p2p hub whose every connection is hostile greets nobody and
    /// times out naming `0 of 2` and each refusal: garbage, a hangup,
    /// a first frame other than `Hello`, a `Hello` outside the run and
    /// one with no peer address. A refused first frame hears why; a
    /// silent connection is never refused, and never holds the accept.
    #[test]
    fn a_hub_meeting_only_hostile_connections_times_out_naming_each_refusal() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dial = |bytes: &[u8]| {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(bytes).unwrap();
            s
        };
        let hello = |node, peer_addr: &str| Frame::Hello {
            node,
            peer_addr: peer_addr.into(),
            host: String::new(),
        };
        let _garbage = dial(&u32::MAX.to_le_bytes());
        let _silent = dial(&[]);
        drop(dial(&[]));
        let answered = [
            (
                Frame::Barrier { wave: 0, node: 0 },
                "sent frame kind 12 before its Hello",
            ),
            (
                hello(2, "127.0.0.1:1"),
                "node 2 is outside the run's 2 nodes",
            ),
            (
                hello(1, ""),
                "node 1 advertises no peer address, but the run is p2p",
            ),
        ]
        .map(|(first, why)| (dial(&first.encode()), why));
        let cfg = HubConfig {
            nodes: 2,
            cores_per_node: 1,
            strategy: "data-centric".into(),
            get_timeout_ms: 1000,
            dag: String::new(),
            config: String::new(),
            accept_timeout: Duration::from_millis(500),
            p2p: true,
            shm: false,
        };
        let inj = FaultInjector::none();
        let m = NetMetrics::new(&Recorder::disabled());
        let why = match Hub::accept(&listener, &cfg, &inj, &m) {
            Err(NetError::Timeout(why)) => why,
            Err(other) => panic!("expected the accept timeout, got {other:?}"),
            Ok(_) => panic!("a hostile connection was greeted"),
        };
        assert!(why.contains("joiners greeted: 0 of 2 nodes"), "{why}");
        let refusals = [
            "protocol: bad frame length 4294967295",
            "hung up before its Hello",
        ];
        for expect in refusals.iter().chain(answered.iter().map(|(_, why)| why)) {
            assert!(why.contains(expect), "{expect:?} missing from {why}");
        }
        for (mut s, expect) in answered {
            s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
            match recv_frame(&mut s, &inj, &m).unwrap() {
                Frame::Shutdown { ok: false, reason } => assert_eq!(reason, expect),
                other => panic!("expected Shutdown, got kind {}", other.kind()),
            }
        }
    }

    #[test]
    fn hangup_mid_frame_fails_the_star_run_naming_the_node() {
        // A length word promising 100 bytes, 10 delivered, gone.
        let mut bytes = 100u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 10]);
        hostile_joiner_fails_the_run(&bytes, true, "hung up before reporting");
    }
}
