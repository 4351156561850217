//! The workflow-server hub: accepts one TCP connection per simulated
//! node, runs the Hello/Welcome handshake, then adopts every joiner
//! connection onto one [`Reactor`] event-loop thread and routes frames
//! between them.
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
//!   [`Hub::take_telemetry`] for the cross-process trace merge) and
//!   are answered with `TelemetryAck` — the shipper's one-in-flight
//!   flow control.
//!
//! Because each connection's staged reactor buffer preserves FIFO order
//! and TCP preserves order, forwarding a joiner's mirror frames
//! *before* the next wave's `RunWave` guarantees every replica sees
//! wave N's DHT state before any wave N+1 task runs — the ordering the
//! wave barriers rely on.

use crate::conn::{recv_frame, send_frame, NetError, NetMetrics};
use crate::frame::{Frame, NodeReport};
use crate::reactor::{ConnEvent, Reactor, ReactorHandle, Token};
use insitu_fabric::FaultInjector;
use insitu_obs::{Event, ProcessTrace};
use insitu_util::Poller;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
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
    /// Run epoch sent in `Welcome`; salts every replica's DataSpace /
    /// BufferRegistry / DHT keys (0 = standalone run, no salting).
    pub run_epoch: u64,
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

/// The hub's one router: everything a connection sink needs to relay a
/// frame or land it in the state the wave engine waits on.
struct Router {
    nodes: u32,
    cores_per_node: u32,
    handle: ReactorHandle,
    /// Each node's connection token on the reactor.
    tokens: Vec<Token>,
    metrics: NetMetrics,
    inner: Mutex<Inner>,
    changed: Condvar,
}

#[derive(Default)]
struct Inner {
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
    addrs: Vec<std::net::SocketAddr>,
}

impl Hub {
    /// Accept `cfg.nodes` joiners on `listener` and greet them.
    ///
    /// The handshake is two-phase: every joiner's `Hello` (with its
    /// advertised peer address) is collected first, then all `Welcome`s
    /// go out — under p2p routing the `Welcome` carries the complete
    /// peer address table, which only exists once everyone has arrived.
    /// Fails with a clear [`NetError::Timeout`] if the joiners do not
    /// all arrive within `cfg.accept_timeout`.
    pub fn accept(
        listener: &TcpListener,
        cfg: &HubConfig,
        injector: &FaultInjector,
        metrics: &NetMetrics,
    ) -> Result<Hub, NetError> {
        let deadline = Instant::now() + cfg.accept_timeout;
        let io_err = |e: std::io::Error| NetError::Io(e.to_string());
        // Park on the listener's readiness, the deadline as timeout.
        let backlog = Poller::new();
        backlog.register_listener(0, listener).map_err(io_err)?;
        // Phase 1: collect every joiner's stream, advertised address and
        // host fingerprint.
        let mut slots: Vec<Option<(TcpStream, String, String)>> =
            (0..cfg.nodes).map(|_| None).collect();
        let mut joined = 0;
        while joined < cfg.nodes {
            let now = Instant::now();
            if now >= deadline {
                return Err(NetError::Timeout(format!(
                    "only {joined} of {} joiners connected within {}ms",
                    cfg.nodes,
                    cfg.accept_timeout.as_millis()
                )));
            }
            match listener.accept() {
                Ok((stream, _)) => {
                    read_hello(stream, cfg, injector, metrics, &mut slots)?;
                    joined += 1;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    backlog.poll(deadline - now);
                }
                Err(e) => return Err(io_err(e)),
            }
        }
        drop(backlog);
        let mut streams = Vec::new();
        let mut addrs = Vec::new();
        let mut peer_addrs = Vec::new();
        let mut hosts = Vec::new();
        for (node, slot) in slots.into_iter().enumerate() {
            let (stream, peer_addr, host) = slot.expect("all joiners greeted");
            if cfg.p2p && peer_addr.is_empty() {
                return Err(NetError::Protocol(format!(
                    "p2p run, but node {node} advertises no peer address"
                )));
            }
            addrs.push(stream.peer_addr().map_err(io_err)?);
            streams.push(stream);
            peer_addrs.push(peer_addr);
            hosts.push(host);
        }

        // Phase 2: everyone is here — greet them all.
        let peers_field = if cfg.p2p { peer_addrs } else { Vec::new() };
        // An opted-out run ships no fingerprints, so no joiner ever
        // offers a segment — one knob, decided at the hub.
        let hosts_field = if cfg.shm { hosts } else { Vec::new() };
        for stream in &mut streams {
            send_frame(
                stream,
                &Frame::Welcome {
                    nodes: cfg.nodes,
                    strategy: cfg.strategy.clone(),
                    get_timeout_ms: cfg.get_timeout_ms,
                    dag: cfg.dag.clone(),
                    config: cfg.config.clone(),
                    run_epoch: cfg.run_epoch,
                    peers: peers_field.clone(),
                    hosts: hosts_field.clone(),
                },
                injector,
                metrics,
            )?;
            stream.set_read_timeout(None).map_err(io_err)?;
        }

        // From here on the reactor moves every frame.
        let reactor = Reactor::spawn("hub", injector.clone(), metrics.clone()).map_err(io_err)?;
        let handle = reactor.handle();
        let router = Arc::new(Router {
            nodes: cfg.nodes,
            cores_per_node: cfg.cores_per_node,
            tokens: (0..cfg.nodes).map(|_| handle.alloc_token()).collect(),
            handle,
            metrics: metrics.clone(),
            inner: Mutex::new(Inner {
                reports: (0..cfg.nodes).map(|_| None).collect(),
                ..Inner::default()
            }),
            changed: Condvar::new(),
        });
        for (node, stream) in streams.into_iter().enumerate() {
            let r = Arc::clone(&router);
            router.handle.add_stream(
                router.tokens[node],
                stream,
                Box::new(move |ev| r.on_event(node as u32, ev)),
            );
        }
        Ok(Hub {
            reactor,
            router,
            addrs,
        })
    }

    /// Enqueue a frame for one node.
    pub fn send_to(&self, node: u32, frame: Frame) {
        self.router.send_to(node, frame);
    }

    /// The socket address the joiner hosting `node` connected from —
    /// the real network address the client registry records.
    pub fn peer_addr(&self, node: u32) -> std::net::SocketAddr {
        self.addrs[node as usize]
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
        self.router.wait_for("reports", timeout, |inner| {
            let arrived: Vec<_> = inner.reports.iter().flatten().cloned().collect();
            if arrived.len() < inner.reports.len() {
                return Err(arrived.len());
            }
            Ok(arrived)
        })
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

/// Read one accepted connection's `Hello` (with a read timeout so a
/// silent connection cannot stall the accept loop), validate the node
/// id, and park the stream in its node slot. The `Welcome` goes out in
/// phase 2, once the full peer table exists.
fn read_hello(
    stream: TcpStream,
    cfg: &HubConfig,
    injector: &FaultInjector,
    metrics: &NetMetrics,
    slots: &mut [Option<(TcpStream, String, String)>],
) -> Result<u32, NetError> {
    let mut stream = stream;
    stream
        .set_nonblocking(false)
        .and_then(|_| stream.set_read_timeout(Some(Duration::from_secs(10))))
        .and_then(|_| stream.set_nodelay(true))
        .map_err(|e| NetError::Io(e.to_string()))?;
    let (node, peer_addr, host) = match recv_frame(&mut stream, injector, metrics)? {
        Frame::Hello {
            node,
            peer_addr,
            host,
        } => (node, peer_addr, host),
        other => {
            return Err(NetError::Protocol(format!(
                "expected Hello, got frame kind {}",
                other.kind()
            )))
        }
    };
    if node >= cfg.nodes {
        return Err(NetError::Protocol(format!(
            "joiner claims node {node}, but the run has {} nodes",
            cfg.nodes
        )));
    }
    if slots[node as usize].is_some() {
        return Err(NetError::Protocol(format!("two joiners claim node {node}")));
    }
    slots[node as usize] = Some((stream, peer_addr, host));
    Ok(node)
}

impl Router {
    fn send_to(&self, node: u32, frame: Frame) {
        self.handle.send(self.tokens[node as usize], frame);
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
    /// have arrived, for the timeout message.
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
                    "{what}: {arrived} of {} nodes within {}ms",
                    self.nodes,
                    timeout.as_millis()
                )));
            }
            inner = self.changed.wait_timeout(inner, deadline - now).unwrap().0;
        }
    }

    /// The sink of `node`'s connection, on the reactor thread.
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
                let owner_node = ((piece >> 32) as u32) / self.cores_per_node;
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
                {
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
                // The ack releases the shipper's next batch — one batch
                // in flight per node, so telemetry cannot flood the hub.
                self.send_to(node, Frame::TelemetryAck { node, batch });
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
    use insitu_telemetry::Recorder;
    use std::io::Write;

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
            run_epoch: 0,
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

    #[test]
    fn hangup_mid_frame_fails_the_star_run_naming_the_node() {
        // A length word promising 100 bytes, 10 delivered, gone.
        let mut bytes = 100u32.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0u8; 10]);
        hostile_joiner_fails_the_run(&bytes, true, "hung up before reporting");
    }
}
