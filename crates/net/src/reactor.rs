//! The reactor: one event-loop thread per process owns every
//! connection, whatever the routing policy addresses them for.
//!
//! - every connection (and listener) registers with the
//!   [`insitu_util::Poller`] — `epoll` underneath — in non-blocking
//!   mode; an idle loop parks in the kernel and costs nothing, and any
//!   handle wakes it through the poller's `eventfd`;
//! - each connection owns a staged *write* buffer — all frames queued
//!   since the last loop iteration are encoded back-to-back and cross
//!   the socket in as few `writev` syscalls as the kernel allows
//!   (small-message coalescing), preserving per-connection FIFO order;
//!   a bulk payload is spliced in as the shared buffer it already is,
//!   never copied; a socket that refuses bytes is watched for
//!   writability until everything drains, and a peer that stops
//!   reading is disconnected once [`STAGED_LIMIT`] encoded bytes wait
//!   for it (a sink's answers are staged before its next frame);
//! - each connection's [`FrameDecoder`] reads its socket: a read may
//!   surface zero, one or many frames however the peer batched them,
//!   and a `PullData` payload lands in the vector it is delivered in;
//! - incoming frames are handed to a per-connection *sink* callback on
//!   the reactor thread; sinks must not block (hand off to channels).
//!
//! Fault gating matches the blocking client path
//! ([`crate::conn::send_frame`]) exactly: only fault-eligible frames
//! are offered to the `net.send` / `net.recv` sites; a `Drop` verdict
//! discards the frame (send: never staged; recv: decoded then
//! discarded), a `Delay` sleeps the reactor thread — the whole
//! process's wire stalls, which is the closest single-threaded
//! analogue of a congested NIC.

use crate::conn::{passes_fault_site, NetMetrics};
use crate::frame::{Frame, FrameDecoder};
use insitu_fabric::{FaultInjector, NetOp};
use insitu_util::poller::{Poller, Waker};
use insitu_util::{Bytes, Recycled};
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, IoSlice, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Identifies one connection owned by a reactor. Tokens are allocated
/// from the reactor's handle and never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Token(pub u64);

/// What a connection's sink receives.
pub enum ConnEvent {
    /// A complete frame arrived (and survived the `net.recv` site).
    Frame(Frame),
    /// The connection ended. An empty reason is a clean EOF; otherwise
    /// the reason names the socket or protocol error. The token is dead
    /// afterwards: sends to it are silently dropped.
    Closed(String),
}

/// Per-connection event callback, invoked on the reactor thread.
/// Must not block — hand frames off to a channel and return.
pub type Sink = Box<dyn FnMut(ConnEvent) + Send>;

/// Listener callback: invoked for each accepted connection with its
/// freshly-allocated token and remote address; returns the sink that
/// will receive the connection's events.
pub type AcceptFn = Box<dyn FnMut(Token, SocketAddr) -> Sink + Send>;

/// Commands from handles to the reactor thread.
enum Cmd {
    AddStream(Token, TcpStream, Sink),
    AddListener(TcpListener, AcceptFn),
    /// A frame, and the shared payload that stands for its bulk tail.
    Send(Token, Frame, Option<Bytes>),
    Shutdown,
}

/// A cloneable command/send handle onto a running reactor.
#[derive(Clone)]
pub struct ReactorHandle {
    tx: Sender<Cmd>,
    wake: Waker,
    next_token: Arc<AtomicU64>,
}

impl ReactorHandle {
    /// Allocate a fresh connection token (never reused).
    pub fn alloc_token(&self) -> Token {
        Token(self.next_token.fetch_add(1, Ordering::Relaxed))
    }

    /// Adopt `stream` under `token`, delivering its events to `sink`.
    pub fn add_stream(&self, token: Token, stream: TcpStream, sink: Sink) {
        self.push(Cmd::AddStream(token, stream, sink));
    }

    /// Adopt `listener`; each accepted connection gets a token and asks
    /// `accept` for its sink.
    pub fn add_listener(&self, listener: TcpListener, accept: AcceptFn) {
        self.push(Cmd::AddListener(listener, accept));
    }

    /// Queue `frame` for `token`. FIFO per connection; frames queued in
    /// one loop iteration coalesce into one write run. Sends to unknown
    /// or closed tokens are silently dropped (the peer is gone, and the
    /// run-level barriers surface that).
    pub fn send(&self, token: Token, frame: Frame) {
        self.push(Cmd::Send(token, frame, None));
    }

    /// [`send`](ReactorHandle::send) a frame whose bulk tail
    /// ([`Frame::bulk_mut`]) is empty, with `payload` in its place: the
    /// bytes go from the shared buffer to the socket, never copied.
    pub(crate) fn send_shared(&self, token: Token, frame: Frame, payload: Bytes) {
        self.push(Cmd::Send(token, frame, Some(payload)));
    }

    fn push(&self, cmd: Cmd) {
        if self.tx.send(cmd).is_ok() {
            self.wake.wake();
        }
    }
}

/// One connection's state inside the loop.
struct Conn {
    stream: TcpStream,
    sink: Sink,
    decoder: FrameDecoder,
    out: Outbound,
    /// Whether the poller watches this socket for writability: armed
    /// when a flush leaves bytes staged, disarmed once they drain.
    write_armed: bool,
}

/// One connection's outbound bytes: the staging vector of encoded
/// frames and, in `queue`, the wire order of its runs and of the shared
/// payloads between them — written and released where they lie, never
/// joined to the staged bytes or moved.
#[derive(Default)]
struct Outbound {
    /// Encoded frames back to back; of a frame with a bulk tail, all
    /// but the tail's bytes. Kept (with its capacity) across flushes,
    /// emptied whenever everything queued has been written.
    staged: Vec<u8>,
    /// What is left to write: a range of `staged`, or of the payload.
    queue: VecDeque<(Range<usize>, Option<Bytes>)>,
    /// Bytes left to write, staged and shared.
    pending: usize,
}

impl Outbound {
    /// Queue `frame`, its bulk tail travelling as `payload` — or, with
    /// none given, moved out of the frame itself. Nothing is queued of a
    /// frame no peer would accept, nor of any frame for a peer that has
    /// stopped reading: one that leaves more than [`STAGED_LIMIT`]
    /// encoded bytes unwritten. The error is the connection's end.
    fn stage(&mut self, mut frame: Frame, payload: Option<Bytes>) -> Result<(), String> {
        // The staged runs left in the queue cover `staged` from the
        // first one's start on; shared payloads are not among them.
        let first = self.queue.iter().find(|(_, shared)| shared.is_none());
        let backlog = first.map_or(0, |(run, _)| self.staged.len() - run.start);
        if backlog > STAGED_LIMIT {
            return Err(format!("peer stopped reading: {backlog} bytes staged"));
        }
        // A tail moved out of the frame is adopted as a `Recycled` owner:
        // a payload decoded into a pooled buffer (the hub's relay) goes
        // back to the pool once written instead of being freed.
        let payload = payload
            .or_else(|| {
                let tail = frame.bulk_mut().map(std::mem::take)?;
                Some(Bytes::from_owner(Recycled::from(tail)))
            })
            .filter(|payload| !payload.is_empty());
        let (start, tail) = (self.staged.len(), payload.as_ref().map_or(0, Bytes::len));
        let encoded = frame.encode_into(&mut self.staged, tail);
        self.pending += encoded.map_err(|refused| refused.to_string())?;
        match self.queue.back_mut() {
            Some((run, None)) => run.end = self.staged.len(),
            _ => self.queue.push_back((start..self.staged.len(), None)),
        }
        self.queue.extend(payload.map(|p| (0..p.len(), Some(p))));
        Ok(())
    }

    /// Write as much of what is queued as `w` accepts.
    fn flush(&mut self, w: &mut impl Write, metrics: &NetMetrics) -> std::io::Result<()> {
        while self.pending > 0 {
            // At most 64 slices a `writev`: 32 bulk frames, heads and payloads.
            let chunks = self.queue.iter().take(64).map(|(run, shared)| {
                IoSlice::new(&shared.as_deref().unwrap_or(&self.staged)[run.clone()])
            });
            match w.write_vectored(&chunks.collect::<Vec<_>>()) {
                Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
                Ok(mut n) => {
                    metrics.bytes_sent.add(n as u64);
                    self.pending -= n;
                    while n > 0 {
                        let (run, _) = self.queue.front_mut().expect("written, so queued");
                        let step = n.min(run.len());
                        (run.start, n) = (run.start + step, n - step);
                        if run.start == run.end {
                            self.queue.pop_front();
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.queue.is_empty() {
            self.staged.clear();
        }
        Ok(())
    }
}

/// A running reactor: the event-loop thread plus its handle.
///
/// Dropping (or [`shutdown`](Reactor::shutdown)) flushes every staged
/// write buffer — bounded by a few seconds — then joins the thread.
pub struct Reactor {
    handle: ReactorHandle,
    thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl Reactor {
    /// Spawn the event-loop thread. `label` names the thread; the
    /// injector and metrics are shared with the rest of the transport.
    pub fn spawn(
        label: &str,
        injector: FaultInjector,
        metrics: NetMetrics,
    ) -> std::io::Result<Reactor> {
        let poller = Poller::new();
        let (tx, rx) = mpsc::channel();
        let next_token = Arc::new(AtomicU64::new(0));
        let handle = ReactorHandle {
            tx,
            wake: poller.waker()?,
            next_token: next_token.clone(),
        };
        let thread = std::thread::Builder::new()
            .name(format!("net-reactor-{label}"))
            .spawn(move || run_loop(rx, poller, next_token, injector, metrics))?;
        Ok(Reactor {
            handle,
            thread: Mutex::new(Some(thread)),
        })
    }

    /// The cloneable command handle.
    pub fn handle(&self) -> ReactorHandle {
        self.handle.clone()
    }

    /// Flush all staged writes (bounded), close every connection and
    /// join the loop thread. Idempotent.
    ///
    /// Sinks reach their owner through `Weak` handles, so the loop
    /// thread itself can end up dropping the owner's last handle — and
    /// this reactor with it — from inside a callback. It cannot join
    /// itself: the queued `Shutdown` ends the loop once the callback
    /// returns.
    pub fn shutdown(&self) {
        self.handle.push(Cmd::Shutdown);
        if let Some(h) = self.thread.lock().unwrap().take() {
            if h.thread().id() != std::thread::current().id() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for Reactor {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long shutdown keeps trying to drain staged writes before giving
/// up on a congested peer.
const SHUTDOWN_FLUSH_BUDGET: Duration = Duration::from_secs(5);

/// The most encoded bytes a connection may hold unwritten when another
/// frame is queued for it: past this its peer has stopped reading, and
/// the connection closes rather than stage without bound. What a sink
/// sends is staged before its next frame is dispatched, so a peer costs
/// at most this plus the one frame that crossed it. No live peer comes
/// near it; shared or moved payloads are not copies, and do not count.
pub const STAGED_LIMIT: usize = 64 << 20;

/// Reads of one connection in a loop turn, so a peer pipelining
/// requests does not starve the others.
const READS_PER_TURN: usize = 64;

/// Register `stream` with the poller and adopt it into the connection
/// table; on failure the sink hears `Closed` immediately.
fn adopt(
    poller: &mut Poller,
    conns: &mut HashMap<u64, Conn>,
    token: Token,
    stream: TcpStream,
    mut sink: Sink,
) {
    let _ = stream.set_nodelay(true);
    let registered = stream
        .try_clone()
        .and_then(|clone| poller.register(token.0, clone));
    match registered {
        Ok(()) => {
            conns.insert(
                token.0,
                Conn {
                    stream,
                    sink,
                    decoder: FrameDecoder::new(),
                    out: Outbound::default(),
                    write_armed: false,
                },
            );
        }
        Err(e) => sink(ConnEvent::Closed(format!("register: {e}"))),
    }
}

/// Write what the socket accepts of `conn`'s staged bytes and keep the
/// poller's write interest in step with what is left.
fn flush_and_arm(
    poller: &mut Poller,
    tok: u64,
    conn: &mut Conn,
    metrics: &NetMetrics,
) -> std::io::Result<()> {
    conn.out.flush(&mut conn.stream, metrics)?;
    let want = conn.out.pending > 0;
    if want != conn.write_armed {
        poller.set_writable_interest(tok, want)?;
        conn.write_armed = want;
    }
    Ok(())
}

/// Shutdown: push out every staged write buffer with blocking writes —
/// the kernel waits for writability — inside one shared time budget.
fn drain_on_shutdown(conns: &mut HashMap<u64, Conn>, metrics: &NetMetrics) {
    let deadline = Instant::now() + SHUTDOWN_FLUSH_BUDGET;
    for conn in conns.values_mut().filter(|c| c.out.pending > 0) {
        let left = deadline.saturating_duration_since(Instant::now());
        // A zero timeout would mean "block forever".
        let timeout = Some(left.max(Duration::from_millis(1)));
        if conn.stream.set_nonblocking(false).is_ok()
            && conn.stream.set_write_timeout(timeout).is_ok()
        {
            // The timeout surfaces as the `WouldBlock` that ends a flush.
            let _ = conn.out.flush(&mut conn.stream, metrics);
        }
    }
}

/// Drop the connections that failed or ended, telling their sinks why.
fn retire(poller: &mut Poller, conns: &mut HashMap<u64, Conn>, closed: &mut Vec<(u64, String)>) {
    for (tok, reason) in closed.drain(..) {
        if let Some(mut conn) = conns.remove(&tok) {
            poller.deregister(tok);
            (conn.sink)(ConnEvent::Closed(reason));
        }
    }
}

/// The event loop.
fn run_loop(
    rx: Receiver<Cmd>,
    mut poller: Poller,
    next_token: Arc<AtomicU64>,
    injector: FaultInjector,
    metrics: NetMetrics,
) {
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut listeners: HashMap<u64, (TcpListener, AcceptFn)> = HashMap::new();
    let mut scratch = vec![0u8; 64 * 1024];
    let mut closed: Vec<(u64, String)> = Vec::new();

    // Carry out every pending command: consecutive Sends to one
    // connection coalesce into its staged buffer and cross the socket as
    // one write run. `false` once a `Shutdown` has drained the wire.
    let apply = |poller: &mut Poller,
                 conns: &mut HashMap<u64, Conn>,
                 listeners: &mut HashMap<u64, (TcpListener, AcceptFn)>,
                 closed: &mut Vec<(u64, String)>| {
        while let Ok(cmd) = rx.try_recv() {
            match cmd {
                Cmd::AddStream(token, stream, sink) => {
                    adopt(poller, conns, token, stream, sink);
                }
                Cmd::AddListener(listener, accept) => {
                    let tok = next_token.fetch_add(1, Ordering::Relaxed);
                    if poller.register_listener(tok, &listener).is_ok() {
                        listeners.insert(tok, (listener, accept));
                    }
                }
                Cmd::Send(token, frame, payload) => {
                    let Some(conn) = conns.get_mut(&token.0) else {
                        continue; // peer already gone
                    };
                    // A Delay verdict stalls the whole reactor — the
                    // process's single wire thread — which is the
                    // intended congestion model.
                    if !passes_fault_site(&frame, NetOp::Send, &injector) {
                        continue;
                    }
                    // A frame no peer would accept ends the connection
                    // by name instead of poisoning the peer's decoder;
                    // so does a peer that stopped reading.
                    match conn.out.stage(frame, payload) {
                        Ok(()) => metrics.frames.inc(),
                        Err(reason) => closed.push((token.0, reason)),
                    }
                }
                Cmd::Shutdown => {
                    drain_on_shutdown(conns, &metrics);
                    return false;
                }
            }
        }
        true
    };

    loop {
        // (1) Stage every pending command before touching the wire.
        if !apply(&mut poller, &mut conns, &mut listeners, &mut closed) {
            return;
        }

        // (2) Flush freshly staged writes. A connection already armed
        // for writability is flushed when the poller reports it.
        for (tok, conn) in conns.iter_mut() {
            if conn.out.pending > 0 && !conn.write_armed {
                if let Err(e) = flush_and_arm(&mut poller, *tok, conn, &metrics) {
                    closed.push((*tok, format!("write: {e}")));
                }
            }
        }
        retire(&mut poller, &mut conns, &mut closed);
        let staged: usize = conns.values().map(|c| c.out.pending).sum();
        metrics.bytes_in_flight.set(staged as u64);

        // (3) Park until a socket needs attention or a handle wakes the
        // loop for new commands.
        for tok in poller.poll(Duration::MAX) {
            if let Some((listener, accept)) = listeners.get_mut(&tok) {
                // Accept until the backlog is empty.
                while let Ok((stream, addr)) = listener.accept() {
                    let token = Token(next_token.fetch_add(1, Ordering::Relaxed));
                    let sink = accept(token, addr);
                    adopt(&mut poller, &mut conns, token, stream, sink);
                }
                continue;
            }
            let Some(conn) = conns.get_mut(&tok) else {
                continue;
            };
            if conn.write_armed {
                if let Err(e) = flush_and_arm(&mut poller, tok, conn, &metrics) {
                    closed.push((tok, format!("write: {e}")));
                    continue;
                }
            }
            // Read the connection dry, or for its turn: what is left
            // waits in the socket, and the poller reports it again. The
            // decoder takes no payload byte through `scratch`; what it
            // would have to copy, it counts. Connections leave `conns`
            // only in `retire`, after the reads.
            'reads: for _ in 0..READS_PER_TURN {
                let conn = conns.get_mut(&tok).expect("a live connection");
                match conn.decoder.read_from(&mut &conn.stream, &mut scratch) {
                    Ok(0) => {
                        closed.push((tok, String::new())); // clean EOF
                        break 'reads;
                    }
                    Ok(n) => {
                        metrics.bytes_recv.add(n as u64);
                        while let Some(conn) = conns.get_mut(&tok) {
                            match conn.decoder.next_frame() {
                                Ok(Some(frame)) => {
                                    metrics.frames.inc();
                                    if !passes_fault_site(&frame, NetOp::Recv, &injector) {
                                        continue;
                                    }
                                    (conn.sink)(ConnEvent::Frame(frame));
                                    // Stage its answers before the next
                                    // frame: each meets `STAGED_LIMIT`.
                                    if !apply(&mut poller, &mut conns, &mut listeners, &mut closed)
                                    {
                                        return;
                                    }
                                    if closed.iter().any(|&(t, _)| t == tok) {
                                        break 'reads;
                                    }
                                }
                                Ok(None) => break,
                                Err(e) => {
                                    closed.push((tok, format!("protocol: {e}")));
                                    break 'reads;
                                }
                            }
                        }
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break 'reads,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => {
                        closed.push((tok, format!("read: {e}")));
                        break 'reads;
                    }
                }
            }
            let conn = conns.get_mut(&tok).expect("a live connection");
            metrics
                .payload_copy
                .add(std::mem::take(&mut conn.decoder.copied));
        }
        retire(&mut poller, &mut conns, &mut closed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_telemetry::Recorder;
    use std::io::Read;
    use std::sync::mpsc;

    fn metrics() -> NetMetrics {
        NetMetrics::new(&Recorder::disabled())
    }

    fn chan_sink() -> (Sink, mpsc::Receiver<ConnEvent>) {
        let (tx, rx) = mpsc::channel();
        (Box::new(move |ev| drop(tx.send(ev))), rx)
    }

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    fn recv_frame_ev(rx: &mpsc::Receiver<ConnEvent>) -> Frame {
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            ConnEvent::Frame(f) => f,
            ConnEvent::Closed(why) => panic!("unexpected close: {why:?}"),
        }
    }

    /// A socket that takes an arbitrary part of what each `writev`
    /// offers and refuses every other call. It holds the payload's
    /// address: a slice of the payload must be the very buffer, at the
    /// offset the last write left off — never a copy, never moved.
    struct ShortWrites {
        got: Vec<u8>,
        rng: insitu_util::rng::SplitMix64,
        refuse: bool,
        payload: std::ops::Range<usize>,
        payload_taken: usize,
        resumed_mid_payload: bool,
    }

    impl Write for ShortWrites {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
            self.refuse = !self.refuse;
            if self.refuse {
                return Err(ErrorKind::WouldBlock.into());
            }
            let mut room = self.rng.range_usize(1, 900_000);
            let mut taken = 0;
            for buf in bufs.iter().filter(|b| !b.is_empty()) {
                let n = room.min(buf.len());
                if self.payload.contains(&(buf.as_ptr() as usize)) {
                    let at = buf.as_ptr() as usize - self.payload.start;
                    assert_eq!(at, self.payload_taken, "the payload moved");
                    self.resumed_mid_payload |= at > 0;
                    self.payload_taken += n;
                }
                self.got.extend_from_slice(&buf[..n]);
                (room, taken) = (room - n, taken + n);
                if room == 0 {
                    break;
                }
            }
            Ok(taken)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Small, bulk and small frames queued on one connection reach the
    /// peer as exactly the bytes of `Frame::encode`, whatever part of
    /// each write the socket takes — the 4 MiB shared payload written
    /// from where it lies, the frame that owns its payload giving it up.
    #[test]
    fn short_writes_send_the_encoded_bytes_and_never_move_a_payload() {
        insitu_util::check::forall(8, |rng| {
            let payload = Bytes::from((0..4usize << 20).map(|i| i as u8).collect::<Vec<u8>>());
            let pull = |data: Vec<u8>| Frame::PullData {
                name: 7,
                version: 1,
                piece: 3 << 32,
                owner: 3,
                to_node: 0,
                data,
            };
            let relay = Frame::Relay {
                to: 4,
                src: 3,
                tag: 2,
                payload: vec![5; 8000],
            };
            let small = Frame::RunWave { wave: 1 };
            let mut wire = small.encode();
            wire.extend(pull(payload.to_vec()).encode());
            wire.extend(relay.encode());
            wire.extend(small.encode());

            let mut out = Outbound::default();
            out.stage(small.clone(), None).unwrap();
            out.stage(pull(Vec::new()), Some(payload.clone())).unwrap();
            out.stage(relay, None).unwrap();
            out.stage(small, None).unwrap();
            assert_eq!(out.pending, wire.len());
            let staged = out.staged.len();
            assert!(staged < 200, "{staged} bytes staged: a payload was joined");

            let start = payload.as_ptr() as usize;
            let mut socket = ShortWrites {
                got: Vec::new(),
                rng: insitu_util::rng::SplitMix64::new(rng.next_u64()),
                refuse: false,
                payload: start..start + payload.len(),
                payload_taken: 0,
                resumed_mid_payload: false,
            };
            let m = metrics();
            while out.pending > 0 {
                out.flush(&mut socket, &m).unwrap();
            }
            assert!(socket.got == wire, "the peer got other bytes");
            assert!(socket.resumed_mid_payload, "the payload went in one write");
            assert_eq!(m.bytes_sent.get(), wire.len() as u64);
            // Drained: the staging vector is empty and kept, the
            // payload released.
            assert!(out.staged.is_empty() && out.staged.capacity() >= staged);
            assert!(out.queue.is_empty());
        });
    }

    #[test]
    fn two_reactors_exchange_frames_in_fifo_order() {
        let ra = Reactor::spawn("a", FaultInjector::none(), metrics()).unwrap();
        let rb = Reactor::spawn("b", FaultInjector::none(), metrics()).unwrap();
        let (sa, sb) = pair();
        let (sink_a, rx_a) = chan_sink();
        let (sink_b, rx_b) = chan_sink();
        let ta = ra.handle().alloc_token();
        let tb = rb.handle().alloc_token();
        ra.handle().add_stream(ta, sa, sink_a);
        rb.handle().add_stream(tb, sb, sink_b);

        for wave in 0..64 {
            ra.handle().send(ta, Frame::RunWave { wave });
        }
        for wave in 0..64 {
            assert_eq!(recv_frame_ev(&rx_b), Frame::RunWave { wave });
        }
        rb.handle().send(tb, Frame::ListRuns);
        assert_eq!(recv_frame_ev(&rx_a), Frame::ListRuns);
    }

    /// A payload sent shared arrives between its neighbours, whole, in
    /// a frame like any other — and neither reactor copied a byte of it.
    #[test]
    fn a_shared_payload_crosses_two_reactors_uncopied() {
        let (ma, mb) = (metrics(), metrics());
        let ra = Reactor::spawn("a", FaultInjector::none(), ma.clone()).unwrap();
        let rb = Reactor::spawn("b", FaultInjector::none(), mb.clone()).unwrap();
        let (sa, sb) = pair();
        let (sink_a, _rx_a) = chan_sink();
        let (sink_b, rx_b) = chan_sink();
        let ta = ra.handle().alloc_token();
        ra.handle().add_stream(ta, sa, sink_a);
        rb.handle()
            .add_stream(rb.handle().alloc_token(), sb, sink_b);

        let payload = Bytes::from(
            (0..3usize << 20)
                .map(|i| (i / 7) as u8)
                .collect::<Vec<u8>>(),
        );
        let pull = |data: Vec<u8>| Frame::PullData {
            name: 7,
            version: 2,
            piece: 3 << 32,
            owner: 3,
            to_node: 0,
            data,
        };
        ra.handle().send(ta, Frame::RunWave { wave: 1 });
        ra.handle()
            .send_shared(ta, pull(Vec::new()), payload.clone());
        ra.handle().send(ta, Frame::RunWave { wave: 2 });
        assert_eq!(recv_frame_ev(&rx_b), Frame::RunWave { wave: 1 });
        assert!(recv_frame_ev(&rx_b) == pull(payload.to_vec()));
        assert_eq!(recv_frame_ev(&rx_b), Frame::RunWave { wave: 2 });
        assert_eq!(ma.payload_copy.get() + mb.payload_copy.get(), 0);
        assert_eq!(mb.bytes_recv.get(), 2 * 10 + 42 + (3 << 20));
    }

    #[test]
    fn listener_accepts_and_serves_many_connections() {
        let r = Reactor::spawn("srv", FaultInjector::none(), metrics()).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Echo every frame back on the same connection.
        let handle = r.handle();
        r.handle().add_listener(
            listener,
            Box::new(move |token, _addr| {
                let h = handle.clone();
                Box::new(move |ev| {
                    if let ConnEvent::Frame(f) = ev {
                        h.send(token, f);
                    }
                })
            }),
        );

        let client = Reactor::spawn("cli", FaultInjector::none(), metrics()).unwrap();
        let mut rxs = Vec::new();
        for i in 0..8u32 {
            let stream = TcpStream::connect(addr).unwrap();
            let (sink, rx) = chan_sink();
            let t = client.handle().alloc_token();
            client.handle().add_stream(t, stream, sink);
            client.handle().send(t, Frame::RunWave { wave: i });
            rxs.push((i, rx));
        }
        for (i, rx) in rxs {
            assert_eq!(recv_frame_ev(&rx), Frame::RunWave { wave: i });
        }
    }

    #[test]
    fn peer_hangup_surfaces_as_clean_close() {
        let r = Reactor::spawn("x", FaultInjector::none(), metrics()).unwrap();
        let (sa, sb) = pair();
        let (sink, rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        drop(sb);
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            ConnEvent::Closed(reason) => assert!(reason.is_empty(), "{reason:?}"),
            ConnEvent::Frame(f) => panic!("unexpected frame {f:?}"),
        }
    }

    #[test]
    fn garbage_bytes_surface_as_protocol_close() {
        let r = Reactor::spawn("x", FaultInjector::none(), metrics()).unwrap();
        let (sa, mut sb) = pair();
        let (sink, rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        // An absurd length word poisons the stream.
        sb.write_all(&u32::MAX.to_le_bytes()).unwrap();
        sb.write_all(&[0u8; 8]).unwrap();
        match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            ConnEvent::Closed(reason) => assert!(reason.contains("protocol"), "{reason:?}"),
            ConnEvent::Frame(f) => panic!("unexpected frame {f:?}"),
        }
    }

    #[test]
    fn coalesced_sends_cross_in_bulk_and_count_bytes() {
        let m = metrics();
        let r = Reactor::spawn("x", FaultInjector::none(), m.clone()).unwrap();
        let (sa, mut sb) = pair();
        let (sink, _rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        let frames: Vec<Frame> = (0..100).map(|wave| Frame::RunWave { wave }).collect();
        for f in &frames {
            r.handle().send(t, f.clone());
        }
        // The blocking reader sees all 100 in order regardless of how
        // they were batched on the wire.
        sb.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for f in &frames {
            assert_eq!(&Frame::read_counted(&mut sb).unwrap().0, f);
        }
        // The byte counter is updated by the reactor thread right after
        // its write returns; the reader above can observe the bytes
        // first, so give the counter a moment to catch up.
        let total: u64 = frames.iter().map(|f| f.encode().len() as u64).sum();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while m.bytes_sent.get() < total && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(m.bytes_sent.get(), total);
        assert_eq!(m.frames.get(), 100);
    }

    /// A sink that upgrades a `Weak` to its owner can be the one that
    /// drops the owner's last handle, reactor included, on the loop
    /// thread. That must end the loop, not self-join.
    #[test]
    fn reactor_dropped_inside_its_own_callback_ends_the_loop() {
        let r = Reactor::spawn("x", FaultInjector::none(), metrics()).unwrap();
        let (sa, mut sb) = pair();
        let t = r.handle().alloc_token();
        let handle = r.handle();
        let owner = Mutex::new(Some(r));
        let (done_tx, done_rx) = mpsc::channel();
        handle.add_stream(
            t,
            sa,
            Box::new(move |_| {
                drop(owner.lock().unwrap().take());
                let _ = done_tx.send(());
            }),
        );
        Frame::ListRuns.write_to(&mut sb).unwrap();
        done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        // The loop ended and closed its end of the connection.
        sb.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        assert_eq!(sb.read(&mut [0u8; 8]).unwrap(), 0);
    }

    #[test]
    fn shutdown_flushes_staged_writes() {
        let r = Reactor::spawn("x", FaultInjector::none(), metrics()).unwrap();
        let (sa, mut sb) = pair();
        let (sink, _rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        for wave in 0..16 {
            r.handle().send(t, Frame::RunWave { wave });
        }
        r.shutdown();
        sb.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        for wave in 0..16 {
            assert_eq!(
                Frame::read_counted(&mut sb).unwrap().0,
                Frame::RunWave { wave }
            );
        }
    }

    /// A peer that stops reading is closed by name once the bytes this
    /// reactor encoded for it pass `STAGED_LIMIT`. A payload it shares
    /// is not its copy: the same limit-sized buffer queued twice leaves
    /// the connection open, and every byte arrives.
    #[test]
    fn a_peer_that_stops_reading_is_closed_by_name_past_the_staged_limit() {
        let r = Reactor::spawn("x", FaultInjector::none(), metrics()).unwrap();
        let (sa, mut sb) = pair();
        let (sink, rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sa, sink);
        let payload = Bytes::from(vec![7u8; STAGED_LIMIT]);
        let pull = Frame::PullData {
            name: 1,
            version: 0,
            piece: 1 << 32,
            owner: 1,
            to_node: 0,
            data: Vec::new(),
        };
        r.handle().send_shared(t, pull.clone(), payload.clone());
        r.handle().send_shared(t, pull, payload);
        r.handle().send(t, Frame::RunWave { wave: 1 });
        let wire = 2 * (42 + STAGED_LIMIT as u64) + 10;
        sb.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let read = std::io::copy(&mut (&mut sb).take(wire), &mut std::io::sink()).unwrap();
        assert_eq!(read, wire);
        assert!(rx.try_recv().is_err(), "shared payloads closed the peer");

        let (sc, _silent) = pair();
        let (sink, rx) = chan_sink();
        let t = r.handle().alloc_token();
        r.handle().add_stream(t, sc, sink);
        let big = Frame::RpcErr {
            message: "x".repeat(1 << 20),
        };
        let reason = (0..1024)
            .find_map(|_| {
                r.handle().send(t, big.clone());
                match rx.recv_timeout(Duration::from_millis(1)) {
                    Ok(ConnEvent::Closed(reason)) => Some(reason),
                    _ => None,
                }
            })
            .expect("a peer that never reads was never closed");
        let staged: usize = reason
            .strip_prefix("peer stopped reading: ")
            .and_then(|rest| rest.strip_suffix(" bytes staged"))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("{reason:?}"));
        assert!(staged > STAGED_LIMIT && staged < STAGED_LIMIT + (2 << 20));
    }
}
