//! The reactor: one event-loop thread per process owns every
//! connection, whatever the routing policy addresses them for.
//!
//! - every connection (and listener) registers with the
//!   [`insitu_util::Poller`] — `epoll` underneath — in non-blocking
//!   mode; an idle loop parks in the kernel and costs nothing, and any
//!   handle wakes it through the poller's `eventfd`;
//! - each connection owns a staged *write* buffer — all frames queued
//!   since the last loop iteration are encoded back-to-back and cross
//!   the socket in as few `write` syscalls as the kernel allows
//!   (small-message coalescing), preserving per-connection FIFO order;
//!   a connection whose socket refuses bytes is watched for
//!   writability until its buffer drains;
//! - each connection owns a staged *read* buffer drained through
//!   [`FrameDecoder`], so a socket read may surface zero, one or many
//!   frames regardless of how the peer batched them;
//! - incoming frames are handed to a per-connection *sink* callback on
//!   the reactor thread; sinks must not block (hand off to channels).
//!
//! Fault gating matches the blocking handshake path
//! ([`crate::conn::send_frame`]) exactly: only fault-eligible frames
//! are offered to the `net.send` / `net.recv` sites; a `Drop` verdict
//! discards the frame (send: never staged; recv: decoded then
//! discarded), a `Delay` sleeps the reactor thread — the whole
//! process's wire stalls, which is the closest single-threaded
//! analogue of a congested NIC.

use crate::conn::{passes_fault_site, NetMetrics};
use crate::frame::{Frame, FrameDecoder};
use insitu_fabric::{FaultInjector, NetOp};
use insitu_util::channel::{unbounded, Receiver, Sender};
use insitu_util::poller::{Poller, Waker};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
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
    Send(Token, Frame),
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
        self.push(Cmd::Send(token, frame));
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
    /// Staged outbound bytes (encoded frames, back to back).
    out: Vec<u8>,
    /// Prefix of `out` already written to the socket.
    out_pos: usize,
    /// Whether the poller watches this socket for writability: armed
    /// when a flush leaves bytes staged, disarmed once they drain.
    write_armed: bool,
}

impl Conn {
    fn pending_out(&self) -> usize {
        self.out.len() - self.out_pos
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
        let (tx, rx) = unbounded();
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
                    out: Vec::new(),
                    out_pos: 0,
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
    flush(conn, metrics)?;
    let want = conn.pending_out() > 0;
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
    for conn in conns.values_mut().filter(|c| c.pending_out() > 0) {
        let left = deadline.saturating_duration_since(Instant::now());
        // A zero timeout would mean "block forever".
        let timeout = Some(left.max(Duration::from_millis(1)));
        let staged = &conn.out[conn.out_pos..];
        let sent = conn.stream.set_nonblocking(false).is_ok()
            && conn.stream.set_write_timeout(timeout).is_ok()
            && conn.stream.write_all(staged).is_ok();
        if sent {
            metrics.bytes_sent.add(staged.len() as u64);
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

    loop {
        // (1) Drain every pending command before touching the wire:
        // consecutive Sends to one connection coalesce into its staged
        // buffer and cross the socket as one write run.
        while let Some(cmd) = rx.try_recv() {
            match cmd {
                Cmd::AddStream(token, stream, sink) => {
                    adopt(&mut poller, &mut conns, token, stream, sink);
                }
                Cmd::AddListener(listener, accept) => {
                    let tok = next_token.fetch_add(1, Ordering::Relaxed);
                    if poller.register_listener(tok, &listener).is_ok() {
                        listeners.insert(tok, (listener, accept));
                    }
                }
                Cmd::Send(token, frame) => {
                    let Some(conn) = conns.get_mut(&token.0) else {
                        continue; // peer already gone
                    };
                    // A Delay verdict stalls the whole reactor — the
                    // process's single wire thread — which is the
                    // intended congestion model.
                    if !passes_fault_site(&frame, NetOp::Send, &injector) {
                        continue;
                    }
                    // Encoded straight onto the staged bytes; a frame
                    // no peer would accept ends the connection by name
                    // instead of poisoning the peer's decoder.
                    match frame.encode_into(&mut conn.out) {
                        Ok(_) => metrics.frames.inc(),
                        Err(refused) => closed.push((token.0, refused.to_string())),
                    }
                }
                Cmd::Shutdown => {
                    drain_on_shutdown(&mut conns, &metrics);
                    return;
                }
            }
        }

        // (2) Flush freshly staged writes. A connection already armed
        // for writability is flushed when the poller reports it.
        for (tok, conn) in conns.iter_mut() {
            if conn.pending_out() > 0 && !conn.write_armed {
                if let Err(e) = flush_and_arm(&mut poller, *tok, conn, &metrics) {
                    closed.push((*tok, format!("write: {e}")));
                }
            }
        }
        retire(&mut poller, &mut conns, &mut closed);
        let staged: usize = conns.values().map(Conn::pending_out).sum();
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
            // Read the connection dry.
            'reads: loop {
                match conn.stream.read(&mut scratch) {
                    Ok(0) => {
                        closed.push((tok, String::new())); // clean EOF
                        break 'reads;
                    }
                    Ok(n) => {
                        metrics.bytes_recv.add(n as u64);
                        conn.decoder.push(&scratch[..n]);
                        loop {
                            match conn.decoder.next_frame() {
                                Ok(Some(frame)) => {
                                    metrics.frames.inc();
                                    if passes_fault_site(&frame, NetOp::Recv, &injector) {
                                        (conn.sink)(ConnEvent::Frame(frame));
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
        }
        retire(&mut poller, &mut conns, &mut closed);
    }
}

/// Write as much of the staged buffer as the socket accepts.
fn flush(conn: &mut Conn, metrics: &NetMetrics) -> std::io::Result<()> {
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return Err(std::io::Error::from(ErrorKind::WriteZero)),
            Ok(n) => {
                conn.out_pos += n;
                metrics.bytes_sent.add(n as u64);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    if conn.out_pos == conn.out.len() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos > 64 * 1024 {
        // Reclaim the written prefix of a large half-flushed buffer.
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_telemetry::Recorder;
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
            assert_eq!(&Frame::read_from(&mut sb).unwrap(), f);
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
            assert_eq!(Frame::read_from(&mut sb).unwrap(), Frame::RunWave { wave });
        }
    }
}
