//! The connection layer: the `net.*` counters, retrying connect, and
//! counted, fault-gated *blocking* frame I/O over `std::net::TcpStream`
//! — for clients only, which wait on their server by design: a
//! joiner's side of the Hello/Welcome handshake and the service's RPC
//! client. No server reads a socket here: the hub and the service
//! serve every connection, handshake included, on a [`crate::reactor`].
//!
//! Fault gating is by frame class, decided here (the caller of the
//! codec), not in the chaos plan: only fault-eligible frames — the
//! data plane ([`Frame::PullData`]) and the telemetry plane
//! ([`Frame::Telemetry`], whose loss degrades observability, never a
//! run) — are offered to the `net.send` / `net.recv` sites, because
//! dropping other control frames would model an unreliable management
//! server, which neither the paper's system nor this one has. Connect
//! attempts are offered to `net.connect` on every try.

use crate::frame::{Frame, FrameError};
use insitu_fabric::{FaultAction, FaultInjector, NetOp};
use insitu_telemetry::{Counter, Gauge, Recorder};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Wire-transport failures, as seen by the hub and the link.
#[derive(Clone, Debug, PartialEq)]
pub enum NetError {
    /// Underlying socket error (includes a peer hanging up).
    Io(String),
    /// A deadline expired (connect retries, barrier or report waits).
    Timeout(String),
    /// The peer violated the protocol (bad handshake, out-of-range node).
    Protocol(String),
    /// The codec rejected a frame.
    Frame(FrameError),
    /// An injected `net.connect` fault forbade the operation.
    Fault(String),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "net i/o: {e}"),
            NetError::Timeout(e) => write!(f, "net timeout: {e}"),
            NetError::Protocol(e) => write!(f, "net protocol: {e}"),
            NetError::Frame(e) => write!(f, "net frame: {e}"),
            NetError::Fault(e) => write!(f, "net fault injected: {e}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => NetError::Io(io),
            refused @ FrameError::TooLong { .. } => NetError::Protocol(refused.to_string()),
            timeout @ FrameError::TimedOut => NetError::Timeout(timeout.to_string()),
            other => NetError::Frame(other),
        }
    }
}

/// The subsystem's telemetry counters, surfaced in the registry
/// snapshot as `net.*`.
#[derive(Clone)]
pub struct NetMetrics {
    /// Frame bytes written to sockets (length word included).
    pub bytes_sent: Counter,
    /// Frame bytes read from sockets (length word included).
    pub bytes_recv: Counter,
    /// Frames moved in either direction.
    pub frames: Counter,
    /// Connect attempts that failed and were retried.
    pub reconnects: Counter,
    /// PullData frames the hub relayed (star routing). The p2p
    /// acceptance gate asserts this stays zero under `--p2p`: the hub
    /// must carry control traffic only.
    pub pull_hub: Counter,
    /// PullData frames a link sent on a direct node↔node connection
    /// (p2p routing); zero on star-routed runs.
    pub pull_p2p: Counter,
    /// Link-stall episodes declared by the service watchdog (no pull
    /// progress within its stall window, or p99 drift past its factor).
    pub link_stalls: Counter,
    /// Payload bytes moved through intra-host shared-memory rings
    /// (either direction), never touching a socket.
    pub shm_bytes: Counter,
    /// PullData records moved through intra-host shared-memory rings.
    pub shm_frames: Counter,
    /// Times a same-host pair degraded a record (or the whole pair) to
    /// the TCP path, all causes: attach failures, a ring that refused
    /// the push, payloads larger than the arena.
    pub shm_fallbacks: Counter,
    /// The load-caused share of `shm_fallbacks`: pushes a full ring
    /// (`SlotsFull`/`ArenaFull`) refused. These follow consumer timing,
    /// not the chaos seed — replay checks compare
    /// `shm_fallbacks - shm_fallbacks_full`.
    pub shm_fallbacks_full: Counter,
    /// `PullData` payload bytes copied in user space between socket and
    /// registry by decoder, reactor, hub or link. A run reads 0: a
    /// payload is read into the vector the registry keeps and written
    /// from the staged buffer; what `FrameDecoder::push` copies counts.
    pub payload_copy: Counter,
    /// Pulls requested but not yet landed, kept current by the link.
    pub pulls_in_flight: Gauge,
    /// Bytes staged on this process's reactor send paths, encoded but
    /// not yet flushed to a socket — the wire-side queue depth, under
    /// either routing policy.
    pub bytes_in_flight: Gauge,
}

impl NetMetrics {
    /// Counters registered under `net.*` in `recorder`.
    pub fn new(recorder: &Recorder) -> Self {
        NetMetrics {
            bytes_sent: recorder.counter("net.bytes_sent"),
            bytes_recv: recorder.counter("net.bytes_recv"),
            frames: recorder.counter("net.frames"),
            reconnects: recorder.counter("net.reconnects"),
            pull_hub: recorder.counter("net.pull_frames_hub"),
            pull_p2p: recorder.counter("net.pull_frames_p2p"),
            link_stalls: recorder.counter("net.link_stalls"),
            shm_bytes: recorder.counter("net.shm_bytes"),
            shm_frames: recorder.counter("net.shm_frames"),
            shm_fallbacks: recorder.counter("net.shm_fallbacks"),
            shm_fallbacks_full: recorder.counter("net.shm_fallbacks_full"),
            payload_copy: recorder.counter("net.payload_copy_bytes"),
            pulls_in_flight: recorder.gauge("net.pulls_in_flight"),
            bytes_in_flight: recorder.gauge("net.bytes_in_flight"),
        }
    }
}

/// Offer `frame` to its wire fault site: a `PullData` to
/// [`FaultHooks::on_net`](insitu_fabric::FaultHooks::on_net) for `op`,
/// a `Telemetry` batch to
/// [`FaultHooks::telemetry_lost`](insitu_fabric::FaultHooks::telemetry_lost).
/// Every other frame passes: dropping a control frame would model an
/// unreliable management server, which the system does not have.
/// `false` means the wire "lost" the frame; a `Delay` verdict sleeps the
/// calling thread first.
pub(crate) fn passes_fault_site(frame: &Frame, op: NetOp, injector: &FaultInjector) -> bool {
    let verdict = match frame {
        Frame::PullData { name, piece, .. } => injector.on_net(op, frame.kind(), *name, *piece),
        Frame::Telemetry { node, batch, .. } => return !injector.telemetry_lost(*node, *batch),
        _ => return true,
    };
    match verdict {
        FaultAction::Drop => false,
        FaultAction::Delay(d) => {
            std::thread::sleep(d);
            true
        }
        FaultAction::Proceed => true,
    }
}

/// Write one frame, consulting its `net.send` fault site (pull data and
/// telemetry batches have one). A dropped frame is silently not written
/// (the wire "lost" it); a delayed frame sleeps first. Control-plane
/// frames bypass the injector entirely.
/// A frame over `MAX_FRAME_LEN` is refused with [`NetError::Protocol`]
/// naming its kind and size, before any byte is written.
pub fn send_frame(
    stream: &mut TcpStream,
    frame: &Frame,
    injector: &FaultInjector,
    metrics: &NetMetrics,
) -> Result<(), NetError> {
    if !passes_fault_site(frame, NetOp::Send, injector) {
        return Ok(());
    }
    let sent = frame.write_to(stream)?;
    metrics.bytes_sent.add(sent as u64);
    metrics.frames.inc();
    Ok(())
}

/// Read frames until one survives the `net.recv` fault site. Bytes and
/// frames are counted on arrival (the wire carried them); a frame its
/// fault site drops is then discarded and the read continues, exactly
/// as if the frame had been lost in flight. A read timeout set
/// on `stream` that expires first is a [`NetError::Timeout`].
pub fn recv_frame(
    stream: &mut TcpStream,
    injector: &FaultInjector,
    metrics: &NetMetrics,
) -> Result<Frame, NetError> {
    loop {
        let (frame, wire_len) = Frame::read_counted(stream)?;
        metrics.bytes_recv.add(wire_len as u64);
        metrics.frames.inc();
        if passes_fault_site(&frame, NetOp::Recv, injector) {
            return Ok(frame);
        }
    }
}

/// Connect to `addr`, retrying until `timeout` elapses.
///
/// Each attempt consults the `net.connect` fault site with ids
/// `(node, 0)`; a `Drop` verdict fails immediately — the site is
/// deterministic, so retrying would reroll the same refusal forever.
/// Unresolvable addresses fail immediately with a clear error; refused
/// or unreachable endpoints are retried (counting `net.reconnects`)
/// until the deadline, then fail with an error naming the address.
pub fn connect_with_retry(
    addr: &str,
    node: u32,
    timeout: Duration,
    injector: &FaultInjector,
    metrics: &NetMetrics,
) -> Result<TcpStream, NetError> {
    let deadline = Instant::now() + timeout;
    let target = addr
        .to_socket_addrs()
        .map_err(|e| NetError::Protocol(format!("cannot resolve {addr}: {e}")))?
        .next()
        .ok_or_else(|| NetError::Protocol(format!("{addr} resolves to no address")))?;
    let mut last_err = String::new();
    loop {
        match injector.on_net(NetOp::Connect, 0, node as u64, 0) {
            FaultAction::Drop => {
                return Err(NetError::Fault(format!(
                    "connect from node {node} to {addr} dropped"
                )));
            }
            FaultAction::Delay(d) => std::thread::sleep(d),
            FaultAction::Proceed => {}
        }
        let now = Instant::now();
        if now >= deadline {
            return Err(NetError::Timeout(format!(
                "could not connect to {addr} within {}ms: {last_err}",
                timeout.as_millis()
            )));
        }
        let budget = (deadline - now).min(Duration::from_millis(250));
        match TcpStream::connect_timeout(&target, budget) {
            Ok(stream) => return Ok(stream),
            Err(e) => {
                last_err = e.to_string();
                metrics.reconnects.inc();
                std::thread::sleep(Duration::from_millis(30));
            }
        }
    }
}

/// This process's resident set, in bytes (`/proc/self/statm`).
#[cfg(test)]
pub(crate) fn resident_bytes() -> usize {
    let statm = std::fs::read_to_string("/proc/self/statm").expect("procfs");
    let pages: usize = statm.split(' ').nth(1).unwrap().parse().unwrap();
    pages * 4096
}

/// A `PullData` of `payload` bytes on the wire, its length word and its
/// payload count (the words at 0 and 38) then set to what a hostile
/// peer would have them say.
#[cfg(test)]
fn forged_pull_data(payload: usize, len: u32, count: u32) -> Vec<u8> {
    let mut wire = Frame::PullData {
        name: 1,
        version: 0,
        piece: 1 << 32,
        owner: 1,
        to_node: 0,
        data: vec![0xAB; payload],
    }
    .encode();
    wire[..4].copy_from_slice(&len.to_le_bytes());
    wire[38..42].copy_from_slice(&count.to_le_bytes());
    wire
}

/// The bytes a hostile peer opens with to make this end reserve the
/// largest payload there is: a sound `PullData` head declaring
/// `MAX_FRAME_LEN`, and the first MiB of the 256 it promises.
#[cfg(test)]
pub(crate) fn greedy_pull_data() -> Vec<u8> {
    let len = crate::frame::MAX_FRAME_LEN;
    forged_pull_data(1 << 20, len, len - 38)
}

/// Whole `PullData` frames of 1000 payload bytes whose head is off —
/// the count over and under what the length word leaves, the version,
/// the length word itself — each with how `Frame::decode` (the decoder
/// never judges such a head itself) words its rejection.
#[cfg(test)]
pub(crate) fn irregular_pull_data() -> [(Vec<u8>, &'static str); 4] {
    let mut bad_version = forged_pull_data(1000, 1038, 1000);
    bad_version[4] = crate::frame::WIRE_VERSION + 1;
    let too_long = crate::frame::MAX_FRAME_LEN + 1;
    [
        (forged_pull_data(1000, 1038, 1001), "truncated frame"),
        (
            forged_pull_data(1000, 1038, 999),
            "bad frame payload: trailing bytes",
        ),
        (bad_version, "unsupported wire version"),
        (forged_pull_data(1000, too_long, 1000), "bad frame length"),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let a = TcpStream::connect(addr).unwrap();
        let (b, _) = listener.accept().unwrap();
        (a, b)
    }

    #[test]
    fn frames_cross_a_socket_and_are_counted() {
        let (mut a, mut b) = pair();
        let inj = FaultInjector::none();
        let m = NetMetrics::new(&Recorder::disabled());
        let frame = Frame::Barrier { wave: 4, node: 1 };
        send_frame(&mut a, &frame, &inj, &m).unwrap();
        assert_eq!(recv_frame(&mut b, &inj, &m).unwrap(), frame);
        let wire = frame.encode().len() as u64;
        assert_eq!(m.bytes_sent.get(), wire);
        assert_eq!(m.bytes_recv.get(), wire);
        assert_eq!(m.frames.get(), 2);
    }

    /// Each frame reaches its own fault site: `PullData` the wire hook
    /// with its kind, name and piece; `Telemetry` the batch hook and
    /// never the wire hook; every control frame neither.
    #[test]
    fn each_frame_reaches_its_own_fault_site() {
        use insitu_fabric::{FaultHooks, NodeId};
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Counting {
            net: Mutex<Vec<(NetOp, u8, u64, u64)>>,
            telemetry: Mutex<Vec<(NodeId, u32)>>,
        }
        impl FaultHooks for Counting {
            fn on_net(&self, op: NetOp, kind: u8, a: u64, b: u64) -> FaultAction {
                self.net.lock().unwrap().push((op, kind, a, b));
                FaultAction::Proceed
            }
            fn telemetry_lost(&self, node: NodeId, batch: u32) -> bool {
                self.telemetry.lock().unwrap().push((node, batch));
                false
            }
        }

        let hooks = Arc::new(Counting::default());
        let inj = FaultInjector::new(hooks.clone());
        let piece = (3u64 << 32) | 7;
        let pull = Frame::PullData {
            name: 9,
            version: 1,
            piece,
            owner: 3,
            to_node: 0,
            data: vec![0; 8],
        };
        let telemetry = Frame::Telemetry {
            node: 2,
            batch: 5,
            last: true,
            dropped_events: 0,
            dropped_spans: 0,
            counters: Vec::new(),
            events: Vec::new(),
        };
        let control = [
            Frame::Relay {
                to: 1,
                src: 0,
                tag: 4,
                payload: vec![1, 2],
            },
            Frame::Barrier { wave: 4, node: 1 },
            Frame::ShmDoorbell {
                src_node: 1,
                dst_node: 0,
                segment: 1 << 32,
                seq: 3,
            },
        ];
        for op in [NetOp::Send, NetOp::Recv] {
            assert!(passes_fault_site(&pull, op, &inj));
            assert!(passes_fault_site(&telemetry, op, &inj));
            for frame in &control {
                assert!(passes_fault_site(frame, op, &inj));
            }
        }
        assert_eq!(
            *hooks.net.lock().unwrap(),
            [(NetOp::Send, 6, 9, piece), (NetOp::Recv, 6, 9, piece)],
            "only PullData reaches on_net, once per op"
        );
        assert_eq!(*hooks.telemetry.lock().unwrap(), [(2, 5), (2, 5)]);
    }

    #[test]
    fn bytes_recv_equals_bytes_sent_for_a_mixed_batch() {
        let (mut a, mut b) = pair();
        let inj = FaultInjector::none();
        let sent = NetMetrics::new(&Recorder::disabled());
        let recvd = NetMetrics::new(&Recorder::disabled());
        let batch = vec![
            Frame::RunWave { wave: 1 },
            Frame::PullData {
                name: 7,
                version: 2,
                piece: 3 << 32,
                owner: 3,
                to_node: 0,
                // Multi-MiB: larger than any socket buffer, so the
                // reader must run concurrently with the writer.
                data: (0..3u32 << 20).map(|i| i as u8).collect(),
            },
            Frame::PullRequest {
                name: 7,
                version: 2,
                piece: 1,
                from_node: 1,
            },
            Frame::Shutdown {
                ok: false,
                reason: "mixed batch".into(),
            },
        ];
        let expected = batch.clone();
        let writer = {
            let (inj, sent) = (inj.clone(), sent.clone());
            std::thread::spawn(move || {
                for frame in &batch {
                    send_frame(&mut a, frame, &inj, &sent).unwrap();
                }
            })
        };
        for frame in &expected {
            assert_eq!(&recv_frame(&mut b, &inj, &recvd).unwrap(), frame);
        }
        writer.join().unwrap();
        let wire: u64 = expected.iter().map(|f| f.encode().len() as u64).sum();
        assert_eq!(sent.bytes_sent.get(), wire);
        assert_eq!(recvd.bytes_recv.get(), sent.bytes_sent.get());
    }

    /// A read timeout that expires mid-wait is named as one, not as the
    /// `WouldBlock` the kernel reports it with.
    #[test]
    fn an_expired_read_timeout_is_a_timeout_by_name() {
        let (_a, mut b) = pair();
        b.set_read_timeout(Some(Duration::from_millis(20))).unwrap();
        let m = NetMetrics::new(&Recorder::disabled());
        let err = recv_frame(&mut b, &FaultInjector::none(), &m).unwrap_err();
        assert!(matches!(err, NetError::Timeout(_)), "{err:?}");
        assert!(!err.to_string().contains("os error"), "{err}");
    }

    #[test]
    fn a_refused_frame_is_a_protocol_error_carrying_the_refusal() {
        let refused = FrameError::TooLong {
            kind: 6,
            len: 1 << 30,
        };
        let text = refused.to_string();
        assert_eq!(NetError::from(refused), NetError::Protocol(text));
    }

    #[test]
    fn connect_retries_until_listener_appears() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        drop(listener);
        // Nothing is listening: a short budget times out with the
        // address in the error.
        let m = NetMetrics::new(&Recorder::disabled());
        let err = connect_with_retry(
            &addr,
            0,
            Duration::from_millis(120),
            &FaultInjector::none(),
            &m,
        )
        .unwrap_err();
        match err {
            NetError::Timeout(msg) => assert!(msg.contains(&addr), "{msg}"),
            other => panic!("expected timeout, got {other:?}"),
        }
        assert!(m.reconnects.get() >= 1);
    }

    #[test]
    fn unresolvable_address_fails_immediately() {
        let err = connect_with_retry(
            "definitely-not-a-host.invalid:1",
            0,
            Duration::from_secs(30),
            &FaultInjector::none(),
            &NetMetrics::new(&Recorder::disabled()),
        )
        .unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err:?}");
    }
}
