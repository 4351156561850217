use super::*;
use crate::conn::{recv_frame, send_frame};
use insitu_cods::{var_id, CodsConfig, Dht};
use insitu_fabric::{Placement, TransferLedger};
use insitu_sfc::HilbertCurve;
use insitu_telemetry::Recorder;
use shm::SHM_ARENA;

fn key(piece: u64) -> BufKey {
    BufKey {
        name: 7,
        version: 0,
        piece,
    }
}

/// Node 0's started link in a run of three one-core nodes on one host,
/// with this test playing the hub on the far end of its one hub
/// connection (bare socket, 10 s read bound — generous, and far above
/// what a socket hop takes).
struct Rig {
    link: Arc<NetLink>,
    dart: Arc<DartRuntime>,
    /// The link only looks back at the space: the rig is its owner.
    space: Arc<CodsSpace>,
    ctl: Receiver<Ctl>,
    wire: TcpStream,
    /// Where the link's own peer listener accepts.
    peer_addr: std::net::SocketAddr,
    inj: FaultInjector,
    rec: Recorder,
    metrics: NetMetrics,
}

/// A star-routed rig.
fn rig() -> Rig {
    rig_with(false)
}

/// A rig whose `Welcome` carried a peer table iff `p2p`: the link's own
/// listener for node 0, and addresses nobody listens on for the rest.
fn rig_with(p2p: bool) -> Rig {
    let inj = FaultInjector::none();
    let rec = Recorder::enabled();
    let metrics = NetMetrics::new(&rec);
    let hub = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(hub.local_addr().unwrap()).unwrap();
    let (wire, _) = hub.accept().unwrap();
    wire.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();

    let machine = MachineSpec::new(3, 1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer_addr = listener.local_addr().unwrap();
    let peers = match p2p {
        true => vec![
            peer_addr.to_string(),
            "127.0.0.1:1".into(),
            "127.0.0.1:1".into(),
        ],
        false => Vec::new(),
    };
    let link = NetLink::new(
        stream,
        0,
        machine,
        inj.clone(),
        metrics.clone(),
        FlightRecorder::disabled(),
        peers,
        vec!["host".into(); 3],
        listener,
        Duration::from_secs(1),
    )
    .unwrap();
    let dart = DartRuntime::with_transport(
        Arc::new(Placement::pack_sequential(machine, 3)),
        Arc::new(TransferLedger::new()),
        rec.clone(),
        inj.clone(),
        FlightRecorder::disabled(),
        Arc::clone(&link) as Arc<dyn Transport>,
    );
    let space = CodsSpace::new(
        Arc::clone(&dart),
        Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 1]),
        CodsConfig::default(),
    );
    let ctl = link.start_reader(&space);
    Rig {
        link,
        dart,
        space,
        ctl,
        wire,
        peer_addr,
        inj,
        rec,
        metrics,
    }
}

impl Rig {
    /// Play node 1 asking node 0 for `piece`, hub relay and all.
    fn ask(&mut self, piece: u64) {
        let req = Frame::PullRequest {
            name: 7,
            version: 0,
            piece,
            from_node: 1,
        };
        send_frame(&mut self.wire, &req, &self.inj, &self.metrics).unwrap();
    }

    /// The next frame the link sent up its hub connection.
    fn answer(&mut self) -> Frame {
        match recv_frame(&mut self.wire, &self.inj, &self.metrics) {
            Ok(frame) => frame,
            Err(e) => panic!("no answer within the bound: {e:?}"),
        }
    }
}

/// HybridDART's one decision, as node 0 of a three-node run takes it
/// from the two tables of a `Welcome` — and the one way it changes.
#[test]
fn data_path_is_selected_from_the_welcome_and_only_degrades() {
    use {Carrier::*, Route::*};
    let remote = |route, carrier| DataPath::Remote { route, carrier };
    let table = |t: &[&str]| t.iter().map(|s| s.to_string()).collect::<Vec<_>>();
    let (star, p2p) = (table(&[]), table(&["a:1", "b:2", "c:3"]));
    // (peer table, host fingerprints, node) → its path.
    let rows = [
        (&star, table(&["h", "h", "x"]), 0, DataPath::Local),
        (&p2p, table(&["h", "h", "x"]), 0, DataPath::Local),
        (&star, table(&["h", "h", "x"]), 1, remote(Hub, Shm)),
        (&star, table(&["h", "h", "x"]), 2, remote(Hub, Wire)),
        (&star, table(&["h", "", "h"]), 1, remote(Hub, Wire)),
        (&star, table(&["", "h", "h"]), 1, remote(Hub, Wire)),
        (&star, table(&[]), 1, remote(Hub, Wire)),
        (&p2p, table(&["h", "h", "x"]), 1, remote(Direct, Shm)),
        (&p2p, table(&["h", "h", "x"]), 2, remote(Direct, Wire)),
        (&p2p, table(&["", "", "h"]), 1, remote(Direct, Wire)),
        (&p2p, table(&[]), 2, remote(Direct, Wire)),
    ];
    for (peers, hosts, node, expected) in rows {
        let got = DataPath::select(0, node, peers, &hosts);
        assert_eq!(
            got, expected,
            "peers {peers:?}, hosts {hosts:?}, node {node}"
        );
    }

    // Node 1 — this test — is offered the pair's segment with the first
    // answer and refuses the attach: its carrier flips to the wire, the
    // staged record comes again as `PullData`, node 2 is left alone.
    let mut r = rig();
    let paths = |link: &NetLink| link.paths.iter().map(shm::Pair::path).collect::<Vec<_>>();
    let shm = [DataPath::Local, remote(Hub, Shm), remote(Hub, Shm)];
    assert_eq!(paths(&r.link), shm);
    r.dart
        .registry()
        .register(key(0), 0, Bytes::from_static(b"staged"));
    r.ask(0);
    let Frame::ShmOffer { segment, .. } = r.answer() else {
        panic!("the first answer to a same-host node did not offer a segment");
    };
    assert!(matches!(r.answer(), Frame::ShmDoorbell { .. }));
    let nack = Frame::ShmAck {
        src_node: 0,
        dst_node: 1,
        segment,
        seq: 0,
        attached: false,
    };
    send_frame(&mut r.wire, &nack, &r.inj, &r.metrics).unwrap();
    assert!(matches!(r.answer(), Frame::PullData { data, .. } if data == b"staged"));
    let degraded = [DataPath::Local, remote(Hub, Wire), remote(Hub, Shm)];
    assert_eq!(paths(&r.link), degraded);
    r.link.close();
}

/// A piece one of this node's own clients produces can only arrive by
/// that client's put: waiting for it must touch no socket, under p2p
/// routing included.
#[test]
fn pull_of_a_piece_this_node_hosts_dials_nobody_and_sends_nothing() {
    let r = rig_with(true);
    let missing = r
        .dart
        .pull_many(&[key(0)], Duration::from_millis(20), |_, _, _| {});
    assert_eq!(missing, Err(0));
    assert_eq!(r.link.peers.live(), 0, "the link dialed its own listener");
    assert_eq!(r.metrics.frames.get(), 0);
    r.link.close();
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
    // Two staged half-arena buffers ride the ring and fill it.
    let half = Bytes::from(vec![0u8; (SHM_ARENA / 2) as usize]);
    dart.registry().register(key(0), 0, half.clone());
    dart.registry().register(key(1), 0, half);
    r.ask(0);
    r.ask(1);
    let mut doorbells = 0;
    while doorbells < 2 {
        match r.answer() {
            Frame::ShmOffer { arena_bytes, .. } => assert_eq!(arena_bytes, SHM_ARENA),
            Frame::ShmDoorbell { .. } => doorbells += 1,
            other => panic!("unexpected frame kind {}", other.kind()),
        }
    }
    // Two more pulls park on keys nobody has put yet, so that one
    // producer's puts release both answers at the same moment.
    r.ask(2);
    r.ask(3);
    while dart.registry().waiter_count() < 2 {
        std::thread::yield_now();
    }
    dart.registry()
        .register(key(2), 0, Bytes::from_static(b"two"));
    dart.registry()
        .register(key(3), 0, Bytes::from_static(b"three"));
    let mut data = Vec::new();
    while data.len() < 2 {
        match r.answer() {
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

/// A get reads a landed buffer as `f64` cells in place and refuses one
/// it cannot, so every record `shm_drain` lands with whole cells must be
/// viewable as cells, ragged records before it or not. This test plays
/// node 1 producing into its own segment for node 0: offer, doorbell,
/// and node 0 drains every record into its registry.
#[test]
fn every_whole_cell_record_shm_lands_is_viewable_as_cells() {
    use insitu_cods::codec::{f64s_of_bytes, ELEM_BYTES};
    use insitu_util::shm::{segment_dir, segment_name, RecordDesc, Ring, RingMem, ShmMap};
    let mut r = rig();
    let (slots, arena) = (16, 1 << 20);
    // Nonce 0 is never one a link of this process draws.
    let path = segment_dir().join(segment_name(std::process::id(), 0, 1, 0));
    let map = ShmMap::create(&path, Ring::required_len(slots, arena)).unwrap();
    let ring = Ring::create(RingMem::from_map(Arc::new(map)), slots, arena);
    let lens = [13, 8, 5, 24, 1, 4096 + 8, 3, 8000, 7, 16];
    // Client 1's pieces: the owner rides in each id's upper half.
    let piece = |i: usize| (1 << 32) | i as u64;
    for (i, &len) in lens.iter().enumerate() {
        let desc = RecordDesc {
            name: 7,
            version: 0,
            piece: piece(i),
            owner: 1,
        };
        ring.push(&desc, &vec![0xa5; len]).unwrap();
    }
    let segment = 1 << 32;
    let offer = Frame::ShmOffer {
        src_node: 1,
        dst_node: 0,
        segment,
        path: path.to_string_lossy().into_owned(),
        slots: slots as u64,
        arena_bytes: arena,
    };
    send_frame(&mut r.wire, &offer, &r.inj, &r.metrics).unwrap();
    assert!(matches!(r.answer(), Frame::ShmAck { attached: true, .. }));
    let _ = std::fs::remove_file(&path);
    // The drain follows the ack on the reactor thread.
    let registry = r.dart.registry();
    let last = key(piece(lens.len() - 1));
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while registry.get(&last).is_none() && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    for (i, &len) in lens.iter().enumerate() {
        let landed = registry.get(&key(piece(i))).expect("drained on attach");
        assert!(landed.data.is_mapped() && landed.data.len() == len);
        if len % ELEM_BYTES == 0 {
            let at = landed.data.as_ptr();
            assert!(
                f64s_of_bytes(&landed.data).is_some(),
                "{len} bytes at {at:p}"
            );
        }
    }
    r.link.close();
}

/// Wire values this end must check before acting on them: corners that
/// make no box — inverted, empty — decode fine (they are two `u64`
/// vectors) and used to reach the panicking constructor; a `Relay` to a
/// client or a `PullRequest` from a node outside the run used to reach
/// an unchecked index and an overflowing multiply; a `PullData` booked
/// under an owner outside the run, or under one its piece id does not
/// name, used to land for a get to account. All on the reactor thread,
/// the process's only wire thread. Each must end the run by name, and
/// the thread must still be delivering the `RunWave` sent right behind
/// it.
#[test]
fn hostile_corners_do_not_kill_the_wire_thread() {
    let mut r = rig();
    let hostile = [
        (
            "bbox corners",
            Frame::DhtInsert {
                var: 1,
                version: 0,
                owner: 1,
                piece: 0,
                lbs: vec![5],
                ubs: vec![1],
            },
        ),
        (
            "misaddressed",
            Frame::Relay {
                to: u32::MAX,
                src: 1,
                tag: 3,
                payload: vec![1, 2, 3],
            },
        ),
        (
            "misaddressed",
            Frame::PullRequest {
                name: 7,
                version: 0,
                piece: 0,
                from_node: u32::MAX,
            },
        ),
        (
            "misaddressed",
            Frame::PullData {
                name: 7,
                version: 0,
                piece: 5 << 32,
                owner: 5,
                to_node: 0,
                data: vec![0; 8],
            },
        ),
        (
            "misaddressed",
            Frame::PullData {
                name: 7,
                version: 0,
                piece: 1 << 32,
                owner: 2,
                to_node: 0,
                data: vec![0; 8],
            },
        ),
    ];
    for (why, frame) in hostile {
        let wave = frame.kind() as u32;
        send_frame(&mut r.wire, &frame, &r.inj, &r.metrics).unwrap();
        send_frame(&mut r.wire, &Frame::RunWave { wave }, &r.inj, &r.metrics).unwrap();
        let bound = Duration::from_secs(10);
        match r.ctl.recv_timeout(bound) {
            Ok(Ctl::Shutdown { ok: false, reason }) => assert!(
                reason.contains(why) && reason.contains(&format!("kind {wave}")),
                "{reason}"
            ),
            other => panic!("kind {wave} was not refused by name: {other:?}"),
        }
        assert_eq!(r.ctl.recv_timeout(bound), Ok(Ctl::RunWave(wave)));
    }
    r.link.close();
}

/// The peer listener of a p2p link takes whoever dials it. A peer that
/// declares the largest payload there is and stalls costs this process
/// what it delivered, not what it declared; one whose `PullData` head
/// is off in any way is hung up on; and through all of it the wire
/// thread goes on answering the pulls of the run.
#[test]
fn hostile_peers_on_the_p2p_listener_cost_a_hangup_each() {
    use std::io::{Read, Write};
    let mut r = rig_with(true);
    let wire = crate::conn::greedy_pull_data();
    let (before, resident) = (r.metrics.bytes_recv.get(), crate::conn::resident_bytes());
    let mut greedy = TcpStream::connect(r.peer_addr).unwrap();
    greedy.write_all(&wire).unwrap();
    while r.metrics.bytes_recv.get() < before + wire.len() as u64 {
        std::thread::yield_now();
    }
    let grown = crate::conn::resident_bytes().saturating_sub(resident);
    assert!(grown < 64 << 20, "resident set grew {grown} bytes");

    for (wire, rejection) in crate::conn::irregular_pull_data() {
        let mut peer = TcpStream::connect(r.peer_addr).unwrap();
        peer.set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        peer.write_all(&wire).unwrap();
        // Hung up on: end of stream, or a reset over the unread bytes.
        match peer.read(&mut [0u8; 8]) {
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
            other => panic!("{rejection}: not hung up on, {other:?}"),
        }
    }

    r.dart
        .registry()
        .register(key(0), 0, Bytes::from_static(b"staged"));
    r.ask(0);
    assert!(matches!(r.answer(), Frame::ShmOffer { .. }));
    drop(greedy);
    r.link.close();
}

/// A peer that dials the p2p listener can land a well-formed `PullData`
/// whose payload is not the cells of the piece a local get waits on:
/// 8 bytes short for a get that assembles part of the piece, 13 bytes
/// for one that would view the whole of it. Each get fails naming the
/// owner and both byte counts — no task thread panics — and the wire
/// thread still answers the next pull.
#[test]
fn a_peers_malformed_piece_fails_the_get_by_name() {
    use insitu_cods::CodsError;
    use insitu_domain::{Decomposition, Distribution, ProcessGrid};
    use std::io::Write;
    let mut r = rig_with(true);
    let domain = BoundingBox::from_sizes(&[4, 4]);
    let pdec = Decomposition::new(domain, ProcessGrid::new(&[1, 1]), Distribution::Blocked);
    let piece_bytes = domain.num_cells() as usize * 8;
    let mut peer = TcpStream::connect(r.peer_addr).unwrap();
    let cases = [
        (BoundingBox::new(&[0, 0], &[1, 3]), piece_bytes - 8),
        (domain, 13),
    ];
    for (version, (query, got)) in cases.into_iter().enumerate() {
        let version = version as u64;
        let space = Arc::clone(&r.space);
        let (tx, rx) = mpsc::channel();
        let task = std::thread::spawn(move || {
            let _ = tx.send(space.get_cont(0, 1, "v", version, &query, &pdec, &[1]));
        });
        // Client 1's piece 0, as the owner would answer the pull.
        let forged = Frame::PullData {
            name: var_id("v"),
            version,
            piece: 1 << 32,
            owner: 1,
            to_node: 0,
            data: vec![0xa5; got],
        };
        peer.write_all(&forged.encode()).unwrap();
        let err = match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Err(err)) => err,
            other => panic!("{got} bytes: the get did not fail by name: {other:?}"),
        };
        assert!(task.join().is_ok(), "the task thread panicked");
        assert_eq!(
            err,
            CodsError::MalformedPiece {
                var: var_id("v"),
                version,
                region: query,
                owner: 1,
                got,
                expected: piece_bytes,
            }
        );
        let why = err.to_string();
        assert!(
            why.contains("from client 1") && why.contains(&format!("{got} bytes")),
            "{why}"
        );
    }

    r.dart
        .registry()
        .register(key(0), 0, Bytes::from_static(b"staged"));
    r.ask(0);
    assert!(matches!(r.answer(), Frame::ShmOffer { .. }));
    drop(peer);
    r.link.close();
}

/// A peer can land a `PullData` of the right length booked under an
/// owner outside the run. It is ignored, not landed for the waiting get
/// to account (which indexed the placement out of bounds and panicked
/// the task thread): the honest copy behind it serves the get.
#[test]
fn a_peers_forged_owner_is_ignored_and_the_honest_piece_serves_the_get() {
    use insitu_domain::{layout, Decomposition, Distribution, ProcessGrid};
    use std::io::Write;
    let r = rig_with(true);
    let domain = BoundingBox::from_sizes(&[4, 4]);
    let pdec = Decomposition::new(domain, ProcessGrid::new(&[1, 1]), Distribution::Blocked);
    let cells = layout::fill_with(&domain, |p| (p[0] * 4 + p[1]) as f64);
    let bytes: Vec<u8> = cells.iter().flat_map(|c| c.to_ne_bytes()).collect();
    let space = Arc::clone(&r.space);
    let (tx, rx) = mpsc::channel();
    let task = std::thread::spawn(move || {
        let _ = tx.send(space.get_cont(0, 1, "v", 0, &domain, &pdec, &[1]));
    });
    let mut peer = TcpStream::connect(r.peer_addr).unwrap();
    for owner in [u32::MAX, 1] {
        // Client 1's piece 0, once forged and once as its owner answers.
        let data = Frame::PullData {
            name: var_id("v"),
            version: 0,
            piece: 1 << 32,
            owner,
            to_node: 0,
            data: bytes.clone(),
        };
        peer.write_all(&data.encode()).unwrap();
    }
    let got = match rx.recv_timeout(Duration::from_secs(10)) {
        Ok(Ok((got, _))) => got,
        other => panic!("the get did not return the honest cells: {other:?}"),
    };
    assert!(task.join().is_ok(), "the task thread panicked");
    assert_eq!(&got[..], &cells[..]);
    drop(peer);
    r.link.close();
}

/// Replica changes come from the server alone. A `GetDone` a peer sends
/// on its direct connection is read — the pull behind it on the same
/// connection is answered — and not applied.
#[test]
fn a_get_done_from_a_peer_is_read_but_not_applied() {
    use std::io::Write;
    let r = rig_with(true);
    r.dart
        .registry()
        .register(key(0), 0, Bytes::from_static(b"staged"));
    let mut peer = TcpStream::connect(r.peer_addr).unwrap();
    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let ask = Frame::PullRequest {
        name: 7,
        version: 0,
        piece: 0,
        from_node: 1,
    };
    let done = Frame::GetDone {
        var: var_id("v"),
        version: 0,
    };
    peer.write_all(&[done.encode(), ask.encode()].concat())
        .unwrap();
    let m = NetMetrics::new(&Recorder::disabled());
    match recv_frame(&mut peer, &r.inj, &m) {
        Ok(Frame::ShmOffer { .. }) => {}
        other => panic!("the pull behind the GetDone was not answered: {other:?}"),
    }
    assert_eq!(r.space.gets_completed("v", 0), 0);
    drop(peer);
    r.link.close();
}

/// `Threads:` of `/proc/self/status`.
fn os_threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    let line = status.lines().find(|l| l.starts_with("Threads:")).unwrap();
    line[8..].trim().parse().unwrap()
}

/// A peer that floods the p2p listener with pulls nobody will ever put
/// parks as many answers in the registry, not as many threads; the wire
/// thread goes on serving, and a pull that can be answered still is.
#[test]
fn a_pull_request_flood_parks_answers_not_threads() {
    use std::io::Write;
    const FLOOD: usize = 2000;
    let mut r = rig_with(true);
    let mut flood = Vec::new();
    for piece in 0..FLOOD as u64 {
        let req = Frame::PullRequest {
            name: 99,
            version: 0,
            piece,
            from_node: 1,
        };
        flood.extend_from_slice(&req.encode());
    }
    let before = os_threads();
    let mut peer = TcpStream::connect(r.peer_addr).unwrap();
    peer.write_all(&flood).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while r.dart.registry().waiter_count() < FLOOD && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    let grown = os_threads().saturating_sub(before);
    assert!(grown < 8, "{FLOOD} pulls added {grown} threads");
    assert_eq!(r.dart.registry().waiter_count(), FLOOD);

    r.ask(0);
    r.dart
        .registry()
        .register(key(0), 0, Bytes::from_static(b"staged"));
    assert!(matches!(r.answer(), Frame::ShmOffer { .. }));
    assert!(matches!(r.answer(), Frame::ShmDoorbell { .. }));
    drop(peer);
    r.link.close();
}

/// A pull that arrives before its buffer is answered by the `register`
/// that brings the buffer, on the registering thread: by the time the
/// put returns, the record is in the ring and its doorbell queued.
#[test]
fn a_parked_pull_is_answered_by_the_registering_thread() {
    let mut r = rig();
    r.ask(5);
    while r.dart.registry().waiter_count() < 1 {
        std::thread::yield_now();
    }
    r.dart
        .registry()
        .register(key(5), 0, Bytes::from_static(b"late"));
    assert_eq!(r.metrics.shm_frames.get(), 1, "the put did not answer");
    assert!(matches!(r.answer(), Frame::ShmOffer { .. }));
    assert!(matches!(r.answer(), Frame::ShmDoorbell { .. }));
    r.link.close();
}

/// A key the registry already holds — a copy that landed while this
/// waiter was on its way to ask — needs no frame: the check runs under
/// the in-flight lock that a landing settles under, after registering.
#[test]
fn request_for_a_key_the_registry_holds_sends_no_frame() {
    let mut r = rig();
    let (held, missing) = (key(1 << 32), key((1 << 32) | 1));
    r.dart
        .registry()
        .register(held, 1, Bytes::from_static(b"landed"));
    r.link.request(&held);
    r.link.request(&missing);
    match r.answer() {
        Frame::PullRequest { piece, .. } => assert_eq!(piece, missing.piece),
        other => panic!("unexpected frame kind {}", other.kind()),
    }
    r.link.close();
}

/// Node `node` of a star-routed two-node run with one client per node
/// and no shared memory: its started link, runtime and space, and the
/// hub's end of its hub connection.
fn star_node(node: u32) -> (Arc<NetLink>, Arc<DartRuntime>, Arc<CodsSpace>, TcpStream) {
    let machine = MachineSpec::new(2, 1);
    let hub = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(hub.local_addr().unwrap()).unwrap();
    let (wire, _) = hub.accept().unwrap();
    let (inj, flight) = (FaultInjector::none(), FlightRecorder::disabled());
    let metrics = NetMetrics::new(&Recorder::disabled());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let link = NetLink::new(
        stream,
        node,
        machine,
        inj.clone(),
        metrics,
        flight.clone(),
        Vec::new(),
        Vec::new(),
        listener,
        Duration::from_secs(1),
    )
    .unwrap();
    let dart = DartRuntime::with_transport(
        Arc::new(Placement::pack_sequential(machine, 2)),
        Arc::new(TransferLedger::new()),
        Recorder::disabled(),
        inj,
        flight,
        Arc::clone(&link) as Arc<dyn Transport>,
    );
    let space = CodsSpace::new(
        Arc::clone(&dart),
        Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 1]),
        CodsConfig {
            get_timeout: Duration::from_secs(10),
            ..CodsConfig::default()
        },
    );
    drop(link.start_reader(&space));
    (link, dart, space, wire)
}

/// Play the hub of a two-node star run in one direction: relay every
/// frame `from` sends to `to`, counting the `PullRequest`s, until
/// `from` closes.
fn relay(
    mut from: TcpStream,
    mut to: TcpStream,
    requests: &Arc<std::sync::atomic::AtomicU64>,
) -> std::thread::JoinHandle<()> {
    let requests = Arc::clone(requests);
    std::thread::spawn(move || {
        let (inj, m) = (
            FaultInjector::none(),
            NetMetrics::new(&Recorder::disabled()),
        );
        while let Ok(frame) = recv_frame(&mut from, &inj, &m) {
            if matches!(frame, Frame::PullRequest { .. }) {
                requests.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
            if send_frame(&mut to, &frame, &inj, &m).is_err() {
                return;
            }
        }
    })
}

/// A push is a pull answer nobody asked for. Node 0 produces the top
/// half of the domain, node 1 the bottom half and hosts a subscriber
/// to the whole of it on every other version. A pushed piece lands in
/// node 1's registry, completes the sink and serves node 1's get of
/// the version: exactly the off-stride versions are asked for.
#[test]
fn a_pushed_piece_serves_the_subscribers_get_without_a_pull_request() {
    use insitu_domain::{layout, Decomposition, Distribution, ProcessGrid};
    use insitu_sub::TakeResult;
    let (link0, _dart0, space0, hub0) = star_node(0);
    let (link1, _dart1, space1, hub1) = star_node(1);
    let requests = Arc::default();
    let relays = [
        relay(
            hub0.try_clone().unwrap(),
            hub1.try_clone().unwrap(),
            &requests,
        ),
        relay(
            hub1.try_clone().unwrap(),
            hub0.try_clone().unwrap(),
            &requests,
        ),
    ];
    let domain = BoundingBox::from_sizes(&[8, 8]);
    let pdec = Decomposition::new(domain, ProcessGrid::new(&[2, 1]), Distribution::Blocked);
    let piece = |owner: ClientId| pdec.blocked_box(owner as u64).unwrap();
    let handle = space1.subscribe(1, 3, "v", &domain, 2, 4);
    for owner in 0..2 {
        handle.expect_piece(owner, 0, &piece(owner));
    }
    space0.apply_remote_subscribe(&handle.spec);
    let fill =
        |v: u64, b: &BoundingBox| layout::fill_with(b, |p| (v * 100 + p[0] * 8 + p[1]) as f64);
    for v in 0..4 {
        for (owner, space) in [(0, &space0), (1, &space1)] {
            let data = fill(v, &piece(owner));
            space
                .put_cont(owner, 1, "v", v, 0, &piece(owner), data)
                .unwrap();
        }
    }
    for v in 0..4 {
        if v % 2 == 0 {
            let taken = space1.sub_take(&handle, v, Duration::from_secs(10));
            assert_eq!(taken, TakeResult::Data(fill(v, &domain)), "version {v}");
        }
        let (got, _) = space1
            .get_cont(1, 3, "v", v, &domain, &pdec, &[0, 1])
            .unwrap();
        assert_eq!(&got[..], &fill(v, &domain)[..], "version {v}");
    }
    assert_eq!(requests.load(std::sync::atomic::Ordering::SeqCst), 2);
    link0.close();
    link1.close();
    for wire in [hub0, hub1] {
        let _ = wire.shutdown(std::net::Shutdown::Both);
    }
    for r in relays {
        r.join().unwrap();
    }
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
/// of this process: backpressure must be a refusal, never a nap. Nor
/// does the link start threads: a pull waits in the registry, not on
/// a thread of its own.
#[test]
fn link_source_never_sleeps() {
    let sleep = ["thread", "::", "sleep"].concat();
    let (mod_rs, shm_rs) = (include_str!("mod.rs"), include_str!("shm.rs"));
    for (file, src) in [
        ("mod.rs", mod_rs),
        ("shm.rs", shm_rs),
        ("tests.rs", include_str!("tests.rs")),
    ] {
        assert!(!src.contains(&sleep), "a {sleep} crept into link/{file}");
    }
    for needle in ["spawn", "Builder"].map(|f| ["thread", "::", f].concat()) {
        for (file, src) in [("mod.rs", mod_rs), ("shm.rs", shm_rs)] {
            assert!(!src.contains(&needle), "a {needle} crept into link/{file}");
        }
    }
}

/// Shipment is unpaced because the recorder bounds it: a full default
/// recorder of the widest events the codec carries — a `MAX_DIMS` box
/// and the longest fault slug — ships, batch heads included, in under
/// a quarter of `STAGED_LIMIT`, in batches of at most
/// `TELEMETRY_BATCH_EVENTS`, with the counters on the last.
#[test]
fn a_full_recorder_ships_unpaced_in_under_a_quarter_of_the_staged_limit() {
    let mut r = rig();
    let corner = [u64::MAX / 2; insitu_domain::MAX_DIMS];
    let widest = Event::new(
        u64::MAX,
        EventKind::Fault {
            kind: "net-telemetry",
        },
    )
    .parent(u64::MAX)
    .app(u32::MAX)
    .var(u64::MAX)
    .version(u64::MAX)
    .bbox(BoundingBox::new(&corner, &corner))
    .src(u32::MAX)
    .dst(u32::MAX)
    .link(LinkClass::Rdma)
    .piece(u64::MAX)
    .pid(u32::MAX)
    .bytes(u64::MAX)
    .window(u64::MAX / 2, u64::MAX / 2);
    let events = vec![widest; insitu_obs::DEFAULT_EVENT_CAPACITY];
    r.link
        .ship_telemetry(&events, 3, vec![("net.frames".into(), 1)]);
    let m = NetMetrics::new(&Recorder::disabled());
    let mut shipped = 0;
    loop {
        match recv_frame(&mut r.wire, &r.inj, &m).unwrap() {
            Frame::Telemetry {
                events,
                last,
                counters,
                ..
            } => {
                assert!(events.len() <= TELEMETRY_BATCH_EVENTS);
                assert_eq!(counters.is_empty(), !last);
                shipped += events.len();
                if last {
                    break;
                }
            }
            other => panic!("expected Telemetry, got kind {}", other.kind()),
        }
    }
    assert_eq!(shipped, events.len());
    let wire = m.bytes_recv.get() as usize;
    let limit = crate::reactor::STAGED_LIMIT;
    assert!(wire < limit / 4, "{wire} bytes shipped, limit {limit}");
    r.link.close();
}
