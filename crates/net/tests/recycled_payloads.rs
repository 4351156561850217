//! A landed `PullData` payload goes back to the pool when its piece is
//! evicted, and the next version's payload is read off the socket into
//! that same allocation: under a pool lease the receive side reuses its
//! buffer, as the paper's registered receive buffer is reused.
//!
//! The pool is process-wide, so this file is its own test binary.

use insitu_cods::{var_id, CodsConfig, CodsSpace, Dht};
use insitu_dart::{DartRuntime, Transport};
use insitu_domain::{BoundingBox, Decomposition, Distribution, ProcessGrid};
use insitu_fabric::{FaultInjector, MachineSpec, Placement, TransferLedger};
use insitu_net::link::NetLink;
use insitu_net::{Frame, NetMetrics};
use insitu_obs::FlightRecorder;
use insitu_sfc::HilbertCurve;
use insitu_telemetry::Recorder;
use insitu_util::PoolLease;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn the_next_versions_payload_lands_in_the_previous_ones_allocation() {
    let _lease = PoolLease::hold();
    // Node 0 of three one-core nodes on three hosts, p2p: this test
    // holds the far end of its hub connection and dials its peer
    // listener as node 1.
    let hub = TcpListener::bind("127.0.0.1:0").unwrap();
    let stream = TcpStream::connect(hub.local_addr().unwrap()).unwrap();
    let (_hub_end, _) = hub.accept().unwrap();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let peer_addr = listener.local_addr().unwrap();
    let machine = MachineSpec::new(3, 1);
    let (inj, rec) = (FaultInjector::none(), Recorder::enabled());
    let link = NetLink::new(
        stream,
        0,
        machine,
        inj.clone(),
        NetMetrics::new(&rec),
        FlightRecorder::disabled(),
        vec![
            peer_addr.to_string(),
            "127.0.0.1:1".into(),
            "127.0.0.1:1".into(),
        ],
        vec!["a".into(), "b".into(), "c".into()],
        listener,
        Duration::from_secs(1),
    )
    .unwrap();
    let dart = DartRuntime::with_transport(
        Arc::new(Placement::pack_sequential(machine, 3)),
        Arc::new(TransferLedger::new()),
        rec,
        inj,
        FlightRecorder::disabled(),
        Arc::clone(&link) as Arc<dyn Transport>,
    );
    let space = CodsSpace::new(
        Arc::clone(&dart),
        Dht::new(Box::new(HilbertCurve::new(2, 3)), vec![0, 1]),
        CodsConfig::default(),
    );
    let _ctl = link.start_reader(&space);

    // One piece of 33 MiB, client 1's piece 0: past the allocator's
    // largest mmap threshold, so a freed payload is unmapped and its
    // address is free for the next mapping of its size.
    let domain = BoundingBox::from_sizes(&[2048, 2112]);
    let pdec = Decomposition::new(domain, ProcessGrid::new(&[1, 1]), Distribution::Blocked);
    let bytes = domain.num_cells() as usize * 8;
    let mut peer = TcpStream::connect(peer_addr).unwrap();
    let mut landed = Vec::new();
    let mut blocker: Vec<u8> = Vec::new();
    for version in 0..2u64 {
        let byte = move |i: usize| (i as u64 * 7 + version) as u8;
        let frame = Frame::PullData {
            name: var_id("v"),
            version,
            piece: 1 << 32,
            owner: 1,
            to_node: 0,
            data: (0..bytes).map(byte).collect(),
        };
        peer.write_all(&frame.encode()).unwrap();
        drop(frame);
        let (got, _) = space
            .get_cont(0, 1, "v", version, &domain, &pdec, &[1])
            .unwrap();
        assert!(got.is_view(), "a get of the whole piece views the payload");
        let wire = got.iter().flat_map(|c| c.to_ne_bytes());
        assert!(wire.eq((0..bytes).map(byte)), "version {version}'s bytes");
        landed.push(got.as_ptr() as usize);
        drop(got);
        space.evict_version("v", version);
        if version == 0 {
            // A plain allocation of the payload's size is held across the
            // next landing, so an allocator that hands the freed address
            // straight back cannot pass for the pool.
            blocker = Vec::with_capacity(bytes);
        }
    }
    assert_eq!(
        landed[1], landed[0],
        "version 1 landed in version 0's allocation"
    );
    assert_ne!(blocker.as_ptr() as usize, landed[0]);
    drop(peer);
    link.close();
}
