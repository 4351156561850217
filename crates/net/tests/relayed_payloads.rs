//! A payload a reactor relays goes back to the pool once it is written:
//! the service's hub decodes a relayed `PullData` into a pooled buffer
//! and sends the frame on, and the next buffer of that length must be
//! that same allocation, not a fresh one.
//!
//! The pool is process-wide, so this file is its own test binary.

use insitu_fabric::FaultInjector;
use insitu_net::{ConnEvent, Frame, NetMetrics, Reactor, Sink};
use insitu_telemetry::Recorder;
use insitu_util::{PoolLease, Recycled};
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc;
use std::time::Duration;

fn pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    let (far, _) = listener.accept().unwrap();
    (near, far)
}

/// Read exactly the wire bytes of `frame` from `far`.
fn expect_frame(far: &mut TcpStream, frame: &Frame) {
    let want = frame.encode();
    let mut got = vec![0u8; want.len()];
    far.read_exact(&mut got).unwrap();
    assert!(got == want, "the relayed frame's bytes");
}

#[test]
fn a_relayed_payload_goes_back_to_the_pool_once_written() {
    let _lease = PoolLease::hold();
    let metrics = NetMetrics::new(&Recorder::disabled());
    let reactor = Reactor::spawn("relay-test", FaultInjector::none(), metrics).unwrap();
    let handle = reactor.handle();
    let (tx, rx) = mpsc::channel();
    let (inbound, mut sender) = pair();
    let sink: Sink = Box::new(move |ev| drop(tx.send(ev)));
    handle.add_stream(handle.alloc_token(), inbound, sink);
    let (outbound, mut receiver) = pair();
    let out = handle.alloc_token();
    handle.add_stream(out, outbound, Box::new(|_| {}));

    // 256 KiB: past glibc's default mmap threshold.
    let bytes = 256 << 10;
    let sent = Frame::PullData {
        name: 7,
        version: 1,
        piece: 1 << 32,
        owner: 1,
        to_node: 2,
        data: (0..bytes).map(|i| (i * 13) as u8).collect(),
    };
    sender.write_all(&sent.encode()).unwrap();
    let landed = match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
        ConnEvent::Frame(frame) => frame,
        ConnEvent::Closed(why) => panic!("unexpected close: {why:?}"),
    };
    let Frame::PullData { data, .. } = &landed else {
        panic!("decoded {landed:?}")
    };
    let payload = data.as_ptr() as usize;

    // Relay it as the hub does, then a small frame behind it: once that
    // one is read, the reactor has finished writing the payload.
    handle.send(out, landed);
    expect_frame(&mut receiver, &sent);
    let fence = Frame::Hello {
        node: 3,
        peer_addr: String::new(),
        host: String::new(),
    };
    handle.send(out, fence.clone());
    expect_frame(&mut receiver, &fence);

    // A plain allocation of the payload's size, so an allocator that
    // hands the freed address straight back cannot pass for the pool.
    let blocker: Vec<u8> = Vec::with_capacity(bytes);
    let next = Recycled::<u8>::with_capacity(bytes);
    assert_eq!(
        next.as_ptr() as usize,
        payload,
        "the next take of the payload's length is its allocation"
    );
    assert_ne!(blocker.as_ptr() as usize, payload);
    reactor.shutdown();
}
