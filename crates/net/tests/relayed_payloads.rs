//! A payload a reactor relays goes back to its shelf once it is written:
//! a hub decodes a relayed `PullData` into a buffer from its reactor's
//! shelf and sends the frame on, and the next payload of that length the
//! reactor decodes must land in that same allocation, not a fresh one.

use insitu_fabric::FaultInjector;
use insitu_net::{ConnEvent, Frame, NetMetrics, Reactor, Sink};
use insitu_telemetry::Recorder;
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
    let pull = |version| Frame::PullData {
        name: 7,
        version,
        piece: 1 << 32,
        owner: 1,
        to_node: 2,
        data: (0..bytes).map(|i| (i * 13) as u8).collect(),
    };
    let sent = pull(1);
    // The payload the reactor decodes `frame` into, and the frame.
    let mut land = |frame: &Frame| {
        sender.write_all(&frame.encode()).unwrap();
        let landed = match rx.recv_timeout(Duration::from_secs(10)).unwrap() {
            ConnEvent::Frame(frame) => frame,
            ConnEvent::Closed(why) => panic!("unexpected close: {why:?}"),
        };
        let Frame::PullData { data, .. } = &landed else {
            panic!("decoded {landed:?}")
        };
        (data.as_ptr() as usize, landed)
    };
    let (payload, landed) = land(&sent);

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
    // hands the freed address straight back cannot pass for the shelf.
    let blocker: Vec<u8> = Vec::with_capacity(bytes);
    let (next, _) = land(&pull(2));
    assert_eq!(
        next, payload,
        "the next payload of that length lands in the relayed one's allocation"
    );
    assert_ne!(blocker.as_ptr() as usize, payload);
    reactor.shutdown();
}
