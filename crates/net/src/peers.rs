//! The joiner's peer table: lazy direct node↔node connections for the
//! p2p data plane.
//!
//! Every joiner advertises a loopback listener in its `Hello`, and a
//! p2p-routed run's `Welcome` hands back the full address table. A
//! direct connection to an owner node is dialed on first use (the first
//! `PullRequest` routed to that node) and cached; both directions of
//! the pull protocol then ride that one socket, managed by the
//! joiner's reactor.
//!
//! Dialing goes through [`connect_with_retry`], so a refused peer —
//! e.g. one still binding its listener — is retried transparently
//! until the dial budget elapses, counting each failed attempt on the
//! `net.reconnects` counter. A connection that later drops is forgotten
//! on its `Closed` event, so the next pull re-dials from scratch.

use crate::conn::{connect_with_retry, NetError, NetMetrics};
use crate::reactor::{ReactorHandle, Sink, Token};
use insitu_fabric::FaultInjector;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// Established (or establishable) direct connections to peer nodes.
pub(crate) struct PeerTable {
    /// Peer data-plane addresses indexed by node, from `Welcome`.
    addrs: Vec<String>,
    /// Live connections by owner node.
    conns: Mutex<HashMap<u32, Token>>,
    /// Per-dial retry budget.
    dial_timeout: Duration,
}

impl PeerTable {
    pub(crate) fn new(addrs: Vec<String>, dial_timeout: Duration) -> Self {
        PeerTable {
            addrs,
            conns: Mutex::new(HashMap::new()),
            dial_timeout,
        }
    }

    /// The token of the live connection to `node`, dialing it first if
    /// needed. `make_sink` builds the event sink for a freshly-dialed
    /// connection. The table lock is held across the dial so concurrent
    /// pulls to one owner share a single connection attempt.
    pub(crate) fn ensure(
        &self,
        node: u32,
        self_node: u32,
        handle: &ReactorHandle,
        injector: &FaultInjector,
        metrics: &NetMetrics,
        make_sink: impl FnOnce(Token) -> Sink,
    ) -> Result<Token, NetError> {
        let mut conns = self.conns.lock().unwrap();
        if let Some(token) = conns.get(&node) {
            return Ok(*token);
        }
        let addr = self
            .addrs
            .get(node as usize)
            .filter(|a| !a.is_empty())
            .ok_or_else(|| NetError::Protocol(format!("no peer address for node {node}")))?;
        let stream = connect_with_retry(addr, self_node, self.dial_timeout, injector, metrics)?;
        let token = handle.alloc_token();
        handle.add_stream(token, stream, make_sink(token));
        conns.insert(node, token);
        Ok(token)
    }

    /// Forget a dropped connection so the next pull re-dials.
    pub(crate) fn forget(&self, token: Token) {
        self.conns.lock().unwrap().retain(|_, t| *t != token);
    }

    /// Direct connections currently held.
    #[cfg(test)]
    pub(crate) fn live(&self) -> usize {
        self.conns.lock().unwrap().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::Frame;
    use crate::reactor::{ConnEvent, Reactor};
    use insitu_telemetry::Recorder;
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// A refused-then-listening peer recovers transparently: the dial
    /// retries until the listener appears, `net.reconnects` counts the
    /// failed attempts, and the connection then carries frames.
    #[test]
    fn refused_peer_recovers_and_counts_reconnects() {
        let metrics = NetMetrics::new(&Recorder::enabled());
        let reactor = Reactor::spawn("dialer", FaultInjector::none(), metrics.clone()).unwrap();

        // Reserve a port, then close it so the first attempts are
        // refused; re-bind it shortly after from another thread.
        let placeholder = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = placeholder.local_addr().unwrap().to_string();
        drop(placeholder);
        let echo_addr = addr.clone();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        let echo = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(150));
            let listener = TcpListener::bind(&echo_addr).expect("rebind peer port");
            let echo_reactor = Reactor::spawn(
                "echo",
                FaultInjector::none(),
                NetMetrics::new(&Recorder::enabled()),
            )
            .unwrap();
            let handle = echo_reactor.handle();
            echo_reactor.handle().add_listener(
                listener,
                Box::new(move |token, _| {
                    let h = handle.clone();
                    Box::new(move |ev| {
                        if let ConnEvent::Frame(f) = ev {
                            h.send(token, f);
                        }
                    })
                }),
            );
            // Keep the echo reactor alive until the exchange finished.
            let _ = done_rx.recv_timeout(Duration::from_secs(30));
            echo_reactor.shutdown();
        });

        let table = PeerTable::new(vec![addr], Duration::from_secs(10));
        let (tx, rx) = mpsc::channel();
        let token = table
            .ensure(
                0,
                1,
                &reactor.handle(),
                &FaultInjector::none(),
                &metrics,
                |_| {
                    Box::new(move |ev| {
                        if let ConnEvent::Frame(f) = ev {
                            let _ = tx.send(f);
                        }
                    })
                },
            )
            .expect("refused-then-listening peer should recover");
        assert!(
            metrics.reconnects.get() >= 1,
            "expected failed dial attempts to count, got {}",
            metrics.reconnects.get()
        );
        // The recovered connection really works end to end.
        reactor.handle().send(token, Frame::RunWave { wave: 42 });
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(10)).unwrap(),
            Frame::RunWave { wave: 42 }
        );
        // A second ensure reuses the cached connection (no new dial).
        let again = table
            .ensure(
                0,
                1,
                &reactor.handle(),
                &FaultInjector::none(),
                &metrics,
                |_| Box::new(|_| {}),
            )
            .unwrap();
        assert_eq!(again, token);
        // After forgetting, the entry is gone and a re-dial would start
        // fresh.
        table.forget(token);
        assert_eq!(table.live(), 0);
        drop(done_tx);
        echo.join().unwrap();
    }

    #[test]
    fn missing_peer_address_is_a_protocol_error() {
        let metrics = NetMetrics::new(&Recorder::disabled());
        let reactor = Reactor::spawn("d", FaultInjector::none(), metrics.clone()).unwrap();
        let table = PeerTable::new(vec![String::new()], Duration::from_millis(50));
        let err = table
            .ensure(
                0,
                1,
                &reactor.handle(),
                &FaultInjector::none(),
                &metrics,
                |_| Box::new(|_| {}),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err:?}");
        // Out-of-range node as well.
        let err = table
            .ensure(
                5,
                1,
                &reactor.handle(),
                &FaultInjector::none(),
                &metrics,
                |_| Box::new(|_| {}),
            )
            .unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)), "{err:?}");
    }
}
