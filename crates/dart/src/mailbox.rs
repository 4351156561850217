//! Two-sided asynchronous messaging between execution clients.
//!
//! Every client owns an unbounded inbox; `send` never blocks (DART's
//! asynchronous RPC abstraction hides buffer management from the caller).

use insitu_fabric::ClientId;
use insitu_util::Bytes;
use std::sync::mpsc::{self, Receiver, Sender};

/// A message delivered to a client's inbox.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Msg {
    /// Sending client.
    pub src: ClientId,
    /// Application-defined tag for dispatch.
    pub tag: u64,
    /// Payload.
    pub payload: Bytes,
}

/// One client's inbox plus the send sides of all inboxes.
pub struct Mailbox {
    rx: Receiver<Msg>,
    tx: Sender<Msg>,
}

impl Mailbox {
    /// Create inboxes for `n` clients. Returns one mailbox per client; the
    /// runtime hands out cloned senders.
    pub(crate) fn create_all(n: u32) -> (Vec<Mailbox>, Vec<Sender<Msg>>) {
        let mut boxes = Vec::with_capacity(n as usize);
        let mut senders = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            senders.push(tx.clone());
            boxes.push(Mailbox { rx, tx });
        }
        (boxes, senders)
    }

    /// Blocking receive.
    ///
    /// # Panics
    /// Panics if every sender is dropped (runtime torn down mid-receive).
    pub fn recv(&self) -> Msg {
        self.rx.recv().expect("mailbox senders dropped")
    }

    /// A sender for this mailbox (used when constructing runtimes).
    pub fn sender(&self) -> Sender<Msg> {
        self.tx.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_recv() {
        let (boxes, senders) = Mailbox::create_all(2);
        senders[1]
            .send(Msg {
                src: 0,
                tag: 7,
                payload: Bytes::from_static(b"hi"),
            })
            .unwrap();
        let m = boxes[1].recv();
        assert_eq!(m.src, 0);
        assert_eq!(m.tag, 7);
        assert_eq!(&m.payload[..], b"hi");
    }

    #[test]
    fn fifo_per_sender() {
        let (boxes, senders) = Mailbox::create_all(1);
        for i in 0..10u64 {
            senders[0]
                .send(Msg {
                    src: 0,
                    tag: i,
                    payload: Bytes::new(),
                })
                .unwrap();
        }
        for i in 0..10u64 {
            assert_eq!(boxes[0].recv().tag, i);
        }
    }

    #[test]
    fn cross_thread_delivery() {
        let (boxes, senders) = Mailbox::create_all(2);
        let tx = senders[0].clone();
        let h = std::thread::spawn(move || {
            tx.send(Msg {
                src: 1,
                tag: 42,
                payload: Bytes::from_static(b"x"),
            })
            .unwrap();
        });
        let m = boxes[0].recv();
        h.join().unwrap();
        assert_eq!(m.tag, 42);
    }
}
