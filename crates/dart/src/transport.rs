//! Pluggable message/buffer transport between address spaces.
//!
//! The paper's HybridDART selects a transport per peer pair: shared
//! memory when two clients share a node, the network fabric otherwise
//! (§III.A). In a single-process run every client lives in one address
//! space, so "shared memory" is literal and "network" is only a ledger
//! classification — that is [`LocalTransport`]. A distributed run places
//! each simulated node in its own OS process; the wire transport
//! (`insitu-net`'s `NetLink`) implements this trait so that
//! [`crate::DartRuntime`] transparently forwards messages to clients it
//! does not host and fetches remotely-owned buffers over TCP.
//!
//! The split mirrors the runtime's two data paths:
//! - **mailboxes** ([`Transport::forward`]): tagged two-sided messages
//!   (task dispatch, halo exchange);
//! - **buffer registry** ([`Transport::request`]): one-sided
//!   receiver-driven pulls of buffers registered in another process —
//!   and [`Transport::push`], the same answer sent unasked.
//!
//! Accounting stays with the runtime: the sender's process accounts a
//! forwarded message *before* handing it to the transport, and the
//! remote side injects it with [`crate::DartRuntime::deliver`], which
//! accounts nothing — so every logical transfer lands in exactly one
//! process's ledger and merged distributed ledgers reproduce the
//! single-process ledger byte for byte.

use crate::mailbox::Msg;
use crate::registry::{BufKey, BufferHandle};
use insitu_fabric::ClientId;

/// Where a client's mailbox and buffers live, and how to reach the ones
/// that live elsewhere.
///
/// Implementations must be deterministic in `hosts` (it partitions the
/// client space across processes) and are free to deliver forwarded
/// messages and requested buffers asynchronously: the runtime's blocking
/// receive/pull paths do the waiting.
pub trait Transport: Send + Sync {
    /// Whether `client`'s mailbox and registry entries are hosted by this
    /// process. Sends to hosted clients short-circuit to the in-process
    /// path.
    fn hosts(&self, client: ClientId) -> bool;

    /// Whether this process hosts *every* client, so its registry can
    /// hold no pulled copy of a remote buffer and per-version cache
    /// cleanup has nothing to look for. Only the single-address-space
    /// transport says yes.
    fn hosts_all(&self) -> bool {
        false
    }

    /// Forward an already-accounted message to a client hosted by another
    /// process.
    fn forward(&self, to: ClientId, msg: &Msg);

    /// Ask the owning process for a buffer this process neither hosts
    /// nor holds. Fire-and-forget: the caller blocks on the registry and
    /// the reply (if any) is registered by the transport's reader.
    fn request(&self, key: &BufKey);

    /// Send the buffer registered here under `key` to `to`'s process,
    /// a pull answer nobody asked for: it lands like any pulled copy.
    fn push(&self, to: ClientId, key: &BufKey, handle: BufferHandle);
}

/// The single-address-space transport: every client is local, so nothing
/// is ever forwarded, requested or pushed.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalTransport;

impl Transport for LocalTransport {
    fn hosts(&self, _client: ClientId) -> bool {
        true
    }

    fn hosts_all(&self) -> bool {
        true
    }

    fn forward(&self, _to: ClientId, _msg: &Msg) {
        unreachable!("local transport hosts every client");
    }

    fn request(&self, _key: &BufKey) {}

    fn push(&self, _to: ClientId, _key: &BufKey, _handle: BufferHandle) {}
}
