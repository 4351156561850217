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
//! The split mirrors the runtime's two data paths, plus CoDS's replicas:
//! - **mailboxes** ([`Transport::forward`]): tagged two-sided messages
//!   (task dispatch, halo exchange);
//! - **buffer registry** ([`Transport::request`]): one-sided
//!   receiver-driven pulls of buffers registered in another process —
//!   and [`Transport::push`], the same answer sent unasked;
//! - **replica changes** ([`Transport::dht_insert`], `get_done`,
//!   `evict`): CoDS is built on HybridDART, so its DHT and consumption
//!   bookkeeping cross processes the way its data does.
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
/// receive/pull paths do the waiting. No method has a default body, so
/// no transport can forget one.
pub trait Transport: Send + Sync {
    /// Whether `client`'s mailbox and registry entries are hosted by this
    /// process. Sends to hosted clients short-circuit to the in-process
    /// path.
    fn hosts(&self, client: ClientId) -> bool;

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

    /// `owner`'s piece `piece` of `(var, version)` was indexed in this
    /// process's DHT replica, covering the box with inclusive corners
    /// `lbs` and `ubs` (one entry per dimension): the other replicas
    /// index it too.
    fn dht_insert(
        &self,
        var: u64,
        version: u64,
        owner: ClientId,
        piece: u64,
        lbs: &[u64],
        ubs: &[u64],
    );

    /// A `get` of `(var, version)` completed in this process.
    fn get_done(&self, var: u64, version: u64);

    /// Versions of `var` up to and including `version` were evicted in
    /// this process.
    fn evict(&self, var: u64, version: u64);
}

/// The single-address-space transport: every client is local, so nothing
/// is ever forwarded, requested or pushed, and the one replica has no
/// other to keep in step.
#[derive(Clone, Copy, Debug, Default)]
pub struct LocalTransport;

impl Transport for LocalTransport {
    fn hosts(&self, _client: ClientId) -> bool {
        true
    }

    fn forward(&self, _to: ClientId, _msg: &Msg) {
        unreachable!("local transport hosts every client");
    }

    fn request(&self, _key: &BufKey) {}

    fn push(&self, _to: ClientId, _key: &BufKey, _handle: BufferHandle) {}
    fn dht_insert(&self, _: u64, _: u64, _: ClientId, _: u64, _: &[u64], _: &[u64]) {}
    fn get_done(&self, _var: u64, _version: u64) {}
    fn evict(&self, _var: u64, _version: u64) {}
}
