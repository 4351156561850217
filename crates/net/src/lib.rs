//! insitu-net: the wire transport.
//!
//! Everything below this crate simulates distribution inside one
//! process; this crate makes it real. It carries the HybridDART
//! network path (§III.A, §IV.A of the paper) over TCP so a coupled
//! workflow runs as genuine OS processes — one workflow-server process
//! plus one process per simulated node — while the layers above keep
//! their exact in-process semantics:
//!
//! - [`frame`] — the length-prefixed, versioned binary codec, every
//!   message described once in a declarative frame table: 29
//!   message types covering registration (`Hello`/`Welcome`), task
//!   dispatch (`Relay` + `RunWave`/`Barrier`), buffer movement
//!   (`PullRequest`, `PullData`), DHT-replica
//!   maintenance (`DhtInsert`, `GetDone`, `Evict`), run teardown
//!   (`Report`, `Shutdown`), the multi-tenant service RPCs
//!   (`Submit`/`Submitted`, `Cancel`, `Status`/`RunStatus`,
//!   `ListRuns`/`RunList`, `RunResult`/`RunReport`, `RpcErr`), the
//!   telemetry plane (`Telemetry` batch shipping, `Watch`/`Progress`
//!   live run streaming) and the intra-host shared-memory control
//!   frames (`ShmOffer`/`ShmAck`/`ShmDoorbell`). One kind is reserved
//!   and has no sender, `SubPush` — a standing query's push is a
//!   `PullData` nobody requested — and kinds 4, 7, 26, 32, 33, 35 and
//!   36 are retired: they decode as unknown.
//!   Decoding rejects malformed input, never panics.
//!   The shm control frames coordinate `insitu_util::shm` segments:
//!   same-host pairs move `PullData` payloads through a
//!   producer-created `/dev/shm` ring instead of the socket, zero-copy.
//! - [`conn`] — the `net.*` telemetry counters, retrying connect with a
//!   hard deadline, and counted, fault-gated *blocking* frame I/O for
//!   clients only: a joiner's side of the Hello/Welcome handshake and
//!   the service's RPC client.
//! - [`reactor`] — the one I/O model of every server: a single
//!   event-loop thread per process owns every connection, readiness
//!   comes from `insitu_util::Poller` (`epoll`), small messages
//!   coalesce into batched writes, and thread count stays O(1) per
//!   process no matter how many peers connect or how frames are routed.
//! - [`hub`] — the workflow server's router, on one reactor. It
//!   greets its joiners on the loop (a stray or hostile connection is
//!   refused and costs only itself), forwards relays, routes pulls by the owner packed in the buffer
//!   key, broadcasts DHT mirror traffic and runs the wave barriers.
//!   Star vs p2p is a routing policy decided by whether the `Welcome`
//!   ships a peer table: without one the hub also relays `PullData`
//!   and the shm control frames; with one it carries control traffic
//!   only and `PullData` flows directly node↔node.
//! - [`link`] — the joiner's end, on one reactor: implements
//!   `insitu_dart::Transport` (CoDS's DHT replica changes included),
//!   decides once per peer node where its frames leave (the hub
//!   connection, or a lazily-dialed direct one) and what carries a
//!   pulled payload (the socket, or a `/dev/shm` ring), demuxes
//!   incoming frames into the local mailboxes / registry / DHT replica
//!   (relays and replica changes only from the hub) and surfaces
//!   `RunWave`/`Shutdown` to the wave loop; a pull that comes early is
//!   parked in the registry and answered by the put, on its thread, and
//!   a standing query's push is the same answer sent unasked, landing
//!   in the subscriber's registry and sinks.
//!
//! Built entirely on `std::net` plus the `epoll` binding in
//! `insitu_util` — the workspace stays offline-buildable with zero
//! external dependencies.
//!
//! Fault injection: `net.connect` fires on every connect attempt;
//! `net.send` / `net.recv` fire on data-plane (`PullData`) frames and
//! on `Telemetry` batches (whose loss costs trace completeness, never
//! run correctness). Other control frames are exempt by design — the
//! paper's management server is reliable, and dropping a barrier would
//! model a different system.

#![warn(missing_docs)]

pub mod conn;
pub mod frame;
pub mod hub;
pub mod link;
mod peers;
pub mod reactor;

pub use conn::{connect_with_retry, recv_frame, send_frame, NetError, NetMetrics};
pub use frame::{
    Frame, FrameDecoder, FrameError, NodeReport, RunState, RunSummary, MAX_FRAME_LEN, WIRE_VERSION,
};
pub use hub::{Hub, HubConfig};
pub use link::{Ctl, NetLink};
pub use reactor::{AcceptFn, ConnEvent, Reactor, ReactorHandle, Sink, Token};
