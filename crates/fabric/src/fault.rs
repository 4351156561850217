//! Fault injection: which faults exist, and where each one is rolled.
//!
//! [`FaultKind`] is the vocabulary: every fault the chaos plane can
//! inject, with the slug that `--faults` specs, chaos reports and
//! flight events name it by. [`FaultHooks`] is the contract: one method
//! per *fault site* — buffer registration after a DHT insert, receiver
//! pulls, DHT span queries, staging-memory accounting, the wire's
//! connect/send/recv, telemetry batches, shared-memory attach and
//! standing-query pushes — each stated once, with its benign default.
//!
//! The runtime layers reach the hooks through a [`FaultInjector`], which
//! dereferences to the installed plan or, in production
//! ([`FaultInjector::none`]), to a plan that keeps every default. The
//! chaos harness (`insitu-chaos`) installs a seed-driven [`FaultHooks`]
//! implementation so whole-workflow failure scenarios replay
//! deterministically.

use crate::ledger::{Locality, TrafficClass};
use crate::machine::{ClientId, NodeId};
use std::ops::Deref;
use std::sync::Arc;
use std::time::Duration;

/// The kinds of fault a plan can inject, in spec/report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Producer crashes between DHT insert and buffer registration: the
    /// index names a piece nobody serves.
    DeadProducer,
    /// A receiver-driven pull is dropped (the buffer never arrives).
    DropPull,
    /// A pull is delayed by a few milliseconds before proceeding.
    DelayPull,
    /// A DHT core blacks out: span queries skip it, its records are
    /// invisible.
    DhtBlackout,
    /// Staging memory on a node is exhausted: puts from it fail.
    StageFull,
    /// A torus link runs degraded: estimates slow down in the time
    /// model, and on the real wire the affected pull-data sends are
    /// held 15-50 ms before they are written.
    LinkSlow,
    /// A TCP connection attempt to a peer fails (every retry of the same
    /// peer rolls the same site, so a faulted connect stays down).
    NetConnect,
    /// A data-plane frame (pull-data) is dropped before it is written to
    /// the wire.
    NetSend,
    /// A data-plane frame (pull-data) is discarded after being read from
    /// the wire.
    NetRecv,
    /// A telemetry batch is lost on the wire. Separately rated from the
    /// data-plane drops because its blast radius is different by
    /// design: a lost batch degrades the merged trace to the processes
    /// that reported, never the run itself.
    NetTelemetry,
    /// Creating or attaching an intra-host shared-memory segment fails;
    /// the directed peer pair transparently falls back to sending
    /// PullData over the established TCP link. Rolled op-independently
    /// on (creator node, segment id) so producer and consumer — who
    /// consult *different plan instances* — agree on a doomed pair's
    /// fate under a shared seed.
    ShmAttach,
    /// A standing-query push fragment is dropped before delivery. The
    /// site is rolled in the shared put path (before the local-sink /
    /// remote-mirror split), so single-process and distributed runs of
    /// the same seed lose exactly the same fragments and the subscriber
    /// heals the gap through the lag/resync protocol both ways.
    SubPush,
}

impl FaultKind {
    /// Every kind, in the canonical order used by specs and reports.
    pub const ALL: [FaultKind; 12] = [
        FaultKind::DeadProducer,
        FaultKind::DropPull,
        FaultKind::DelayPull,
        FaultKind::DhtBlackout,
        FaultKind::StageFull,
        FaultKind::LinkSlow,
        FaultKind::NetConnect,
        FaultKind::NetSend,
        FaultKind::NetRecv,
        FaultKind::NetTelemetry,
        FaultKind::ShmAttach,
        FaultKind::SubPush,
    ];

    /// Index into rate/count arrays.
    pub fn idx(self) -> usize {
        Self::ALL.iter().position(|&k| k == self).unwrap()
    }

    /// The name specs, reports and flight events give the kind.
    pub fn slug(self) -> &'static str {
        match self {
            FaultKind::DeadProducer => "dead-producer",
            FaultKind::DropPull => "drop-pull",
            FaultKind::DelayPull => "delay-pull",
            FaultKind::DhtBlackout => "dht-blackout",
            FaultKind::StageFull => "stage-full",
            FaultKind::LinkSlow => "link-slow",
            FaultKind::NetConnect => "net-connect",
            FaultKind::NetSend => "net-send",
            FaultKind::NetRecv => "net-recv",
            FaultKind::NetTelemetry => "net-telemetry",
            FaultKind::ShmAttach => "shm-attach",
            FaultKind::SubPush => "sub-push",
        }
    }

    /// The kind a slug names, if any.
    pub fn from_slug(slug: &str) -> Option<FaultKind> {
        Self::ALL.into_iter().find(|k| k.slug() == slug)
    }
}

/// What to do with an intercepted pull.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Let the operation proceed normally.
    Proceed,
    /// Fail the operation immediately (the transfer is lost).
    Drop,
    /// Delay the operation, then proceed.
    Delay(Duration),
}

/// Which wire operation a network fault site intercepts.
///
/// The wire transport (`insitu-net`) consults [`FaultHooks::on_net`] at
/// three sites: establishing a TCP connection, writing a frame, and
/// reading a frame. Control-plane frames are never offered to the hook by
/// the transport (dropping a dispatch or barrier frame models an
/// unreliable control plane, which the paper's management server does not
/// have); only data-plane pull payloads are.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetOp {
    /// Establishing a connection to a peer.
    Connect,
    /// Writing a frame to a peer.
    Send,
    /// Reading a frame from a peer.
    Recv,
}

/// Decision points the runtime exposes to a fault plan.
///
/// Every method has a benign default so implementors only override the
/// faults they model. Implementations must be deterministic functions of
/// their arguments (plus the plan's seed): the runtime may invoke them
/// from any thread, in any order, any number of times per site.
pub trait FaultHooks: Send + Sync {
    /// `true` simulates a producer that crashed between its DHT insert and
    /// its buffer registration: the location is advertised but the payload
    /// never lands in staging.
    fn dead_producer(&self, var: u64, version: u64, owner: ClientId, piece: u64) -> bool {
        let _ = (var, version, owner, piece);
        false
    }

    /// Intercept a receiver-driven pull of one buffer.
    fn on_pull(&self, name: u64, version: u64, piece: u64) -> FaultAction {
        let _ = (name, version, piece);
        FaultAction::Proceed
    }

    /// `true` blacks out one DHT core: span queries skip it as if the
    /// core were unreachable.
    fn dht_core_down(&self, core: usize) -> bool {
        let _ = core;
        false
    }

    /// `true` makes `node`'s staging memory report exhaustion regardless
    /// of the configured limit.
    fn staging_exhausted(&self, node: NodeId) -> bool {
        let _ = node;
        false
    }

    /// Observe every ledger record (an accounting tap, not a fault): the
    /// chaos harness cross-checks these totals against ledger snapshots
    /// and telemetry counters.
    fn on_transfer(&self, class: TrafficClass, locality: Locality, bytes: u64) {
        let _ = (class, locality, bytes);
    }

    /// Intercept a wire operation.
    ///
    /// `kind` is the frame kind byte (0 for [`NetOp::Connect`]); `a` and
    /// `b` identify the site — `(node, attempt-independent 0)` for
    /// connects, `(buffer name, packed piece)` for pull-data frames — so
    /// the same logical frame always rolls the same fate.
    fn on_net(&self, op: NetOp, kind: u8, a: u64, b: u64) -> FaultAction {
        let _ = (op, kind, a, b);
        FaultAction::Proceed
    }

    /// `true` fails the creation of (producer side) or the attach to
    /// (consumer side) an intra-host shared-memory segment; the pair
    /// transparently falls back to the TCP path. `node` is the segment
    /// creator's node and `segment` the directed-pair segment id —
    /// deliberately op-independent, so with a shared seed both ends of
    /// a doomed pair fail identically instead of rolling twice.
    fn shm_attach_fails(&self, node: NodeId, segment: u64) -> bool {
        let _ = (node, segment);
        false
    }

    /// `true` loses telemetry batch `batch` of `node` on the wire. Like
    /// [`FaultHooks::shm_attach_fails`] it does not depend on the
    /// operation: the shipper's send and the hub's receive consult
    /// different plan instances, and with a shared seed a doomed batch
    /// is lost at both ends instead of rolling twice.
    fn telemetry_lost(&self, node: NodeId, batch: u32) -> bool {
        let _ = (node, batch);
        false
    }

    /// Intercept one standing-query push fragment (producer-piece ∩
    /// subscription overlap) before it is delivered or sent. Sited in
    /// the shared put path — before the transport split — so a dropped
    /// fragment surfaces identically in single-process and distributed
    /// runs: the subscriber sees a gap and heals it through the
    /// lag/resync protocol. Only [`FaultAction::Drop`] is honored.
    fn on_sub_push(&self, var: u64, version: u64, subscriber: ClientId, piece: u64) -> FaultAction {
        let _ = (var, version, subscriber, piece);
        FaultAction::Proceed
    }
}

/// A cheaply cloneable, optionally-empty handle to a [`FaultHooks`]
/// implementation. It dereferences to the installed plan, or to one that
/// keeps every default: the default ([`FaultInjector::none`]) injects
/// nothing.
#[derive(Clone, Default)]
pub struct FaultInjector(Option<Arc<dyn FaultHooks>>);

/// The hooks an empty injector consults: every default, no fault.
struct NoFaults;

impl FaultHooks for NoFaults {}

const NO_FAULTS: &dyn FaultHooks = &NoFaults;

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("active", &self.0.is_some())
            .finish()
    }
}

impl FaultInjector {
    /// An injector that never injects (the production default).
    pub fn none() -> Self {
        FaultInjector(None)
    }

    /// Wrap a fault plan.
    pub fn new(hooks: Arc<dyn FaultHooks>) -> Self {
        FaultInjector(Some(hooks))
    }
}

impl Deref for FaultInjector {
    type Target = dyn FaultHooks;

    fn deref(&self) -> &Self::Target {
        self.0.as_deref().unwrap_or(NO_FAULTS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn none_injector_is_inert() {
        let inj = FaultInjector::none();
        assert!(!inj.dead_producer(1, 2, 3, 4));
        assert_eq!(inj.on_pull(1, 2, 3), FaultAction::Proceed);
        assert!(!inj.dht_core_down(0));
        assert!(!inj.staging_exhausted(0));
        inj.on_transfer(TrafficClass::Dht, Locality::Network, 64);
        assert_eq!(
            inj.on_net(NetOp::Connect, 0, 1, 0),
            FaultAction::Proceed,
            "inert injector never faults the wire"
        );
        assert!(!inj.shm_attach_fails(0, 1));
        assert!(!inj.telemetry_lost(0, 1));
        assert_eq!(inj.on_sub_push(1, 2, 3, 4), FaultAction::Proceed);
    }

    #[test]
    fn net_hook_is_consulted_per_op() {
        struct DropSends;
        impl FaultHooks for DropSends {
            fn on_net(&self, op: NetOp, _kind: u8, _a: u64, _b: u64) -> FaultAction {
                match op {
                    NetOp::Send => FaultAction::Drop,
                    _ => FaultAction::Proceed,
                }
            }
        }
        let inj = FaultInjector::new(Arc::new(DropSends));
        assert_eq!(inj.on_net(NetOp::Send, 7, 1, 2), FaultAction::Drop);
        assert_eq!(inj.on_net(NetOp::Recv, 7, 1, 2), FaultAction::Proceed);
        assert_eq!(inj.on_net(NetOp::Connect, 0, 0, 0), FaultAction::Proceed);
    }

    #[test]
    fn hooks_are_consulted() {
        struct DropAll(AtomicU64);
        impl FaultHooks for DropAll {
            fn on_pull(&self, _: u64, _: u64, _: u64) -> FaultAction {
                self.0.fetch_add(1, Ordering::Relaxed);
                FaultAction::Drop
            }
            fn dht_core_down(&self, core: usize) -> bool {
                core == 2
            }
        }
        let hooks = Arc::new(DropAll(AtomicU64::new(0)));
        let inj = FaultInjector::new(hooks.clone());
        assert_eq!(inj.on_pull(9, 0, 1), FaultAction::Drop);
        assert!(inj.dht_core_down(2));
        assert!(!inj.dht_core_down(3));
        // Defaults still benign for hooks the plan does not override.
        assert!(!inj.dead_producer(0, 0, 0, 0));
        assert_eq!(hooks.0.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn every_kind_round_trips_its_slug() {
        for k in FaultKind::ALL {
            assert_eq!(FaultKind::from_slug(k.slug()), Some(k));
        }
        assert_eq!(FaultKind::from_slug("fault"), None);
        assert_eq!(FaultKind::from_slug(""), None);
    }
}
