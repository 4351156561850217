//! Replication between the processes of a distributed run: every
//! process holds a full replica of the DHT and the consumption/eviction
//! bookkeeping. Local changes leave through [`SpaceMirror`]; the wire
//! reader lands the other replicas' changes with `apply_remote_*`.

use super::CodsSpace;
use crate::codec::{decode_f64s, f64s_of_bytes, ELEM_BYTES};
use crate::dht::LocationEntry;
use insitu_domain::BoundingBox;
use insitu_fabric::ClientId;
use insitu_sub::{SubId, SubSpec};
use insitu_util::Bytes;

/// Replication hooks for distributed runs.
///
/// A single-process space holds the only copy of the DHT and the
/// consumption/eviction bookkeeping. When execution clients are spread
/// over several processes, each process holds a full replica and the
/// wire transport implements this trait to propagate local state changes
/// to the other replicas. The receiving side applies them with the
/// `apply_remote_*` methods, which update the replica **without**
/// re-mirroring and without any ledger accounting — the originating
/// process already accounted the logical traffic, so merged ledgers stay
/// byte-identical to a single-process run.
pub trait SpaceMirror: Send + Sync {
    /// A piece of `(var, version)` was indexed in the local DHT replica.
    fn dht_insert(&self, var: u64, version: u64, entry: &LocationEntry);
    /// A `get` of `(var, version)` completed locally.
    fn get_done(&self, var: u64, version: u64);
    /// Versions of `var` up to and including `version` were evicted
    /// locally.
    fn evict(&self, var: u64, version: u64);
    /// A push fragment matched a subscription whose subscriber is
    /// hosted by another process: carry `data` (encoded f64 cells of
    /// `frag`, handed over so a transport can send from the buffer
    /// itself) to it. Default: no-op, which silently drops the
    /// fragment — distributed transports must override this.
    #[allow(clippy::too_many_arguments)] // one wire frame's worth of fields
    fn sub_push(
        &self,
        id: SubId,
        var: u64,
        version: u64,
        src: ClientId,
        subscriber: ClientId,
        frag: &BoundingBox,
        data: Bytes,
    ) {
        let _ = (id, var, version, src, subscriber, frag, data);
    }
}

impl CodsSpace {
    /// Apply a remote replica's completed `get` (wire reader entry point).
    /// Bumps the consumption count without re-mirroring.
    pub fn apply_remote_get_done(&self, vid: u64, version: u64) {
        self.bump_get_done(vid, version);
    }

    /// Apply a remote replica's DHT insert (wire reader entry point).
    /// Indexes the location without accounting — the producer's process
    /// already recorded the DHT traffic — and without re-mirroring.
    pub fn apply_remote_dht_insert(&self, vid: u64, version: u64, entry: LocationEntry) {
        self.dht.insert(vid, version, entry);
    }

    /// Apply a remote replica's eviction (wire reader entry point):
    /// drops DHT records and registered buffers for all versions of `vid`
    /// up to and including `version`, without re-mirroring.
    pub fn apply_remote_evict(&self, vid: u64, version: u64) {
        self.evict_vid(vid, version);
    }

    /// Register a standing query whose subscriber lives in another
    /// process (scenario compilation entry point, the counterpart of
    /// [`Self::subscribe`]): registry-only — no sink, so matching puts
    /// send their fragments through the mirror. A corrupt
    /// `every_k == 0` spec is ignored rather than poisoning the
    /// registry's stride arithmetic.
    pub fn apply_remote_subscribe(&self, spec: &SubSpec) {
        if spec.every_k == 0 {
            return;
        }
        self.dart.subs().register(spec.clone());
        self.sub_active.set(self.dart.subs().active());
    }

    /// Deliver a wire-carried push fragment to the locally hosted
    /// subscriber sink (wire reader entry point). No accounting and no
    /// flight `SubPush` — the producer's process recorded both; the
    /// transport layer records the wire hop itself. Returns `false` if
    /// the subscription is unknown here or has no local sink (a stale
    /// push after cancellation — dropped, the ledger already charged
    /// it).
    pub fn apply_remote_sub_push(
        &self,
        sub_id: SubId,
        version: u64,
        frag_box: &BoundingBox,
        data: &[u8],
    ) -> bool {
        let Some(entry) = self.dart.subs().get(sub_id) else {
            return false;
        };
        let Some(sink) = entry.sink() else {
            return false;
        };
        if data.len() % ELEM_BYTES != 0 || (data.len() / ELEM_BYTES) as u128 != frag_box.num_cells()
        {
            return false;
        }
        // The cells as they arrived when their alignment allows it.
        match f64s_of_bytes(data) {
            Some(frag) => sink.offer(version, frag_box, frag),
            None => sink.offer(version, frag_box, &decode_f64s(data)),
        };
        true
    }
}
