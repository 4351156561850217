//! Replication between the processes of a distributed run: every
//! process holds a full replica of the DHT and the consumption/eviction
//! bookkeeping. A local change leaves through the runtime's transport
//! (`Transport::{dht_insert, get_done, evict}`); the wire reader lands
//! the other replicas' changes with `apply_remote_*`, which neither
//! send them on nor account them — the originating process already
//! did, so merged ledgers stay byte-identical to a single-process run.

use super::CodsSpace;
use crate::codec::f64s_of_bytes;
use crate::dht::LocationEntry;
use insitu_dart::BufKey;
use insitu_fabric::ClientId;
use insitu_sub::SubSpec;
use insitu_util::Bytes;

impl CodsSpace {
    /// Apply a remote replica's completed `get` (wire reader entry point).
    /// Bumps the consumption count without sending it on.
    pub fn apply_remote_get_done(&self, vid: u64, version: u64) {
        self.bump_get_done(vid, version);
    }

    /// Apply a remote replica's DHT insert (wire reader entry point).
    /// Indexes the location without accounting — the producer's process
    /// already recorded the DHT traffic — and without sending it on.
    pub fn apply_remote_dht_insert(&self, vid: u64, version: u64, entry: LocationEntry) {
        self.dht.insert(vid, version, entry);
    }

    /// Apply a remote replica's eviction (wire reader entry point):
    /// drops DHT records and registered buffers for all versions of `vid`
    /// up to and including `version`, without sending it on.
    pub fn apply_remote_evict(&self, vid: u64, version: u64) {
        self.evict_vid(vid, version);
    }

    /// Register a standing query whose subscriber lives in another
    /// process (scenario compilation entry point, the counterpart of
    /// [`Self::subscribe`]): registry-only — no sink, so matching puts
    /// push their piece to the subscriber's process. A corrupt
    /// `every_k == 0` spec is ignored rather than poisoning the
    /// registry's stride arithmetic.
    pub fn apply_remote_subscribe(&self, spec: &SubSpec) {
        if spec.every_k == 0 {
            return;
        }
        self.dart.subs().register(spec.clone());
        self.sub_active.set(self.dart.subs().active());
    }

    /// Land a copy of a remote piece, pulled or pushed (wire reader
    /// entry point): hold it in the registry — directly, NOT through the
    /// put path, so nothing is accounted: whoever reads it accounts its
    /// own get — and let every local sink that expects the piece on an
    /// on-stride version cut its overlap out of it. A copy of a key
    /// already held is dropped (for a mapped record that hands its arena
    /// range back), so a piece landing twice feeds no sink twice.
    pub fn apply_remote_piece(&self, key: BufKey, owner: ClientId, data: Bytes) {
        let registry = self.dart.registry();
        if registry.get(&key).is_some() {
            return;
        }
        registry.register(key, owner, data.clone());
        let entries = self.dart.subs().matching(key.name, key.version);
        if entries.is_empty() {
            return;
        }
        // A piece that is not whole aligned cells feeds no sink: the
        // subscriber's resync get names it.
        let Some(cells) = f64s_of_bytes(&data) else {
            return;
        };
        for sink in entries.iter().filter_map(|e| e.sink()) {
            sink.offer_piece(key.version, key.piece, cells);
        }
    }
}
