//! How long a version lives. Producers of an iterative coupling may
//! reclaim a version only once every declared `get` of it completed
//! (the consumption window); the get that completes it drops every
//! process's pulled copies; eviction frees the owners' staged buffers
//! and their staging accounting.

use super::CodsSpace;
use crate::dht::var_id;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

/// Version-consumption bookkeeping for iterative coupling: producers may
/// only reclaim a version's buffers once every expected `get` of that
/// version has completed.
#[derive(Default)]
pub(super) struct ConsumptionState {
    /// Expected number of completed gets per variable per version.
    expected: HashMap<u64, u64>,
    /// Extra expected gets contributed by standing queries, as
    /// `(vid, every_k, gets)`: the gets apply only to versions on the
    /// subscription's stride (`version % every_k == 0`). Push fragments
    /// themselves are copied synchronously inside `put`, so they never
    /// appear here — these entries cover the subscriber's verify/resync
    /// `get` traffic.
    sub_expected: Vec<(u64, u64, u64)>,
    /// Completed gets per `(var, version)`.
    done: HashMap<(u64, u64), u64>,
}

impl ConsumptionState {
    /// Total gets `(vid, version)` must see before release, or `None`
    /// when neither a base expectation nor any standing query covers
    /// the variable. A covered variable whose version is off every
    /// stride yields `Some(0)`: nobody will consume it, so the
    /// producer may reclaim it immediately.
    fn expected_for(&self, vid: u64, version: u64) -> Option<u64> {
        let base = self.expected.get(&vid).copied();
        let mut covered = base.is_some();
        let mut total = base.unwrap_or(0);
        for &(v, every_k, gets) in &self.sub_expected {
            if v == vid {
                covered = true;
                if version.is_multiple_of(every_k) {
                    total += gets;
                }
            }
        }
        covered.then_some(total)
    }
}

impl CodsSpace {
    /// Declare how many `get` completions a version of `var` must see
    /// before [`Self::wait_version_consumed`] releases it (one per
    /// consumer piece retrieval). Enables producers of iterative
    /// couplings to reclaim old versions safely.
    pub fn set_expected_gets(&self, var: &str, gets: u64) {
        self.consumption
            .lock()
            .unwrap()
            .expected
            .insert(var_id(var), gets);
        // A new expectation can satisfy a waiter already parked.
        self.consumed_cv.notify_all();
    }

    /// Declare that every on-stride version of `var` (those with
    /// `version % every_k == 0`) must see `gets` additional completed
    /// gets before [`Self::wait_version_consumed`] releases it. This is
    /// how standing-query verify/resync traffic enters the consumption
    /// ledger: push fragments are copied synchronously inside `put` and
    /// need no release gate of their own.
    pub fn add_sub_expected_gets(&self, var: &str, every_k: u64, gets: u64) {
        assert!(every_k >= 1, "every_k must be at least 1");
        self.consumption
            .lock()
            .unwrap()
            .sub_expected
            .push((var_id(var), every_k, gets));
        self.consumed_cv.notify_all();
    }

    /// Completed gets recorded for `(var, version)`.
    pub fn gets_completed(&self, var: &str, version: u64) -> u64 {
        self.consumption
            .lock()
            .unwrap()
            .done
            .get(&(var_id(var), version))
            .copied()
            .unwrap_or(0)
    }

    /// Block until every expected `get` of `(var, version)` has completed,
    /// up to `timeout`. Returns `false` on timeout or if no expectation
    /// was declared. The waiter is woken once per version — by the get
    /// that completes it, or by a changed expectation — not once per get;
    /// `cods.window.wakes` counts the wakes.
    pub fn wait_version_consumed(&self, var: &str, version: u64, timeout: Duration) -> bool {
        let vid = var_id(var);
        let deadline = Instant::now() + timeout;
        let mut state = self.consumption.lock().unwrap();
        loop {
            let Some(expected) = state.expected_for(vid, version) else {
                return false;
            };
            if state.done.get(&(vid, version)).copied().unwrap_or(0) >= expected {
                return true;
            }
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            state = self
                .consumed_cv
                .wait_timeout(state, deadline - now)
                .unwrap()
                .0;
            self.window_wakes.inc();
        }
    }

    pub(super) fn note_get_complete(&self, vid: u64, version: u64) {
        self.bump_get_done(vid, version);
        self.dart.wire().get_done(vid, version);
    }

    /// Count one completed get of `(vid, version)`, local or replicated.
    /// The get that brings the count to the declared expectation ends
    /// the version's consumption on every replica: it alone wakes the
    /// producers parked in [`Self::wait_version_consumed`] (no earlier
    /// get can release them), and each process drops its *pulled
    /// copies* of the version there — a per-process transport
    /// cache (heap copies off the socket, or shm-mapped arena ranges
    /// the producer gets back the moment they drop), distinct from the
    /// owners' staged buffers, which live until `evict_version`. A get
    /// that failed or timed out never reports, `done` stays short and
    /// nothing is dropped; an undeclared later get pulls again.
    pub(super) fn bump_get_done(&self, vid: u64, version: u64) {
        let mut state = self.consumption.lock().unwrap();
        let done = state.done.entry((vid, version)).or_insert(0);
        *done += 1;
        let consumed = Some(*done) == state.expected_for(vid, version);
        drop(state);
        if consumed {
            self.consumed_cv.notify_all();
            self.dart.drop_pulled(vid, version);
        }
    }

    /// Drop a version's buffers and DHT records (memory management between
    /// workflow stages). Frees the owners' staging accounting.
    /// Eviction is *in-order*: all versions up to and including `version`
    /// are dropped from both the DHT and the registry.
    pub fn evict_version(&self, var: &str, version: u64) {
        let vid = var_id(var);
        self.evict_vid(vid, version);
        self.dart.wire().evict(vid, version);
    }

    pub(super) fn evict_vid(&self, vid: u64, version: u64) {
        self.dht.remove_versions_up_to(vid, version);
        let removed = self.dart.registry().evict_below(vid, version + 1);
        // Only buffers staged here count: a pulled copy swept out with
        // the version was never charged to staging, and its owner's
        // process books the eviction.
        let staged = removed
            .into_iter()
            .filter(|&(o, _)| self.dart.wire().hosts(o));
        let mut staging = self.staging.lock().unwrap();
        for (owner, bytes) in staged {
            self.evict_count.inc();
            let node = self.dart.placement().node_of(owner);
            if let Some(used) = staging.get_mut(&node) {
                *used = used.saturating_sub(bytes);
            }
        }
        self.staging_gauge
            .set(staging.values().copied().max().unwrap_or(0));
    }

    /// Bytes currently staged in CoDS memory on `node`.
    pub fn staging_bytes(&self, node: u32) -> u64 {
        self.staging
            .lock()
            .unwrap()
            .get(&node)
            .copied()
            .unwrap_or(0)
    }

    /// The highest per-node staging occupancy observed so far.
    pub fn staging_peak(&self) -> u64 {
        self.staging_peak.load(Ordering::Relaxed)
    }
}
