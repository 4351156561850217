//! Standing geometric queries — the Linda-flavored push plane over CoDS.
//!
//! A *subscription* is a persistent `get`: `(var, region, every_k)`
//! registered once, after which every matching `put` — same variable,
//! `version % every_k == 0`, bounding boxes overlapping — pushes the
//! overlapping fragment to the subscriber without any consumer-side
//! poll. The [`SubRegistry`] here mirrors the sharded per-key design of
//! the HybridDART `BufferRegistry`: entries are hashed into independently
//! locked shards by variable key, so producers of unrelated variables
//! never contend, and a `put` of an unsubscribed variable costs one
//! uncontended shard probe.
//!
//! Delivery runs through a bounded per-subscriber [`SubSink`]: a
//! producer piece is [`SubSink::offer`]ed whole — the put's own cells,
//! or a copy that landed from another process — and the sink cuts its
//! overlap straight into the subscribed region (the same strided
//! `copy_region` path a `get` uses, so pushed bytes are byte-identical
//! to pulled ones, and the one copy a pushed byte pays). Completed
//! versions queue for the consumer. The queue is bounded with a
//! drop-oldest policy: a slow consumer loses the *oldest* ready version
//! and the loss is observable (`lagged`), never silent backpressure on
//! the producer — the trade the in-situ monitoring workload wants.

use insitu_domain::{layout, BoundingBox};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Stable identifier of a registered subscription.
pub type SubId = u64;

/// Number of independently locked registry shards (matches the
/// `BufferRegistry` layout).
const SHARD_COUNT: usize = 16;

/// Default bound on ready-but-unconsumed versions per subscriber.
pub const DEFAULT_QUEUE_CAP: usize = 8;

/// FNV-1a over a variable key; the same spreading function the buffer
/// registry uses, so the two registries shard compatibly.
fn shard_of(vid: u64) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in vid.to_le_bytes() {
        h ^= byte as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h as usize) % SHARD_COUNT
}

/// What a subscriber asks for: a persistent geometric query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SubSpec {
    /// Variable key: the space's `var_id` of the variable name, the
    /// same key its DHT and buffer registry use.
    pub vid: u64,
    /// The watched region.
    pub region: BoundingBox,
    /// Push every `every_k`-th version (1 = every version). Must be ≥ 1.
    pub every_k: u64,
    /// Execution client that consumes the pushes.
    pub subscriber: u32,
}

impl SubSpec {
    /// Deterministic id: FNV-1a over the spec fields, so every replica
    /// of a distributed run derives the same id for the same spec and
    /// remote registration is idempotent.
    pub fn id(&self) -> SubId {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |w: u64| {
            for byte in w.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.vid);
        eat(self.every_k);
        eat(self.subscriber as u64);
        eat(self.region.ndim() as u64);
        for d in 0..self.region.ndim() {
            eat(self.region.lb(d));
            eat(self.region.ub(d));
        }
        h
    }
}

/// One registered standing query. The spec is replicated identically in
/// every process of a distributed run; the sink is attached only in the
/// process that hosts the subscriber, which is how a producer-side
/// `matching` hit decides between local delivery and a wire push.
pub struct SubEntry {
    /// Deterministic id ([`SubSpec::id`]).
    pub id: SubId,
    /// The query.
    pub spec: SubSpec,
    sink: Mutex<Option<Arc<SubSink>>>,
}

impl SubEntry {
    /// Does a put of `(vid, version)` feed this subscription? The
    /// geometric half of the match — fragment overlap — is the caller's
    /// `spec.region.intersect(piece)`.
    pub fn matches(&self, vid: u64, version: u64) -> bool {
        self.spec.vid == vid && version.is_multiple_of(self.spec.every_k)
    }

    /// The local delivery sink, when this process hosts the subscriber.
    pub fn sink(&self) -> Option<Arc<SubSink>> {
        self.sink.lock().unwrap().clone()
    }

    /// Attach (or fetch) the local delivery sink. Idempotent: a second
    /// attach returns the first sink, so re-registration cannot orphan
    /// buffered versions.
    pub fn attach_sink(&self, queue_cap: usize) -> Arc<SubSink> {
        let mut slot = self.sink.lock().unwrap();
        if let Some(s) = slot.as_ref() {
            return Arc::clone(s);
        }
        let sink = Arc::new(SubSink::new(self.spec.region, queue_cap));
        *slot = Some(Arc::clone(&sink));
        sink
    }
}

#[derive(Default)]
struct RegistryShard {
    entries: Vec<Arc<SubEntry>>,
}

/// The sharded subscription table. Registration order within a shard is
/// preserved, so `matching` returns entries in a deterministic order —
/// fault-site replay and ledger byte-identity depend on it.
#[derive(Default)]
pub struct SubRegistry {
    shards: [Mutex<RegistryShard>; SHARD_COUNT],
    active: AtomicU64,
}

impl SubRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a standing query; idempotent on the deterministic id
    /// (re-registering the same spec returns the existing entry).
    ///
    /// # Panics
    /// Panics on `every_k == 0` — callers validate user input first.
    pub fn register(&self, spec: SubSpec) -> Arc<SubEntry> {
        assert!(spec.every_k >= 1, "every_k must be at least 1");
        let id = spec.id();
        let mut shard = self.shards[shard_of(spec.vid)].lock().unwrap();
        if let Some(e) = shard.entries.iter().find(|e| e.id == id) {
            return Arc::clone(e);
        }
        let entry = Arc::new(SubEntry {
            id,
            spec,
            sink: Mutex::new(None),
        });
        shard.entries.push(Arc::clone(&entry));
        self.active.fetch_add(1, Ordering::Relaxed);
        entry
    }

    /// Every subscription a put of `(vid, version)` must consider, in
    /// registration order. Geometric overlap is still the caller's check
    /// (it has the piece box; the entry has the query box).
    pub fn matching(&self, vid: u64, version: u64) -> Vec<Arc<SubEntry>> {
        let shard = self.shards[shard_of(vid)].lock().unwrap();
        shard
            .entries
            .iter()
            .filter(|e| e.matches(vid, version))
            .cloned()
            .collect()
    }

    /// Currently registered subscriptions.
    pub fn active(&self) -> u64 {
        self.active.load(Ordering::Relaxed)
    }
}

/// A version still being assembled from producer pieces.
struct Partial {
    data: Vec<f64>,
    filled: u128,
    /// The source boxes cut in so far: a piece offered twice (a copy
    /// that landed twice) fills nothing the second time.
    sources: Vec<BoundingBox>,
}

struct SinkState {
    /// Versions with some but not all cells delivered.
    pending: BTreeMap<u64, Partial>,
    /// Fully assembled versions awaiting the consumer, oldest first.
    ready: BTreeMap<u64, Vec<f64>>,
    /// Versions the reader took, or gave up on at its deadline: a later
    /// offer of one reopens nothing.
    finished: BTreeSet<u64>,
    /// The producer pieces this sink expects, by piece id, so a copy
    /// that landed with only its id can be cut ([`SubSink::offer_piece`]).
    expected: HashMap<u64, BoundingBox>,
    /// Highest version evicted by the drop-oldest policy (readers treat
    /// any request at or below this as lost).
    evicted_max: Option<u64>,
    /// Versions lost to the bounded queue.
    lagged: u64,
    /// Fully assembled versions ever produced (delivered or dropped).
    completed: u64,
}

/// Result of offering one producer piece to a sink.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OfferOutcome {
    /// Overlap absorbed; the version is still incomplete.
    Absorbed,
    /// This piece completed the version; it is now ready (possibly
    /// evicting the oldest ready version, reported separately).
    Completed,
    /// Discarded: the version was taken, given up on or evicted; or the
    /// piece was cut in already, misses the region, or does not fill its
    /// box.
    Stale,
}

/// What a blocking read of a specific version produced.
#[derive(Clone, Debug, PartialEq)]
pub enum TakeResult {
    /// The assembled region data for the requested version.
    Data(Vec<f64>),
    /// The version was evicted by the drop-oldest policy before the
    /// reader arrived — resync (re-`get`) to heal the gap.
    Lagged,
    /// Deadline passed with the version incomplete (a dropped push
    /// upstream, under chaos) — resync to heal the gap.
    TimedOut,
}

/// The consumer half of a subscription: producers offer pieces, the
/// consumer blocks on assembled versions.
pub struct SubSink {
    region: BoundingBox,
    queue_cap: usize,
    state: Mutex<SinkState>,
    arrived: Condvar,
}

impl SubSink {
    fn new(region: BoundingBox, queue_cap: usize) -> Self {
        SubSink {
            region,
            queue_cap: queue_cap.max(1),
            state: Mutex::new(SinkState {
                pending: BTreeMap::new(),
                ready: BTreeMap::new(),
                finished: BTreeSet::new(),
                expected: HashMap::new(),
                evicted_max: None,
                lagged: 0,
                completed: 0,
            }),
            arrived: Condvar::new(),
        }
    }

    /// Learn that producer piece `piece` (an id stable across versions)
    /// covers `src_box`, so a copy of it that arrives with only its id
    /// can be offered with [`Self::offer_piece`].
    pub fn expect(&self, piece: u64, src_box: BoundingBox) {
        self.state.lock().unwrap().expected.insert(piece, src_box);
    }

    /// Offer the expected producer piece `piece` of `version`
    /// ([`Self::expect`]); an unexpected id is [`OfferOutcome::Stale`].
    pub fn offer_piece(&self, version: u64, piece: u64, src: &[f64]) -> OfferOutcome {
        let src_box = self.state.lock().unwrap().expected.get(&piece).copied();
        src_box.map_or(OfferOutcome::Stale, |b| self.offer(version, &b, src))
    }

    /// Offer `src`, the dense row-major cells of the producer piece
    /// `src_box`, of `version`. Copies its overlap with the region into
    /// the region-shaped assembly; when every cell of the region has
    /// landed the version moves to the ready queue. Pieces never overlap
    /// (producer pieces tile the domain disjointly), so completeness is
    /// exactly cell-count coverage, and a piece offered again fills
    /// nothing.
    pub fn offer(&self, version: u64, src_box: &BoundingBox, src: &[f64]) -> OfferOutcome {
        let overlap = match self.region.intersect(src_box) {
            Some(o) if src.len() as u128 == src_box.num_cells() => o,
            _ => return OfferOutcome::Stale,
        };
        let mut state = self.state.lock().unwrap();
        if state.ready.contains_key(&version)
            || state.finished.contains(&version)
            || state.evicted_max.is_some_and(|m| version <= m)
        {
            return OfferOutcome::Stale;
        }
        let total = self.region.num_cells();
        let partial = state.pending.entry(version).or_insert_with(|| Partial {
            data: vec![0.0; total as usize],
            filled: 0,
            sources: Vec::new(),
        });
        if partial.sources.contains(src_box) {
            return OfferOutcome::Stale;
        }
        partial.sources.push(*src_box);
        layout::copy_region(src, src_box, &mut partial.data, &self.region, &overlap);
        partial.filled += overlap.num_cells();
        if partial.filled < total {
            return OfferOutcome::Absorbed;
        }
        let done = state.pending.remove(&version).unwrap();
        state.ready.insert(version, done.data);
        state.completed += 1;
        while state.ready.len() > self.queue_cap {
            let (&oldest, _) = state.ready.iter().next().unwrap();
            state.ready.remove(&oldest);
            state.evicted_max = Some(state.evicted_max.map_or(oldest, |m| m.max(oldest)));
            state.lagged += 1;
        }
        drop(state);
        self.arrived.notify_all();
        OfferOutcome::Completed
    }

    /// Block until `version` is fully assembled (or lost, or the deadline
    /// passes). Out-of-order completion is fine: a reader asking for
    /// version 2 is not confused by versions 4 and 6 arriving first.
    /// Either way the version is finished: it was taken, or given up on
    /// (its partial assembly dropped), and no later offer reopens it.
    pub fn take_version(&self, version: u64, deadline: Instant) -> TakeResult {
        let mut state = self.state.lock().unwrap();
        loop {
            if let Some(data) = state.ready.remove(&version) {
                state.finished.insert(version);
                return TakeResult::Data(data);
            }
            if state.evicted_max.is_some_and(|m| version <= m) {
                return TakeResult::Lagged;
            }
            let now = Instant::now();
            if now >= deadline || state.finished.contains(&version) {
                state.pending.remove(&version);
                state.finished.insert(version);
                return TakeResult::TimedOut;
            }
            state = self.arrived.wait_timeout(state, deadline - now).unwrap().0;
        }
    }

    /// Versions lost to the bounded queue so far.
    pub fn lagged(&self) -> u64 {
        self.state.lock().unwrap().lagged
    }

    /// Fully assembled versions so far (delivered or later dropped).
    pub fn completed(&self) -> u64 {
        self.state.lock().unwrap().completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn bbox(lb: &[u64], ub: &[u64]) -> BoundingBox {
        BoundingBox::new(lb, ub)
    }

    fn spec(vid: u64, every_k: u64, subscriber: u32) -> SubSpec {
        SubSpec {
            vid,
            region: bbox(&[0, 0], &[3, 3]),
            every_k,
            subscriber,
        }
    }

    #[test]
    fn ids_are_deterministic_and_spec_sensitive() {
        assert_eq!(spec(7, 2, 1).id(), spec(7, 2, 1).id());
        assert_ne!(spec(7, 2, 1).id(), spec(7, 3, 1).id());
        assert_ne!(spec(7, 2, 1).id(), spec(8, 2, 1).id());
        assert_ne!(spec(7, 2, 1).id(), spec(7, 2, 2).id());
    }

    #[test]
    fn register_is_idempotent() {
        let reg = SubRegistry::new();
        let a = reg.register(spec(7, 2, 1));
        let b = reg.register(spec(7, 2, 1));
        assert_eq!(a.id, b.id);
        assert_eq!(reg.active(), 1);
    }

    #[test]
    fn matching_respects_stride_and_var() {
        let reg = SubRegistry::new();
        reg.register(spec(7, 3, 1));
        assert_eq!(reg.matching(7, 0).len(), 1);
        assert_eq!(reg.matching(7, 1).len(), 0);
        assert_eq!(reg.matching(7, 3).len(), 1);
        assert_eq!(reg.matching(8, 0).len(), 0);
    }

    #[test]
    fn sink_assembles_fragments_in_any_order() {
        let region = bbox(&[0, 0], &[3, 3]);
        let sink = SubSink::new(region, 4);
        let left = bbox(&[0, 0], &[3, 1]);
        let right = bbox(&[0, 2], &[3, 3]);
        let fill = |b: &BoundingBox| layout::fill_with(b, |p| (10 * p[0] + p[1]) as f64);
        assert_eq!(sink.offer(0, &right, &fill(&right)), OfferOutcome::Absorbed);
        assert_eq!(sink.offer(0, &left, &fill(&left)), OfferOutcome::Completed);
        let got = match sink.take_version(0, Instant::now()) {
            TakeResult::Data(d) => d,
            other => panic!("expected data, got {other:?}"),
        };
        assert_eq!(got, fill(&region));
    }

    #[test]
    fn bounded_queue_drops_oldest_and_counts_lag() {
        let region = bbox(&[0], &[1]);
        let sink = SubSink::new(region, 2);
        for v in 0..4 {
            assert_eq!(sink.offer(v, &region, &[1.0, 2.0]), OfferOutcome::Completed);
        }
        // Capacity 2: versions 0 and 1 were evicted oldest-first.
        assert_eq!(sink.lagged(), 2);
        assert_eq!(sink.take_version(0, Instant::now()), TakeResult::Lagged);
        assert_eq!(sink.take_version(1, Instant::now()), TakeResult::Lagged);
        assert!(matches!(
            sink.take_version(2, Instant::now()),
            TakeResult::Data(_)
        ));
        assert!(matches!(
            sink.take_version(3, Instant::now()),
            TakeResult::Data(_)
        ));
    }

    #[test]
    fn out_of_order_versions_do_not_confuse_a_waiting_reader() {
        let region = bbox(&[0], &[0]);
        let sink = Arc::new(SubSink::new(region, 8));
        let s = Arc::clone(&sink);
        let t =
            std::thread::spawn(move || s.take_version(2, Instant::now() + Duration::from_secs(5)));
        sink.offer(4, &region, &[4.0]);
        sink.offer(6, &region, &[6.0]);
        sink.offer(2, &region, &[2.0]);
        assert_eq!(t.join().unwrap(), TakeResult::Data(vec![2.0]));
        // The later versions are still there, in order.
        assert!(matches!(
            sink.take_version(4, Instant::now()),
            TakeResult::Data(_)
        ));
    }

    #[test]
    fn take_times_out_on_incomplete_version() {
        let region = bbox(&[0, 0], &[3, 3]);
        let sink = SubSink::new(region, 4);
        let left = bbox(&[0, 0], &[3, 1]);
        sink.offer(0, &left, &layout::fill_with(&left, |_| 1.0));
        let t0 = Instant::now();
        assert_eq!(
            sink.take_version(0, t0 + Duration::from_millis(30)),
            TakeResult::TimedOut
        );
        assert!(t0.elapsed() >= Duration::from_millis(30));
    }

    /// A whole producer piece is offered and the sink cuts its overlap;
    /// a piece known by id is cut the same way, and one offered twice —
    /// a copy that landed twice — fills nothing the second time.
    #[test]
    fn sink_cuts_each_whole_piece_once() {
        let region = bbox(&[1, 1], &[2, 4]);
        let sink = SubSink::new(region, 4);
        let (top, bottom) = (bbox(&[0, 0], &[1, 7]), bbox(&[2, 0], &[3, 7]));
        let fill = |b: &BoundingBox| layout::fill_with(b, |p| (10 * p[0] + p[1]) as f64);
        sink.expect(7, bottom);
        assert_eq!(sink.offer(0, &top, &fill(&top)), OfferOutcome::Absorbed);
        assert_eq!(sink.offer(0, &top, &fill(&top)), OfferOutcome::Stale);
        assert_eq!(sink.offer_piece(0, 8, &fill(&bottom)), OfferOutcome::Stale);
        assert_eq!(
            sink.offer_piece(0, 7, &fill(&bottom)),
            OfferOutcome::Completed
        );
        let got = sink.take_version(0, Instant::now());
        assert_eq!(got, TakeResult::Data(fill(&region)));
        // Neither a piece that misses the region nor a short one is cut.
        let outside = bbox(&[0, 5], &[3, 7]);
        assert_eq!(
            sink.offer(1, &outside, &fill(&outside)),
            OfferOutcome::Stale
        );
        assert_eq!(sink.offer(1, &top, &[0.0; 3]), OfferOutcome::Stale);
    }

    /// A version the reader took, gave up on at its deadline, or lost
    /// to the queue is finished: a later offer — a late or repeated
    /// landing — reopens nothing.
    #[test]
    fn a_finished_version_is_stale_to_any_later_offer() {
        let region = bbox(&[0], &[1]);
        let (low, high) = (bbox(&[0], &[0]), bbox(&[1], &[1]));
        let sink = SubSink::new(region, 1);
        assert_eq!(sink.offer(0, &region, &[1.0, 2.0]), OfferOutcome::Completed);
        assert!(matches!(
            sink.take_version(0, Instant::now()),
            TakeResult::Data(_)
        ));
        assert_eq!(sink.offer(0, &region, &[1.0, 2.0]), OfferOutcome::Stale);
        assert_eq!(sink.offer(1, &low, &[1.0]), OfferOutcome::Absorbed);
        assert_eq!(sink.take_version(1, Instant::now()), TakeResult::TimedOut);
        assert_eq!(sink.offer(1, &high, &[2.0]), OfferOutcome::Stale);
        assert_eq!(sink.offer(1, &low, &[1.0]), OfferOutcome::Stale);
        for v in 2..4 {
            assert_eq!(sink.offer(v, &region, &[1.0, 2.0]), OfferOutcome::Completed);
        }
        assert_eq!(sink.take_version(2, Instant::now()), TakeResult::Lagged);
        assert_eq!(sink.offer(2, &region, &[1.0, 2.0]), OfferOutcome::Stale);
        assert_eq!(sink.completed(), 3);
    }
}
