//! Remotely accessible registered buffers.
//!
//! HybridDART "creates remotely accessible data buffers using either
//! shared memory segments or RDMA memory regions" (§IV.A). The registry
//! is the in-process equivalent: owners register immutable byte buffers
//! under a key; any client can open them (one-sided read, no owner
//! involvement) or block until they appear — the rendezvous used by
//! concurrent coupling, where a consumer's `get` may race the producer's
//! `put`.
//!
//! The table is sharded by key hash: each shard has its own lock, so
//! producers registering different pieces and consumers polling
//! different keys never contend. Waiting is per key, not per table — a
//! [`Subscription`] hands a key that is already registered straight to
//! its caller and parks a waiter record only under each absent key, and
//! `register` hands the arriving handle directly to those waiters (and
//! only those), so a `register` wakes exactly the clients that asked
//! for that key instead of broadcasting to every blocked consumer.
//! A key can also hold continuations ([`BufferRegistry::on_register`]):
//! code `register` runs on the registering thread, so answering a remote
//! pull blocks nobody.

use insitu_fabric::ClientId;
use insitu_util::Bytes;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Key of a registered buffer. CoDS composes `(name_hash, version, piece)`;
/// the registry treats it opaquely.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct BufKey {
    /// Hash of the variable name (or other namespace).
    pub name: u64,
    /// Data version (iteration number).
    pub version: u64,
    /// Disambiguator, e.g. producing rank or piece index.
    pub piece: u64,
}

/// The client that owns the piece a [`BufKey::piece`] id names: CoDS
/// packs the owner into the id's upper 32 bits, which is how a pull
/// finds its way to the owner.
pub fn piece_owner(piece: u64) -> ClientId {
    (piece >> 32) as ClientId
}

/// An opened buffer: the owner (for locality decisions) plus a zero-copy
/// view of the registered bytes.
#[derive(Clone, Debug)]
pub struct BufferHandle {
    /// Client that registered the buffer.
    pub owner: ClientId,
    /// The registered bytes.
    pub data: Bytes,
}

/// Number of independently locked table shards.
const SHARD_COUNT: usize = 16;

/// FNV-1a over the key fields; cheap, and good enough to spread the
/// `(name, version, piece)` tuples CoDS generates across shards.
fn shard_of(key: &BufKey) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [key.name, key.version, key.piece] {
        for byte in word.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    (h as usize) % SHARD_COUNT
}

/// The wait-side half of a [`Subscription`]: arrivals are pushed here by
/// `register` (tagged with the subscriber's key index and the arrival
/// instant) and popped by `next_before`.
#[derive(Default)]
struct Waiter {
    ready: Mutex<VecDeque<(usize, BufferHandle, Instant)>>,
    arrived: Condvar,
}

impl Waiter {
    fn deliver(&self, index: usize, handle: BufferHandle) {
        self.ready
            .lock()
            .unwrap()
            .push_back((index, handle, Instant::now()));
        self.arrived.notify_one();
    }
}

/// What a not-yet-registered key holds until `register` hands it the
/// buffer: a [`Subscription`]'s waiter, tagged with the index of the key
/// in its key list, or a continuation from [`BufferRegistry::on_register`].
enum Parked {
    Wait(usize, Arc<Waiter>),
    Answer(Box<dyn FnOnce(BufferHandle) + Send>),
}

impl Parked {
    fn run(self, handle: BufferHandle) {
        match self {
            Parked::Wait(index, waiter) => waiter.deliver(index, handle),
            Parked::Answer(answer) => answer(handle),
        }
    }
}

#[derive(Default)]
struct Shard {
    table: HashMap<BufKey, BufferHandle>,
    waiters: HashMap<BufKey, Vec<Parked>>,
}

/// A concurrent key -> buffer table with blocking waits.
pub struct BufferRegistry {
    shards: Vec<Mutex<Shard>>,
}

impl Default for BufferRegistry {
    fn default() -> Self {
        BufferRegistry {
            shards: (0..SHARD_COUNT)
                .map(|_| Mutex::new(Shard::default()))
                .collect(),
        }
    }
}

impl BufferRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a buffer and hand it to everything parked
    /// on this key, after releasing the shard lock: a continuation runs
    /// on this thread and may call back into the registry. Nothing
    /// parked on other keys is woken.
    pub fn register(&self, key: BufKey, owner: ClientId, data: Bytes) {
        let handle = BufferHandle { owner, data };
        let parked = {
            let mut shard = self.shards[shard_of(&key)].lock().unwrap();
            shard.table.insert(key, handle.clone());
            shard.waiters.remove(&key)
        };
        for parked in parked.into_iter().flatten() {
            parked.run(handle.clone());
        }
    }

    /// Run `answer` with `key`'s buffer: now, on this thread, if it is
    /// registered, else once, from the `register` that brings it. Parked,
    /// it lives as long as the registry: `unregister` and `drop_pulled`
    /// leave it, as they leave waiters.
    pub fn on_register(&self, key: BufKey, answer: impl FnOnce(BufferHandle) + Send + 'static) {
        self.hand_or_park(&key, Parked::Answer(Box::new(answer)));
    }

    /// Hand `key`'s buffer to `parked` now, outside the shard lock, if it
    /// is registered; else park it for `register`.
    fn hand_or_park(&self, key: &BufKey, parked: Parked) {
        let mut shard = self.shards[shard_of(key)].lock().unwrap();
        match shard.table.get(key).cloned() {
            Some(handle) => {
                drop(shard);
                parked.run(handle);
            }
            None => shard.waiters.entry(*key).or_default().push(parked),
        }
    }

    /// Non-blocking lookup.
    pub fn get(&self, key: &BufKey) -> Option<BufferHandle> {
        self.shards[shard_of(key)]
            .lock()
            .unwrap()
            .table
            .get(key)
            .cloned()
    }

    /// Subscribe to a set of keys: each already-registered key is handed
    /// to `present(index, handle)` now, on this thread, in index order;
    /// the rest park and arrive through `Subscription::next_before` as
    /// producers register them. Nothing is allocated unless a key is
    /// absent. Dropping the subscription unparks its remaining waiters.
    pub fn subscribe<'a>(
        &'a self,
        keys: &'a [BufKey],
        mut present: impl FnMut(usize, BufferHandle),
    ) -> Subscription<'a> {
        let mut sub = Subscription {
            registry: self,
            keys,
            parked: None,
            outstanding: 0,
        };
        for (index, key) in keys.iter().enumerate() {
            match self.get(key) {
                Some(handle) => present(index, handle),
                None => {
                    let (waiter, undelivered) = sub
                        .parked
                        .get_or_insert_with(|| (Arc::default(), vec![false; keys.len()]));
                    undelivered[index] = true;
                    sub.outstanding += 1;
                    // A `register` racing this lookup finds the waiter
                    // parked, or `hand_or_park` finds its buffer.
                    self.hand_or_park(key, Parked::Wait(index, Arc::clone(waiter)));
                }
            }
        }
        sub
    }

    /// Block until `key` is registered, up to `timeout`. `None` on timeout.
    pub fn wait_for(&self, key: &BufKey, timeout: Duration) -> Option<BufferHandle> {
        let mut found = None;
        let mut sub = self.subscribe(std::slice::from_ref(key), |_, handle| found = Some(handle));
        found.or_else(|| {
            sub.next_before(Instant::now() + timeout)
                .map(|(_, handle, _)| handle)
        })
    }

    /// Remove a buffer (e.g. when a version is garbage collected).
    /// Waiters parked on the key keep waiting for a re-registration.
    pub fn unregister(&self, key: &BufKey) -> Option<BufferHandle> {
        self.shards[shard_of(key)].lock().unwrap().table.remove(key)
    }

    /// Remove every buffer whose version is strictly below `min_version`
    /// for the given name hash. Returns `(owner, bytes)` of each removed
    /// buffer so callers can release per-node staging accounting.
    pub fn evict_below(&self, name: u64, min_version: u64) -> Vec<(ClientId, u64)> {
        let mut removed = Vec::new();
        for shard in &self.shards {
            shard.lock().unwrap().table.retain(|k, h| {
                let keep = k.name != name || k.version >= min_version;
                if !keep {
                    removed.push((h.owner, h.data.len() as u64));
                }
                keep
            });
        }
        removed
    }

    /// Drop this process's *pulled copies* of `(name, version)`: entries
    /// whose owner does not satisfy `hosted`. Owned (staged) buffers,
    /// other versions and other names stay, and waiters parked on a
    /// dropped key keep waiting for a re-registration. Returns how many
    /// entries were dropped.
    ///
    /// A pulled copy is a transport cache, not staging: once every
    /// declared get of the version has completed nobody here will read
    /// it again, and an undeclared late get simply pulls again from the
    /// owner. The handles are dropped outside the shard locks — for a
    /// shm-mapped copy that drop is what hands the arena range back to
    /// the producer.
    pub fn drop_pulled(&self, name: u64, version: u64, hosted: impl Fn(ClientId) -> bool) -> usize {
        let mut dropped = Vec::new();
        for shard in &self.shards {
            let mut shard = shard.lock().unwrap();
            let keys: Vec<BufKey> = shard
                .table
                .iter()
                .filter(|(k, h)| k.name == name && k.version == version && !hosted(h.owner))
                .map(|(k, _)| *k)
                .collect();
            dropped.extend(keys.iter().filter_map(|k| shard.table.remove(k)));
        }
        dropped.len()
    }

    /// Number of registered buffers whose owner satisfies `owned`.
    ///
    /// A distributed execution client counts only buffers owned by the
    /// clients it hosts — pulled copies of remote buffers are excluded —
    /// so the per-process counts sum to the single-process
    /// [`BufferRegistry::len`].
    pub fn count_owned(&self, owned: impl Fn(ClientId) -> bool) -> u64 {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .table
                    .values()
                    .filter(|h| owned(h.owner))
                    .count() as u64
            })
            .sum()
    }

    /// Number of registered buffers.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap().table.len())
            .sum()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total waiters and continuations parked (diagnostics / tests).
    pub fn waiter_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .unwrap()
                    .waiters
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }
}

/// A wait-for-any handle over the keys a [`BufferRegistry::subscribe`]
/// found absent: yields `(key_index, handle, arrival_instant)` in
/// arrival order.
pub struct Subscription<'a> {
    registry: &'a BufferRegistry,
    keys: &'a [BufKey],
    /// Built on the first absent key: the waiter every absent key parks,
    /// and per key whether it is parked and not yet yielded.
    parked: Option<(Arc<Waiter>, Vec<bool>)>,
    /// Keys parked and not yet yielded.
    outstanding: usize,
}

impl Subscription<'_> {
    /// Next arrival, blocking until `deadline`. `None` once every parked
    /// key was yielded or the deadline passes.
    pub(crate) fn next_before(
        &mut self,
        deadline: Instant,
    ) -> Option<(usize, BufferHandle, Instant)> {
        let (waiter, undelivered) = match &mut self.parked {
            Some(parked) if self.outstanding > 0 => parked,
            _ => return None,
        };
        let mut ready = waiter.ready.lock().unwrap();
        let item = loop {
            if let Some(item) = ready.pop_front() {
                break item;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, res) = waiter.arrived.wait_timeout(ready, deadline - now).unwrap();
            ready = guard;
            if res.timed_out() {
                break ready.pop_front()?;
            }
        };
        undelivered[item.0] = false;
        self.outstanding -= 1;
        Some(item)
    }

    /// The lowest index of a parked key not yet yielded, if any.
    pub(crate) fn first_undelivered(&self) -> Option<usize> {
        self.parked.as_ref()?.1.iter().position(|&u| u)
    }
}

impl Drop for Subscription<'_> {
    fn drop(&mut self) {
        let Some((waiter, undelivered)) = self.parked.as_ref().filter(|_| self.outstanding > 0)
        else {
            return;
        };
        for (key, _) in self.keys.iter().zip(undelivered).filter(|(_, &u)| u) {
            let mut shard = self.registry.shards[shard_of(key)].lock().unwrap();
            if let Some(list) = shard.waiters.get_mut(key) {
                list.retain(|p| !matches!(p, Parked::Wait(_, w) if Arc::ptr_eq(w, waiter)));
                if list.is_empty() {
                    shard.waiters.remove(key);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn key(n: u64) -> BufKey {
        BufKey {
            name: n,
            version: 0,
            piece: 0,
        }
    }

    #[test]
    fn register_and_get() {
        let r = BufferRegistry::new();
        r.register(key(1), 3, Bytes::from_static(b"abc"));
        let h = r.get(&key(1)).unwrap();
        assert_eq!(h.owner, 3);
        assert_eq!(&h.data[..], b"abc");
        assert!(r.get(&key(2)).is_none());
    }

    #[test]
    fn wait_for_already_present() {
        let r = BufferRegistry::new();
        r.register(key(5), 0, Bytes::new());
        assert!(r.wait_for(&key(5), Duration::from_millis(1)).is_some());
    }

    #[test]
    fn wait_for_timeout() {
        let r = BufferRegistry::new();
        assert!(r.wait_for(&key(9), Duration::from_millis(20)).is_none());
        // The timed-out waiter deregistered itself.
        assert_eq!(r.waiter_count(), 0);
    }

    #[test]
    fn wait_for_rendezvous_across_threads() {
        let r = Arc::new(BufferRegistry::new());
        let r2 = Arc::clone(&r);
        let waiter = std::thread::spawn(move || {
            r2.wait_for(&key(7), Duration::from_secs(5))
                .expect("producer must arrive")
        });
        std::thread::sleep(Duration::from_millis(20));
        r.register(key(7), 11, Bytes::from_static(b"data"));
        let h = waiter.join().unwrap();
        assert_eq!(h.owner, 11);
    }

    #[test]
    fn unregister_removes() {
        let r = BufferRegistry::new();
        r.register(key(1), 0, Bytes::new());
        assert!(r.unregister(&key(1)).is_some());
        assert!(r.get(&key(1)).is_none());
        assert!(r.unregister(&key(1)).is_none());
    }

    #[test]
    fn evict_below_respects_name_and_version() {
        let r = BufferRegistry::new();
        for v in 0..5u64 {
            r.register(
                BufKey {
                    name: 1,
                    version: v,
                    piece: 0,
                },
                v as u32,
                Bytes::from(vec![0u8; 4]),
            );
            r.register(
                BufKey {
                    name: 2,
                    version: v,
                    piece: 0,
                },
                0,
                Bytes::new(),
            );
        }
        let removed = r.evict_below(1, 3);
        assert_eq!(removed.len(), 3);
        // Each removed entry reports its owner and size.
        assert!(removed.iter().all(|&(_, b)| b == 4));
        let owners: std::collections::HashSet<u32> = removed.iter().map(|&(o, _)| o).collect();
        assert_eq!(owners, [0u32, 1, 2].into_iter().collect());
        assert_eq!(r.len(), 7);
        assert!(r
            .get(&BufKey {
                name: 1,
                version: 3,
                piece: 0
            })
            .is_some());
        assert!(r
            .get(&BufKey {
                name: 2,
                version: 0,
                piece: 0
            })
            .is_some());
    }

    #[test]
    fn drop_pulled_takes_only_unhosted_copies_of_that_version() {
        let r = BufferRegistry::new();
        let k = |name, version, owner: u32| BufKey {
            name,
            version,
            piece: (owner as u64) << 32,
        };
        // Owners 0..2 are hosted here; 2..4 are pulled copies.
        for name in [1u64, 2] {
            for version in [6u64, 7] {
                for owner in 0..4u32 {
                    r.register(k(name, version, owner), owner, Bytes::from(vec![0u8; 8]));
                }
            }
        }
        // Someone is parked on a key of the dropped version that has
        // not arrived yet; the drop must leave them parked.
        let late = [k(1, 7, 9)];
        let parked = r.subscribe(&late, |_, _| panic!("the key is absent"));
        assert_eq!(r.waiter_count(), 1);

        assert_eq!(r.drop_pulled(1, 7, |o| o < 2), 2);
        assert_eq!(r.len(), 14);
        for owner in 0..4u32 {
            // Owned entries of the version stay; pulled ones are gone.
            assert_eq!(r.get(&k(1, 7, owner)).is_some(), owner < 2);
            // Other versions and other names are untouched.
            assert!(r.get(&k(1, 6, owner)).is_some());
            assert!(r.get(&k(2, 7, owner)).is_some());
        }
        assert_eq!(r.waiter_count(), 1);
        // Nothing left to drop the second time.
        assert_eq!(r.drop_pulled(1, 7, |o| o < 2), 0);

        // The parked waiter is still served by a later registration,
        // and a dropped key can simply be pulled (registered) again.
        let mut parked = parked;
        r.register(k(1, 7, 9), 9, Bytes::from_static(b"late"));
        let (_, h, _) = parked
            .next_before(Instant::now() + Duration::from_secs(5))
            .expect("waiter survives the drop");
        assert_eq!(h.owner, 9);
        r.register(k(1, 7, 3), 3, Bytes::from_static(b"again"));
        assert!(r.get(&k(1, 7, 3)).is_some());
    }

    #[test]
    fn replace_same_key() {
        let r = BufferRegistry::new();
        r.register(key(1), 0, Bytes::from_static(b"a"));
        r.register(key(1), 1, Bytes::from_static(b"b"));
        let h = r.get(&key(1)).unwrap();
        assert_eq!(h.owner, 1);
        assert_eq!(&h.data[..], b"b");
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn subscribe_yields_present_keys_immediately() {
        let r = BufferRegistry::new();
        r.register(key(2), 7, Bytes::from_static(b"b"));
        r.register(key(3), 8, Bytes::from_static(b"c"));
        let mut seen = Vec::new();
        let keys = [key(2), key(3)];
        let mut sub = r.subscribe(&keys, |i, h| seen.push((i, h.owner)));
        assert_eq!(seen, vec![(0, 7), (1, 8)]);
        assert_eq!(r.waiter_count(), 0);
        // Nothing is left to wait for: no blocking, no deadline needed.
        assert!(sub.next_before(Instant::now()).is_none());
        assert_eq!(sub.first_undelivered(), None);
    }

    #[test]
    fn subscribe_delivers_in_arrival_order() {
        let r = Arc::new(BufferRegistry::new());
        let r2 = Arc::clone(&r);
        let producer = std::thread::spawn(move || {
            // Register in reverse key order; the consumer must see this
            // arrival order, not the subscription order.
            std::thread::sleep(Duration::from_millis(10));
            r2.register(key(12), 2, Bytes::from_static(b"2"));
            std::thread::sleep(Duration::from_millis(10));
            r2.register(key(11), 1, Bytes::from_static(b"1"));
            std::thread::sleep(Duration::from_millis(10));
            r2.register(key(10), 0, Bytes::from_static(b"0"));
        });
        let keys = [key(10), key(11), key(12)];
        let mut order = Vec::new();
        let mut sub = r.subscribe(&keys, |i, _| order.push(i));
        let deadline = Instant::now() + Duration::from_secs(5);
        while let Some((i, _, _)) = sub.next_before(deadline) {
            order.push(i);
        }
        producer.join().unwrap();
        assert_eq!(order, vec![2, 1, 0]);
        assert_eq!(r.waiter_count(), 0);
    }

    #[test]
    fn register_wakes_only_matching_waiters() {
        let r = Arc::new(BufferRegistry::new());
        let r2 = Arc::clone(&r);
        // A waiter on an unrelated key must stay parked across another
        // key's registration.
        let bystander =
            std::thread::spawn(move || r2.wait_for(&key(99), Duration::from_millis(120)).is_none());
        std::thread::sleep(Duration::from_millis(20));
        r.register(key(1), 0, Bytes::from_static(b"x"));
        assert!(bystander.join().unwrap());
        assert_eq!(r.waiter_count(), 0);
    }

    #[test]
    fn dropped_subscription_deregisters_waiters() {
        let r = BufferRegistry::new();
        {
            let keys = [key(1), key(2), key(3)];
            let _sub = r.subscribe(&keys, |_, _| {});
            assert_eq!(r.waiter_count(), 3);
        }
        assert_eq!(r.waiter_count(), 0);
        // A late register finds nobody to wake and must not panic.
        r.register(key(1), 0, Bytes::new());
    }

    #[test]
    fn many_waiters_same_key_all_served() {
        let r = Arc::new(BufferRegistry::new());
        let mut waiters = Vec::new();
        for _ in 0..8 {
            let r2 = Arc::clone(&r);
            waiters.push(std::thread::spawn(move || {
                r2.wait_for(&key(42), Duration::from_secs(5))
                    .expect("must be served")
                    .owner
            }));
        }
        std::thread::sleep(Duration::from_millis(20));
        r.register(key(42), 6, Bytes::from_static(b"shared"));
        for w in waiters {
            assert_eq!(w.join().unwrap(), 6);
        }
        assert_eq!(r.waiter_count(), 0);
    }

    /// A continuation that records the thread it ran on and the owner
    /// it was handed, and counts its runs.
    type Runs = Arc<std::sync::Mutex<Vec<(std::thread::ThreadId, u32)>>>;

    fn recording(runs: &Runs) -> impl FnOnce(BufferHandle) + Send + 'static {
        let runs = Arc::clone(runs);
        move |h| {
            let me = std::thread::current().id();
            runs.lock().unwrap().push((me, h.owner));
        }
    }

    #[test]
    fn on_register_of_a_present_key_runs_on_the_caller() {
        let r = BufferRegistry::new();
        let runs = Runs::default();
        r.register(key(1), 4, Bytes::from_static(b"here"));
        r.on_register(key(1), recording(&runs));
        let me = std::thread::current().id();
        assert_eq!(*runs.lock().unwrap(), vec![(me, 4)]);
        assert_eq!(r.waiter_count(), 0);
    }

    #[test]
    fn on_register_of_an_absent_key_runs_once_from_register_on_its_thread() {
        let r = Arc::new(BufferRegistry::new());
        let runs = Runs::default();
        r.on_register(key(2), recording(&runs));
        assert!(runs.lock().unwrap().is_empty());
        assert_eq!(r.waiter_count(), 1);
        let r2 = Arc::clone(&r);
        let producer = std::thread::spawn(move || {
            r2.register(key(2), 5, Bytes::from_static(b"put"));
            std::thread::current().id()
        });
        let producer = producer.join().unwrap();
        // A replacement finds nothing parked: the answer ran once.
        r.register(key(2), 6, Bytes::from_static(b"again"));
        assert_eq!(*runs.lock().unwrap(), vec![(producer, 5)]);
        assert_eq!(r.waiter_count(), 0);
    }

    #[test]
    fn a_continuation_may_call_back_into_the_registry() {
        let r = Arc::new(BufferRegistry::new());
        // Parked: runs inside `register`, which must not hold the lock.
        let r2 = Arc::clone(&r);
        r.on_register(key(3), move |h| {
            assert_eq!(r2.get(&key(3)).map(|h| h.owner), Some(h.owner));
            r2.register(key(4), h.owner + 1, Bytes::new());
        });
        r.register(key(3), 7, Bytes::new());
        assert_eq!(r.get(&key(4)).map(|h| h.owner), Some(8));
        // Present: runs inside `on_register`, likewise.
        let r2 = Arc::clone(&r);
        r.on_register(key(4), move |_| {
            r2.register(key(5), 9, Bytes::new());
            let runs = Runs::default();
            r2.on_register(key(5), recording(&runs));
            assert_eq!(runs.lock().unwrap().len(), 1);
        });
        assert!(r.get(&key(5)).is_some());
    }

    #[test]
    fn unregister_and_drop_pulled_leave_a_continuation_parked() {
        let r = BufferRegistry::new();
        let runs = Runs::default();
        r.on_register(key(6), recording(&runs));
        assert!(r.unregister(&key(6)).is_none());
        assert_eq!(r.drop_pulled(6, 0, |_| false), 0);
        assert_eq!(r.waiter_count(), 1);
        assert!(runs.lock().unwrap().is_empty());
        r.register(key(6), 2, Bytes::new());
        assert_eq!(runs.lock().unwrap().len(), 1);
    }

    #[test]
    fn several_continuations_and_a_waiter_on_one_key_are_all_served() {
        let r = BufferRegistry::new();
        let runs = Runs::default();
        let keys = [key(8)];
        let mut sub = r.subscribe(&keys, |_, _| panic!("the key is absent"));
        for _ in 0..5 {
            r.on_register(key(8), recording(&runs));
        }
        assert_eq!(r.waiter_count(), 6);
        r.register(key(8), 3, Bytes::new());
        assert_eq!(runs.lock().unwrap().len(), 5);
        assert!(runs.lock().unwrap().iter().all(|&(_, owner)| owner == 3));
        let (_, h, _) = sub
            .next_before(Instant::now() + Duration::from_secs(5))
            .expect("the waiter is served too");
        assert_eq!(h.owner, 3);
        assert_eq!(r.waiter_count(), 0);
    }
}
