//! The HybridDART runtime: endpoints, transport selection and accounting.

use crate::mailbox::{Mailbox, Msg};
use crate::registry::{piece_owner, BufKey, BufferHandle, BufferRegistry};
use crate::transport::{LocalTransport, Transport};
use insitu_fabric::{
    ClientId, FaultAction, FaultInjector, FaultKind, Locality, Placement, TrafficClass,
    TransferLedger,
};
use insitu_obs::{Event, EventKind, FlightRecorder};
use insitu_sub::SubRegistry;
use insitu_telemetry::{Counter, Histogram, Recorder};
use insitu_util::{Bytes, Shelf};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The shared communication runtime for one workflow execution.
///
/// Holds the placement (to select transports), the transfer ledger (to
/// account every byte), the message senders of all endpoints and the
/// one-sided buffer registry, and the shelf of the run's transient cell
/// buffers. Cheap to clone via `Arc`.
///
/// The runtime is also the telemetry injection point for the data plane:
/// construct with [`DartRuntime::with_transport`] and every layer above
/// (CoDS, the executors) records through [`DartRuntime::recorder`].
pub struct DartRuntime {
    placement: Arc<Placement>,
    ledger: Arc<TransferLedger>,
    senders: Vec<Sender<Msg>>,
    mailboxes: Vec<Mutex<Option<Mailbox>>>,
    registry: BufferRegistry,
    subs: SubRegistry,
    /// Where concurrent pieces and get assemblies are born and return.
    cells: Shelf<f64>,
    recorder: Recorder,
    flight: FlightRecorder,
    injector: FaultInjector,
    wire: Arc<dyn Transport>,
    /// Whether `wire` hosts every client, so the registry can hold no
    /// pulled copy of a remote buffer.
    hosts_all: bool,
    msgs_sent: Counter,
    transport_shm: Counter,
    transport_net: Counter,
    pull_wait_us: Histogram,
}

impl DartRuntime {
    /// Build a single-process runtime for every client of `placement`,
    /// without telemetry, fault injection or a flight recording.
    pub fn new(placement: Arc<Placement>, ledger: Arc<TransferLedger>) -> Arc<Self> {
        Self::with_transport(
            placement,
            ledger,
            Recorder::disabled(),
            FaultInjector::none(),
            FlightRecorder::disabled(),
            Arc::new(LocalTransport),
        )
    }

    /// The full constructor. Transports and pulls record into `recorder`,
    /// `injector` is consulted at the fault sites (pulls here; the layers
    /// above reach it through [`DartRuntime::injector`]), `flight` logs
    /// structured causal events (pull faults here; puts, gets, schedules
    /// and pulls in CoDS through [`DartRuntime::flight`]), and `wire`
    /// decides which clients are hosted here and carries messages and
    /// buffer pulls to the rest — [`LocalTransport`] hosts everyone,
    /// which is the single-process executor.
    pub fn with_transport(
        placement: Arc<Placement>,
        ledger: Arc<TransferLedger>,
        recorder: Recorder,
        injector: FaultInjector,
        flight: FlightRecorder,
        wire: Arc<dyn Transport>,
    ) -> Arc<Self> {
        let n = placement.num_clients();
        let (boxes, senders) = Mailbox::create_all(n);
        let hosts_all = (0..n).all(|c| wire.hosts(c));
        Arc::new(DartRuntime {
            placement,
            ledger,
            senders,
            mailboxes: boxes.into_iter().map(|b| Mutex::new(Some(b))).collect(),
            registry: BufferRegistry::new(),
            subs: SubRegistry::new(),
            cells: Shelf::default(),
            injector,
            flight,
            wire,
            hosts_all,
            msgs_sent: recorder.counter("dart.msgs_sent"),
            transport_shm: recorder.counter("dart.transport.shm"),
            transport_net: recorder.counter("dart.transport.net"),
            pull_wait_us: recorder.histogram("dart.pull_wait_us"),
            recorder,
        })
    }

    /// The shelf of this run's transient cell buffers.
    pub fn cells(&self) -> &Shelf<f64> {
        &self.cells
    }

    /// The placement this runtime serves.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    /// The byte ledger.
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// The one-sided buffer registry.
    pub fn registry(&self) -> &BufferRegistry {
        &self.registry
    }

    /// The standing-query subscription registry, sharded like the buffer
    /// registry so producers of unrelated variables never contend.
    pub fn subs(&self) -> &SubRegistry {
        &self.subs
    }

    /// The telemetry recorder this runtime was built with (disabled by
    /// default). Layers above the transport share it.
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The fault injector this runtime was built with (inert by default).
    /// CoDS consults it at its own fault sites.
    pub fn injector(&self) -> &FaultInjector {
        &self.injector
    }

    /// The flight recorder this runtime was built with (disabled by
    /// default). CoDS and the executors log causal events through it.
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// HybridDART's transport selection: shared memory when the two
    /// clients share a node, network otherwise.
    #[inline]
    pub fn transport(&self, a: ClientId, b: ClientId) -> Locality {
        if self.placement.colocated(a, b) {
            Locality::SharedMemory
        } else {
            Locality::Network
        }
    }

    /// Account a logical transfer of `bytes` from `from` to `to` for
    /// application `app`, choosing the transport by locality.
    pub fn account(
        &self,
        app: u32,
        class: TrafficClass,
        from: ClientId,
        to: ClientId,
        bytes: u64,
    ) -> Locality {
        let loc = self.transport(from, to);
        match loc {
            Locality::SharedMemory => self.transport_shm.inc(),
            Locality::Network => self.transport_net.inc(),
        }
        self.ledger.record(app, class, loc, bytes);
        loc
    }

    /// Send a message, accounting its payload under `class` (control
    /// messages, halo exchanges, ...). When `to` is hosted by another
    /// process the message is handed to the wire transport instead of the
    /// local mailbox; accounting happens here either way, so the
    /// receiving process must inject it with [`DartRuntime::deliver`].
    pub fn send(
        &self,
        app: u32,
        class: TrafficClass,
        from: ClientId,
        to: ClientId,
        tag: u64,
        payload: Bytes,
    ) {
        self.account(app, class, from, to, payload.len() as u64);
        self.msgs_sent.inc();
        let msg = Msg {
            src: from,
            tag,
            payload,
        };
        if self.wire.hosts(to) {
            self.senders[to as usize]
                .send(msg)
                .expect("receiver mailbox dropped");
        } else {
            self.wire.forward(to, &msg);
        }
    }

    /// Inject a message that was accounted elsewhere (the wire reader's
    /// entry point for forwarded messages). No ledger record is made:
    /// the sending process already accounted the transfer.
    pub fn deliver(&self, to: ClientId, msg: Msg) {
        self.senders[to as usize]
            .send(msg)
            .expect("receiver mailbox dropped");
    }

    /// Register a buffer a local client staged. Nothing is announced:
    /// a remote process learns where a piece lives from the DHT replica
    /// or the producer's declared decomposition, and asks for it with
    /// [`Transport::request`].
    pub fn register_buffer(&self, key: BufKey, owner: ClientId, data: Bytes) {
        self.registry.register(key, owner, data);
    }

    /// The transport this runtime was built with: how the layers above
    /// reach the other processes of a distributed run.
    pub fn wire(&self) -> &dyn Transport {
        &*self.wire
    }

    /// Drop this process's pulled copies of `(name, version)` — registry
    /// entries whose owner it does not host (see
    /// [`BufferRegistry::drop_pulled`]). CoDS calls this when the last
    /// declared get of the version completes. A single-process runtime
    /// hosts every client, holds no pulled copy and returns without
    /// looking at the registry. Returns how many entries were dropped.
    pub fn drop_pulled(&self, name: u64, version: u64) -> usize {
        if self.hosts_all {
            return 0;
        }
        self.registry
            .drop_pulled(name, version, |owner| self.wire.hosts(owner))
    }

    /// Receiver-driven wait-for-any pull: issue every key at once and
    /// invoke `on_ready(index, handle, wait)` as each buffer becomes
    /// available — so the total blocking time is the max over keys, not
    /// the sum. A key already registered here is handed over at once, in
    /// index order, with no waiter built; the rest follow in arrival
    /// order. `wait` is the time from issue until the buffer was
    /// available (also recorded in `dart.pull_wait_us`); the callback
    /// runs on the calling thread, and later arrivals queue behind it.
    ///
    /// Every key's pull fault site is consulted up front, so drop/delay
    /// faults fire once per key, before any request leaves.
    /// A delayed key is withheld until its injected delay elapses; a
    /// dropped key fails the call. On failure the error carries the
    /// lowest undelivered key index (callers map it back to a schedule
    /// op); already-delivered callbacks are not undone.
    pub fn pull_many(
        &self,
        keys: &[BufKey],
        timeout: Duration,
        mut on_ready: impl FnMut(usize, BufferHandle, Duration),
    ) -> Result<(), usize> {
        if keys.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        let mut dropped: Option<usize> = None;
        // Built only once a delay site fires.
        let mut floors: Option<Vec<Option<Instant>>> = None;
        for (i, key) in keys.iter().enumerate() {
            match self.injector.on_pull(key.name, key.version, key.piece) {
                FaultAction::Drop => {
                    self.record_pull_fault(FaultKind::DropPull, key);
                    dropped.get_or_insert(i);
                }
                FaultAction::Delay(d) => {
                    self.record_pull_fault(FaultKind::DelayPull, key);
                    floors.get_or_insert_with(|| vec![None; keys.len()])[i] = Some(start + d);
                }
                FaultAction::Proceed => {}
            }
        }
        if let Some(i) = dropped {
            return Err(i);
        }
        for key in keys {
            self.wire.request(key);
        }
        let floor = |i: usize| floors.as_ref().and_then(|f| f[i]);
        // A delayed op's budget is delay + timeout: the injected delay
        // must not eat into the wait for the buffer itself.
        let deadline = floors
            .iter()
            .flatten()
            .flatten()
            .max()
            .map_or(start + timeout, |&f| f + timeout);

        let mut pending = keys.len();
        // Arrived but withheld by an injected delay: (index, handle).
        let mut held: Vec<(usize, BufferHandle)> = Vec::new();
        // Every buffer comes through here, found at issue or arriving
        // later: withheld until its delay floor, else handed over.
        let mut arrive = |index: usize,
                          handle: BufferHandle,
                          held: &mut Vec<(usize, BufferHandle)>,
                          pending: &mut usize| {
            let now = Instant::now();
            if floor(index).is_some_and(|f| f > now) {
                held.push((index, handle));
                return;
            }
            let wait = now.saturating_duration_since(start);
            self.pull_wait_us.record(wait.as_micros() as u64);
            *pending -= 1;
            on_ready(index, handle, wait);
        };

        let mut sub = self
            .registry
            .subscribe(keys, |i, h| arrive(i, h, &mut held, &mut pending));
        while pending > 0 {
            let now = Instant::now();
            let mut k = 0;
            while k < held.len() {
                if floor(held[k].0).is_some_and(|f| f <= now) {
                    let (i, h) = held.swap_remove(k);
                    arrive(i, h, &mut held, &mut pending);
                } else {
                    k += 1;
                }
            }
            if pending == 0 {
                break;
            }
            // Wake at the deadline or the earliest withheld floor.
            let wake = held
                .iter()
                .filter_map(|&(i, _)| floor(i))
                .min()
                .map_or(deadline, |f| f.min(deadline));
            match sub.next_before(wake) {
                Some((i, h, _arrived)) => arrive(i, h, &mut held, &mut pending),
                None => {
                    let now = Instant::now();
                    if held.is_empty() {
                        if now >= deadline {
                            break;
                        }
                    } else if now < wake {
                        // Every key already arrived; the only work left
                        // is withheld deliveries — sleep to the floor.
                        std::thread::sleep(wake - now);
                    }
                }
            }
        }
        // The loop leaves early only with nothing withheld, so what is
        // undelivered is exactly what never arrived.
        sub.first_undelivered().map_or(Ok(()), Err)
    }

    /// Log an injected pull fault as a flight event. The buf-key piece
    /// packs the owner in its upper half, so the event keeps the full
    /// `(var, version, owner, piece)` causal key.
    fn record_pull_fault(&self, kind: FaultKind, key: &BufKey) {
        if !self.flight.is_enabled() {
            return;
        }
        let now = self.flight.now_us();
        let kind = EventKind::Fault { kind: kind.slug() };
        self.flight.record(
            Event::new(self.flight.next_seq(), kind)
                .var(key.name)
                .version(key.version)
                .src(piece_owner(key.piece))
                .piece(key.piece & 0xffff_ffff)
                .window(now, 0),
        );
    }

    /// Return a mailbox taken with [`Self::take_mailbox`] so a later task
    /// on the same core (a new wave's application) can take it again.
    pub fn return_mailbox(&self, client: ClientId, mailbox: Mailbox) {
        let mut slot = self.mailboxes[client as usize].lock().unwrap();
        assert!(slot.is_none(), "mailbox returned twice");
        *slot = Some(mailbox);
    }

    /// Take ownership of a client's mailbox (each client thread does this
    /// once at startup).
    ///
    /// # Panics
    /// Panics if the mailbox was already taken.
    pub fn take_mailbox(&self, client: ClientId) -> Mailbox {
        self.mailboxes[client as usize]
            .lock()
            .unwrap()
            .take()
            .expect("mailbox already taken")
    }

    /// Number of endpoints.
    pub fn num_clients(&self) -> u32 {
        self.placement.num_clients()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insitu_fabric::MachineSpec;

    fn runtime(nodes: u32, cores: u32, clients: u32) -> Arc<DartRuntime> {
        let placement = Arc::new(Placement::pack_sequential(
            MachineSpec::new(nodes, cores),
            clients,
        ));
        DartRuntime::new(placement, Arc::new(TransferLedger::new()))
    }

    #[test]
    fn transport_selection_by_colocation() {
        let rt = runtime(2, 2, 4);
        assert_eq!(rt.transport(0, 1), Locality::SharedMemory);
        assert_eq!(rt.transport(0, 2), Locality::Network);
        assert_eq!(rt.transport(2, 3), Locality::SharedMemory);
    }

    #[test]
    fn account_records_with_locality() {
        let rt = runtime(2, 2, 4);
        rt.account(1, TrafficClass::InterApp, 0, 1, 100);
        rt.account(1, TrafficClass::InterApp, 0, 2, 40);
        let s = rt.ledger().snapshot();
        assert_eq!(s.shm_bytes(TrafficClass::InterApp), 100);
        assert_eq!(s.network_bytes(TrafficClass::InterApp), 40);
    }

    #[test]
    fn send_delivers_and_accounts_class() {
        let rt = runtime(1, 4, 4);
        let mb = rt.take_mailbox(3);
        rt.send(
            9,
            TrafficClass::Control,
            0,
            3,
            5,
            Bytes::from_static(b"task"),
        );
        let m = mb.recv();
        assert_eq!(m.src, 0);
        assert_eq!(m.tag, 5);
        let s = rt.ledger().snapshot();
        assert_eq!(s.shm_bytes(TrafficClass::Control), 4);
    }

    #[test]
    fn mailbox_can_be_returned_and_retaken() {
        let rt = runtime(1, 2, 2);
        let mb = rt.take_mailbox(0);
        rt.return_mailbox(0, mb);
        let _again = rt.take_mailbox(0);
    }

    #[test]
    #[should_panic(expected = "mailbox already taken")]
    fn mailbox_taken_once() {
        let rt = runtime(1, 2, 2);
        let _a = rt.take_mailbox(0);
        let _b = rt.take_mailbox(0);
    }

    #[test]
    fn registry_shared_through_runtime() {
        let rt = runtime(2, 2, 4);
        rt.registry().register(
            crate::BufKey {
                name: 1,
                version: 0,
                piece: 0,
            },
            2,
            Bytes::from_static(b"xyz"),
        );
        let h = rt
            .registry()
            .get(&crate::BufKey {
                name: 1,
                version: 0,
                piece: 0,
            })
            .unwrap();
        assert_eq!(h.owner, 2);
    }

    fn bkey(piece: u64) -> BufKey {
        BufKey {
            name: 1,
            version: 0,
            piece,
        }
    }

    #[test]
    fn pull_many_yields_in_arrival_order() {
        let rt = runtime(1, 4, 4);
        let rt2 = Arc::clone(&rt);
        let producer = std::thread::spawn(move || {
            for piece in [2u64, 0, 1] {
                std::thread::sleep(Duration::from_millis(10));
                rt2.registry()
                    .register(bkey(piece), piece as u32, Bytes::from_static(b"x"));
            }
        });
        let mut order = Vec::new();
        // Unrelated waiter churn.
        let _ = rt.pull_many(&[bkey(99)], Duration::from_millis(1), |_, _, _| {});
        rt.pull_many(
            &[bkey(0), bkey(1), bkey(2)],
            Duration::from_secs(5),
            |i, h, wait| {
                assert_eq!(h.owner, i as u32);
                assert!(wait >= Duration::ZERO);
                order.push(i);
            },
        )
        .unwrap();
        producer.join().unwrap();
        assert_eq!(order, vec![2, 0, 1]);
    }

    #[test]
    fn pull_many_timeout_reports_missing_index() {
        let rt = runtime(1, 4, 4);
        rt.registry().register(bkey(0), 0, Bytes::from_static(b"x"));
        rt.registry().register(bkey(2), 2, Bytes::from_static(b"x"));
        let mut got = Vec::new();
        let err = rt
            .pull_many(
                &[bkey(0), bkey(1), bkey(2)],
                Duration::from_millis(30),
                |i, _, _| got.push(i),
            )
            .unwrap_err();
        assert_eq!(err, 1);
        got.sort_unstable();
        assert_eq!(got, vec![0, 2]);
    }

    #[test]
    fn pull_many_empty_is_ok() {
        let rt = runtime(1, 2, 2);
        rt.pull_many(&[], Duration::from_millis(1), |_, _, _| {
            panic!("no keys, no callbacks")
        })
        .unwrap();
    }

    #[test]
    fn pull_many_wait_is_time_to_availability() {
        let rt = runtime(1, 4, 4);
        rt.registry().register(bkey(0), 0, Bytes::from_static(b"x"));
        let rt2 = Arc::clone(&rt);
        let producer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(60));
            rt2.registry()
                .register(bkey(1), 1, Bytes::from_static(b"x"));
        });
        let mut waits = vec![Duration::ZERO; 2];
        rt.pull_many(&[bkey(0), bkey(1)], Duration::from_secs(5), |i, _, w| {
            waits[i] = w;
        })
        .unwrap();
        producer.join().unwrap();
        // The present piece is delivered (almost) immediately; the late
        // one waits for its producer.
        assert!(waits[0] < Duration::from_millis(30), "{waits:?}");
        assert!(waits[1] >= Duration::from_millis(50), "{waits:?}");
    }

    /// Present keys are handed over inline, in index order, before the
    /// call parks; one waiter is built, for the absent key alone.
    #[test]
    fn pull_many_hands_present_keys_over_before_parking_the_absent_one() {
        let rt = runtime(1, 4, 4);
        rt.registry().register(bkey(0), 0, Bytes::from_static(b"x"));
        rt.registry().register(bkey(2), 2, Bytes::from_static(b"x"));
        let (inline_tx, inline_rx) = std::sync::mpsc::channel();
        let rt2 = Arc::clone(&rt);
        let producer = std::thread::spawn(move || {
            let before_parking: Vec<usize> = inline_rx.iter().take(2).collect();
            while rt2.registry().waiter_count() == 0 {
                std::thread::yield_now();
            }
            let parked = rt2.registry().waiter_count();
            rt2.registry()
                .register(bkey(1), 1, Bytes::from_static(b"x"));
            (before_parking, parked)
        });
        let mut order = Vec::new();
        rt.pull_many(
            &[bkey(0), bkey(1), bkey(2)],
            Duration::from_secs(5),
            |i, h, _| {
                assert_eq!(h.owner, i as u32);
                order.push(i);
                let _ = inline_tx.send(i);
            },
        )
        .unwrap();
        let (before_parking, parked) = producer.join().unwrap();
        assert_eq!(before_parking, vec![0, 2]);
        assert_eq!(parked, 1);
        assert_eq!(order, vec![0, 2, 1]);
        assert_eq!(rt.registry().waiter_count(), 0);
    }

    /// Hosts only clients below a threshold; records the rest.
    struct HalfHosted {
        boundary: ClientId,
        forwarded: Mutex<Vec<(ClientId, u64)>>,
        requested: Mutex<Vec<BufKey>>,
    }

    impl HalfHosted {
        fn new(boundary: ClientId) -> Arc<Self> {
            Arc::new(HalfHosted {
                boundary,
                forwarded: Mutex::new(Vec::new()),
                requested: Mutex::new(Vec::new()),
            })
        }
    }

    impl crate::Transport for HalfHosted {
        fn hosts(&self, client: ClientId) -> bool {
            client < self.boundary
        }
        fn forward(&self, to: ClientId, msg: &Msg) {
            self.forwarded.lock().unwrap().push((to, msg.tag));
        }
        fn request(&self, key: &BufKey) {
            self.requested.lock().unwrap().push(*key);
        }
        fn push(&self, _to: ClientId, _key: &BufKey, _handle: BufferHandle) {}
        fn dht_insert(&self, _: u64, _: u64, _: ClientId, _: u64, _: &[u64], _: &[u64]) {}
        fn get_done(&self, _var: u64, _version: u64) {}
        fn evict(&self, _var: u64, _version: u64) {}
    }

    fn split_runtime(boundary: ClientId) -> (Arc<DartRuntime>, Arc<HalfHosted>) {
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let wire = HalfHosted::new(boundary);
        let rt = DartRuntime::with_transport(
            placement,
            Arc::new(TransferLedger::new()),
            Recorder::disabled(),
            FaultInjector::none(),
            insitu_obs::FlightRecorder::disabled(),
            wire.clone(),
        );
        (rt, wire)
    }

    #[test]
    fn send_forwards_to_unhosted_clients_after_accounting() {
        let (rt, wire) = split_runtime(2);
        let mb = rt.take_mailbox(1);
        rt.send(0, TrafficClass::Control, 0, 1, 7, Bytes::from_static(b"ab"));
        assert_eq!(mb.recv().tag, 7);
        rt.send(0, TrafficClass::Control, 0, 3, 9, Bytes::from_static(b"ab"));
        assert_eq!(*wire.forwarded.lock().unwrap(), vec![(3, 9)]);
        // Both sends accounted in this process, hosted or not.
        let s = rt.ledger().snapshot();
        assert_eq!(s.total_bytes(TrafficClass::Control), 4);
    }

    #[test]
    fn deliver_injects_without_accounting() {
        let (rt, _) = split_runtime(4);
        let mb = rt.take_mailbox(0);
        rt.deliver(
            0,
            Msg {
                src: 3,
                tag: 11,
                payload: Bytes::from_static(b"remote"),
            },
        );
        let m = mb.recv();
        assert_eq!((m.src, m.tag), (3, 11));
        assert_eq!(rt.ledger().snapshot().shm_total(), 0);
        assert_eq!(rt.ledger().snapshot().network_total(), 0);
    }

    /// Whether a key needs a frame is the transport's call, made once,
    /// where it can be made under its own in-flight lock: the runtime
    /// asks for every key of a pull, held or not.
    #[test]
    fn register_buffer_publishes_and_pull_hands_every_key_to_the_transport() {
        let (rt, wire) = split_runtime(2);
        rt.register_buffer(bkey(0), 1, Bytes::from_static(b"xyz"));
        assert!(rt
            .pull_many(&[bkey(0)], Duration::from_millis(5), |_, _, _| {})
            .is_ok());
        assert_eq!(*wire.requested.lock().unwrap(), vec![bkey(0)]);
        wire.requested.lock().unwrap().clear();
        // Nobody answers the absent key: the pull times out naming it.
        let err = rt
            .pull_many(&[bkey(0), bkey(6)], Duration::from_millis(5), |_, _, _| {})
            .unwrap_err();
        assert_eq!(err, 1);
        assert_eq!(*wire.requested.lock().unwrap(), vec![bkey(0), bkey(6)]);
    }

    #[test]
    fn count_owned_filters_by_owner() {
        let rt = runtime(2, 2, 4);
        rt.registry().register(bkey(0), 0, Bytes::from_static(b"a"));
        rt.registry().register(bkey(1), 1, Bytes::from_static(b"b"));
        rt.registry().register(bkey(2), 3, Bytes::from_static(b"c"));
        assert_eq!(rt.registry().count_owned(|o| o < 2), 2);
        assert_eq!(rt.registry().count_owned(|o| o >= 2), 1);
        assert_eq!(
            rt.registry().count_owned(|_| true) as usize,
            rt.registry().len()
        );
    }

    #[test]
    fn drop_pulled_uses_the_transports_hosting_and_skips_single_process() {
        // Hosts clients 0 and 1: the copy owned by client 3 was pulled.
        let (rt, _) = split_runtime(2);
        rt.registry().register(bkey(0), 0, Bytes::from_static(b"a"));
        rt.registry().register(bkey(1), 3, Bytes::from_static(b"c"));
        assert!(rt.wire().hosts(0) && !rt.wire().hosts(3));
        assert_eq!(rt.drop_pulled(1, 0), 1);
        assert!(rt.registry().get(&bkey(0)).is_some());
        assert!(rt.registry().get(&bkey(1)).is_none());

        // The single-process runtime hosts everyone: nothing to drop.
        let local = runtime(2, 2, 4);
        local
            .registry()
            .register(bkey(1), 3, Bytes::from_static(b"c"));
        assert_eq!(local.drop_pulled(1, 0), 0);
        assert_eq!(local.registry().len(), 1);
    }

    #[test]
    fn telemetry_counts_transports_and_messages() {
        let rec = Recorder::enabled();
        let placement = Arc::new(Placement::pack_sequential(MachineSpec::new(2, 2), 4));
        let rt = DartRuntime::with_transport(
            placement,
            Arc::new(TransferLedger::new()),
            rec.clone(),
            FaultInjector::none(),
            FlightRecorder::disabled(),
            Arc::new(LocalTransport),
        );
        let mb = rt.take_mailbox(1);
        rt.send(0, TrafficClass::Control, 0, 1, 1, Bytes::from_static(b"a")); // colocated
        rt.account(0, TrafficClass::InterApp, 0, 2, 10); // cross-node
        mb.recv();
        rt.registry().register(
            BufKey {
                name: 1,
                version: 0,
                piece: 0,
            },
            0,
            Bytes::new(),
        );
        let key = BufKey {
            name: 1,
            version: 0,
            piece: 0,
        };
        assert!(rt
            .pull_many(&[key], Duration::from_secs(1), |_, _, _| {})
            .is_ok());
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("dart.msgs_sent"), 1);
        assert_eq!(snap.counter("dart.transport.shm"), 1);
        assert_eq!(snap.counter("dart.transport.net"), 1);
        assert_eq!(snap.histograms["dart.pull_wait_us"].count, 1);
    }
}
