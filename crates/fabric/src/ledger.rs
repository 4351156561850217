//! Byte accounting for every data transfer in the system.
//!
//! The paper's headline experiments (Figs. 8, 9, 12-15) measure *the
//! amount of data transferred over the communication fabric* versus
//! retrieved in-situ through shared memory. The [`TransferLedger`] is the
//! single source of truth for those numbers: both the threaded executor
//! (which really moves bytes) and the modeled executor (which only counts
//! them) record into it, classified by traffic class, application id and
//! locality.
//!
//! When built with a live [`Recorder`], the ledger mirrors every record
//! into the telemetry registry as `fabric.bytes.<class>.<locality>` and
//! `fabric.transfers.<class>.<locality>` counters, so metrics exports
//! carry the same truth without a second accounting path.

use crate::fault::FaultInjector;
use insitu_telemetry::{Counter, Recorder};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What a transfer is for. The evaluation separates inter-application
/// coupling traffic from intra-application (stencil) exchanges; DHT
/// queries and control messages are tracked for completeness.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum TrafficClass {
    /// Coupled data redistribution between applications.
    InterApp,
    /// Near-neighbor exchange within one application.
    IntraApp,
    /// DHT location queries and updates.
    Dht,
    /// Registration, task dispatch and other control-plane messages.
    Control,
}

impl TrafficClass {
    /// Every traffic class, in `idx` order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::InterApp,
        TrafficClass::IntraApp,
        TrafficClass::Dht,
        TrafficClass::Control,
    ];

    /// Stable dense index into [`TrafficClass::ALL`] (used for wire
    /// encodings of ledger snapshots as well as internal array layout).
    pub fn idx(self) -> usize {
        match self {
            TrafficClass::InterApp => 0,
            TrafficClass::IntraApp => 1,
            TrafficClass::Dht => 2,
            TrafficClass::Control => 3,
        }
    }

    /// Inverse of [`TrafficClass::idx`]; `None` for out-of-range indices.
    pub fn from_idx(idx: usize) -> Option<TrafficClass> {
        TrafficClass::ALL.get(idx).copied()
    }

    /// Stable lowercase name, used in metric keys and JSON reports.
    pub fn slug(self) -> &'static str {
        match self {
            TrafficClass::InterApp => "inter_app",
            TrafficClass::IntraApp => "intra_app",
            TrafficClass::Dht => "dht",
            TrafficClass::Control => "control",
        }
    }
}

/// Whether a transfer stayed on-node (shared memory) or crossed the
/// network fabric.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Locality {
    /// Intra-node: served from shared memory.
    SharedMemory,
    /// Inter-node: crossed the interconnect.
    Network,
}

impl Locality {
    /// Both localities, in `idx` order.
    pub const ALL: [Locality; 2] = [Locality::SharedMemory, Locality::Network];

    /// Stable dense index into [`Locality::ALL`] (used for wire encodings
    /// of ledger snapshots as well as internal array layout).
    pub fn idx(self) -> usize {
        match self {
            Locality::SharedMemory => 0,
            Locality::Network => 1,
        }
    }

    /// Inverse of [`Locality::idx`]; `None` for out-of-range indices.
    pub fn from_idx(idx: usize) -> Option<Locality> {
        Locality::ALL.get(idx).copied()
    }

    /// Stable lowercase name, used in metric keys and JSON reports.
    pub fn slug(self) -> &'static str {
        match self {
            Locality::SharedMemory => "shm",
            Locality::Network => "net",
        }
    }
}

/// Telemetry counters mirroring the ledger, one pair per
/// (class, locality) cell. Handles are resolved once at construction so
/// the record path stays lock-free.
struct Mirror {
    bytes: [[Counter; 2]; 4],
    transfers: [[Counter; 2]; 4],
}

impl Mirror {
    fn new(recorder: &Recorder) -> Mirror {
        let cell = |kind: &str, class: TrafficClass, loc: Locality| {
            recorder.counter(&format!("fabric.{kind}.{}.{}", class.slug(), loc.slug()))
        };
        Mirror {
            bytes: TrafficClass::ALL.map(|c| Locality::ALL.map(|l| cell("bytes", c, l))),
            transfers: TrafficClass::ALL.map(|c| Locality::ALL.map(|l| cell("transfers", c, l))),
        }
    }
}

/// Thread-safe accumulator of transferred bytes.
#[derive(Default)]
pub struct TransferLedger {
    shm: [AtomicU64; 4],
    net: [AtomicU64; 4],
    // (app, class, locality) -> bytes; the per-application breakdown used
    // by Figs. 12-15. Kept under a mutex: recorded per transfer, not per
    // byte, so contention is negligible.
    per_app: Mutex<BTreeMap<(u32, TrafficClass, Locality), u64>>,
    mirror: Option<Mirror>,
    observer: FaultInjector,
}

impl std::fmt::Debug for TransferLedger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TransferLedger")
            .field("snapshot", &self.snapshot())
            .field("mirrored", &self.mirror.is_some())
            .finish()
    }
}

impl TransferLedger {
    /// New, empty ledger without telemetry mirroring.
    pub fn new() -> Self {
        Self::default()
    }

    /// New ledger that mirrors every record into `recorder`'s metrics
    /// registry (no-op when the recorder is disabled).
    pub fn with_recorder(recorder: &Recorder) -> Self {
        TransferLedger {
            mirror: recorder.is_enabled().then(|| Mirror::new(recorder)),
            ..Self::default()
        }
    }

    /// Like [`TransferLedger::with_recorder`], additionally tapping every
    /// record through `observer` ([`crate::fault::FaultHooks::on_transfer`]) so a
    /// chaos harness can cross-check accounting totals.
    pub fn with_observer(recorder: &Recorder, observer: FaultInjector) -> Self {
        TransferLedger {
            mirror: recorder.is_enabled().then(|| Mirror::new(recorder)),
            observer,
            ..Self::default()
        }
    }

    /// Record `bytes` of traffic for application `app`.
    pub fn record(&self, app: u32, class: TrafficClass, locality: Locality, bytes: u64) {
        self.record_repeated(app, class, locality, bytes, 1);
    }

    /// Record `times` identical transfers of `bytes` each in one call.
    ///
    /// The modeled executor uses this for per-iteration flows: byte totals
    /// and transfer counts come out identical to `times` separate
    /// [`TransferLedger::record`] calls, without the per-call overhead at
    /// paper scale.
    pub fn record_repeated(
        &self,
        app: u32,
        class: TrafficClass,
        locality: Locality,
        bytes: u64,
        times: u64,
    ) {
        if bytes == 0 || times == 0 {
            return;
        }
        let total = bytes * times;
        match locality {
            Locality::SharedMemory => &self.shm[class.idx()],
            Locality::Network => &self.net[class.idx()],
        }
        .fetch_add(total, Ordering::Relaxed);
        *self
            .per_app
            .lock()
            .unwrap()
            .entry((app, class, locality))
            .or_insert(0) += total;
        if let Some(mirror) = &self.mirror {
            mirror.bytes[class.idx()][locality.idx()].add(total);
            mirror.transfers[class.idx()][locality.idx()].add(times);
        }
        self.observer.on_transfer(class, locality, total);
    }

    /// Immutable snapshot of all counters.
    pub fn snapshot(&self) -> LedgerSnapshot {
        LedgerSnapshot {
            shm: std::array::from_fn(|i| self.shm[i].load(Ordering::Relaxed)),
            net: std::array::from_fn(|i| self.net[i].load(Ordering::Relaxed)),
            per_app: self.per_app.lock().unwrap().clone(),
        }
    }
}

/// A point-in-time copy of a [`TransferLedger`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LedgerSnapshot {
    shm: [u64; 4],
    net: [u64; 4],
    per_app: BTreeMap<(u32, TrafficClass, Locality), u64>,
}

impl LedgerSnapshot {
    /// Reassemble a snapshot from its serialized parts (wire decode of a
    /// remote execution client's report). The inverse of walking
    /// [`LedgerSnapshot::shm_bytes`]/[`LedgerSnapshot::network_bytes`] per
    /// class and [`LedgerSnapshot::per_app`].
    pub fn from_parts(
        shm: [u64; 4],
        net: [u64; 4],
        per_app: impl IntoIterator<Item = (u32, TrafficClass, Locality, u64)>,
    ) -> LedgerSnapshot {
        let mut map = BTreeMap::new();
        for (app, class, loc, bytes) in per_app {
            *map.entry((app, class, loc)).or_insert(0) += bytes;
        }
        LedgerSnapshot {
            shm,
            net,
            per_app: map,
        }
    }

    /// Every per-application cell, in deterministic (app, class, locality)
    /// order.
    pub fn per_app(&self) -> impl Iterator<Item = (u32, TrafficClass, Locality, u64)> + '_ {
        self.per_app
            .iter()
            .map(|(&(app, class, loc), &bytes)| (app, class, loc, bytes))
    }

    /// Raw shared-memory totals in [`TrafficClass::idx`] order (wire
    /// encoding of reports).
    pub fn shm_cells(&self) -> [u64; 4] {
        self.shm
    }

    /// Raw network totals in [`TrafficClass::idx`] order (wire encoding of
    /// reports).
    pub fn net_cells(&self) -> [u64; 4] {
        self.net
    }

    /// Fold another snapshot into this one, cell by cell.
    ///
    /// The distributed runtime accounts every logical transfer exactly
    /// once, in the process that initiates it; summing the per-process
    /// snapshots therefore reconstructs the single-address-space ledger
    /// exactly (byte-identical, not approximately).
    pub fn merge(&mut self, other: &LedgerSnapshot) {
        for i in 0..4 {
            self.shm[i] += other.shm[i];
            self.net[i] += other.net[i];
        }
        for (key, bytes) in &other.per_app {
            *self.per_app.entry(*key).or_insert(0) += bytes;
        }
    }

    /// Canonical JSON rendering (stable field order), used by the
    /// distributed launcher to publish the merged ledger as an artifact.
    pub fn to_json(&self) -> insitu_telemetry::Json {
        use insitu_telemetry::Json;
        let mut cells = Json::obj();
        for class in TrafficClass::ALL {
            for loc in Locality::ALL {
                let bytes = match loc {
                    Locality::SharedMemory => self.shm[class.idx()],
                    Locality::Network => self.net[class.idx()],
                };
                cells = cells.field(&format!("{}.{}", class.slug(), loc.slug()), bytes);
            }
        }
        let per_app = Json::Arr(
            self.per_app()
                .map(|(app, class, loc, bytes)| {
                    Json::obj()
                        .field("app", app as u64)
                        .field("class", class.slug())
                        .field("locality", loc.slug())
                        .field("bytes", bytes)
                })
                .collect(),
        );
        Json::obj()
            .field("bytes", cells)
            .field("per_app", per_app)
            .field("shm_total", self.shm_total())
            .field("network_total", self.network_total())
    }
    /// Bytes of `class` served from shared memory.
    pub fn shm_bytes(&self, class: TrafficClass) -> u64 {
        self.shm[class.idx()]
    }

    /// Bytes of `class` sent over the network.
    pub fn network_bytes(&self, class: TrafficClass) -> u64 {
        self.net[class.idx()]
    }

    /// Total bytes of `class` regardless of locality.
    pub fn total_bytes(&self, class: TrafficClass) -> u64 {
        self.shm_bytes(class) + self.network_bytes(class)
    }

    /// All network bytes across classes.
    pub fn network_total(&self) -> u64 {
        TrafficClass::ALL
            .iter()
            .map(|&c| self.network_bytes(c))
            .sum()
    }

    /// All shared-memory bytes across classes.
    pub fn shm_total(&self) -> u64 {
        TrafficClass::ALL.iter().map(|&c| self.shm_bytes(c)).sum()
    }

    /// Bytes recorded for one application, class and locality.
    pub fn app_bytes(&self, app: u32, class: TrafficClass, locality: Locality) -> u64 {
        self.per_app
            .get(&(app, class, locality))
            .copied()
            .unwrap_or(0)
    }

    /// Fraction of `class` bytes that crossed the network (0 when no
    /// traffic of the class occurred).
    pub fn network_fraction(&self, class: TrafficClass) -> f64 {
        let total = self.total_bytes(class);
        if total == 0 {
            0.0
        } else {
            self.network_bytes(class) as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot() {
        let l = TransferLedger::new();
        l.record(1, TrafficClass::InterApp, Locality::Network, 100);
        l.record(1, TrafficClass::InterApp, Locality::SharedMemory, 50);
        l.record(2, TrafficClass::IntraApp, Locality::Network, 7);
        let s = l.snapshot();
        assert_eq!(s.network_bytes(TrafficClass::InterApp), 100);
        assert_eq!(s.shm_bytes(TrafficClass::InterApp), 50);
        assert_eq!(s.total_bytes(TrafficClass::InterApp), 150);
        assert_eq!(s.network_bytes(TrafficClass::IntraApp), 7);
        assert_eq!(s.network_total(), 107);
        assert_eq!(s.shm_total(), 50);
    }

    #[test]
    fn per_app_breakdown() {
        let l = TransferLedger::new();
        l.record(3, TrafficClass::IntraApp, Locality::Network, 10);
        l.record(3, TrafficClass::IntraApp, Locality::Network, 5);
        l.record(4, TrafficClass::IntraApp, Locality::SharedMemory, 2);
        let s = l.snapshot();
        assert_eq!(
            s.app_bytes(3, TrafficClass::IntraApp, Locality::Network),
            15
        );
        assert_eq!(
            s.app_bytes(4, TrafficClass::IntraApp, Locality::SharedMemory),
            2
        );
        assert_eq!(s.app_bytes(9, TrafficClass::IntraApp, Locality::Network), 0);
    }

    #[test]
    fn zero_byte_records_ignored() {
        let l = TransferLedger::new();
        l.record(1, TrafficClass::Dht, Locality::Network, 0);
        assert_eq!(l.snapshot().network_total(), 0);
    }

    #[test]
    fn network_fraction() {
        let l = TransferLedger::new();
        l.record(1, TrafficClass::InterApp, Locality::Network, 20);
        l.record(1, TrafficClass::InterApp, Locality::SharedMemory, 80);
        let s = l.snapshot();
        assert!((s.network_fraction(TrafficClass::InterApp) - 0.2).abs() < 1e-12);
        assert_eq!(s.network_fraction(TrafficClass::Control), 0.0);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        use std::sync::Arc;
        let l = Arc::new(TransferLedger::new());
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    l.record(t, TrafficClass::InterApp, Locality::Network, 3);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = l.snapshot();
        assert_eq!(s.network_bytes(TrafficClass::InterApp), 8 * 1000 * 3);
        for t in 0..8 {
            assert_eq!(
                s.app_bytes(t, TrafficClass::InterApp, Locality::Network),
                3000
            );
        }
    }

    #[test]
    fn recorder_mirror_matches_ledger() {
        let rec = Recorder::enabled();
        let l = TransferLedger::with_recorder(&rec);
        l.record(1, TrafficClass::InterApp, Locality::Network, 100);
        l.record(1, TrafficClass::InterApp, Locality::Network, 50);
        l.record(2, TrafficClass::Dht, Locality::SharedMemory, 64);
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("fabric.bytes.inter_app.net"), 150);
        assert_eq!(snap.counter("fabric.transfers.inter_app.net"), 2);
        assert_eq!(snap.counter("fabric.bytes.dht.shm"), 64);
        assert_eq!(snap.counter("fabric.transfers.dht.shm"), 1);
        assert_eq!(snap.counter("fabric.bytes.control.net"), 0);
    }

    #[test]
    fn record_repeated_equivalent_to_loop() {
        let rec = Recorder::enabled();
        let l = TransferLedger::with_recorder(&rec);
        l.record_repeated(1, TrafficClass::IntraApp, Locality::Network, 32, 5);
        let s = l.snapshot();
        assert_eq!(s.network_bytes(TrafficClass::IntraApp), 160);
        assert_eq!(
            s.app_bytes(1, TrafficClass::IntraApp, Locality::Network),
            160
        );
        let snap = rec.metrics_snapshot();
        assert_eq!(snap.counter("fabric.bytes.intra_app.net"), 160);
        assert_eq!(snap.counter("fabric.transfers.intra_app.net"), 5);
    }

    #[test]
    fn snapshot_parts_round_trip() {
        let l = TransferLedger::new();
        l.record(1, TrafficClass::InterApp, Locality::Network, 100);
        l.record(2, TrafficClass::Dht, Locality::SharedMemory, 64);
        l.record(2, TrafficClass::Control, Locality::Network, 12);
        let s = l.snapshot();
        let rebuilt = LedgerSnapshot::from_parts(s.shm_cells(), s.net_cells(), s.per_app());
        assert_eq!(rebuilt, s);
    }

    #[test]
    fn class_and_locality_idx_round_trip() {
        for class in TrafficClass::ALL {
            assert_eq!(TrafficClass::from_idx(class.idx()), Some(class));
        }
        for loc in Locality::ALL {
            assert_eq!(Locality::from_idx(loc.idx()), Some(loc));
        }
        assert_eq!(TrafficClass::from_idx(4), None);
        assert_eq!(Locality::from_idx(2), None);
    }

    #[test]
    fn merge_sums_every_cell() {
        let a = TransferLedger::new();
        a.record(1, TrafficClass::InterApp, Locality::Network, 100);
        a.record(1, TrafficClass::IntraApp, Locality::SharedMemory, 7);
        let b = TransferLedger::new();
        b.record(1, TrafficClass::InterApp, Locality::Network, 50);
        b.record(3, TrafficClass::Dht, Locality::Network, 64);
        // A ledger that saw every transfer itself.
        let whole = TransferLedger::new();
        whole.record(1, TrafficClass::InterApp, Locality::Network, 100);
        whole.record(1, TrafficClass::IntraApp, Locality::SharedMemory, 7);
        whole.record(1, TrafficClass::InterApp, Locality::Network, 50);
        whole.record(3, TrafficClass::Dht, Locality::Network, 64);
        let mut merged = LedgerSnapshot::default();
        merged.merge(&a.snapshot());
        merged.merge(&b.snapshot());
        assert_eq!(merged, whole.snapshot());
    }

    #[test]
    fn json_rendering_is_exact_and_parseable() {
        let l = TransferLedger::new();
        l.record(1, TrafficClass::InterApp, Locality::Network, u64::MAX / 2);
        let doc = insitu_telemetry::Json::parse(&l.snapshot().to_json().render()).unwrap();
        let cells = doc.get("bytes").unwrap();
        assert_eq!(
            cells.get("inter_app.net").and_then(|v| v.as_u64()),
            Some(u64::MAX / 2)
        );
        assert_eq!(
            doc.get("network_total").and_then(|v| v.as_u64()),
            Some(u64::MAX / 2)
        );
    }

    #[test]
    fn disabled_recorder_mirror_is_skipped() {
        let rec = Recorder::disabled();
        let l = TransferLedger::with_recorder(&rec);
        l.record(1, TrafficClass::InterApp, Locality::Network, 10);
        assert_eq!(l.snapshot().network_total(), 10);
        assert!(rec.metrics_snapshot().counters.is_empty());
    }
}
