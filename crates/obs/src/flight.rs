//! The bounded lock-sharded flight recorder.
//!
//! [`FlightRecorder`] mirrors the telemetry `Recorder` facade: it is a
//! thin `Option<Arc<..>>`, cheap to clone, and every operation on a
//! disabled recorder is a no-op. Events land in one of `SHARDS` (16)
//! mutex-protected vectors selected by the event's track, so producer
//! and consumer threads rarely contend on the same lock. Each shard is
//! bounded; once full, *new* events are counted as dropped and
//! discarded — keeping the earliest iterations' causal chains complete,
//! which is what the critical-path profiler needs most.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::event::Event;

/// Default total event capacity.
pub const DEFAULT_EVENT_CAPACITY: usize = 1 << 16;

/// Number of lock shards.
const SHARDS: usize = 16;

struct Inner {
    epoch: Instant,
    seq: AtomicU64,
    shards: Vec<Mutex<Vec<Event>>>,
    shard_capacity: usize,
    dropped: AtomicU64,
}

/// Per-run causal event log.
#[derive(Clone, Default)]
pub struct FlightRecorder {
    inner: Option<Arc<Inner>>,
}

impl FlightRecorder {
    /// A recorder that records nothing.
    pub fn disabled() -> FlightRecorder {
        FlightRecorder { inner: None }
    }

    /// A live recorder with [`DEFAULT_EVENT_CAPACITY`].
    pub fn enabled() -> FlightRecorder {
        FlightRecorder::with_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A live recorder holding at most `capacity` events in total.
    pub fn with_capacity(capacity: usize) -> FlightRecorder {
        let shard_capacity = capacity.div_ceil(SHARDS).max(1);
        FlightRecorder {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                seq: AtomicU64::new(0),
                shards: (0..SHARDS).map(|_| Mutex::new(Vec::new())).collect(),
                shard_capacity,
                dropped: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this recorder is live.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Microseconds since the recorder was created (0 when disabled).
    pub fn now_us(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.epoch.elapsed().as_micros() as u64)
    }

    /// Allocate the next sequence number (1-based; 0 when disabled).
    ///
    /// Sequence numbers are handed out at event *start* so child events
    /// can reference a still-open parent.
    pub fn next_seq(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.seq.fetch_add(1, Ordering::Relaxed) + 1)
    }

    /// Record an event (no-op when disabled; counted as dropped when
    /// the target shard is full).
    pub fn record(&self, event: Event) {
        let Some(inner) = &self.inner else { return };
        let shard = &inner.shards[event.track() as usize % SHARDS];
        let mut events = shard.lock().unwrap();
        if events.len() >= inner.shard_capacity {
            inner.dropped.fetch_add(1, Ordering::Relaxed);
            return;
        }
        events.push(event);
    }

    /// Events discarded because their shard was full.
    pub fn dropped(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |i| i.dropped.load(Ordering::Relaxed))
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        self.inner.as_ref().map_or(0, |i| {
            i.shards.iter().map(|s| s.lock().unwrap().len()).sum()
        })
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Copy out all events ordered by sequence number.
    pub fn snapshot(&self) -> Vec<Event> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut all: Vec<Event> = inner
            .shards
            .iter()
            .flat_map(|s| s.lock().unwrap().clone())
            .collect();
        all.sort_by_key(|e| e.seq);
        all
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("enabled", &self.is_enabled())
            .field("events", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn disabled_recorder_is_inert() {
        let f = FlightRecorder::disabled();
        assert!(!f.is_enabled());
        assert_eq!(f.next_seq(), 0);
        f.record(Event::new(0, EventKind::Get { cont: true }));
        assert!(f.is_empty());
        assert_eq!(f.dropped(), 0);
        assert_eq!(f.now_us(), 0);
    }

    #[test]
    fn snapshot_orders_across_shards() {
        let f = FlightRecorder::enabled();
        // Different dst → different shards; seq order must still hold.
        for dst in [3u32, 1, 7, 2] {
            let seq = f.next_seq();
            f.record(Event::new(seq, EventKind::Get { cont: true }).dst(dst));
        }
        let seqs: Vec<u64> = f.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4]);
    }

    #[test]
    fn bounded_log_drops_newest() {
        let f = FlightRecorder::with_capacity(SHARDS); // one event per shard
        for i in 0..3 {
            let seq = f.next_seq();
            f.record(
                Event::new(seq, EventKind::Put { indexed: false })
                    .src(5)
                    .piece(i),
            );
        }
        assert_eq!(f.len(), 1);
        assert_eq!(f.dropped(), 2);
        // The earliest event survives.
        assert_eq!(f.snapshot()[0].piece, 0);
    }

    #[test]
    fn concurrent_recording_is_lossless_under_capacity() {
        let f = FlightRecorder::enabled();
        let mut handles = Vec::new();
        for t in 0..8u32 {
            let f = f.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..500 {
                    let seq = f.next_seq();
                    f.record(Event::new(seq, EventKind::Pull { wait_us: 1 }).dst(t));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(f.len(), 4000);
        assert_eq!(f.dropped(), 0);
        let snap = f.snapshot();
        // Sequence numbers are unique and sorted.
        assert!(snap.windows(2).all(|w| w[0].seq < w[1].seq));
    }
}
