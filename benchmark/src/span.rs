//! Spans recorded around the benchmark's calls into each layer.
//!
//! The traced pass wraps every call it replays in a span — name, start,
//! end, the span that caused it, and the run it belongs to — keeps them
//! in memory, and writes them as chrome-trace JSON when the pass ends.
//! A span's *self time* is its duration minus the part of its interval
//! that its child spans cover, so a layer is charged only for what it
//! did itself.

use insitu_telemetry::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are microseconds from the tracer's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `domain.copy_region`.
    pub name: &'static str,
    /// Start.
    pub start_us: f64,
    /// End.
    pub end_us: f64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Run (replayed iteration) the span belongs to.
    pub run: u64,
}

/// Count and summed self time of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Busy {
    /// Spans recorded.
    pub calls: u64,
    /// Σ self time, microseconds.
    pub self_us: f64,
}

/// In-memory span recorder for single-threaded replay.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    run: u64,
    recording: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            run: 0,
            recording: true,
        }
    }
}

impl Tracer {
    /// Spans recorded from now on belong to run `run`.
    pub fn set_run(&mut self, run: u64) {
        self.run = run;
    }

    /// Turn span recording off (work passed to [`Tracer::span`] still
    /// runs) or back on. A replay records its first passes and only
    /// times the rest, so a cheap call repeated a million times neither
    /// floods the trace nor pays for its spans.
    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Record `work` as a span named `name`, child of the span open
    /// around it. `work` may record child spans through the tracer.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return work(self);
        }
        let id = self.spans.len();
        let start_us = self.now_us();
        self.spans.push(Span {
            name,
            start_us,
            end_us: start_us,
            parent: self.open.last().copied(),
            run: self.run,
        });
        self.open.push(id);
        let out = work(self);
        self.open.pop();
        self.spans[id].end_us = self.now_us();
        out
    }

    /// Call count and summed self time of the recorded spans, by name.
    pub fn busy_by_name(&self) -> BTreeMap<&'static str, Busy> {
        let selfs = self_times(&self.spans);
        let mut by_name: BTreeMap<&'static str, Busy> = BTreeMap::new();
        for (span, self_us) in self.spans.iter().zip(selfs) {
            let b = by_name.entry(span.name).or_default();
            b.calls += 1;
            b.self_us += self_us;
        }
        by_name
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Chrome-trace JSON (`chrome://tracing`, Perfetto): one complete
    /// (`"ph":"X"`) event per span, one track per run.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut events = vec![Json::obj()
            .field("name", "process_name")
            .field("ph", "M")
            .field("pid", 1u64)
            .field("args", Json::obj().field("name", process))];
        let selfs = self_times(&self.spans);
        for (i, (s, self_us)) in self.spans.iter().zip(selfs).enumerate() {
            events.push(
                Json::obj()
                    .field("name", s.name)
                    .field("cat", s.name.split('.').next().unwrap_or("layer"))
                    .field("ph", "X")
                    .field("pid", 1u64)
                    .field("tid", s.run)
                    .field("ts", s.start_us)
                    .field("dur", s.end_us - s.start_us)
                    .field(
                        "args",
                        Json::obj()
                            .field("id", i)
                            .field(
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                            )
                            .field("self_us", self_us),
                    ),
            );
        }
        Json::obj()
            .field("displayTimeUnit", "ms")
            .field("traceEvents", events)
            .render()
    }
}

/// Self time of every span: its duration minus the length of the union
/// of its children's intervals clipped to it (children may overlap each
/// other when they ran on different threads).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_us.max(spans[p].start_us);
            let hi = s.end_us.min(spans[p].end_us);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_us - s.start_us - covered).max(0.0)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: f64, end_us: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            run: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("get", 0.0, 100.0, None),
            // Overlapping children cover [10, 50]; a third sticks out
            // past the parent's end and is clipped to [90, 100].
            span("copy", 10.0, 40.0, Some(0)),
            span("copy", 30.0, 50.0, Some(0)),
            span("copy", 90.0, 120.0, Some(0)),
            // A grandchild only reduces its own parent.
            span("row", 12.0, 20.0, Some(1)),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100.0 - 40.0 - 10.0);
        assert_eq!(selfs[1], 30.0 - 8.0);
        assert_eq!(selfs[2], 20.0);
        assert_eq!(selfs[3], 30.0);
        assert_eq!(selfs[4], 8.0);
    }

    #[test]
    fn tracer_nests_and_exports() {
        let mut t = Tracer::default();
        t.set_run(3);
        t.span("cods.get", |t| {
            t.span("domain.copy_region", |_| {});
            t.span("domain.copy_region", |_| {});
        });
        assert_eq!(t.len(), 3);
        let busy = t.busy_by_name();
        assert_eq!(busy["domain.copy_region"].calls, 2);
        assert_eq!(busy["cods.get"].calls, 1);
        let doc = Json::parse(&t.chrome_json("test")).unwrap();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 4);
        let child = &events[2];
        assert_eq!(child.get("tid").and_then(Json::as_u64), Some(3));
        assert_eq!(
            child
                .get("args")
                .unwrap()
                .get("parent")
                .and_then(Json::as_u64),
            Some(0)
        );
    }
}
