//! Critical-path profiling over flight-recorder events.
//!
//! For each iteration (dataset version) the profiler reconstructs the
//! transfer DAG rooted at consumer gets, picks the *critical get* — the
//! one finishing last — and attributes its wall time to four categories:
//!
//! * **schedule** — schedule computation plus DHT lookups;
//! * **shm** / **rdma** — time covered by pull transfer intervals,
//!   split by link class via an interval sweep (where shm and RDMA
//!   transfers overlap, the instant is charged to RDMA, since the
//!   slower network branch is the one on the critical path);
//! * **wait** — everything else inside the get window: queueing delay
//!   before pieces were staged, plus assembly gaps.
//!
//! Because wait is the residual, the four categories sum to the
//! measured end-to-end get time by construction — the property the
//! acceptance gate checks on both executors. On top of the per-
//! iteration breakdown the profiler reports exact p50/p95/p99
//! percentiles of queueing delay and transfer size per link class, and
//! tallies chaos-injected fault events.

use std::collections::BTreeMap;

use insitu_fabric::ClientId;
use insitu_telemetry::Json;

use crate::event::{Event, EventKind, LinkClass};

/// Per-category time attribution for one critical path.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct CategoryBreakdown {
    /// Schedule computation + DHT lookup time (µs).
    pub schedule_us: f64,
    /// Time covered by shared-memory transfers (µs).
    pub shm_us: f64,
    /// Time covered by RDMA (inter-node) transfers (µs).
    pub rdma_us: f64,
    /// Residual: queueing delay and assembly gaps (µs).
    pub wait_us: f64,
}

impl CategoryBreakdown {
    /// Sum of all categories.
    pub fn total_us(&self) -> f64 {
        self.schedule_us + self.shm_us + self.rdma_us + self.wait_us
    }
}

/// Critical path of one iteration.
#[derive(Clone, Debug)]
pub struct IterationProfile {
    /// Dataset version (iteration index).
    pub version: u64,
    /// Wall time of the critical (latest-finishing) get, µs.
    pub end_to_end_us: f64,
    /// Category attribution; sums to `end_to_end_us` up to clamping.
    pub breakdown: CategoryBreakdown,
    /// Consumer app owning the critical get.
    pub app: u32,
    /// Consumer client owning the critical get.
    pub dst: Option<ClientId>,
    /// Pulls on the critical get.
    pub pulls: usize,
}

impl IterationProfile {
    /// `breakdown.total / end_to_end` — 1.0 means perfect attribution.
    pub fn coverage(&self) -> f64 {
        if self.end_to_end_us <= 0.0 {
            1.0
        } else {
            self.breakdown.total_us() / self.end_to_end_us
        }
    }
}

/// Queueing-delay and transfer-size percentiles for one link class.
#[derive(Clone, Debug, Default)]
pub struct LinkClassStats {
    /// Number of pulls over this class.
    pub pulls: u64,
    /// Total bytes moved.
    pub bytes_total: u64,
    /// Queueing-delay percentiles (µs).
    pub wait_p50_us: u64,
    /// 95th percentile queueing delay (µs).
    pub wait_p95_us: u64,
    /// 99th percentile queueing delay (µs).
    pub wait_p99_us: u64,
    /// Transfer-size percentiles (bytes).
    pub bytes_p50: u64,
    /// 95th percentile transfer size (bytes).
    pub bytes_p95: u64,
    /// 99th percentile transfer size (bytes).
    pub bytes_p99: u64,
}

/// Full profiler output.
#[derive(Clone, Debug, Default)]
pub struct ProfileReport {
    /// One critical path per iteration, in version order.
    pub iterations: Vec<IterationProfile>,
    /// Per-link-class pull statistics (over *all* pulls, not only the
    /// critical path).
    pub links: BTreeMap<LinkClass, LinkClassStats>,
    /// Chaos fault events tallied by kind slug.
    pub faults: BTreeMap<String, u64>,
    /// Events analyzed.
    pub events: usize,
    /// Events the recorder discarded (log full).
    pub dropped: u64,
}

/// Exact percentile of a sorted sample vector (nearest-rank); 0 for no
/// samples.
fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A transfer interval on the critical get's timeline.
struct TransferInterval {
    start_us: u64,
    end_us: u64,
    link: LinkClass,
}

/// Sweep the transfer intervals and attribute covered time per class;
/// instants covered by both classes are charged to RDMA (the network
/// branch dominates the critical path when both overlap).
fn attribute_transfers(intervals: &[TransferInterval]) -> (f64, f64) {
    let mut bounds: Vec<u64> = intervals
        .iter()
        .flat_map(|iv| [iv.start_us, iv.end_us])
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let (mut shm, mut rdma) = (0u64, 0u64);
    for pair in bounds.windows(2) {
        let (a, b) = (pair[0], pair[1]);
        let covers = |class: LinkClass| {
            intervals
                .iter()
                .any(|iv| iv.link == class && iv.start_us <= a && iv.end_us >= b)
        };
        if covers(LinkClass::Rdma) {
            rdma += b - a;
        } else if covers(LinkClass::Shm) {
            shm += b - a;
        }
    }
    (shm as f64, rdma as f64)
}

/// Per-link-class pull statistics over every pull in `events`: counts,
/// bytes and exact wait / size percentiles. A pull recorded without a
/// link class counts as shm. [`ProfileReport::analyze`] and the
/// service's live progress both read pulls through this one rule.
pub fn link_stats(events: &[Event]) -> BTreeMap<LinkClass, LinkClassStats> {
    let mut samples: BTreeMap<LinkClass, (Vec<u64>, Vec<u64>)> = BTreeMap::new();
    for e in events {
        if let EventKind::Pull { wait_us } = e.kind {
            let (waits, sizes) = samples.entry(e.link.unwrap_or(LinkClass::Shm)).or_default();
            waits.push(wait_us);
            sizes.push(e.bytes);
        }
    }
    samples
        .into_iter()
        .map(|(class, (mut ws, mut ss))| {
            ws.sort_unstable();
            ss.sort_unstable();
            let stats = LinkClassStats {
                pulls: ws.len() as u64,
                bytes_total: ss.iter().sum(),
                wait_p50_us: percentile(&ws, 0.50),
                wait_p95_us: percentile(&ws, 0.95),
                wait_p99_us: percentile(&ws, 0.99),
                bytes_p50: percentile(&ss, 0.50),
                bytes_p95: percentile(&ss, 0.95),
                bytes_p99: percentile(&ss, 0.99),
            };
            (class, stats)
        })
        .collect()
}

impl ProfileReport {
    /// Reconstruct per-iteration critical paths from a snapshot of
    /// flight events (any order; sorted internally by `seq`).
    pub fn analyze(events: &[Event], dropped: u64) -> ProfileReport {
        // Children indexed by causal parent.
        let mut children: BTreeMap<u64, Vec<&Event>> = BTreeMap::new();
        for e in events {
            if let Some(p) = e.parent {
                children.entry(p).or_default().push(e);
            }
        }

        // Critical get per version: latest end, ties broken by seq so
        // the choice is deterministic.
        let mut critical: BTreeMap<u64, &Event> = BTreeMap::new();
        for e in events {
            if matches!(e.kind, EventKind::Get { .. }) {
                critical
                    .entry(e.version)
                    .and_modify(|cur| {
                        if (e.end_us(), e.seq) > (cur.end_us(), cur.seq) {
                            *cur = e;
                        }
                    })
                    .or_insert(e);
            }
        }

        let mut iterations = Vec::new();
        for (&version, get) in &critical {
            let empty = Vec::new();
            let kids = children.get(&get.seq).unwrap_or(&empty);
            let mut schedule = 0.0;
            let mut intervals = Vec::new();
            let mut pull_count = 0usize;
            for k in kids {
                match k.kind {
                    EventKind::Schedule { .. } | EventKind::DhtLookup { .. } => {
                        schedule += k.duration_us as f64;
                    }
                    EventKind::Pull { wait_us } => {
                        pull_count += 1;
                        let wait = wait_us.min(k.duration_us);
                        intervals.push(TransferInterval {
                            start_us: k.start_us + wait,
                            end_us: k.end_us(),
                            link: k.link.unwrap_or(LinkClass::Shm),
                        });
                    }
                    _ => {}
                }
            }
            let (shm, rdma) = attribute_transfers(&intervals);
            let end_to_end = get.duration_us as f64;
            let wait = (end_to_end - schedule - shm - rdma).max(0.0);
            iterations.push(IterationProfile {
                version,
                end_to_end_us: end_to_end,
                breakdown: CategoryBreakdown {
                    schedule_us: schedule,
                    shm_us: shm,
                    rdma_us: rdma,
                    wait_us: wait,
                },
                app: get.app,
                dst: get.dst,
                pulls: pull_count,
            });
        }

        let mut faults: BTreeMap<String, u64> = BTreeMap::new();
        for e in events {
            if let EventKind::Fault { kind } = e.kind {
                *faults.entry(kind.to_string()).or_insert(0) += 1;
            }
        }

        ProfileReport {
            iterations,
            links: link_stats(events),
            faults,
            events: events.len(),
            dropped,
        }
    }

    /// Category totals across all iterations.
    pub fn totals(&self) -> CategoryBreakdown {
        let mut t = CategoryBreakdown::default();
        for it in &self.iterations {
            t.schedule_us += it.breakdown.schedule_us;
            t.shm_us += it.breakdown.shm_us;
            t.rdma_us += it.breakdown.rdma_us;
            t.wait_us += it.breakdown.wait_us;
        }
        t
    }

    /// Sum of per-iteration end-to-end times.
    pub fn end_to_end_total_us(&self) -> f64 {
        self.iterations.iter().map(|i| i.end_to_end_us).sum()
    }

    /// Plain-text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "flight recorder: {} events ({} dropped)\n\n",
            self.events, self.dropped
        ));
        out.push_str("critical path per iteration (all times in us)\n");
        out.push_str(&format!(
            "{:>8} {:>12} {:>10} {:>10} {:>10} {:>10} {:>6} {:>5} {:>5} {:>6}\n",
            "version",
            "end_to_end",
            "schedule",
            "shm",
            "rdma",
            "wait",
            "cover",
            "app",
            "dst",
            "pulls"
        ));
        for it in &self.iterations {
            out.push_str(&format!(
                "{:>8} {:>12.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0} {:>5.0}% {:>5} {:>5} {:>6}\n",
                it.version,
                it.end_to_end_us,
                it.breakdown.schedule_us,
                it.breakdown.shm_us,
                it.breakdown.rdma_us,
                it.breakdown.wait_us,
                it.coverage() * 100.0,
                it.app,
                it.dst.map_or("-".to_string(), |d| d.to_string()),
                it.pulls,
            ));
        }
        let t = self.totals();
        out.push_str(&format!(
            "{:>8} {:>12.0} {:>10.0} {:>10.0} {:>10.0} {:>10.0}\n\n",
            "total",
            self.end_to_end_total_us(),
            t.schedule_us,
            t.shm_us,
            t.rdma_us,
            t.wait_us,
        ));
        out.push_str("per link class (pulls; queueing delay us / transfer bytes)\n");
        out.push_str(&format!(
            "{:>6} {:>8} {:>12} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10}\n",
            "link",
            "pulls",
            "bytes",
            "wait_p50",
            "wait_p95",
            "wait_p99",
            "sz_p50",
            "sz_p95",
            "sz_p99"
        ));
        for (class, s) in &self.links {
            out.push_str(&format!(
                "{:>6} {:>8} {:>12} {:>9} {:>9} {:>9} {:>10} {:>10} {:>10}\n",
                class.slug(),
                s.pulls,
                s.bytes_total,
                s.wait_p50_us,
                s.wait_p95_us,
                s.wait_p99_us,
                s.bytes_p50,
                s.bytes_p95,
                s.bytes_p99,
            ));
        }
        if !self.faults.is_empty() {
            out.push_str("\ninjected faults observed\n");
            for (kind, n) in &self.faults {
                out.push_str(&format!("{kind:>16} {n:>8}\n"));
            }
        }
        out
    }

    /// JSON rendering of the full report.
    pub fn to_json(&self) -> Json {
        let iterations: Vec<Json> = self
            .iterations
            .iter()
            .map(|it| {
                Json::obj()
                    .field("version", it.version)
                    .field("end_to_end_us", it.end_to_end_us)
                    .field("schedule_us", it.breakdown.schedule_us)
                    .field("shm_us", it.breakdown.shm_us)
                    .field("rdma_us", it.breakdown.rdma_us)
                    .field("wait_us", it.breakdown.wait_us)
                    .field("coverage", it.coverage())
                    .field("app", it.app)
                    .field("dst", it.dst.map_or(Json::Null, |d| Json::U64(d as u64)))
                    .field("pulls", it.pulls)
            })
            .collect();
        let mut links = Json::obj();
        for (class, s) in &self.links {
            links = links.field(
                class.slug(),
                Json::obj()
                    .field("pulls", s.pulls)
                    .field("bytes_total", s.bytes_total)
                    .field("wait_p50_us", s.wait_p50_us)
                    .field("wait_p95_us", s.wait_p95_us)
                    .field("wait_p99_us", s.wait_p99_us)
                    .field("bytes_p50", s.bytes_p50)
                    .field("bytes_p95", s.bytes_p95)
                    .field("bytes_p99", s.bytes_p99),
            );
        }
        let mut faults = Json::obj();
        for (kind, n) in &self.faults {
            faults = faults.field(kind, *n);
        }
        let t = self.totals();
        Json::obj()
            .field("events", self.events)
            .field("dropped", self.dropped)
            .field("iterations", iterations)
            .field(
                "totals",
                Json::obj()
                    .field("end_to_end_us", self.end_to_end_total_us())
                    .field("schedule_us", t.schedule_us)
                    .field("shm_us", t.shm_us)
                    .field("rdma_us", t.rdma_us)
                    .field("wait_us", t.wait_us),
            )
            .field("links", links)
            .field("faults", faults)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    /// One iteration: get with schedule + two pulls (shm then rdma) and
    /// gaps that must land in wait.
    fn synthetic_iteration(version: u64, base: u64, seq0: u64) -> Vec<Event> {
        let g = seq0;
        vec![
            Event::new(g, EventKind::Get { cont: true })
                .app(2)
                .var(1)
                .version(version)
                .dst(4)
                .window(base, 1000),
            Event::new(seq0 + 1, EventKind::Schedule { hit: false })
                .parent(g)
                .version(version)
                .window(base, 100),
            // Pull 1: 50us wait then 250us shm copy.
            Event::new(seq0 + 2, EventKind::Pull { wait_us: 50 })
                .parent(g)
                .var(1)
                .version(version)
                .src(0)
                .dst(4)
                .link(LinkClass::Shm)
                .bytes(4096)
                .window(base + 100, 300),
            // Pull 2: no wait, 400us rdma, overlapping nothing.
            Event::new(seq0 + 3, EventKind::Pull { wait_us: 0 })
                .parent(g)
                .var(1)
                .version(version)
                .src(1)
                .dst(4)
                .link(LinkClass::Rdma)
                .bytes(8192)
                .window(base + 400, 400),
        ]
    }

    #[test]
    fn categories_sum_to_end_to_end() {
        let mut events = synthetic_iteration(0, 0, 1);
        events.extend(synthetic_iteration(1, 2000, 10));
        let report = ProfileReport::analyze(&events, 0);
        assert_eq!(report.iterations.len(), 2);
        for it in &report.iterations {
            assert!((it.breakdown.total_us() - it.end_to_end_us).abs() < 1e-9);
            assert_eq!(it.breakdown.schedule_us, 100.0);
            assert_eq!(it.breakdown.shm_us, 250.0);
            assert_eq!(it.breakdown.rdma_us, 400.0);
            assert_eq!(it.breakdown.wait_us, 250.0); // 50 queue + 200 gaps
            assert_eq!(it.pulls, 2);
            assert_eq!(it.app, 2);
        }
    }

    #[test]
    fn overlapping_transfers_charge_rdma() {
        let g = 1;
        let events = vec![
            Event::new(g, EventKind::Get { cont: true })
                .version(0)
                .dst(0)
                .window(0, 100),
            Event::new(2, EventKind::Pull { wait_us: 0 })
                .parent(g)
                .src(1)
                .dst(0)
                .link(LinkClass::Shm)
                .window(0, 100),
            Event::new(3, EventKind::Pull { wait_us: 0 })
                .parent(g)
                .src(2)
                .dst(0)
                .link(LinkClass::Rdma)
                .window(50, 50),
        ];
        let report = ProfileReport::analyze(&events, 0);
        let b = report.iterations[0].breakdown;
        assert_eq!(b.shm_us, 50.0);
        assert_eq!(b.rdma_us, 50.0);
        assert_eq!(b.wait_us, 0.0);
    }

    #[test]
    fn critical_get_is_latest_finishing() {
        let events = vec![
            Event::new(1, EventKind::Get { cont: false })
                .app(2)
                .version(0)
                .dst(3)
                .window(0, 100),
            Event::new(2, EventKind::Get { cont: false })
                .app(2)
                .version(0)
                .dst(4)
                .window(50, 300),
        ];
        let report = ProfileReport::analyze(&events, 0);
        assert_eq!(report.iterations.len(), 1);
        assert_eq!(report.iterations[0].dst, Some(4));
        assert_eq!(report.iterations[0].end_to_end_us, 300.0);
    }

    #[test]
    fn link_percentiles_are_exact() {
        let g = 1;
        let mut events = vec![Event::new(g, EventKind::Get { cont: true })
            .version(0)
            .dst(0)
            .window(0, 10_000)];
        for (i, wait) in (1u64..=100).enumerate() {
            events.push(
                Event::new(2 + i as u64, EventKind::Pull { wait_us: wait })
                    .parent(g)
                    .src(1)
                    .dst(0)
                    .link(LinkClass::Rdma)
                    .bytes(wait * 10)
                    .window(i as u64 * 10, 5),
            );
        }
        let report = ProfileReport::analyze(&events, 0);
        let s = &report.links[&LinkClass::Rdma];
        assert_eq!(s.pulls, 100);
        assert_eq!(s.wait_p50_us, 50);
        assert_eq!(s.wait_p95_us, 95);
        assert_eq!(s.wait_p99_us, 99);
        assert_eq!(s.bytes_p50, 500);
        assert_eq!(s.bytes_p99, 990);
    }

    #[test]
    fn faults_are_tallied_and_rendered() {
        let events = vec![
            Event::new(1, EventKind::Fault { kind: "drop-pull" }).window(0, 0),
            Event::new(2, EventKind::Fault { kind: "drop-pull" }).window(1, 0),
            Event::new(3, EventKind::Fault { kind: "stage-full" }).window(2, 0),
        ];
        let report = ProfileReport::analyze(&events, 5);
        assert_eq!(report.faults["drop-pull"], 2);
        assert_eq!(report.faults["stage-full"], 1);
        assert_eq!(report.dropped, 5);
        let text = report.render();
        assert!(text.contains("drop-pull"));
        assert!(text.contains("5 dropped"));
        let json = report.to_json().render();
        assert!(json.contains("\"drop-pull\":2"));
    }
}
