//! The paper's figures as one table.
//!
//! [`FIGURES`] holds one [`Figure`] per evaluation figure (Figs. 8–16)
//! plus the extra file-baseline experiment. The `figures` binary walks
//! it twice per entry — once to print the text table, once to write the
//! machine-readable `BENCH_<name>.json` — so the two outputs can never
//! disagree. Files land in the current directory unless `BENCH_OUT_DIR`
//! points elsewhere. The payload is rendered through
//! [`insitu_telemetry::Json`] — same writer as the metrics and trace
//! exports, so the formats can never drift apart.

use crate::experiments::*;
use crate::table;
use insitu_telemetry::Json;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One figure: how to run it, print it and name its output.
pub struct Figure {
    /// The `--only` value selecting it (`8` … `16`, `extra`).
    pub id: &'static str,
    /// Output stem: the file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// Title printed above the text table.
    pub title: &'static str,
    /// Title stored in the JSON document.
    pub json_title: &'static str,
    /// Column headers of the text table.
    pub headers: &'static [&'static str],
    /// What the paper's version of the figure shows, printed below.
    pub paper_shape: &'static str,
    /// Run the experiment at a size.
    pub run: fn(Size) -> Data,
}

/// One run of a figure: the experiment's rows, as table cells and as
/// JSON objects.
pub struct Data {
    /// Text-table rows, one cell per header.
    pub cells: Vec<Vec<String>>,
    /// One JSON object per experiment row.
    pub rows: Vec<Json>,
    /// A line computed from the rows, printed under the table.
    pub note: Option<String>,
}

const COUPLING_HEADERS: &[&str] = &[
    "pattern (producer/consumer)",
    "round-robin",
    "data-centric",
    "reduction",
];
const INTRA_HEADERS: &[&str] = &["application", "round-robin", "data-centric", "change"];
const BREAKDOWN_HEADERS: &[&str] = &[
    "strategy",
    "inter-app (coupling)",
    "intra-app (stencil)",
    "total",
];
const BREAKDOWN_SHAPE: &str =
    "paper shape: coupling dominates under round-robin; data-centric slashes the total";

/// Every figure, in report order.
pub static FIGURES: [Figure; 10] = [
    Figure {
        id: "8",
        name: "fig08",
        title: "Fig. 8 — concurrent coupling: coupled data over the network (GiB), CAP1=512/CAP2=64, 8 GiB total",
        json_title: "concurrent coupling: coupled bytes by locality",
        headers: COUPLING_HEADERS,
        paper_shape: "paper shape: ~80% less network data for matched patterns; little gain when mismatched",
        run: |s| coupling(fig08(s)),
    },
    Figure {
        id: "9",
        name: "fig09",
        title: "Fig. 9 — sequential coupling: coupled data over the network (GiB), SAP1=512 -> SAP2=128 + SAP3=384, 16 GiB total",
        json_title: "sequential coupling: coupled bytes by locality",
        headers: COUPLING_HEADERS,
        paper_shape: "paper shape: ~90% less network data for matched patterns; little gain when mismatched",
        run: |s| coupling(fig09(s)),
    },
    Figure {
        id: "10",
        name: "fig10",
        title: "Fig. 10 — coupling fan-out per consumer task (CAP1=512 / CAP2=64, 12-core nodes)",
        json_title: "coupling fan-out per consumer task",
        headers: &[
            "pattern (producer/consumer)",
            "avg producers contacted",
            "max",
            "fits one node?",
        ],
        paper_shape: "paper shape: mismatched distributions create 1-to-N patterns with N >> cores/node",
        run: |s| fanout(fig10(s)),
    },
    Figure {
        id: "11",
        name: "fig11",
        title: "Fig. 11 — coupled-data retrieve time (ms, analytic network model)",
        json_title: "coupled-data retrieve time (ms)",
        headers: &["application", "round-robin", "data-centric", "speedup"],
        paper_shape: "paper shape: large drop under data-centric mapping; SAP2/SAP3 slower than CAP2\n\
                      despite smaller per-task data (2x concurrent retrieve queries contend)",
        run: |s| retrieve(fig11(s)),
    },
    Figure {
        id: "12",
        name: "fig12",
        title: "Fig. 12 — concurrent scenario: intra-app exchange over the network (MiB)",
        json_title: "concurrent: intra-app bytes over network",
        headers: INTRA_HEADERS,
        paper_shape: "paper shape: CAP2 (the smaller, scattered app) roughly doubles; CAP1 barely moves",
        run: |s| intra(fig12(s)),
    },
    Figure {
        id: "13",
        name: "fig13",
        title: "Fig. 13 — sequential scenario: intra-app exchange over the network (MiB)",
        json_title: "sequential: intra-app bytes over network",
        headers: INTRA_HEADERS,
        paper_shape: "paper shape: SAP2 roughly doubles; SAP1 and SAP3 nearly unchanged",
        run: |s| intra(fig13(s)),
    },
    Figure {
        id: "14",
        name: "fig14",
        title: "Fig. 14 — concurrent scenario: network communication breakdown (GiB)",
        json_title: "concurrent: network communication breakdown",
        headers: BREAKDOWN_HEADERS,
        paper_shape: BREAKDOWN_SHAPE,
        run: |s| breakdown(fig14(s)),
    },
    Figure {
        id: "15",
        name: "fig15",
        title: "Fig. 15 — sequential scenario: network communication breakdown (GiB)",
        json_title: "sequential: network communication breakdown",
        headers: BREAKDOWN_HEADERS,
        paper_shape: BREAKDOWN_SHAPE,
        run: |s| breakdown(fig15(s)),
    },
    Figure {
        id: "16",
        name: "fig16",
        title: "Fig. 16 — weak scaling: retrieve time (ms) under data-centric mapping",
        json_title: "weak scaling: retrieve time (ms), data-centric",
        headers: &["producer cores", "CAP2", "SAP2", "SAP3"],
        paper_shape: "paper shape: increase under ~150 ms; sequential apps rise faster than CAP2",
        run: |s| scaling(fig16(s)),
    },
    Figure {
        id: "extra",
        name: "extra_file_baseline",
        title: "Extra — in-memory (CoDS) vs file-based coupling (Spider/Lustre-class filesystem)",
        json_title: "in-memory (CoDS) vs file-based coupling",
        headers: &[
            "scenario",
            "coupled GiB",
            "memory (ms)",
            "file (ms)",
            "file penalty",
        ],
        paper_shape: "paper claim (§VI): the in-memory shared space is faster and more scalable than\n\
                      coupling through files; memory numbers are the data-centric retrieve times",
        run: |s| file_baseline(extra_file_baseline(s)),
    },
];

/// A row type's JSON object (field order is the file format).
trait Row {
    fn json(&self) -> Json;
}

impl Row for CouplingRow {
    fn json(&self) -> Json {
        Json::obj()
            .field("pattern", self.pattern.as_str())
            .field("strategy", self.strategy)
            .field("network_bytes", self.network_bytes)
            .field("shm_bytes", self.shm_bytes)
    }
}

impl Row for FanoutRow {
    fn json(&self) -> Json {
        Json::obj()
            .field("pattern", self.pattern.as_str())
            .field("avg_fanout", self.avg_fanout)
            .field("max_fanout", self.max_fanout)
    }
}

impl Row for RetrieveRow {
    fn json(&self) -> Json {
        Json::obj()
            .field("app", self.app.as_str())
            .field("strategy", self.strategy)
            .field("producer_tasks", self.producer_tasks)
            .field("ms", self.ms)
    }
}

impl Row for IntraAppRow {
    fn json(&self) -> Json {
        Json::obj()
            .field("app", self.app.as_str())
            .field("strategy", self.strategy)
            .field("network_bytes", self.network_bytes)
    }
}

impl Row for BreakdownRow {
    fn json(&self) -> Json {
        Json::obj()
            .field("strategy", self.strategy)
            .field("inter_app_net_bytes", self.inter_app_net)
            .field("intra_app_net_bytes", self.intra_app_net)
    }
}

impl Row for FileBaselineRow {
    fn json(&self) -> Json {
        Json::obj()
            .field("scenario", self.scenario.as_str())
            .field("coupled_bytes", self.bytes)
            .field("memory_ms", self.memory_ms)
            .field("file_ms", self.file_ms)
    }
}

fn data<R: Row>(rows: &[R], cells: Vec<Vec<String>>) -> Data {
    Data {
        cells,
        rows: rows.iter().map(Row::json).collect(),
        note: None,
    }
}

/// `items` without repeats, in order of first appearance.
fn distinct<T: PartialEq>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut out = Vec::new();
    for item in items {
        if !out.contains(&item) {
            out.push(item);
        }
    }
    out
}

fn coupling(rows: Vec<CouplingRow>) -> Data {
    let cells = rows
        .chunks(2)
        .map(|pair| {
            let (rr, dc) = (&pair[0], &pair[1]);
            vec![
                rr.pattern.clone(),
                table::gib(rr.network_bytes),
                table::gib(dc.network_bytes),
                format!(
                    "{:.0}%",
                    100.0 * (1.0 - dc.network_bytes as f64 / rr.network_bytes as f64)
                ),
            ]
        })
        .collect();
    data(&rows, cells)
}

fn fanout(rows: Vec<FanoutRow>) -> Data {
    let cells = rows
        .iter()
        .map(|r| {
            let fits = if r.max_fanout <= 12 { "yes" } else { "no" };
            vec![
                r.pattern.clone(),
                format!("{:.1}", r.avg_fanout),
                r.max_fanout.to_string(),
                fits.into(),
            ]
        })
        .collect();
    data(&rows, cells)
}

fn retrieve(rows: Vec<RetrieveRow>) -> Data {
    let cells = distinct(rows.iter().map(|r| r.app.as_str()))
        .into_iter()
        .map(|app| {
            let (rr, dc) = by_strategy(&rows, app, |r| (&r.app, r.strategy));
            vec![
                app.to_string(),
                format!("{:.1}", rr.ms),
                format!("{:.1}", dc.ms),
                format!("{:.1}x", rr.ms / dc.ms),
            ]
        })
        .collect();
    data(&rows, cells)
}

fn intra(rows: Vec<IntraAppRow>) -> Data {
    let cells = distinct(rows.iter().map(|r| r.app.as_str()))
        .into_iter()
        .map(|app| {
            let (rr, dc) = by_strategy(&rows, app, |r| (&r.app, r.strategy));
            vec![
                app.to_string(),
                table::mib(rr.network_bytes),
                table::mib(dc.network_bytes),
                format!(
                    "{:+.0}%",
                    100.0 * (dc.network_bytes as f64 / rr.network_bytes.max(1) as f64 - 1.0)
                ),
            ]
        })
        .collect();
    data(&rows, cells)
}

fn breakdown(rows: Vec<BreakdownRow>) -> Data {
    let cells = rows
        .iter()
        .map(|r| {
            vec![
                r.strategy.to_string(),
                table::gib(r.inter_app_net),
                table::gib(r.intra_app_net),
                table::gib(r.inter_app_net + r.intra_app_net),
            ]
        })
        .collect();
    data(&rows, cells)
}

fn scaling(rows: Vec<RetrieveRow>) -> Data {
    let ms = |app: &str, cores: u64| {
        rows.iter()
            .find(|r| r.app == app && r.producer_tasks == cores)
            .expect("every scale has a row per app")
            .ms
    };
    let scales = distinct(rows.iter().map(|r| r.producer_tasks));
    let cells = scales
        .iter()
        .map(|&s| {
            let t = |app| format!("{:.1}", ms(app, s));
            vec![s.to_string(), t("CAP2"), t("SAP2"), t("SAP3")]
        })
        .collect();
    let (first, last) = (scales[0], scales[scales.len() - 1]);
    let delta = |app| ms(app, last) - ms(app, first);
    let note = format!(
        "growth {first} -> {last} cores: CAP2 {:+.1} ms, SAP2 {:+.1} ms, SAP3 {:+.1} ms",
        delta("CAP2"),
        delta("SAP2"),
        delta("SAP3")
    );
    Data {
        note: Some(note),
        ..data(&rows, cells)
    }
}

fn file_baseline(rows: Vec<FileBaselineRow>) -> Data {
    let cells = rows
        .iter()
        .map(|r| {
            vec![
                r.scenario.clone(),
                table::gib(r.bytes),
                format!("{:.1}", r.memory_ms),
                format!("{:.1}", r.file_ms),
                format!("{:.1}x", r.file_ms / r.memory_ms),
            ]
        })
        .collect();
    data(&rows, cells)
}

impl Figure {
    /// Print the table, the computed note and the paper's shape.
    pub fn print(&self, data: &Data) {
        table::print(self.title, self.headers, &data.cells);
        if let Some(note) = &data.note {
            println!("{note}");
        }
        println!("{}", self.paper_shape);
    }

    /// The `BENCH_<name>.json` document of one run.
    pub fn json(&self, data: &Data) -> Json {
        doc(self.name, self.json_title, data.rows.clone())
    }

    /// Run at `size`, print, and write `BENCH_<name>.json` to
    /// `BENCH_OUT_DIR` (or the current directory).
    pub fn emit(&self, size: Size) -> std::io::Result<PathBuf> {
        let data = (self.run)(size);
        self.print(&data);
        let dir = std::env::var_os("BENCH_OUT_DIR").unwrap_or_else(|| ".".into());
        write_to(Path::new(&dir), self.name, &self.json(&data))
    }
}

/// Write `payload` to `<dir>/BENCH_<figure>.json`.
pub fn write_to(dir: &Path, figure: &str, payload: &Json) -> std::io::Result<PathBuf> {
    let path = dir.join(format!("BENCH_{figure}.json"));
    let mut file = std::fs::File::create(&path)?;
    file.write_all(payload.render().as_bytes())?;
    file.write_all(b"\n")?;
    Ok(path)
}

fn doc(figure: &str, title: &str, rows: Vec<Json>) -> Json {
    Json::obj()
        .field("figure", figure)
        .field("title", title)
        .field("rows", Json::Arr(rows))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coupling_doc_shape() {
        let row = CouplingRow {
            pattern: "blocked/blocked".into(),
            strategy: "round-robin",
            network_bytes: 100,
            shm_bytes: 28,
        };
        let j = doc("fig08", "t", vec![row.json()]).render();
        assert!(j.starts_with("{\"figure\":\"fig08\""));
        assert!(j.contains("\"network_bytes\":100"));
        assert!(j.contains("\"shm_bytes\":28"));
    }

    #[test]
    fn write_to_produces_parseable_file() {
        let dir = std::env::temp_dir();
        let payload = doc("figtest", "t", vec![Json::obj().field("ms", 1.5)]);
        let path = write_to(&dir, "figtest", &payload).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            body,
            "{\"figure\":\"figtest\",\"title\":\"t\",\"rows\":[{\"ms\":1.5}]}\n"
        );
        std::fs::remove_file(path).unwrap();
    }

    /// Every entry of the table runs at mini scale, renders a table as
    /// wide as its headers and a document that parses back with one
    /// JSON row per experiment row.
    #[test]
    fn every_figure_runs_and_round_trips_at_mini_scale() {
        let mut ids = Vec::new();
        for fig in &FIGURES {
            let data = (fig.run)(Size::mini());
            assert!(!data.cells.is_empty(), "{}: empty table", fig.name);
            for row in &data.cells {
                assert_eq!(row.len(), fig.headers.len(), "{}", fig.name);
            }
            // `render` would panic on a ragged table.
            table::render(fig.headers, &data.cells);
            let parsed = Json::parse(&fig.json(&data).render()).expect(fig.name);
            assert_eq!(parsed.get("figure").and_then(Json::as_str), Some(fig.name));
            assert_eq!(
                parsed.get("title").and_then(Json::as_str),
                Some(fig.json_title)
            );
            let rows = parsed.get("rows").and_then(Json::as_arr).expect(fig.name);
            assert_eq!(rows.len(), data.rows.len(), "{}", fig.name);
            assert!(rows.len() >= data.cells.len(), "{}", fig.name);
            ids.push(fig.id);
        }
        assert_eq!(
            ids,
            ["8", "9", "10", "11", "12", "13", "14", "15", "16", "extra"]
        );
    }
}
