//! Result records: the contract's last-line JSON object, the fuller
//! record `--out` appends for `agree`, and `agree` itself.

use crate::oracle::Reference;
use crate::stats::Summary;
use crate::sys;
use insitu_telemetry::Json;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: String,
    /// The samples behind the value, when it is a median of samples.
    pub samples: Option<Summary>,
}

impl Metric {
    /// A metric without per-sample statistics.
    pub fn new(name: &str, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
            samples: None,
        }
    }
}

/// The object printed as the last line of standard output.
pub fn contract_line(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut m = Json::obj();
    for metric in metrics {
        m = m.field(
            &metric.name,
            Json::obj()
                .field("value", metric.value)
                .field("unit", metric.unit.as_str()),
        );
    }
    Json::obj()
        .field("correct", failed == 0)
        .field("attempted", attempted.max(1))
        .field("failed", failed)
        .field("metrics", m)
        .render()
}

/// Commit of the checkout, read from `.git` without running git
/// ("unknown" outside a repository, as under the benchmark driver).
fn git_commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let commit = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    match commit.trim() {
        "" => "unknown".into(),
        c => c.to_string(),
    }
}

/// Everything one invocation measured, as one JSON line for `--out`.
#[allow(clippy::too_many_arguments)] // one flat record, written once
pub fn record_line(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
    k: u64,
    load_at_start: f64,
    attempted: u64,
    failed: u64,
    metrics: &[Metric],
) -> String {
    let mut m = Json::obj();
    for metric in metrics {
        let mut entry = Json::obj()
            .field("value", metric.value)
            .field("unit", metric.unit.as_str());
        if let Some(s) = metric.samples {
            entry = entry
                .field("n", s.n)
                .field("q1", s.q1)
                .field("median", s.median)
                .field("q3", s.q3);
        }
        m = m.field(&metric.name, entry);
    }
    Json::obj()
        .field("workload", workload)
        .field("seed", seed)
        .field("seconds", seconds)
        .field("traced", traced)
        .field("k", k)
        .field("nproc", sys::nproc())
        .field("cpu_model", sys::cpu_model())
        .field("loadavg_1m_at_start", load_at_start)
        .field("git_commit", git_commit())
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", m)
        .render()
}

/// Parse a `--out` record back into `(workload, metrics)`.
pub fn parse_record(line: &str) -> Result<(String, Vec<Metric>), String> {
    let doc = Json::parse(line)?;
    let workload = doc
        .get("workload")
        .and_then(Json::as_str)
        .ok_or("record has no workload")?
        .to_string();
    let Some(Json::Obj(fields)) = doc.get("metrics") else {
        return Err("record has no metrics".into());
    };
    let mut metrics = Vec::new();
    for (name, entry) in fields {
        let num = |k: &str| entry.get(k).and_then(Json::as_f64);
        let samples = match (
            entry.get("n").and_then(Json::as_u64),
            num("q1"),
            num("median"),
            num("q3"),
        ) {
            (Some(n), Some(q1), Some(median), Some(q3)) => Some(Summary {
                n: n as usize,
                q1,
                median,
                q3,
            }),
            _ => None,
        };
        metrics.push(Metric {
            name: name.clone(),
            value: num("value").ok_or_else(|| format!("metric {name} has no value"))?,
            unit: entry
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
            samples,
        });
    }
    Ok((workload, metrics))
}

/// The reference child's one line of output.
pub fn reference_to_json(r: &Reference) -> String {
    Json::obj()
        .field("ledger", r.ledger_json.as_str())
        .field("gets", r.gets)
        .render()
}

/// Inverse of [`reference_to_json`].
pub fn reference_from_json(line: &str) -> Result<Reference, String> {
    let doc = Json::parse(line)?;
    Ok(Reference {
        ledger_json: doc
            .get("ledger")
            .and_then(Json::as_str)
            .ok_or("reference has no ledger")?
            .to_string(),
        gets: doc
            .get("gets")
            .and_then(Json::as_u64)
            .ok_or("reference has no gets")?,
    })
}

/// An end-to-end metric's entry in `BENCHMARK.json`.
struct Bound {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn bounds_from(benchmark_json: &str) -> Result<Vec<Bound>, String> {
    let doc = Json::parse(benchmark_json)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            Ok(Bound {
                name: e
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: e.get("better").and_then(Json::as_str) != Some("higher"),
                bound: e
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

fn records_of(text: &str) -> Result<Vec<(String, Vec<Metric>)>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(parse_record)
        .collect()
}

/// `insitu-perf agree A B`: compare two sets of the same build, each
/// the text of a `--out` file (one record per line). For every workload
/// in both and every end-to-end metric, B's value may be worse than A's
/// by at most the metric's bound, and A's than B's. Returns the table
/// and whether every pair agreed.
pub fn agree(benchmark_json: &str, a_set: &str, b_set: &str) -> Result<(String, bool), String> {
    let bounds = bounds_from(benchmark_json)?;
    let a = records_of(a_set)?;
    let b = records_of(b_set)?;
    let mut table = format!(
        "{:<20} {:<16} {:>12} {:>12} {:>8} {:>6}  {}\n",
        "workload", "metric", "A", "B", "diff", "bound", "verdict"
    );
    let mut all_agree = true;
    let mut pairs = 0;
    for (workload, a_metrics) in &a {
        let Some((_, b_metrics)) = b.iter().find(|(w, _)| w == workload) else {
            continue;
        };
        for bound in &bounds {
            let find = |ms: &[Metric]| ms.iter().find(|m| m.name == bound.name).cloned();
            let (Some(ma), Some(mb)) = (find(a_metrics), find(b_metrics)) else {
                return Err(format!("{workload}: {} missing from a set", bound.name));
            };
            pairs += 1;
            // Symmetric: neither run is "the parent", so the larger
            // relative gap in the worse direction is what must fit.
            let (lo, hi) = if ma.value <= mb.value {
                (ma.value, mb.value)
            } else {
                (mb.value, ma.value)
            };
            let base = if bound.lower_is_better { lo } else { hi };
            let diff = if base > 0.0 {
                (hi - lo) / base
            } else {
                f64::INFINITY
            };
            let ok = diff <= bound.bound;
            all_agree &= ok;
            let quartiles = |m: &Metric| match m.samples {
                Some(s) => format!("[{:.4} {:.4} {:.4}] n={}", s.q1, s.median, s.q3, s.n),
                None => "-".into(),
            };
            table.push_str(&format!(
                "{:<20} {:<16} {:>12.4} {:>12.4} {:>7.1}% {:>5.0}%  {}  A{} B{}\n",
                workload,
                bound.name,
                ma.value,
                mb.value,
                diff * 100.0,
                bound.bound * 100.0,
                if ok { "agree" } else { "unresolved" },
                quartiles(&ma),
                quartiles(&mb),
            ));
        }
    }
    if pairs == 0 {
        return Err("the two sets share no workload".into());
    }
    Ok((table, all_agree))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips() {
        let metrics = vec![
            Metric {
                samples: Some(Summary {
                    n: 9,
                    q1: 410.5,
                    median: 412.25,
                    q3: 431.0,
                }),
                ..Metric::new("run_ms_p50", 412.25, "ms")
            },
            Metric::new("setup_s", 1.0625, "s"),
        ];
        let line = record_line("wire_p2p", 42, 8.0, false, 20, 0.31, 18, 0, &metrics);
        let (workload, back) = parse_record(&line).unwrap();
        assert_eq!(workload, "wire_p2p");
        assert_eq!(back, metrics);

        let contract = Json::parse(&contract_line(18, 0, &metrics)).unwrap();
        assert_eq!(contract.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(contract.get("attempted").and_then(Json::as_u64), Some(18));
        let v = contract.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(v.get("value").and_then(Json::as_f64), Some(1.0625));
        assert_eq!(v.get("unit").and_then(Json::as_str), Some("s"));

        let r = Reference {
            ledger_json: "{\"a\":[1,2]}".into(),
            gets: 160,
        };
        assert_eq!(reference_from_json(&reference_to_json(&r)).unwrap(), r);
    }

    #[test]
    fn agree_applies_each_metrics_bound() {
        let bench = r#"{"end_to_end":[
            {"name":"run_ms_p50","unit":"ms","better":"lower","bound":0.1},
            {"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}"#;
        let set = |run: f64, setup: f64| {
            record_line(
                "w",
                1,
                8.0,
                false,
                2,
                0.0,
                4,
                0,
                &[
                    Metric::new("run_ms_p50", run, "ms"),
                    Metric::new("setup_s", setup, "s"),
                ],
            )
        };
        let (a, close, far) = (set(100.0, 1.0), set(108.0, 1.2), set(112.0, 1.0));
        let (table, ok) = agree(bench, &a, &close).unwrap();
        assert!(ok, "{table}");
        let (table, ok) = agree(bench, &a, &far).unwrap();
        assert!(!ok && table.contains("unresolved"), "{table}");
    }
}
