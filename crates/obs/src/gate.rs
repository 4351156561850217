//! Baseline regression gating over BENCH-style JSON documents.
//!
//! A gate document is the same shape the bench harness emits
//! (`BENCH_*.json`): `{"figure": .., "title": .., "rows": [{"metric":
//! name, "value": number, ..}, ..]}`. Every metric is
//! lower-is-better (times, bytes moved); the gate fails when any
//! current value exceeds its baseline by more than the given
//! threshold, or when a baseline metric disappeared.

use insitu_telemetry::Json;

/// Outcome of a gate comparison.
#[derive(Clone, Debug, Default)]
pub struct GateOutcome {
    /// Human-readable regression descriptions; empty means the gate
    /// passed.
    pub regressions: Vec<String>,
    /// Metrics that improved beyond the threshold (informational).
    pub improvements: Vec<String>,
    /// Metrics compared.
    pub checked: usize,
}

impl GateOutcome {
    /// Whether the gate passed.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Plain-text verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "gate: {} metrics checked, {} regressions, {} improvements\n",
            self.checked,
            self.regressions.len(),
            self.improvements.len()
        ));
        for r in &self.regressions {
            out.push_str(&format!("  REGRESSION {r}\n"));
        }
        for i in &self.improvements {
            out.push_str(&format!("  improved   {i}\n"));
        }
        out.push_str(if self.passed() {
            "gate: PASS\n"
        } else {
            "gate: FAIL\n"
        });
        out
    }
}

/// Build a gate/baseline document from `(metric, value)` rows.
pub fn profile_doc(figure: &str, title: &str, rows: &[(String, f64)]) -> Json {
    let rows: Vec<Json> = rows
        .iter()
        .map(|(metric, value)| {
            Json::obj()
                .field("metric", metric.as_str())
                .field("value", *value)
        })
        .collect();
    Json::obj()
        .field("figure", figure)
        .field("title", title)
        .field("rows", rows)
}

fn rows_of(doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let rows = doc
        .get("rows")
        .and_then(Json::as_arr)
        .ok_or("document has no `rows` array")?;
    let mut out = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let metric = row
            .get("metric")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("row {i} has no `metric`"))?;
        let value = row
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("row {i} has no numeric `value`"))?;
        out.push((metric.to_string(), value));
    }
    Ok(out)
}

/// Compare `current` against `baseline` (both gate documents). All
/// metrics are lower-is-better; a current value may exceed its baseline
/// by up to `threshold_pct` percent before the gate fails.
pub fn gate_compare(
    current: &Json,
    baseline: &Json,
    threshold_pct: f64,
) -> Result<GateOutcome, String> {
    let current = rows_of(current)?;
    let baseline = rows_of(baseline)?;
    let factor = 1.0 + threshold_pct / 100.0;
    let mut outcome = GateOutcome::default();
    for (metric, base) in &baseline {
        let Some((_, cur)) = current.iter().find(|(m, _)| m == metric) else {
            outcome.regressions.push(format!(
                "{metric}: missing from current run (baseline {base:.3})"
            ));
            continue;
        };
        outcome.checked += 1;
        // Absolute slack keeps zero-valued baselines from tripping on
        // noise-level values.
        let allowed = base * factor + 1e-6;
        let improved = base / factor - 1e-6;
        if *cur > allowed {
            outcome.regressions.push(format!(
                "{metric}: {cur:.3} vs baseline {base:.3} (+{:.1}% > {threshold_pct:.1}% allowed)",
                (cur / base.max(1e-12) - 1.0) * 100.0,
            ));
        } else if *cur < improved {
            outcome.improvements.push(format!(
                "{metric}: {cur:.3} vs baseline {base:.3} ({:.1}%)",
                (cur / base.max(1e-12) - 1.0) * 100.0
            ));
        }
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(rows: &[(&str, f64)]) -> Json {
        profile_doc(
            "profile",
            "t",
            &rows
                .iter()
                .map(|(m, v)| (m.to_string(), *v))
                .collect::<Vec<_>>(),
        )
    }

    #[test]
    fn passes_within_threshold() {
        let base = doc(&[("retrieve_ms.app2", 10.0), ("net_bytes", 1000.0)]);
        let cur = doc(&[("retrieve_ms.app2", 10.5), ("net_bytes", 1000.0)]);
        let out = gate_compare(&cur, &base, 10.0).unwrap();
        assert!(out.passed());
        assert_eq!(out.checked, 2);
    }

    #[test]
    fn fails_on_regression() {
        let base = doc(&[("retrieve_ms.app2", 10.0)]);
        let cur = doc(&[("retrieve_ms.app2", 20.0)]);
        let out = gate_compare(&cur, &base, 10.0).unwrap();
        assert!(!out.passed());
        assert!(out.render().contains("REGRESSION"));
        assert!(out.render().contains("FAIL"));
    }

    #[test]
    fn fails_on_missing_metric() {
        let base = doc(&[("retrieve_ms.app2", 10.0)]);
        let cur = doc(&[("other", 1.0)]);
        let out = gate_compare(&cur, &base, 10.0).unwrap();
        assert!(!out.passed());
    }

    #[test]
    fn reports_improvements() {
        let base = doc(&[("retrieve_ms.app2", 10.0)]);
        let cur = doc(&[("retrieve_ms.app2", 5.0)]);
        let out = gate_compare(&cur, &base, 10.0).unwrap();
        assert!(out.passed());
        assert_eq!(out.improvements.len(), 1);
    }

    #[test]
    fn round_trips_through_text() {
        let base = doc(&[("a", 1.5)]);
        let parsed = Json::parse(&base.render()).unwrap();
        let out = gate_compare(&parsed, &base, 10.0).unwrap();
        assert!(out.passed());
        assert!(gate_compare(&Json::Null, &base, 10.0).is_err());
    }
}
