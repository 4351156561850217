//! Order statistics over a run's samples, and the derivations the
//! end-to-end metrics are built from.

/// Linear-interpolated quantile of an ascending-sorted, non-empty
/// sample (`q` in 0..=1; the same rule as numpy's default).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median, quartiles and count of one metric's samples.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarise `samples` (any order). `None` when empty.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            q1: quantile_sorted(&s, 0.25),
            median: quantile_sorted(&s, 0.5),
            q3: quantile_sorted(&s, 0.75),
        })
    }
}

/// Median of `samples` (any order); 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.median)
}

/// The tail percentile a sample of `n` supports: the highest of
/// p95/p90/p75 that leaves at least ten samples beyond it. `None` when
/// even p75 does not (fewer than 40 samples).
pub fn tail_percentile(n: usize) -> Option<u32> {
    [95u32, 90, 75]
        .into_iter()
        .find(|&p| n * (100 - p as usize) >= 10 * 100)
}

/// `(percentile, value)` of the supported tail of `samples`.
pub fn tail(samples: &[f64]) -> Option<(u32, f64)> {
    let p = tail_percentile(samples.len())?;
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some((p, quantile_sorted(&s, p as f64 / 100.0)))
}

/// Steady-state cost of one coupled iteration: a full `k`-iteration run
/// minus a one-iteration run, spread over the `k - 1` extra iterations.
pub fn per_iteration(full: f64, single: f64, k: u64) -> f64 {
    assert!(k >= 2, "a per-iteration cost needs at least two iterations");
    (full - single) / (k - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75));
        assert_eq!(tail_percentile(99), Some(75));
        assert_eq!(tail_percentile(100), Some(90));
        assert_eq!(tail_percentile(199), Some(90));
        assert_eq!(tail_percentile(200), Some(95));
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        let (p, v) = tail(&samples).unwrap();
        assert_eq!(p, 95);
        // Ten samples (191..=200) lie beyond the reported value.
        assert_eq!(samples.iter().filter(|&&s| s > v).count(), 10);
        assert!(tail(&samples[..20]).is_none());
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        assert_eq!(s.n, 4);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.q1, 1.75);
        assert_eq!(s.q3, 3.25);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn iter_ms_is_the_marginal_iteration() {
        // 20 iterations take 1000 ms, one takes 240 ms: 19 more cost 760.
        assert_eq!(per_iteration(1000.0, 240.0, 20), 40.0);
        assert_eq!(per_iteration(50.0, 50.0, 2), 0.0);
    }
}
