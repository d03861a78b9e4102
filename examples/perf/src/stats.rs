//! Order statistics for the metric table.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so a spread computed from this program's
//! printed samples and one computed by a Python script agree.

/// Quartiles and sample count of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

/// Summarises `values`; an empty slice gives NaN statistics with `n = 0`.
pub fn summarize(values: &[f64]) -> Summary {
    let sorted = sorted(values);
    Summary {
        q1: quantile(&sorted, 1, 4),
        q3: quantile(&sorted, 3, 4),
        n: sorted.len(),
    }
}

/// The median of `values` (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 1, 2)
}

/// The smallest of `values` (infinite when empty).
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The 90th percentile of `values`, as `statistics.quantiles(values,
/// n=10)[8]` computes it.
pub fn p90(values: &[f64]) -> f64 {
    quantile(&sorted(values), 9, 10)
}

/// Geometric mean of positive values (NaN when empty).
pub fn gmean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The `i`-th of the `n`-quantile cut points of `sorted`, by the
/// exclusive method; one sample is its own every quantile. The median
/// (`i = 1, n = 2`) is the usual middle element or middle-pair mean.
fn quantile(sorted: &[f64], i: usize, n: usize) -> f64 {
    let len = sorted.len();
    match len {
        0 => f64::NAN,
        1 => sorted[0],
        _ => {
            let m = len + 1;
            let j = (i * m / n).clamp(1, len - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!((s.q1, median(&values), s.q3, s.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = summarize(&[2.0, 1.0]);
        assert_eq!((s.q1, median(&[2.0, 1.0]), s.q3), (0.75, 1.5, 2.25));
        // statistics.quantiles(range(1, 101), n=10)[8] == 90.9
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((p90(&values) - 90.9).abs() < 1e-9);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn gmean_weighs_every_value_equally() {
        assert!((gmean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
