//! Percentiles, medians and inter-quartile distances.

/// Nearest-rank percentile of an ascending slice (`p` in 0..=1). NaN when
/// empty, so a class with no samples can never pass for a measurement.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Percentile of an unsorted sample (sorts a copy).
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile_sorted(&v, p)
}

/// Median with the midpoint rule for even counts.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) gives them — the rule the acceptance
/// driver applies to the ten-seed sets, reused here for the slices.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let n = values.len();
    if n < 2 {
        let v = values.first().copied().unwrap_or(f64::NAN);
        return (v, v);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median (0 when the median is 0).
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 || !med.is_finite() {
        return 0.0;
    }
    ((q3 - q1) / med).abs()
}

/// A metric computed once per slice: its median over the slices is the
/// reported value, the inter-quartile share its spread.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub value: f64,
    pub spread: f64,
}

pub fn summarize(per_slice: &[f64]) -> Summary {
    Summary {
        value: median(per_slice),
        spread: spread(per_slice),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&v, 0.5), 51.0); // round(49.5) = 50 -> v[50]
        assert_eq!(percentile_sorted(&v, 0.95), 95.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert!(percentile_sorted(&[], 0.5).is_nan());
        assert_eq!(percentile(&[9.0, 1.0, 5.0], 0.5), 5.0);
    }

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let (q1, q3) = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q1, q3), (1.5, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn slice_median_and_iqr() {
        let s = summarize(&[100.0, 104.0, 96.0, 102.0, 98.0]);
        assert_eq!(s.value, 100.0);
        // quartiles of [96,98,100,102,104] are 97 and 103.
        assert!((s.spread - 0.06).abs() < 1e-12);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), 0.0);
    }
}
