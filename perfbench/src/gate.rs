//! The regression rule the bounds exist for: a change's median may be worse
//! than the parent's median by at most the metric's bound, as a share of
//! the parent's median.  The spread of one set of runs is its interquartile
//! range as a share of its median.

use crate::spec::{Better, Metric};

/// How much worse `change` is than `parent`, as a share of the parent's
/// median (negative when it is better).
pub fn worsening(metric: &Metric, parent: &[f64], change: &[f64]) -> f64 {
    let (p, c) = (quartiles(parent)[1], quartiles(change)[1]);
    match metric.better {
        Better::Lower => (c - p) / p,
        Better::Higher => (p - c) / p,
    }
}

/// Whether `change` stays within `metric`'s bound of `parent`.  Ungated
/// metrics always pass.
pub fn within_bound(metric: &Metric, parent: &[f64], change: &[f64]) -> bool {
    metric.bound.is_none_or(|b| worsening(metric, parent, change) <= b)
}

/// First quartile, median and third quartile, placed as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) places them.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        return [v.first().copied().unwrap_or(f64::NAN); 3];
    }
    // Position j(n+1)/4, 1-based, clamped to the data; like Python, the
    // weight is taken from the unclamped position (extrapolating at the ends).
    let quantile = |j: usize| {
        let pos = (j * (n + 1)) as i64;
        let k = (pos / 4).clamp(1, n as i64 - 1);
        let delta = (pos - 4 * k) as f64;
        let k = k as usize;
        (v[k - 1] * (4.0 - delta) + v[k] * delta) / 4.0
    };
    [quantile(1), quantile(2), quantile(3)]
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::END_TO_END;

    fn metric(name: &str) -> Metric {
        *END_TO_END.iter().find(|m| m.name == name).expect("known metric")
    }

    #[test]
    fn identical_sets_pass_and_a_slowdown_past_the_bound_fails() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0];
        let lat = metric("setup_s");
        let past = 1.0 + lat.bound.expect("gated") + 0.01;
        assert!(within_bound(&lat, &base, &base));
        let slow: Vec<f64> = base.iter().map(|x| x * past).collect();
        assert!(!within_bound(&lat, &base, &slow));
        let tput = metric("options_per_s");
        let past = 1.0 - tput.bound.expect("gated") - 0.01;
        let fewer: Vec<f64> = base.iter().map(|x| x * past).collect();
        assert!(!within_bound(&tput, &base, &fewer));
        assert!(within_bound(&tput, &fewer, &base));
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let want = (8.25 - 2.75) / 5.5;
        assert!((spread(&v) - want).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
    }
}
