//! Quartiles over a run's samples.

/// `(q1, median, q3)` of `values`, by the rule of Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what
/// the driver computes run-to-run spreads with. One value is its own
/// quartiles. Panics on an empty slice: every metric has a sample.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m == 1 {
        return (v[0], v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3,1,2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1,2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1,2,4,8,16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0, 8.0, 16.0]), (1.5, 4.0, 12.0));
    }

    #[test]
    fn order_does_not_matter_and_a_single_value_is_its_own_quartiles() {
        assert_eq!(quartiles(&[9.0, 1.0, 5.0]).1, 5.0);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]).1, 2.5);
        assert_eq!(quartiles(&[7.5]), (7.5, 7.5, 7.5));
    }
}
