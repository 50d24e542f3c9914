//! Order statistics over timing samples.
//!
//! [`quantile`] interpolates linearly between order statistics (the
//! "linear" rule of most numeric libraries); [`quartiles`] reproduces
//! Python's `statistics.quantiles(values, n=4)` (its default
//! "exclusive" rule) exactly, so the spreads this benchmark reports are
//! the ones a reader recomputes from the printed values.

/// Returns a sorted copy of `values` (NaN-free input assumed; NaNs sort
/// last under `total_cmp`).
#[must_use]
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values`, interpolating linearly
/// between neighbouring order statistics. `None` for an empty input.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(v[lo] + (v[hi] - v[lo]) * frac)
}

/// The median of `values`; `None` for an empty input.
#[must_use]
pub fn median(values: &[f64]) -> Option<f64> {
    quantile(values, 0.5)
}

/// The arithmetic mean; `None` for an empty input.
#[must_use]
pub fn mean(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        None
    } else {
        Some(values.iter().sum::<f64>() / values.len() as f64)
    }
}

/// The three cut points of Python's `statistics.quantiles(values, n=4)`
/// with its default exclusive method; `None` for fewer than two
/// values (Python raises there).
#[must_use]
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let n = 4usize;
    let data = sorted(values);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (i, cut) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *cut = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// The interquartile distance as a share of the median
/// (`(q3 − q1) / median`), the run-to-run spread this benchmark's
/// bounds are stated in; `None` for fewer than two values or a zero
/// median.
#[must_use]
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        assert_eq!(median(&v), Some(2.5));
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mean_of_samples() {
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some([15.0, 30.0, 45.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).unwrap();
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
