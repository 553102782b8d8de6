//! Order statistics over timing samples.

/// Median of `xs` (the mean of the two middle values for an even count).
/// Returns `NaN` for an empty slice, which the output layer rejects.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Mean of `xs` (`NaN` when empty).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linearly interpolated quantile `q ∈ [0, 1]` (`NaN` when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let sorted = sorted(xs);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The tail of a latency sample: the highest order statistic with at
/// least ten samples above it, as `(value, percentile)`. With eleven or
/// fewer samples no such statistic exists and the maximum is reported
/// as the 100th percentile.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    const BEYOND: usize = 10;
    let sorted = sorted(xs);
    let n = sorted.len();
    if n <= BEYOND {
        return (sorted.last().copied().unwrap_or(f64::NAN), 100.0);
    }
    let idx = n - 1 - BEYOND;
    (sorted[idx], 100.0 * (idx + 1) as f64 / n as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, pct) = tail(&xs);
        assert_eq!(value, 30.0);
        assert_eq!(pct, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(tail(&[2.0, 1.0]), (2.0, 100.0));
    }
}
