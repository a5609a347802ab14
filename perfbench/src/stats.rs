//! Order statistics over measured samples.

use std::time::Duration;

/// The `q`-quantile of `samples` by the nearest-rank rule (0 when empty).
/// Sorts a copy, so callers may keep their samples in arrival order.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// The median of `samples` (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The median over slices of each slice's `q`-quantile, for samples tagged
/// with the slice of the run they fall in: a host stall inflates the slices
/// it hits, not the whole figure.
pub fn sliced_quantile(samples: &[f64], slices: &[u32], q: f64) -> f64 {
    let mut by_slice: std::collections::BTreeMap<u32, Vec<f64>> = Default::default();
    for (&sample, &slice) in samples.iter().zip(slices) {
        by_slice.entry(slice).or_default().push(sample);
    }
    let per_slice: Vec<f64> = by_slice.values().map(|v| quantile(v, q)).collect();
    median(&per_slice)
}

/// Microseconds in `d`, with sub-microsecond digits kept.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Milliseconds in `d`, with sub-millisecond digits kept.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 5.0);
        assert_eq!(quantile(&xs, 0.9), 9.0);
        assert_eq!(quantile(&xs, 1.0), 10.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        let slices = [0, 0, 0, 1, 1, 1, 2, 2, 2];
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0, 600.0, 7.0, 8.0, 9.0];
        assert_eq!(sliced_quantile(&xs, &slices, 0.5), 5.0);
    }
}
