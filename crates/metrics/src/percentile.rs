//! Percentile computation and latency summaries.

/// Linearly interpolated percentile of `values` (need not be sorted;
/// `p` in `[0, 1]`). Returns `None` on an empty slice.
///
/// # Example
///
/// ```
/// use qoserve_metrics::percentile;
/// let xs = vec![1.0, 2.0, 3.0, 4.0];
/// assert_eq!(percentile(&xs, 0.5), Some(2.5));
/// assert_eq!(percentile(&xs, 0.0), Some(1.0));
/// assert_eq!(percentile(&xs, 1.0), Some(4.0));
/// ```
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let p = p.clamp(0.0, 1.0);
    // total_cmp, not partial_cmp: a NaN-swallowing comparator is not a
    // strict weak order and can silently corrupt the sort.
    let mut sorted: Vec<f64> = values.to_vec();
    qoserve_sim::float::sort_f64(&mut sorted);
    let rank = p * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = rank - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Summary statistics of a latency sample in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Sample size.
    pub count: usize,
    /// Mean latency, seconds.
    pub mean: f64,
    /// Median latency, seconds.
    pub p50: f64,
    /// 95th percentile, seconds.
    pub p95: f64,
    /// 99th percentile, seconds.
    pub p99: f64,
    /// Maximum, seconds.
    pub max: f64,
}

impl LatencySummary {
    /// Summarises latencies given in seconds. Empty input yields an
    /// all-zero summary with `count == 0`.
    pub fn of_seconds(secs: &[f64]) -> Self {
        if secs.is_empty() {
            return LatencySummary::default();
        }
        LatencySummary {
            count: secs.len(),
            mean: secs.iter().sum::<f64>() / secs.len() as f64,
            p50: percentile(secs, 0.50).unwrap_or(0.0),
            p95: percentile(secs, 0.95).unwrap_or(0.0),
            p99: percentile(secs, 0.99).unwrap_or(0.0),
            max: secs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_sim::{forall, Rng, SimRng};

    #[test]
    fn empty_is_none() {
        assert_eq!(percentile(&[], 0.5), None);
        let s = LatencySummary::of_seconds(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
    }

    #[test]
    fn single_value() {
        assert_eq!(percentile(&[7.0], 0.0), Some(7.0));
        assert_eq!(percentile(&[7.0], 0.99), Some(7.0));
    }

    #[test]
    fn interpolation() {
        let xs = [10.0, 20.0];
        assert_eq!(percentile(&xs, 0.5), Some(15.0));
        assert_eq!(percentile(&xs, 0.25), Some(12.5));
    }

    #[test]
    fn unsorted_input_is_fine() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&xs, 0.5), Some(3.0));
    }

    #[test]
    fn p_is_clamped() {
        let xs = [1.0, 2.0];
        assert_eq!(percentile(&xs, -1.0), Some(1.0));
        assert_eq!(percentile(&xs, 2.0), Some(2.0));
    }

    #[test]
    fn summary_of_durations() {
        let secs: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = LatencySummary::of_seconds(&secs);
        assert_eq!(s.count, 100);
        assert!((s.p50 - 50.5).abs() < 1e-9);
        assert!((s.mean - 50.5).abs() < 1e-9);
        assert_eq!(s.max, 100.0);
        assert!(s.p99 > s.p95 && s.p95 > s.p50);
    }

    fn samples(rng: &mut SimRng) -> Vec<f64> {
        let n = rng.gen_range(1..100);
        (0..n).map(|_| rng.gen_range(0.0..1e6)).collect()
    }

    #[test]
    fn percentile_is_within_range() {
        forall(256, 1, |rng| {
            let xs = samples(rng);
            let p = rng.gen_range(0.0..1.0);
            let v = percentile(&xs, p).unwrap();
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(v >= min - 1e-9 && v <= max + 1e-9);
        });
    }

    #[test]
    fn percentile_is_monotone_in_p() {
        forall(256, 2, |rng| {
            let xs = samples(rng);
            let p50 = percentile(&xs, 0.5).unwrap();
            let p90 = percentile(&xs, 0.9).unwrap();
            let p99 = percentile(&xs, 0.99).unwrap();
            assert!(p50 <= p90 + 1e-9);
            assert!(p90 <= p99 + 1e-9);
        });
    }
}
