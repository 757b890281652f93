//! Streaming log-bucketed latency histogram.
//!
//! Long cluster runs produce millions of latency samples; sorting full
//! vectors per percentile query (as [`percentile`](fn@crate::percentile)
//! does) is fine for experiment post-processing but not for online
//! monitoring. [`LogHistogram`] records samples in logarithmically spaced
//! buckets — constant memory, O(1) insert, bounded relative quantile
//! error — the same trade HDR-style histograms make in production serving
//! telemetry.

/// Rejected [`LogHistogram::try_with_resolution`] parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ResolutionError {
    /// The floor was zero or negative (buckets are log-spaced, so the
    /// smallest representable value must be positive).
    NonPositiveFloor(f64),
    /// The growth factor was ≤ 1 (buckets would not grow).
    GrowthTooSmall(f64),
}

impl std::fmt::Display for ResolutionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResolutionError::NonPositiveFloor(v) => {
                write!(f, "floor must be positive (got {v})")
            }
            ResolutionError::GrowthTooSmall(v) => {
                write!(f, "growth must exceed 1 (got {v})")
            }
        }
    }
}

impl std::error::Error for ResolutionError {}

/// Rejected [`LogHistogram::try_merge`]: the operands bucket values
/// differently, so their counts are not combinable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergeError {
    /// The histograms disagree on the bucket floor.
    Floor {
        /// Receiver's floor.
        left: f64,
        /// Argument's floor.
        right: f64,
    },
    /// The histograms disagree on the growth factor.
    Growth {
        /// Receiver's growth.
        left: f64,
        /// Argument's growth.
        right: f64,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::Floor { left, right } => {
                write!(f, "floor mismatch: {left} vs {right}")
            }
            MergeError::Growth { left, right } => {
                write!(f, "growth mismatch: {left} vs {right}")
            }
        }
    }
}

impl std::error::Error for MergeError {}

/// A streaming histogram with logarithmically spaced buckets.
///
/// Values are expected in `(0, +inf)`; non-positive values clamp into the
/// first bucket. With the default `growth` of 1.05, quantile estimates
/// carry at most ~5 % relative error.
///
/// # Example
///
/// ```
/// use qoserve_metrics::LogHistogram;
///
/// let mut h = LogHistogram::new();
/// for i in 1..=1000 {
///     h.record(i as f64);
/// }
/// let p50 = h.quantile(0.5).unwrap();
/// assert!((p50 / 500.0 - 1.0).abs() < 0.06);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LogHistogram {
    /// Smallest representable value; everything below lands in bucket 0.
    floor: f64,
    /// Bucket growth factor (> 1).
    growth: f64,
    /// ln(growth), cached.
    ln_growth: f64,
    counts: Vec<u64>,
    total: u64,
    sum: f64,
    min: f64,
    max: f64,
}

qoserve_sim::json_struct!(LogHistogram {
    floor,
    growth,
    ln_growth,
    counts,
    total,
    sum,
    min,
    max
});

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// Default: 1 µs floor, 5 % buckets — spans µs to days in ~460
    /// buckets.
    pub fn new() -> Self {
        Self::with_resolution(1e-6, 1.05)
    }

    /// Custom floor and growth factor.
    ///
    /// # Panics
    ///
    /// Panics if `floor <= 0` or `growth <= 1`; use
    /// [`try_with_resolution`](Self::try_with_resolution) to handle the
    /// error instead.
    pub fn with_resolution(floor: f64, growth: f64) -> Self {
        match Self::try_with_resolution(floor, growth) {
            Ok(h) => h,
            #[expect(
                clippy::panic,
                reason = "documented `# Panics` wrapper for statically valid configs; fallible path is try_with_resolution"
            )]
            Err(e) => panic!("{e}"),
        }
    }

    /// Custom floor and growth factor, rejecting unusable parameters
    /// instead of panicking.
    pub fn try_with_resolution(floor: f64, growth: f64) -> Result<Self, ResolutionError> {
        // NaN parameters fall into the error arms too.
        if floor.is_nan() || floor <= 0.0 {
            return Err(ResolutionError::NonPositiveFloor(floor));
        }
        if growth.is_nan() || growth <= 1.0 {
            return Err(ResolutionError::GrowthTooSmall(growth));
        }
        Ok(LogHistogram {
            floor,
            growth,
            ln_growth: growth.ln(),
            counts: Vec::new(),
            total: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        })
    }

    fn bucket_of(&self, value: f64) -> usize {
        if value <= self.floor {
            return 0;
        }
        ((value / self.floor).ln() / self.ln_growth).floor() as usize + 1
    }

    /// Lower edge of bucket `i`.
    fn bucket_low(&self, i: usize) -> f64 {
        if i == 0 {
            0.0
        } else {
            self.floor * self.growth.powi(i as i32 - 1)
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: f64) {
        let idx = self.bucket_of(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.total += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Exact mean of the recorded values.
    pub fn mean(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.sum / self.total as f64)
        }
    }

    /// Exact minimum.
    pub fn min(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Exact maximum.
    pub fn max(&self) -> Option<f64> {
        if self.total == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`), within one bucket's
    /// relative error; `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = (q * (self.total - 1) as f64).round() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c > rank {
                // Geometric midpoint of the bucket, clamped to observed
                // extremes so min/max quantiles are exact.
                let low = self.bucket_low(i).max(self.min);
                let high = (self.bucket_low(i + 1)).min(self.max).max(low);
                return Some((low * high).sqrt().clamp(self.min, self.max));
            }
            seen += c;
        }
        Some(self.max)
    }

    /// Merges another histogram with identical resolution.
    ///
    /// # Panics
    ///
    /// Panics if the resolutions differ; use
    /// [`try_merge`](Self::try_merge) to handle the mismatch instead.
    #[expect(
        clippy::panic,
        reason = "documented `# Panics` wrapper for same-resolution merges; fallible path is try_merge"
    )]
    pub fn merge(&mut self, other: &LogHistogram) {
        if let Err(e) = self.try_merge(other) {
            panic!("{e}");
        }
    }

    /// Merges another histogram, failing — with `self` unchanged — when
    /// the resolutions differ (their buckets would not line up).
    pub fn try_merge(&mut self, other: &LogHistogram) -> Result<(), MergeError> {
        if self.floor != other.floor {
            return Err(MergeError::Floor {
                left: self.floor,
                right: other.floor,
            });
        }
        if self.growth != other.growth {
            return Err(MergeError::Growth {
                left: self.growth,
                right: other.growth,
            });
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        Ok(())
    }
}

impl Extend<f64> for LogHistogram {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for LogHistogram {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut h = LogHistogram::new();
        h.extend(iter);
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::percentile::percentile;
    use qoserve_sim::{forall, json, Rng, SimRng};

    #[test]
    fn empty_histogram() {
        let h = LogHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }

    #[test]
    fn single_value_is_exact() {
        let mut h = LogHistogram::new();
        h.record(42.0);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(0.0), Some(42.0));
        assert_eq!(h.quantile(1.0), Some(42.0));
        assert_eq!(h.mean(), Some(42.0));
    }

    #[test]
    fn quantiles_track_exact_within_bucket_error() {
        let values: Vec<f64> = (1..=10_000).map(|i| (i as f64).powf(1.3)).collect();
        let h: LogHistogram = values.iter().copied().collect();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = percentile(&values, q).unwrap();
            let est = h.quantile(q).unwrap();
            assert!(
                (est / exact - 1.0).abs() < 0.06,
                "q={q}: est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn non_positive_values_clamp_to_first_bucket() {
        let mut h = LogHistogram::new();
        h.record(0.0);
        h.record(-5.0);
        h.record(1.0);
        assert_eq!(h.count(), 3);
        assert!(h.quantile(0.0).unwrap() <= 0.0 + 1e-12);
    }

    #[test]
    fn merge_equals_combined_stream() {
        let xs: Vec<f64> = (1..500).map(|i| i as f64 * 0.37).collect();
        let mut a: LogHistogram = xs[..200].iter().copied().collect();
        let b: LogHistogram = xs[200..].iter().copied().collect();
        a.merge(&b);
        let combined: LogHistogram = xs.iter().copied().collect();
        assert_eq!(a, combined);
    }

    #[test]
    #[should_panic(expected = "floor mismatch")]
    fn merge_rejects_mismatched_resolution() {
        let mut a = LogHistogram::with_resolution(1e-3, 1.05);
        let b = LogHistogram::with_resolution(1e-6, 1.05);
        a.merge(&b);
    }

    #[test]
    fn try_with_resolution_reports_the_bad_parameter() {
        assert_eq!(
            LogHistogram::try_with_resolution(0.0, 1.05),
            Err(ResolutionError::NonPositiveFloor(0.0))
        );
        assert_eq!(
            LogHistogram::try_with_resolution(-2.0, 1.05),
            Err(ResolutionError::NonPositiveFloor(-2.0))
        );
        assert_eq!(
            LogHistogram::try_with_resolution(1e-6, 1.0),
            Err(ResolutionError::GrowthTooSmall(1.0))
        );
        assert!(LogHistogram::try_with_resolution(f64::NAN, 1.05).is_err());
        assert!(LogHistogram::try_with_resolution(1e-6, f64::NAN).is_err());
        assert!(LogHistogram::try_with_resolution(1e-6, 1.05).is_ok());
        let msg = LogHistogram::try_with_resolution(1e-6, 0.5)
            .unwrap_err()
            .to_string();
        assert!(msg.contains("growth must exceed 1"), "{msg}");
    }

    #[test]
    fn try_merge_fails_cleanly_and_leaves_self_unchanged() {
        let mut a = LogHistogram::with_resolution(1e-3, 1.05);
        a.record(5.0);
        let snapshot = a.clone();
        let b = LogHistogram::with_resolution(1e-6, 1.05);
        let err = a.try_merge(&b).unwrap_err();
        assert_eq!(
            err,
            MergeError::Floor {
                left: 1e-3,
                right: 1e-6
            }
        );
        assert_eq!(a, snapshot, "failed merge must not mutate the receiver");

        let c = LogHistogram::with_resolution(1e-3, 1.10);
        assert!(matches!(a.try_merge(&c), Err(MergeError::Growth { .. })));

        let mut d = LogHistogram::with_resolution(1e-3, 1.05);
        d.record(7.0);
        assert!(a.try_merge(&d).is_ok());
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn extreme_quantiles_stay_within_one_bucket_of_min_and_max() {
        // q=0 and q=1 resolve to the extreme buckets: at 5% growth the
        // estimate sits within one bucket's relative error of the true
        // extreme, and the clamp keeps it inside the observed range.
        let h: LogHistogram = (1..=1000).map(|i| i as f64 * 0.731).collect();
        let q0 = h.quantile(0.0).unwrap();
        let q1 = h.quantile(1.0).unwrap();
        assert!((0.731..=0.731 * 1.05).contains(&q0), "q0={q0}");
        assert!((731.0 / 1.05..=731.0).contains(&q1), "q1={q1}");
    }

    #[test]
    fn values_on_bucket_edges_bucket_deterministically() {
        // A value exactly at the floor lands in bucket 0 (the `<=` in
        // bucket_of); values exactly on a log-bucket edge land in a
        // single bucket, so repeated edge values never straddle two.
        let floor = 1.0;
        let growth = 2.0;
        let mut h = LogHistogram::with_resolution(floor, growth);
        h.record(floor);
        assert_eq!(h.quantile(0.5), Some(floor));

        // growth^3 = 8.0 is an exact f64, i.e. a true bucket edge.
        let mut edge = LogHistogram::with_resolution(floor, growth);
        for _ in 0..10 {
            edge.record(8.0);
        }
        // All mass in one bucket and clamped to the observed extremes:
        // every quantile is exactly the recorded edge value.
        for q in [0.0, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(edge.quantile(q), Some(8.0), "q={q}");
        }
    }

    #[test]
    fn quantile_rank_boundaries_pick_the_right_bucket() {
        // Two buckets with equal mass: the rank rounding at q=0.5 must
        // stay inside the lower bucket for an even split of 2 values.
        let mut h = LogHistogram::with_resolution(1.0, 10.0);
        h.record(2.0); // bucket for (1, 10]
        h.record(200.0); // bucket for (100, 1000]
        let q0 = h.quantile(0.0).unwrap();
        let q1 = h.quantile(1.0).unwrap();
        assert!((2.0..10.0).contains(&q0), "q0={q0}");
        assert!((100.0..=200.0).contains(&q1), "q1={q1}");
        // rank(0.49) = round(0.49 * 1) = 0 -> lower bucket; rank(0.51)
        // rounds to 1 -> upper bucket.
        assert!(h.quantile(0.49).unwrap() < 100.0);
        assert!(h.quantile(0.51).unwrap() > 100.0);
    }

    #[test]
    fn histogram_json_round_trip_preserves_quantiles() {
        let h: LogHistogram = (1..=500).map(|i| (i as f64).sqrt()).collect();
        let text = json::to_string(&h);
        let back: LogHistogram = json::from_str(&text).expect("deserialize");
        assert_eq!(h, back);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), back.quantile(q), "q={q}");
        }
        // The empty histogram's ±∞ extremes survive too.
        let empty = LogHistogram::new();
        assert_eq!(json::from_str(&json::to_string(&empty)), Ok(empty));
    }

    fn samples(rng: &mut SimRng, lo: f64, hi: f64, len: std::ops::Range<usize>) -> Vec<f64> {
        let n = rng.gen_range(len);
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    #[test]
    fn quantile_within_observed_range() {
        forall(256, 1, |rng| {
            let xs = samples(rng, 1e-6, 1e6, 1..300);
            let q = rng.gen_range(0.0..1.0);
            let h: LogHistogram = xs.iter().copied().collect();
            let v = h.quantile(q).unwrap();
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!(
                v >= min - 1e-9 && v <= max + 1e-9,
                "{v} not in [{min}, {max}]"
            );
        });
    }

    #[test]
    fn quantile_monotone_in_q() {
        forall(256, 2, |rng| {
            let xs = samples(rng, 1e-3, 1e5, 2..300);
            let h: LogHistogram = xs.iter().copied().collect();
            let q25 = h.quantile(0.25).unwrap();
            let q75 = h.quantile(0.75).unwrap();
            assert!(q25 <= q75 + 1e-9);
        });
    }

    #[test]
    fn count_and_mean_are_exact() {
        forall(256, 3, |rng| {
            let xs = samples(rng, 1e-3, 1e5, 1..200);
            let h: LogHistogram = xs.iter().copied().collect();
            assert_eq!(h.count(), xs.len() as u64);
            let exact = xs.iter().sum::<f64>() / xs.len() as f64;
            assert!((h.mean().unwrap() - exact).abs() < 1e-6 * exact.abs().max(1.0));
        });
    }
}
