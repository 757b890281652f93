//! Online statistics (Welford) used across the workspace.
//!
//! QoServe's non-interactive priority term needs a *running* per-application
//! estimate of decode length (`mean + 2σ`, §3.4 of the paper); this module
//! provides the numerically stable accumulator behind it.

/// Numerically stable online mean/variance accumulator (Welford's method).
///
/// # Example
///
/// ```
/// use qoserve_sim::OnlineStats;
///
/// let mut s = OnlineStats::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

crate::json_struct!(OnlineStats {
    count,
    mean,
    m2,
    min,
    max
});

/// The empty accumulator, the same as [`OnlineStats::new`].
impl Default for OnlineStats {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when no observations have been added.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Arithmetic mean; zero when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (divides by `n`); zero when fewer than two
    /// observations.
    pub fn population_variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn population_std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// The paper's over-approximation for unknown decode length:
    /// `mean + 2 * σ` (population), or `fallback` when empty.
    pub fn mean_plus_two_sigma_or(&self, fallback: f64) -> f64 {
        if self.count == 0 {
            fallback
        } else {
            self.mean + 2.0 * self.population_std_dev()
        }
    }

    /// Smallest observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.min)
        }
    }

    /// Largest observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.max)
        }
    }

    /// Merges another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for OnlineStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for x in iter {
            self.push(x);
        }
    }
}

impl FromIterator<f64> for OnlineStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = OnlineStats::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn empty_stats_are_safe() {
        let s = OnlineStats::new();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
        assert_eq!(s.mean_plus_two_sigma_or(42.0), 42.0);
    }

    #[test]
    fn single_observation() {
        let s: OnlineStats = [5.0].into_iter().collect();
        assert_eq!(s.mean(), 5.0);
        assert_eq!(s.population_variance(), 0.0);
        assert_eq!(s.min(), Some(5.0));
        assert_eq!(s.max(), Some(5.0));
    }

    #[test]
    fn known_variance() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert!((s.population_variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn mean_plus_two_sigma() {
        let s: OnlineStats = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert!((s.mean_plus_two_sigma_or(0.0) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0 + 3.0).collect();
        let seq: OnlineStats = xs.iter().copied().collect();
        let mut a: OnlineStats = xs[..37].iter().copied().collect();
        let b: OnlineStats = xs[37..].iter().copied().collect();
        a.merge(&b);
        assert_eq!(a.count(), seq.count());
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.population_variance() - seq.population_variance()).abs() < 1e-9);
        assert_eq!(a.min(), seq.min());
        assert_eq!(a.max(), seq.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: OnlineStats = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&OnlineStats::new());
        assert_eq!(s, before);

        let mut e = OnlineStats::new();
        e.merge(&before);
        assert_eq!(e, before);
    }

    #[test]
    fn default_is_the_empty_accumulator() {
        assert_eq!(OnlineStats::default(), OnlineStats::new());
        let mut from_default = OnlineStats::default();
        from_default.push(3.0);
        assert_eq!(from_default.min(), Some(3.0));
    }

    #[test]
    fn empty_and_full_accumulators_round_trip_through_json() {
        for s in [OnlineStats::new(), [1.5, -2.0, 7.25].into_iter().collect()] {
            let text = crate::json::to_string(&s);
            assert_eq!(crate::json::from_str::<OnlineStats>(&text), Ok(s), "{text}");
        }
    }

    fn vec_in(rng: &mut crate::SimRng, lo: f64, hi: f64, len: std::ops::Range<usize>) -> Vec<f64> {
        let n = rng.gen_range(len);
        (0..n).map(|_| rng.gen_range(lo..hi)).collect()
    }

    #[test]
    fn variance_is_never_negative() {
        crate::forall(256, 1, |rng| {
            let xs = vec_in(rng, -1e6, 1e6, 0..200);
            let s: OnlineStats = xs.iter().copied().collect();
            assert!(s.population_variance() >= 0.0);
        });
    }

    #[test]
    fn mean_within_min_max() {
        crate::forall(256, 2, |rng| {
            let xs = vec_in(rng, -1e6, 1e6, 1..200);
            let s: OnlineStats = xs.iter().copied().collect();
            let min = s.min().unwrap();
            let max = s.max().unwrap();
            assert!(s.mean() >= min - 1e-9);
            assert!(s.mean() <= max + 1e-9);
        });
    }

    #[test]
    fn merge_is_order_insensitive() {
        crate::forall(256, 3, |rng| {
            let xs = vec_in(rng, -1e3, 1e3, 1..100);
            let ys = vec_in(rng, -1e3, 1e3, 1..100);
            let sa: OnlineStats = xs.iter().copied().collect();
            let sb: OnlineStats = ys.iter().copied().collect();
            let mut ab = sa;
            ab.merge(&sb);
            let mut ba = sb;
            ba.merge(&sa);
            assert!((ab.mean() - ba.mean()).abs() < 1e-9);
            assert!((ab.population_variance() - ba.population_variance()).abs() < 1e-6);
        });
    }
}
