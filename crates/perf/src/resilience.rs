//! Online misprediction tracking and the adaptive safety margin.
//!
//! The static predictor margin
//! ([`LatencyPredictor::DEFAULT_MARGIN`](crate::LatencyPredictor::DEFAULT_MARGIN))
//! encodes an *offline* belief about model error. Under injected faults
//! that belief goes stale: straggler and predictor-drift windows inflate
//! observed iteration latency while the predictor keeps quoting clean
//! numbers, so dynamic chunking over-commits and decode deadlines start
//! slipping. This module closes the loop:
//!
//! * [`ErrorTracker`] — a deterministic fixed-size ring of
//!   observed/predicted iteration-latency ratios with windowed quantile
//!   extraction (sorting through [`sort_f64`], so NaNs cannot poison the
//!   order or panic).
//! * [`AdaptiveMargin`] — consumes the tracker: widens the margin when the
//!   upper-quantile ratio escapes the current margin's cover, decays
//!   linearly back to the base margin when calm, and — under *sustained*
//!   gross error — recommends a hard fallback from the forest to the
//!   analytical predictor. New margins land on a quantization grid
//!   anchored at the base margin, so the calm state is *exactly* the base
//!   margin (fault-free runs stay bit-identical to the static pipeline)
//!   and the chunk-budget memo sees few distinct margin keys.
//!
//! Everything here is pure state-machine arithmetic on recorded samples:
//! no clocks, no randomness, no hashing — replays are bit-identical.

use qoserve_sim::float::sort_f64;

/// Maximum ring capacity accepted by [`ErrorTracker::with_capacity`];
/// quantile extraction copies and sorts the window, so unbounded windows
/// would turn every update into a large sort.
const MAX_WINDOW: usize = 4_096;

/// Windowed online quantiles of observed/predicted latency ratios.
///
/// A fixed-size ring: recording the `capacity + 1`-th sample overwrites
/// the oldest. Ratios are dimensionless (`observed_us / predicted_us`);
/// 1.0 means the predictor was exact, above 1.0 means under-prediction.
///
/// # Example
///
/// ```
/// use qoserve_perf::ErrorTracker;
///
/// let mut t = ErrorTracker::with_capacity(8);
/// for observed in [102.0, 98.0, 101.0, 250.0] {
///     t.record(100.0, observed);
/// }
/// // The straggler outlier lives in the upper tail, not the median.
/// assert!(t.quantile(0.5).unwrap() < 1.1);
/// assert!(t.quantile(0.95).unwrap() > 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct ErrorTracker {
    ring: Vec<f64>,
    capacity: usize,
    cursor: usize,
    total: u64,
}

impl ErrorTracker {
    /// Default window: enough samples to see through one straggler window
    /// (tens of iterations) without remembering stale epochs forever.
    pub const DEFAULT_WINDOW: usize = 64;

    /// Creates a tracker with the default window.
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_WINDOW)
    }

    /// Creates a tracker holding the last `capacity` ratios (clamped to
    /// `1..=4096`).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.clamp(1, MAX_WINDOW);
        ErrorTracker {
            ring: Vec::with_capacity(capacity),
            capacity,
            cursor: 0,
            total: 0,
        }
    }

    /// Records one `(predicted, observed)` pair in microseconds. Pairs
    /// with a non-positive or non-finite prediction carry no information
    /// and are dropped rather than poisoning the window.
    pub fn record(&mut self, predicted_us: f64, observed_us: f64) {
        if predicted_us.is_nan()
            || predicted_us <= 0.0
            || !observed_us.is_finite()
            || observed_us < 0.0
        {
            return;
        }
        self.push_ratio(observed_us / predicted_us);
    }

    /// Records a pre-computed ratio (tests and property checks).
    pub fn push_ratio(&mut self, ratio: f64) {
        if !ratio.is_finite() || ratio < 0.0 {
            return;
        }
        if self.ring.len() < self.capacity {
            self.ring.push(ratio);
        } else {
            self.ring[self.cursor] = ratio;
        }
        self.cursor = (self.cursor + 1) % self.capacity;
        self.total += 1;
    }

    /// Samples currently in the window.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no sample has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Total samples ever recorded (including overwritten ones).
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// The `q`-quantile (0.0–1.0, nearest-rank) of the windowed ratios;
    /// `None` when the window is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.ring.is_empty() {
            return None;
        }
        let mut scratch = self.ring.clone();
        sort_f64(&mut scratch);
        let q = q.clamp(0.0, 1.0);
        #[expect(
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss,
            reason = "lossy-cast debt: route through `qoserve_sim::nums`"
        )]
        let rank = ((scratch.len() as f64 - 1.0) * q).round() as usize;
        Some(scratch[rank.min(scratch.len() - 1)])
    }

    /// Median ratio of the window (`quantile(0.5)`).
    pub fn median(&self) -> Option<f64> {
        self.quantile(0.5)
    }
}

impl Default for ErrorTracker {
    fn default() -> Self {
        Self::new()
    }
}

/// Tuning of the adaptive margin controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptiveMarginConfig {
    /// Margin the controller decays back to when calm — normally the
    /// predictor's static margin. The quantization grid is anchored here,
    /// so "calm" is *exactly* the base margin.
    pub base: f64,
    /// Upper bound for the widened margin.
    pub max: f64,
    /// Quantile of the tracked ratio used as the under-prediction signal.
    pub quantile: f64,
    /// Extra cover added on top of the observed quantile when widening.
    pub headroom: f64,
    /// Quantization step for new margins (grid anchored at `base`).
    pub step: f64,
    /// Linear decay per update while calm.
    pub decay: f64,
    /// Minimum samples in the tracker before any adaptation fires.
    pub min_samples: usize,
    /// Recorded samples between controller updates.
    pub update_every: u32,
    /// Ring capacity of the embedded [`ErrorTracker`].
    pub window: usize,
    /// Median ratio above which an update counts toward the forest →
    /// analytical fallback.
    pub fallback_threshold: f64,
    /// Consecutive over-threshold updates before the fallback engages.
    pub fallback_patience: u32,
    /// Dead band around 1.0 within which the median ratio is treated as
    /// "no drift" and no estimator recalibration is recommended.
    pub recalibration_deadband: f64,
}

impl Default for AdaptiveMarginConfig {
    fn default() -> Self {
        AdaptiveMarginConfig {
            base: 0.08,
            max: 1.0,
            quantile: 0.9,
            headroom: 0.04,
            step: 1.0 / 128.0,
            decay: 0.02,
            min_samples: 16,
            update_every: 8,
            window: ErrorTracker::DEFAULT_WINDOW,
            fallback_threshold: 1.5,
            fallback_patience: 4,
            recalibration_deadband: 0.05,
        }
    }
}

impl AdaptiveMarginConfig {
    /// The default configuration re-anchored at `base` (normally the
    /// predictor's static margin, so calm behaviour is bit-identical to
    /// the static pipeline).
    pub fn anchored_at(base: f64) -> Self {
        AdaptiveMarginConfig {
            base: base.max(0.0),
            ..AdaptiveMarginConfig::default()
        }
    }
}

/// The adaptive-margin controller: an [`ErrorTracker`] plus the
/// widen/decay/fallback state machine driven by it.
///
/// Invariants (pinned by property tests):
///
/// * the margin never drops below `config.base` and never exceeds just
///   above `config.max` (one quantization step of slop at the clamp);
/// * for a fixed update schedule, the margin is monotone in the observed
///   ratios — larger observed error never yields a smaller margin;
/// * under zero drift (ratios ≤ 1 + base) the margin converges back to
///   *exactly* `config.base` within `(max - base) / decay` updates.
#[derive(Debug, Clone)]
pub struct AdaptiveMargin {
    config: AdaptiveMarginConfig,
    tracker: ErrorTracker,
    margin: f64,
    since_update: u32,
    over_threshold_streak: u32,
    fallback_engaged: bool,
    widenings: u64,
}

impl AdaptiveMargin {
    /// Creates the controller at its base margin.
    pub fn new(config: AdaptiveMarginConfig) -> Self {
        let tracker = ErrorTracker::with_capacity(config.window);
        AdaptiveMargin {
            margin: config.base,
            config,
            tracker,
            since_update: 0,
            over_threshold_streak: 0,
            fallback_engaged: false,
            widenings: 0,
        }
    }

    /// The active margin.
    pub fn current(&self) -> f64 {
        self.margin
    }

    /// The controller configuration.
    pub fn config(&self) -> &AdaptiveMarginConfig {
        &self.config
    }

    /// Read access to the embedded tracker.
    pub fn tracker(&self) -> &ErrorTracker {
        &self.tracker
    }

    /// Whether sustained gross error has engaged the forest → analytical
    /// fallback recommendation. Sticky once set: a predictor bad enough to
    /// trip the patience threshold is not trusted again this run.
    pub fn fallback_engaged(&self) -> bool {
        self.fallback_engaged
    }

    /// Times the margin was widened (diagnostics).
    pub fn widenings(&self) -> u64 {
        self.widenings
    }

    /// Rate-recalibration recommendation from the tracker: the median
    /// observed/predicted ratio when it sits outside the dead band,
    /// `None` while drift is indistinguishable from noise. Callers apply
    /// it via `ProcessingEstimator::recalibrate` (anchored scaling, so
    /// repeated application does not compound).
    pub fn recalibration_factor(&self) -> Option<f64> {
        if self.tracker.len() < self.config.min_samples {
            return None;
        }
        let median = self.tracker.median()?;
        if (median - 1.0).abs() > self.config.recalibration_deadband {
            Some(median)
        } else {
            None
        }
    }

    /// Records one `(predicted, observed)` pair and runs the controller
    /// every `update_every` samples. Returns `true` when an update ran
    /// (the caller should then re-read [`current`](Self::current) and
    /// [`fallback_engaged`](Self::fallback_engaged)).
    pub fn record(&mut self, predicted_us: f64, observed_us: f64) -> bool {
        self.tracker.record(predicted_us, observed_us);
        self.since_update += 1;
        if self.since_update < self.config.update_every.max(1) {
            return false;
        }
        self.since_update = 0;
        self.update();
        true
    }

    /// One controller step against the current tracker window.
    fn update(&mut self) {
        if self.tracker.len() < self.config.min_samples {
            return;
        }
        let Some(q) = self.tracker.quantile(self.config.quantile) else {
            return;
        };

        // Fallback bookkeeping runs on the median: a heavy upper tail is a
        // straggler, a displaced *median* is a broken predictor.
        match self.tracker.median() {
            Some(m) if m > self.config.fallback_threshold => {
                self.over_threshold_streak += 1;
                if self.over_threshold_streak >= self.config.fallback_patience.max(1) {
                    self.fallback_engaged = true;
                }
            }
            _ => self.over_threshold_streak = 0,
        }

        if q <= 1.0 + self.config.base {
            // Calm: decay linearly toward — and exactly onto — the base.
            self.margin = self.quantize(self.margin - self.config.decay);
        } else {
            // Under-prediction escaped the base cover: widen so the
            // observed quantile plus headroom fits; never narrow here.
            // (Widening only when the *current* margin is escaped would
            // break trajectory monotonicity: a run with slightly smaller
            // errors could overshoot one with larger errors by the
            // headroom. Keying the branch on the base keeps the margin a
            // pointwise-monotone function of the observed ratios.)
            let target = (q - 1.0 + self.config.headroom).min(self.config.max);
            let widened = self.quantize(target.max(self.margin));
            if widened > self.margin {
                self.widenings += 1;
            }
            self.margin = widened;
        }
    }

    /// Snaps a margin onto the grid anchored at `base`, clamped to
    /// `[base, max + step)`.
    fn quantize(&self, m: f64) -> f64 {
        let step = self.config.step.max(1e-6);
        let steps = ((m - self.config.base) / step).round().max(0.0);
        let q = self.config.base + steps * step;
        if q > self.config.max + step {
            self.config.max
        } else {
            q
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tracker_ring_overwrites_oldest() {
        let mut t = ErrorTracker::with_capacity(4);
        for r in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0] {
            t.push_ratio(r);
        }
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_recorded(), 6);
        // Window is {3, 4, 5, 6}.
        assert_eq!(t.quantile(0.0), Some(3.0));
        assert_eq!(t.quantile(1.0), Some(6.0));
    }

    #[test]
    fn tracker_rejects_poisoned_samples() {
        let mut t = ErrorTracker::new();
        t.record(0.0, 100.0);
        t.record(-5.0, 100.0);
        t.record(f64::NAN, 100.0);
        t.record(100.0, f64::NAN);
        t.record(100.0, -1.0);
        t.push_ratio(f64::INFINITY);
        assert!(t.is_empty());
        assert_eq!(t.quantile(0.5), None);
    }

    #[test]
    fn quantiles_are_deterministic_nearest_rank() {
        let mut t = ErrorTracker::with_capacity(16);
        for r in [1.0, 1.1, 1.2, 1.3, 1.4] {
            t.push_ratio(r);
        }
        assert_eq!(t.quantile(0.5), Some(1.2));
        assert_eq!(t.median(), Some(1.2));
        assert_eq!(t.quantile(0.0), Some(1.0));
        assert_eq!(t.quantile(1.0), Some(1.4));
    }

    fn drive(am: &mut AdaptiveMargin, ratio: f64, samples: usize) {
        for _ in 0..samples {
            am.record(100.0, ratio * 100.0);
        }
    }

    #[test]
    fn margin_stays_at_base_under_noise() {
        let mut am = AdaptiveMargin::new(AdaptiveMarginConfig::default());
        // 2 % noise around exactness: comfortably inside the 8 % base.
        for i in 0..200 {
            let r = if i % 2 == 0 { 0.98 } else { 1.02 };
            am.record(100.0, r * 100.0);
        }
        assert_eq!(am.current(), am.config().base);
        assert!(!am.fallback_engaged());
        assert_eq!(am.widenings(), 0);
        assert_eq!(am.recalibration_factor(), None);
    }

    #[test]
    fn margin_widens_under_sustained_underprediction() {
        let mut am = AdaptiveMargin::new(AdaptiveMarginConfig::default());
        drive(&mut am, 1.4, 64);
        assert!(
            am.current() >= 0.4,
            "a sustained 1.4x ratio must widen past 40 %, got {}",
            am.current()
        );
        assert!(am.current() <= am.config().max + am.config().step);
        assert!(am.widenings() > 0);
        // 1.4 is gross drift but below the 1.5 fallback threshold.
        assert!(!am.fallback_engaged());
        assert_eq!(am.recalibration_factor(), Some(1.4));
    }

    #[test]
    fn margin_decays_back_to_base_exactly() {
        let mut am = AdaptiveMargin::new(AdaptiveMarginConfig::default());
        drive(&mut am, 1.6, 64);
        assert!(am.current() > am.config().base);
        // Calm traffic: enough updates to walk the whole range down.
        drive(&mut am, 1.0, 8 * 64 * 2);
        assert_eq!(am.current(), am.config().base, "must land exactly on base");
    }

    #[test]
    fn fallback_engages_on_sustained_gross_error_and_sticks() {
        let mut am = AdaptiveMargin::new(AdaptiveMarginConfig::default());
        drive(&mut am, 2.0, 64 * 2);
        assert!(
            am.fallback_engaged(),
            "a sustained 2x median must fall back"
        );
        drive(&mut am, 1.0, 64 * 4);
        assert!(am.fallback_engaged(), "fallback is sticky");
    }

    #[test]
    fn quantization_is_anchored_at_base() {
        let am = AdaptiveMargin::new(AdaptiveMarginConfig::default());
        let step = am.config().step;
        let base = am.config().base;
        assert_eq!(am.quantize(base), base);
        let q = am.quantize(base + 2.6 * step);
        assert_eq!(q, base + 3.0 * step);
        assert!(am.quantize(base - 1.0) >= base, "never below base");
    }

    #[test]
    fn no_adaptation_before_min_samples() {
        let mut am = AdaptiveMargin::new(AdaptiveMarginConfig::default());
        drive(&mut am, 3.0, 8);
        assert_eq!(am.current(), am.config().base);
        assert_eq!(am.recalibration_factor(), None);
    }

    #[test]
    fn anchored_config_rebases() {
        let c = AdaptiveMarginConfig::anchored_at(0.12);
        assert_eq!(c.base, 0.12);
        assert_eq!(c.max, AdaptiveMarginConfig::default().max);
        assert_eq!(AdaptiveMarginConfig::anchored_at(-3.0).base, 0.0);
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use qoserve_sim::{forall, Rng, SimRng};

    /// `len` ratios drawn uniformly from `lo..hi`.
    fn ratios(rng: &mut SimRng, lo: f64, hi: f64, len: usize) -> Vec<f64> {
        (0..len).map(|_| rng.gen_range(lo..hi)).collect()
    }

    /// Satellite invariant: the margin is a pointwise-monotone function
    /// of the observed error — a run that observes ratio sequence `b`
    /// dominating `a` pointwise never ends up with a smaller margin at
    /// any step.
    #[test]
    fn margin_is_monotone_in_observed_error() {
        forall(64, 1, |rng| {
            let len = rng.gen_range(1..300);
            let ratios = ratios(rng, 0.5, 3.0, len);
            let bumps = self::ratios(rng, 0.0, 1.5, 300);
            let mut a = AdaptiveMargin::new(AdaptiveMarginConfig::default());
            let mut b = AdaptiveMargin::new(AdaptiveMarginConfig::default());
            for (i, &r) in ratios.iter().enumerate() {
                a.record(100.0, r * 100.0);
                b.record(100.0, (r + bumps[i]) * 100.0);
                assert!(
                    b.current() >= a.current(),
                    "step {i}: dominated run has margin {} > {}",
                    a.current(),
                    b.current()
                );
            }
        });
    }

    /// Satellite invariant: under zero drift the margin converges back to
    /// *exactly* the base margin, whatever happened before.
    #[test]
    fn margin_converges_to_base_under_zero_drift() {
        forall(64, 2, |rng| {
            let len = rng.gen_range(0..200);
            let mut am = AdaptiveMargin::new(AdaptiveMarginConfig::default());
            for r in ratios(rng, 0.1, 4.0, len) {
                am.record(100.0, r * 100.0);
            }
            // Calm traffic: flush the window, then walk the margin down.
            for _ in 0..2_000 {
                am.record(100.0, 100.0);
            }
            assert_eq!(am.current(), am.config().base);
        });
    }

    /// The margin never leaves `[base, max + step]` and never panics,
    /// whatever (finite, non-negative) ratios are observed.
    #[test]
    fn margin_stays_bounded() {
        forall(64, 3, |rng| {
            let len = rng.gen_range(0..500);
            let mut am = AdaptiveMargin::new(AdaptiveMarginConfig::default());
            for r in ratios(rng, 0.0, 50.0, len) {
                am.record(100.0, r * 100.0);
                let c = am.config();
                assert!(am.current() >= c.base);
                assert!(am.current() <= c.max + c.step);
            }
        });
    }
}
