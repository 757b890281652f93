//! Processing-time estimation used by priorities and the violation
//! checker.
//!
//! Two estimates drive QoServe's decisions (§3.4):
//!
//! 1. **Prefill time** — predictable from the remaining prompt tokens and
//!    a per-token rate derived from the latency predictor.
//! 2. **Decode time** — unknown at serving time; the paper keeps a running
//!    per-application history of generated token counts and
//!    over-approximates by two standard deviations.

use std::collections::BTreeMap;

use qoserve_perf::{BatchProfile, LatencyPredictor};
use qoserve_sim::{nums, OnlineStats, SimDuration};

use crate::job::PrefillJob;

/// Clamp on recalibration factors: observed/predicted drift outside this
/// range is treated as its nearest bound rather than trusted verbatim.
const RECALIBRATION_CLAMP: (f64, f64) = (0.5, 4.0);

/// Estimates remaining processing time for queued requests.
#[derive(Debug, Clone)]
pub struct ProcessingEstimator {
    /// Estimated prefill cost per prompt token, µs (derived from the
    /// predictor at full-chunk throughput).
    prefill_us_per_token: f64,
    /// Estimated wall-clock per decode token, µs (one iteration of a
    /// typical mixed batch produces one token per decoding request).
    decode_us_per_token: f64,
    /// Startup prefill rate the recalibration scaling is anchored to.
    base_prefill_us_per_token: f64,
    /// Startup decode rate the recalibration scaling is anchored to.
    base_decode_us_per_token: f64,
    /// Times [`recalibrate`](Self::recalibrate) actually changed the rates.
    recalibrations: u64,
    /// Fallback decode-length estimate before any history exists.
    default_decode_tokens: f64,
    /// Per-application decode-length history.
    history: BTreeMap<u32, OnlineStats>,
}

impl ProcessingEstimator {
    /// Derives per-token rates from `predictor`.
    ///
    /// * Prefill rate: a saturated 2048-token chunk amortises fixed costs,
    ///   giving the marginal cost per prompt token.
    /// * Decode rate: the iteration time of a representative mixed batch
    ///   (256-token chunk + 64 decodes at 1 k context), since each
    ///   iteration advances every decode by one token.
    ///
    /// Rates come from the *margined* [`LatencyPredictor::predict`], not
    /// the raw model output: the paper's conservative under-prediction
    /// bias must flow into priorities and violation estimates too, or the
    /// scheduler plans chunks pessimistically while judging deadlines
    /// optimistically.
    pub fn from_predictor(predictor: &LatencyPredictor) -> Self {
        let big_chunk = BatchProfile::builder().prefill_chunk(2_048, 0).build();
        let prefill_us_per_token = predictor.predict(&big_chunk).as_micros() as f64 / 2_048.0;

        let typical = BatchProfile::builder()
            .prefill_chunk(256, 0)
            .decodes(64, 64 * 1_024)
            .build();
        let decode_us_per_token = predictor.predict(&typical).as_micros() as f64;

        Self::with_rates(prefill_us_per_token, decode_us_per_token)
    }

    /// Builds an estimator with explicit rates (tests).
    pub fn with_rates(prefill_us_per_token: f64, decode_us_per_token: f64) -> Self {
        ProcessingEstimator {
            prefill_us_per_token,
            decode_us_per_token,
            base_prefill_us_per_token: prefill_us_per_token,
            base_decode_us_per_token: decode_us_per_token,
            recalibrations: 0,
            default_decode_tokens: 200.0,
            history: BTreeMap::new(),
        }
    }

    /// Rescales both per-token rates to `base × factor`, where `factor`
    /// is an observed/predicted latency ratio from the adaptive error
    /// tracker (clamped to a sane band). Scaling is *anchored at the
    /// startup rates*: repeated recalibration with the same factor is
    /// idempotent and cannot compound drift.
    pub fn recalibrate(&mut self, factor: f64) {
        if !factor.is_finite() {
            return;
        }
        let f = factor.clamp(RECALIBRATION_CLAMP.0, RECALIBRATION_CLAMP.1);
        let prefill = self.base_prefill_us_per_token * f;
        let decode = self.base_decode_us_per_token * f;
        if prefill != self.prefill_us_per_token || decode != self.decode_us_per_token {
            self.prefill_us_per_token = prefill;
            self.decode_us_per_token = decode;
            self.recalibrations += 1;
        }
    }

    /// Restores the startup rates. A no-op when never recalibrated, so
    /// calm runs stay bit-identical to a never-recalibrated estimator.
    pub fn restore_base_rates(&mut self) {
        self.prefill_us_per_token = self.base_prefill_us_per_token;
        self.decode_us_per_token = self.base_decode_us_per_token;
    }

    /// Times recalibration actually changed the rates (diagnostics).
    pub fn recalibration_count(&self) -> u64 {
        self.recalibrations
    }

    /// Records the observed decode length of a completed request.
    pub fn record_decode(&mut self, app_id: u32, decode_tokens: u32) {
        self.history
            .entry(app_id)
            .or_default()
            .push(decode_tokens as f64);
    }

    /// The paper's decode-length over-approximation for `app_id`:
    /// `mean + 2σ` from history, or the cold-start default.
    pub fn estimated_decode_tokens(&self, app_id: u32) -> f64 {
        self.history
            .get(&app_id)
            .map_or(self.default_decode_tokens, |s| {
                s.mean_plus_two_sigma_or(self.default_decode_tokens)
            })
    }

    /// Estimated time to process `tokens` of prefill.
    pub fn prefill_time(&self, tokens: u32) -> SimDuration {
        SimDuration::from_micros(nums::f64_round_to_u64(
            f64::from(tokens) * self.prefill_us_per_token,
        ))
    }

    /// Estimated time to decode `tokens` output tokens.
    pub fn decode_time(&self, tokens: f64) -> SimDuration {
        SimDuration::from_micros(nums::f64_round_to_u64(
            tokens.max(0.0) * self.decode_us_per_token,
        ))
    }

    /// Estimated end-to-end remaining time for a request of `app_id` with
    /// `prefill_remaining` prompt tokens still to run: prefill plus the
    /// estimated decode tail.
    pub fn remaining_time(&self, app_id: u32, prefill_remaining: u32) -> SimDuration {
        self.prefill_time(prefill_remaining)
            + self.decode_time(self.estimated_decode_tokens(app_id))
    }

    /// Service time of `job` if it were scheduled now, measured against
    /// its urgency deadline: the remaining prefill for interactive
    /// classes (the deadline is TTFT), prefill plus the estimated decode
    /// tail otherwise (TTLT).
    pub fn service_time(&self, job: &PrefillJob) -> SimDuration {
        if job.spec.class().is_interactive() {
            self.prefill_time(job.remaining_tokens())
        } else {
            self.remaining_time(job.spec.app_id, job.remaining_tokens())
        }
    }

    /// Prefill µs/token rate (diagnostics).
    pub fn prefill_rate_us(&self) -> f64 {
        self.prefill_us_per_token
    }

    /// Decode µs/token rate (diagnostics).
    pub fn decode_rate_us(&self) -> f64 {
        self.decode_us_per_token
    }

    /// Number of applications with recorded history.
    pub fn tracked_apps(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_perf::HardwareConfig;

    fn estimator() -> ProcessingEstimator {
        ProcessingEstimator::from_predictor(&LatencyPredictor::analytical(
            &HardwareConfig::llama3_8b_a100_tp1(),
        ))
    }

    #[test]
    fn rates_are_plausible_for_8b_a100() {
        let e = estimator();
        // Prefill: tens of µs per token (≈10-20k tokens/s saturated).
        assert!(
            (30.0..150.0).contains(&e.prefill_rate_us()),
            "prefill rate {} us/token",
            e.prefill_rate_us()
        );
        // Decode: one iteration of a typical batch, i.e. tens of ms.
        assert!(
            (10_000.0..80_000.0).contains(&e.decode_rate_us()),
            "decode rate {} us/token",
            e.decode_rate_us()
        );
    }

    #[test]
    fn cold_start_uses_default() {
        let e = estimator();
        assert_eq!(e.estimated_decode_tokens(42), 200.0);
    }

    #[test]
    fn history_mean_plus_two_sigma() {
        let mut e = ProcessingEstimator::with_rates(50.0, 30_000.0);
        for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            e.record_decode(7, v as u32);
        }
        // mean 5, sigma 2 -> 9.
        assert!((e.estimated_decode_tokens(7) - 9.0).abs() < 1e-9);
        // Other apps unaffected.
        assert_eq!(e.estimated_decode_tokens(8), 200.0);
        assert_eq!(e.tracked_apps(), 1);
    }

    #[test]
    fn time_estimates_scale_linearly() {
        let e = ProcessingEstimator::with_rates(100.0, 10_000.0);
        assert_eq!(e.prefill_time(1_000), SimDuration::from_micros(100_000));
        assert_eq!(e.decode_time(50.0), SimDuration::from_micros(500_000));
        assert_eq!(
            e.remaining_time(1, 1_000),
            SimDuration::from_micros(100_000) + e.decode_time(200.0)
        );
    }

    #[test]
    fn negative_decode_estimate_clamps() {
        let e = ProcessingEstimator::with_rates(1.0, 1.0);
        assert_eq!(e.decode_time(-5.0), SimDuration::ZERO);
    }

    #[test]
    fn rates_derive_from_margined_predictions() {
        // Satellite fix pin: `from_predictor` must include the safety
        // margin. Doubling the margin must inflate both rates — under the
        // old `predict_raw_us` derivation they were margin-invariant.
        let hw = HardwareConfig::llama3_8b_a100_tp1();
        let lean = ProcessingEstimator::from_predictor(
            &LatencyPredictor::analytical(&hw).with_margin(0.0),
        );
        let padded = ProcessingEstimator::from_predictor(
            &LatencyPredictor::analytical(&hw).with_margin(0.2),
        );
        let prefill_ratio = padded.prefill_rate_us() / lean.prefill_rate_us();
        let decode_ratio = padded.decode_rate_us() / lean.decode_rate_us();
        assert!(
            (prefill_ratio - 1.2).abs() < 0.01,
            "prefill rate must carry the margin: ratio {prefill_ratio}"
        );
        assert!(
            (decode_ratio - 1.2).abs() < 0.01,
            "decode rate must carry the margin: ratio {decode_ratio}"
        );
    }

    #[test]
    fn recalibration_is_anchored_and_idempotent() {
        let mut e = ProcessingEstimator::with_rates(100.0, 10_000.0);
        e.recalibrate(1.5);
        assert_eq!(e.prefill_rate_us(), 150.0);
        assert_eq!(e.decode_rate_us(), 15_000.0);
        assert_eq!(e.recalibration_count(), 1);
        // Same factor again: anchored scaling, no compounding, no count.
        e.recalibrate(1.5);
        assert_eq!(e.prefill_rate_us(), 150.0);
        assert_eq!(e.recalibration_count(), 1);
        // New factor scales from the base, not the current rates.
        e.recalibrate(2.0);
        assert_eq!(e.prefill_rate_us(), 200.0);
        assert_eq!(e.recalibration_count(), 2);
        e.restore_base_rates();
        assert_eq!(e.prefill_rate_us(), 100.0);
        assert_eq!(e.decode_rate_us(), 10_000.0);
    }

    #[test]
    fn recalibration_clamps_and_rejects_poison() {
        let mut e = ProcessingEstimator::with_rates(100.0, 10_000.0);
        e.recalibrate(100.0);
        assert_eq!(e.prefill_rate_us(), 400.0, "clamped to 4x");
        e.recalibrate(0.01);
        assert_eq!(e.prefill_rate_us(), 50.0, "clamped to 0.5x");
        e.recalibrate(f64::NAN);
        assert_eq!(e.prefill_rate_us(), 50.0, "NaN ignored");
    }

    #[test]
    fn restore_without_recalibration_is_a_noop() {
        let mut e = ProcessingEstimator::with_rates(100.0, 10_000.0);
        e.restore_base_rates();
        assert_eq!(e.prefill_rate_us(), 100.0);
        assert_eq!(e.recalibration_count(), 0);
    }
}
