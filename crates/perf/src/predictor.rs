//! Runtime latency prediction and the dynamic-chunk budget search.
//!
//! [`LatencyPredictor`] is what the scheduler consults every iteration. It
//! comes in two flavours: the trained random forest (the paper's deployed
//! configuration) and the raw analytical model (exact, useful for fast
//! simulation sweeps and as an oracle in tests). Both apply a configurable
//! *safety margin* that inflates predictions, implementing the paper's
//! "err on the side of under-predicting chunk size" tuning.
//!
//! [`ChunkBudget`] is `GET_PREFILL_BUDGET` from Algorithm 1: given the
//! decode pool and the minimum slack across decoding requests, find the
//! largest prefill chunk whose predicted iteration latency still fits.

use std::cell::RefCell;

use qoserve_sim::{nums, SeedStream, SimDuration};
use qoserve_trace::{TraceEvent, Tracer};

use crate::analytical::LatencyModel;
use crate::batch::BatchProfile;
use crate::forest::{RandomForest, RandomForestConfig};
use crate::hardware::HardwareConfig;
use crate::profiler::{Profiler, ProfilerConfig};

/// Which estimator backs a [`LatencyPredictor`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PredictorKind {
    /// The calibrated analytical model (exact w.r.t. the simulator's ground
    /// truth, minus execution noise).
    Analytical,
    /// The random forest trained on profiler samples — the paper's setup.
    Forest,
}

/// Batch latency estimator with a safety margin.
#[derive(Debug, Clone)]
pub struct LatencyPredictor {
    backend: Backend,
    /// Multiplicative inflation applied to every prediction (0.08 = +8 %).
    margin: f64,
}

#[derive(Debug, Clone)]
enum Backend {
    Analytical(LatencyModel),
    Forest {
        forest: RandomForest,
        /// Analytical companion for the same hardware: the hard-fallback
        /// target when the adaptive layer declares the forest untrustworthy.
        analytical: LatencyModel,
        /// When set, predictions come from `analytical` instead of the
        /// forest (sticky for the rest of the run).
        degraded: bool,
    },
}

impl LatencyPredictor {
    /// Default safety margin, chosen so the < 10 % model error never turns
    /// into a TBT violation (under-predicting the chunk is safe, over-
    /// predicting is not).
    pub const DEFAULT_MARGIN: f64 = 0.08;

    /// Builds an analytical predictor for `hw`.
    pub fn analytical(hw: &HardwareConfig) -> Self {
        LatencyPredictor {
            backend: Backend::Analytical(LatencyModel::new(hw)),
            margin: Self::DEFAULT_MARGIN,
        }
    }

    /// Trains a random-forest predictor for `hw` by running the profiling
    /// harness and fitting the forest, exactly as the paper's offline step.
    pub fn train_forest(hw: &HardwareConfig, seeds: &SeedStream) -> Self {
        let profiler = Profiler::new(hw.clone(), ProfilerConfig::default());
        let samples = profiler.collect(seeds);
        let (rows, labels) = Profiler::to_training_set(&samples);
        let mut rng = seeds.derive("forest-fit");
        #[expect(
            clippy::expect_used,
            reason = "offline training step; the profiler grid is statically non-empty and a silent fallback would hide a broken profile"
        )]
        let forest = RandomForest::fit(&rows, &labels, RandomForestConfig::default(), &mut rng)
            .expect("profiler always yields a non-empty training set");
        LatencyPredictor {
            backend: Backend::Forest {
                forest,
                analytical: LatencyModel::new(hw),
                degraded: false,
            },
            margin: Self::DEFAULT_MARGIN,
        }
    }

    /// Builds a predictor of the requested kind.
    pub fn of_kind(kind: PredictorKind, hw: &HardwareConfig, seeds: &SeedStream) -> Self {
        match kind {
            PredictorKind::Analytical => Self::analytical(hw),
            PredictorKind::Forest => Self::train_forest(hw, seeds),
        }
    }

    /// Replaces the safety margin (clamped to be non-negative).
    pub fn with_margin(mut self, margin: f64) -> Self {
        self.set_margin(margin);
        self
    }

    /// Updates the safety margin in place (clamped to be non-negative) —
    /// the adaptive-margin controller's entry point.
    pub fn set_margin(&mut self, margin: f64) {
        self.margin = if margin.is_finite() {
            margin.max(0.0)
        } else {
            0.0
        };
    }

    /// The active safety margin.
    pub fn margin(&self) -> f64 {
        self.margin
    }

    /// Hard fallback: route predictions through the analytical companion
    /// instead of the forest. Returns `true` when this call actually
    /// changed the backend (forest, not yet degraded); analytical
    /// predictors have nothing to fall back to and return `false`.
    pub fn engage_fallback(&mut self) -> bool {
        match &mut self.backend {
            Backend::Forest { degraded, .. } if !*degraded => {
                *degraded = true;
                true
            }
            _ => false,
        }
    }

    /// Whether the forest → analytical fallback is active.
    pub fn fallback_engaged(&self) -> bool {
        matches!(self.backend, Backend::Forest { degraded: true, .. })
    }

    /// Which backend this predictor uses.
    pub fn kind(&self) -> PredictorKind {
        match self.backend {
            Backend::Analytical(_) => PredictorKind::Analytical,
            Backend::Forest { .. } => PredictorKind::Forest,
        }
    }

    /// Predicted iteration latency including the safety margin.
    pub fn predict(&self, batch: &BatchProfile) -> SimDuration {
        SimDuration::from_micros(nums::f64_round_to_u64(
            self.predict_raw_us(batch) * (1.0 + self.margin),
        ))
    }

    /// Margin-free prediction in microseconds.
    pub fn predict_raw_us(&self, batch: &BatchProfile) -> f64 {
        match &self.backend {
            Backend::Analytical(m) => m.iteration_time_us(batch),
            Backend::Forest {
                analytical,
                degraded: true,
                ..
            } => analytical.iteration_time_us(batch),
            Backend::Forest { forest, .. } => forest.predict(&batch.features()).max(0.0),
        }
    }
}

/// Bounds for the dynamic-chunk search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkLimits {
    /// Chunk used when latency is unconstrained is capped here; Figure 4
    /// saturates around 2.5 k tokens, so larger chunks add latency for no
    /// throughput.
    pub max_chunk: u32,
    /// Search granularity in tokens.
    pub step: u32,
}

impl Default for ChunkLimits {
    fn default() -> Self {
        ChunkLimits {
            max_chunk: 2_560,
            step: 32,
        }
    }
}

/// Number of direct-mapped memo slots; power of two so the slot index is
/// a mask. 2.5k max chunk / 32-token steps is 80 distinct chunks per
/// decode-pool state, so 4096 slots hold dozens of recent pool states.
const MEMO_SLOTS: usize = 4096;

/// Exact lookup key of one memoized prediction: everything that
/// determines the predicted latency of a single-chunk probe batch —
/// including the predictor's margin bits and fallback state, so the
/// adaptive-margin controller can retune the predictor without
/// invalidating the cache (stale entries simply stop matching).
#[derive(Clone, Copy, PartialEq, Eq)]
struct MemoKey {
    chunk: u32,
    num_decodes: u32,
    decode_context_total: u64,
    prefill_context: u32,
    /// `LatencyPredictor::margin()` as raw bits; the adaptive controller
    /// quantizes margins onto a coarse grid, so few distinct values occur.
    margin_bits: u64,
    /// Whether the forest → analytical fallback was active.
    degraded: bool,
}

impl MemoKey {
    /// Direct-mapped slot index (FNV-1a over the key words).
    fn slot(&self) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for word in [
            self.chunk as u64,
            self.num_decodes as u64,
            self.decode_context_total,
            self.prefill_context as u64,
            self.margin_bits,
            self.degraded as u64,
        ] {
            h ^= word;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        nums::u64_to_usize(h & (nums::usize_to_u64(MEMO_SLOTS) - 1))
    }
}

/// Prediction cache + scratch batch for the chunk-budget search.
///
/// Consecutive scheduler iterations probe near-identical `(chunk, decode
/// pool)` points, and within one binary search the fix-up loop re-probes
/// points the bisection already visited. Caching the final predicted
/// micros (margin included, post-rounding) skips the whole forest/model
/// walk while staying byte-identical; the scratch [`BatchProfile`] avoids
/// a heap allocation per probe.
#[derive(Clone)]
struct MemoState {
    slots: Vec<Option<(MemoKey, u64)>>,
    scratch: BatchProfile,
    hits: u64,
    misses: u64,
}

impl MemoState {
    fn new() -> Self {
        MemoState {
            slots: vec![None; MEMO_SLOTS],
            // One mutable single-chunk profile, reused for every probe.
            scratch: BatchProfile::builder().prefill_chunk(1, 0).build(),
            hits: 0,
            misses: 0,
        }
    }

    /// Predicted iteration micros for `key`, cached. The cached value is
    /// the *final* prediction (margin-inflated, rounded), so a hit returns
    /// exactly what [`LatencyPredictor::predict`] would.
    fn predict_micros(&mut self, predictor: &LatencyPredictor, key: MemoKey) -> u64 {
        let slot = key.slot();
        if let Some((cached_key, micros)) = self.slots[slot] {
            if cached_key == key {
                self.hits += 1;
                return micros;
            }
        }
        self.misses += 1;
        self.scratch.prefill[0].chunk_tokens = key.chunk;
        self.scratch.prefill[0].context_before = key.prefill_context;
        self.scratch.num_decodes = key.num_decodes;
        self.scratch.decode_context_total = key.decode_context_total;
        let micros = predictor.predict(&self.scratch).as_micros();
        self.slots[slot] = Some((key, micros));
        micros
    }
}

impl std::fmt::Debug for MemoState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let filled = self.slots.iter().filter(|s| s.is_some()).count();
        f.debug_struct("MemoState")
            .field("filled", &filled)
            .field("hits", &self.hits)
            .field("misses", &self.misses)
            .finish()
    }
}

/// The `GET_PREFILL_BUDGET` search of Algorithm 1.
///
/// Predictions are memoized by exact `(chunk, decode pool, prefill
/// context)` key, so the repeated probes of consecutive scheduler
/// iterations skip the predictor entirely while returning byte-identical
/// budgets (a property test pins memoized against the
/// [`uncached`](Self::uncached) search). The cache lives behind a [`RefCell`]:
/// schedulers are per-replica, never shared across threads.
///
/// # Example
///
/// ```
/// use qoserve_perf::{ChunkBudget, ChunkLimits, HardwareConfig, LatencyPredictor};
/// use qoserve_sim::SimDuration;
///
/// let hw = HardwareConfig::llama3_8b_a100_tp1();
/// let budget = ChunkBudget::new(LatencyPredictor::analytical(&hw), ChunkLimits::default());
/// // Plenty of slack: the budget should open up far beyond the 256 default.
/// let roomy = budget.prefill_budget(16, 16 * 500, 0, Some(SimDuration::from_millis(200)));
/// // Tight slack: the budget must shrink.
/// let tight = budget.prefill_budget(16, 16 * 500, 0, Some(SimDuration::from_millis(25)));
/// assert!(roomy > tight);
/// ```
#[derive(Debug, Clone)]
pub struct ChunkBudget {
    predictor: LatencyPredictor,
    limits: ChunkLimits,
    memo: Option<RefCell<MemoState>>,
    tracer: Tracer,
}

impl ChunkBudget {
    /// Creates the budget search over `predictor` with `limits`,
    /// memoization enabled.
    pub fn new(predictor: LatencyPredictor, limits: ChunkLimits) -> Self {
        ChunkBudget {
            predictor,
            limits,
            memo: Some(RefCell::new(MemoState::new())),
            tracer: Tracer::disabled(),
        }
    }

    /// A budget search with memoization disabled — the reference path the
    /// determinism tests and benches compare against.
    pub fn uncached(predictor: LatencyPredictor, limits: ChunkLimits) -> Self {
        ChunkBudget {
            predictor,
            limits,
            memo: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs the decision tracer. With a disabled tracer (the default)
    /// the budget search is byte-identical to the untraced path.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Access to the underlying predictor.
    pub fn predictor(&self) -> &LatencyPredictor {
        &self.predictor
    }

    /// Retunes the predictor's safety margin in place. The prediction
    /// cache stays valid because the margin is part of the memo key —
    /// entries recorded under other margins simply stop matching.
    pub fn set_margin(&mut self, margin: f64) {
        self.predictor.set_margin(margin);
    }

    /// Engages the predictor's forest → analytical fallback; see
    /// [`LatencyPredictor::engage_fallback`]. Cache entries recorded
    /// pre-fallback stop matching (the flag is part of the memo key).
    pub fn engage_fallback(&mut self) -> bool {
        self.predictor.engage_fallback()
    }

    /// The search bounds.
    pub fn limits(&self) -> ChunkLimits {
        self.limits
    }

    /// `(hits, misses)` of the prediction cache; `(0, 0)` when uncached.
    pub fn cache_stats(&self) -> (u64, u64) {
        match &self.memo {
            Some(memo) => {
                let memo = memo.borrow();
                (memo.hits, memo.misses)
            }
            None => (0, 0),
        }
    }

    /// Largest prefill-token budget whose predicted iteration latency fits
    /// within `slack`, given the current decode pool.
    ///
    /// * `num_decodes` / `decode_context_total` — the decode side of the
    ///   upcoming batch.
    /// * `prefill_context` — prompt tokens of the head prefill request that
    ///   are already in the KV cache (deep chunks cost more).
    /// * `slack` — minimum next-token slack across decoding requests;
    ///   `None` means unconstrained (no decodes with deadlines), which
    ///   yields `max_chunk`.
    ///
    /// Returns 0 when even the smallest step would blow the slack — the
    /// engine then runs a decode-only iteration.
    pub fn prefill_budget(
        &self,
        num_decodes: u32,
        decode_context_total: u64,
        prefill_context: u32,
        slack: Option<SimDuration>,
    ) -> u32 {
        // Cache-delta bookkeeping exists only for the trace event; the
        // disabled path must stay branch-cheap.
        let misses_before = if self.tracer.enabled() {
            self.cache_stats().1
        } else {
            0
        };
        let chosen = match slack {
            None => self.limits.max_chunk,
            Some(slack) => match &self.memo {
                Some(memo) => {
                    let mut memo = memo.borrow_mut();
                    let slack_us = slack.as_micros();
                    let margin_bits = self.predictor.margin().to_bits();
                    let degraded = self.predictor.fallback_engaged();
                    self.search(|chunk| {
                        let key = MemoKey {
                            chunk,
                            num_decodes,
                            decode_context_total,
                            prefill_context,
                            margin_bits,
                            degraded,
                        };
                        memo.predict_micros(&self.predictor, key) <= slack_us
                    })
                }
                None => self.search(|chunk| {
                    let batch = BatchProfile::builder()
                        .prefill_chunk(chunk, prefill_context)
                        .decodes(num_decodes, decode_context_total)
                        .build();
                    self.predictor.predict(&batch) <= slack
                }),
            },
        };
        if self.tracer.enabled() {
            self.trace_choice(
                chosen,
                num_decodes,
                decode_context_total,
                prefill_context,
                misses_before,
            );
        }
        chosen
    }

    /// Emits `ChunkBudgetChosen` (enabled tracer only). Probing the chosen
    /// chunk is a pure read of the predictor, so traced and untraced
    /// searches return identical budgets; only the cache hit/miss counters
    /// may move while tracing.
    fn trace_choice(
        &self,
        chosen: u32,
        num_decodes: u32,
        decode_context_total: u64,
        prefill_context: u32,
        misses_before: u64,
    ) {
        let cache_hit = self.memo.is_some() && self.cache_stats().1 == misses_before;
        let batch = BatchProfile::builder()
            .prefill_chunk(chosen, prefill_context)
            .decodes(num_decodes, decode_context_total)
            .build();
        self.tracer.emit(
            None,
            TraceEvent::ChunkBudgetChosen {
                budget: chosen,
                predicted_us: self.predictor.predict_raw_us(&batch),
                margin: self.predictor.margin(),
                cache_hit,
            },
        );
    }

    /// The search skeleton shared by the memoized and uncached paths:
    /// largest step-aligned chunk for which `fits` holds.
    fn search(&self, mut fits: impl FnMut(u32) -> bool) -> u32 {
        let step = self.limits.step.max(1);
        let max_steps = self.limits.max_chunk / step;
        if max_steps == 0 || !fits(step) {
            return 0;
        }
        if fits(max_steps * step) {
            return max_steps * step;
        }

        // Invariant: fits(lo*step), !fits(hi*step). The predictor is
        // monotone in chunk size for the analytical backend and very nearly
        // so for the forest; binary search finds the boundary, then a short
        // downward fix-up guards against local non-monotonicity.
        let (mut lo, mut hi) = (1u32, max_steps);
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if fits(mid * step) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mut chunk = lo * step;
        while chunk > 0 && !fits(chunk) {
            chunk -= step;
        }
        chunk
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hw() -> HardwareConfig {
        HardwareConfig::llama3_8b_a100_tp1()
    }

    fn analytical_budget() -> ChunkBudget {
        ChunkBudget::new(LatencyPredictor::analytical(&hw()), ChunkLimits::default())
    }

    #[test]
    fn margin_inflates_predictions() {
        let batch = BatchProfile::builder()
            .prefill_chunk(512, 0)
            .decodes(16, 16_000)
            .build();
        let plain = LatencyPredictor::analytical(&hw()).with_margin(0.0);
        let padded = LatencyPredictor::analytical(&hw()).with_margin(0.2);
        let ratio =
            padded.predict(&batch).as_micros() as f64 / plain.predict(&batch).as_micros() as f64;
        assert!((ratio - 1.2).abs() < 0.01);
    }

    #[test]
    fn negative_margin_is_clamped() {
        let p = LatencyPredictor::analytical(&hw()).with_margin(-5.0);
        assert_eq!(p.margin(), 0.0);
    }

    #[test]
    fn unconstrained_slack_yields_max_chunk() {
        let b = analytical_budget();
        assert_eq!(
            b.prefill_budget(0, 0, 0, None),
            ChunkLimits::default().max_chunk
        );
    }

    #[test]
    fn zero_slack_yields_zero_budget() {
        let b = analytical_budget();
        assert_eq!(
            b.prefill_budget(64, 64 * 2_000, 0, Some(SimDuration::ZERO)),
            0
        );
    }

    #[test]
    fn budget_grows_with_slack() {
        let b = analytical_budget();
        let mut last = 0;
        for ms in [20u64, 40, 80, 160, 320] {
            let c = b.prefill_budget(32, 32 * 1_500, 0, Some(SimDuration::from_millis(ms)));
            assert!(c >= last, "slack {ms}ms: budget {c} < previous {last}");
            last = c;
        }
        assert!(
            last > 1_000,
            "large slack should open large chunks, got {last}"
        );
    }

    #[test]
    fn budget_shrinks_with_decode_pressure() {
        let b = analytical_budget();
        let slack = Some(SimDuration::from_millis(60));
        let light = b.prefill_budget(8, 8 * 500, 0, slack);
        let heavy = b.prefill_budget(150, 150 * 3_000, 0, slack);
        assert!(
            light > heavy,
            "heavier decode pool must shrink the budget: {light} vs {heavy}"
        );
    }

    #[test]
    fn budget_shrinks_with_prefill_depth() {
        let b = analytical_budget();
        let slack = Some(SimDuration::from_millis(60));
        let shallow = b.prefill_budget(32, 32 * 1_000, 0, slack);
        let deep = b.prefill_budget(32, 32 * 1_000, 60_000, slack);
        assert!(
            shallow > deep,
            "deep prompt context must shrink the budget: {shallow} vs {deep}"
        );
    }

    #[test]
    fn budget_result_actually_fits() {
        // The returned chunk's (margin-inflated) prediction must be within
        // slack — the whole point of under-predicting.
        let b = analytical_budget();
        let slack = SimDuration::from_millis(55);
        let chunk = b.prefill_budget(48, 48 * 1_800, 2_048, Some(slack));
        assert!(chunk > 0);
        let batch = BatchProfile::builder()
            .prefill_chunk(chunk, 2_048)
            .decodes(48, 48 * 1_800)
            .build();
        assert!(b.predictor().predict(&batch) <= slack);
        // And one more step would not fit (maximality).
        let bigger = BatchProfile::builder()
            .prefill_chunk(chunk + b.limits().step, 2_048)
            .decodes(48, 48 * 1_800)
            .build();
        assert!(b.predictor().predict(&bigger) > slack);
    }

    #[test]
    fn budget_respects_max_chunk() {
        let limits = ChunkLimits {
            max_chunk: 512,
            step: 64,
        };
        let b = ChunkBudget::new(LatencyPredictor::analytical(&hw()), limits);
        let c = b.prefill_budget(1, 100, 0, Some(SimDuration::from_secs(10)));
        assert_eq!(c, 512);
    }

    #[test]
    fn budget_is_step_aligned() {
        let b = analytical_budget();
        let c = b.prefill_budget(32, 32 * 1_500, 0, Some(SimDuration::from_millis(47)));
        assert_eq!(c % ChunkLimits::default().step, 0);
    }

    #[test]
    fn memoized_budget_matches_uncached() {
        let cached = analytical_budget();
        let uncached =
            ChunkBudget::uncached(LatencyPredictor::analytical(&hw()), ChunkLimits::default());
        for num_decodes in [0u32, 1, 8, 64, 200] {
            for ctx_per_decode in [0u64, 300, 1_500, 4_000] {
                for prefill_context in [0u32, 512, 16_384] {
                    for slack_ms in [0u64, 5, 30, 80, 400] {
                        let args = (
                            num_decodes,
                            num_decodes as u64 * ctx_per_decode,
                            prefill_context,
                            Some(SimDuration::from_millis(slack_ms)),
                        );
                        // Twice each, so the second call exercises hits.
                        for _ in 0..2 {
                            assert_eq!(
                                cached.prefill_budget(args.0, args.1, args.2, args.3),
                                uncached.prefill_budget(args.0, args.1, args.2, args.3),
                                "diverged at {args:?}"
                            );
                        }
                    }
                }
            }
        }
        let (hits, misses) = cached.cache_stats();
        assert!(hits > 0, "repeat probes must hit the cache");
        assert!(misses > 0);
        assert_eq!(uncached.cache_stats(), (0, 0));
    }

    #[test]
    fn memoized_forest_budget_matches_uncached() {
        // The forest is the expensive backend the cache exists for; make
        // sure cached hits reproduce its exact (rounded, margin-inflated)
        // comparisons too.
        let seeds = SeedStream::new(79);
        let predictor = LatencyPredictor::train_forest(&hw(), &seeds);
        let cached = ChunkBudget::new(predictor.clone(), ChunkLimits::default());
        let uncached = ChunkBudget::uncached(predictor, ChunkLimits::default());
        for num_decodes in [2u32, 40, 120] {
            for slack_ms in [10u64, 55, 150] {
                let ctx = num_decodes as u64 * 1_200;
                for _ in 0..2 {
                    assert_eq!(
                        cached.prefill_budget(
                            num_decodes,
                            ctx,
                            1_024,
                            Some(SimDuration::from_millis(slack_ms))
                        ),
                        uncached.prefill_budget(
                            num_decodes,
                            ctx,
                            1_024,
                            Some(SimDuration::from_millis(slack_ms))
                        ),
                    );
                }
            }
        }
        let (hits, _) = cached.cache_stats();
        assert!(hits > 0);
    }

    #[test]
    fn unconstrained_slack_skips_the_cache() {
        let b = analytical_budget();
        assert_eq!(b.prefill_budget(8, 8 * 500, 0, None), b.limits().max_chunk);
        assert_eq!(b.cache_stats(), (0, 0));
    }

    #[test]
    fn cloned_budget_keeps_working() {
        // Clone while the cache is warm; both copies stay consistent.
        let b = analytical_budget();
        let slack = Some(SimDuration::from_millis(60));
        let before = b.prefill_budget(32, 32 * 1_500, 0, slack);
        let clone = b.clone();
        assert_eq!(clone.prefill_budget(32, 32 * 1_500, 0, slack), before);
        assert_eq!(b.prefill_budget(32, 32 * 1_500, 0, slack), before);
    }

    #[test]
    fn forest_predictor_tracks_analytical() {
        let seeds = SeedStream::new(77);
        let forest = LatencyPredictor::train_forest(&hw(), &seeds).with_margin(0.0);
        let analytical = LatencyPredictor::analytical(&hw()).with_margin(0.0);
        let batches = [
            BatchProfile::builder().decodes(32, 32 * 1_000).build(),
            BatchProfile::builder().prefill_chunk(512, 0).build(),
            BatchProfile::builder()
                .prefill_chunk(1_024, 4_096)
                .decodes(64, 64 * 2_000)
                .build(),
        ];
        for batch in &batches {
            let f = forest.predict_raw_us(batch);
            let a = analytical.predict_raw_us(batch);
            let rel = (f - a).abs() / a;
            assert!(
                rel < 0.15,
                "forest should track the ground truth within 15%: {f:.0} vs {a:.0}"
            );
        }
        assert_eq!(forest.kind(), PredictorKind::Forest);
    }

    #[test]
    fn forest_budget_is_close_to_analytical_budget() {
        let seeds = SeedStream::new(78);
        let fb = ChunkBudget::new(
            LatencyPredictor::train_forest(&hw(), &seeds),
            ChunkLimits::default(),
        );
        let ab = analytical_budget();
        let slack = Some(SimDuration::from_millis(80));
        let f = fb.prefill_budget(40, 40 * 1_500, 0, slack) as f64;
        let a = ab.prefill_budget(40, 40 * 1_500, 0, slack) as f64;
        assert!(
            (f - a).abs() / a < 0.35,
            "forest budget {f} should be in the neighbourhood of analytical {a}"
        );
    }

    #[test]
    fn of_kind_selects_backend() {
        let seeds = SeedStream::new(1);
        assert_eq!(
            LatencyPredictor::of_kind(PredictorKind::Analytical, &hw(), &seeds).kind(),
            PredictorKind::Analytical
        );
    }

    #[test]
    fn fallback_routes_forest_to_analytical() {
        let seeds = SeedStream::new(80);
        let mut forest = LatencyPredictor::train_forest(&hw(), &seeds);
        let analytical = LatencyPredictor::analytical(&hw());
        let batch = BatchProfile::builder()
            .prefill_chunk(768, 1_024)
            .decodes(24, 24 * 900)
            .build();
        assert!(!forest.fallback_engaged());
        assert!(forest.engage_fallback());
        assert!(forest.fallback_engaged());
        // Degraded forest must quote exactly the analytical companion.
        assert_eq!(
            forest.predict_raw_us(&batch),
            analytical.predict_raw_us(&batch)
        );
        // Still reports its true kind; the fallback is an internal detour.
        assert_eq!(forest.kind(), PredictorKind::Forest);
        // Second engagement is a no-op.
        assert!(!forest.engage_fallback());
    }

    #[test]
    fn analytical_has_no_fallback() {
        let mut p = LatencyPredictor::analytical(&hw());
        assert!(!p.engage_fallback());
        assert!(!p.fallback_engaged());
    }

    #[test]
    fn set_margin_updates_in_place() {
        let mut p = LatencyPredictor::analytical(&hw());
        p.set_margin(0.25);
        assert_eq!(p.margin(), 0.25);
        p.set_margin(-1.0);
        assert_eq!(p.margin(), 0.0);
        p.set_margin(f64::NAN);
        assert_eq!(p.margin(), 0.0);
    }

    #[test]
    fn memo_survives_margin_retuning() {
        // Warm the cache under one margin, retune, and check the cached
        // path still matches a fresh uncached search at every margin —
        // the margin is part of the memo key, so stale entries cannot leak.
        let mut cached = analytical_budget();
        let slack = Some(SimDuration::from_millis(45));
        for margin in [0.08, 0.25, 0.08, 0.5, 0.0] {
            cached.set_margin(margin);
            let uncached = ChunkBudget::uncached(
                LatencyPredictor::analytical(&hw()).with_margin(margin),
                ChunkLimits::default(),
            );
            for num_decodes in [4u32, 48, 130] {
                let ctx = num_decodes as u64 * 1_400;
                assert_eq!(
                    cached.prefill_budget(num_decodes, ctx, 512, slack),
                    uncached.prefill_budget(num_decodes, ctx, 512, slack),
                    "diverged at margin {margin} decodes {num_decodes}"
                );
            }
        }
        let (hits, _) = cached.cache_stats();
        assert!(hits > 0, "revisiting a previous margin must hit the cache");
    }

    #[test]
    fn memo_survives_fallback_engagement() {
        let seeds = SeedStream::new(81);
        let predictor = LatencyPredictor::train_forest(&hw(), &seeds);
        let mut cached = ChunkBudget::new(predictor.clone(), ChunkLimits::default());
        let slack = Some(SimDuration::from_millis(60));
        // Warm with forest predictions.
        cached.prefill_budget(32, 32 * 1_200, 0, slack);
        assert!(cached.engage_fallback());
        let mut reference = predictor;
        reference.engage_fallback();
        let uncached = ChunkBudget::uncached(reference, ChunkLimits::default());
        assert_eq!(
            cached.prefill_budget(32, 32 * 1_200, 0, slack),
            uncached.prefill_budget(32, 32 * 1_200, 0, slack),
            "post-fallback budgets must ignore pre-fallback cache entries"
        );
    }
}
