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

use qoserve_sim::{nums, SeedStream, SimDuration};
use qoserve_trace::{TraceEvent, Tracer};

use crate::analytical::LatencyModel;
use crate::batch::{BatchProfile, PrefillChunkProfile};
use crate::forest::RandomForest;
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
        let forest = RandomForest::fit(&rows, &labels, &mut rng)
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

/// The `GET_PREFILL_BUDGET` search of Algorithm 1.
///
/// Every probe of the search rewrites one owned [`BatchProfile`], so a
/// search allocates nothing. Each search writes its decode pool into the
/// probe and each probe its chunk, so nothing carries over from an
/// earlier search.
///
/// # Example
///
/// ```
/// use qoserve_perf::{ChunkBudget, ChunkLimits, HardwareConfig, LatencyPredictor};
/// use qoserve_sim::SimDuration;
///
/// let hw = HardwareConfig::llama3_8b_a100_tp1();
/// let mut budget = ChunkBudget::new(LatencyPredictor::analytical(&hw), ChunkLimits::default());
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
    /// The batch every probe rewrites: at most one prefill chunk plus the
    /// decode pool.
    probe: BatchProfile,
    tracer: Tracer,
}

impl ChunkBudget {
    /// Creates the budget search over `predictor` with `limits`.
    pub fn new(predictor: LatencyPredictor, limits: ChunkLimits) -> Self {
        ChunkBudget {
            predictor,
            limits,
            probe: BatchProfile::default(),
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

    /// Retunes the predictor's safety margin in place; the next search
    /// uses it.
    pub fn set_margin(&mut self, margin: f64) {
        self.predictor.set_margin(margin);
    }

    /// Engages the predictor's forest → analytical fallback; see
    /// [`LatencyPredictor::engage_fallback`]. The next search uses it.
    pub fn engage_fallback(&mut self) -> bool {
        self.predictor.engage_fallback()
    }

    /// The search bounds.
    pub fn limits(&self) -> ChunkLimits {
        self.limits
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
    /// engine then runs a decode-only iteration. An enabled tracer gets a
    /// `ChunkBudgetChosen` record whose `predicted_us` is the margin-free
    /// prediction at the returned budget.
    pub fn prefill_budget(
        &mut self,
        num_decodes: u32,
        decode_context_total: u64,
        prefill_context: u32,
        slack: Option<SimDuration>,
    ) -> u32 {
        self.probe.num_decodes = num_decodes;
        self.probe.decode_context_total = decode_context_total;
        let chosen = match slack {
            None => self.limits.max_chunk,
            Some(slack) => search(self.limits, |chunk| {
                set_chunk(&mut self.probe, chunk, prefill_context);
                self.predictor.predict(&self.probe) <= slack
            }),
        };
        if self.tracer.enabled() {
            set_chunk(&mut self.probe, chosen, prefill_context);
            self.tracer.emit(
                None,
                TraceEvent::ChunkBudgetChosen {
                    budget: chosen,
                    predicted_us: self.predictor.predict_raw_us(&self.probe),
                    margin: self.predictor.margin(),
                    cache_hit: false,
                },
            );
        }
        chosen
    }
}

/// Rewrites `probe`'s prefill side to one `chunk`-token chunk at
/// `context`. Chunk 0 leaves no chunk at all, as
/// [`BatchProfileBuilder::prefill_chunk`](crate::BatchProfileBuilder::prefill_chunk)
/// drops a zero-token chunk.
fn set_chunk(probe: &mut BatchProfile, chunk: u32, context: u32) {
    probe.prefill.clear();
    if chunk > 0 {
        probe.prefill.push(PrefillChunkProfile::new(chunk, context));
    }
}

/// The largest step-aligned chunk within `limits` for which `fits` holds,
/// or 0 when even one step does not fit.
fn search(limits: ChunkLimits, mut fits: impl FnMut(u32) -> bool) -> u32 {
    let step = limits.step.max(1);
    let max_steps = limits.max_chunk / step;
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

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_trace::VecSink;

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
        let mut b = analytical_budget();
        assert_eq!(
            b.prefill_budget(0, 0, 0, None),
            ChunkLimits::default().max_chunk
        );
    }

    #[test]
    fn zero_slack_yields_zero_budget() {
        let mut b = analytical_budget();
        assert_eq!(
            b.prefill_budget(64, 64 * 2_000, 0, Some(SimDuration::ZERO)),
            0
        );
    }

    #[test]
    fn budget_grows_with_slack() {
        let mut b = analytical_budget();
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
        let mut b = analytical_budget();
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
        let mut b = analytical_budget();
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
        let mut b = analytical_budget();
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
        let mut b = ChunkBudget::new(LatencyPredictor::analytical(&hw()), limits);
        let c = b.prefill_budget(1, 100, 0, Some(SimDuration::from_secs(10)));
        assert_eq!(c, 512);
    }

    #[test]
    fn budget_is_step_aligned() {
        let mut b = analytical_budget();
        let c = b.prefill_budget(32, 32 * 1_500, 0, Some(SimDuration::from_millis(47)));
        assert_eq!(c % ChunkLimits::default().step, 0);
    }

    /// The arguments of one `prefill_budget` call: `(num_decodes,
    /// decode_context_total, prefill_context, slack)`.
    type Query = (u32, u64, u32, Option<SimDuration>);

    /// The reference `prefill_budget` must match: the same search, with a
    /// fresh `BatchProfile` built for every probe.
    fn fresh_profile_budget(
        predictor: &LatencyPredictor,
        limits: ChunkLimits,
        (num_decodes, decode_context_total, prefill_context, slack): Query,
    ) -> u32 {
        match slack {
            None => limits.max_chunk,
            Some(slack) => search(limits, |chunk| {
                let batch = BatchProfile::builder()
                    .prefill_chunk(chunk, prefill_context)
                    .decodes(num_decodes, decode_context_total)
                    .build();
                predictor.predict(&batch) <= slack
            }),
        }
    }

    /// Runs `queries` in order through `budget` (so each search starts
    /// from the probe batch the previous one left) and checks every budget
    /// against the fresh-profile reference over `reference`.
    fn assert_matches_reference(
        budget: &mut ChunkBudget,
        reference: &LatencyPredictor,
        queries: impl IntoIterator<Item = Query>,
    ) {
        for args in queries {
            assert_eq!(
                budget.prefill_budget(args.0, args.1, args.2, args.3),
                fresh_profile_budget(reference, budget.limits(), args),
                "diverged at {args:?}"
            );
        }
    }

    /// One query per point of a grid of decode pools, prompt depths and
    /// slacks (`None` is unconstrained).
    fn query_grid(
        num_decodes: &[u32],
        ctx_per_decode: &[u64],
        prefill_context: &[u32],
        slack_ms: &[Option<u64>],
    ) -> Vec<Query> {
        let mut queries = Vec::new();
        for &n in num_decodes {
            for &ctx in ctx_per_decode {
                for &prefill in prefill_context {
                    for &slack in slack_ms {
                        let slack = slack.map(SimDuration::from_millis);
                        queries.push((n, u64::from(n) * ctx, prefill, slack));
                    }
                }
            }
        }
        queries
    }

    #[test]
    fn budget_matches_fresh_profile_reference() {
        let queries = query_grid(
            &[0, 1, 8, 64, 200],
            &[0, 300, 1_500, 4_000],
            &[0, 512, 16_384],
            &[None, Some(0), Some(5), Some(30), Some(80), Some(400)],
        );
        // Forwards, then backwards: each search follows a different one.
        let reversed = queries.iter().rev().copied().collect::<Vec<_>>();
        let mut b = analytical_budget();
        let reference = LatencyPredictor::analytical(&hw());
        assert_matches_reference(&mut b, &reference, queries);
        assert_matches_reference(&mut b, &reference, reversed);
    }

    #[test]
    fn forest_budget_matches_fresh_profile_reference() {
        let predictor = LatencyPredictor::train_forest(&hw(), &SeedStream::new(79));
        let mut b = ChunkBudget::new(predictor.clone(), ChunkLimits::default());
        let queries = query_grid(
            &[2, 40, 120],
            &[1_200],
            &[0, 1_024],
            &[Some(0), Some(10), Some(55), Some(150)],
        );
        assert_matches_reference(&mut b, &predictor, queries);
    }

    #[test]
    fn cloned_budget_keeps_working() {
        // Clone after a search; both copies keep returning its budget.
        let mut b = analytical_budget();
        let slack = Some(SimDuration::from_millis(60));
        let before = b.prefill_budget(32, 32 * 1_500, 0, slack);
        let mut clone = b.clone();
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
        let mut fb = ChunkBudget::new(
            LatencyPredictor::train_forest(&hw(), &seeds),
            ChunkLimits::default(),
        );
        let mut ab = analytical_budget();
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
    fn retuned_margin_matches_fresh_profile_reference() {
        // Retune between searches, returning to earlier margins; each
        // search must use the margin set last.
        let mut b = analytical_budget();
        for margin in [0.08, 0.25, 0.08, 0.5, 0.0] {
            b.set_margin(margin);
            let reference = LatencyPredictor::analytical(&hw()).with_margin(margin);
            let queries = query_grid(&[4, 48, 130], &[1_400], &[512], &[Some(45)]);
            assert_matches_reference(&mut b, &reference, queries);
        }
    }

    #[test]
    fn engaged_fallback_matches_fresh_profile_reference() {
        let predictor = LatencyPredictor::train_forest(&hw(), &SeedStream::new(81));
        let mut b = ChunkBudget::new(predictor.clone(), ChunkLimits::default());
        let queries = || query_grid(&[32], &[1_200], &[0], &[Some(60)]);
        assert_matches_reference(&mut b, &predictor, queries());
        assert!(b.engage_fallback());
        let mut reference = predictor;
        reference.engage_fallback();
        assert_matches_reference(&mut b, &reference, queries());
    }

    #[test]
    fn traced_budgets_report_the_chosen_batch_prediction() {
        let tracer = Tracer::new(Box::new(VecSink::new()));
        let mut traced = analytical_budget();
        traced.set_tracer(tracer.clone());
        let mut untraced = analytical_budget();
        // Unconstrained, constrained, and two zero-slack searches that
        // return 0, one of them with no decodes at all.
        let queries = [
            (8, 8 * 500, 0, None),
            (48, 48 * 1_800, 2_048, Some(SimDuration::from_millis(55))),
            (64, 64 * 2_000, 4_096, Some(SimDuration::ZERO)),
            (0, 0, 4_096, Some(SimDuration::ZERO)),
        ];
        let budgets = queries.map(|(n, ctx, prefill, slack)| {
            let budget = traced.prefill_budget(n, ctx, prefill, slack);
            assert_eq!(budget, untraced.prefill_budget(n, ctx, prefill, slack));
            budget
        });
        assert_eq!(budgets[2..], [0, 0]);
        let records = tracer.snapshot();
        assert_eq!(records.len(), queries.len());
        for ((record, (n, ctx, prefill, _)), budget) in records.iter().zip(queries).zip(budgets) {
            let batch = BatchProfile::builder()
                .prefill_chunk(budget, prefill)
                .decodes(n, ctx)
                .build();
            let want = TraceEvent::ChunkBudgetChosen {
                budget,
                predicted_us: traced.predictor().predict_raw_us(&batch),
                margin: traced.predictor().margin(),
                cache_hit: false,
            };
            assert_eq!(record.event, want, "at budget {budget}");
        }
    }

    /// The trained forest's raw predictions over a fixed grid of batches,
    /// for one hardware config and one seed, pinned by an FNV-1a digest of
    /// their bits. No experiment selects the forest, so this is what holds
    /// the training set, the fit and its hyperparameters still. A
    /// deliberate change re-records the digest from the failure message.
    #[test]
    fn forest_predictions_are_pinned() {
        let forest = LatencyPredictor::of_kind(PredictorKind::Forest, &hw(), &SeedStream::new(83));
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for chunk in [0, 256, 1_024, 2_560] {
            for prefill_context in [0, 4_096] {
                for decodes in [0, 16, 128] {
                    for ctx_per_decode in [500, 3_000] {
                        let batch = BatchProfile::builder()
                            .prefill_chunk(chunk, prefill_context)
                            .decodes(decodes, u64::from(decodes) * ctx_per_decode)
                            .build();
                        for b in forest.predict_raw_us(&batch).to_bits().to_le_bytes() {
                            digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                        }
                    }
                }
            }
        }
        assert_eq!(
            digest, 0x5f08_6048_9f86_5e1b,
            "forest predictions changed: {digest:#018x}"
        );
    }
}
