//! The QoServe scheduler (Algorithm 1 of the paper).
//!
//! Three techniques compose here:
//!
//! * **Hybrid prioritization** (§3.4, Eq. 4/5): priority interpolates
//!   between EDF and SRPF —
//!   `P = t_arrival + SLO_TTFT + α · prefill_rem` for interactive jobs and
//!   `P = t_arrival + SLO_TTLT + α · (prefill_rem + decode_est)` for
//!   non-interactive ones, with `decode_est` the per-application
//!   mean + 2σ history. `α = 0` degenerates to EDF; large α to SRPF.
//! * **Dynamic chunking** (§3.3, §3.6.1): the prefill token budget is the
//!   largest chunk whose predicted iteration latency fits within the
//!   minimum slack of the decode pool.
//! * **Eager relegation** (§3.4): jobs that have violated — or are about
//!   to violate — their TTFT/TTLT deadline are demoted behind all live
//!   work and serviced opportunistically; under backlog pressure,
//!   low-priority (free-tier) jobs are shed first so important ones keep
//!   their SLOs.
//!
//! Selective preemption (§3.4) needs no extra machinery: a partially
//! prefilled job simply loses the next batch to any higher-priority
//! arrival, while decodes are never revisited at all.

use qoserve_perf::{
    AdaptiveMargin, AdaptiveMarginConfig, BatchProfile, ChunkBudget, ChunkLimits, LatencyPredictor,
};
use qoserve_sim::float::priority_micros;
use qoserve_sim::{SimDuration, SimTime};
use qoserve_trace::{RelegationReason, TraceEvent, Tracer, RELEGATED_TIER};
use qoserve_workload::{Priority, RequestSpec};

use crate::estimate::ProcessingEstimator;
use crate::job::{min_decode_slack, DecodeJob, PrefillJob};
use crate::queue::{JobQueue, Room};
use crate::{BatchPlan, Constraints, Scheduler};

/// How the hybrid-prioritization α is chosen.
///
/// The paper sweeps α offline for fixed-QPS runs (8 ms/token was best) and
/// uses load-adaptive tuning for variable load: 1 ms/token at low load to
/// protect tail latency, 8 ms/token under backlog to shed quadratic load.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AlphaPolicy {
    /// Constant α in milliseconds per token.
    Fixed {
        /// α value.
        ms_per_token: f64,
    },
    /// Switch between `low_ms` and `high_ms` when the live prefill backlog
    /// crosses `backlog_tokens` (with 20 % hysteresis).
    LoadAdaptive {
        /// α at low load.
        low_ms: f64,
        /// α under backlog.
        high_ms: f64,
        /// Backlog threshold in pending prompt tokens.
        backlog_tokens: u64,
    },
}

impl AlphaPolicy {
    /// The paper's fixed-QPS setting: α = 8 ms/token.
    pub fn paper_fixed() -> Self {
        AlphaPolicy::Fixed { ms_per_token: 8.0 }
    }

    /// The paper's variable-QPS setting: 1 ms/token at low load,
    /// 8 ms/token under backlog.
    pub fn paper_adaptive() -> Self {
        AlphaPolicy::LoadAdaptive {
            low_ms: 1.0,
            high_ms: 8.0,
            backlog_tokens: 60_000,
        }
    }
}

/// Configuration of [`QoServeScheduler`]. Feature switches exist so the
/// ablation study (Table 5) can enable dynamic chunking, eager
/// relegation, and hybrid prioritization one at a time.
#[derive(Debug, Clone)]
pub struct QoServeConfig {
    /// Hybrid-prioritization α policy. Use `Fixed { 0.0 }` to disable
    /// hybrid prioritization (pure EDF ordering).
    pub alpha: AlphaPolicy,
    /// Enables eager relegation.
    pub eager_relegation: bool,
    /// Enables dynamic chunking; when off, `fixed_chunk` is used like a
    /// Sarathi baseline.
    pub dynamic_chunking: bool,
    /// Token budget when dynamic chunking is disabled.
    pub fixed_chunk: u32,
    /// Bounds for the dynamic-chunk search.
    pub chunk_limits: ChunkLimits,
    /// Backlog drain time beyond which low-priority jobs are shed
    /// preferentially (the free-tier relegation of §3.4). The default is
    /// the strictest TTFT SLO — if the backlog already exceeds it, new
    /// interactive arrivals are doomed without shedding.
    pub shed_backlog: SimDuration,
    /// When set, the scheduler runs the online adaptive-margin controller
    /// against per-iteration `(predicted, observed)` pairs delivered via
    /// [`Scheduler::on_iteration`]: the chunk budget's safety margin
    /// widens under misprediction, decays back when calm, and the forest
    /// predictor falls back to its analytical companion under sustained
    /// gross error. `None` (the default) is today's static behaviour —
    /// existing experiments are bit-identical.
    pub adaptive: Option<AdaptiveMarginConfig>,
}

impl Default for QoServeConfig {
    fn default() -> Self {
        QoServeConfig {
            alpha: AlphaPolicy::paper_fixed(),
            eager_relegation: true,
            dynamic_chunking: true,
            fixed_chunk: 256,
            chunk_limits: ChunkLimits::default(),
            shed_backlog: SimDuration::from_secs(6),
            adaptive: None,
        }
    }
}

impl QoServeConfig {
    /// Table 5's "QoServe (DC)" row: dynamic chunking only, on top of EDF.
    pub fn ablation_dc() -> Self {
        QoServeConfig {
            alpha: AlphaPolicy::Fixed { ms_per_token: 0.0 },
            eager_relegation: false,
            ..Default::default()
        }
    }

    /// Table 5's "QoServe (DC+ER)" row.
    pub fn ablation_dc_er() -> Self {
        QoServeConfig {
            alpha: AlphaPolicy::Fixed { ms_per_token: 0.0 },
            eager_relegation: true,
            ..Default::default()
        }
    }

    /// Table 5's full system: DC + ER + hybrid prioritization.
    pub fn ablation_full() -> Self {
        QoServeConfig::default()
    }

    /// The full system plus the online adaptive margin (the resilience
    /// layer's default pipeline). The controller's base margin is
    /// re-anchored to the predictor's margin at construction.
    pub fn adaptive() -> Self {
        QoServeConfig {
            adaptive: Some(AdaptiveMarginConfig::default()),
            ..Default::default()
        }
    }
}

/// The QoServe scheduler.
///
/// # Example
///
/// ```
/// use qoserve_perf::{HardwareConfig, LatencyPredictor};
/// use qoserve_sched::{QoServeConfig, QoServeScheduler, Scheduler};
///
/// let hw = HardwareConfig::llama3_8b_a100_tp1();
/// let sched = QoServeScheduler::new(
///     QoServeConfig::default(),
///     LatencyPredictor::analytical(&hw),
/// );
/// assert_eq!(sched.name(), "QoServe");
/// ```
#[derive(Debug, Clone)]
pub struct QoServeScheduler {
    config: QoServeConfig,
    queue: JobQueue,
    budget: ChunkBudget,
    estimator: ProcessingEstimator,
    /// Current α in µs per token.
    alpha_us: f64,
    /// Count of relegations performed (diagnostics / tests).
    relegations: u64,
    /// Chunk budget chosen by the last `plan_batch` call (Fig. 9 traces).
    last_chunk_budget: u32,
    /// Online adaptive-margin controller (None = static margin).
    adaptive: Option<AdaptiveMargin>,
    /// Decision tracer (disabled by default: zero behavioural drift).
    tracer: Tracer,
}

impl QoServeScheduler {
    /// Creates the scheduler around a latency predictor (forest or
    /// analytical — see [`LatencyPredictor`]).
    pub fn new(config: QoServeConfig, predictor: LatencyPredictor) -> Self {
        let estimator = ProcessingEstimator::from_predictor(&predictor);
        let alpha_us = match config.alpha {
            AlphaPolicy::Fixed { ms_per_token } => ms_per_token * 1e3,
            AlphaPolicy::LoadAdaptive { low_ms, .. } => low_ms * 1e3,
        };
        let limits = config.chunk_limits;
        let adaptive = config.adaptive.map(|mut cfg| {
            // Anchor the controller at the predictor's static margin so
            // the calm state is bit-identical to the static pipeline.
            cfg.base = predictor.margin();
            AdaptiveMargin::new(cfg)
        });
        QoServeScheduler {
            config,
            queue: JobQueue::new(),
            budget: ChunkBudget::new(predictor, limits),
            estimator,
            alpha_us,
            relegations: 0,
            last_chunk_budget: 0,
            adaptive,
            tracer: Tracer::disabled(),
        }
    }

    /// Current α in ms/token.
    pub fn alpha_ms(&self) -> f64 {
        self.alpha_us / 1e3
    }

    /// Total relegations performed so far.
    pub fn relegation_count(&self) -> u64 {
        self.relegations
    }

    /// Chunk budget used by the most recent batch (Fig. 9's trace).
    pub fn last_chunk_budget(&self) -> u32 {
        self.last_chunk_budget
    }

    /// Access to the processing estimator (tests).
    pub fn estimator(&self) -> &ProcessingEstimator {
        &self.estimator
    }

    /// The adaptive-margin controller, when enabled (tests/diagnostics).
    pub fn adaptive_margin(&self) -> Option<&AdaptiveMargin> {
        self.adaptive.as_ref()
    }

    /// Eq. 4 / Eq. 5: the hybrid priority key in µs (smaller = sooner).
    fn priority_key(&self, job: &PrefillJob) -> i64 {
        hybrid_key(&self.estimator, self.alpha_us, job)
    }

    /// Live (non-relegated) backlog, in pending prompt tokens (O(1)).
    fn live_backlog_tokens(&self) -> u64 {
        self.queue.live_tokens()
    }

    /// Whether the live backlog already exceeds the shedding threshold —
    /// the overload signal that triggers preferential relegation of
    /// low-priority jobs.
    fn backlog_overloaded(&self) -> bool {
        #[expect(
            clippy::cast_possible_truncation,
            reason = "lossy-cast debt: route through `qoserve_sim::nums`"
        )]
        let drain = self
            .estimator
            .prefill_time(self.live_backlog_tokens().min(u32::MAX as u64) as u32);
        drain > self.config.shed_backlog
    }

    /// Computes the prefill token budget for this iteration.
    #[expect(
        clippy::cast_possible_truncation,
        reason = "lossy-cast debt: route through `qoserve_sim::nums`"
    )]
    fn compute_budget(&mut self, now: SimTime, decodes: &[DecodeJob]) -> u32 {
        if !self.config.dynamic_chunking {
            return self.config.fixed_chunk.saturating_sub(decodes.len() as u32);
        }
        let slack = min_decode_slack(decodes, now);
        let ctx_total: u64 = decodes.iter().map(|d| d.context_len as u64).sum();
        // Context depth of the job the chunk will most likely go to.
        let head_context = self.queue.peek().map_or(0, |j| j.prefill_done);
        self.budget
            .prefill_budget(decodes.len() as u32, ctx_total, head_context, slack)
    }

    /// Updates α under the load-adaptive policy; rekeys the queue when α
    /// actually changes.
    fn update_alpha(&mut self) {
        if let AlphaPolicy::LoadAdaptive {
            low_ms,
            high_ms,
            backlog_tokens,
        } = self.config.alpha
        {
            let backlog = self.live_backlog_tokens();
            let target_us = if backlog > backlog_tokens {
                high_ms * 1e3
            } else if backlog < backlog_tokens * 4 / 5 {
                low_ms * 1e3
            } else {
                self.alpha_us // hysteresis band: keep current
            };
            if (target_us - self.alpha_us).abs() > f64::EPSILON {
                self.alpha_us = target_us;
                // Keys embed α — rebuild them.
                self.queue
                    .rekey(|job| hybrid_key(&self.estimator, self.alpha_us, job));
            }
        }
    }
}

/// The violation check of Algorithm 1 (line 12): should `job`, just
/// popped from `queue`, be relegated *now*, and why (for trace
/// attribution)? A job is relegated at most once.
///
/// * Any job whose deadline has passed, or would pass within one
///   typical iteration, has "already violated or will violate in the
///   current iteration".
/// * Any job that cannot finish before its deadline even if scheduled
///   immediately ("we know it will miss") is hopeless.
/// * Low-priority jobs are additionally shed whenever the backlog is
///   beyond capacity, protecting important requests (§3.4).
fn relegation_reason(
    config: &QoServeConfig,
    estimator: &ProcessingEstimator,
    queue: &JobQueue,
    job: &PrefillJob,
    now: SimTime,
    overloaded: bool,
) -> Option<RelegationReason> {
    if !config.eager_relegation || job.relegated {
        return None;
    }
    let deadline = job.urgency_deadline();
    if now + estimator.decode_time(1.0) >= deadline {
        // Already violated / violates this iteration.
        return Some(RelegationReason::DeadlinePassed);
    }
    let service = estimator.service_time(job);
    if now + service > deadline {
        // Hopeless even if scheduled immediately.
        return Some(RelegationReason::Hopeless);
    }
    // Preferential shedding of low-priority (free-tier) work: under
    // backlog pressure, relegate a low-priority job whose deadline is
    // infeasible once the queue *ahead of it* is accounted for. The
    // queue-ahead estimate is priority-aware (tiers with stricter SLOs
    // jump the queue under hybrid prioritization), so feasible
    // low-priority work in an absorbable surge is left alone.
    if job.priority() == Priority::Low && overloaded {
        let ahead = u32::try_from(queue.live_tokens_ahead_of(job)).unwrap_or(u32::MAX);
        if now + estimator.prefill_time(ahead) + service > deadline {
            return Some(RelegationReason::OverloadShed);
        }
    }
    None
}

/// The shared Eq. 4 / Eq. 5 key computation: deadline plus α-weighted
/// remaining work, in µs. Routed through [`priority_micros`] so a NaN
/// estimate (e.g. a poisoned decode history) sorts *last* instead of
/// being cast to 0 and seizing the queue front.
fn hybrid_key(estimator: &ProcessingEstimator, alpha_us: f64, job: &PrefillJob) -> i64 {
    let (edf_term, srpf_term) = hybrid_terms(estimator, alpha_us, job);
    priority_micros(edf_term + srpf_term)
}

/// The two additive terms of the hybrid key, in µs: the EDF term (the
/// urgency deadline) and the SRPF term (α-weighted remaining work).
/// Split out so the tracer can attribute a priority decision to its
/// deadline vs. work components.
fn hybrid_terms(estimator: &ProcessingEstimator, alpha_us: f64, job: &PrefillJob) -> (f64, f64) {
    let edf_term = job.urgency_deadline().as_micros() as f64;
    let work_tokens = if job.spec.class().is_interactive() {
        job.remaining_tokens() as f64
    } else {
        job.remaining_tokens() as f64 + estimator.estimated_decode_tokens(job.spec.app_id)
    };
    (edf_term, alpha_us * work_tokens)
}

impl Scheduler for QoServeScheduler {
    fn name(&self) -> &str {
        "QoServe"
    }

    fn on_arrival(&mut self, job: PrefillJob, _now: SimTime) {
        if self.tracer.enabled() {
            let (edf_term, srpf_term) = hybrid_terms(&self.estimator, self.alpha_us, &job);
            self.tracer.emit(
                Some(job.id().0),
                TraceEvent::PriorityScored {
                    edf_term,
                    srpf_term,
                    alpha: self.alpha_us,
                },
            );
        }
        let key = self.priority_key(&job);
        self.queue.push(job, key);
    }

    fn plan_batch(
        &mut self,
        now: SimTime,
        decodes: &[DecodeJob],
        constraints: Constraints,
    ) -> BatchPlan {
        self.update_alpha();
        let budget_tokens = self.compute_budget(now, decodes);
        self.last_chunk_budget = budget_tokens;
        let mut plan = BatchPlan {
            prefill: Vec::new(),
            token_budget: budget_tokens,
        };
        // Algorithm 1 lines 10-23: fill the budget from the priority
        // queue, relegating violators as they surface.
        let overloaded = self.backlog_overloaded();
        self.queue.fill(
            &mut plan,
            &mut Room::new(constraints, budget_tokens),
            |job| hybrid_key(&self.estimator, self.alpha_us, job),
            |queue, job| {
                let reason =
                    relegation_reason(&self.config, &self.estimator, queue, job, now, overloaded);
                let Some(reason) = reason else {
                    return false;
                };
                job.relegated = true;
                self.relegations += 1;
                if self.tracer.enabled() {
                    self.tracer.emit(
                        Some(job.id().0),
                        TraceEvent::Relegated {
                            from_tier: job.spec.tier().0,
                            to_tier: RELEGATED_TIER,
                            reason,
                        },
                    );
                }
                true
            },
        );
        plan
    }

    fn on_completion(&mut self, spec: &RequestSpec, observed_decode_tokens: u32) {
        self.estimator
            .record_decode(spec.app_id, observed_decode_tokens);
    }

    fn on_iteration(&mut self, batch: &BatchProfile, observed: SimDuration, _now: SimTime) {
        let Some(am) = self.adaptive.as_mut() else {
            return;
        };
        // Ratio against the margin-free prediction: the tracker measures
        // *model* error, which the margin then covers.
        let predicted = self.budget.predictor().predict_raw_us(batch);
        if am.record(predicted, observed.as_micros() as f64) {
            self.budget.set_margin(am.current());
            if am.fallback_engaged() {
                self.budget.engage_fallback();
            }
            match am.recalibration_factor() {
                Some(f) => self.estimator.recalibrate(f),
                None => self.estimator.restore_base_rates(),
            }
            if self.tracer.enabled() {
                self.tracer.emit(
                    None,
                    TraceEvent::MarginAdjusted {
                        margin: am.current(),
                        fallback: am.fallback_engaged(),
                    },
                );
            }
        }
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.budget.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    fn pending_prefills(&self) -> usize {
        self.queue.len()
    }

    fn pending_prefill_tokens(&self) -> u64 {
        self.queue.pending_tokens()
    }

    fn drain_pending(&mut self) -> Vec<PrefillJob> {
        self.queue.drain()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_perf::HardwareConfig;
    use qoserve_workload::{QosTier, RequestId, Slo};

    fn predictor() -> LatencyPredictor {
        LatencyPredictor::analytical(&HardwareConfig::llama3_8b_a100_tp1())
    }

    fn sched(config: QoServeConfig) -> QoServeScheduler {
        QoServeScheduler::new(config, predictor())
    }

    fn spec(id: u64, arrival_secs: f64, prompt: u32, tier: QosTier) -> RequestSpec {
        RequestSpec {
            id: RequestId(id),
            arrival: SimTime::from_secs_f64(arrival_secs),
            prompt_tokens: prompt,
            decode_tokens: 10,
            slo: Slo::of_tier(tier),
            app_id: 0,
        }
    }

    fn decode(id: u64, ctx: u32, deadline: SimTime) -> DecodeJob {
        DecodeJob {
            id: RequestId(id),
            context_len: ctx,
            next_token_deadline: deadline,
            relegated: false,
        }
    }

    #[test]
    fn hybrid_priority_interpolates_edf_and_srpf() {
        // Two interactive jobs: A has the earlier deadline but a huge
        // prompt; B arrived 2s later with a tiny prompt.
        let a = PrefillJob::new(spec(0, 0.0, 20_000, QosTier::paper_q1()));
        let b = PrefillJob::new(spec(1, 2.0, 100, QosTier::paper_q1()));

        // α = 0 (EDF): A wins on deadline.
        let edf = sched(QoServeConfig {
            alpha: AlphaPolicy::Fixed { ms_per_token: 0.0 },
            ..Default::default()
        });
        assert!(edf.priority_key(&a) < edf.priority_key(&b));

        // α = 8 ms/token: B's 160x smaller prompt dominates the 2s gap.
        let hybrid = sched(QoServeConfig::default());
        assert!(hybrid.priority_key(&b) < hybrid.priority_key(&a));
    }

    #[test]
    fn eq5_uses_decode_estimate_for_non_interactive() {
        let mut s = sched(QoServeConfig::default());
        let job = PrefillJob::new(spec(0, 0.0, 1_000, QosTier::paper_q2()));
        let before = s.priority_key(&job);
        // Teach the estimator that app 0 generates long outputs.
        for _ in 0..20 {
            s.on_completion(&job.spec, 2_000);
        }
        let after = s.priority_key(&job);
        assert!(
            after > before,
            "longer decode history must worsen (raise) the priority key"
        );
    }

    #[test]
    fn dynamic_chunk_budget_expands_with_slack() {
        let mut s = sched(QoServeConfig::default());
        let now = SimTime::from_secs(100);
        // Tight slack: 30ms to next token.
        let tight: Vec<DecodeJob> = (0..32)
            .map(|i| decode(i, 1_000, now + SimDuration::from_millis(30)))
            .collect();
        // Loose slack: 500ms.
        let loose: Vec<DecodeJob> = (0..32)
            .map(|i| decode(i, 1_000, now + SimDuration::from_millis(500)))
            .collect();
        let b_tight = s.compute_budget(now, &tight);
        let b_loose = s.compute_budget(now, &loose);
        assert!(
            b_loose > b_tight,
            "loose slack {b_loose} must beat tight slack {b_tight}"
        );
        assert_eq!(
            s.compute_budget(now, &[]),
            ChunkLimits::default().max_chunk,
            "no decodes -> unconstrained budget"
        );
    }

    #[test]
    fn fixed_chunk_mode_mimics_sarathi() {
        let mut s = sched(QoServeConfig {
            dynamic_chunking: false,
            fixed_chunk: 256,
            ..Default::default()
        });
        let now = SimTime::from_secs(1);
        let decodes: Vec<DecodeJob> = (0..56)
            .map(|i| decode(i, 100, now + SimDuration::from_secs(10)))
            .collect();
        assert_eq!(s.compute_budget(now, &decodes), 200);
    }

    #[test]
    fn violated_job_is_relegated_and_deprioritized() {
        let mut s = sched(QoServeConfig::default());
        // Job 0's TTFT deadline (arrival 0 + 6s) has long passed at t=100.
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, 500, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        // Job 1 is fresh and feasible.
        s.on_arrival(
            PrefillJob::new(spec(1, 99.0, 500, QosTier::paper_q1())),
            SimTime::from_secs(99),
        );
        let plan = s.plan_batch(SimTime::from_secs(100), &[], Constraints::unlimited());
        assert!(s.relegation_count() >= 1);
        assert_eq!(plan.prefill[0].id, RequestId(1), "live job must lead");
        // The relegated job is still serviced opportunistically (budget
        // remains after the live job).
        let relegated: Vec<_> = plan.prefill.iter().filter(|a| a.relegated).collect();
        assert!(
            relegated.iter().any(|a| a.id == RequestId(0)),
            "relegated job should be serviced opportunistically, plan: {plan:?}"
        );
    }

    #[test]
    fn relegation_can_be_disabled() {
        let mut s = sched(QoServeConfig {
            eager_relegation: false,
            ..Default::default()
        });
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, 500, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        let plan = s.plan_batch(SimTime::from_secs(100), &[], Constraints::unlimited());
        assert_eq!(s.relegation_count(), 0);
        assert!(!plan.prefill[0].relegated);
    }

    #[test]
    fn hopeless_job_is_relegated_before_its_deadline() {
        let mut s = sched(QoServeConfig::default());
        // 600k prompt tokens cannot prefill within a 6s TTFT at ~60us/token
        // (~36s needed): hopeless from the start.
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, 600_000, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        let _ = s.plan_batch(SimTime::from_millis(100), &[], Constraints::unlimited());
        assert_eq!(s.relegation_count(), 1);
    }

    #[test]
    fn low_priority_shed_first_under_infeasible_backlog() {
        // An interactive backlog deep enough that a low-priority job's
        // queue-ahead delay alone blows its 6s TTFT: the low-priority
        // half is shed, the important half is kept (it is not yet
        // hopeless on its own service time, which is all the paper's
        // check holds important jobs to).
        let mut s = sched(QoServeConfig::default());
        for i in 0..40 {
            let mut sp = spec(i, 0.0, 40_000, QosTier::paper_q1());
            sp.slo = Slo::of_tier(QosTier::paper_q1()).with_priority(if i % 2 == 0 {
                Priority::Low
            } else {
                Priority::Important
            });
            s.on_arrival(PrefillJob::new(sp), SimTime::ZERO);
        }
        assert!(s.backlog_overloaded());
        let plan = s.plan_batch(SimTime::from_millis(100), &[], Constraints::unlimited());
        assert!(s.relegation_count() > 0, "low-priority jobs should be shed");
        for a in plan.prefill.iter().filter(|a| !a.relegated) {
            assert_eq!(
                a.id.0 % 2,
                1,
                "only important jobs should be scheduled live, got {a:?}"
            );
        }
    }

    #[test]
    fn feasible_low_priority_jobs_survive_absorbable_surges() {
        // A non-interactive backlog whose drain time is far inside the
        // 600s TTLT: even though the 6s shed threshold is exceeded, no
        // low-priority job is relegated — the queue-ahead estimate shows
        // they will all make it.
        let mut s = sched(QoServeConfig::default());
        for i in 0..40 {
            let mut sp = spec(i, 0.0, 4_000, QosTier::paper_q2());
            sp.slo = Slo::of_tier(QosTier::paper_q2()).with_priority(if i % 2 == 0 {
                Priority::Low
            } else {
                Priority::Important
            });
            s.on_arrival(PrefillJob::new(sp), SimTime::ZERO);
        }
        assert!(s.backlog_overloaded());
        let _ = s.plan_batch(SimTime::from_secs(1), &[], Constraints::unlimited());
        assert_eq!(
            s.relegation_count(),
            0,
            "feasible low-priority work must not be shed"
        );
    }

    #[test]
    fn load_adaptive_alpha_switches_and_rekeys() {
        let mut s = sched(QoServeConfig {
            alpha: AlphaPolicy::LoadAdaptive {
                low_ms: 1.0,
                high_ms: 8.0,
                backlog_tokens: 10_000,
            },
            // Disable relegation so backlog stays in place for the test.
            eager_relegation: false,
            ..Default::default()
        });
        assert_eq!(s.alpha_ms(), 1.0);
        for i in 0..10 {
            s.on_arrival(
                PrefillJob::new(spec(i, 0.0, 5_000, QosTier::paper_q3())),
                SimTime::ZERO,
            );
        }
        let _ = s.plan_batch(SimTime::from_secs(1), &[], Constraints::unlimited());
        assert_eq!(s.alpha_ms(), 8.0, "backlog should raise alpha");
    }

    #[test]
    fn budget_zero_when_slack_exhausted() {
        let mut s = sched(QoServeConfig::default());
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, 500, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        let now = SimTime::from_secs(1);
        // Next token due immediately: no room for any prefill.
        let decodes = vec![decode(9, 2_000, now + SimDuration::from_micros(1))];
        let plan = s.plan_batch(now, &decodes, Constraints::unlimited());
        assert!(plan.is_empty());
        assert_eq!(plan.token_budget, 0);
    }

    #[test]
    fn kv_headroom_caps_plan() {
        let mut s = sched(QoServeConfig::default());
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, 5_000, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        let plan = s.plan_batch(
            SimTime::from_millis(10),
            &[],
            Constraints {
                kv_headroom_tokens: 64,
                allow_prefill: true,
                max_new_requests: usize::MAX,
            },
        );
        assert_eq!(plan.prefill_tokens(), 64);
    }

    #[test]
    fn selective_preemption_pauses_started_prefills() {
        // §3.4: a partially-prefilled request loses the next batch to a
        // higher-priority arrival (its KV stays resident; it resumes when
        // the urgent work clears) — no explicit preemption machinery, just
        // the priority order re-evaluated per iteration.
        let mut s = sched(QoServeConfig::default());
        // A large Q3 job starts prefilling alone.
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, 50_000, QosTier::paper_q3())),
            SimTime::ZERO,
        );
        let p1 = s.plan_batch(SimTime::from_millis(10), &[], Constraints::unlimited());
        assert_eq!(p1.prefill[0].id, RequestId(0));
        assert!(!p1.prefill[0].completes_prefill);

        // An interactive request lands: it owns the next batch entirely.
        s.on_arrival(
            PrefillJob::new(spec(1, 0.5, 2_000, QosTier::paper_q1())),
            SimTime::from_millis(500),
        );
        let p2 = s.plan_batch(SimTime::from_millis(600), &[], Constraints::unlimited());
        assert_eq!(p2.prefill[0].id, RequestId(1), "urgent arrival preempts");
        assert!(p2.prefill[0].completes_prefill);
        // Leftover budget resumes the preempted job within the same batch
        // (budget 2560 > 2000), picking up exactly where it stopped.
        let resumed = p2.prefill.iter().find(|a| a.id == RequestId(0)).unwrap();
        assert_eq!(resumed.context_before, p1.prefill[0].tokens);
    }

    #[test]
    fn adaptive_margin_stays_static_when_calm() {
        // Feeding observations that exactly match the raw prediction must
        // keep the adaptive pipeline's budgets identical to the static one.
        let mut adaptive = sched(QoServeConfig::adaptive());
        let mut fixed = sched(QoServeConfig::default());
        let base = adaptive.adaptive_margin().unwrap().config().base;
        let batch = BatchProfile::builder()
            .prefill_chunk(256, 0)
            .decodes(32, 32 * 1_000)
            .build();
        let exact = SimDuration::from_micros(
            adaptive.budget.predictor().predict_raw_us(&batch).round() as u64,
        );
        let now = SimTime::from_secs(5);
        for _ in 0..200 {
            adaptive.on_iteration(&batch, exact, now);
            fixed.on_iteration(&batch, exact, now);
        }
        assert_eq!(adaptive.adaptive_margin().unwrap().current(), base);
        let decodes: Vec<DecodeJob> = (0..32)
            .map(|i| decode(i, 1_000, now + SimDuration::from_millis(60)))
            .collect();
        assert_eq!(
            adaptive.compute_budget(now, &decodes),
            fixed.compute_budget(now, &decodes),
            "calm adaptive budgets must match static budgets"
        );
        assert_eq!(adaptive.estimator().recalibration_count(), 0);
    }

    #[test]
    fn adaptive_margin_widens_and_shrinks_budget_under_drift() {
        let mut s = sched(QoServeConfig::adaptive());
        let now = SimTime::from_secs(5);
        let decodes: Vec<DecodeJob> = (0..32)
            .map(|i| decode(i, 1_000, now + SimDuration::from_millis(60)))
            .collect();
        let calm_budget = s.compute_budget(now, &decodes);

        // A 1.4x slowdown window: observed latency far above prediction.
        let batch = BatchProfile::builder()
            .prefill_chunk(256, 0)
            .decodes(32, 32 * 1_000)
            .build();
        let predicted = s.budget.predictor().predict_raw_us(&batch);
        let observed = SimDuration::from_micros((predicted * 1.4).round() as u64);
        for _ in 0..64 {
            s.on_iteration(&batch, observed, now);
        }
        let am = s.adaptive_margin().unwrap();
        assert!(
            am.current() > am.config().base,
            "sustained drift must widen the margin, got {}",
            am.current()
        );
        assert!(
            s.estimator().recalibration_count() > 0,
            "drift must recalibrate the estimator rates"
        );
        let drift_budget = s.compute_budget(now, &decodes);
        assert!(
            drift_budget < calm_budget,
            "widened margin must shrink the chunk budget: {drift_budget} vs {calm_budget}"
        );
    }

    #[test]
    fn static_config_ignores_iterations() {
        let mut s = sched(QoServeConfig::default());
        let batch = BatchProfile::builder().prefill_chunk(256, 0).build();
        s.on_iteration(&batch, SimDuration::from_secs(10), SimTime::from_secs(1));
        assert!(s.adaptive_margin().is_none());
        assert_eq!(s.estimator().recalibration_count(), 0);
    }

    #[test]
    fn multi_job_packing_fills_budget() {
        let mut s = sched(QoServeConfig::default());
        for i in 0..5 {
            s.on_arrival(
                PrefillJob::new(spec(i, i as f64 * 0.01, 300, QosTier::paper_q1())),
                SimTime::ZERO,
            );
        }
        let plan = s.plan_batch(SimTime::from_millis(100), &[], Constraints::unlimited());
        // Unconstrained budget = 2560 > 5 * 300: all five jobs packed.
        assert_eq!(plan.prefill.len(), 5);
        assert!(plan.prefill.iter().all(|a| a.completes_prefill));
        assert_eq!(s.pending_prefills(), 0);
    }
}
