//! SLO-aware admission control — the resilience layer's kinder gate.
//!
//! [`RateLimitScheduler`](crate::RateLimitScheduler) rejects on a raw
//! backlog-token cap: importance-blind and deadline-blind, it bounces
//! feasible work in a deep-but-drainable queue and admits hopeless work
//! behind a shallow one. [`DeadlineAwareAdmission`] rejects only requests
//! that *provably* miss their deadline even if scheduled immediately —
//! the same "hopeless" predicate QoServe's eager relegation applies
//! in-queue (§3.4), moved to the door so doomed work never occupies KV or
//! batch slots at all.
//!
//! The predicate is fed by the adaptive resilience loop: per-iteration
//! `(predicted, observed)` pairs arriving through
//! [`Scheduler::on_iteration`] drive an [`AdaptiveMargin`] whose widening
//! over the base margin inflates the completion estimate, and whose
//! tracker median recalibrates the estimator's per-token rates. Under
//! drift the gate tightens exactly as much as the replica actually
//! slowed down; when calm it is a no-op beyond the static estimate.

use qoserve_perf::{AdaptiveMargin, BatchProfile, LatencyPredictor};
use qoserve_sim::{SimDuration, SimTime};
use qoserve_trace::{TraceEvent, Tracer};
use qoserve_workload::RequestSpec;

use crate::estimate::ProcessingEstimator;
use crate::job::{DecodeJob, PrefillJob};
use crate::{BatchPlan, Constraints, Scheduler};

/// Admission wrapper rejecting provably-late requests only.
///
/// Rejections surface through [`drain_rejected`](Scheduler::drain_rejected)
/// (and ride along in [`drain_pending`](Scheduler::drain_pending) when
/// unclaimed), mirroring [`RateLimitScheduler`](crate::RateLimitScheduler)'s
/// conservation contract: no accounting path can lose a request.
pub struct DeadlineAwareAdmission {
    inner: Box<dyn Scheduler>,
    estimator: ProcessingEstimator,
    predictor: LatencyPredictor,
    margin: AdaptiveMargin,
    rejected: Vec<PrefillJob>,
    name: String,
    tracer: Tracer,
}

impl DeadlineAwareAdmission {
    /// Wraps `inner`; the completion estimate derives from `predictor`
    /// (margined rates, see `ProcessingEstimator::from_predictor`) and
    /// the adaptive controller anchors at the predictor's margin.
    pub fn new(inner: Box<dyn Scheduler>, predictor: LatencyPredictor) -> Self {
        let name = format!("DeadlineAware({})", inner.name());
        let estimator = ProcessingEstimator::from_predictor(&predictor);
        let margin = AdaptiveMargin::new(predictor.margin());
        DeadlineAwareAdmission {
            inner,
            estimator,
            predictor,
            margin,
            rejected: Vec::new(),
            name,
            tracer: Tracer::disabled(),
        }
    }

    /// Requests rejected so far.
    pub fn rejected_count(&self) -> usize {
        self.rejected.len()
    }

    /// The adaptive controller driving the pessimism factor (tests).
    pub fn adaptive_margin(&self) -> &AdaptiveMargin {
        &self.margin
    }

    /// Access to the estimator the predicate uses (tests).
    pub fn estimator(&self) -> &ProcessingEstimator {
        &self.estimator
    }

    /// The service time the gate judges `job` by. The estimator's rates
    /// already carry the *base* margin; only the adaptive widening beyond
    /// it adds pessimism, so a calm system gates exactly like the static
    /// estimate.
    fn gated_service(&self, job: &PrefillJob) -> SimDuration {
        let widened = (self.margin.current() - self.margin.base()).max(0.0);
        self.estimator.service_time(job).mul_f64(1.0 + widened)
    }

    /// The admission predicate: would `job` miss its deadline even with
    /// the whole machine to itself, under current drift conditions?
    fn provably_misses(&self, job: &PrefillJob, now: SimTime) -> bool {
        now + self.gated_service(job) > job.urgency_deadline()
    }
}

impl Scheduler for DeadlineAwareAdmission {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_arrival(&mut self, job: PrefillJob, now: SimTime) {
        if self.provably_misses(&job, now) {
            if self.tracer.enabled() {
                self.tracer.emit(
                    Some(job.id().0),
                    TraceEvent::AdmissionRejected {
                        estimated_service_us: self.gated_service(&job).as_micros(),
                        deadline_us: job.urgency_deadline().as_micros(),
                    },
                );
            }
            self.rejected.push(job);
        } else {
            self.inner.on_arrival(job, now);
        }
    }

    fn plan_batch(
        &mut self,
        now: SimTime,
        decodes: &[DecodeJob],
        constraints: Constraints,
    ) -> BatchPlan {
        self.inner.plan_batch(now, decodes, constraints)
    }

    fn on_completion(&mut self, spec: &RequestSpec, observed_decode_tokens: u32) {
        self.inner.on_completion(spec, observed_decode_tokens);
    }

    fn on_iteration(&mut self, batch: &BatchProfile, observed: SimDuration, now: SimTime) {
        let predicted = self.predictor.predict_raw_us(batch);
        if self.margin.record(predicted, observed.as_micros() as f64) {
            if self.margin.fallback_engaged() {
                self.predictor.engage_fallback();
            }
            match self.margin.recalibration_factor() {
                Some(f) => self.estimator.recalibrate(f),
                None => self.estimator.restore_base_rates(),
            }
        }
        self.inner.on_iteration(batch, observed, now);
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    fn pending_prefills(&self) -> usize {
        self.inner.pending_prefills()
    }

    fn pending_prefill_tokens(&self) -> u64 {
        self.inner.pending_prefill_tokens()
    }

    fn drain_pending(&mut self) -> Vec<PrefillJob> {
        // Unclaimed rejections ride along (conservation).
        let mut jobs = self.inner.drain_pending();
        jobs.append(&mut self.rejected);
        jobs
    }

    fn drain_rejected(&mut self) -> Vec<PrefillJob> {
        let mut rejected = std::mem::take(&mut self.rejected);
        rejected.extend(self.inner.drain_rejected());
        rejected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::RateLimitScheduler;
    use crate::policy::OrderPolicy;
    use crate::sarathi::SarathiScheduler;
    use qoserve_perf::HardwareConfig;
    use qoserve_workload::{QosTier, RequestId, Slo};

    fn predictor() -> LatencyPredictor {
        LatencyPredictor::analytical(&HardwareConfig::llama3_8b_a100_tp1())
    }

    fn gate() -> DeadlineAwareAdmission {
        let inner = Box::new(SarathiScheduler::new(OrderPolicy::Fcfs, 256));
        DeadlineAwareAdmission::new(inner, predictor())
    }

    fn spec(id: u64, prompt: u32, tier: QosTier) -> RequestSpec {
        RequestSpec {
            id: RequestId(id),
            arrival: SimTime::ZERO,
            prompt_tokens: prompt,
            decode_tokens: 10,
            slo: Slo::of_tier(tier),
            app_id: 0,
        }
    }

    #[test]
    fn feasible_requests_are_admitted() {
        let mut g = gate();
        // 2k prompt tokens at ~65 µs/token is ~130 ms, far inside a 6 s
        // TTFT.
        g.on_arrival(
            PrefillJob::new(spec(0, 2_000, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        assert_eq!(g.pending_prefills(), 1);
        assert_eq!(g.rejected_count(), 0);
    }

    #[test]
    fn provably_late_requests_are_rejected() {
        let mut g = gate();
        // 600k prompt tokens cannot prefill inside a 6 s TTFT even alone.
        g.on_arrival(
            PrefillJob::new(spec(0, 600_000, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        assert_eq!(g.pending_prefills(), 0);
        assert_eq!(g.rejected_count(), 1);
    }

    #[test]
    fn lateness_accounts_for_current_time() {
        let mut g = gate();
        // Feasible at arrival, hopeless once the deadline has nearly
        // passed.
        g.on_arrival(
            PrefillJob::new(spec(0, 50_000, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        assert_eq!(g.rejected_count(), 0);
        g.on_arrival(PrefillJob::new(spec(1, 50_000, QosTier::paper_q1())), {
            // 50k tokens need ~3.5 s; at t = 5.9 s the 6 s TTFT is gone.
            SimTime::from_millis(5_900)
        });
        assert_eq!(g.rejected_count(), 1);
    }

    #[test]
    fn kinder_than_backlog_cap_for_feasible_bursts() {
        // A burst that blows a 10k-token rate cap but is entirely
        // feasible: the deadline gate admits everything the cap bounces.
        let specs: Vec<RequestSpec> = (0..20)
            .map(|i| spec(i, 2_000, QosTier::paper_q2()))
            .collect();
        let inner = Box::new(SarathiScheduler::new(OrderPolicy::Fcfs, 256));
        let mut capped = RateLimitScheduler::new(inner, 10_000);
        let mut gated = gate();
        for s in &specs {
            capped.on_arrival(PrefillJob::new(*s), SimTime::ZERO);
            gated.on_arrival(PrefillJob::new(*s), SimTime::ZERO);
        }
        assert!(capped.rejected_count() > 0, "the cap bounces the burst");
        assert_eq!(gated.rejected_count(), 0, "the gate admits feasible work");
    }

    #[test]
    fn drift_tightens_the_gate() {
        let mut g = gate();
        // Borderline-feasible: ~80k tokens ≈ 5.6 s of prefill against a
        // 6 s TTFT.
        let borderline = || PrefillJob::new(spec(0, 80_000, QosTier::paper_q1()));
        assert!(!g.provably_misses(&borderline(), SimTime::ZERO));

        // Sustained 1.4x under-prediction: the margin widens and the
        // same request becomes provably late.
        let batch = BatchProfile::builder()
            .prefill_chunk(256, 0)
            .decodes(32, 32 * 1_000)
            .build();
        let predicted = g.predictor.predict_raw_us(&batch);
        let observed = SimDuration::from_micros((predicted * 1.4).round() as u64);
        for _ in 0..64 {
            g.on_iteration(&batch, observed, SimTime::ZERO);
        }
        assert!(g.adaptive_margin().current() > g.adaptive_margin().base());
        assert!(g.estimator().recalibration_count() > 0);
        assert!(
            g.provably_misses(&borderline(), SimTime::ZERO),
            "drift must tighten the admission predicate"
        );
    }

    #[test]
    fn conservation_across_drains() {
        let mut g = gate();
        g.on_arrival(
            PrefillJob::new(spec(0, 2_000, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        g.on_arrival(
            PrefillJob::new(spec(1, 600_000, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        // Unclaimed rejections ride along with drain_pending.
        assert_eq!(g.drain_pending().len(), 2);
        assert_eq!(g.rejected_count(), 0);
    }

    #[test]
    fn drain_rejected_separates_bounced_jobs() {
        let mut g = gate();
        g.on_arrival(
            PrefillJob::new(spec(0, 2_000, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        g.on_arrival(
            PrefillJob::new(spec(1, 600_000, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        let rejected = g.drain_rejected();
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].spec.id, RequestId(1));
        assert_eq!(g.drain_pending().len(), 1);
    }

    #[test]
    fn name_reflects_inner() {
        assert_eq!(gate().name(), "DeadlineAware(Sarathi-FCFS)");
    }
}
