//! Rate-limiting admission control — the production overload baseline.
//!
//! §2.2 of the paper describes how current systems manage overload:
//! "Rate Limiting: these mechanisms simply reject excess requests without
//! considering their relative importance or potential impact." This
//! module implements that baseline as a wrapper around any inner
//! scheduler: arrivals beyond a backlog cap are rejected outright (they
//! surface as unfinished violations), regardless of tier or priority.
//! Comparing it against eager relegation quantifies the paper's
//! graceful-degradation argument.

use qoserve_sim::SimTime;
use qoserve_workload::RequestSpec;

use crate::job::{DecodeJob, PrefillJob};
use crate::{BatchPlan, Constraints, Scheduler};

/// Admission-controlled wrapper: rejects arrivals when the inner
/// scheduler's pending prompt-token backlog exceeds `max_backlog_tokens`.
///
/// Rejected requests are never scheduled; they are returned by
/// [`drain_pending`](Scheduler::drain_pending) so the engine accounts
/// them as violated — exactly what a 429 means to the client.
pub struct RateLimitScheduler {
    inner: Box<dyn Scheduler>,
    max_backlog_tokens: u64,
    rejected: Vec<PrefillJob>,
    name: String,
}

impl RateLimitScheduler {
    /// Wraps `inner`, rejecting arrivals once the pending backlog exceeds
    /// `max_backlog_tokens`.
    pub fn new(inner: Box<dyn Scheduler>, max_backlog_tokens: u64) -> Self {
        let name = format!("RateLimited({})", inner.name());
        RateLimitScheduler {
            inner,
            max_backlog_tokens,
            rejected: Vec::new(),
            name,
        }
    }

    /// Requests rejected so far.
    pub fn rejected_count(&self) -> usize {
        self.rejected.len()
    }
}

impl Scheduler for RateLimitScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_arrival(&mut self, job: PrefillJob, now: SimTime) {
        if self.inner.pending_prefill_tokens() >= self.max_backlog_tokens {
            // 429: importance-blind rejection.
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

    fn on_iteration(
        &mut self,
        batch: &qoserve_perf::BatchProfile,
        observed: qoserve_sim::SimDuration,
        now: SimTime,
    ) {
        self.inner.on_iteration(batch, observed, now);
    }

    fn pending_prefills(&self) -> usize {
        self.inner.pending_prefills()
    }

    fn pending_prefill_tokens(&self) -> u64 {
        self.inner.pending_prefill_tokens()
    }

    fn drain_pending(&mut self) -> Vec<PrefillJob> {
        // Unclaimed rejections ride along so a caller that never asks for
        // them separately still accounts every request (conservation).
        let mut jobs = self.inner.drain_pending();
        jobs.append(&mut self.rejected);
        jobs
    }

    fn drain_rejected(&mut self) -> Vec<PrefillJob> {
        std::mem::take(&mut self.rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::OrderPolicy;
    use crate::sarathi::SarathiScheduler;
    use qoserve_workload::{QosTier, RequestId, Slo};

    fn spec(id: u64, prompt: u32) -> RequestSpec {
        RequestSpec {
            id: RequestId(id),
            arrival: SimTime::from_secs(id),
            prompt_tokens: prompt,
            decode_tokens: 10,
            slo: Slo::of_tier(QosTier::paper_q1()),
            app_id: 0,
        }
    }

    fn limited(cap: u64) -> RateLimitScheduler {
        RateLimitScheduler::new(Box::new(SarathiScheduler::new(OrderPolicy::Fcfs, 256)), cap)
    }

    #[test]
    fn admits_until_backlog_cap() {
        let mut s = limited(1_000);
        s.on_arrival(PrefillJob::new(spec(0, 600)), SimTime::ZERO);
        s.on_arrival(PrefillJob::new(spec(1, 600)), SimTime::ZERO);
        // Backlog is now 1200 >= 1000: the third arrival bounces.
        s.on_arrival(PrefillJob::new(spec(2, 100)), SimTime::ZERO);
        assert_eq!(s.pending_prefills(), 2);
        assert_eq!(s.rejected_count(), 1);
    }

    #[test]
    fn rejection_is_importance_blind() {
        use qoserve_workload::Priority;
        let mut s = limited(100);
        s.on_arrival(PrefillJob::new(spec(0, 200)), SimTime::ZERO);
        let mut important = spec(1, 50);
        important.slo = Slo::of_tier(QosTier::paper_q1()).with_priority(Priority::Important);
        s.on_arrival(PrefillJob::new(important), SimTime::ZERO);
        assert_eq!(s.rejected_count(), 1, "even important traffic bounces");
    }

    #[test]
    fn drain_includes_rejections() {
        let mut s = limited(100);
        s.on_arrival(PrefillJob::new(spec(0, 200)), SimTime::ZERO);
        s.on_arrival(PrefillJob::new(spec(1, 50)), SimTime::ZERO);
        let drained = s.drain_pending();
        assert_eq!(drained.len(), 2);
        assert_eq!(s.rejected_count(), 0);
    }

    #[test]
    fn drain_rejected_separates_bounced_jobs() {
        let mut s = limited(100);
        s.on_arrival(PrefillJob::new(spec(0, 200)), SimTime::ZERO);
        s.on_arrival(PrefillJob::new(spec(1, 50)), SimTime::ZERO);
        let rejected = s.drain_rejected();
        assert_eq!(rejected.len(), 1);
        assert_eq!(rejected[0].spec.id, spec(1, 50).id);
        // Once claimed, rejections no longer ride along with the queue.
        let drained = s.drain_pending();
        assert_eq!(drained.len(), 1);
        assert_eq!(s.rejected_count(), 0);
    }

    #[test]
    fn default_drain_rejected_is_empty() {
        let mut inner = SarathiScheduler::new(OrderPolicy::Fcfs, 256);
        inner.on_arrival(PrefillJob::new(spec(0, 100)), SimTime::ZERO);
        assert!(inner.drain_rejected().is_empty());
        assert_eq!(inner.drain_pending().len(), 1);
    }

    #[test]
    fn capacity_frees_as_backlog_drains() {
        let mut s = limited(500);
        s.on_arrival(PrefillJob::new(spec(0, 600)), SimTime::ZERO);
        s.on_arrival(PrefillJob::new(spec(1, 100)), SimTime::ZERO);
        assert_eq!(s.rejected_count(), 1);
        // Drain the backlog through batches.
        for _ in 0..3 {
            let _ = s.plan_batch(SimTime::from_secs(1), &[], Constraints::unlimited());
        }
        assert_eq!(s.pending_prefill_tokens(), 0);
        s.on_arrival(PrefillJob::new(spec(2, 100)), SimTime::ZERO);
        assert_eq!(s.pending_prefills(), 1, "admission resumes after drain");
    }

    #[test]
    fn name_reflects_inner() {
        assert_eq!(limited(1).name(), "RateLimited(Sarathi-FCFS)");
    }

    #[test]
    fn decode_backlog_is_invisible_by_default() {
        // Two admitted requests whose prompts drain instantly but whose
        // decodes are still owed: the prompt-token cap lets everything
        // through.
        let mut s = limited(500);
        s.on_arrival(PrefillJob::new(spec(0, 300)), SimTime::ZERO);
        s.on_arrival(PrefillJob::new(spec(1, 100)), SimTime::ZERO);
        for _ in 0..3 {
            let _ = s.plan_batch(SimTime::from_secs(1), &[], Constraints::unlimited());
        }
        assert_eq!(s.pending_prefill_tokens(), 0);
        s.on_arrival(PrefillJob::new(spec(2, 100)), SimTime::ZERO);
        assert_eq!(s.rejected_count(), 0, "the cap ignores decode debt");
    }
}
