//! Medha-style adaptive chunking (the §4.5.1 comparison).
//!
//! Medha [Agrawal et al. 2025] starts long prefills with large chunks and
//! progressively shrinks them so the iteration latency — which grows with
//! prompt context because chunk attention is quadratic — stays at a fixed
//! TBT target. Crucially it is *per-request*: it never looks at the slack
//! accumulated by the other requests in the batch, which is exactly the
//! opportunity QoServe's dynamic chunking exploits (Fig. 15a).
//!
//! The implementation reuses the latency predictor: the chunk for the head
//! request is the largest one whose predicted iteration latency stays
//! within the (constant) TBT target, given the request's current context
//! depth and the decode pool.

use qoserve_perf::{ChunkBudget, ChunkLimits, LatencyPredictor};
use qoserve_sim::{nums, SimDuration, SimTime};

use crate::job::{DecodeJob, PrefillJob};
use crate::policy::OrderPolicy;
use crate::queue::{JobQueue, Room};
use crate::{BatchPlan, Constraints, Scheduler};

/// Configuration of [`MedhaScheduler`]. The chunk search runs within
/// the default [`ChunkLimits`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MedhaConfig {
    /// The constant TBT target the chunk is sized against.
    pub tbt_target: SimDuration,
}

impl Default for MedhaConfig {
    fn default() -> Self {
        MedhaConfig {
            tbt_target: SimDuration::from_millis(50),
        }
    }
}

/// Adaptive-chunking FCFS scheduler modelling Medha.
#[derive(Debug, Clone)]
pub struct MedhaScheduler {
    config: MedhaConfig,
    queue: JobQueue,
    budget: ChunkBudget,
    last_chunk: u32,
}

impl MedhaScheduler {
    /// Creates the scheduler around a latency predictor.
    pub fn new(config: MedhaConfig, predictor: LatencyPredictor) -> Self {
        MedhaScheduler {
            config,
            queue: JobQueue::new(),
            budget: ChunkBudget::new(predictor, ChunkLimits::default()),
            last_chunk: 0,
        }
    }

    /// Chunk size chosen by the most recent batch (Fig. 15a traces).
    pub fn last_chunk(&self) -> u32 {
        self.last_chunk
    }
}

impl Scheduler for MedhaScheduler {
    fn name(&self) -> &str {
        "Medha"
    }

    fn on_arrival(&mut self, job: PrefillJob, _now: SimTime) {
        let key = OrderPolicy::Fcfs.key(&job);
        self.queue.push(job, key);
    }

    fn plan_batch(
        &mut self,
        _now: SimTime,
        decodes: &[DecodeJob],
        constraints: Constraints,
    ) -> BatchPlan {
        let mut plan = BatchPlan::default();
        if !constraints.allow_prefill {
            return plan;
        }
        let Some(mut job) = self.queue.pop() else {
            return plan;
        };
        if job.prefill_done == 0 && constraints.max_new_requests == 0 {
            let key = OrderPolicy::Fcfs.key(&job);
            self.queue.reinsert(job, key);
            return plan;
        }

        // Chunk against the fixed TBT target at the request's current
        // context depth — slack-unaware by design. One job per batch, so
        // no fill loop: the room only caps this job's chunk.
        let ctx_total: u64 = decodes.iter().map(|d| u64::from(d.context_len)).sum();
        let chunk = self.budget.prefill_budget(
            nums::usize_to_u32(decodes.len()),
            ctx_total,
            job.prefill_done,
            Some(self.config.tbt_target),
        );
        let take = Room::new(constraints, chunk).assign(&mut job, &mut plan);
        self.last_chunk = take;
        plan.token_budget = chunk;
        if take == 0 || !job.is_complete() {
            let key = OrderPolicy::Fcfs.key(&job);
            self.queue.reinsert(job, key);
        }
        plan
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
    use qoserve_workload::{QosTier, RequestId, RequestSpec, Slo};

    fn sched() -> MedhaScheduler {
        MedhaScheduler::new(
            MedhaConfig::default(),
            LatencyPredictor::analytical(&HardwareConfig::llama3_8b_a100_tp1()),
        )
    }

    fn long_spec(prompt: u32) -> RequestSpec {
        RequestSpec {
            id: RequestId(0),
            arrival: SimTime::ZERO,
            prompt_tokens: prompt,
            decode_tokens: 500,
            slo: Slo::of_tier(QosTier::paper_q1()),
            app_id: 0,
        }
    }

    #[test]
    fn chunks_shrink_as_context_deepens() {
        // The signature Medha behaviour: process a very long prompt and
        // watch the chunk sizes decay.
        let mut s = sched();
        s.on_arrival(PrefillJob::new(long_spec(400_000)), SimTime::ZERO);
        let mut chunks = Vec::new();
        let mut now = SimTime::ZERO;
        for _ in 0..40 {
            let plan = s.plan_batch(now, &[], Constraints::unlimited());
            if plan.is_empty() {
                break;
            }
            chunks.push(plan.prefill[0].tokens);
            now += SimDuration::from_millis(50);
        }
        assert!(chunks.len() >= 10);
        let first = chunks.first().copied().unwrap();
        let last = chunks.last().copied().unwrap();
        assert!(
            last < first,
            "chunks should shrink with depth: first {first}, last {last}"
        );
        // And the sequence is (weakly) decreasing throughout.
        for w in chunks.windows(2) {
            assert!(w[1] <= w[0], "chunk grew from {} to {}", w[0], w[1]);
        }
    }

    #[test]
    fn serves_fcfs_order() {
        let mut s = sched();
        let mut a = long_spec(100);
        a.id = RequestId(1);
        a.arrival = SimTime::from_secs(1);
        let mut b = long_spec(100);
        b.id = RequestId(2);
        b.arrival = SimTime::from_secs(2);
        s.on_arrival(PrefillJob::new(b), SimTime::from_secs(2));
        s.on_arrival(PrefillJob::new(a), SimTime::from_secs(1));
        let plan = s.plan_batch(SimTime::from_secs(3), &[], Constraints::unlimited());
        assert_eq!(plan.prefill[0].id, RequestId(1));
    }

    #[test]
    fn one_request_per_batch() {
        // Medha chunks a single prefill at a time (no packing).
        let mut s = sched();
        for i in 0..3 {
            let mut sp = long_spec(10);
            sp.id = RequestId(i);
            s.on_arrival(PrefillJob::new(sp), SimTime::ZERO);
        }
        let plan = s.plan_batch(SimTime::ZERO, &[], Constraints::unlimited());
        assert_eq!(plan.prefill.len(), 1);
        assert_eq!(s.pending_prefills(), 2);
    }

    #[test]
    fn respects_constraints() {
        let mut s = sched();
        s.on_arrival(PrefillJob::new(long_spec(10_000)), SimTime::ZERO);
        let blocked = s.plan_batch(
            SimTime::ZERO,
            &[],
            Constraints {
                kv_headroom_tokens: u64::MAX,
                allow_prefill: false,
                max_new_requests: usize::MAX,
            },
        );
        assert!(blocked.is_empty());
        let capped = s.plan_batch(
            SimTime::ZERO,
            &[],
            Constraints {
                kv_headroom_tokens: 128,
                allow_prefill: true,
                max_new_requests: usize::MAX,
            },
        );
        assert_eq!(capped.prefill_tokens(), 128);
    }
}
