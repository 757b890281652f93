//! Sarathi-style fixed-chunk scheduling (the paper's baselines).
//!
//! Sarathi-Serve executes every iteration with a fixed *token budget*: all
//! in-flight decodes plus prefill tokens pulled from the queue head until
//! the budget fills (§2.1). The paper derives its baselines by swapping
//! the queue order: Sarathi-FCFS, Sarathi-SJF, Sarathi-SRPF, Sarathi-EDF
//! (§4, Fig. 2). None of them relegate or adapt the chunk.

use qoserve_sim::{nums, SimTime};

use crate::job::{DecodeJob, PrefillJob};
use crate::policy::OrderPolicy;
use crate::queue::{JobQueue, Room};
use crate::{BatchPlan, Constraints, Scheduler};

/// Fixed-chunk scheduler with a pluggable prefill ordering.
///
/// # Example
///
/// ```
/// use qoserve_sched::{OrderPolicy, SarathiScheduler, Scheduler};
///
/// let sched = SarathiScheduler::new(OrderPolicy::Edf, 256);
/// assert_eq!(sched.name(), "Sarathi-EDF");
/// ```
#[derive(Debug, Clone)]
pub struct SarathiScheduler {
    name: String,
    policy: OrderPolicy,
    chunk_size: u32,
    queue: JobQueue,
}

impl SarathiScheduler {
    /// Creates a scheduler with the given ordering and per-iteration token
    /// budget (the paper's shared-cluster baselines use 256 to satisfy the
    /// strictest 50 ms TBT tier; throughput-oriented silos use 2048).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn new(policy: OrderPolicy, chunk_size: u32) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        SarathiScheduler {
            name: format!("Sarathi-{}", policy.label()),
            policy,
            chunk_size,
            queue: JobQueue::new(),
        }
    }

    /// The fixed token budget.
    pub fn chunk_size(&self) -> u32 {
        self.chunk_size
    }

    /// The ordering policy.
    pub fn policy(&self) -> OrderPolicy {
        self.policy
    }
}

impl Scheduler for SarathiScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_arrival(&mut self, job: PrefillJob, _now: SimTime) {
        let key = self.policy.key(&job);
        self.queue.push(job, key);
    }

    fn plan_batch(
        &mut self,
        _now: SimTime,
        decodes: &[DecodeJob],
        constraints: Constraints,
    ) -> BatchPlan {
        // Sarathi's token budget covers decode tokens too: each decoding
        // request consumes one slot of the chunk.
        let budget = self
            .chunk_size
            .saturating_sub(nums::usize_to_u32(decodes.len()));
        let mut plan = BatchPlan {
            prefill: Vec::new(),
            token_budget: budget,
        };
        let policy = self.policy;
        self.queue.fill(
            &mut plan,
            &mut Room::new(constraints, budget),
            |job| policy.key(job),
            |_, _| false,
        );
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
    use qoserve_workload::{QosTier, RequestId, RequestSpec, Slo};

    fn spec(id: u64, arrival_secs: u64, prompt: u32, tier: QosTier) -> RequestSpec {
        RequestSpec {
            id: RequestId(id),
            arrival: SimTime::from_secs(arrival_secs),
            prompt_tokens: prompt,
            decode_tokens: 10,
            slo: Slo::of_tier(tier),
            app_id: 0,
        }
    }

    fn arrive(s: &mut SarathiScheduler, specs: &[RequestSpec]) {
        for &sp in specs {
            s.on_arrival(PrefillJob::new(sp), sp.arrival);
        }
    }

    #[test]
    fn fills_fixed_budget_from_queue_head() {
        let mut s = SarathiScheduler::new(OrderPolicy::Fcfs, 256);
        arrive(
            &mut s,
            &[
                spec(0, 1, 200, QosTier::paper_q1()),
                spec(1, 2, 500, QosTier::paper_q1()),
            ],
        );
        let plan = s.plan_batch(SimTime::from_secs(3), &[], Constraints::unlimited());
        // 200 from request 0 (completing it) + 56 from request 1.
        assert_eq!(plan.prefill_tokens(), 256);
        assert_eq!(plan.prefill.len(), 2);
        assert_eq!(plan.prefill[0].id, RequestId(0));
        assert!(plan.prefill[0].completes_prefill);
        assert_eq!(plan.prefill[1].tokens, 56);
        assert!(!plan.prefill[1].completes_prefill);
        assert_eq!(s.pending_prefills(), 1);
        assert_eq!(s.pending_prefill_tokens(), 444);
    }

    #[test]
    fn decodes_consume_budget() {
        let mut s = SarathiScheduler::new(OrderPolicy::Fcfs, 256);
        arrive(&mut s, &[spec(0, 1, 1_000, QosTier::paper_q1())]);
        let decodes: Vec<DecodeJob> = (0..56)
            .map(|i| DecodeJob {
                id: RequestId(1_000 + i),
                context_len: 100,
                next_token_deadline: SimTime::from_secs(100),
                relegated: false,
            })
            .collect();
        let plan = s.plan_batch(SimTime::from_secs(2), &decodes, Constraints::unlimited());
        assert_eq!(plan.prefill_tokens(), 200);
        assert_eq!(plan.token_budget, 200);
    }

    #[test]
    fn srpf_reorders_after_progress() {
        let mut s = SarathiScheduler::new(OrderPolicy::Srpf, 100);
        arrive(
            &mut s,
            &[
                spec(0, 1, 150, QosTier::paper_q1()),
                spec(1, 2, 120, QosTier::paper_q1()),
            ],
        );
        // First batch: request 1 (120 remaining) beats request 0 (150).
        let p1 = s.plan_batch(SimTime::from_secs(3), &[], Constraints::unlimited());
        assert_eq!(p1.prefill[0].id, RequestId(1));
        // Request 1 now has 20 remaining; it still wins the next batch and
        // completes, then request 0 starts.
        let p2 = s.plan_batch(SimTime::from_secs(4), &[], Constraints::unlimited());
        assert_eq!(p2.prefill[0].id, RequestId(1));
        assert!(p2.prefill[0].completes_prefill);
        assert_eq!(p2.prefill[1].id, RequestId(0));
        assert_eq!(p2.prefill[1].tokens, 80);
    }

    #[test]
    fn edf_prefers_interactive_over_earlier_batch() {
        let mut s = SarathiScheduler::new(OrderPolicy::Edf, 64);
        arrive(
            &mut s,
            &[
                spec(0, 0, 500, QosTier::paper_q3()),  // deadline 1800s
                spec(1, 50, 500, QosTier::paper_q1()), // deadline 56s
            ],
        );
        let plan = s.plan_batch(SimTime::from_secs(51), &[], Constraints::unlimited());
        assert_eq!(plan.prefill[0].id, RequestId(1));
    }

    #[test]
    fn respects_kv_headroom() {
        let mut s = SarathiScheduler::new(OrderPolicy::Fcfs, 256);
        arrive(&mut s, &[spec(0, 1, 1_000, QosTier::paper_q1())]);
        let plan = s.plan_batch(
            SimTime::from_secs(2),
            &[],
            Constraints {
                kv_headroom_tokens: 100,
                allow_prefill: true,
                max_new_requests: usize::MAX,
            },
        );
        assert_eq!(plan.prefill_tokens(), 100);
        // Nothing is lost: the rest stays queued.
        assert_eq!(s.pending_prefill_tokens(), 900);
    }

    #[test]
    fn prefill_gate_blocks_everything() {
        let mut s = SarathiScheduler::new(OrderPolicy::Fcfs, 256);
        arrive(&mut s, &[spec(0, 1, 100, QosTier::paper_q1())]);
        let plan = s.plan_batch(
            SimTime::from_secs(2),
            &[],
            Constraints {
                kv_headroom_tokens: u64::MAX,
                allow_prefill: false,
                max_new_requests: usize::MAX,
            },
        );
        assert!(plan.is_empty());
        assert_eq!(s.pending_prefills(), 1);
    }

    #[test]
    fn empty_queue_empty_plan() {
        let mut s = SarathiScheduler::new(OrderPolicy::Fcfs, 256);
        let plan = s.plan_batch(SimTime::ZERO, &[], Constraints::unlimited());
        assert!(plan.is_empty());
    }

    #[test]
    #[should_panic(expected = "chunk size must be positive")]
    fn zero_chunk_rejected() {
        let _ = SarathiScheduler::new(OrderPolicy::Fcfs, 0);
    }
}
