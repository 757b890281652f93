//! ConServe-style binary collocation (§5, related work).
//!
//! ConServe [Qiao et al. 2024] harvests idle capacity by collocating
//! offline (batch) work with online (interactive) serving under a strict
//! binary rule: interactive requests always run first, and offline work
//! fills whatever budget remains. The paper's critique — which this
//! implementation lets the benchmarks verify — is that a binary
//! interactive/offline split is "inadequate for multi-QoS scenarios where
//! all requests have definite SLO requirements": every non-interactive
//! tier collapses into one best-effort class, so a 600 s-TTLT tier gets
//! no more protection than an 1800 s one, and offline work receives
//! nothing at all under sustained interactive pressure.

use qoserve_sim::{nums, SimTime};

use crate::job::{DecodeJob, PrefillJob};
use crate::policy::OrderPolicy;
use crate::queue::{JobQueue, Room};
use crate::{BatchPlan, Constraints, Scheduler};

/// Binary interactive-first scheduler modelling ConServe.
///
/// Interactive requests are served FCFS with the fixed chunk budget;
/// offline (non-interactive) requests only receive tokens when no
/// interactive prefill is pending.
#[derive(Debug, Clone)]
pub struct ConServeScheduler {
    chunk_size: u32,
    interactive: JobQueue,
    offline: JobQueue,
}

impl ConServeScheduler {
    /// Creates the scheduler with the given fixed token budget.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is zero.
    pub fn new(chunk_size: u32) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        ConServeScheduler {
            chunk_size,
            interactive: JobQueue::new(),
            offline: JobQueue::new(),
        }
    }

    /// Pending interactive prefills (diagnostics).
    pub fn pending_interactive(&self) -> usize {
        self.interactive.len()
    }

    /// Pending offline prefills (diagnostics).
    pub fn pending_offline(&self) -> usize {
        self.offline.len()
    }
}

impl Scheduler for ConServeScheduler {
    fn name(&self) -> &str {
        "ConServe"
    }

    fn on_arrival(&mut self, job: PrefillJob, _now: SimTime) {
        let key = OrderPolicy::Fcfs.key(&job);
        if job.spec.class().is_interactive() {
            self.interactive.push(job, key);
        } else {
            self.offline.push(job, key);
        }
    }

    fn plan_batch(
        &mut self,
        _now: SimTime,
        decodes: &[DecodeJob],
        constraints: Constraints,
    ) -> BatchPlan {
        let budget = self
            .chunk_size
            .saturating_sub(nums::usize_to_u32(decodes.len()));
        let mut plan = BatchPlan {
            prefill: Vec::new(),
            token_budget: budget,
        };
        // Online first; offline only harvests what the online jobs leave
        // of the same room.
        let mut room = Room::new(constraints, budget);
        let key = |job: &PrefillJob| OrderPolicy::Fcfs.key(job);
        self.interactive
            .fill(&mut plan, &mut room, key, |_, _| false);
        self.offline.fill(&mut plan, &mut room, key, |_, _| false);
        plan
    }

    fn pending_prefills(&self) -> usize {
        self.interactive.len() + self.offline.len()
    }

    fn pending_prefill_tokens(&self) -> u64 {
        self.interactive.pending_tokens() + self.offline.pending_tokens()
    }

    fn drain_pending(&mut self) -> Vec<PrefillJob> {
        let mut jobs = self.interactive.drain();
        jobs.extend(self.offline.drain());
        jobs
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

    #[test]
    fn interactive_always_preempts_offline() {
        let mut s = ConServeScheduler::new(256);
        // Offline arrived first and even started prefilling.
        s.on_arrival(
            PrefillJob::new(spec(0, 0, 1_000, QosTier::paper_q2())),
            SimTime::ZERO,
        );
        let p1 = s.plan_batch(SimTime::from_secs(1), &[], Constraints::unlimited());
        assert_eq!(p1.prefill[0].id, RequestId(0));
        // An interactive request lands: it must take the whole next budget.
        s.on_arrival(
            PrefillJob::new(spec(1, 2, 1_000, QosTier::paper_q1())),
            SimTime::from_secs(2),
        );
        let p2 = s.plan_batch(SimTime::from_secs(2), &[], Constraints::unlimited());
        assert_eq!(p2.prefill[0].id, RequestId(1));
        assert_eq!(p2.prefill_tokens(), 256);
        assert_eq!(
            p2.prefill.len(),
            1,
            "offline gets nothing while online is pending"
        );
    }

    #[test]
    fn offline_harvests_leftover_budget() {
        let mut s = ConServeScheduler::new(256);
        s.on_arrival(
            PrefillJob::new(spec(0, 0, 100, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        s.on_arrival(
            PrefillJob::new(spec(1, 0, 1_000, QosTier::paper_q3())),
            SimTime::ZERO,
        );
        let plan = s.plan_batch(SimTime::from_secs(1), &[], Constraints::unlimited());
        assert_eq!(plan.prefill.len(), 2);
        assert_eq!(plan.prefill[0].id, RequestId(0));
        assert!(plan.prefill[0].completes_prefill);
        assert_eq!(plan.prefill[1].id, RequestId(1));
        assert_eq!(plan.prefill[1].tokens, 156);
    }

    #[test]
    fn no_distinction_between_offline_tiers() {
        // The critique: Q2 (600s) and Q3 (1800s) are served FCFS with no
        // deadline awareness — an earlier Q3 beats a later, tighter Q2.
        let mut s = ConServeScheduler::new(64);
        s.on_arrival(
            PrefillJob::new(spec(0, 0, 500, QosTier::paper_q3())),
            SimTime::ZERO,
        );
        s.on_arrival(
            PrefillJob::new(spec(1, 1, 500, QosTier::paper_q2())),
            SimTime::ZERO,
        );
        let plan = s.plan_batch(SimTime::from_secs(2), &[], Constraints::unlimited());
        assert_eq!(
            plan.prefill[0].id,
            RequestId(0),
            "FCFS across offline tiers"
        );
    }

    #[test]
    fn queue_accounting() {
        let mut s = ConServeScheduler::new(256);
        s.on_arrival(
            PrefillJob::new(spec(0, 0, 300, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        s.on_arrival(
            PrefillJob::new(spec(1, 0, 700, QosTier::paper_q2())),
            SimTime::ZERO,
        );
        assert_eq!(s.pending_interactive(), 1);
        assert_eq!(s.pending_offline(), 1);
        assert_eq!(s.pending_prefill_tokens(), 1_000);
        assert_eq!(s.drain_pending().len(), 2);
        assert_eq!(s.pending_prefills(), 0);
    }

    #[test]
    fn respects_gates() {
        let mut s = ConServeScheduler::new(256);
        s.on_arrival(
            PrefillJob::new(spec(0, 0, 300, QosTier::paper_q1())),
            SimTime::ZERO,
        );
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
    }
}
