//! SLOs-Serve-style periodic dynamic-programming scheduling (§4.5.3).
//!
//! SLOs-Serve [Chen et al. 2025] re-plans periodically with a dynamic
//! program over *all* active and queued requests, maximising SLO
//! attainment; the paper's complexity comparison credits it with
//! `O(N · N_new · M)` scheduling cost against QoServe's `O(log N_new)`
//! priority-queue pop. This module implements a faithful simplification:
//!
//! * every `replan_every` iterations, a DP over the queued requests
//!   (sorted by deadline) and a discretised time horizon selects the
//!   subset of requests that can still meet their deadlines, maximising
//!   the number of attained SLOs (`dp[j][t] = max attained among the
//!   first j jobs using t time blocks` — the classic 1‖ΣU̅ⱼ DP);
//! * between re-plans, batches are filled in plan order with a fixed
//!   TBT-safe token budget; unplanned jobs ride along best-effort after
//!   the planned ones.
//!
//! The value of this module is two-fold: it reproduces the §4.5.3
//! overhead comparison in the `sched_overhead` bin (DP cost grows
//! linearly+ with queue depth while QoServe's stays flat), and it
//! provides an optimisation-based reference point for the policy
//! benchmarks.

use std::collections::BTreeMap;

use qoserve_perf::LatencyPredictor;
use qoserve_sim::{nums, SimDuration, SimTime};
use qoserve_workload::{RequestId, RequestSpec};

use crate::estimate::ProcessingEstimator;
use crate::job::{DecodeJob, PrefillJob};
use crate::queue::{JobQueue, Room};
use crate::{BatchPlan, Constraints, Scheduler};

/// Configuration of [`SlosServeScheduler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlosServeConfig {
    /// Fixed per-iteration token budget (sized for the strictest TBT,
    /// like the Sarathi baselines).
    pub chunk: u32,
    /// Iterations between DP re-plans (SLOs-Serve re-plans periodically;
    /// 1 = every iteration, the most faithful and most expensive).
    pub replan_every: u32,
    /// Time-block granularity of the DP horizon.
    pub block: SimDuration,
    /// Maximum number of horizon blocks (bounds the DP's `M`).
    pub max_blocks: usize,
}

impl Default for SlosServeConfig {
    fn default() -> Self {
        SlosServeConfig {
            chunk: 256,
            replan_every: 1,
            block: SimDuration::from_millis(250),
            max_blocks: 4_096,
        }
    }
}

/// Periodic-DP scheduler modelling SLOs-Serve.
#[derive(Debug)]
pub struct SlosServeScheduler {
    config: SlosServeConfig,
    estimator: ProcessingEstimator,
    /// Queued jobs keyed by their rank in the current plan (planned
    /// attainable first, then best-effort), re-keyed at every re-plan.
    queue: JobQueue,
    iterations_since_plan: u32,
    /// DP cell count of the last re-plan (complexity diagnostics).
    last_dp_cells: u64,
}

impl SlosServeScheduler {
    /// Creates the scheduler; the predictor seeds the service-time
    /// estimator exactly as QoServe's does.
    pub fn new(config: SlosServeConfig, predictor: LatencyPredictor) -> Self {
        SlosServeScheduler {
            config,
            estimator: ProcessingEstimator::from_predictor(&predictor),
            queue: JobQueue::new(),
            iterations_since_plan: u32::MAX, // force a plan on first batch
            last_dp_cells: 0,
        }
    }

    /// DP cells evaluated by the most recent re-plan (the `N · M` cost).
    pub fn last_dp_cells(&self) -> u64 {
        self.last_dp_cells
    }

    /// Runs the attainment-maximising DP and re-keys the queue by plan
    /// rank.
    ///
    /// Jobs are sorted by deadline; `dp[t]` holds the maximum number of
    /// attainable jobs using `t` blocks of machine time, processed in
    /// deadline order (exchange argument: any attainable subset can be
    /// served in EDF order).
    fn replan(&mut self, now: SimTime) {
        let mut candidates: Vec<&PrefillJob> = self.queue.iter().collect();
        candidates.sort_by_key(|j| (j.urgency_deadline(), j.id()));

        let block_us = self.config.block.as_micros().max(1);
        let horizon_blocks = self.config.max_blocks;
        let service_blocks = |job: &PrefillJob| {
            let us = self
                .estimator
                .prefill_time(job.remaining_tokens())
                .as_micros();
            nums::u64_to_usize(us.div_ceil(block_us).max(1))
        };

        // dp[t] = (max attained, chosen set encoded via parent pointers).
        // To reconstruct the chosen set we keep, per job, the best t at
        // which it was taken.
        let mut dp = vec![0u32; horizon_blocks + 1];
        let mut taken: Vec<Vec<bool>> = Vec::with_capacity(candidates.len());
        let mut cells = 0u64;

        for job in &candidates {
            let service = service_blocks(job);
            let deadline_blocks = job
                .urgency_deadline()
                .signed_duration_since(now)
                .clamp_non_negative()
                .as_micros()
                / block_us;
            #[expect(
                clippy::cast_possible_truncation,
                reason = "lossy-cast debt: route through `qoserve_sim::nums`"
            )]
            let deadline_blocks = (deadline_blocks as usize).min(horizon_blocks);

            let mut row = vec![false; horizon_blocks + 1];
            if service <= deadline_blocks {
                // 0/1 knapsack step, iterating t downward; a job taken at
                // finish time t must finish by its deadline.
                for t in (service..=deadline_blocks).rev() {
                    cells += 1;
                    if dp[t - service] + 1 > dp[t] {
                        dp[t] = dp[t - service] + 1;
                        row[t] = true;
                    }
                }
            }
            taken.push(row);
        }
        self.last_dp_cells = cells;

        // Reconstruct: walk jobs backwards from the best end block.
        let mut t = (0..=horizon_blocks).max_by_key(|&t| dp[t]).unwrap_or(0);
        let mut attained: Vec<RequestId> = Vec::new();
        let mut best_effort: Vec<RequestId> = Vec::new();
        for (idx, job) in candidates.iter().enumerate().rev() {
            let service = service_blocks(job);
            if t >= service && taken[idx][t] {
                attained.push(job.id());
                t -= service;
            } else {
                best_effort.push(job.id());
            }
        }
        // Both lists were collected in reverse deadline order; serve the
        // attained jobs in EDF order, then the best-effort ones likewise.
        let rank: BTreeMap<RequestId, i64> = attained
            .iter()
            .rev()
            .chain(best_effort.iter().rev())
            .zip(0..)
            .map(|(&id, rank)| (id, rank))
            .collect();
        self.queue.rekey(|job| rank[&job.id()]);
        self.iterations_since_plan = 0;
    }
}

impl Scheduler for SlosServeScheduler {
    fn name(&self) -> &str {
        "SLOs-Serve"
    }

    fn on_arrival(&mut self, job: PrefillJob, _now: SimTime) {
        // Unranked until the re-plan this arrival forces at the next
        // batch boundary.
        self.queue.push(job, i64::MAX);
        self.iterations_since_plan = u32::MAX;
    }

    fn plan_batch(
        &mut self,
        now: SimTime,
        decodes: &[DecodeJob],
        constraints: Constraints,
    ) -> BatchPlan {
        if self.iterations_since_plan >= self.config.replan_every {
            self.replan(now);
        }
        self.iterations_since_plan = self.iterations_since_plan.saturating_add(1);

        let budget = self
            .config
            .chunk
            .saturating_sub(nums::usize_to_u32(decodes.len()));
        let mut plan = BatchPlan {
            prefill: Vec::new(),
            token_budget: budget,
        };
        // Serve in plan order. A job the fill puts back was the plan's
        // head (every job ranked before it completed), so it keeps the
        // front until the next re-plan.
        self.queue.fill(
            &mut plan,
            &mut Room::new(constraints, budget),
            |_| i64::MIN,
            |_, _| false,
        );
        plan
    }

    fn on_completion(&mut self, spec: &RequestSpec, observed_decode_tokens: u32) {
        self.estimator
            .record_decode(spec.app_id, observed_decode_tokens);
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
    use qoserve_workload::{QosTier, Slo};

    fn sched() -> SlosServeScheduler {
        SlosServeScheduler::new(
            SlosServeConfig::default(),
            LatencyPredictor::analytical(&HardwareConfig::llama3_8b_a100_tp1()),
        )
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

    #[test]
    fn serves_attainable_jobs_in_deadline_order() {
        let mut s = sched();
        // Q3 arrived first (deadline 1800s), Q1 second (deadline ~6s).
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, 500, QosTier::paper_q3())),
            SimTime::ZERO,
        );
        s.on_arrival(
            PrefillJob::new(spec(1, 0.1, 500, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        let plan = s.plan_batch(SimTime::from_millis(200), &[], Constraints::unlimited());
        assert_eq!(
            plan.prefill[0].id,
            RequestId(1),
            "Q1 deadline leads the plan"
        );
    }

    #[test]
    fn dp_sacrifices_unattainable_jobs() {
        let mut s = sched();
        // A job whose deadline already passed must not displace feasible
        // work in the plan.
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, 500, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        s.on_arrival(
            PrefillJob::new(spec(1, 99.0, 500, QosTier::paper_q1())),
            SimTime::from_secs(99),
        );
        let plan = s.plan_batch(SimTime::from_secs(100), &[], Constraints::unlimited());
        // Both may be served (budget allows), but the feasible one leads.
        assert_eq!(plan.prefill[0].id, RequestId(1));
    }

    #[test]
    fn dp_packs_deadlines_optimally() {
        // Three jobs, deadlines such that only two can be attained; the DP
        // should pick two (greedy-by-arrival would get one).
        let mut s = sched();
        // ~64us/token prefill: 40k tokens ≈ 2.6s service.
        let service_heavy = 40_000;
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, service_heavy, QosTier::paper_q1())), // deadline 6s
            SimTime::ZERO,
        );
        s.on_arrival(
            PrefillJob::new(spec(1, 0.0, service_heavy, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        s.on_arrival(
            PrefillJob::new(spec(2, 0.0, service_heavy, QosTier::paper_q1())),
            SimTime::ZERO,
        );
        s.replan(SimTime::ZERO);
        // Only two 2.6s services fit a 6s deadline window.
        assert!(s.last_dp_cells() > 0);
        let attained_first_two: Vec<RequestId> = (0..2)
            .filter_map(|_| s.queue.pop())
            .map(|j| j.id())
            .collect();
        assert_eq!(attained_first_two, vec![RequestId(0), RequestId(1)]);
    }

    #[test]
    fn dp_cost_grows_with_queue_depth() {
        let cells_for = |n: u64| {
            let mut s = sched();
            for i in 0..n {
                s.on_arrival(
                    PrefillJob::new(spec(i, 0.0, 2_000, QosTier::paper_q2())),
                    SimTime::ZERO,
                );
            }
            s.replan(SimTime::ZERO);
            s.last_dp_cells()
        };
        let small = cells_for(10);
        let large = cells_for(1_000);
        assert!(
            large > 50 * small.max(1),
            "DP cost must grow superlinearly-ish with queue depth: {small} -> {large}"
        );
    }

    #[test]
    fn respects_constraints_like_other_schedulers() {
        let mut s = sched();
        s.on_arrival(
            PrefillJob::new(spec(0, 0.0, 1_000, QosTier::paper_q1())),
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
        let capped = s.plan_batch(
            SimTime::ZERO,
            &[],
            Constraints {
                kv_headroom_tokens: 64,
                allow_prefill: true,
                max_new_requests: usize::MAX,
            },
        );
        assert_eq!(capped.prefill_tokens(), 64);
    }

    #[test]
    fn drain_returns_all_jobs() {
        let mut s = sched();
        for i in 0..5 {
            s.on_arrival(
                PrefillJob::new(spec(i, 0.0, 100, QosTier::paper_q2())),
                SimTime::ZERO,
            );
        }
        assert_eq!(s.pending_prefills(), 5);
        assert_eq!(s.pending_prefill_tokens(), 500);
        assert_eq!(s.drain_pending().len(), 5);
        assert_eq!(s.pending_prefills(), 0);
    }
}
