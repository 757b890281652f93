//! Scheduling policies for the QoServe reproduction.
//!
//! A scheduler decides, at every engine iteration, which prefill tokens to
//! run next to the always-included decode batch (the chunked-prefill model
//! of §2.1). This crate defines the [`Scheduler`] trait plus every policy
//! the paper evaluates:
//!
//! * [`SarathiScheduler`] — fixed chunk size with a pluggable prefill
//!   ordering ([`OrderPolicy`]: FCFS / SJF / SRPF / EDF), the paper's
//!   baselines.
//! * [`QoServeScheduler`] — Algorithm 1: hybrid prioritization (Eq. 4/5),
//!   dynamic chunking through the latency predictor, eager relegation with
//!   free/paid-tier hints, and selective preemption.
//! * [`MedhaScheduler`] — the concurrent-work comparison (§4.5.1):
//!   adaptive chunking that shrinks chunks as prompt context deepens to
//!   hold TBT constant, without any cross-request slack awareness.
//! * [`SlosServeScheduler`] — the §4.5.3 comparison: periodic
//!   dynamic-programming planning whose cost grows with queue depth.
//! * [`RateLimitScheduler`] — §2.2's production overload baseline:
//!   importance-blind rejection past a backlog cap.
//! * [`DeadlineAwareAdmission`] — the resilience layer's SLO-aware gate:
//!   rejects only requests that provably miss their deadline even if
//!   scheduled immediately, with the estimate tightened online by the
//!   adaptive misprediction tracker.
//! * [`ConServeScheduler`] — §5's binary online/offline collocation:
//!   interactive strictly first, offline harvests leftovers.
//!
//! The engine owns request execution and the KV cache; schedulers only see
//! [`PrefillJob`]s (which they own from arrival until the last prompt
//! token is scheduled) and per-iteration snapshots of the decode pool
//! ([`DecodeJob`]). The contract is pull-based: the engine calls
//! [`Scheduler::plan_batch`] with the decode snapshot and resource
//! [`Constraints`], and receives a [`BatchPlan`].

// Library code returns errors and data (the bins own panics and the
// console), and integer casts go through `qoserve_sim::nums`.
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::todo,
        clippy::print_stdout,
        clippy::print_stderr,
        clippy::dbg_macro,
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        clippy::cast_possible_wrap,
    )
)]

pub mod admission;
pub mod conserve;
pub mod deadline;
pub mod estimate;
pub mod job;
pub mod medha;
pub mod policy;
pub mod qoserve;
pub mod queue;
pub mod sarathi;
pub mod slos_serve;

pub use admission::RateLimitScheduler;
pub use conserve::ConServeScheduler;
pub use deadline::DeadlineAwareAdmission;
pub use estimate::ProcessingEstimator;
pub use job::{DecodeJob, PrefillJob};
pub use medha::{MedhaConfig, MedhaScheduler};
pub use policy::OrderPolicy;
pub use qoserve::{AlphaPolicy, QoServeConfig, QoServeScheduler};
pub use queue::JobQueue;
pub use sarathi::SarathiScheduler;
pub use slos_serve::{SlosServeConfig, SlosServeScheduler};

use qoserve_perf::BatchProfile;
use qoserve_sim::{SimDuration, SimTime};
use qoserve_trace::Tracer;
use qoserve_workload::{RequestId, RequestSpec};

/// Per-iteration resource limits the engine imposes on a plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Constraints {
    /// KV-cache headroom in tokens: the plan's total prefill tokens must
    /// not exceed this.
    pub kv_headroom_tokens: u64,
    /// When false, no new prefill work may be scheduled this iteration
    /// (e.g. the decode pool is at its batch-size cap).
    pub allow_prefill: bool,
    /// How many *new* requests (no prefill progress yet) may start this
    /// iteration — keeps the engine's running-sequence count under its
    /// batch-size cap even when a plan packs several small prompts.
    pub max_new_requests: usize,
}

impl Constraints {
    /// Unlimited constraints (tests and micro-benchmarks).
    pub fn unlimited() -> Self {
        Constraints {
            kv_headroom_tokens: u64::MAX,
            allow_prefill: true,
            max_new_requests: usize::MAX,
        }
    }
}

/// Prefill tokens assigned to one request within a batch plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefillAssignment {
    /// The request receiving tokens.
    pub id: RequestId,
    /// Number of prompt tokens to process this iteration.
    pub tokens: u32,
    /// Prompt tokens of this request already processed (KV context depth
    /// of this chunk).
    pub context_before: u32,
    /// Whether the request finishes its prefill with this chunk (the
    /// engine emits the first output token at iteration end).
    pub completes_prefill: bool,
    /// Whether the scheduler has relegated this request.
    pub relegated: bool,
}

/// The scheduler's decision for one iteration. Decodes are implicit:
/// every request in the decode pool always participates (§3.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct BatchPlan {
    /// Prefill chunks to execute, in assignment order.
    pub prefill: Vec<PrefillAssignment>,
    /// The token budget the plan was filled against (diagnostic; equals
    /// the dynamic chunk size for QoServe, the fixed chunk for Sarathi).
    pub token_budget: u32,
}

impl BatchPlan {
    /// Total prefill tokens in the plan.
    pub fn prefill_tokens(&self) -> u32 {
        self.prefill.iter().map(|a| a.tokens).sum()
    }

    /// True when the plan schedules no prefill work.
    pub fn is_empty(&self) -> bool {
        self.prefill.is_empty()
    }
}

/// A prefill scheduling policy.
///
/// Lifecycle: the engine hands each arriving request to
/// [`on_arrival`](Scheduler::on_arrival); every iteration it calls
/// [`plan_batch`](Scheduler::plan_batch); when a request completes, it
/// reports the observed decode length via
/// [`on_completion`](Scheduler::on_completion) (food for the per-app
/// decode-length history behind Eq. 5).
pub trait Scheduler: Send {
    /// Short policy name for reports (e.g. `"Sarathi-EDF"`).
    fn name(&self) -> &str;

    /// Accepts a new request into the prefill queue.
    fn on_arrival(&mut self, job: PrefillJob, now: SimTime);

    /// Plans the prefill side of the next batch. `decodes` is the current
    /// decode pool snapshot; implementations must respect `constraints`.
    fn plan_batch(
        &mut self,
        now: SimTime,
        decodes: &[DecodeJob],
        constraints: Constraints,
    ) -> BatchPlan;

    /// Observes a completed request (default: ignored).
    fn on_completion(&mut self, _spec: &RequestSpec, _observed_decode_tokens: u32) {}

    /// Observes one executed iteration: the batch that ran and its
    /// *observed* execution time (default: ignored). Adaptive schedulers
    /// compare this against their own prediction of `batch` to track
    /// misprediction online; wrappers must forward it to their inner
    /// scheduler.
    fn on_iteration(&mut self, _batch: &BatchProfile, _observed: SimDuration, _now: SimTime) {}

    /// Installs a decision [`Tracer`] (default: ignored). Schedulers with
    /// traced decision points keep the handle and emit
    /// [`qoserve_trace::TraceEvent`]s through it; wrappers must forward
    /// the handle to their inner scheduler. With a disabled tracer —
    /// always the default — scheduling decisions are bit-identical to the
    /// untraced path.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Number of requests still waiting in the prefill queue.
    fn pending_prefills(&self) -> usize;

    /// Pending prompt tokens across the prefill queue (load signal).
    fn pending_prefill_tokens(&self) -> u64;

    /// Removes and returns every queued job (used when a simulation ends
    /// with work still pending, to account the jobs as unfinished).
    ///
    /// Note for admission-controlled schedulers: jobs bounced at admission
    /// that have not been claimed via
    /// [`drain_rejected`](Scheduler::drain_rejected) must still be
    /// included here, so that no accounting path can lose a request.
    fn drain_pending(&mut self) -> Vec<PrefillJob>;

    /// Removes and returns every job the scheduler *rejected at admission*
    /// (rate limiting), as opposed to jobs merely still queued. The engine
    /// calls this before [`drain_pending`](Scheduler::drain_pending) so
    /// rejections surface with a distinct outcome label instead of being
    /// folded into deadline-missed unfinished jobs. Default: no scheduler
    /// rejects, so this returns nothing.
    fn drain_rejected(&mut self) -> Vec<PrefillJob> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_plan_token_count() {
        let plan = BatchPlan {
            prefill: vec![
                PrefillAssignment {
                    id: RequestId(0),
                    tokens: 100,
                    context_before: 0,
                    completes_prefill: false,
                    relegated: false,
                },
                PrefillAssignment {
                    id: RequestId(1),
                    tokens: 56,
                    context_before: 20,
                    completes_prefill: true,
                    relegated: true,
                },
            ],
            token_budget: 256,
        };
        assert_eq!(plan.prefill_tokens(), 156);
        assert!(!plan.is_empty());
        assert!(BatchPlan::default().is_empty());
    }

    #[test]
    fn unlimited_constraints() {
        let c = Constraints::unlimited();
        assert!(c.allow_prefill);
        assert_eq!(c.kv_headroom_tokens, u64::MAX);
    }
}
