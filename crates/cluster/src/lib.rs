//! Cluster-scale simulation for the QoServe reproduction.
//!
//! The paper's headline result (Fig. 1, Table 4) is a *deployment*
//! argument: a shared QoServe cluster needs 23 % fewer GPUs than the
//! state-of-the-art siloed deployment at the same load and SLOs. This
//! crate provides the machinery behind every cluster-scale number:
//!
//! * [`spec`] — [`SchedulerSpec`], a buildable description of a scheduler
//!   (so each replica can own a fresh instance).
//! * [`router`] — request routing across replicas (round-robin, as in the
//!   paper's experiments).
//! * [`deployment`] — shared vs siloed deployments of fixed, fault-free
//!   fleets; replicas run on parallel workers, each bit-reproducible.
//! * [`recovery`] — the fault plan and recovery policy: sharded epoch
//!   stepping (replica-local advancement between fault events, lockstep
//!   around crashes), crash-orphan re-dispatch with bounded retries and
//!   deterministic backoff, re-prefill accounting, and tier-aware
//!   shedding when surviving capacity is insufficient.
//! * [`breaker`] — per-replica circuit breakers
//!   (Closed → Open → HalfProbe) thresholding the engines' rolling
//!   health snapshots, so straggling-but-alive replicas stop receiving
//!   re-dispatched work until they recover.
//! * [`capacity`] — goodput search ("max QPS with ≤ 1 % violations") and
//!   the minimum-replica capacity planner behind Table 4 and Fig. 15b.
//! * [`lifecycle`] — the replica lifecycle (Provisioning → Warming → Up →
//!   Draining → Down): timing constants, graceful-drain victim selection
//!   mirroring the shed ordering, and deterministic scale-churn
//!   schedules.
//! * [`autoscale`] — the SLO-feedback hysteresis autoscaler on windowed
//!   per-tier attainment and queue pressure.
//! * [`elastic`] — the cluster kernel behind every fault-injected or
//!   elastic run: crash recovery composed with lifecycle and
//!   autoscaling. With no faults and no scale events it is bit-identical
//!   to [`run_shared`]. One private dispatcher makes every placement
//!   after the router's pre-assignment.

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

pub mod autoscale;
pub mod breaker;
pub mod capacity;
pub mod deployment;
mod dispatch;
pub mod elastic;
pub mod lifecycle;
pub mod recovery;
pub mod router;
pub mod spec;

pub use autoscale::{AutoscaleConfig, AutoscaleController, AutoscaleDecision, ControlObservation};
pub use breaker::{BreakerState, CircuitBreaker};
pub use capacity::{max_goodput, min_replicas_for, GoodputOptions};
pub use deployment::{run_shared, run_shared_traced, run_siloed, ClusterConfig, SiloGroup};
pub use elastic::{
    run_shared_elastic, run_shared_elastic_observed, run_shared_elastic_observed_lockstep,
    ElasticRunResult,
};
pub use lifecycle::{
    drain_victim, generate_scale_schedule, DrainCandidate, ElasticPlan, LifecycleConfig,
    ScaleAction, ScaleChurnConfig, ScaleEvent,
};
pub use recovery::{FaultPlan, FaultRunStats};
pub use router::{Router, RouterError};
pub use spec::SchedulerSpec;
