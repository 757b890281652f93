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
//!   mirroring the shed ordering, deterministic scale-churn schedules,
//!   and an incremental fleet router for changing membership.
//! * [`autoscale`] — the SLO-feedback hysteresis autoscaler on windowed
//!   per-tier attainment and queue pressure.
//! * [`elastic`] — the cluster kernel behind every fault-injected or
//!   elastic run: crash recovery composed with lifecycle and
//!   autoscaling. With no faults and no scale events it is bit-identical
//!   to [`run_shared`].

pub mod autoscale;
pub mod breaker;
pub mod capacity;
pub mod deployment;
pub mod elastic;
pub mod lifecycle;
pub mod recovery;
pub mod router;
pub mod spec;

pub use autoscale::{AutoscaleConfig, AutoscaleController, AutoscaleDecision, ControlObservation};
pub use breaker::{pick_target, BreakerConfig, BreakerState, CircuitBreaker, PickedTarget};
pub use capacity::{max_goodput, min_replicas_for, GoodputOptions};
pub use deployment::{run_shared, run_shared_traced, run_siloed, ClusterConfig, SiloGroup};
pub use elastic::{
    run_shared_elastic, run_shared_elastic_observed, run_shared_elastic_observed_lockstep,
    ElasticRunResult,
};
pub use lifecycle::{
    drain_victim, generate_scale_schedule, DrainCandidate, ElasticPlan, FleetRouter,
    LifecycleConfig, ScaleAction, ScaleChurnConfig, ScaleEvent,
};
pub use recovery::{FaultPlan, FaultRunStats};
pub use router::{Router, RouterError};
pub use spec::SchedulerSpec;
