//! # QoServe — breaking the silos of LLM inference serving
//!
//! A full-system Rust reproduction of *QoServe: Breaking the Silos of LLM
//! Inference Serving* (ASPLOS 2026). QoServe co-schedules requests with
//! diverse QoS targets — interactive TTFT/TBT tiers next to batch TTLT
//! tiers — on shared replicas, using three techniques:
//!
//! 1. **Dynamic chunking**: grow the prefill chunk into the deadline slack
//!    of in-flight decodes, recovering the throughput that small fixed
//!    chunks sacrifice.
//! 2. **Hybrid prioritization**: smoothly interpolate between EDF and
//!    SRPF (`P = t_arrival + SLO + α · work`), getting EDF's low-load
//!    optimality and SRPF's overload robustness without SRPF's unfairness
//!    to long requests.
//! 3. **Eager relegation**: proactively demote requests that have missed
//!    (or provably will miss) their deadlines — low-priority/free-tier
//!    first — so overload degrades a small slice of traffic instead of
//!    cascading into everyone's SLOs.
//!
//! The GPU side is a calibrated discrete-event simulator (see `DESIGN.md`
//! for the substitution argument); every table and figure of the paper
//! has a regenerating binary in the `qoserve-bench` crate.
//!
//! ## Quickstart
//!
//! ```
//! use qoserve::prelude::*;
//!
//! // One A100 replica running the QoServe scheduler.
//! let mut server = QoServe::builder(HardwareConfig::llama3_8b_a100_tp1())
//!     .seed(42)
//!     .build();
//!
//! // An interactive chat request and a batch summarisation request
//! // sharing the same replica.
//! server.submit(
//!     Request::interactive(1_024, 200)
//!         .ttft_secs(6.0)
//!         .tbt_ms(50.0)
//!         .arriving_at_secs(0.1),
//! );
//! server.submit(
//!     Request::batch(8_192, 400)
//!         .ttlt_secs(600.0)
//!         .arriving_at_secs(0.2),
//! );
//!
//! let report = server.run();
//! assert_eq!(report.outcomes.len(), 2);
//! assert_eq!(report.slo.violations, 0);
//! ```

// Library code returns errors and data; the bins own panics and the
// console.
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
    )
)]

pub mod experiments;
pub mod server;

pub use server::{QoServe, QoServeBuilder, Request, RunReport};

/// Convenient re-exports of the whole workspace surface.
pub mod prelude {
    pub use crate::server::{QoServe, QoServeBuilder, Request, RunReport};

    pub use qoserve_cluster::{
        drain_victim, generate_scale_schedule, max_goodput, min_replicas_for, pick_target,
        run_shared, run_shared_elastic, run_shared_elastic_observed,
        run_shared_elastic_observed_lockstep, run_shared_traced, run_siloed, AutoscaleConfig,
        AutoscaleController, AutoscaleDecision, BreakerConfig, BreakerState, CircuitBreaker,
        ClusterConfig, ControlObservation, DrainCandidate, ElasticPlan, ElasticRunResult,
        FaultPlan, FaultRunStats, FleetRouter, GoodputOptions, LifecycleConfig, PickedTarget,
        Router, RouterError, ScaleAction, ScaleChurnConfig, ScaleEvent, SchedulerSpec, SiloGroup,
    };
    pub use qoserve_engine::{
        HealthSnapshot, ReplicaConfig, ReplicaEngine, ReplicaState, HEALTH_WINDOW,
    };
    pub use qoserve_metrics::{
        Disposition, LatencySummary, LogHistogram, RecoveryReport, RequestOutcome, RollingSeries,
        SloReport, Table,
    };
    pub use qoserve_perf::{
        AdaptiveMargin, AdaptiveMarginConfig, BatchProfile, ChunkBudget, ChunkLimits, ErrorTracker,
        HardwareConfig, LatencyModel, LatencyPredictor, PredictorKind,
    };
    pub use qoserve_sched::{
        AlphaPolicy, ConServeScheduler, DeadlineAwareAdmission, MedhaConfig, MedhaScheduler,
        OrderPolicy, ProcessingEstimator, QoServeConfig, QoServeScheduler, RateLimitScheduler,
        SarathiScheduler, Scheduler, SlosServeConfig, SlosServeScheduler,
    };
    pub use qoserve_sim::{
        par_map, par_max_passing, thread_limit, FaultConfig, FaultSchedule, SeedStream,
        SimDuration, SimTime,
    };
    pub use qoserve_workload::{
        ArrivalProcess, Dataset, Priority, QosClass, QosTier, RequestId, RequestSpec, Slo, TierId,
        TierMix, Trace, TraceBuilder,
    };
}
