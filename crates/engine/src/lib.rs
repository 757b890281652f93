//! Replica serving engine for the QoServe reproduction.
//!
//! [`ReplicaEngine`] is the simulator's stand-in for one vLLM/Sarathi
//! replica: it owns the request lifecycle (prefill → decode → completion),
//! the KV-cache budget, and the iteration loop. Every iteration it asks
//! its [`Scheduler`](qoserve_sched::Scheduler) for a batch plan, executes
//! the mixed batch against the calibrated latency model (plus execution
//! noise), advances simulated time by the batch latency, and emits output
//! tokens — recording TTFT, per-token lateness against the Eq. 2/3
//! deadlines, and TBT along the way.
//!
//! * [`kv`] — token-granular KV-cache accounting with decode-growth
//!   reservation (decodes are never preempted, §3.4, so their future
//!   growth is reserved at admission).
//! * [`health`] — the rolling per-iteration health ring and
//!   [`HealthSnapshot`] API feeding the cluster layer's circuit breakers.
//! * [`noise`] — multiplicative log-normal execution-time noise.
//! * [`replica`] — the engine itself, including the availability state
//!   machine ([`ReplicaState`]) and crash-orphan surfacing
//!   ([`OrphanedJob`]) used by the fault-injection experiments.
//! * [`disagg`] — helpers for PD-disaggregated prefill-node serving
//!   (§4.1.3).

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

pub mod disagg;
pub mod health;
pub mod kv;
pub mod noise;
pub mod replica;

pub use disagg::{disagg_chunk_limits, to_prefill_only_trace, DISAGG_CHUNK};
pub use health::{HealthRing, HealthSample, HealthSnapshot, HEALTH_WINDOW};
pub use kv::KvCache;
pub use noise::ExecutionNoise;
pub use replica::{
    sustainable_decode_batch, BatchRecord, OrphanedJob, ReplicaConfig, ReplicaEngine, ReplicaState,
};
