//! Performance substrate for the QoServe reproduction.
//!
//! The paper's scheduler makes every decision against *predicted batch
//! latency*: dynamic chunking asks "what is the largest prefill chunk whose
//! iteration still fits inside the minimum decode slack?" (§3.3, §3.6.1).
//! The authors answer that with a lightweight random-forest model trained on
//! latency profiles collected through the Vidur simulator's profiling
//! harness. This crate rebuilds that whole pipeline:
//!
//! * [`hardware`] — model/GPU/parallelism descriptions and the three paper
//!   configurations (Table 1): Llama3-8B on A100 TP1, Qwen-7B on A100 TP2
//!   (MHA), Llama3-70B on H100 TP4.
//! * [`batch`] — [`BatchProfile`], the feature description of one mixed
//!   prefill+decode iteration.
//! * [`analytical`] — a calibrated roofline-style latency model standing in
//!   for real GPU kernels (see DESIGN.md for the substitution argument); it
//!   reproduces the Figure 4 throughput/latency-vs-chunk-size shape.
//! * [`profiler`] — the Vidur-like harness: sweeps the batch space and
//!   labels samples with the ground-truth model plus measurement noise.
//! * [`forest`] — a from-scratch CART + bagging random-forest regressor.
//! * [`predictor`] — [`LatencyPredictor`] (forest or analytical) and
//!   [`ChunkBudget`], the `GET_PREFILL_BUDGET` search of Algorithm 1.
//! * [`resilience`] — [`ErrorTracker`] (windowed observed/predicted
//!   latency-ratio quantiles) and [`AdaptiveMargin`], the online
//!   controller that retunes the predictor's safety margin under drift.
//!
//! # Example
//!
//! ```
//! use qoserve_perf::{BatchProfile, HardwareConfig, LatencyModel};
//!
//! let hw = HardwareConfig::llama3_8b_a100_tp1();
//! let model = LatencyModel::new(&hw);
//! let batch = BatchProfile::builder()
//!     .prefill_chunk(512, 0)
//!     .decodes(32, 32 * 1024)
//!     .build();
//! let latency = model.iteration_time(&batch);
//! assert!(latency.as_millis_f64() > 1.0);
//! ```

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

pub mod analytical;
pub mod batch;
pub mod forest;
pub mod hardware;
pub mod predictor;
pub mod profiler;
pub mod resilience;

pub use analytical::LatencyModel;
pub use batch::{BatchProfile, BatchProfileBuilder, PrefillChunkProfile};
pub use forest::RandomForest;
pub use hardware::{AttentionKind, GpuSpec, HardwareConfig, ModelSpec, Parallelism};
pub use predictor::{ChunkBudget, ChunkLimits, LatencyPredictor, PredictorKind};
pub use profiler::{ProfileSample, Profiler, ProfilerConfig};
pub use resilience::{AdaptiveMargin, ErrorTracker};
