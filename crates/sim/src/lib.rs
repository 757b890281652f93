//! Discrete-event simulation kernel for the QoServe reproduction.
//!
//! This crate provides the time base, event queue, deterministic random
//! number streams, and online statistics shared by every other crate in the
//! workspace. Nothing in here knows about LLM serving; it is a small,
//! general-purpose simulation substrate.
//!
//! # Design
//!
//! * Time is an integer number of **microseconds** ([`SimTime`] /
//!   [`SimDuration`]). Integer ticks make event ordering total and runs
//!   bit-reproducible across platforms, which floating-point seconds would
//!   not.
//! * Randomness flows from a single `u64` seed through [`rng::SeedStream`],
//!   which derives independent ChaCha8 substreams by label. Two runs with
//!   the same seed produce identical traces, arrivals, and noise.
//! * [`EventQueue`] is the replica engine's arrival queue: a binary heap
//!   ordered by `(time, push order)`, so events at the same instant pop
//!   in push order and simulations never depend on heap tie-breaking.
//! * [`FaultConfig::draw`] draws one replica's seed-derived fault
//!   timeline (crashes, restarts, straggler and predictor-drift windows)
//!   a priori, so fault injection is data, not nondeterministic side
//!   effects.
//! * [`parallel::par_map`] runs independent seeded tasks across cores
//!   (`QOSERVE_THREADS` overrides the worker count) while keeping output
//!   order-preserving and bit-identical to serial execution, on the
//!   scoped worker set [`parallel::with_workers`] starts, which the
//!   cluster kernel keeps for a whole run.
//! * [`json`](mod@json) is the codec for everything the workspace
//!   persists (trace JSONL, stats streams, experiment rows),
//!   [`rng::forall`] is the seeded property-test loop every crate's tests
//!   use, and [`rng::mutate`] corrupts a document for fuzzing the loaders.
//! * This is the only crate that names `rand`: the others draw through
//!   the [`SimRng`] streams and the [`Rng`] / [`RngCore`] /
//!   [`SliceRandom`] traits re-exported here.
//!
//! # Example
//!
//! ```
//! use qoserve_sim::{SimTime, SimDuration};
//!
//! let start = SimTime::ZERO;
//! let later = start + SimDuration::from_millis(50);
//! assert_eq!(later.signed_duration_since(start).as_millis_f64(), 50.0);
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

pub mod events;
pub mod faults;
pub mod float;
pub mod json;
#[cfg(test)]
mod lexer;
pub mod nums;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use faults::{CrashEvent, FaultConfig, ReplicaFaultProfile, SlowWindow};
pub use float::{cmp_f64, priority_micros, sort_f64};
pub use parallel::{
    par_map, par_map_threads, par_max_passing, par_position, thread_limit, with_workers, Workers,
};
pub use rand::seq::SliceRandom;
pub use rand::{Rng, RngCore};
pub use rng::{forall, mutate, SeedStream, SimRng};
pub use stats::OnlineStats;
pub use time::{SimDuration, SimTime};
