//! Metrics layer for the QoServe reproduction.
//!
//! Everything the paper's evaluation section reports is computed here:
//! TTFT / TBT / TTLT latency distributions (§2.1), deadline-violation
//! percentages split by tier, request length, and importance (Fig. 11,
//! Fig. 12), rolling tail-latency series (Fig. 13), and the goodput bar
//! ("at most 1 % violations", §4.1.2) that the capacity searches in
//! `qoserve-cluster` test each probe against.
//!
//! * [`outcome`] — [`RequestOutcome`], the per-request measurement record
//!   emitted by the engine.
//! * [`percentile()`] — interpolated percentiles and latency summaries.
//! * [`histogram`] — streaming log-bucketed histogram for online
//!   monitoring at constant memory.
//! * [`slo`] — [`SloReport`]: violation accounting over outcome sets.
//! * [`recovery`] — [`RecoveryReport`]: per-tier availability/retry/
//!   re-prefill accounting for fault-injected runs.
//! * [`rolling`] — time-windowed percentile series.
//! * [`windowed`] — fixed-window streaming aggregates with exact merges
//!   (the building block of `qoserve-stats` delta snapshots).
//! * [`goodput`] — the goodput search, [`max_supported_load`], which runs
//!   on `qoserve_sim`'s `par_max_passing`.
//! * [`report`] — plain-text table rendering for the experiment binaries.

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

pub mod goodput;
pub mod histogram;
pub mod outcome;
pub mod percentile;
pub mod recovery;
pub mod report;
pub mod rolling;
pub mod slo;
pub mod windowed;

pub use goodput::max_supported_load;
pub use histogram::{LogHistogram, MergeError, ResolutionError};
pub use outcome::{Disposition, RequestOutcome};
pub use percentile::{percentile, LatencySummary};
pub use recovery::{RecoveryCounts, RecoveryReport};
pub use report::Table;
pub use rolling::RollingSeries;
pub use slo::SloReport;
pub use windowed::{WindowAgg, WindowCount, WindowedCounts, WindowedSamples};
