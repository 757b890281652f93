//! `qoserve-stats`: a streaming aggregation layer over the trace stream.
//!
//! The trace taxonomy ([`qoserve_trace::TraceEvent`]) is the one closed
//! vocabulary every subsystem already speaks; this crate folds that
//! stream *live* into typed per-tier / per-replica / fleet statistics
//! instead of re-deriving them from retained captures after the fact.
//! Three layers:
//!
//! * [`StatsAggregator`] — the pure fold. Records are buffered on push
//!   and folded only at snapshot boundaries: the batch of records
//!   stamped strictly before the boundary is canonically sorted
//!   (`(time_us, replica, seq)`) and folded left-to-right, so the
//!   resulting [`StatsDelta`] is a pure function of the simulation, not
//!   of sink interleaving — byte-identical serial vs parallel at any
//!   `QOSERVE_THREADS`.
//! * [`StatsHandle`] — live wiring: a [`StatsHandle::tee`] trace sink
//!   feeding the aggregator alongside any capture sink, and a
//!   [`qoserve_trace::ControlObserver`] implementation the cluster
//!   kernels drive at deterministic sim-time cadence boundaries.
//!   Observation is contractually invisible: a stats-enabled run's
//!   outcomes are bit-identical to the unstatted path. Its readers
//!   ([`StatsHandle::full`], [`StatsHandle::deltas_since`]) observe the
//!   last folded boundary, never a half-folded window.
//! * The JSONL snapshot stream ([`stream_to_jsonl`] /
//!   [`stream_from_jsonl`]) that `qoservetop` renders live or in replay.
//!
//! The snapshot schema is versioned ([`SNAPSHOT_SCHEMA_VERSION`]) and
//! schema-tolerant: every container tolerates missing and unknown
//! fields, and deltas [`compose`] to the full snapshot bit-exactly.

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

pub mod aggregate;
pub mod live;
pub mod snapshot;

pub use aggregate::{LatenessCause, StatsAggregator, StatsConfig};
pub use live::{stats_only_sink, StatsHandle};
pub use snapshot::{
    compose, stream_from_jsonl, stream_to_jsonl, FleetStats, ReplicaStats, SnapshotStream,
    StatsDelta, StatsFrame, StatsSnapshot, TierStats, SNAPSHOT_SCHEMA_VERSION,
};
