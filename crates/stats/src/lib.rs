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
//!   outcomes are bit-identical to the unstatted path.
//! * [`StatsServer`] — the in-process typed endpoint
//!   (`query(StatsQuery) -> StatsReply`) plus the JSONL snapshot
//!   stream ([`stream_to_jsonl`] / [`stream_from_jsonl`]) that
//!   `qoservetop` renders live or in replay.
//!
//! The snapshot schema is versioned ([`SNAPSHOT_SCHEMA_VERSION`]) and
//! schema-tolerant: every container tolerates missing and unknown
//! fields, and deltas [`compose`] to the full snapshot bit-exactly.

pub mod aggregate;
pub mod live;
pub mod server;
pub mod snapshot;

pub use aggregate::{LatenessCause, StatsAggregator, StatsConfig};
pub use live::{stats_only_sink, StatsHandle};
pub use server::{StatsMeta, StatsQuery, StatsReply, StatsServer};
pub use snapshot::{
    compose, stream_from_jsonl, stream_to_jsonl, FleetStats, ReplicaStats, SnapshotStream,
    StatsDelta, StatsFrame, StatsSnapshot, TierStats, SNAPSHOT_SCHEMA_VERSION,
};
