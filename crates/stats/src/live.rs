//! Live wiring: the shared [`StatsHandle`], the tee sink that feeds the
//! aggregator from an existing capture sink, and the
//! [`ControlObserver`] implementation the cluster kernels drive.
//!
//! Typical setup:
//!
//! ```
//! use qoserve_sim::SimDuration;
//! use qoserve_stats::{StatsConfig, StatsHandle};
//! use qoserve_trace::{RingSink, Tracer};
//!
//! let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_secs(30)));
//! // Records flow to both the aggregator and the bounded capture ring.
//! let tracer = Tracer::new(stats.tee(Box::new(RingSink::new(4096))));
//! // Hand `Some(&stats)` to an `_observed` kernel entry point; at each
//! // cadence boundary the kernel calls back and a delta is folded.
//! # let _ = tracer;
//! ```
//!
//! The handle is cheaply cloneable and thread-safe; all state lives
//! behind one mutex that is locked per record (the tee) and per
//! boundary (the observer). A poisoned mutex degrades to empty reads
//! rather than panicking, matching the tracer's discipline.

use std::collections::BTreeMap;
use std::sync::Arc;

use qoserve_sim::SimTime;
use qoserve_trace::{ControlObserver, NullSink, TraceRecord, TraceSink};

use crate::aggregate::{StatsAggregator, StatsConfig};
use crate::snapshot::{SnapshotStream, StatsDelta, StatsSnapshot};

/// Shared, cloneable access to one [`StatsAggregator`].
#[derive(Clone)]
pub struct StatsHandle {
    #[expect(
        clippy::disallowed_types,
        reason = "stats are opt-in: an unobserved run builds no handle and never locks; an observed run pays one uncontended lock per folded record"
    )]
    inner: Arc<std::sync::Mutex<StatsAggregator>>,
    cadence_us: u64,
}

impl std::fmt::Debug for StatsHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StatsHandle")
            .field("cadence_us", &self.cadence_us)
            .finish()
    }
}

impl StatsHandle {
    /// A fresh aggregator behind a shared handle.
    #[expect(
        clippy::disallowed_types,
        reason = "stats are opt-in: an unobserved run builds no handle and never locks; an observed run pays one uncontended lock per folded record"
    )]
    pub fn new(config: StatsConfig) -> StatsHandle {
        let agg = StatsAggregator::new(config);
        let cadence_us = agg.cadence_us();
        StatsHandle {
            inner: Arc::new(std::sync::Mutex::new(agg)),
            cadence_us,
        }
    }

    fn with<R>(&self, default: R, f: impl FnOnce(&mut StatsAggregator) -> R) -> R {
        match self.inner.lock() {
            Ok(mut agg) => f(&mut agg),
            Err(_) => default,
        }
    }

    /// A [`TraceSink`] that feeds this aggregator *and* forwards every
    /// record to `capture` (whose retained window and eviction counters
    /// remain the source of truth for `snapshot()`/`dropped()`). Use a
    /// [`NullSink`] capture for stats without retained records — the tee
    /// stays enabled either way.
    pub fn tee(&self, capture: Box<dyn TraceSink>) -> Box<dyn TraceSink> {
        Box::new(StatsSink {
            handle: self.clone(),
            capture,
            seen_dropped: 0,
        })
    }

    /// The cadence between snapshot boundaries, microseconds.
    pub fn cadence_us(&self) -> u64 {
        self.cadence_us
    }

    /// The cumulative full snapshot (as of the last folded boundary).
    pub fn full(&self) -> StatsSnapshot {
        self.with(StatsSnapshot::default(), |agg| agg.full())
    }

    /// Deltas with `seq >= since_seq`, in order.
    pub fn deltas_since(&self, since_seq: u64) -> Vec<StatsDelta> {
        self.with(Vec::new(), |agg| {
            agg.deltas()
                .iter()
                .filter(|d| d.seq >= since_seq)
                .cloned()
                .collect()
        })
    }

    /// The whole run as a snapshot stream (deltas plus, once finished,
    /// the final full snapshot).
    pub fn stream(&self) -> SnapshotStream {
        self.with(SnapshotStream::default(), |agg| SnapshotStream {
            cadence_us: agg.cadence_us(),
            deltas: agg.deltas().to_vec(),
            full: agg.finished().then(|| agg.full()),
        })
    }

    /// Whether the final fold has run.
    pub fn finished(&self) -> bool {
        self.with(false, |agg| agg.finished())
    }
}

impl ControlObserver for StatsHandle {
    fn next_boundary(&self, after: SimTime) -> Option<SimTime> {
        Some(self.with(SimTime::MAX, |agg| agg.next_boundary_after(after)))
    }

    fn boundary(&self, at: SimTime) {
        self.with((), |agg| agg.fold_boundary(at));
    }

    fn finish(&self, at: SimTime) {
        self.with((), |agg| agg.fold_final(at));
    }
}

/// The tee: buffers every record into the aggregator and forwards it to
/// the capture sink, attributing capture evictions to the record that
/// caused them (evictions happen on the causing record's own replica
/// ring, so the attribution is per-replica exact).
struct StatsSink {
    handle: StatsHandle,
    capture: Box<dyn TraceSink>,
    /// Capture-sink eviction total after the previous record.
    seen_dropped: u64,
}

impl TraceSink for StatsSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, record: TraceRecord) {
        self.capture.record(record);
        let total = self.capture.dropped();
        let caused = total.saturating_sub(self.seen_dropped);
        self.seen_dropped = total;
        self.handle.with((), |agg| agg.push(record, caused));
    }

    fn snapshot(&self) -> Vec<TraceRecord> {
        self.capture.snapshot()
    }

    fn dropped(&self) -> u64 {
        self.capture.dropped()
    }

    fn dropped_by_replica(&self) -> BTreeMap<u32, u64> {
        self.capture.dropped_by_replica()
    }
}

/// Convenience: a tee over a [`NullSink`] — stats only, no retained
/// records (the cheapest live-stats configuration).
pub fn stats_only_sink(handle: &StatsHandle) -> Box<dyn TraceSink> {
    handle.tee(Box::new(NullSink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_sim::SimDuration;
    use qoserve_trace::{RingSink, TraceEvent, Tracer};

    fn first_token(time_us: u64, replica: u32, seq: u64) -> TraceRecord {
        TraceRecord {
            time_us,
            replica,
            seq,
            request: Some(1),
            event: TraceEvent::FirstToken,
        }
    }

    #[test]
    fn tee_feeds_both_aggregator_and_capture() {
        let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_secs(1)));
        let mut sink = stats.tee(Box::new(RingSink::new(8)));
        assert!(sink.enabled());
        sink.record(first_token(10, 0, 0));
        sink.record(first_token(20, 0, 1));
        assert_eq!(sink.snapshot().len(), 2);
        stats.boundary(SimTime::from_secs(1));
        assert_eq!(stats.full().frame.events, 2);
        assert_eq!(stats.full().frame.by_event.get("first_token"), Some(&2));
    }

    #[test]
    fn tee_attributes_capture_evictions() {
        let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_secs(1)));
        let mut sink = stats.tee(Box::new(RingSink::new(2)));
        for seq in 0..5 {
            sink.record(first_token(seq * 10, 7, seq));
        }
        assert_eq!(sink.dropped(), 3);
        assert_eq!(sink.dropped_by_replica().get(&7), Some(&3));
        stats.finish(SimTime::from_secs(1));
        let full = stats.full();
        // All five records were folded (the aggregator sees everything;
        // only the capture window truncates)...
        assert_eq!(full.frame.events, 5);
        // ...and the truncation is visible in the snapshot.
        assert_eq!(full.frame.dropped, 3);
        assert_eq!(full.frame.dropped_by_replica.get(&7), Some(&3));
    }

    #[test]
    fn observer_boundaries_are_cadence_multiples() {
        let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_micros(100)));
        let obs: &dyn ControlObserver = &stats;
        assert_eq!(
            obs.next_boundary(SimTime::ZERO),
            Some(SimTime::from_micros(100))
        );
        assert_eq!(
            obs.next_boundary(SimTime::from_micros(100)),
            Some(SimTime::from_micros(200))
        );
        assert_eq!(
            obs.next_boundary(SimTime::from_micros(150)),
            Some(SimTime::from_micros(200))
        );
    }

    #[test]
    fn stream_includes_final_full_only_after_finish() {
        let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_micros(50)));
        let mut sink = stats_only_sink(&stats);
        sink.record(first_token(10, 0, 0));
        stats.boundary(SimTime::from_micros(50));
        assert_eq!(stats.stream().deltas.len(), 1);
        assert!(stats.stream().full.is_none());
        stats.finish(SimTime::from_micros(75));
        let stream = stats.stream();
        assert_eq!(stream.deltas.len(), 2);
        let full = stream.full.expect("finished");
        assert_eq!(full.frame.events, 1);
        assert_eq!(full, crate::snapshot::compose(&stream.deltas));
    }

    #[test]
    fn handle_works_through_a_tracer() {
        let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_secs(1)));
        let tracer = Tracer::new(stats.tee(Box::new(RingSink::new(16))));
        assert!(tracer.enabled());
        let r0 = tracer.for_replica(0);
        r0.set_now(SimTime::from_micros(42));
        r0.emit(Some(9), TraceEvent::FirstToken);
        stats.finish(SimTime::from_secs(1));
        assert_eq!(stats.full().frame.events, 1);
        assert_eq!(tracer.snapshot().len(), 1);
    }
}
