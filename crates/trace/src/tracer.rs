//! The `Tracer` handle threaded through schedulers, engines, and the
//! recovery orchestrator.

use std::collections::BTreeMap;
use std::sync::Arc;

use qoserve_sim::SimTime;

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::{RingSink, TraceSink, VecSink};

/// Shared capture state behind the tracer mutex.
struct TracerInner {
    sink: Box<dyn TraceSink>,
    /// Per-replica simulated "now" context, set by each engine at the top
    /// of `step` so decision events emitted deeper in the call stack are
    /// stamped without threading `now` through every signature.
    now: BTreeMap<u32, SimTime>,
    /// Per-replica sequence counters (program order within a replica).
    next_seq: BTreeMap<u32, u64>,
}

impl TracerInner {
    fn record_at(&mut self, at: SimTime, replica: u32, request: Option<u64>, event: TraceEvent) {
        let seq = self.next_seq.entry(replica).or_insert(0);
        let s = *seq;
        *seq += 1;
        self.sink.record(TraceRecord {
            time_us: at.as_micros(),
            replica,
            seq: s,
            request,
            event,
        });
    }
}

/// A cheap, cloneable handle for emitting [`TraceEvent`]s.
///
/// The disabled handle (the default) holds no shared state at all: every
/// emit is a single `None` check. An enabled handle shares one sink
/// across all clones; [`for_replica`](Tracer::for_replica) re-stamps a
/// clone with the replica id its events belong to. Handles are `Send`,
/// so per-replica clones move into the cluster's replica threads.
#[derive(Clone, Default)]
pub struct Tracer {
    #[expect(
        clippy::disallowed_types,
        reason = "a disabled tracer (the default in timed runs) returns above and never locks; when tracing is on, contention is the cost the user opted into"
    )]
    shared: Option<Arc<std::sync::Mutex<TracerInner>>>,
    replica: u32,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.shared.is_some())
            .field("replica", &self.replica)
            .finish()
    }
}

impl Tracer {
    /// The zero-overhead disabled tracer.
    pub fn disabled() -> Tracer {
        Tracer::default()
    }

    /// A tracer capturing into `sink`. A sink reporting
    /// `enabled() == false` (e.g. [`NullSink`](crate::NullSink)) yields
    /// the fully-disabled tracer, so the hot path never locks for it.
    #[expect(
        clippy::disallowed_types,
        reason = "a disabled tracer (the default in timed runs) returns above and never locks; when tracing is on, contention is the cost the user opted into"
    )]
    pub fn new(sink: Box<dyn TraceSink>) -> Tracer {
        if !sink.enabled() {
            return Tracer::disabled();
        }
        Tracer {
            shared: Some(Arc::new(std::sync::Mutex::new(TracerInner {
                sink,
                now: BTreeMap::new(),
                next_seq: BTreeMap::new(),
            }))),
            replica: 0,
        }
    }

    /// Convenience: a tracer over a bounded [`RingSink`] retaining
    /// `per_replica` records per replica.
    pub fn ring(per_replica: usize) -> Tracer {
        Tracer::new(Box::new(RingSink::new(per_replica)))
    }

    /// Convenience: a tracer over an unbounded [`VecSink`].
    pub fn unbounded() -> Tracer {
        Tracer::new(Box::new(VecSink::new()))
    }

    /// [`Tracer::unbounded`] pre-sized for roughly `records` captured
    /// events (callers usually derive this from the trace's request
    /// count), so large captures never regrow the sink mid-run.
    pub fn unbounded_with_capacity(records: usize) -> Tracer {
        Tracer::new(Box::new(VecSink::with_capacity(records)))
    }

    /// Whether events are captured at all.
    pub fn enabled(&self) -> bool {
        self.shared.is_some()
    }

    /// A clone of this handle whose events are stamped with `replica`.
    pub fn for_replica(&self, replica: u32) -> Tracer {
        Tracer {
            shared: self.shared.clone(),
            replica,
        }
    }

    /// The replica id this handle stamps.
    pub fn replica(&self) -> u32 {
        self.replica
    }

    /// Updates this replica's simulated-now context; subsequent
    /// [`emit`](Tracer::emit) calls for the replica stamp this time.
    pub fn set_now(&self, now: SimTime) {
        let Some(shared) = &self.shared else { return };
        let Ok(mut inner) = shared.lock() else { return };
        inner.now.insert(self.replica, now);
    }

    /// Emits `event` stamped with the replica's current `now` context
    /// (`SimTime::ZERO` before the first `set_now`).
    pub fn emit(&self, request: Option<u64>, event: TraceEvent) {
        let Some(shared) = &self.shared else { return };
        let Ok(mut inner) = shared.lock() else { return };
        let at = inner
            .now
            .get(&self.replica)
            .copied()
            .unwrap_or(SimTime::ZERO);
        inner.record_at(at, self.replica, request, event);
    }

    /// Emits `event` stamped with an explicit time (orchestrator events
    /// whose time is not the replica's step clock).
    pub fn emit_at(&self, at: SimTime, request: Option<u64>, event: TraceEvent) {
        let Some(shared) = &self.shared else { return };
        let Ok(mut inner) = shared.lock() else { return };
        inner.record_at(at, self.replica, request, event);
    }

    /// All retained records in canonical order (empty when disabled).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let Some(shared) = &self.shared else {
            return Vec::new();
        };
        let Ok(inner) = shared.lock() else {
            return Vec::new();
        };
        inner.sink.snapshot()
    }

    /// Records evicted by the sink's capacity limit.
    pub fn dropped(&self) -> u64 {
        let Some(shared) = &self.shared else { return 0 };
        let Ok(inner) = shared.lock() else { return 0 };
        inner.sink.dropped()
    }

    /// Evicted-record counts keyed by replica (empty when disabled, or
    /// when the sink keeps no per-replica accounting).
    pub fn dropped_by_replica(&self) -> BTreeMap<u32, u64> {
        let Some(shared) = &self.shared else {
            return BTreeMap::new();
        };
        let Ok(inner) = shared.lock() else {
            return BTreeMap::new();
        };
        inner.sink.dropped_by_replica()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send<T: Send>() {}

    #[test]
    fn tracer_is_send_for_replica_threads() {
        assert_send::<Tracer>();
    }

    #[test]
    fn disabled_tracer_is_a_no_op() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.set_now(SimTime::from_secs(1));
        t.emit(Some(1), TraceEvent::FirstToken);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
        // A NullSink maps to the disabled tracer too.
        assert!(!Tracer::new(Box::new(crate::NullSink)).enabled());
    }

    #[test]
    fn emit_stamps_the_replica_now_context() {
        let t = Tracer::unbounded();
        let r0 = t.for_replica(0);
        let r1 = t.for_replica(1);
        r0.set_now(SimTime::from_micros(100));
        r1.set_now(SimTime::from_micros(7));
        r0.emit(Some(5), TraceEvent::FirstToken);
        r1.emit(None, TraceEvent::FirstToken);
        let snap = t.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!((snap[0].time_us, snap[0].replica), (7, 1));
        assert_eq!((snap[1].time_us, snap[1].replica), (100, 0));
        assert_eq!(snap[1].request, Some(5));
    }

    #[test]
    fn sequence_numbers_are_per_replica_program_order() {
        let t = Tracer::unbounded();
        let r0 = t.for_replica(0);
        let r1 = t.for_replica(1);
        for _ in 0..3 {
            r0.emit(None, TraceEvent::FirstToken);
            r1.emit(None, TraceEvent::FirstToken);
        }
        let snap = t.snapshot();
        for replica in [0, 1] {
            let seqs: Vec<u64> = snap
                .iter()
                .filter(|r| r.replica == replica)
                .map(|r| r.seq)
                .collect();
            assert_eq!(seqs, vec![0, 1, 2], "replica {replica}");
        }
    }

    #[test]
    fn emit_at_overrides_the_now_context() {
        let t = Tracer::unbounded();
        t.set_now(SimTime::from_micros(50));
        t.emit_at(SimTime::from_micros(9), None, TraceEvent::FirstToken);
        assert_eq!(t.snapshot()[0].time_us, 9);
    }

    #[test]
    fn clones_share_the_sink() {
        let t = Tracer::ring(8);
        let clone = t.clone();
        clone.emit(None, TraceEvent::FirstToken);
        assert_eq!(t.snapshot().len(), 1);
    }
}
