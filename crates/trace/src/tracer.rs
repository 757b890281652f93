//! The `Tracer` handle threaded through schedulers, engines, and the
//! recovery orchestrator.
//!
//! # Lanes
//!
//! Every replica records through its own *lane*: the replica's simulated
//! "now", its sequence counter, and a buffer of stamped records the sink
//! has not seen yet. [`Tracer::for_replica`] binds a handle to a lane (a
//! small registry creates it on first use), so `set_now`, `emit` and
//! `emit_at` lock only that lane and replica threads never wait on one
//! another. A lane hands its buffer to the sink, in program order:
//!
//! * once it holds `LANE_CAPACITY` records and the sink is free — when
//!   another lane is delivering it keeps buffering instead of waiting;
//! * on [`Tracer::flush`];
//! * before [`snapshot`](Tracer::snapshot), [`dropped`](Tracer::dropped)
//!   and [`dropped_by_replica`](Tracer::dropped_by_replica).
//!
//! Records are stamped when emitted, and each replica's records reach
//! the sink in program order, so the captured bytes are those of
//! stamping and recording at once: [`RingSink`] evicts per replica and
//! every snapshot sorts canonically. Only *when* a sink sees a record
//! changes, so a reader of state the sink feeds (the stats tee's
//! aggregator) flushes first; the cluster kernels flush before every
//! [`ControlObserver`](crate::ControlObserver) callback and before they
//! return.

use std::collections::BTreeMap;
use std::sync::{Arc, TryLockError};

use qoserve_sim::SimTime;

use crate::event::{TraceEvent, TraceRecord};
use crate::sink::{RingSink, TraceSink, VecSink};

/// Records a lane buffers before it offers them to the sink.
const LANE_CAPACITY: usize = 1024;

/// One replica's stamping context and its undelivered records.
struct Lane {
    /// Simulated "now", set by the replica's engine at the top of `step`
    /// so decision events emitted deeper in the call stack are stamped
    /// without threading `now` through every signature.
    now: SimTime,
    /// The next sequence number (program order within the replica).
    seq: u64,
    /// Stamped records the sink has not seen yet, oldest first.
    buf: Vec<TraceRecord>,
}

impl Lane {
    /// Hands every buffered record to `sink`, oldest first.
    fn deliver(&mut self, sink: &mut dyn TraceSink) {
        for record in self.buf.drain(..) {
            sink.record(record);
        }
    }
}

/// Capture state shared by every handle of one tracer. Locks nest
/// registry, lane, sink; a full lane only *tries* the sink, so no emit
/// ever waits on another replica.
#[expect(
    clippy::disallowed_types,
    reason = "a replica locks only its own lane per event and the sink once per delivery; a disabled tracer (the default in timed runs) holds none of this"
)]
struct Shared {
    sink: std::sync::Mutex<Box<dyn TraceSink>>,
    /// Lanes by replica id, created by the first handle bound to each.
    lanes: std::sync::Mutex<BTreeMap<u32, Arc<std::sync::Mutex<Lane>>>>,
}

impl Shared {
    /// The lane of `replica`, created on first use (`None` once the
    /// registry lock is poisoned).
    #[expect(
        clippy::disallowed_types,
        reason = "a replica locks only its own lane per event and the sink once per delivery; a disabled tracer (the default in timed runs) holds none of this"
    )]
    fn lane(&self, replica: u32) -> Option<Arc<std::sync::Mutex<Lane>>> {
        let mut lanes = self.lanes.lock().ok()?;
        let lane = lanes.entry(replica).or_insert_with(|| {
            Arc::new(std::sync::Mutex::new(Lane {
                now: SimTime::ZERO,
                seq: 0,
                buf: Vec::with_capacity(LANE_CAPACITY),
            }))
        });
        Some(Arc::clone(lane))
    }

    /// Delivers a full lane unless another lane holds the sink, in which
    /// case the records stay buffered for a later offer or flush.
    fn offer(&self, lane: &mut Lane) {
        match self.sink.try_lock() {
            Ok(mut sink) => lane.deliver(&mut **sink),
            Err(TryLockError::WouldBlock) => {}
            Err(TryLockError::Poisoned(_)) => lane.buf.clear(),
        }
    }

    /// Delivers every lane's buffer, lane by lane.
    fn flush(&self) {
        let Ok(lanes) = self.lanes.lock() else { return };
        for lane in lanes.values() {
            let Ok(mut lane) = lane.lock() else { continue };
            if lane.buf.is_empty() {
                continue;
            }
            let Ok(mut sink) = self.sink.lock() else {
                return;
            };
            lane.deliver(&mut **sink);
        }
    }
}

/// An enabled handle: the shared capture state and the lane it stamps.
#[derive(Clone)]
#[expect(
    clippy::disallowed_types,
    reason = "a replica locks only its own lane per event and the sink once per delivery; a disabled tracer (the default in timed runs) holds none of this"
)]
struct Bound {
    shared: Arc<Shared>,
    lane: Arc<std::sync::Mutex<Lane>>,
}

/// A cheap, cloneable handle for emitting [`TraceEvent`]s.
///
/// The disabled handle (the default) holds no shared state at all: every
/// emit is a single `None` check. An enabled handle shares one sink
/// across all clones; [`for_replica`](Tracer::for_replica) binds a clone
/// to the lane of the replica its events belong to (see the module
/// docs). Handles are `Send`, so per-replica clones move into the
/// cluster's replica threads.
#[derive(Clone, Default)]
pub struct Tracer {
    bound: Option<Bound>,
    replica: u32,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.bound.is_some())
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
        reason = "a replica locks only its own lane per event and the sink once per delivery; a disabled tracer (the default in timed runs) holds none of this"
    )]
    pub fn new(sink: Box<dyn TraceSink>) -> Tracer {
        if !sink.enabled() {
            return Tracer::disabled();
        }
        let shared = Arc::new(Shared {
            sink: std::sync::Mutex::new(sink),
            lanes: std::sync::Mutex::new(BTreeMap::new()),
        });
        Tracer::bind(shared, 0)
    }

    /// A handle on `replica`'s lane of `shared`.
    fn bind(shared: Arc<Shared>, replica: u32) -> Tracer {
        Tracer {
            bound: shared.lane(replica).map(|lane| Bound { shared, lane }),
            replica,
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
        self.bound.is_some()
    }

    /// A handle on the same sink whose events are stamped with `replica`
    /// and go through that replica's lane.
    pub fn for_replica(&self, replica: u32) -> Tracer {
        match &self.bound {
            Some(bound) => Tracer::bind(Arc::clone(&bound.shared), replica),
            None => Tracer {
                bound: None,
                replica,
            },
        }
    }

    /// The replica id this handle stamps.
    pub fn replica(&self) -> u32 {
        self.replica
    }

    /// Updates this replica's simulated-now context; subsequent
    /// [`emit`](Tracer::emit) calls for the replica stamp this time.
    pub fn set_now(&self, now: SimTime) {
        let Some(bound) = &self.bound else { return };
        if let Ok(mut lane) = bound.lane.lock() {
            lane.now = now;
        }
    }

    /// Emits `event` stamped with the replica's current `now` context
    /// (`SimTime::ZERO` before the first `set_now`).
    pub fn emit(&self, request: Option<u64>, event: TraceEvent) {
        self.record(None, request, event);
    }

    /// Emits `event` stamped with an explicit time (orchestrator events
    /// whose time is not the replica's step clock).
    pub fn emit_at(&self, at: SimTime, request: Option<u64>, event: TraceEvent) {
        self.record(Some(at), request, event);
    }

    /// Stamps one record on this handle's lane (at `at`, or the lane's
    /// `now`) and offers the lane to the sink once it is full.
    fn record(&self, at: Option<SimTime>, request: Option<u64>, event: TraceEvent) {
        let Some(bound) = &self.bound else { return };
        let Ok(mut lane) = bound.lane.lock() else {
            return;
        };
        let record = TraceRecord {
            time_us: at.unwrap_or(lane.now).as_micros(),
            replica: self.replica,
            seq: lane.seq,
            request,
            event,
        };
        lane.seq += 1;
        lane.buf.push(record);
        if lane.buf.len() >= LANE_CAPACITY {
            bound.shared.offer(&mut lane);
        }
    }

    /// Hands every lane's buffered records to the sink. Call it before
    /// reading state the sink feeds (a stats tee's aggregator); the
    /// tracer's own readers below flush by themselves.
    pub fn flush(&self) {
        if let Some(bound) = &self.bound {
            bound.shared.flush();
        }
    }

    /// All retained records in canonical order (empty when disabled).
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        self.read(Vec::new(), |sink| sink.snapshot())
    }

    /// Records evicted by the sink's capacity limit.
    pub fn dropped(&self) -> u64 {
        self.read(0, |sink| sink.dropped())
    }

    /// Evicted-record counts keyed by replica (empty when disabled, or
    /// when the sink keeps no per-replica accounting).
    pub fn dropped_by_replica(&self) -> BTreeMap<u32, u64> {
        self.read(BTreeMap::new(), |sink| sink.dropped_by_replica())
    }

    /// Flushes every lane, then reads the sink (`default` when disabled
    /// or once the sink lock is poisoned).
    fn read<R>(&self, default: R, f: impl FnOnce(&dyn TraceSink) -> R) -> R {
        let Some(bound) = &self.bound else {
            return default;
        };
        bound.shared.flush();
        match bound.shared.sink.lock() {
            Ok(sink) => f(&**sink),
            Err(_) => default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::to_jsonl;
    use qoserve_sim::{forall, Rng};

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
        t.flush();
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
        assert_eq!(t.for_replica(3).replica(), 3);
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

    /// The single-lock stamping the lanes replaced: one `now` and one
    /// sequence map behind the tracer, every record handed to the sink
    /// the moment it is stamped.
    struct Reference {
        sink: Box<dyn TraceSink>,
        now: BTreeMap<u32, SimTime>,
        next_seq: BTreeMap<u32, u64>,
    }

    impl Reference {
        fn new(sink: Box<dyn TraceSink>) -> Reference {
            Reference {
                sink,
                now: BTreeMap::new(),
                next_seq: BTreeMap::new(),
            }
        }

        fn set_now(&mut self, replica: u32, now: SimTime) {
            self.now.insert(replica, now);
        }

        fn emit(&mut self, replica: u32, request: Option<u64>, event: TraceEvent) {
            let at = self.now.get(&replica).copied().unwrap_or(SimTime::ZERO);
            self.record_at(at, replica, request, event);
        }

        fn record_at(
            &mut self,
            at: SimTime,
            replica: u32,
            request: Option<u64>,
            event: TraceEvent,
        ) {
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

    /// Each lane's next sequence number, by replica.
    fn lane_seqs(t: &Tracer) -> BTreeMap<u32, u64> {
        let shared = &t.bound.as_ref().expect("enabled").shared;
        let lanes = shared.lanes.lock().expect("registry");
        lanes
            .iter()
            .map(|(&r, lane)| (r, lane.lock().expect("lane").seq))
            .filter(|&(_, seq)| seq > 0)
            .collect()
    }

    fn assert_same_capture(t: &Tracer, reference: &Reference) {
        assert_eq!(t.snapshot(), reference.sink.snapshot());
        assert_eq!(t.dropped(), reference.sink.dropped());
        assert_eq!(t.dropped_by_replica(), reference.sink.dropped_by_replica());
    }

    /// Replica handles driven through random interleavings of `set_now`,
    /// `emit`, kernel-style `for_replica(r).emit_at` and `flush` — over
    /// a lane capacity per replica, so full lanes deliver on their own —
    /// capture exactly what stamping and recording at once does, into a
    /// small ring (with evictions) and into an unbounded vector, at every
    /// flush and at the end.
    #[test]
    fn lanes_capture_what_single_lock_stamping_does() {
        forall(12, 19, |rng| {
            let replicas = rng.gen_range(2..5u32);
            let ring = rng.gen_range(1..300usize);
            let ops = rng.gen_range(1..3) * LANE_CAPACITY * replicas as usize;
            let sinks: [fn(usize) -> Box<dyn TraceSink>; 2] = [
                |ring| Box::new(RingSink::new(ring)),
                |_| Box::new(VecSink::new()),
            ];
            for make in sinks {
                let tracer = Tracer::new(make(ring));
                let mut reference = Reference::new(make(ring));
                let handles: Vec<Tracer> = (0..replicas).map(|r| tracer.for_replica(r)).collect();
                for op in 0..ops {
                    let r = rng.gen_range(0..replicas);
                    let request = Some(op as u64);
                    let at = SimTime::from_micros(rng.gen_range(0..1_000));
                    match rng.gen_range(0..100) {
                        0..=9 => {
                            handles[r as usize].set_now(at);
                            reference.set_now(r, at);
                        }
                        10..=84 => {
                            handles[r as usize].emit(request, TraceEvent::FirstToken);
                            reference.emit(r, request, TraceEvent::FirstToken);
                        }
                        85..=98 => {
                            tracer
                                .for_replica(r)
                                .emit_at(at, request, TraceEvent::FirstToken);
                            reference.record_at(at, r, request, TraceEvent::FirstToken);
                        }
                        _ => {
                            tracer.flush();
                            assert_same_capture(&tracer, &reference);
                        }
                    }
                }
                assert_eq!(lane_seqs(&tracer), reference.next_seq);
                assert_same_capture(&tracer, &reference);
            }
        });
    }

    /// A full lane that finds the sink held keeps buffering, in program
    /// order, and delivers everything at the next read.
    #[test]
    fn a_full_lane_keeps_buffering_while_the_sink_is_busy() {
        let t = Tracer::unbounded();
        let bound = t.bound.as_ref().expect("enabled");
        let emitted = LANE_CAPACITY as u64 + 10;
        let busy = bound.shared.sink.lock().expect("sink");
        for i in 0..emitted {
            t.emit(Some(i), TraceEvent::FirstToken);
        }
        assert_eq!(bound.lane.lock().expect("lane").buf.len() as u64, emitted);
        drop(busy);
        let requests: Vec<Option<u64>> = t.snapshot().iter().map(|r| r.request).collect();
        assert_eq!(requests, (0..emitted).map(Some).collect::<Vec<_>>());
    }

    /// Two replicas emitting from two threads at once, past several lane
    /// capacities into a small ring, capture the serial run's bytes.
    #[test]
    fn threaded_lanes_capture_the_serial_bytes() {
        fn drive(t: &Tracer) {
            for i in 0..5 * LANE_CAPACITY as u64 {
                t.set_now(SimTime::from_micros(i / 3));
                t.emit(Some(i), TraceEvent::FirstToken);
                if i % 700 == 0 {
                    t.emit_at(SimTime::from_micros(i + 50), None, TraceEvent::FirstToken);
                }
            }
        }
        let capture = |threaded: bool| {
            let tracer = Tracer::ring(1500);
            let lanes = [tracer.for_replica(0), tracer.for_replica(1)];
            if threaded {
                let start = std::sync::Barrier::new(lanes.len());
                std::thread::scope(|s| {
                    for lane in &lanes {
                        let start = &start;
                        s.spawn(move || {
                            start.wait();
                            drive(lane);
                        });
                    }
                });
            } else {
                lanes.iter().for_each(drive);
            }
            (
                to_jsonl(&tracer.snapshot(), tracer.dropped()),
                tracer.dropped_by_replica(),
            )
        };
        let serial = capture(false);
        assert_eq!(serial.1.len(), 2, "both rings evict");
        assert_eq!(capture(true), serial);
    }
}
