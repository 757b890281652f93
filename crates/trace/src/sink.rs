//! Capture backends: null, bounded per-replica rings, unbounded vector.

use std::collections::BTreeMap;

use crate::event::{canonical_sort, TraceRecord};

/// Where captured records go. Implementations must be `Send`: the
/// [`Tracer`](crate::Tracer)'s per-replica lanes, on whichever threads
/// run their replicas, take turns handing it their buffered records.
/// Each replica's records arrive in program order; how different
/// replicas' deliveries interleave is up to thread scheduling.
pub trait TraceSink: Send {
    /// Whether this sink captures anything. A `false` sink is mapped to
    /// the fully-disabled tracer at construction, so `record` is never
    /// reached on the hot path.
    fn enabled(&self) -> bool {
        true
    }

    /// Accepts one record. Stamps (`time_us`, `replica`, `seq`) are
    /// already assigned by the tracer.
    fn record(&mut self, record: TraceRecord);

    /// All retained records in canonical `(time_us, replica, seq)` order.
    fn snapshot(&self) -> Vec<TraceRecord>;

    /// Records evicted due to capacity limits.
    fn dropped(&self) -> u64 {
        0
    }

    /// Evicted-record counts keyed by replica, omitting replicas with no
    /// drops. Sinks without per-replica accounting return an empty map
    /// even when [`dropped`](TraceSink::dropped) is non-zero.
    fn dropped_by_replica(&self) -> BTreeMap<u32, u64> {
        BTreeMap::new()
    }
}

/// The zero-overhead default: capture disabled.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&mut self, _record: TraceRecord) {}

    fn snapshot(&self) -> Vec<TraceRecord> {
        Vec::new()
    }
}

/// One replica's bounded ring. The buffer is allocated once at the
/// replica's first event and then overwritten in place.
#[derive(Debug, Clone)]
struct Ring {
    buf: Vec<TraceRecord>,
    /// Next overwrite position once the buffer is full.
    head: usize,
    /// Records this ring has evicted.
    dropped: u64,
}

impl Ring {
    fn new(capacity: usize) -> Ring {
        Ring {
            buf: Vec::with_capacity(capacity),
            head: 0,
            dropped: 0,
        }
    }

    /// Pushes a record, returning `true` when an older record was evicted.
    fn push(&mut self, record: TraceRecord, capacity: usize) -> bool {
        if self.buf.len() < capacity {
            self.buf.push(record);
            false
        } else {
            self.buf[self.head] = record;
            self.head = (self.head + 1) % capacity;
            true
        }
    }

    /// Retained records oldest-first.
    fn in_order(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf[self.head..]
            .iter()
            .chain(self.buf[..self.head].iter())
    }
}

/// Bounded capture: a fixed-capacity ring *per replica*, oldest records
/// evicted first.
///
/// Keeping the rings per replica (rather than one shared ring) is what
/// makes eviction deterministic: each replica's stream arrives in
/// program order, so the retained window per replica is a pure function
/// of the simulation — never of thread interleaving.
#[derive(Debug)]
pub struct RingSink {
    per_replica: usize,
    rings: BTreeMap<u32, Ring>,
    dropped: u64,
}

impl RingSink {
    /// A sink retaining at most `per_replica` records per replica.
    /// A zero capacity is clamped to 1 so the sink stays well-formed.
    pub fn new(per_replica: usize) -> RingSink {
        RingSink {
            per_replica: per_replica.max(1),
            rings: BTreeMap::new(),
            dropped: 0,
        }
    }

    /// The per-replica capacity.
    pub fn capacity_per_replica(&self) -> usize {
        self.per_replica
    }
}

impl TraceSink for RingSink {
    fn record(&mut self, record: TraceRecord) {
        let capacity = self.per_replica;
        let ring = self
            .rings
            .entry(record.replica)
            .or_insert_with(|| Ring::new(capacity));
        if ring.push(record, capacity) {
            ring.dropped += 1;
            self.dropped += 1;
        }
    }

    fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out: Vec<TraceRecord> = self
            .rings
            .values()
            .flat_map(|r| r.in_order().copied())
            .collect();
        canonical_sort(&mut out);
        out
    }

    fn dropped(&self) -> u64 {
        self.dropped
    }

    fn dropped_by_replica(&self) -> BTreeMap<u32, u64> {
        self.rings
            .iter()
            .filter(|(_, ring)| ring.dropped > 0)
            .map(|(&replica, ring)| (replica, ring.dropped))
            .collect()
    }
}

/// Unbounded capture, for tests and short forensic runs.
#[derive(Debug, Default)]
pub struct VecSink {
    records: Vec<TraceRecord>,
}

impl VecSink {
    /// An empty unbounded sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// An empty sink pre-sized for `capacity` records, so capturing a
    /// run whose event count is known up front (roughly proportional to
    /// the trace's request count) never regrows the buffer mid-run.
    pub fn with_capacity(capacity: usize) -> VecSink {
        VecSink {
            records: Vec::with_capacity(capacity),
        }
    }
}

impl TraceSink for VecSink {
    fn record(&mut self, record: TraceRecord) {
        self.records.push(record);
    }

    fn snapshot(&self) -> Vec<TraceRecord> {
        let mut out = self.records.clone();
        canonical_sort(&mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(time_us: u64, replica: u32, seq: u64) -> TraceRecord {
        TraceRecord {
            time_us,
            replica,
            seq,
            request: None,
            event: TraceEvent::FirstToken,
        }
    }

    #[test]
    fn null_sink_is_disabled_and_empty() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.record(rec(1, 0, 0));
        assert!(s.snapshot().is_empty());
        assert_eq!(s.dropped(), 0);
    }

    #[test]
    fn ring_drops_oldest_per_replica() {
        let mut s = RingSink::new(3);
        for seq in 0..5 {
            s.record(rec(seq * 10, 0, seq));
        }
        // Replica 1 stays under capacity: nothing dropped there.
        s.record(rec(7, 1, 0));
        let snap = s.snapshot();
        assert_eq!(s.dropped(), 2);
        let kept: Vec<(u32, u64)> = snap.iter().map(|r| (r.replica, r.seq)).collect();
        // Replica 0 keeps its three *newest* records (seq 2, 3, 4).
        assert_eq!(kept, vec![(1, 0), (0, 2), (0, 3), (0, 4)]);
    }

    #[test]
    fn ring_drop_counts_are_per_replica() {
        let mut s = RingSink::new(2);
        // Replica 0 overflows by 3, replica 2 by 1, replica 1 not at all.
        for seq in 0..5 {
            s.record(rec(seq, 0, seq));
        }
        for seq in 0..2 {
            s.record(rec(seq, 1, seq));
        }
        for seq in 0..3 {
            s.record(rec(seq, 2, seq));
        }
        assert_eq!(s.dropped(), 4);
        let by_replica = s.dropped_by_replica();
        assert_eq!(by_replica.get(&0), Some(&3));
        assert_eq!(by_replica.get(&2), Some(&1));
        // Replicas without drops are omitted, not reported as zero.
        assert!(!by_replica.contains_key(&1));
        // Sinks without per-replica accounting report an empty map.
        let mut v = VecSink::new();
        v.record(rec(0, 0, 0));
        assert!(v.dropped_by_replica().is_empty());
    }

    #[test]
    fn ring_never_reallocates_after_warmup() {
        let mut s = RingSink::new(4);
        s.record(rec(0, 0, 0));
        let ptr_before = s.rings[&0].buf.as_ptr();
        let cap_before = s.rings[&0].buf.capacity();
        for seq in 1..50 {
            s.record(rec(seq, 0, seq));
        }
        assert_eq!(s.rings[&0].buf.as_ptr(), ptr_before);
        assert_eq!(s.rings[&0].buf.capacity(), cap_before);
    }

    #[test]
    fn snapshot_is_canonically_ordered_across_replicas() {
        let mut s = VecSink::new();
        s.record(rec(50, 1, 0));
        s.record(rec(10, 1, 1)); // out-of-order stamp still sorts by time
        s.record(rec(50, 0, 0));
        let snap = s.snapshot();
        let key: Vec<(u64, u32)> = snap.iter().map(|r| (r.time_us, r.replica)).collect();
        assert_eq!(key, vec![(10, 1), (50, 0), (50, 1)]);
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut s = RingSink::new(0);
        assert_eq!(s.capacity_per_replica(), 1);
        s.record(rec(1, 0, 0));
        s.record(rec(2, 0, 1));
        assert_eq!(s.snapshot().len(), 1);
        assert_eq!(s.dropped(), 1);
    }
}
