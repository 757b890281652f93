//! The versioned snapshot schema and the delta-composition law.
//!
//! # Full vs delta snapshots
//!
//! The aggregator publishes one [`StatsDelta`] per cadence boundary
//! covering `[from_us, upto_us)`, and maintains the full cumulative
//! [`StatsSnapshot`] *as the left-fold merge of those deltas* — not as an
//! independently updated accumulator. That makes the composition law
//!
//! ```text
//! compose(deltas[..n]) == full snapshot after boundary n    (bit-exact)
//! ```
//!
//! hold even for order-sensitive float merges (Welford means): both
//! sides perform literally the same merge sequence.
//!
//! # Merge semantics per field kind
//!
//! * counters (`u64`) — addition;
//! * windowed aggregates ([`WindowedCounts`]/[`WindowedSamples`],
//!   [`LogHistogram`]) — exact per-window / per-bucket addition;
//! * running moments ([`OnlineStats`]) — parallel Welford merge;
//! * gauges (`Option<T>`: breaker phase, lifecycle, fleet size) — the
//!   later frame wins when it observed a change, otherwise the earlier
//!   value is kept;
//! * event logs (`Vec`) — concatenation (folds run in canonical record
//!   order, so concatenation preserves time order).
//!
//! # Versioning
//!
//! Every snapshot and delta carries [`SNAPSHOT_SCHEMA_VERSION`]; loaders
//! reject other versions. Within a version, fields may be *added*: every
//! type here declares its codec with [`qoserve_sim::json_struct!`], which
//! decodes a missing field as its default and ignores unknown fields, so
//! older artifacts keep loading and newer ones load in older binaries.

use std::collections::BTreeMap;

use qoserve_metrics::{LogHistogram, WindowedCounts, WindowedSamples};
use qoserve_sim::json::{Error, FromJson, ToJson, Value};
use qoserve_sim::{json, json_struct, OnlineStats};

/// Schema version stamped on every [`StatsSnapshot`] / [`StatsDelta`]
/// and on the JSONL stream header.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// Per-QoS-tier accounting. Keys in [`StatsFrame::tiers`] are raw tier
/// ids (`workload::TierId` numbering); [`RELEGATED_TIER`]
/// (`u8::MAX`) never appears as a key — relegations are counted on the
/// tier the request held before demotion.
///
/// [`RELEGATED_TIER`]: qoserve_trace::RELEGATED_TIER
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TierStats {
    /// Request deliveries to a scheduler (re-dispatched orphans that are
    /// delivered again count again; this is deliveries, not unique ids).
    pub arrived: u64,
    /// Completed requests.
    pub completed: u64,
    /// Completed requests that violated their SLO.
    pub violated: u64,
    /// Eager-relegation demotions out of this tier.
    pub relegated: u64,
    /// Requests bounced by the deadline-aware admission gate.
    pub admission_rejected: u64,
    /// Requests still in flight when the run ended (set only by the
    /// final fold).
    pub unfinished: u64,
    /// Per-window completed/violated tallies — the rolling SLO-attainment
    /// series.
    pub attainment: WindowedCounts,
    /// Time-to-first-token running moments, microseconds.
    pub ttft_us: OnlineStats,
    /// Worst per-token lateness running moments, microseconds (negative
    /// = always early).
    pub lateness_us: OnlineStats,
    /// Max time-between-tokens distribution, microseconds.
    pub tbt_us: LogHistogram,
}

json_struct!(TierStats {
    arrived,
    completed,
    violated,
    relegated,
    admission_rejected,
    unfinished,
    attainment,
    ttft_us,
    lateness_us,
    tbt_us,
});

/// Per-replica accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReplicaStats {
    /// Engine iterations executed.
    pub iterations: u64,
    /// Sum of observed iteration latencies, microseconds.
    pub busy_us: u64,
    /// Scheduled batch sizes (tokens) per window.
    pub batch_tokens: WindowedSamples,
    /// Dynamic-chunking budget choices per window.
    pub chunk_budget: WindowedSamples,
    /// Outstanding requests sampled at every arrival / completion /
    /// rejection on this replica, per window.
    pub queue_depth: WindowedSamples,
    /// Request deliveries to this replica's scheduler.
    pub arrived: u64,
    /// Requests completed on this replica.
    pub completed: u64,
    /// SLO-violating completions on this replica.
    pub violated: u64,
    /// Crash faults injected.
    pub crashes: u64,
    /// Slowdown faults injected.
    pub slowdowns: u64,
    /// Orphans re-dispatched *off* this replica.
    pub redispatched_away: u64,
    /// Orphans re-dispatched *onto* this replica.
    pub redispatched_onto: u64,
    /// Circuit-breaker transitions into `Open`.
    pub breaker_opens: u64,
    /// Latest breaker phase (`closed` / `open` / `half_probe`), when a
    /// transition was observed.
    pub breaker: Option<String>,
    /// Latest lifecycle state (`provisioning` / `serving` / `draining` /
    /// `retired` / `crashed` / `degraded`), when observed.
    pub lifecycle: Option<String>,
    /// Provision + warm-up time spent before serving, microseconds.
    pub warmup_us: u64,
    /// Graceful drains started.
    pub drains_started: u64,
    /// Graceful drains finished.
    pub drains_finished: u64,
    /// Requests migrated off by graceful drains.
    pub drain_migrated: u64,
    /// Drains whose deadline fired with work still running.
    pub drain_deadline_hits: u64,
    /// Chunk-margin controller adjustments.
    pub margin_moves: u64,
    /// Latest chunk-budget safety margin, when observed.
    pub last_margin: Option<f64>,
    /// Latest forest→analytical fallback engagement, when observed.
    pub fallback: Option<bool>,
    /// Hybrid EDF↔SRPF priority scores computed.
    pub priority_scored: u64,
    /// Chunk-budget searches served from the memo cache.
    pub chunk_cache_hits: u64,
    /// Trace records the capture sink evicted that were attributed to
    /// this replica (truncated observability, not lost requests).
    pub dropped: u64,
}

json_struct!(ReplicaStats {
    iterations,
    busy_us,
    batch_tokens,
    chunk_budget,
    queue_depth,
    arrived,
    completed,
    violated,
    crashes,
    slowdowns,
    redispatched_away,
    redispatched_onto,
    breaker_opens,
    breaker,
    lifecycle,
    warmup_us,
    drains_started,
    drains_finished,
    drain_migrated,
    drain_deadline_hits,
    margin_moves,
    last_margin,
    fallback,
    priority_scored,
    chunk_cache_hits,
    dropped,
});

/// Fleet-wide elastic control-plane accounting.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FleetStats {
    /// Scale-up decisions.
    pub scale_ups: u64,
    /// Scale-down (drain) decisions.
    pub scale_downs: u64,
    /// `(time_us, fleet_after)` per scale decision, in fold order.
    pub size_points: Vec<(u64, u32)>,
    /// Latest provisioned fleet size, when a scale decision was observed.
    pub last_size: Option<u32>,
    /// Warm-up completions.
    pub warmups: u64,
    /// Total provision + warm-up time, microseconds (replica-hours spent
    /// before serving).
    pub warmup_us: u64,
    /// Orphan re-dispatches.
    pub redispatches: u64,
    /// Faults injected (crashes + slowdowns).
    pub faults: u64,
    /// Total busy time across replicas, microseconds (replica-hours
    /// actually serving).
    pub busy_us: u64,
}

json_struct!(FleetStats {
    scale_ups,
    scale_downs,
    size_points,
    last_size,
    warmups,
    warmup_us,
    redispatches,
    faults,
    busy_us,
});

impl FleetStats {
    fn merge(&mut self, other: &FleetStats) {
        self.scale_ups += other.scale_ups;
        self.scale_downs += other.scale_downs;
        self.size_points.extend_from_slice(&other.size_points);
        if other.last_size.is_some() {
            self.last_size = other.last_size;
        }
        self.warmups += other.warmups;
        self.warmup_us += other.warmup_us;
        self.redispatches += other.redispatches;
        self.faults += other.faults;
        self.busy_us += other.busy_us;
    }
}

impl TierStats {
    fn merge(&mut self, other: &TierStats) {
        self.arrived += other.arrived;
        self.completed += other.completed;
        self.violated += other.violated;
        self.relegated += other.relegated;
        self.admission_rejected += other.admission_rejected;
        self.unfinished += other.unfinished;
        self.attainment.merge(&other.attainment);
        self.ttft_us.merge(&other.ttft_us);
        self.lateness_us.merge(&other.lateness_us);
        // Infallible in practice: every writer uses the default
        // resolution. A mismatched (hand-edited) histogram is skipped
        // rather than panicking.
        let _ = self.tbt_us.try_merge(&other.tbt_us);
    }
}

impl ReplicaStats {
    fn merge(&mut self, other: &ReplicaStats) {
        self.iterations += other.iterations;
        self.busy_us += other.busy_us;
        self.batch_tokens.merge(&other.batch_tokens);
        self.chunk_budget.merge(&other.chunk_budget);
        self.queue_depth.merge(&other.queue_depth);
        self.arrived += other.arrived;
        self.completed += other.completed;
        self.violated += other.violated;
        self.crashes += other.crashes;
        self.slowdowns += other.slowdowns;
        self.redispatched_away += other.redispatched_away;
        self.redispatched_onto += other.redispatched_onto;
        self.breaker_opens += other.breaker_opens;
        if other.breaker.is_some() {
            self.breaker.clone_from(&other.breaker);
        }
        if other.lifecycle.is_some() {
            self.lifecycle.clone_from(&other.lifecycle);
        }
        self.warmup_us += other.warmup_us;
        self.drains_started += other.drains_started;
        self.drains_finished += other.drains_finished;
        self.drain_migrated += other.drain_migrated;
        self.drain_deadline_hits += other.drain_deadline_hits;
        self.margin_moves += other.margin_moves;
        if other.last_margin.is_some() {
            self.last_margin = other.last_margin;
        }
        if other.fallback.is_some() {
            self.fallback = other.fallback;
        }
        self.priority_scored += other.priority_scored;
        self.chunk_cache_hits += other.chunk_cache_hits;
        self.dropped += other.dropped;
    }
}

/// The mergeable aggregate payload shared by full and delta snapshots.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsFrame {
    /// Trace records folded into this frame.
    pub events: u64,
    /// Folded-record counts per `TraceEvent` name.
    pub by_event: BTreeMap<String, u64>,
    /// Capture-sink evictions noted in this frame.
    pub dropped: u64,
    /// Capture-sink evictions per replica.
    pub dropped_by_replica: BTreeMap<u32, u64>,
    /// Per-tier accounting, keyed by raw tier id.
    pub tiers: BTreeMap<u8, TierStats>,
    /// Per-replica accounting.
    pub replicas: BTreeMap<u32, ReplicaStats>,
    /// Fleet-wide elastic accounting.
    pub fleet: FleetStats,
    /// Violation counts per lateness-cause label (the forensics
    /// taxonomy: `queueing-delay`, `chunk-induced`, `fault-induced`,
    /// `scale-induced`).
    pub causes: BTreeMap<String, u64>,
    /// Per-window violation tallies per cause label (`total` counts
    /// attributed violations; `flagged` is unused and stays 0).
    pub cause_windows: BTreeMap<String, WindowedCounts>,
}

json_struct!(StatsFrame {
    events,
    by_event,
    dropped,
    dropped_by_replica,
    tiers,
    replicas,
    fleet,
    causes,
    cause_windows,
});

impl StatsFrame {
    /// Merges `other` into `self` per the field-kind semantics in the
    /// module docs. Exact for counters/windows; running moments merge via
    /// parallel Welford in `other`-after-`self` order.
    pub fn merge(&mut self, other: &StatsFrame) {
        self.events += other.events;
        for (name, n) in &other.by_event {
            *self.by_event.entry(name.clone()).or_insert(0) += n;
        }
        self.dropped += other.dropped;
        for (&replica, n) in &other.dropped_by_replica {
            *self.dropped_by_replica.entry(replica).or_insert(0) += n;
        }
        for (&tier, stats) in &other.tiers {
            self.tiers.entry(tier).or_default().merge(stats);
        }
        for (&replica, stats) in &other.replicas {
            self.replicas.entry(replica).or_default().merge(stats);
        }
        self.fleet.merge(&other.fleet);
        for (label, n) in &other.causes {
            *self.causes.entry(label.clone()).or_insert(0) += n;
        }
        for (label, windows) in &other.cause_windows {
            self.cause_windows
                .entry(label.clone())
                .or_default()
                .merge(windows);
        }
    }

    /// Completed requests across all tiers.
    pub fn completed(&self) -> u64 {
        self.tiers.values().map(|t| t.completed).sum()
    }

    /// SLO-violating completions across all tiers.
    pub fn violated(&self) -> u64 {
        self.tiers.values().map(|t| t.violated).sum()
    }
}

/// The full cumulative snapshot: everything folded in `[0, upto_us)`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsSnapshot {
    /// Schema version ([`SNAPSHOT_SCHEMA_VERSION`]); checked on load.
    pub version: u32,
    /// Boundaries folded so far (the next delta's `seq`).
    pub seq: u64,
    /// Exclusive upper bound of folded record stamps, microseconds.
    pub upto_us: u64,
    /// The cumulative aggregate.
    pub frame: StatsFrame,
}

json_struct!(StatsSnapshot {
    version,
    seq,
    upto_us,
    frame
});

/// One cadence window's aggregate: records stamped in `[from_us, upto_us)`
/// (plus, in the final delta, any stragglers the orchestrator stamped
/// ahead of the last boundary).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsDelta {
    /// Schema version ([`SNAPSHOT_SCHEMA_VERSION`]); checked on load.
    pub version: u32,
    /// 0-based boundary index.
    pub seq: u64,
    /// Inclusive lower bound of the window, microseconds.
    pub from_us: u64,
    /// Exclusive upper bound of the window, microseconds.
    pub upto_us: u64,
    /// This window's aggregate.
    pub frame: StatsFrame,
}

json_struct!(StatsDelta {
    version,
    seq,
    from_us,
    upto_us,
    frame,
});

/// Left-fold merges `deltas` (in the given order) into the full snapshot
/// they compose to. Returns the empty snapshot for an empty slice.
pub fn compose(deltas: &[StatsDelta]) -> StatsSnapshot {
    let mut full = StatsSnapshot {
        version: SNAPSHOT_SCHEMA_VERSION,
        ..StatsSnapshot::default()
    };
    for d in deltas {
        full.frame.merge(&d.frame);
        full.seq = d.seq + 1;
        full.upto_us = full.upto_us.max(d.upto_us);
    }
    full
}

/// A captured snapshot stream: the per-boundary deltas plus the final
/// full snapshot (present once the run finished).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotStream {
    /// Cadence between boundaries, microseconds.
    pub cadence_us: u64,
    /// Per-boundary deltas in `seq` order.
    pub deltas: Vec<StatsDelta>,
    /// The final full snapshot.
    pub full: Option<StatsSnapshot>,
}

/// One JSONL line after the header: `{"kind":"delta","body":{...}}` or
/// `{"kind":"full","body":{...}}`.
#[derive(Debug, Clone, PartialEq)]
enum StreamLine {
    Delta(StatsDelta),
    Full(StatsSnapshot),
}

impl ToJson for StreamLine {
    fn write_json(&self, out: &mut String) {
        let (kind, body): (&str, &dyn ToJson) = match self {
            StreamLine::Delta(d) => ("delta", d),
            StreamLine::Full(s) => ("full", s),
        };
        json::write_object(out, &[("kind", &kind), ("body", body)]);
    }
}

impl FromJson for StreamLine {
    fn from_json(value: &Value) -> Result<Self, Error> {
        let body = value.get("body").unwrap_or(&Value::Null);
        match value.get("kind").and_then(Value::as_str) {
            Some("delta") => StatsDelta::from_json(body).map(StreamLine::Delta),
            Some("full") => StatsSnapshot::from_json(body).map(StreamLine::Full),
            _ => Err(Error::new("expected a `delta` or `full` line")),
        }
    }
}

/// Serializes a snapshot stream as JSONL: a header object, one line per
/// delta, then the final full snapshot (when present).
///
/// ```text
/// {"stream":"qoserve-stats","version":1,"cadence_us":60000000,"deltas":3}
/// {"kind":"delta","body":{...}}
/// {"kind":"full","body":{...}}
/// ```
///
/// Output bytes are a pure function of the stream value (struct fields
/// are written in declaration order; maps are `BTreeMap`s). The header
/// leads with its `stream` tag, so a file identifies itself from its
/// first bytes.
pub fn stream_to_jsonl(stream: &SnapshotStream) -> String {
    let mut out = String::with_capacity(256 + stream.deltas.len() * 512);
    let header = json!({
        "stream": "qoserve-stats",
        "version": SNAPSHOT_SCHEMA_VERSION,
        "cadence_us": stream.cadence_us,
        "deltas": stream.deltas.len(),
    });
    header.write_json(&mut out);
    out.push('\n');
    let deltas = stream.deltas.iter().cloned().map(StreamLine::Delta);
    for line in deltas.chain(stream.full.clone().map(StreamLine::Full)) {
        line.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// Parses a JSONL snapshot stream, rejecting schema-version mismatches
/// (in the header and on every line) with a descriptive error.
pub fn stream_from_jsonl(text: &str) -> Result<SnapshotStream, String> {
    let mut stream = SnapshotStream::default();
    let mut saw_header = false;
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if !saw_header {
            saw_header = true;
            let header =
                json::parse(line).map_err(|e| format!("bad header: {}", e.on_line(idx + 1)))?;
            if header.get("stream").and_then(Value::as_str) != Some("qoserve-stats") {
                return Err(format!("line {}: not a qoserve-stats stream", idx + 1));
            }
            let version = header.get("version").and_then(Value::as_u64).unwrap_or(0);
            if version != u64::from(SNAPSHOT_SCHEMA_VERSION) {
                return Err(format!(
                    "line {}: unsupported stream version {version} (expected {SNAPSHOT_SCHEMA_VERSION})",
                    idx + 1
                ));
            }
            stream.cadence_us = header
                .get("cadence_us")
                .and_then(Value::as_u64)
                .unwrap_or(0);
            continue;
        }
        let parsed: StreamLine =
            json::from_str(line).map_err(|e| e.on_line(idx + 1).to_string())?;
        let version = match &parsed {
            StreamLine::Delta(d) => d.version,
            StreamLine::Full(s) => s.version,
        };
        if version != SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "line {}: unsupported snapshot version {version} (expected {SNAPSHOT_SCHEMA_VERSION})",
                idx + 1
            ));
        }
        match parsed {
            StreamLine::Delta(d) => stream.deltas.push(d),
            StreamLine::Full(s) => stream.full = Some(s),
        }
    }
    if !saw_header {
        return Err("empty stream: missing header line".to_owned());
    }
    Ok(stream)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(seq: u64, from_us: u64, upto_us: u64) -> StatsDelta {
        let mut frame = StatsFrame {
            events: seq + 1,
            ..StatsFrame::default()
        };
        let tier = frame.tiers.entry(1).or_default();
        tier.completed = 2;
        tier.violated = u64::from(seq == 1);
        tier.ttft_us.push(1000.0 * (seq + 1) as f64);
        frame.fleet.last_size = Some(2 + seq as u32);
        StatsDelta {
            version: SNAPSHOT_SCHEMA_VERSION,
            seq,
            from_us,
            upto_us,
            frame,
        }
    }

    #[test]
    fn compose_left_folds_deltas() {
        let deltas = vec![delta(0, 0, 10), delta(1, 10, 20), delta(2, 20, 30)];
        let full = compose(&deltas);
        assert_eq!(full.seq, 3);
        assert_eq!(full.upto_us, 30);
        assert_eq!(full.frame.events, 6);
        let t = &full.frame.tiers[&1];
        assert_eq!(t.completed, 6);
        assert_eq!(t.violated, 1);
        assert_eq!(t.ttft_us.count(), 3);
        // The gauge keeps the latest observation.
        assert_eq!(full.frame.fleet.last_size, Some(4));
        // Composition is incremental: composing a prefix then merging the
        // rest matches composing everything at once.
        let mut prefix = compose(&deltas[..2]);
        prefix.frame.merge(&deltas[2].frame);
        assert_eq!(prefix.frame, full.frame);
    }

    #[test]
    fn stream_jsonl_round_trips() {
        let deltas = vec![delta(0, 0, 10), delta(1, 10, 20)];
        let stream = SnapshotStream {
            cadence_us: 10,
            full: Some(compose(&deltas)),
            deltas,
        };
        let text = stream_to_jsonl(&stream);
        assert!(text.starts_with("{\"stream\":\"qoserve-stats\""), "{text}");
        let back = stream_from_jsonl(&text).expect("round trip");
        assert_eq!(back, stream);
        // Serialization is deterministic.
        assert_eq!(text, stream_to_jsonl(&stream));
    }

    #[test]
    fn mutated_streams_parse_or_fail_without_panicking() {
        let deltas = vec![delta(0, 0, 10), delta(1, 10, 20)];
        let stream = SnapshotStream {
            cadence_us: 10,
            full: Some(compose(&deltas)),
            deltas,
        };
        let text = stream_to_jsonl(&stream);
        assert_eq!(stream_from_jsonl(&text), Ok(stream));
        qoserve_sim::forall(3_000, 18, |rng| {
            let _ = stream_from_jsonl(&qoserve_sim::mutate(&text, rng));
        });
    }

    #[test]
    fn stream_rejects_version_mismatch() {
        let stream = SnapshotStream {
            cadence_us: 10,
            deltas: vec![delta(0, 0, 10)],
            full: None,
        };
        let text = stream_to_jsonl(&stream);
        let bumped = text.replace("\"version\":1", "\"version\":99");
        let err = stream_from_jsonl(&bumped).expect_err("must reject");
        assert!(err.contains("unsupported"), "{err}");
        // A per-line mismatch (header fine, body stale) is caught too.
        let line_only = text.replace("\"body\":{\"version\":1", "\"body\":{\"version\":0");
        let err = stream_from_jsonl(&line_only).expect_err("must reject line");
        assert!(err.contains("unsupported snapshot version 0"), "{err}");
        assert!(stream_from_jsonl("").is_err());
        assert!(stream_from_jsonl("{\"stream\":\"other\"}\n").is_err());
    }

    #[test]
    fn snapshot_json_tolerates_missing_and_unknown_fields() {
        // Missing fields default (an old reader meeting a trimmed
        // artifact, or a new reader meeting an old writer)...
        let s: StatsSnapshot = json::from_str("{\"version\":1,\"seq\":2}").expect("defaults");
        assert_eq!(s.seq, 2);
        assert_eq!(s.frame, StatsFrame::default());
        // ...and unknown fields from a newer writer are ignored.
        let s: StatsDelta = json::from_str(
            "{\"version\":1,\"seq\":0,\"from_us\":0,\"upto_us\":5,\"frame\":{},\"added_in_v9\":true}",
        )
        .expect("unknown fields tolerated");
        assert_eq!(s.upto_us, 5);
        // A defaulted version field (absent entirely) fails the stream's
        // version check rather than loading silently.
        let line = "{\"kind\":\"full\",\"body\":{\"seq\":1}}";
        let text =
            format!("{{\"stream\":\"qoserve-stats\",\"version\":1,\"cadence_us\":1}}\n{line}\n");
        assert!(stream_from_jsonl(&text).is_err());
    }

    #[test]
    fn arrival_only_tiers_round_trip() {
        // A tier created by an arrival alone holds empty accumulators:
        // `ttft_us`/`lateness_us` and the `tbt_us` histogram carry ±∞
        // extremes, which the stream must carry through unchanged.
        let mut frame = StatsFrame::default();
        frame.tiers.entry(2).or_default().arrived = 1;
        let deltas = vec![StatsDelta {
            version: SNAPSHOT_SCHEMA_VERSION,
            seq: 0,
            from_us: 0,
            upto_us: 10,
            frame,
        }];
        let stream = SnapshotStream {
            cadence_us: 10,
            full: Some(compose(&deltas)),
            deltas,
        };
        let text = stream_to_jsonl(&stream);
        assert!(text.contains("\"min\":1e999,\"max\":-1e999"), "{text}");
        assert_eq!(stream_from_jsonl(&text), Ok(stream));
        let tier = TierStats::default();
        assert_eq!(tier.ttft_us.min(), None);
        assert_eq!(tier.ttft_us, OnlineStats::new());
    }

    #[test]
    fn malformed_lines_are_errors_with_their_line() {
        let stream = SnapshotStream {
            cadence_us: 10,
            deltas: vec![delta(0, 0, 10), delta(1, 10, 20)],
            full: None,
        };
        let text = stream_to_jsonl(&stream);
        let cut = &text[..text.len() - 5];
        let err = stream_from_jsonl(cut).expect_err("truncated last line");
        assert!(err.starts_with("line 3 column "), "{err}");
        let bad = text.replace("\"kind\":\"delta\"", "\"kind\":\"nope\"");
        let err = stream_from_jsonl(&bad).expect_err("bad kind");
        assert!(err.starts_with("line 2: "), "{err}");
    }

    #[test]
    fn merge_is_exact_for_windowed_and_counter_fields() {
        let mut a = StatsFrame::default();
        let mut b = StatsFrame::default();
        let ta = a.tiers.entry(0).or_default();
        ta.attainment = WindowedCounts::new(10);
        ta.attainment.record(5, false);
        let tb = b.tiers.entry(0).or_default();
        tb.attainment = WindowedCounts::new(10);
        tb.attainment.record(5, true);
        tb.attainment.record(25, false);
        a.merge(&b);
        let t = &a.tiers[&0];
        assert_eq!(t.attainment.total(), 3);
        assert_eq!(t.attainment.flagged(), 1);
        assert_eq!(t.attainment.windows[&0].total, 2);
    }
}
