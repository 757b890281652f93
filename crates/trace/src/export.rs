//! Deterministic serializers: JSONL for diffing and forensic replay,
//! Chrome-trace-event JSON for Perfetto.
//!
//! Both exporters require records in canonical order (as produced by
//! [`TraceSink::snapshot`](crate::TraceSink::snapshot)) and emit keys in
//! a fixed order, so output bytes are a pure function of the record list.

// A new `TraceEvent` variant must get an explicit arm here, not fall into `_`.
#![deny(clippy::wildcard_enum_match_arm)]

use qoserve_sim::json;
use qoserve_sim::json::{ToJson, Value};

use crate::event::{TraceEvent, TraceRecord};

/// Serializes records as JSONL: a header object followed by one record
/// per line.
///
/// The header carries the retained-record and evicted-record counts so a
/// forensic reader knows whether the window is complete:
///
/// ```text
/// {"trace":"qoserve","version":1,"events":2,"dropped":0}
/// {"time_us":0,"replica":0,"seq":0,"request":7,"type":"first_token"}
/// ```
pub fn to_jsonl(records: &[TraceRecord], dropped: u64) -> String {
    // One pre-sized buffer that every record writes into directly.
    let mut out = String::with_capacity(64 + records.len() * 96);
    let header = json!({
        "trace": "qoserve",
        "version": 1,
        "events": records.len(),
        "dropped": dropped,
    });
    header.write_json(&mut out);
    out.push('\n');
    for r in records {
        r.write_json(&mut out);
        out.push('\n');
    }
    out
}

/// A parsed JSONL trace.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParsedTrace {
    /// Records in file order.
    pub records: Vec<TraceRecord>,
    /// Evicted-record count from the header (0 when absent).
    pub dropped: u64,
}

/// Parses a JSONL trace produced by [`to_jsonl`]. The header line is
/// optional; a malformed line is an error carrying its 1-based number.
pub fn from_jsonl(text: &str) -> Result<ParsedTrace, json::Error> {
    let mut trace = ParsedTrace::default();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if idx == 0 {
            if let Ok(header) = json::parse(line) {
                if header.get("trace").and_then(Value::as_str) == Some("qoserve") {
                    trace.dropped = header.get("dropped").and_then(Value::as_u64).unwrap_or(0);
                    continue;
                }
            }
        }
        let record = json::from_str::<TraceRecord>(line).map_err(|e| e.on_line(idx + 1))?;
        trace.records.push(record);
    }
    Ok(trace)
}

/// Serializes records as Chrome trace-event JSON (openable in Perfetto
/// or `chrome://tracing`).
///
/// Layout: one track (`tid`) per replica under a single process,
/// iterations as complete (`X`) slices, decision events as thread-scoped
/// instants (`i`), and one async span (`b`/`e`, `cat: "request"`) per
/// request from arrival through first token to completion.
pub fn to_chrome_trace(records: &[TraceRecord]) -> String {
    let mut events: Vec<Value> = Vec::new();
    let mut replicas: Vec<u32> = records.iter().map(|r| r.replica).collect();
    replicas.sort_unstable();
    replicas.dedup();
    for replica in &replicas {
        events.push(json!({
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": replica,
            "args": {"name": format!("replica-{replica}")},
        }));
    }
    for r in records {
        events.push(chrome_event(r));
    }
    json::to_string(&json!({"traceEvents": events, "displayTimeUnit": "ms"}))
}

fn chrome_event(r: &TraceRecord) -> Value {
    let args = json::to_value(&r.event);
    match r.event {
        TraceEvent::IterationExecuted { observed_us, .. } => json!({
            "ph": "X",
            "name": "iteration",
            "pid": 0,
            "tid": r.replica,
            "ts": r.time_us,
            "dur": observed_us,
            "args": args,
        }),
        TraceEvent::RequestArrived { .. } => json!({
            "ph": "b",
            "cat": "request",
            "id": r.request.unwrap_or(0),
            "name": span_name(r),
            "pid": 0,
            "tid": r.replica,
            "ts": r.time_us,
            "args": args,
        }),
        TraceEvent::FirstToken => json!({
            "ph": "n",
            "cat": "request",
            "id": r.request.unwrap_or(0),
            "name": span_name(r),
            "pid": 0,
            "tid": r.replica,
            "ts": r.time_us,
        }),
        TraceEvent::RequestCompleted { .. } => json!({
            "ph": "e",
            "cat": "request",
            "id": r.request.unwrap_or(0),
            "name": span_name(r),
            "pid": 0,
            "tid": r.replica,
            "ts": r.time_us,
            "args": args,
        }),
        // Decision events render as thread-scoped instants. Spelled out
        // variant-by-variant (not `_`) so adding a TraceEvent variant
        // forces a decision here; `trace-coverage` enforces this.
        TraceEvent::ChunkBudgetChosen { .. }
        | TraceEvent::PriorityScored { .. }
        | TraceEvent::Relegated { .. }
        | TraceEvent::AdmissionRejected { .. }
        | TraceEvent::BreakerTransition { .. }
        | TraceEvent::MarginAdjusted { .. }
        | TraceEvent::FaultInjected { .. }
        | TraceEvent::OrphanRedispatched { .. }
        | TraceEvent::ScaleDecision { .. }
        | TraceEvent::DrainStarted { .. }
        | TraceEvent::DrainFinished { .. }
        | TraceEvent::WarmupComplete { .. } => json!({
            "ph": "i",
            "s": "t",
            "name": r.event.name(),
            "pid": 0,
            "tid": r.replica,
            "ts": r.time_us,
            "args": args,
        }),
    }
}

/// Async-span name: all three phases of a request's span must share it.
fn span_name(r: &TraceRecord) -> String {
    match r.request {
        Some(id) => format!("request-{id}"),
        None => "request".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::canonical_sort;

    fn sample() -> Vec<TraceRecord> {
        let mut v = vec![
            TraceRecord {
                time_us: 0,
                replica: 0,
                seq: 0,
                request: Some(7),
                event: TraceEvent::RequestArrived {
                    prompt_tokens: 100,
                    decode_tokens: 10,
                    tier: 1,
                    deadline_us: 6_000_000,
                },
            },
            TraceRecord {
                time_us: 1_000,
                replica: 0,
                seq: 1,
                request: None,
                event: TraceEvent::IterationExecuted {
                    batch_tokens: 132,
                    prefill_tokens: 100,
                    num_decodes: 32,
                    observed_us: 950,
                },
            },
            TraceRecord {
                time_us: 1_950,
                replica: 0,
                seq: 2,
                request: Some(7),
                event: TraceEvent::FirstToken,
            },
            TraceRecord {
                time_us: 3_000,
                replica: 1,
                seq: 0,
                request: Some(7),
                event: TraceEvent::RequestCompleted {
                    violated: true,
                    worst_lateness_us: 1_500,
                    max_tbt_us: 400,
                    relegated: false,
                },
            },
        ];
        canonical_sort(&mut v);
        v
    }

    #[test]
    fn jsonl_round_trips() {
        let records = sample();
        let text = to_jsonl(&records, 3);
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed.dropped, 3);
        assert_eq!(parsed.records, records);
    }

    #[test]
    fn jsonl_without_header_still_parses() {
        let records = sample();
        let text = to_jsonl(&records, 0);
        let body: String = text.lines().skip(1).map(|l| format!("{l}\n")).collect();
        let parsed = from_jsonl(&body).unwrap();
        assert_eq!(parsed.records, records);
        assert_eq!(parsed.dropped, 0);
    }

    #[test]
    fn mutated_jsonl_parses_or_fails_without_panicking() {
        let text = to_jsonl(&sample(), 3);
        let parsed = from_jsonl(&text).expect("the writer's own output parses");
        assert_eq!((parsed.records, parsed.dropped), (sample(), 3));
        qoserve_sim::forall(10_000, 17, |rng| {
            let _ = from_jsonl(&qoserve_sim::mutate(&text, rng));
        });
    }

    #[test]
    fn jsonl_reports_malformed_lines() {
        let err = from_jsonl("{\"not\": \"a record\"}\n").unwrap_err();
        assert!(err.to_string().starts_with("line 1: "), "{err}");
        let text = to_jsonl(&sample(), 0);
        let mut lines: Vec<&str> = text.lines().collect();
        lines[3] = "{\"time_us\":3,\"type\":\"first_token\"";
        let err = from_jsonl(&lines.join("\n")).unwrap_err();
        assert_eq!((err.line, err.column), (4, 34), "{err}");
    }

    #[test]
    fn jsonl_is_deterministic() {
        let records = sample();
        assert_eq!(to_jsonl(&records, 0), to_jsonl(&records, 0));
    }

    #[test]
    fn chrome_trace_has_tracks_slices_and_spans() {
        let text = to_chrome_trace(&sample());
        let v = json::parse(&text).unwrap();
        let events = v.get("traceEvents").and_then(Value::as_array).unwrap();
        let str_of = |e: &Value, key: &str| e.get(key).and_then(Value::as_str).map(str::to_owned);
        let u64_of = |e: &Value, key: &str| e.get(key).and_then(Value::as_u64);
        // 2 replica-name metadata events + 4 records.
        assert_eq!(events.len(), 6);
        let phases: Vec<String> = events.iter().filter_map(|e| str_of(e, "ph")).collect();
        assert_eq!(phases, vec!["M", "M", "b", "X", "n", "e"]);
        // The request span shares id and name across b/n/e.
        let spans = events
            .iter()
            .filter(|e| str_of(e, "cat").as_deref() == Some("request"));
        for e in spans {
            assert_eq!(u64_of(e, "id"), Some(7));
            assert_eq!(str_of(e, "name").as_deref(), Some("request-7"));
        }
        // The iteration slice carries its duration.
        let x = events
            .iter()
            .find(|e| str_of(e, "ph").as_deref() == Some("X"))
            .unwrap();
        assert_eq!(u64_of(x, "dur"), Some(950));
        assert_eq!(u64_of(x, "tid"), Some(0));
    }
}
