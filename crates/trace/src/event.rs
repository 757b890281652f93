//! The closed event taxonomy, its JSON codec, and the canonical record
//! order.

use qoserve_sim::json::{self, Error, FromJson, ToJson, Value};

/// Sentinel tier id for the relegation target: relegated work forfeits
/// its deadlines and runs best-effort, which no real QoS tier models.
pub const RELEGATED_TIER: u8 = u8::MAX;

/// Why eager relegation demoted a request (§3.4 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RelegationReason {
    /// The urgency deadline already passed (or passes this iteration).
    DeadlinePassed,
    /// Hopeless even if scheduled immediately with the whole budget.
    Hopeless,
    /// Low-priority work shed under overload to protect important jobs.
    OverloadShed,
}

/// Circuit-breaker phases (mirrors `BreakerState` in `qoserve-cluster`;
/// duplicated here as plain data so the trace crate stays a leaf).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BreakerPhase {
    /// Healthy: re-dispatches flow to the replica.
    Closed,
    /// Unhealthy: re-dispatches are diverted.
    Open,
    /// Cooldown matured: one probe window decides close vs re-open.
    HalfProbe,
}

/// What kind of fault fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// The replica crashed (KV state lost, running work orphaned).
    Crash,
    /// A slowdown window inflated this iteration's latency.
    Slowdown,
}

/// Which way a scale decision moved the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ScaleDirection {
    /// Provision a new replica.
    Up,
    /// Drain and retire a replica.
    Down,
}

/// Declares the string codec of a fieldless enum, one name per variant.
macro_rules! name_codec {
    ($ty:ident { $($variant:ident => $name:literal),+ $(,)? }) => {
        impl ToJson for $ty {
            fn write_json(&self, out: &mut String) {
                json::write_str(out, match self { $($ty::$variant => $name),+ });
            }
        }

        impl FromJson for $ty {
            fn from_json(value: &Value) -> Result<Self, Error> {
                match value.as_str() {
                    $(Some($name) => Ok($ty::$variant),)+
                    _ => Err(Error::new(concat!("unknown ", stringify!($ty)))),
                }
            }
        }
    };
}

name_codec!(RelegationReason {
    DeadlinePassed => "deadline_passed",
    Hopeless => "hopeless",
    OverloadShed => "overload_shed",
});
name_codec!(BreakerPhase {
    Closed => "closed",
    Open => "open",
    HalfProbe => "half_probe",
});
name_codec!(FaultKind {
    Crash => "crash",
    Slowdown => "slowdown",
});
name_codec!(ScaleDirection {
    Up => "up",
    Down => "down",
});

/// One decision or lifecycle event. `Copy` by construction — no payload
/// allocates, so ring capture is allocation-free after warm-up.
///
/// In JSON an event is an object: its `"type"` name, then its fields. A
/// reader requires the name and every enum-valued field; a missing number
/// or flag takes its `Default`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A request was delivered to the scheduler.
    RequestArrived {
        /// Prompt length.
        prompt_tokens: u32,
        /// Expected decode length.
        decode_tokens: u32,
        /// QoS tier id.
        tier: u8,
        /// Absolute urgency deadline (TTFT for interactive tiers).
        deadline_us: u64,
    },
    /// The request's prefill completed (first token emitted).
    FirstToken,
    /// The request finished; payload carries the SLO verdict so forensic
    /// replay needs no side-channel outcome file.
    RequestCompleted {
        /// Whether the request violated its SLO.
        violated: bool,
        /// Worst per-token lateness (negative = always early).
        worst_lateness_us: i64,
        /// Largest observed time-between-tokens.
        max_tbt_us: u64,
        /// Whether the request was relegated along the way.
        relegated: bool,
    },
    /// Dynamic chunking picked this iteration's prefill token budget.
    ChunkBudgetChosen {
        /// The chosen budget in tokens.
        budget: u32,
        /// Raw (unmargined) predicted iteration latency at that budget.
        predicted_us: f64,
        /// Safety margin the search applied.
        margin: f64,
        /// Always `false`: the budget search keeps no prediction cache.
        /// Older traces may hold `true`.
        cache_hit: bool,
    },
    /// Hybrid EDF↔SRPF prioritization scored an arriving request (Eq. 4/5).
    PriorityScored {
        /// Deadline term (absolute urgency deadline, µs).
        edf_term: f64,
        /// Remaining-work term (α · work tokens, µs).
        srpf_term: f64,
        /// The blending coefficient α (µs per token).
        alpha: f64,
    },
    /// Eager relegation demoted a request to best-effort.
    Relegated {
        /// Tier the request held before demotion.
        from_tier: u8,
        /// Always [`RELEGATED_TIER`]: deadlines forfeit, best-effort.
        to_tier: u8,
        /// Which relegation predicate fired.
        reason: RelegationReason,
    },
    /// The deadline-aware admission gate bounced a provably-late request.
    AdmissionRejected {
        /// Estimated service time under current drift conditions.
        estimated_service_us: u64,
        /// The deadline the estimate provably overshoots.
        deadline_us: u64,
    },
    /// A replica circuit breaker changed state.
    BreakerTransition {
        /// Phase before.
        from: BreakerPhase,
        /// Phase after.
        to: BreakerPhase,
    },
    /// The adaptive controller moved the chunk-budget safety margin.
    MarginAdjusted {
        /// The new margin.
        margin: f64,
        /// Whether the sticky forest→analytical fallback is engaged.
        fallback: bool,
    },
    /// A scheduled fault fired.
    FaultInjected {
        /// Crash or slowdown.
        kind: FaultKind,
        /// Latency multiplier (1.0 for crashes).
        slowdown: f64,
    },
    /// The recovery orchestrator re-dispatched crash-orphaned work.
    OrphanRedispatched {
        /// Replica the work died on.
        from_replica: u32,
        /// Replica it was re-submitted to.
        to_replica: u32,
        /// 1-based re-dispatch attempt.
        attempt: u32,
    },
    /// The elastic control plane changed the provisioned fleet size
    /// (stamped on the replica being added or drained).
    ScaleDecision {
        /// Up (provision) or down (drain).
        direction: ScaleDirection,
        /// Provisioned replicas before the decision.
        fleet_before: u32,
        /// Provisioned replicas after the decision.
        fleet_after: u32,
    },
    /// A graceful drain began: admission stopped on this replica.
    DrainStarted {
        /// Absolute deadline by which running work must finish.
        deadline_us: u64,
    },
    /// A graceful drain finished; unfinished work was handed to the
    /// orphan re-dispatch path.
    DrainFinished {
        /// Requests migrated off the replica.
        migrated: u32,
        /// Whether the deadline fired with work still running (KV state
        /// of in-flight requests was discarded, costing re-prefill).
        deadline_hit: bool,
    },
    /// A provisioned replica finished model-load warm-up and joined the
    /// serving set.
    WarmupComplete {
        /// Provision + warm-up time spent before the first request.
        warmup_us: u64,
    },
    /// One engine iteration ran (stamped at the iteration's *start*).
    IterationExecuted {
        /// Total scheduled tokens (prefill chunk + decodes).
        batch_tokens: u32,
        /// Prefill tokens in the batch.
        prefill_tokens: u32,
        /// Decode requests in the batch.
        num_decodes: u32,
        /// Observed (noised, possibly degraded) execution time.
        observed_us: u64,
    },
}

/// Declares [`TraceEvent::name`] and the event codec from one variant
/// list; a variant or field missing from the list fails to compile. A
/// field marked `required` (the enum-valued ones, which have no default)
/// fails to decode when its member is absent.
macro_rules! event_codec {
    (@decode $value:ident $field:ident) => {
        json::field($value, stringify!($field))?
    };
    (@decode $value:ident $field:ident required) => {
        match $value.get(stringify!($field)) {
            Some(member) => FromJson::from_json(member)
                .map_err(|e: Error| e.in_field(stringify!($field)))?,
            None => return Err(Error::new(concat!("missing `", stringify!($field), "`"))),
        }
    };
    ($($variant:ident $name:literal { $($field:ident $(: $required:ident)?),* }),+ $(,)?) => {
        impl TraceEvent {
            /// Stable lowercase name, the serialized `type` tag.
            pub fn name(&self) -> &'static str {
                match self {
                    $(TraceEvent::$variant { .. } => $name,)+
                }
            }

            /// The `type` tag and the payload fields, in declaration order.
            fn members(&self) -> Vec<(&'static str, &dyn ToJson)> {
                match self {
                    $(TraceEvent::$variant { $($field),* } => vec![
                        ("type", &$name as &dyn ToJson),
                        $((stringify!($field), $field as &dyn ToJson),)*
                    ],)+
                }
            }

            /// Decodes the event whose members (tag included) `value` holds.
            fn from_members(value: &Value) -> Result<TraceEvent, Error> {
                match value.get("type").and_then(Value::as_str) {
                    $(Some($name) => Ok(TraceEvent::$variant {
                        $($field: event_codec!(@decode value $field $($required)?),)*
                    }),)+
                    Some(other) => Err(Error::new(format!("unknown event type `{other}`"))),
                    None => Err(Error::new("missing event `type`")),
                }
            }
        }
    };
}

event_codec! {
    RequestArrived "request_arrived" { prompt_tokens, decode_tokens, tier, deadline_us },
    FirstToken "first_token" {},
    RequestCompleted "request_completed" { violated, worst_lateness_us, max_tbt_us, relegated },
    ChunkBudgetChosen "chunk_budget_chosen" { budget, predicted_us, margin, cache_hit },
    PriorityScored "priority_scored" { edf_term, srpf_term, alpha },
    Relegated "relegated" { from_tier, to_tier, reason: required },
    AdmissionRejected "admission_rejected" { estimated_service_us, deadline_us },
    BreakerTransition "breaker_transition" { from: required, to: required },
    MarginAdjusted "margin_adjusted" { margin, fallback },
    FaultInjected "fault_injected" { kind: required, slowdown },
    OrphanRedispatched "orphan_redispatched" { from_replica, to_replica, attempt },
    ScaleDecision "scale_decision" { direction: required, fleet_before, fleet_after },
    DrainStarted "drain_started" { deadline_us },
    DrainFinished "drain_finished" { migrated, deadline_hit },
    WarmupComplete "warmup_complete" { warmup_us },
    IterationExecuted "iteration_executed" { batch_tokens, prefill_tokens, num_decodes, observed_us },
}

impl ToJson for TraceEvent {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, &self.members());
    }
}

impl FromJson for TraceEvent {
    fn from_json(value: &Value) -> Result<Self, Error> {
        TraceEvent::from_members(value)
    }
}

/// One captured event with its deterministic stamps.
///
/// In JSON a record is one flat object: the stamps, `request` when there
/// is one, then the event's members
/// (`{"time_us":0,"replica":0,"seq":0,"request":7,"type":"first_token"}`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// Simulated time in microseconds (never wall clock).
    pub time_us: u64,
    /// Replica the event belongs to (orchestrator events use the replica
    /// they act on).
    pub replica: u32,
    /// Per-replica sequence number, assigned in program order — the
    /// tie-breaker that makes the canonical order total.
    pub seq: u64,
    /// Request id, when the event concerns a single request.
    pub request: Option<u64>,
    /// The event payload.
    pub event: TraceEvent,
}

impl ToJson for TraceRecord {
    fn write_json(&self, out: &mut String) {
        let mut members: Vec<(&str, &dyn ToJson)> = vec![
            ("time_us", &self.time_us),
            ("replica", &self.replica),
            ("seq", &self.seq),
        ];
        if let Some(request) = &self.request {
            members.push(("request", request));
        }
        members.extend(self.event.members());
        json::write_object(out, &members);
    }
}

impl FromJson for TraceRecord {
    fn from_json(value: &Value) -> Result<Self, Error> {
        Ok(TraceRecord {
            time_us: json::field(value, "time_us")?,
            replica: json::field(value, "replica")?,
            seq: json::field(value, "seq")?,
            request: json::field(value, "request")?,
            event: TraceEvent::from_members(value)?,
        })
    }
}

/// Sorts records into the canonical `(time_us, replica, seq)` order.
///
/// Per-replica streams are emitted in deterministic program order with
/// nondecreasing stamps, so this total order is independent of how
/// replica threads interleaved their writes into a shared sink.
pub fn canonical_sort(records: &mut [TraceRecord]) {
    records.sort_unstable_by_key(|r| (r.time_us, r.replica, r.seq));
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn canonical_order_is_time_then_replica_then_seq() {
        let mut v = vec![rec(5, 1, 0), rec(5, 0, 1), rec(1, 2, 0), rec(5, 0, 0)];
        canonical_sort(&mut v);
        let key: Vec<(u64, u32, u64)> = v.iter().map(|r| (r.time_us, r.replica, r.seq)).collect();
        assert_eq!(key, vec![(1, 2, 0), (5, 0, 0), (5, 0, 1), (5, 1, 0)]);
    }

    #[test]
    fn events_are_copy_and_small() {
        // The ring pre-allocates `TraceRecord`s; keep them registers-cheap.
        assert!(std::mem::size_of::<TraceRecord>() <= 96);
        let e = TraceEvent::FirstToken;
        let _copy1 = e;
        let _copy2 = e;
    }

    #[test]
    fn json_round_trips_with_type_tag() {
        let r = TraceRecord {
            time_us: 1_500,
            replica: 3,
            seq: 7,
            request: Some(42),
            event: TraceEvent::ChunkBudgetChosen {
                budget: 1024,
                predicted_us: 2_500.0,
                margin: 0.06,
                cache_hit: true,
            },
        };
        let text = json::to_string(&r);
        assert_eq!(
            text,
            "{\"time_us\":1500,\"replica\":3,\"seq\":7,\"request\":42,\"type\":\"chunk_budget_chosen\",\
             \"budget\":1024,\"predicted_us\":2500.0,\"margin\":0.06,\"cache_hit\":true}"
        );
        assert_eq!(json::from_str(&text), Ok(r));
        // `request: None` is omitted entirely, and round-trips.
        let r2 = TraceRecord { request: None, ..r };
        let text2 = json::to_string(&r2);
        assert!(!text2.contains("request"), "{text2}");
        assert_eq!(json::from_str(&text2), Ok(r2));
        // A missing field takes its default; the type tag is required.
        let sparse: TraceRecord =
            json::from_str("{\"type\":\"drain_started\",\"extra\":1}").unwrap();
        assert_eq!(sparse.event, TraceEvent::DrainStarted { deadline_us: 0 });
        assert!(json::from_str::<TraceRecord>("{\"time_us\":1}").is_err());
        assert!(json::from_str::<TraceRecord>("{\"type\":\"nope\"}").is_err());
    }

    #[test]
    fn enum_valued_fields_are_required() {
        // No enum payload has a default: a line without one must not decode
        // as an invented crash, scale-up, breaker phase or relegation cause.
        for line in [
            r#"{"type":"fault_injected","slowdown":1.0}"#,
            r#"{"type":"scale_decision","fleet_before":2,"fleet_after":3}"#,
            r#"{"type":"breaker_transition","from":"closed"}"#,
            r#"{"type":"relegated","from_tier":1,"to_tier":255}"#,
        ] {
            let err = json::from_str::<TraceRecord>(line).expect_err(line);
            assert!(err.msg.starts_with("missing `"), "{line}: {err}");
        }
        let bad = json::from_str::<TraceRecord>(r#"{"type":"fault_injected","kind":"oops"}"#);
        assert!(bad.unwrap_err().msg.starts_with("kind: "));
        // A present enum field with a missing number still decodes.
        let crash: TraceRecord =
            json::from_str(r#"{"type":"fault_injected","kind":"crash"}"#).unwrap();
        assert_eq!(
            crash.event,
            TraceEvent::FaultInjected {
                kind: FaultKind::Crash,
                slowdown: 0.0
            }
        );
    }

    #[test]
    fn names_match_serialized_tags() {
        for (event, name) in [
            (TraceEvent::FirstToken, "first_token"),
            (
                TraceEvent::Relegated {
                    from_tier: 1,
                    to_tier: RELEGATED_TIER,
                    reason: RelegationReason::Hopeless,
                },
                "relegated",
            ),
            (
                TraceEvent::BreakerTransition {
                    from: BreakerPhase::Closed,
                    to: BreakerPhase::Open,
                },
                "breaker_transition",
            ),
            (
                TraceEvent::ScaleDecision {
                    direction: ScaleDirection::Up,
                    fleet_before: 2,
                    fleet_after: 3,
                },
                "scale_decision",
            ),
            (
                TraceEvent::DrainStarted {
                    deadline_us: 30_000_000,
                },
                "drain_started",
            ),
            (
                TraceEvent::DrainFinished {
                    migrated: 4,
                    deadline_hit: true,
                },
                "drain_finished",
            ),
            (
                TraceEvent::WarmupComplete {
                    warmup_us: 30_000_000,
                },
                "warmup_complete",
            ),
        ] {
            assert_eq!(event.name(), name);
            let text = json::to_string(&event);
            assert!(
                text.starts_with(&format!("{{\"type\":\"{name}\"")),
                "{text}"
            );
            assert_eq!(json::from_str(&text), Ok(event));
        }
    }
}
