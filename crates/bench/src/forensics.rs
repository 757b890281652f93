//! SLO forensics: replaying a decision trace into per-request timelines.
//!
//! A captured [`qoserve_trace`] stream records every decision the stack
//! made — admission, prioritization, chunk sizing, relegation, faults,
//! re-dispatch — with deterministic simulated-time stamps. This module
//! folds that stream into one [`RequestForensics`] per request and
//! answers the operator question behind the trace layer: *why did request
//! N violate its SLO?* Each violated request gets a primary
//! [`LatenessCause`]:
//!
//! * **queueing-delay** — the first token already missed its deadline:
//!   the time was lost waiting for service, not executing it.
//! * **chunk-induced** — the first token met its deadline but a later
//!   token (or the completion) violated: lateness accrued during decode,
//!   i.e. co-scheduled prefill chunks stretched iterations past the TBT
//!   budget.
//! * **fault-induced** — the request overlapped an injected fault: it was
//!   orphaned and re-dispatched after a crash, or shared a replica with
//!   an active crash/slowdown between arrival and completion.
//! * **scale-induced** — the request shared a replica with an elastic
//!   control-plane action (a drain or scale decision) between arrival
//!   and completion: it was migrated off a draining replica, or its
//!   replica was retired under it.
//!
//! The attribution is a deterministic function of the trace alone, so the
//! same `(seed, config)` always explains its violations identically.

// A new `TraceEvent` variant must get an explicit arm here, not fall into `_`.
#![deny(clippy::wildcard_enum_match_arm)]

use std::collections::BTreeMap;

use qoserve_trace::{TraceEvent, TraceRecord};

pub use qoserve_stats::LatenessCause;

/// Everything the trace knows about one request.
#[derive(Debug, Clone, Default)]
pub struct RequestForensics {
    /// The request id.
    pub request: u64,
    /// Every replica that stamped an event for this request, in first-seen
    /// order (re-dispatched requests list each generation's host).
    pub replicas: Vec<u32>,
    /// First arrival stamp (re-dispatch re-arrivals keep the original).
    pub arrived_us: Option<u64>,
    /// Urgency deadline from the arrival event.
    pub deadline_us: Option<u64>,
    /// First-token stamp.
    pub first_token_us: Option<u64>,
    /// Completion stamp.
    pub completed_us: Option<u64>,
    /// SLO verdict from the completion event.
    pub violated: bool,
    /// Whether eager relegation (or a relegated re-dispatch) demoted it.
    pub relegated: bool,
    /// Whether the admission gate bounced it.
    pub rejected: bool,
    /// Worst per-token lateness from the completion event.
    pub worst_lateness_us: i64,
    /// Largest observed time-between-tokens from the completion event.
    pub max_tbt_us: u64,
    /// Crash-orphan re-dispatches this request survived.
    pub redispatches: u32,
    /// The request's own events, in canonical trace order.
    pub events: Vec<TraceRecord>,
}

impl RequestForensics {
    /// Arrived but never completed: stranded at the horizon, shed, or
    /// retry-exhausted — an SLO violation with no completion event.
    pub fn unfinished(&self) -> bool {
        self.arrived_us.is_some() && self.completed_us.is_none() && !self.rejected
    }

    /// Whether this request should be explained: a violated completion or
    /// an unfinished request.
    pub fn needs_explanation(&self) -> bool {
        self.violated || self.unfinished()
    }
}

/// A folded trace: per-request timelines plus the global fault timeline.
#[derive(Debug, Clone, Default)]
pub struct TraceForensics {
    requests: BTreeMap<u64, RequestForensics>,
    /// Every `FaultInjected` event (crashes and slowdowns), per replica.
    faults: Vec<TraceRecord>,
    /// Every elastic control-plane event (scale decisions, drain
    /// start/finish, warm-up completions), per replica.
    scaling: Vec<TraceRecord>,
}

impl TraceForensics {
    /// Folds canonical-order records into per-request forensics.
    pub fn build(records: &[TraceRecord]) -> Self {
        let mut requests: BTreeMap<u64, RequestForensics> = BTreeMap::new();
        let mut faults: Vec<TraceRecord> = Vec::new();
        let mut scaling: Vec<TraceRecord> = Vec::new();
        for r in records {
            if matches!(r.event, TraceEvent::FaultInjected { .. }) {
                faults.push(*r);
            }
            if matches!(
                r.event,
                TraceEvent::ScaleDecision { .. }
                    | TraceEvent::DrainStarted { .. }
                    | TraceEvent::DrainFinished { .. }
            ) {
                scaling.push(*r);
            }
            let Some(id) = r.request else {
                continue;
            };
            let f = requests.entry(id).or_insert_with(|| RequestForensics {
                request: id,
                worst_lateness_us: i64::MIN,
                ..RequestForensics::default()
            });
            if !f.replicas.contains(&r.replica) {
                f.replicas.push(r.replica);
            }
            match r.event {
                TraceEvent::RequestArrived { deadline_us, .. } => {
                    if f.arrived_us.is_none() {
                        f.arrived_us = Some(r.time_us);
                        f.deadline_us = Some(deadline_us);
                    }
                }
                TraceEvent::FirstToken => {
                    if f.first_token_us.is_none() {
                        f.first_token_us = Some(r.time_us);
                    }
                }
                TraceEvent::RequestCompleted {
                    violated,
                    worst_lateness_us,
                    max_tbt_us,
                    relegated,
                } => {
                    f.completed_us = Some(r.time_us);
                    f.violated = violated;
                    f.worst_lateness_us = worst_lateness_us;
                    f.max_tbt_us = max_tbt_us;
                    f.relegated |= relegated;
                }
                TraceEvent::Relegated { .. } => f.relegated = true,
                TraceEvent::AdmissionRejected { .. } => f.rejected = true,
                TraceEvent::OrphanRedispatched { .. } => f.redispatches += 1,
                // Decision and replica-level events update no summary
                // field; they still land in the request's raw timeline
                // below. Spelled out (not `_`) so adding a TraceEvent
                // variant forces a decision here; `trace-coverage`
                // enforces this.
                TraceEvent::ChunkBudgetChosen { .. }
                | TraceEvent::PriorityScored { .. }
                | TraceEvent::BreakerTransition { .. }
                | TraceEvent::MarginAdjusted { .. }
                | TraceEvent::FaultInjected { .. }
                | TraceEvent::ScaleDecision { .. }
                | TraceEvent::DrainStarted { .. }
                | TraceEvent::DrainFinished { .. }
                | TraceEvent::WarmupComplete { .. }
                | TraceEvent::IterationExecuted { .. } => {}
            }
            f.events.push(*r);
        }
        TraceForensics {
            requests,
            faults,
            scaling,
        }
    }

    /// All requests, in id order.
    pub fn requests(&self) -> impl Iterator<Item = &RequestForensics> {
        self.requests.values()
    }

    /// One request by id.
    pub fn get(&self, request: u64) -> Option<&RequestForensics> {
        self.requests.get(&request)
    }

    /// Every request needing an explanation (violated or unfinished), in
    /// id order.
    pub fn violations(&self) -> impl Iterator<Item = &RequestForensics> {
        self.requests.values().filter(|f| f.needs_explanation())
    }

    /// Primary lateness attribution; `None` for requests that met their
    /// SLO (or were rejected at admission — the client saw an immediate
    /// answer, not a late one).
    pub fn cause_of(&self, f: &RequestForensics) -> Option<LatenessCause> {
        if !f.needs_explanation() {
            return None;
        }
        let span_end = f.completed_us.unwrap_or(u64::MAX);
        let overlaps = |ev: &TraceRecord| {
            f.replicas.contains(&ev.replica)
                && f.arrived_us.is_some_and(|a| ev.time_us >= a)
                && ev.time_us <= span_end
        };
        Some(LatenessCause::attribute(
            self.faults.iter().any(overlaps),
            self.scaling.iter().any(overlaps),
            f.redispatches > 0,
            matches!((f.first_token_us, f.deadline_us), (Some(ft), Some(d)) if ft <= d),
        ))
    }

    /// Violation counts per cause label, in label order.
    pub fn cause_summary(&self) -> BTreeMap<&'static str, usize> {
        let mut counts: BTreeMap<&'static str, usize> = BTreeMap::new();
        for f in self.violations() {
            if let Some(cause) = self.cause_of(f) {
                *counts.entry(cause.label()).or_insert(0) += 1;
            }
        }
        counts
    }

    /// The per-request forensic timeline as display text.
    pub fn timeline(&self, f: &RequestForensics) -> String {
        let mut out = String::new();
        let verdict = match self.cause_of(f) {
            Some(cause) => format!("VIOLATED ({})", cause.label()),
            None if f.rejected => "REJECTED at admission".to_owned(),
            None => "met SLO".to_owned(),
        };
        out.push_str(&format!(
            "request {} [replica{} {}] — {}\n",
            f.request,
            if f.replicas.len() > 1 { "s" } else { "" },
            f.replicas
                .iter()
                .map(|r| r.to_string())
                .collect::<Vec<_>>()
                .join(","),
            verdict
        ));
        for ev in &f.events {
            out.push_str(&format!(
                "  {:>10.3}s  {}\n",
                ev.time_us as f64 / 1e6,
                describe(ev, f)
            ));
        }
        if f.unfinished() {
            out.push_str("      (no completion event: stranded, shed, or retry-exhausted)\n");
        }
        out
    }
}

/// One human line per event, with the derived quantities an operator
/// wants next to it (TTFT vs deadline, lateness, TBT).
fn describe(r: &TraceRecord, f: &RequestForensics) -> String {
    match r.event {
        TraceEvent::RequestArrived {
            prompt_tokens,
            decode_tokens,
            tier,
            deadline_us,
        } => format!(
            "arrived (tier Q{tier}, {prompt_tokens} prompt + {decode_tokens} decode tokens, \
             deadline {:.3}s)",
            deadline_us as f64 / 1e6
        ),
        TraceEvent::PriorityScored {
            edf_term,
            srpf_term,
            alpha,
        } => format!(
            "priority scored (edf {:.3}s + srpf {:.3}s, alpha {alpha:.1} us/token)",
            edf_term / 1e6,
            srpf_term / 1e6
        ),
        TraceEvent::AdmissionRejected {
            estimated_service_us,
            deadline_us,
        } => format!(
            "rejected at admission (estimated service {:.3}s provably misses deadline {:.3}s)",
            estimated_service_us as f64 / 1e6,
            deadline_us as f64 / 1e6
        ),
        TraceEvent::Relegated {
            from_tier, reason, ..
        } => format!("relegated from tier Q{from_tier} ({reason:?})"),
        TraceEvent::FirstToken => {
            let ttft = match f.arrived_us {
                Some(a) => format!("TTFT {:.3}s", r.time_us.saturating_sub(a) as f64 / 1e6),
                None => "TTFT unknown".to_owned(),
            };
            let met = match f.deadline_us {
                Some(d) if r.time_us <= d => ", met deadline",
                Some(_) => ", MISSED deadline",
                None => "",
            };
            format!("first token ({ttft}{met})")
        }
        TraceEvent::OrphanRedispatched {
            from_replica,
            to_replica,
            attempt,
        } => format!(
            "re-dispatched after crash (replica {from_replica} -> {to_replica}, attempt {attempt})"
        ),
        TraceEvent::RequestCompleted {
            violated,
            worst_lateness_us,
            max_tbt_us,
            relegated,
        } => format!(
            "completed ({}, worst lateness {:+.3}s, max TBT {:.3}s{})",
            if violated { "violated" } else { "in SLO" },
            worst_lateness_us as f64 / 1e6,
            max_tbt_us as f64 / 1e6,
            if relegated { ", relegated" } else { "" }
        ),
        other @ (TraceEvent::ChunkBudgetChosen { .. }
        | TraceEvent::BreakerTransition { .. }
        | TraceEvent::MarginAdjusted { .. }
        | TraceEvent::FaultInjected { .. }
        | TraceEvent::ScaleDecision { .. }
        | TraceEvent::DrainStarted { .. }
        | TraceEvent::DrainFinished { .. }
        | TraceEvent::WarmupComplete { .. }
        | TraceEvent::IterationExecuted { .. }) => other.name().to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_trace::{FaultKind, RelegationReason, RELEGATED_TIER};

    fn rec(
        time_us: u64,
        replica: u32,
        seq: u64,
        request: Option<u64>,
        event: TraceEvent,
    ) -> TraceRecord {
        TraceRecord {
            time_us,
            replica,
            seq,
            request,
            event,
        }
    }

    fn arrived(time_us: u64, replica: u32, seq: u64, id: u64, deadline_us: u64) -> TraceRecord {
        rec(
            time_us,
            replica,
            seq,
            Some(id),
            TraceEvent::RequestArrived {
                prompt_tokens: 800,
                decode_tokens: 40,
                tier: 1,
                deadline_us,
            },
        )
    }

    fn completed(time_us: u64, replica: u32, seq: u64, id: u64, violated: bool) -> TraceRecord {
        rec(
            time_us,
            replica,
            seq,
            Some(id),
            TraceEvent::RequestCompleted {
                violated,
                worst_lateness_us: if violated { 2_000 } else { -5_000 },
                max_tbt_us: 90_000,
                relegated: false,
            },
        )
    }

    #[test]
    fn queueing_delay_when_first_token_is_late() {
        // Deadline 1s, first token at 2s: the lateness predates decode.
        let records = vec![
            arrived(0, 0, 0, 7, 1_000_000),
            rec(2_000_000, 0, 1, Some(7), TraceEvent::FirstToken),
            completed(3_000_000, 0, 2, 7, true),
        ];
        let fx = TraceForensics::build(&records);
        let f = fx.get(7).expect("request folded");
        assert_eq!(fx.cause_of(f), Some(LatenessCause::QueueingDelay));
        assert_eq!(fx.cause_summary().get("queueing-delay"), Some(&1));
    }

    #[test]
    fn chunk_induced_when_ttft_met_but_still_violated() {
        // First token inside the deadline; the violation came later.
        let records = vec![
            arrived(0, 0, 0, 8, 1_000_000),
            rec(500_000, 0, 1, Some(8), TraceEvent::FirstToken),
            completed(4_000_000, 0, 2, 8, true),
        ];
        let fx = TraceForensics::build(&records);
        let f = fx.get(8).expect("request folded");
        assert_eq!(fx.cause_of(f), Some(LatenessCause::ChunkInduced));
    }

    #[test]
    fn fault_induced_beats_other_causes() {
        // Same shape as the chunk-induced case, but a slowdown window hit
        // the request's replica mid-flight — the fault wins attribution.
        let records = vec![
            arrived(0, 0, 0, 9, 1_000_000),
            rec(
                400_000,
                0,
                1,
                None,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Slowdown,
                    slowdown: 2.5,
                },
            ),
            rec(500_000, 0, 2, Some(9), TraceEvent::FirstToken),
            completed(4_000_000, 0, 3, 9, true),
        ];
        let fx = TraceForensics::build(&records);
        let f = fx.get(9).expect("request folded");
        assert_eq!(fx.cause_of(f), Some(LatenessCause::FaultInduced));
    }

    #[test]
    fn redispatch_marks_fault_induced_across_replicas() {
        let records = vec![
            arrived(0, 0, 0, 4, 1_000_000),
            rec(
                900_000,
                1,
                0,
                Some(4),
                TraceEvent::OrphanRedispatched {
                    from_replica: 0,
                    to_replica: 1,
                    attempt: 1,
                },
            ),
            arrived(1_000_000, 1, 1, 4, 1_000_000),
            rec(1_500_000, 1, 2, Some(4), TraceEvent::FirstToken),
            completed(2_000_000, 1, 3, 4, true),
        ];
        let fx = TraceForensics::build(&records);
        let f = fx.get(4).expect("request folded");
        assert_eq!(f.redispatches, 1);
        assert_eq!(f.replicas, vec![0, 1]);
        // First arrival wins: the SLO clock starts at the original stamp.
        assert_eq!(f.arrived_us, Some(0));
        assert_eq!(fx.cause_of(f), Some(LatenessCause::FaultInduced));
    }

    #[test]
    fn fault_on_another_replica_does_not_contaminate() {
        let records = vec![
            arrived(0, 0, 0, 5, 1_000_000),
            rec(
                400_000,
                3,
                0,
                None,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Crash,
                    slowdown: 1.0,
                },
            ),
            rec(500_000, 0, 1, Some(5), TraceEvent::FirstToken),
            completed(4_000_000, 0, 2, 5, true),
        ];
        let fx = TraceForensics::build(&records);
        let f = fx.get(5).expect("request folded");
        assert_eq!(fx.cause_of(f), Some(LatenessCause::ChunkInduced));
    }

    #[test]
    fn non_violating_and_rejected_requests_get_no_cause() {
        let records = vec![
            arrived(0, 0, 0, 1, 9_000_000),
            rec(100_000, 0, 1, Some(1), TraceEvent::FirstToken),
            completed(200_000, 0, 2, 1, false),
            arrived(0, 1, 0, 2, 1_000),
            rec(
                0,
                1,
                1,
                Some(2),
                TraceEvent::AdmissionRejected {
                    estimated_service_us: 5_000_000,
                    deadline_us: 1_000,
                },
            ),
        ];
        let fx = TraceForensics::build(&records);
        let ok = fx.get(1).expect("request folded");
        assert_eq!(fx.cause_of(ok), None);
        let rejected = fx.get(2).expect("request folded");
        assert!(rejected.rejected);
        assert!(!rejected.needs_explanation(), "a 429 is not a late answer");
        assert_eq!(fx.cause_of(rejected), None);
        assert_eq!(fx.violations().count(), 0);
    }

    #[test]
    fn unfinished_requests_are_explained() {
        // Arrived, never completed (stranded at horizon / shed).
        let records = vec![arrived(0, 0, 0, 3, 1_000_000)];
        let fx = TraceForensics::build(&records);
        let f = fx.get(3).expect("request folded");
        assert!(f.unfinished());
        assert_eq!(fx.cause_of(f), Some(LatenessCause::QueueingDelay));
        assert_eq!(fx.violations().count(), 1);
    }

    #[test]
    fn drain_overlap_marks_scale_induced() {
        // TTFT met, but the request's replica started draining mid-flight
        // and the request was migrated — scaling owns the violation.
        let records = vec![
            arrived(0, 0, 0, 11, 1_000_000),
            rec(
                400_000,
                0,
                1,
                None,
                TraceEvent::DrainStarted {
                    deadline_us: 900_000,
                },
            ),
            rec(
                900_000,
                1,
                0,
                Some(11),
                TraceEvent::OrphanRedispatched {
                    from_replica: 0,
                    to_replica: 1,
                    attempt: 1,
                },
            ),
            rec(1_500_000, 1, 1, Some(11), TraceEvent::FirstToken),
            completed(2_000_000, 1, 2, 11, true),
        ];
        let fx = TraceForensics::build(&records);
        let f = fx.get(11).expect("request folded");
        assert_eq!(fx.cause_of(f), Some(LatenessCause::ScaleInduced));
        assert_eq!(fx.cause_summary().get("scale-induced"), Some(&1));
    }

    #[test]
    fn fault_overlap_beats_scale_overlap() {
        // Both a crash and a drain touched the replica mid-flight: the
        // fault wins attribution (it precedes scaling in precedence).
        let records = vec![
            arrived(0, 0, 0, 12, 1_000_000),
            rec(
                300_000,
                0,
                1,
                None,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Slowdown,
                    slowdown: 2.0,
                },
            ),
            rec(
                400_000,
                0,
                2,
                None,
                TraceEvent::DrainStarted {
                    deadline_us: 900_000,
                },
            ),
            rec(500_000, 0, 3, Some(12), TraceEvent::FirstToken),
            completed(4_000_000, 0, 4, 12, true),
        ];
        let fx = TraceForensics::build(&records);
        let f = fx.get(12).expect("request folded");
        assert_eq!(fx.cause_of(f), Some(LatenessCause::FaultInduced));
    }

    #[test]
    fn scale_event_on_another_replica_does_not_contaminate() {
        let records = vec![
            arrived(0, 0, 0, 13, 1_000_000),
            rec(
                400_000,
                2,
                0,
                None,
                TraceEvent::ScaleDecision {
                    direction: qoserve_trace::ScaleDirection::Down,
                    fleet_before: 3,
                    fleet_after: 2,
                },
            ),
            rec(500_000, 0, 1, Some(13), TraceEvent::FirstToken),
            completed(4_000_000, 0, 2, 13, true),
        ];
        let fx = TraceForensics::build(&records);
        let f = fx.get(13).expect("request folded");
        assert_eq!(fx.cause_of(f), Some(LatenessCause::ChunkInduced));
    }

    #[test]
    fn timeline_renders_every_event_with_a_verdict() {
        let records = vec![
            arrived(0, 0, 0, 6, 1_000_000),
            rec(
                100,
                0,
                1,
                Some(6),
                TraceEvent::Relegated {
                    from_tier: 1,
                    to_tier: RELEGATED_TIER,
                    reason: RelegationReason::Hopeless,
                },
            ),
            rec(2_000_000, 0, 2, Some(6), TraceEvent::FirstToken),
            completed(3_000_000, 0, 3, 6, true),
        ];
        let fx = TraceForensics::build(&records);
        let f = fx.get(6).expect("request folded");
        let text = fx.timeline(f);
        assert!(text.contains("request 6"), "{text}");
        assert!(text.contains("VIOLATED (queueing-delay)"), "{text}");
        assert!(text.contains("relegated from tier Q1"), "{text}");
        assert!(text.contains("MISSED deadline"), "{text}");
        assert!(text.contains("worst lateness +0.002s"), "{text}");
        assert_eq!(text.lines().count(), 1 + f.events.len());
    }
}
