//! The streaming aggregator: trace records in, delta snapshots out.
//!
//! # Determinism model
//!
//! [`StatsAggregator::push`] only *buffers* records — replica threads may
//! deliver them in any interleaving. All folding happens at cadence
//! boundaries driven through the
//! [`ControlObserver`](qoserve_trace::ControlObserver) contract: when the
//! kernel reports boundary `t`, every runnable replica clock has reached
//! `t`, so the buffered records with `time_us < t` are a pure function of
//! the simulation. [`fold_boundary`](StatsAggregator::fold_boundary)
//! drains exactly those, sorts them into the canonical
//! `(time_us, replica, seq)` order, and folds them left-to-right — the
//! result cannot depend on thread count or interleaving. Records the
//! orchestrator stamped *ahead* of the current boundary (a scheduled
//! re-dispatch) stay buffered and fold in a later window, which is
//! equally deterministic.
//!
//! The cumulative snapshot is maintained as the left-fold merge of the
//! published deltas (see [`crate::snapshot`]), which is what makes
//! `compose(deltas) == full` bit-exact.
//!
//! # Violation-cause attribution
//!
//! Completions that violated their SLO are attributed to a
//! [`LatenessCause`] by [`LatenessCause::attribute`], the precedence
//! `qoserve-bench`'s post-hoc forensics uses too, with the overlaps
//! computed online from fold state. The one divergence from post-hoc
//! forensics: only events folded *before* the completion can be
//! consulted (same-stamp events sorting after it cannot), which is
//! deterministic by the canonical fold order.

// A new `TraceEvent` variant must get an explicit arm here, not fall into `_`.
#![deny(clippy::wildcard_enum_match_arm)]

use std::collections::BTreeMap;

use qoserve_metrics::{WindowedCounts, WindowedSamples};
use qoserve_sim::{SimDuration, SimTime};
use qoserve_trace::{
    canonical_sort, BreakerPhase, FaultKind, ScaleDirection, TraceEvent, TraceRecord,
};

use crate::snapshot::{StatsDelta, StatsFrame, StatsSnapshot, TierStats, SNAPSHOT_SCHEMA_VERSION};

/// Primary attribution for one violated request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LatenessCause {
    /// Lateness was already locked in before the first token: queueing.
    QueueingDelay,
    /// TTFT met, later tokens violated: chunking stretched the decode.
    ChunkInduced,
    /// The request overlapped a crash or slowdown window.
    FaultInduced,
    /// The request overlapped an elastic scale event (drain/retire) on
    /// its replica.
    ScaleInduced,
}

impl LatenessCause {
    /// The attribution precedence. A fault on a replica the request
    /// visited during its span wins; an elastic scale event (drain or
    /// scale decision) there comes next; a re-dispatched request with
    /// neither is still fault-induced (it was orphaned before it reached
    /// the crashed replica's span); otherwise a met TTFT means chunking
    /// stretched the decode and a late one means queueing.
    pub fn attribute(
        fault_overlap: bool,
        scale_overlap: bool,
        redispatched: bool,
        ttft_met: bool,
    ) -> Self {
        if fault_overlap {
            LatenessCause::FaultInduced
        } else if scale_overlap {
            LatenessCause::ScaleInduced
        } else if redispatched {
            LatenessCause::FaultInduced
        } else if ttft_met {
            LatenessCause::ChunkInduced
        } else {
            LatenessCause::QueueingDelay
        }
    }

    /// Stable report label.
    pub fn label(&self) -> &'static str {
        match self {
            LatenessCause::QueueingDelay => "queueing-delay",
            LatenessCause::ChunkInduced => "chunk-induced",
            LatenessCause::FaultInduced => "fault-induced",
            LatenessCause::ScaleInduced => "scale-induced",
        }
    }
}

/// Aggregation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsConfig {
    /// Sim-time between snapshot boundaries (clamped to ≥ 1 µs).
    pub cadence: SimDuration,
    /// Width of the rolling windows inside each frame (attainment,
    /// queue depth, chunk budget; clamped to ≥ 1 µs).
    pub window: SimDuration,
}

impl Default for StatsConfig {
    /// The paper's reporting scale: 60 s windows, one snapshot per
    /// window.
    fn default() -> Self {
        StatsConfig {
            cadence: SimDuration::from_secs(60),
            window: SimDuration::from_secs(60),
        }
    }
}

impl StatsConfig {
    /// A config with the same cadence and window length.
    pub fn every(cadence: SimDuration) -> StatsConfig {
        StatsConfig {
            cadence,
            window: cadence,
        }
    }
}

/// Per-request fold state (kept until completion or the final fold).
#[derive(Debug, Clone)]
struct InFlight {
    arrived_us: u64,
    deadline_us: u64,
    tier: u8,
    first_token_us: Option<u64>,
    redispatches: u32,
    rejected: bool,
    /// Replicas that emitted events for this request, in visit order.
    replicas: Vec<u32>,
}

/// The streaming aggregator. Feed it records (any order within a
/// boundary window) via [`push`](StatsAggregator::push); drive boundaries
/// via [`fold_boundary`](StatsAggregator::fold_boundary) /
/// [`fold_final`](StatsAggregator::fold_final); read snapshots back via
/// [`full`](StatsAggregator::full) / [`deltas`](StatsAggregator::deltas).
///
/// The live wrapper ([`StatsHandle`](crate::StatsHandle)) drives this
/// from the kernel's control instants; replay tooling can drive it
/// directly from a captured trace.
#[derive(Debug)]
pub struct StatsAggregator {
    cadence_us: u64,
    window_us: u64,
    /// Buffered `(record, drops_attributed)` pairs awaiting a boundary.
    pending: Vec<(TraceRecord, u64)>,
    inflight: BTreeMap<u64, InFlight>,
    /// Requests outstanding per replica (arrivals minus completions and
    /// rejections), sampled into `queue_depth`.
    outstanding: BTreeMap<u32, u64>,
    /// `FaultInjected` stamps per replica, ascending (fold order).
    fault_marks: BTreeMap<u32, Vec<u64>>,
    /// Elastic control-plane stamps (scale / drain) per replica.
    scale_marks: BTreeMap<u32, Vec<u64>>,
    /// Current lifecycle label per replica (changes are published).
    lifecycle: BTreeMap<u32, &'static str>,
    /// The cumulative frame: the left-fold merge of `deltas`.
    cumulative: StatsFrame,
    deltas: Vec<StatsDelta>,
    last_boundary_us: u64,
    finished: bool,
    end_us: u64,
}

impl StatsAggregator {
    /// An empty aggregator.
    pub fn new(config: StatsConfig) -> StatsAggregator {
        StatsAggregator {
            cadence_us: config.cadence.as_micros().max(1),
            window_us: config.window.as_micros().max(1),
            pending: Vec::new(),
            inflight: BTreeMap::new(),
            outstanding: BTreeMap::new(),
            fault_marks: BTreeMap::new(),
            scale_marks: BTreeMap::new(),
            lifecycle: BTreeMap::new(),
            cumulative: StatsFrame::default(),
            deltas: Vec::new(),
            last_boundary_us: 0,
            finished: false,
            end_us: 0,
        }
    }

    /// The cadence between boundaries, microseconds.
    pub fn cadence_us(&self) -> u64 {
        self.cadence_us
    }

    /// The first cadence boundary strictly after `after`.
    pub fn next_boundary_after(&self, after: SimTime) -> SimTime {
        let n = (after.as_micros() / self.cadence_us + 1).saturating_mul(self.cadence_us);
        SimTime::from_micros(n)
    }

    /// Buffers one record, with the number of capture-sink evictions
    /// attributed to it (the tee reports eviction deltas per record; an
    /// unbounded sink always passes 0).
    pub fn push(&mut self, record: TraceRecord, drops_attributed: u64) {
        self.pending.push((record, drops_attributed));
    }

    /// Folds everything stamped strictly before `at` into one new delta
    /// and merges it into the cumulative frame. Call only when every
    /// runnable replica clock has reached `at` (the kernel's control
    /// instants guarantee this).
    pub fn fold_boundary(&mut self, at: SimTime) {
        self.fold(at.as_micros(), false);
    }

    /// Folds all remaining records (including orchestrator records
    /// stamped ahead of the last boundary), accounts still-unfinished
    /// requests, and seals the aggregator. `end` is the run's end time.
    pub fn fold_final(&mut self, end: SimTime) {
        if self.finished {
            return;
        }
        self.end_us = end.as_micros();
        self.fold(u64::MAX, true);
        self.finished = true;
    }

    /// Whether [`fold_final`](StatsAggregator::fold_final) has run.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// The run's end time (0 until finished), microseconds.
    pub fn end_us(&self) -> u64 {
        self.end_us
    }

    /// The cumulative full snapshot.
    pub fn full(&self) -> StatsSnapshot {
        StatsSnapshot {
            version: SNAPSHOT_SCHEMA_VERSION,
            seq: self.deltas.len() as u64,
            upto_us: self.last_boundary_us,
            frame: self.cumulative.clone(),
        }
    }

    /// All published deltas, in `seq` order.
    pub fn deltas(&self) -> &[StatsDelta] {
        &self.deltas
    }

    fn fold(&mut self, upto_us: u64, is_final: bool) {
        let pending = std::mem::take(&mut self.pending);
        let (batch, rest): (Vec<_>, Vec<_>) =
            pending.into_iter().partition(|(r, _)| r.time_us < upto_us);
        self.pending = rest;
        let mut records: Vec<TraceRecord> = batch.iter().map(|(r, _)| *r).collect();
        canonical_sort(&mut records);
        let mut frame = StatsFrame::default();
        for r in &records {
            self.fold_record(r, &mut frame);
        }
        // Eviction notes attach to their causing record's stamp; summing
        // them per fold is deterministic because the batch content is.
        for (r, drops) in &batch {
            if *drops > 0 {
                frame.dropped += drops;
                *frame.dropped_by_replica.entry(r.replica).or_insert(0) += drops;
            }
        }
        if is_final {
            self.account_unfinished(&mut frame);
        }
        let upto = if is_final {
            self.end_us.max(self.last_boundary_us)
        } else {
            upto_us
        };
        let delta = StatsDelta {
            version: SNAPSHOT_SCHEMA_VERSION,
            seq: self.deltas.len() as u64,
            from_us: self.last_boundary_us,
            upto_us: upto,
            frame,
        };
        self.cumulative.merge(&delta.frame);
        self.last_boundary_us = upto;
        self.deltas.push(delta);
    }

    /// Requests never completed (and never rejected) when the run ended:
    /// counted per tier and attributed like forensics' unfinished
    /// violations, stamped into the window containing the run's end.
    fn account_unfinished(&mut self, frame: &mut StatsFrame) {
        let at_us = self.end_us;
        let unfinished: Vec<InFlight> = self
            .inflight
            .values()
            .filter(|f| !f.rejected)
            .cloned()
            .collect();
        for f in unfinished {
            frame
                .tiers
                .entry(f.tier)
                .or_insert_with(|| self.new_tier())
                .unfinished += 1;
            let label = self.cause_label(&f, u64::MAX);
            self.record_cause(frame, label, at_us);
        }
        self.inflight.clear();
    }

    fn new_tier(&self) -> TierStats {
        TierStats {
            attainment: WindowedCounts::new(self.window_us),
            ..TierStats::default()
        }
    }

    fn sample_queue(&mut self, frame: &mut StatsFrame, replica: u32, time_us: u64) {
        let depth = self.outstanding.get(&replica).copied().unwrap_or(0);
        self.replica_entry(frame, replica)
            .queue_depth
            .record(time_us, depth);
    }

    fn replica_entry<'a>(
        &self,
        frame: &'a mut StatsFrame,
        replica: u32,
    ) -> &'a mut crate::snapshot::ReplicaStats {
        let window_us = self.window_us;
        frame
            .replicas
            .entry(replica)
            .or_insert_with(|| crate::snapshot::ReplicaStats {
                batch_tokens: WindowedSamples::new(window_us),
                chunk_budget: WindowedSamples::new(window_us),
                queue_depth: WindowedSamples::new(window_us),
                ..crate::snapshot::ReplicaStats::default()
            })
    }

    fn set_lifecycle(&mut self, frame: &mut StatsFrame, replica: u32, state: &'static str) {
        if self.lifecycle.get(&replica).copied() != Some(state) {
            self.lifecycle.insert(replica, state);
            self.replica_entry(frame, replica).lifecycle = Some(state.to_owned());
        }
    }

    /// [`LatenessCause::attribute`] over fold state.
    fn cause_label(&self, f: &InFlight, span_end_us: u64) -> &'static str {
        let overlaps = |marks: &BTreeMap<u32, Vec<u64>>| {
            f.replicas.iter().any(|r| {
                marks.get(r).is_some_and(|times| {
                    times.iter().any(|&t| t >= f.arrived_us && t <= span_end_us)
                })
            })
        };
        LatenessCause::attribute(
            overlaps(&self.fault_marks),
            overlaps(&self.scale_marks),
            f.redispatches > 0,
            f.first_token_us.is_some_and(|ft| ft <= f.deadline_us),
        )
        .label()
    }

    fn record_cause(&self, frame: &mut StatsFrame, label: &'static str, time_us: u64) {
        *frame.causes.entry(label.to_owned()).or_insert(0) += 1;
        frame
            .cause_windows
            .entry(label.to_owned())
            .or_insert_with(|| WindowedCounts::new(self.window_us))
            .record(time_us, false);
    }

    fn visit(&mut self, id: u64, replica: u32) {
        if let Some(f) = self.inflight.get_mut(&id) {
            if !f.replicas.contains(&replica) {
                f.replicas.push(replica);
            }
        }
    }

    /// Folds one record. The match is exhaustive by variant — no `_`
    /// arm — so a new `TraceEvent` fails compilation here, and the
    /// `trace-coverage` lint pins this file as a coverage surface.
    fn fold_record(&mut self, r: &TraceRecord, frame: &mut StatsFrame) {
        frame.events += 1;
        *frame.by_event.entry(r.event.name().to_owned()).or_insert(0) += 1;
        if let Some(id) = r.request {
            self.visit(id, r.replica);
        }
        match r.event {
            TraceEvent::RequestArrived {
                prompt_tokens: _,
                decode_tokens: _,
                tier,
                deadline_us,
            } => {
                if let Some(id) = r.request {
                    // Re-deliveries (orphan re-dispatch) keep the original
                    // arrival stamp: the SLO clock never resets.
                    self.inflight.entry(id).or_insert(InFlight {
                        arrived_us: r.time_us,
                        deadline_us,
                        tier,
                        first_token_us: None,
                        redispatches: 0,
                        rejected: false,
                        replicas: vec![r.replica],
                    });
                }
                frame
                    .tiers
                    .entry(tier)
                    .or_insert_with(|| self.new_tier())
                    .arrived += 1;
                self.replica_entry(frame, r.replica).arrived += 1;
                *self.outstanding.entry(r.replica).or_insert(0) += 1;
                self.sample_queue(frame, r.replica, r.time_us);
            }
            TraceEvent::FirstToken => {
                if let Some(id) = r.request {
                    if let Some(f) = self.inflight.get_mut(&id) {
                        if f.first_token_us.is_none() {
                            f.first_token_us = Some(r.time_us);
                            let ttft = r.time_us.saturating_sub(f.arrived_us);
                            frame
                                .tiers
                                .entry(f.tier)
                                .or_insert_with(|| TierStats {
                                    attainment: WindowedCounts::new(self.window_us),
                                    ..TierStats::default()
                                })
                                .ttft_us
                                .push(ttft as f64);
                        }
                    }
                }
            }
            TraceEvent::RequestCompleted {
                violated,
                worst_lateness_us,
                max_tbt_us,
                relegated: _,
            } => {
                let f = r.request.and_then(|id| self.inflight.remove(&id));
                let tier = f.as_ref().map(|f| f.tier).unwrap_or(0);
                let t = frame.tiers.entry(tier).or_insert_with(|| self.new_tier());
                t.completed += 1;
                t.violated += u64::from(violated);
                t.attainment.record(r.time_us, violated);
                t.lateness_us.push(worst_lateness_us as f64);
                t.tbt_us.record(max_tbt_us as f64);
                let rep = self.replica_entry(frame, r.replica);
                rep.completed += 1;
                rep.violated += u64::from(violated);
                if let Some(n) = self.outstanding.get_mut(&r.replica) {
                    *n = n.saturating_sub(1);
                }
                self.sample_queue(frame, r.replica, r.time_us);
                if violated {
                    if let Some(f) = &f {
                        let label = self.cause_label(f, r.time_us);
                        self.record_cause(frame, label, r.time_us);
                    }
                }
            }
            TraceEvent::ChunkBudgetChosen {
                budget,
                predicted_us: _,
                margin: _,
                cache_hit,
            } => {
                let rep = self.replica_entry(frame, r.replica);
                rep.chunk_budget.record(r.time_us, u64::from(budget));
                rep.chunk_cache_hits += u64::from(cache_hit);
            }
            TraceEvent::PriorityScored {
                edf_term: _,
                srpf_term: _,
                alpha: _,
            } => {
                self.replica_entry(frame, r.replica).priority_scored += 1;
            }
            TraceEvent::Relegated {
                from_tier,
                to_tier: _,
                reason: _,
            } => {
                frame
                    .tiers
                    .entry(from_tier)
                    .or_insert_with(|| self.new_tier())
                    .relegated += 1;
            }
            TraceEvent::AdmissionRejected {
                estimated_service_us: _,
                deadline_us: _,
            } => {
                let tier = if let Some(id) = r.request {
                    if let Some(f) = self.inflight.get_mut(&id) {
                        f.rejected = true;
                        f.tier
                    } else {
                        0
                    }
                } else {
                    0
                };
                frame
                    .tiers
                    .entry(tier)
                    .or_insert_with(|| self.new_tier())
                    .admission_rejected += 1;
                if let Some(n) = self.outstanding.get_mut(&r.replica) {
                    *n = n.saturating_sub(1);
                }
                self.sample_queue(frame, r.replica, r.time_us);
            }
            TraceEvent::BreakerTransition { from: _, to } => {
                let rep = self.replica_entry(frame, r.replica);
                rep.breaker_opens += u64::from(to == BreakerPhase::Open);
                rep.breaker = Some(
                    match to {
                        BreakerPhase::Closed => "closed",
                        BreakerPhase::Open => "open",
                        BreakerPhase::HalfProbe => "half_probe",
                    }
                    .to_owned(),
                );
            }
            TraceEvent::MarginAdjusted { margin, fallback } => {
                let rep = self.replica_entry(frame, r.replica);
                rep.margin_moves += 1;
                rep.last_margin = Some(margin);
                rep.fallback = Some(fallback);
            }
            TraceEvent::FaultInjected { kind, slowdown: _ } => {
                self.fault_marks
                    .entry(r.replica)
                    .or_default()
                    .push(r.time_us);
                frame.fleet.faults += 1;
                let rep = self.replica_entry(frame, r.replica);
                match kind {
                    FaultKind::Crash => {
                        rep.crashes += 1;
                        self.set_lifecycle(frame, r.replica, "crashed");
                    }
                    FaultKind::Slowdown => {
                        rep.slowdowns += 1;
                        self.set_lifecycle(frame, r.replica, "degraded");
                    }
                }
            }
            TraceEvent::OrphanRedispatched {
                from_replica,
                to_replica,
                attempt: _,
            } => {
                if let Some(f) = r.request.and_then(|id| self.inflight.get_mut(&id)) {
                    f.redispatches += 1;
                    for rep in [from_replica, to_replica] {
                        if !f.replicas.contains(&rep) {
                            f.replicas.push(rep);
                        }
                    }
                }
                frame.fleet.redispatches += 1;
                self.replica_entry(frame, from_replica).redispatched_away += 1;
                self.replica_entry(frame, to_replica).redispatched_onto += 1;
            }
            TraceEvent::ScaleDecision {
                direction,
                fleet_before: _,
                fleet_after,
            } => {
                self.scale_marks
                    .entry(r.replica)
                    .or_default()
                    .push(r.time_us);
                frame.fleet.size_points.push((r.time_us, fleet_after));
                frame.fleet.last_size = Some(fleet_after);
                match direction {
                    ScaleDirection::Up => {
                        frame.fleet.scale_ups += 1;
                        self.set_lifecycle(frame, r.replica, "provisioning");
                    }
                    ScaleDirection::Down => {
                        frame.fleet.scale_downs += 1;
                    }
                }
            }
            TraceEvent::DrainStarted { deadline_us: _ } => {
                self.scale_marks
                    .entry(r.replica)
                    .or_default()
                    .push(r.time_us);
                self.replica_entry(frame, r.replica).drains_started += 1;
                self.set_lifecycle(frame, r.replica, "draining");
            }
            TraceEvent::DrainFinished {
                migrated,
                deadline_hit,
            } => {
                self.scale_marks
                    .entry(r.replica)
                    .or_default()
                    .push(r.time_us);
                let rep = self.replica_entry(frame, r.replica);
                rep.drains_finished += 1;
                rep.drain_migrated += u64::from(migrated);
                rep.drain_deadline_hits += u64::from(deadline_hit);
                self.set_lifecycle(frame, r.replica, "retired");
            }
            TraceEvent::WarmupComplete { warmup_us } => {
                frame.fleet.warmups += 1;
                frame.fleet.warmup_us += warmup_us;
                self.replica_entry(frame, r.replica).warmup_us += warmup_us;
                self.set_lifecycle(frame, r.replica, "serving");
            }
            TraceEvent::IterationExecuted {
                batch_tokens,
                prefill_tokens: _,
                num_decodes: _,
                observed_us,
            } => {
                let rep = self.replica_entry(frame, r.replica);
                rep.iterations += 1;
                rep.busy_us += observed_us;
                rep.batch_tokens.record(r.time_us, u64::from(batch_tokens));
                frame.fleet.busy_us += observed_us;
                // A crashed/degraded replica executing again is serving;
                // draining replicas keep their label while they flush.
                match self.lifecycle.get(&r.replica).copied() {
                    None | Some("crashed") | Some("degraded") | Some("provisioning") => {
                        self.set_lifecycle(frame, r.replica, "serving");
                    }
                    Some(_) => {}
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn arrival(
        time_us: u64,
        replica: u32,
        seq: u64,
        id: u64,
        tier: u8,
        deadline_us: u64,
    ) -> TraceRecord {
        rec(
            time_us,
            replica,
            seq,
            Some(id),
            TraceEvent::RequestArrived {
                prompt_tokens: 100,
                decode_tokens: 10,
                tier,
                deadline_us,
            },
        )
    }

    fn completion(time_us: u64, replica: u32, seq: u64, id: u64, violated: bool) -> TraceRecord {
        rec(
            time_us,
            replica,
            seq,
            Some(id),
            TraceEvent::RequestCompleted {
                violated,
                worst_lateness_us: if violated { 1_000 } else { -500 },
                max_tbt_us: 200_000,
                relegated: false,
            },
        )
    }

    fn agg() -> StatsAggregator {
        StatsAggregator::new(StatsConfig::every(SimDuration::from_secs(1)))
    }

    #[test]
    fn boundary_folds_only_records_before_it() {
        let mut a = agg();
        a.push(arrival(100, 0, 0, 1, 1, 5_000_000), 0);
        a.push(completion(1_500_000, 0, 1, 1, false), 0);
        a.fold_boundary(SimTime::from_secs(1));
        assert_eq!(a.deltas().len(), 1);
        let d0 = &a.deltas()[0];
        assert_eq!(d0.frame.events, 1); // only the arrival
        assert_eq!(d0.frame.tiers[&1].arrived, 1);
        a.fold_boundary(SimTime::from_secs(2));
        let d1 = &a.deltas()[1];
        assert_eq!(d1.frame.tiers[&1].completed, 1);
        assert_eq!(a.full().frame.tiers[&1].arrived, 1);
        assert_eq!(a.full().frame.tiers[&1].completed, 1);
    }

    #[test]
    fn fold_is_interleaving_invariant() {
        let records = vec![
            arrival(10, 0, 0, 1, 0, 1_000),
            arrival(20, 1, 0, 2, 1, 2_000),
            rec(30, 0, 1, Some(1), TraceEvent::FirstToken),
            completion(40, 0, 2, 1, true),
            completion(50, 1, 1, 2, false),
        ];
        let mut fwd = agg();
        for r in &records {
            fwd.push(*r, 0);
        }
        fwd.fold_boundary(SimTime::from_secs(1));
        let mut rev = agg();
        for r in records.iter().rev() {
            rev.push(*r, 0);
        }
        rev.fold_boundary(SimTime::from_secs(1));
        assert_eq!(fwd.deltas(), rev.deltas());
        assert_eq!(fwd.full(), rev.full());
    }

    #[test]
    fn ttft_is_measured_from_first_arrival() {
        let mut a = agg();
        a.push(arrival(1_000, 0, 0, 7, 2, 500_000), 0);
        a.push(rec(31_000, 0, 1, Some(7), TraceEvent::FirstToken), 0);
        // A duplicate FirstToken (re-dispatch re-prefill) is not
        // double-counted.
        a.push(rec(60_000, 0, 2, Some(7), TraceEvent::FirstToken), 0);
        a.fold_boundary(SimTime::from_secs(1));
        let t = &a.full().frame.tiers[&2];
        assert_eq!(t.ttft_us.count(), 1);
        assert_eq!(t.ttft_us.mean(), 30_000.0);
    }

    #[test]
    fn cause_attribution_mirrors_forensics_precedence() {
        // Queueing delay: first token after the deadline.
        let mut a = agg();
        a.push(arrival(0, 0, 0, 1, 0, 10_000), 0);
        a.push(rec(20_000, 0, 1, Some(1), TraceEvent::FirstToken), 0);
        a.push(completion(30_000, 0, 2, 1, true), 0);
        a.fold_boundary(SimTime::from_secs(1));
        assert_eq!(a.full().frame.causes.get("queueing-delay"), Some(&1));

        // Chunk-induced: TTFT met but still violated.
        let mut a = agg();
        a.push(arrival(0, 0, 0, 1, 0, 10_000), 0);
        a.push(rec(5_000, 0, 1, Some(1), TraceEvent::FirstToken), 0);
        a.push(completion(30_000, 0, 2, 1, true), 0);
        a.fold_boundary(SimTime::from_secs(1));
        assert_eq!(a.full().frame.causes.get("chunk-induced"), Some(&1));

        // Fault overlap on the request's replica wins over both.
        let mut a = agg();
        a.push(arrival(0, 0, 0, 1, 0, 10_000), 0);
        a.push(rec(5_000, 0, 1, Some(1), TraceEvent::FirstToken), 0);
        a.push(
            rec(
                8_000,
                0,
                2,
                None,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Slowdown,
                    slowdown: 3.0,
                },
            ),
            0,
        );
        a.push(completion(30_000, 0, 3, 1, true), 0);
        a.fold_boundary(SimTime::from_secs(1));
        assert_eq!(a.full().frame.causes.get("fault-induced"), Some(&1));
        // A fault on an unrelated replica does not contaminate.
        let mut a = agg();
        a.push(arrival(0, 0, 0, 1, 0, 10_000), 0);
        a.push(
            rec(
                8_000,
                9,
                0,
                None,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Crash,
                    slowdown: 1.0,
                },
            ),
            0,
        );
        a.push(rec(5_000, 0, 1, Some(1), TraceEvent::FirstToken), 0);
        a.push(completion(30_000, 0, 2, 1, true), 0);
        a.fold_boundary(SimTime::from_secs(1));
        assert_eq!(a.full().frame.causes.get("chunk-induced"), Some(&1));

        // Scale overlap (drain on the replica) beats the TTFT verdict.
        let mut a = agg();
        a.push(arrival(0, 0, 0, 1, 0, 10_000), 0);
        a.push(
            rec(
                6_000,
                0,
                1,
                None,
                TraceEvent::DrainStarted {
                    deadline_us: 1_000_000,
                },
            ),
            0,
        );
        a.push(completion(30_000, 0, 2, 1, true), 0);
        a.fold_boundary(SimTime::from_secs(1));
        assert_eq!(a.full().frame.causes.get("scale-induced"), Some(&1));

        // A re-dispatched request with no overlapping marks is
        // fault-induced (orphaned before reaching the crash site).
        let mut a = agg();
        a.push(arrival(0, 0, 0, 1, 0, 10_000), 0);
        a.push(
            rec(
                7_000,
                1,
                0,
                Some(1),
                TraceEvent::OrphanRedispatched {
                    from_replica: 0,
                    to_replica: 1,
                    attempt: 1,
                },
            ),
            0,
        );
        a.push(completion(30_000, 1, 1, 1, true), 0);
        a.fold_boundary(SimTime::from_secs(1));
        assert_eq!(a.full().frame.causes.get("fault-induced"), Some(&1));
    }

    #[test]
    fn lifecycle_strip_follows_elastic_events() {
        let mut a = agg();
        a.push(
            rec(
                10,
                3,
                0,
                None,
                TraceEvent::ScaleDecision {
                    direction: ScaleDirection::Up,
                    fleet_before: 2,
                    fleet_after: 3,
                },
            ),
            0,
        );
        a.push(
            rec(20, 3, 1, None, TraceEvent::WarmupComplete { warmup_us: 10 }),
            0,
        );
        a.push(
            rec(30, 3, 2, None, TraceEvent::DrainStarted { deadline_us: 90 }),
            0,
        );
        a.push(
            rec(
                40,
                3,
                3,
                None,
                TraceEvent::IterationExecuted {
                    batch_tokens: 64,
                    prefill_tokens: 0,
                    num_decodes: 4,
                    observed_us: 5,
                },
            ),
            0,
        );
        a.push(
            rec(
                90,
                3,
                4,
                None,
                TraceEvent::DrainFinished {
                    migrated: 2,
                    deadline_hit: false,
                },
            ),
            0,
        );
        a.fold_boundary(SimTime::from_secs(1));
        let full = a.full();
        let rep = &full.frame.replicas[&3];
        // Draining survives the iteration at t=40; retirement wins last.
        assert_eq!(rep.lifecycle.as_deref(), Some("retired"));
        assert_eq!(rep.drains_started, 1);
        assert_eq!(rep.drain_migrated, 2);
        assert_eq!(full.frame.fleet.scale_ups, 1);
        assert_eq!(full.frame.fleet.last_size, Some(3));
        assert_eq!(full.frame.fleet.size_points, vec![(10, 3)]);
    }

    #[test]
    fn unfinished_requests_are_accounted_in_the_final_fold() {
        let mut a = agg();
        a.push(arrival(100, 0, 0, 1, 1, 2_000), 0);
        a.push(arrival(200, 0, 1, 2, 1, 3_000), 0);
        // Request 2 is rejected at admission: no unfinished entry.
        a.push(
            rec(
                250,
                0,
                2,
                Some(2),
                TraceEvent::AdmissionRejected {
                    estimated_service_us: 9_000,
                    deadline_us: 3_000,
                },
            ),
            0,
        );
        a.fold_final(SimTime::from_micros(500));
        let full = a.full();
        let t = &full.frame.tiers[&1];
        assert_eq!(t.unfinished, 1);
        assert_eq!(t.admission_rejected, 1);
        assert_eq!(full.frame.causes.get("queueing-delay"), Some(&1));
        assert_eq!(full.upto_us, 500);
        assert!(a.finished());
    }

    #[test]
    fn queue_depth_tracks_outstanding_per_replica() {
        let mut a = agg();
        a.push(arrival(10, 0, 0, 1, 0, 1_000_000), 0);
        a.push(arrival(20, 0, 1, 2, 0, 1_000_000), 0);
        a.push(completion(30, 0, 2, 1, false), 0);
        a.fold_boundary(SimTime::from_secs(1));
        let rep = &a.full().frame.replicas[&0];
        // Samples: 1 (after first arrival), 2 (after second), 1 (after
        // completion).
        assert_eq!(rep.queue_depth.count(), 3);
        assert_eq!(rep.queue_depth.max(), Some(2));
    }

    #[test]
    fn dropped_notes_are_attributed_per_replica() {
        let mut a = agg();
        a.push(arrival(10, 4, 0, 1, 0, 1_000), 2);
        a.push(arrival(20, 5, 0, 2, 0, 1_000), 0);
        a.fold_boundary(SimTime::from_secs(1));
        let full = a.full();
        assert_eq!(full.frame.dropped, 2);
        assert_eq!(full.frame.dropped_by_replica.get(&4), Some(&2));
        assert!(!full.frame.dropped_by_replica.contains_key(&5));
    }
}
