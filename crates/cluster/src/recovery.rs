//! Failure recovery: the fault plan, its counters, and the sharded
//! epochs the cluster kernel ([`elastic`](crate::elastic)) runs on.
//!
//! The plain deployments in [`deployment`](crate::deployment) fix each
//! request's replica once, at submission — fine while every replica
//! lives. Under injected faults (each replica's timeline drawn by
//! [`FaultConfig::draw`]) a crash strands everything in flight or queued
//! on the dead replica, so the kernel replaces the static one-shot
//! assignment with a recovery loop:
//!
//! 1. Replicas advance in sharded epochs: between barrier instants every
//!    replica's steps are purely replica-local, so the kernel lets each
//!    one advance independently up to the next pending crash
//!    (`Epochs::advance_to_barrier`), then falls back to the min-now
//!    lockstep pick for the crash neighbourhood — a crash is still
//!    observed before any survivor moves past it, and the step order
//!    replayed around it is exactly the lockstep one. A run reads
//!    `QOSERVE_THREADS` once and starts one worker set for all its
//!    epochs; each epoch hands the set its runnable slots, and an epoch
//!    with fewer than two runnable slots steps on the calling thread.
//! 2. The lockstep pick handles a crash that is due at the picked slot's
//!    engine clock instead of stepping it. The crash empties the engine
//!    into orphans ([`OrphanedJob`](qoserve_engine::OrphanedJob)); each is
//!    re-dispatched to a serving, up replica after a deterministic linear
//!    backoff (500 ms per attempt), paying its prompt tokens again
//!    (re-prefill — the KV died with the replica).
//! 3. Retries are bounded ([`FaultPlan::max_retries`]); requests that keep
//!    landing on crashing replicas end as
//!    [`Disposition::RetryExhausted`](qoserve_metrics::Disposition::RetryExhausted).
//! 4. When fewer than 34 % of the slots survive,
//!    low-priority requests are shed
//!    ([`Disposition::Shed`](qoserve_metrics::Disposition::Shed)) instead
//!    of dragging every tier down — the fault-path analogue of the
//!    paper's graceful-degradation argument (§3.3).
//! 5. Crashed replicas with a configured downtime restart empty and
//!    rejoin the rotation.
//!
//! Each replica has one record, its kernel slot (`Slot`): the slot holds
//! the replica's drawn fault timeline, knows which crash is next, and
//! answers whether the replica is up at an instant for the dispatcher's
//! orphan filter; it also holds the replica's lifecycle phase,
//! replica-time anchor, outstanding requests and breaker. The engine only
//! executes; it never sees a crash.
//!
//! Everything is deterministic: the fault timeline is derived from the
//! seed alone, replica selection is a round-robin cursor, and backoff is
//! a fixed linear function of the attempt number. The same seed and
//! configuration replays bit-identically regardless of
//! `QOSERVE_THREADS`, and an all-zero fault configuration is
//! bit-identical to [`run_shared`](crate::deployment::run_shared).

use qoserve_engine::ReplicaEngine;
use qoserve_sim::faults::{CrashEvent, FaultConfig, ReplicaFaultProfile};
use qoserve_sim::{SimDuration, SimTime, Workers};
use qoserve_workload::{Priority, RequestSpec};

use crate::breaker::CircuitBreaker;
use crate::lifecycle::Phase;

/// Linear backoff unit: attempt `n` is re-dispatched `n * RETRY_BACKOFF`
/// after the crash or drain deadline.
pub(crate) const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// When fewer than this fraction of the slots the fleet holds or lost to
/// a crash are up and serving at re-dispatch time,
/// [`Priority::Low`](qoserve_workload::Priority::Low) orphans are shed
/// instead of retried.
pub(crate) const SHED_BELOW_UP_FRACTION: f64 = 0.34;

/// Fault-injection and recovery policy for one cluster run.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Fault intensity configuration; the timeline is derived from it and
    /// the run's seed.
    pub faults: FaultConfig,
    /// Re-dispatch attempts per request before giving up
    /// ([`Disposition::RetryExhausted`](qoserve_metrics::Disposition::RetryExhausted)).
    pub max_retries: u32,
    /// When set, each replica gets a circuit breaker thresholding its
    /// rolling health snapshot, and orphan re-dispatch prefers replicas
    /// whose breaker allows work (falling back to every serving, up
    /// replica — a breaker may delay work, never strand it).
    pub breaker: bool,
}

impl FaultPlan {
    /// No faults; the recovery path is exercised but never fires.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// A plan around the given fault configuration with default recovery
    /// parameters.
    pub fn with_faults(faults: FaultConfig) -> Self {
        FaultPlan {
            faults,
            ..FaultPlan::default()
        }
    }

    /// The plan with fault rates scaled by `intensity` (recovery
    /// parameters unchanged) — the knob the fault sweep turns.
    pub fn scaled(&self, intensity: f64) -> Self {
        FaultPlan {
            faults: self.faults.scaled(intensity),
            ..self.clone()
        }
    }

    /// The plan with per-replica circuit breakers enabled.
    pub fn with_breaker(mut self) -> Self {
        self.breaker = true;
        self
    }
}

impl Default for FaultPlan {
    /// Defaults: no faults, 3 retries, no breakers.
    fn default() -> Self {
        FaultPlan {
            faults: FaultConfig::none(),
            max_retries: 3,
            breaker: false,
        }
    }
}

/// Aggregate fault/recovery counters of one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultRunStats {
    /// Crash events that fired.
    pub crashes: u64,
    /// Crashed replicas that restarted (a crash without restart is a
    /// permanent loss).
    pub restarts: u64,
    /// Successful re-dispatches of orphaned requests.
    pub redispatches: u64,
    /// Orphans shed by the tier-aware low-capacity policy (plus orphans
    /// with no surviving replica at all).
    pub shed: u64,
    /// Orphans dropped after exhausting the retry budget.
    pub retry_exhausted: u64,
    /// Prompt tokens prefilled again because their KV died with a crash.
    pub reprefill_tokens: u64,
    /// Engine iterations executed inside straggler/drift windows.
    pub degraded_iterations: u64,
    /// Circuit-breaker trips across all replicas (0 without breakers).
    pub breaker_opens: u64,
    /// Re-dispatches steered away from an up-but-unhealthy replica.
    pub breaker_diverted: u64,
    /// Scale-up actions applied by the elastic control plane.
    pub scale_ups: u64,
    /// Scale-down (graceful drain) actions applied.
    pub scale_downs: u64,
    /// Requests migrated off draining replicas through the orphan path.
    pub drain_migrated: u64,
    /// Simulated microseconds spent provisioning and warming replicas
    /// before they served their first request — the cost of every flap.
    pub warmup_wasted_us: u64,
}

/// One replica slot of the cluster kernel, and the one record of its
/// replica: the engine generation serving now (replaced by a fresh one
/// after a restart or a warm-up), the replica's fault timeline, its
/// lifecycle phase, its replica-time anchor, its outstanding requests
/// and its breaker. A sharded epoch moves the whole record to one worker.
pub(crate) struct Slot {
    pub(crate) engine: ReplicaEngine,
    /// The replica's crash timeline; `next_crash` indexes the upcoming
    /// crash.
    pub(crate) crashes: Vec<CrashEvent>,
    pub(crate) next_crash: usize,
    /// The slowdown windows every engine generation executes.
    pub(crate) profile: ReplicaFaultProfile,
    /// Drained, restarting-and-empty or lost for good: skipped until new
    /// work arrives (a lost slot never gets any).
    pub(crate) parked: bool,
    pub(crate) phase: Phase,
    /// When the current provisioning began (replica-time accrual
    /// anchor); `None` while the slot holds no capacity.
    pub(crate) provisioned_since: Option<SimTime>,
    /// Requests submitted to the slot and not yet resolved, split
    /// `[important, low]` — the drain-victim signal.
    pub(crate) outstanding: [u64; 2],
    /// This replica's circuit breaker, when the plan enables them.
    pub(crate) breaker: Option<CircuitBreaker>,
}

impl Slot {
    /// `spec`'s entry in `outstanding`.
    fn prio_ix(spec: &RequestSpec) -> usize {
        usize::from(spec.priority() == Priority::Low)
    }

    /// `spec` was submitted to this slot.
    pub(crate) fn admit(&mut self, spec: &RequestSpec) {
        self.outstanding[Self::prio_ix(spec)] += 1;
    }

    /// `spec` left this slot: resolved, orphaned, or recalled.
    pub(crate) fn release(&mut self, spec: &RequestSpec) {
        let n = &mut self.outstanding[Self::prio_ix(spec)];
        *n = n.saturating_sub(1);
    }

    /// Stops replica-time accrual at `at`: the microseconds provisioned
    /// since the anchor, 0 without one.
    pub(crate) fn deprovision(&mut self, at: SimTime) -> u64 {
        self.provisioned_since
            .take()
            .map_or(0, |since| at.duration_since(since).as_micros())
    }

    /// The upcoming crash, if the timeline has one left.
    pub(crate) fn upcoming_crash(&self) -> Option<CrashEvent> {
        self.crashes.get(self.next_crash).copied()
    }

    /// The upcoming crash if it is due: at or before the engine's clock,
    /// with the clock short of `horizon` (an engine at its horizon halts
    /// first and parks).
    pub(crate) fn crash_due(&self, horizon: Option<SimTime>) -> Option<CrashEvent> {
        let now = self.engine.now();
        self.upcoming_crash()
            .filter(|c| c.at <= now && horizon.is_none_or(|h| now < h))
    }

    /// Whether the replica is up at `t`: inside no crash outage, each of
    /// which runs from its crash to its restart, or forever without one.
    pub(crate) fn up_at(&self, t: SimTime) -> bool {
        !self
            .crashes
            .iter()
            .take_while(|c| c.at <= t)
            .any(|c| c.restart_at.is_none_or(|r| t < r))
    }
}

/// The earliest pending crash instant across runnable slots. `None`
/// means no runnable replica can crash again (parked slots only revive
/// at a crash or control instant, both barriers themselves), so up to
/// the next control instant every step is replica-local.
pub(crate) fn pending_crash_barrier(slots: &[Slot]) -> Option<SimTime> {
    slots
        .iter()
        .filter(|s| !s.parked)
        .filter_map(|s| s.upcoming_crash().map(|c| c.at))
        .min()
}

/// Advances one replica's purely local steps up to (strictly before)
/// `barrier`, or to completion without one. The strict bound is what
/// keeps the merged state on the lockstep schedule: a step whose entry
/// clock has reached the barrier may be ordered after the crash
/// processing in min-now order, so it belongs to the serial phase. It
/// also keeps every crash out of this phase, since the slot's upcoming
/// crash is at or past the barrier.
fn advance_replica(slot: &mut Slot, barrier: Option<SimTime>) {
    if slot.parked {
        return;
    }
    loop {
        if let Some(t) = barrier {
            if slot.engine.now() >= t {
                return;
            }
        }
        if !slot.engine.step() {
            slot.parked = true; // drained (or horizon); may be revived
            return;
        }
        if let Some(b) = slot.breaker.as_mut() {
            // Health reads are pure and the breaker is replica-local,
            // so observing here matches the lockstep order exactly.
            b.observe(&slot.engine.health(), slot.engine.now());
        }
    }
}

/// A sharded epoch's task: one runnable slot and the barrier it advances
/// to.
pub(crate) type Advance = (Slot, Option<SimTime>);

/// The job of a sharded run's worker set: one slot's epoch.
pub(crate) fn advance(_: usize, (mut slot, barrier): Advance) -> Slot {
    advance_replica(&mut slot, barrier);
    slot
}

/// Phase one of the sharded kernel: the run's worker set (see
/// [`with_workers`](qoserve_sim::with_workers)) and the buffers its
/// epochs move slots through, kept across epochs so that an epoch
/// allocates nothing once they have grown.
pub(crate) struct Epochs<'w> {
    workers: Workers<'w, Advance, Slot>,
    tasks: Vec<(usize, Advance)>,
    done: Vec<(usize, Slot)>,
}

impl<'w> Epochs<'w> {
    pub(crate) fn new(workers: Workers<'w, Advance, Slot>) -> Self {
        Epochs {
            workers,
            tasks: Vec::new(),
            done: Vec::new(),
        }
    }

    /// Every runnable slot advances to the barrier. With two or more
    /// runnable slots and two or more workers, the runnable slots go to
    /// the worker set and the parked ones wait in the buffer; otherwise
    /// the calling thread steps them in place. Replica-local steps commute
    /// across replicas, so the merged state is bit-identical to stepping
    /// them serially at any thread count.
    pub(crate) fn advance_to_barrier(&mut self, slots: &mut Vec<Slot>, barrier: Option<SimTime>) {
        let runnable = slots.iter().filter(|s| !s.parked).count();
        if runnable < 2 || self.workers.threads() < 2 {
            for slot in slots.iter_mut() {
                advance_replica(slot, barrier);
            }
            return;
        }
        for (i, slot) in slots.drain(..).enumerate() {
            if slot.parked {
                self.done.push((i, slot));
            } else {
                self.tasks.push((i, (slot, barrier)));
            }
        }
        self.workers.run(self.tasks.drain(..), &mut self.done);
        self.done.sort_unstable_by_key(|&(i, _)| i);
        slots.extend(self.done.drain(..).map(|(_, slot)| slot));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::deployment::{build_engine, run_shared, ClusterConfig};
    use crate::elastic::{
        run_shared_elastic, run_shared_elastic_observed_lockstep, ElasticRunResult,
    };
    use crate::lifecycle::{ElasticPlan, ScaleAction, ScaleEvent};
    use crate::router::RouterError;
    use crate::spec::SchedulerSpec;
    use qoserve_metrics::{Disposition, RequestOutcome};
    use qoserve_perf::HardwareConfig;
    use qoserve_sim::faults::ReplicaFaultProfile;
    use qoserve_sim::{forall, Rng, SeedStream};
    use qoserve_trace::Tracer;
    use qoserve_workload::{ArrivalProcess, Dataset, Trace, TraceBuilder};

    /// The fault schedule's `is_up_at` as it stood before the slots owned
    /// the crash timeline, over one replica's crashes: the reference
    /// `Slot::up_at` is checked against.
    pub(crate) fn is_up_at(crashes: &[CrashEvent], t: SimTime) -> bool {
        for c in crashes {
            if c.at <= t {
                match c.restart_at {
                    None => return false,
                    Some(r) if t < r => return false,
                    Some(_) => {}
                }
            }
        }
        true
    }

    /// A parked serving slot with `crashes` and `breaker` around an empty
    /// engine.
    pub(crate) fn slot(crashes: Vec<CrashEvent>, breaker: Option<CircuitBreaker>) -> Slot {
        Slot {
            engine: build_engine(
                &SchedulerSpec::sarathi_fcfs(),
                &config(),
                &SeedStream::new(0),
                0,
                ReplicaFaultProfile::healthy(),
                &Tracer::disabled(),
            ),
            crashes,
            next_crash: 0,
            profile: ReplicaFaultProfile::healthy(),
            parked: true,
            phase: Phase::Serving,
            provisioned_since: None,
            outstanding: [0, 0],
            breaker,
        }
    }

    /// A crash list drawn either for a random replica under a random
    /// fault configuration (rates up to 6,000 an hour, permanent, instant
    /// or timed restarts) or by hand with zero-length outages and
    /// zero-length gaps: a crash landing on the previous restart.
    fn random_crashes(rng: &mut impl Rng) -> Vec<CrashEvent> {
        let micros = SimDuration::from_micros;
        if rng.gen_bool(0.5) {
            let faults = FaultConfig {
                crash_rate_per_hour: [60.0, 600.0, 6_000.0][rng.gen_range(0..3)],
                restart_downtime: match rng.gen_range(0..4) {
                    0 => None,
                    1 => Some(SimDuration::ZERO),
                    _ => Some(micros(rng.gen_range(1..20_000_000))),
                },
                max_crashes_per_replica: 8,
                ..FaultConfig::none()
            };
            let seeds = SeedStream::new(rng.gen_range(0..1_000));
            return faults
                .draw(rng.gen_range(0..8), SimTime::from_secs(60), &seeds)
                .0;
        }
        let mut crashes = Vec::new();
        let mut at = SimTime::from_micros(rng.gen_range(0..3_000_000));
        for _ in 0..rng.gen_range(0..6) {
            let restart_at = match rng.gen_range(0..4) {
                0 => None,
                1 => Some(at),
                _ => Some(at + micros(rng.gen_range(1..2_000_000))),
            };
            crashes.push(CrashEvent { at, restart_at });
            let Some(restart) = restart_at else { break };
            let gap = if rng.gen_bool(0.5) {
                0
            } else {
                rng.gen_range(1..2_000_000)
            };
            at = restart + micros(gap);
        }
        crashes
    }

    /// `Slot::up_at` answers as the schedule's rule did, at every crash
    /// and restart instant, a microsecond either side, and at random
    /// instants.
    #[test]
    fn up_at_matches_the_schedule_rule_it_replaced() {
        forall(256, 28, |rng| {
            let crashes = random_crashes(rng);
            let s = slot(crashes.clone(), None);
            let one = SimDuration::from_micros(1);
            let mut probes: Vec<SimTime> = (0..16)
                .map(|_| SimTime::from_micros(rng.gen_range(0..70_000_000)))
                .collect();
            for c in &crashes {
                for t in [Some(c.at), c.restart_at].into_iter().flatten() {
                    probes.extend([t.saturating_sub(one), t, t + one]);
                }
            }
            for t in probes {
                assert_eq!(s.up_at(t), is_up_at(&crashes, t), "at {t:?} in {crashes:?}");
            }
        });
    }

    fn config() -> ClusterConfig {
        ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1())
    }

    fn trace(seed: u64, qps: f64, n: usize) -> Trace {
        TraceBuilder::new(Dataset::azure_conv())
            .arrivals(ArrivalProcess::poisson(qps))
            .num_requests(n)
            .paper_tier_mix()
            .build(&SeedStream::new(seed))
    }

    /// A fixed fleet of `replicas` under `plan` on the cluster kernel.
    fn run_faulty(
        t: &Trace,
        replicas: u32,
        scheduler: &SchedulerSpec,
        plan: &FaultPlan,
        seed: u64,
    ) -> Result<ElasticRunResult, RouterError> {
        run_shared_elastic(
            t,
            replicas,
            scheduler,
            &config(),
            plan,
            &ElasticPlan::none(),
            &SeedStream::new(seed),
        )
    }

    fn crash_heavy(rate_per_hour: f64) -> FaultConfig {
        let mut faults = FaultConfig::moderate();
        faults.crash_rate_per_hour = rate_per_hour;
        faults
    }

    #[test]
    fn zero_faults_match_run_shared_bit_for_bit() {
        let t = trace(11, 5.0, 150);
        let plain = run_shared(
            &t,
            3,
            &SchedulerSpec::qoserve(),
            &config(),
            &SeedStream::new(11),
        );
        let faulty = run_faulty(&t, 3, &SchedulerSpec::qoserve(), &FaultPlan::none(), 11).unwrap();
        assert_eq!(faulty.outcomes, plain);
        assert_eq!(faulty.stats, FaultRunStats::default());
    }

    #[test]
    fn faulty_run_is_deterministic_and_conserves_requests() {
        let t = trace(12, 6.0, 200);
        let plan = FaultPlan::with_faults(FaultConfig::moderate().scaled(2.0));
        let run = || run_faulty(&t, 4, &SchedulerSpec::qoserve(), &plan, 12).unwrap();
        let a = run();
        assert_eq!(a, run(), "same seed must replay bit-identically");
        assert_eq!(a.outcomes.len(), t.len());
        for (i, o) in a.outcomes.iter().enumerate() {
            assert_eq!(o.spec.id.0, i as u64, "one outcome per request, by id");
        }
    }

    #[test]
    fn crashes_produce_retries_and_reprefill() {
        let t = trace(13, 8.0, 250);
        // Crash hard and often, with restarts, so recovery must fire.
        let plan = FaultPlan::with_faults(crash_heavy(600.0));
        let r = run_faulty(&t, 3, &SchedulerSpec::qoserve(), &plan, 13).unwrap();
        assert!(r.stats.crashes > 0, "600 crashes/hour must fire");
        assert!(r.stats.redispatches > 0, "orphans must be re-dispatched");
        assert!(
            r.outcomes.iter().any(|o| o.retries > 0),
            "some outcome must record a retry"
        );
        let completed_after_retry = r
            .outcomes
            .iter()
            .filter(|o| o.retries > 0 && o.finished())
            .count();
        assert!(
            completed_after_retry > 0,
            "recovery must actually save requests"
        );
    }

    #[test]
    fn breakers_leave_zero_fault_runs_bit_identical() {
        let t = trace(16, 5.0, 120);
        let base = run_faulty(&t, 3, &SchedulerSpec::qoserve(), &FaultPlan::none(), 16).unwrap();
        let plan = FaultPlan::none().with_breaker();
        let with_breaker = run_faulty(&t, 3, &SchedulerSpec::qoserve(), &plan, 16).unwrap();
        // Health observation is a pure read: enabling breakers on a
        // fault-free cluster changes nothing.
        assert_eq!(with_breaker.outcomes, base.outcomes);
        assert_eq!(with_breaker.stats.breaker_opens, 0);
        assert_eq!(with_breaker.stats.breaker_diverted, 0);
    }

    #[test]
    fn sustained_stragglers_trip_the_breakers() {
        let t = trace(17, 8.0, 150);
        // Straggler windows at ~100/s tiling the whole run at 4x latency:
        // every replica is degraded essentially always, so every breaker
        // must trip once it has a full judgement window.
        let mut faults = FaultConfig::none();
        faults.straggler_rate_per_hour = 360_000.0;
        faults.straggler_duration = SimDuration::from_secs(60);
        faults.straggler_factor = 4.0;
        let plan = FaultPlan::with_faults(faults).with_breaker();
        let run = || run_faulty(&t, 2, &SchedulerSpec::qoserve(), &plan, 17).unwrap();
        let a = run();
        assert_eq!(a, run(), "breaker decisions must replay bit-identically");
        assert_eq!(a.outcomes.len(), t.len());
        assert!(a.stats.degraded_iterations > 0);
        assert!(
            a.stats.breaker_opens > 0,
            "an always-straggling replica must trip its breaker"
        );
    }

    #[test]
    fn breaker_dispatch_is_deterministic_under_mixed_faults() {
        let t = trace(18, 8.0, 250);
        let plan = FaultPlan::with_faults(crash_heavy(600.0)).with_breaker();
        let run = || run_faulty(&t, 3, &SchedulerSpec::qoserve(), &plan, 18).unwrap();
        let a = run();
        assert_eq!(a, run(), "same seed must replay bit-identically");
        assert_eq!(a.outcomes.len(), t.len());
        assert!(a.stats.crashes > 0);
        assert!(
            a.stats.redispatches > 0,
            "orphans must still flow with breakers enabled"
        );
    }

    #[test]
    fn sharded_kernel_matches_lockstep_reference_bit_for_bit() {
        let t = trace(19, 8.0, 250);
        let plan = FaultPlan::with_faults(crash_heavy(600.0)).with_breaker();
        let sharded = run_faulty(&t, 3, &SchedulerSpec::qoserve(), &plan, 19).unwrap();
        let lockstep = run_shared_elastic_observed_lockstep(
            &t,
            3,
            &SchedulerSpec::qoserve(),
            &config(),
            &plan,
            &ElasticPlan::none(),
            &SeedStream::new(19),
            &Tracer::disabled(),
            None,
        )
        .unwrap();
        assert!(
            sharded.stats.crashes > 0,
            "the differential must exercise recovery"
        );
        assert_eq!(sharded, lockstep, "kernels must agree bit-for-bit");
    }

    #[test]
    fn zero_replicas_is_a_typed_error() {
        let t = trace(14, 1.0, 5);
        let err = run_faulty(&t, 0, &SchedulerSpec::qoserve(), &FaultPlan::none(), 14);
        assert_eq!(err.unwrap_err(), RouterError::NoReplicas);
    }

    #[test]
    fn permanent_crashes_without_restart_shed_or_exhaust() {
        let t = trace(15, 6.0, 150);
        let mut faults = crash_heavy(900.0);
        faults.restart_downtime = None; // every crash is permanent
        let plan = FaultPlan::with_faults(faults);
        let r = run_faulty(&t, 2, &SchedulerSpec::sarathi_fcfs(), &plan, 15).unwrap();
        assert!(r.stats.crashes > 0);
        assert_eq!(r.stats.restarts, 0);
        assert_eq!(r.outcomes.len(), t.len());
        let lost = r
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.disposition,
                    Disposition::Shed | Disposition::RetryExhausted
                )
            })
            .count();
        assert!(
            lost > 0,
            "with every replica permanently dead, some work must be shed"
        );
        // Recorded before lost slots left the provisioned fleet: the shed
        // still counts them, so the run is unchanged.
        assert_eq!(outcome_digest(&r.outcomes), 0x8d40_effb_a3ea_befd);
        assert_eq!(
            r.stats,
            FaultRunStats {
                crashes: 2,
                redispatches: 16,
                shed: 132,
                reprefill_tokens: 7_236,
                ..FaultRunStats::default()
            }
        );
    }

    /// FNV-1a digest of every outcome's integer fields and recovery
    /// history, in outcome order.
    fn outcome_digest(outcomes: &[RequestOutcome]) -> u64 {
        let micros = |t: Option<SimTime>| t.map_or(u64::MAX, |t| t.as_micros());
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        for o in outcomes {
            for v in [
                o.spec.id.0,
                micros(o.first_token),
                micros(o.completion),
                o.max_tbt.as_micros(),
                o.worst_token_lateness.as_micros() as u64,
                u64::from(o.relegated),
                u64::from(o.replica),
                o.disposition as u64,
                u64::from(o.retries),
                o.reprefill_tokens,
            ] {
                for b in v.to_le_bytes() {
                    digest = (digest ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        digest
    }

    /// A slot that crashes with no restart leaves the provisioned fleet at
    /// its crash instant, and an Add never reuses it: two replicas crash
    /// for good, then a scheduled Add provisions the third slot.
    #[test]
    fn permanently_lost_slots_leave_the_fleet() {
        let t = trace(27, 6.0, 200);
        let faults = FaultConfig {
            crash_rate_per_hour: 600.0,
            restart_downtime: None,
            max_crashes_per_replica: 1,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::with_faults(faults);
        let elastic = ElasticPlan {
            max_replicas: 3,
            schedule: vec![ScaleEvent {
                at: SimTime::from_secs(25),
                action: ScaleAction::Add,
            }],
            ..ElasticPlan::none()
        };
        let sharded = run_shared_elastic(
            &t,
            2,
            &SchedulerSpec::qoserve(),
            &config(),
            &plan,
            &elastic,
            &SeedStream::new(27),
        )
        .unwrap();
        let lockstep = run_shared_elastic_observed_lockstep(
            &t,
            2,
            &SchedulerSpec::qoserve(),
            &config(),
            &plan,
            &elastic,
            &SeedStream::new(27),
            &Tracer::disabled(),
            None,
        )
        .unwrap();
        assert_eq!(sharded, lockstep, "kernels must agree bit-for-bit");
        assert_eq!(sharded.stats.crashes, 2);
        assert_eq!(sharded.stats.scale_ups, 1);
        let sizes: Vec<u32> = sharded.fleet.iter().map(|&(_, size)| size).collect();
        assert_eq!(sizes, [2, 1, 0, 1], "fleet log {:?}", sharded.fleet);
        assert_eq!(sharded.fleet[3].0, SimTime::from_secs(25));
        assert!(sharded.fleet[2].0 < SimTime::from_secs(25));
    }
}
