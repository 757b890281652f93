//! The cluster kernel: fault recovery composed with replica lifecycle
//! and autoscaling on one deterministic sharded loop.
//!
//! [`run_shared_elastic`] runs a shared fleet under a [`FaultPlan`]
//! (crash recovery, see [`recovery`](crate::recovery)) while replicas are
//! provisioned, warmed, drained, and retired, with every membership
//! change driven at deterministic *control instants* — scheduled
//! [`ScaleEvent`]s, autoscaler ticks, warm-up completions, and drain
//! deadlines. A control instant is processed only once every runnable
//! replica's clock has reached it, so the decision sequence is a pure
//! function of the seed and configuration at any `QOSERVE_THREADS` (the
//! same argument as the crash barrier).
//!
//! [`ElasticPlan::none`] creates no control instant: the fleet stays
//! fixed and the run is pure fault recovery. With [`FaultPlan::none`] as
//! well it is bit-identical to [`run_shared`](crate::deployment::run_shared)
//! (pinned by tests).
//!
//! # Dispatch: static until the fleet first moves
//!
//! Until the first applied scale action the kernel keeps the router's
//! static pre-assignment. That first action recalls every undelivered
//! request from every engine into a held pool and switches to windowed
//! dynamic dispatch: at each control instant, held requests due before
//! the next control instant go round-robin over the serving slots. Held
//! requests with no serving target are retried at the next control
//! instant and terminally shed at the horizon — no request is ever
//! silently dropped. One private dispatcher places them, and the crash
//! and drain orphans too, each stream on its own round-robin cursor.
//!
//! # Control instants cost what they touch
//!
//! The held pool is ordered by `(arrival, id)`, so dispatch pops the due
//! requests off its front and the queue pressure of arrived held work is
//! a range up to the tick; the requests left behind are not touched. The
//! autoscaler's attainment window is kept incrementally: each tick feeds
//! only the outcomes collected since the last one, drops the entries
//! completed at or before its window start, and tallies those left that
//! completed by the tick. Ticks strictly increase and the window length
//! is fixed, so window starts never decrease and a dropped entry could
//! never count again. A control instant therefore touches the requests it
//! routes and the completions since the last tick, not the whole run so
//! far, and its decisions equal those of a full rescan (pinned by a
//! property test).
//!
//! # Drain handoff contract
//!
//! `begin_drain` stops admission immediately; undelivered arrivals are
//! recalled into the held pool at drain *start*; running decodes get
//! until the drain deadline. Exactly **at** the deadline — a control
//! instant, never an engine-local time — unfinished work is taken as
//! orphans and re-dispatched through the crash recovery path (attempt
//! counting, linear backoff, re-prefill accounting, tier-aware shedding
//! all included), with `drain_migrated` counted separately. A draining
//! replica that crashes first is handled by the crash path and simply
//! retires early.

use std::collections::BTreeMap;

use qoserve_engine::{OrphanedJob, ReplicaEngine};
use qoserve_metrics::{Disposition, RequestOutcome};
use qoserve_sim::faults::{CrashEvent, ReplicaFaultProfile};
use qoserve_sim::nums;
use qoserve_sim::{thread_limit, with_workers, SeedStream, SimDuration, SimTime};
use qoserve_trace::{ControlObserver, FaultKind, ScaleDirection, TraceEvent, Tracer};
use qoserve_workload::{RequestId, RequestSpec, TierId, Trace};

use crate::autoscale::{AutoscaleController, AutoscaleDecision, ControlObservation};
use crate::breaker::CircuitBreaker;
use crate::deployment::{build_engine, ClusterConfig};
use crate::dispatch::Dispatcher;
use crate::lifecycle::{drain_victim, DrainCandidate, ElasticPlan, Phase, ScaleAction, ScaleEvent};
use crate::recovery::{
    advance, pending_crash_barrier, Epochs, FaultPlan, FaultRunStats, Slot, RETRY_BACKOFF,
};
use crate::router::RouterError;
use crate::spec::SchedulerSpec;

/// Outcomes, counters, and fleet accounting of one elastic run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ElasticRunResult {
    /// One outcome per submitted request, ordered by request id.
    pub outcomes: Vec<RequestOutcome>,
    /// Fault/recovery counters plus the scale/drain counters.
    pub stats: FaultRunStats,
    /// Total provisioned replica-microseconds (from provisioning start
    /// to retirement), the cost side of the elasticity trade.
    pub replica_us: u64,
    /// Provisioned-fleet-size changes as `(time, size)` steps, starting
    /// with the initial fleet at time zero. A slot counts from the
    /// decision that provisions it until it retires or crashes with no
    /// restart.
    pub fleet: Vec<(SimTime, u32)>,
}

/// The fleet-wide state of a run: what is not any one slot's.
struct FleetState {
    /// Undelivered requests recalled from engines, awaiting dynamic
    /// dispatch, keyed by `(arrival, id)`: the requests due in a dispatch
    /// window, and those arrived by a tick, are a prefix of the map.
    held: BTreeMap<(SimTime, RequestId), RequestSpec>,
    /// False until the first applied scale action; while false the
    /// static pre-assignment stands untouched.
    dynamic: bool,
    fleet_log: Vec<(SimTime, u32)>,
    replica_us: u64,
}

impl FleetState {
    /// Moves requests recalled from `slot` into the held pool.
    fn recall(&mut self, slot: &mut Slot, specs: Vec<RequestSpec>) {
        for spec in specs {
            slot.release(&spec);
            self.held.insert((spec.arrival, spec.id), spec);
        }
    }

    /// Logs the provisioned fleet size of `slots` at `at` if it changed.
    fn log_fleet(&mut self, at: SimTime, slots: &[Slot]) {
        let size = fleet_size(slots);
        if self.fleet_log.last().map(|&(_, s)| s) != Some(size) {
            self.fleet_log.push((at, size));
        }
    }
}

/// Provisioned fleet size: every slot holding capacity, draining
/// included.
fn fleet_size(slots: &[Slot]) -> u32 {
    count(slots, |p| !matches!(p, Phase::Idle | Phase::Lost))
}

/// The shed's denominator: the provisioned fleet plus the slots lost to a
/// crash, so that a permanent loss reads as lost capacity.
fn held_or_lost(slots: &[Slot]) -> u32 {
    count(slots, |p| !matches!(p, Phase::Idle))
}

fn count(slots: &[Slot], pred: impl Fn(&Phase) -> bool) -> u32 {
    nums::usize_to_u32(slots.iter().filter(|s| pred(&s.phase)).count())
}

/// Slots in [`Phase::Serving`], ascending: where held requests and
/// orphans go, the drain-victim candidates and the autoscaler's serving
/// count.
pub(crate) fn serving(slots: &[Slot]) -> Vec<u32> {
    slots
        .iter()
        .enumerate()
        .filter(|(_, s)| s.phase == Phase::Serving)
        .map(|(r, _)| nums::usize_to_u32(r))
        .collect()
}

/// The autoscaler's attainment window over [`RecoveryBook::outcomes`],
/// kept incrementally so that a tick costs the completions since the last
/// one plus the window's contents, not every outcome so far.
#[derive(Default)]
struct AttainmentWindow {
    /// Outcomes before this index have been fed (the book only grows
    /// until `finish`).
    fed: usize,
    /// `(completion, tier, violated)` of fed completed outcomes not yet
    /// dropped, in feed order.
    entries: Vec<(SimTime, TierId, bool)>,
}

impl AttainmentWindow {
    /// Per-tier `(completed, violated)` counts over `outcomes` completed
    /// in `(window_start, now]`. Feeds the outcomes pushed since the last
    /// call, drops entries completed at or before `window_start` (the
    /// module docs say why they could never count again), and tallies
    /// those left that completed by `now`; later ones wait for a later
    /// tick.
    fn tally(
        &mut self,
        outcomes: &[RequestOutcome],
        window_start: SimTime,
        now: SimTime,
    ) -> BTreeMap<TierId, (u64, u64)> {
        debug_assert!(self.fed <= outcomes.len(), "the book only grows");
        self.entries.extend(
            outcomes[self.fed..]
                .iter()
                .filter_map(|o| Some((o.completion?, o.tier(), o.violated()))),
        );
        self.fed = outcomes.len();
        self.entries.retain(|&(c, ..)| c > window_start);
        let mut per_tier: BTreeMap<TierId, (u64, u64)> = BTreeMap::new();
        for &(_, tier, violated) in self.entries.iter().filter(|&&(c, ..)| c <= now) {
            let e = per_tier.entry(tier).or_default();
            e.0 += 1;
            e.1 += u64::from(violated);
        }
        per_tier
    }
}

/// One request's recovery history, stamped onto its outcome at the end.
#[derive(Default)]
struct History {
    /// Re-dispatch attempts, the retry-budget counter.
    retries: u32,
    /// Prompt tokens whose KV died with a crash or a drain.
    reprefill_tokens: u64,
    /// Relegated on some replica it was orphaned from.
    relegated: bool,
    /// Orphans of a drain that were placed again.
    drain_migrations: u32,
}

/// Counters, outcomes and per-request histories shared by the crash and
/// drain handoff paths.
struct RecoveryBook {
    stats: FaultRunStats,
    outcomes: Vec<RequestOutcome>,
    history: BTreeMap<RequestId, History>,
}

/// Runs `trace` on a shared deployment that starts with `replicas`
/// replicas and grows/shrinks under `elastic`, composed with the fault
/// plan. Returns one outcome per request (ordered by id): completions,
/// plus explicit [`Disposition::Shed`] / [`Disposition::RetryExhausted`]
/// records for requests lost to the fault policy — no request ever
/// disappears. With [`ElasticPlan::none`] the fleet stays fixed; with
/// [`FaultPlan::none`] as well the outcomes are bit-identical to
/// [`run_shared`](crate::deployment::run_shared).
pub fn run_shared_elastic(
    trace: &Trace,
    replicas: u32,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    plan: &FaultPlan,
    elastic: &ElasticPlan,
    seeds: &SeedStream,
) -> Result<ElasticRunResult, RouterError> {
    let tracer = Tracer::disabled();
    let k = Kernel::new(
        trace, replicas, scheduler, config, plan, elastic, seeds, &tracer,
    )?;
    Ok(drive(k, trace.len(), None, ExecMode::sharded()))
}

/// [`run_shared_elastic`] with a decision [`Tracer`] installed on every
/// replica engine, scheduler, and circuit breaker, plus the kernel's own
/// events: [`TraceEvent::FaultInjected`] at crash instants,
/// [`TraceEvent::OrphanRedispatched`] at re-dispatch times, and the
/// lifecycle events ([`TraceEvent::ScaleDecision`],
/// [`TraceEvent::DrainStarted`], [`TraceEvent::DrainFinished`],
/// [`TraceEvent::WarmupComplete`]). A disabled tracer is behaviourally
/// free, and the sink orders records canonically by `(time_us, replica,
/// seq)`, so the captured trace is independent of how the sharded phases
/// were scheduled across threads.
///
/// The optional [`ControlObserver`] is driven at its own deterministic
/// sim-time boundaries, interleaved with the control instants (a
/// boundary due at the same instant as a control instant fires first, in
/// both kernels). The tracer is flushed before every observer callback
/// and before the run returns, so a stats tee has seen every record up
/// to the boundary. Observation is contractually invisible: outcomes,
/// stats, and the fleet log are bit-identical to the unobserved run.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is an independent run input: trace, fleet, scheduler, faults, scaling, seeds and observation"
)]
pub fn run_shared_elastic_observed(
    trace: &Trace,
    replicas: u32,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    plan: &FaultPlan,
    elastic: &ElasticPlan,
    seeds: &SeedStream,
    tracer: &Tracer,
    observer: Option<&dyn ControlObserver>,
) -> Result<ElasticRunResult, RouterError> {
    let k = Kernel::new(
        trace, replicas, scheduler, config, plan, elastic, seeds, tracer,
    )?;
    Ok(drive(k, trace.len(), observer, ExecMode::sharded()))
}

/// [`run_shared_elastic_observed`] on the min-now lockstep kernel: a
/// single thread always steps the engine furthest behind in simulated
/// time, start to finish. Bit-identical to the sharded kernel in
/// outcomes, counters, trace bytes, and observer callbacks — kept as
/// the differential oracle for tests and `sim_core_bench`, not as a
/// production entry point.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is an independent run input: trace, fleet, scheduler, faults, scaling, seeds and observation"
)]
pub fn run_shared_elastic_observed_lockstep(
    trace: &Trace,
    replicas: u32,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    plan: &FaultPlan,
    elastic: &ElasticPlan,
    seeds: &SeedStream,
    tracer: &Tracer,
    observer: Option<&dyn ControlObserver>,
) -> Result<ElasticRunResult, RouterError> {
    let k = Kernel::new(
        trace, replicas, scheduler, config, plan, elastic, seeds, tracer,
    )?;
    Ok(drive(k, trace.len(), observer, ExecMode::Lockstep))
}

/// Which kernel drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecMode {
    /// Two-phase sharded kernel on a worker set of `threads` threads:
    /// parallel replica-local advancement between barriers, lockstep
    /// only around crashes and control instants.
    Sharded { threads: usize },
    /// The single-threaded min-now kernel, start to finish.
    Lockstep,
}

impl ExecMode {
    /// The sharded kernel on [`thread_limit`] threads, read once per run.
    fn sharded() -> Self {
        ExecMode::Sharded {
            threads: thread_limit(),
        }
    }
}

/// Runs the kernel loop over a run of `requests` requests. A sharded run
/// opens its worker set here, once, with at most one thread per slot;
/// every epoch of the run reuses it.
fn drive(
    k: Kernel<'_>,
    requests: usize,
    observer: Option<&dyn ControlObserver>,
    mode: ExecMode,
) -> ElasticRunResult {
    match mode {
        ExecMode::Sharded { threads } => {
            with_workers(threads.min(k.slots.len()), &advance, |workers| {
                kernel_loop(k, requests, observer, Some(Epochs::new(workers)))
            })
        }
        ExecMode::Lockstep => kernel_loop(k, requests, observer, None),
    }
}

/// The kernel loop. Each pass either fires an observation boundary,
/// processes a control instant, or takes one min-now lockstep step
/// (handling the picked slot's crash instead when it is due). In sharded
/// mode (`epochs` set) every resync first advances all runnable replicas
/// up to the next barrier — the earliest pending crash, control instant,
/// or observation boundary — so the lockstep steps only cover barrier
/// neighbourhoods. See the module docs for the synchronization argument.
fn kernel_loop(
    mut k: Kernel<'_>,
    requests: usize,
    observer: Option<&dyn ControlObserver>,
    mut epochs: Option<Epochs<'_>>,
) -> ElasticRunResult {
    let sharded = epochs.is_some();
    let mut resync = sharded;
    // Observation boundaries are barrier instants of their own; they
    // never touch engine state, outcomes, or `last_time`.
    let mut next_obs: Option<SimTime> = observer.and_then(|o| o.next_boundary(SimTime::ZERO));

    loop {
        let next_control = k.next_control();
        if resync {
            let barrier = [pending_crash_barrier(&k.slots), next_control, next_obs]
                .into_iter()
                .flatten()
                .min();
            if let Some(epochs) = epochs.as_mut() {
                epochs.advance_to_barrier(&mut k.slots, barrier);
            }
            resync = false;
        }
        // The min-now lockstep pick: the runnable engine furthest behind
        // (ties to the lowest index). Its clock is the fleet's minimum
        // runnable clock, which gates the barriers below.
        let pick = k
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.parked)
            .min_by_key(|(_, s)| s.engine.now())
            .map(|(i, _)| i);
        let min_runnable = pick.map(|i| k.slots[i].engine.now());

        // Fire the observation boundary once every runnable clock has
        // reached it. With nothing runnable the run is over and the
        // remaining window folds at `finish` instead — firing here would
        // tick forever (boundaries never run out).
        if let (Some(obs), Some(t)) = (observer, next_obs) {
            if min_runnable.is_some_and(|m| m >= t) {
                k.tracer.flush();
                obs.boundary(t);
                next_obs = obs.next_boundary(t);
                resync = sharded;
                continue;
            }
        }

        // Process the control instant once every runnable clock reached
        // it (or nothing is runnable): the fixed point at which scale
        // decisions are thread-interleaving-independent.
        if let Some(t) = next_control.filter(|&t| min_runnable.is_none_or(|m| m >= t)) {
            // Once every engine is drained and nothing can create new
            // work (no held requests, no scheduled events, no lifecycle
            // transition in flight), the remaining autoscaler ticks can
            // only observe an idle fleet and bill idle replica-time — end
            // the run instead. Both execution modes reach this at the same
            // due tick, so they stay bit-identical.
            if pick.is_none() && k.next_tick == Some(t) && k.idle_control_plane() {
                k.next_tick = None;
                continue;
            }
            k.control_instant(t);
        } else {
            let Some(idx) = pick else {
                break; // nothing runnable and no control pending
            };
            let slot = &mut k.slots[idx];
            // A crash due at the slot's clock is handled instead of a step.
            if let Some(crash) = slot.crash_due(k.config.horizon) {
                k.handle_crash(idx, crash);
            } else if slot.engine.step() {
                if let Some(b) = slot.breaker.as_mut() {
                    // Health reads are pure: observing never perturbs the
                    // engine's own timeline.
                    b.observe(&slot.engine.health(), slot.engine.now());
                }
                continue;
            } else {
                slot.parked = true; // drained (or horizon); may be revived
                continue;
            }
        }
        debug_assert_eq!(
            k.slots.iter().flat_map(|s| s.outstanding).sum::<u64>()
                + nums::usize_to_u64(k.fleet.held.len() + k.book.outcomes.len()),
            nums::usize_to_u64(requests),
            "every request is outstanding on one slot, held, or resolved"
        );
        resync = sharded;
    }
    k.finish(requests, observer)
}

/// Everything a kernel run mutates besides its barrier bookkeeping,
/// with the phases of the loop as methods.
struct Kernel<'a> {
    scheduler: &'a SchedulerSpec,
    config: &'a ClusterConfig,
    plan: &'a FaultPlan,
    elastic: &'a ElasticPlan,
    seeds: &'a SeedStream,
    tracer: &'a Tracer,
    schedule_horizon: SimTime,
    dispatch: Dispatcher,
    slots: Vec<Slot>,
    fleet: FleetState,
    book: RecoveryBook,
    /// Scheduled scale events sorted by time (ties keep schedule order);
    /// `next_event` indexes the first one not yet applied.
    scheduled: Vec<ScaleEvent>,
    next_event: usize,
    controller: Option<AutoscaleController>,
    next_tick: Option<SimTime>,
    window: AttainmentWindow,
    /// Latest control or crash instant processed; replica-time accrues
    /// at least up to it.
    last_time: SimTime,
}

impl<'a> Kernel<'a> {
    /// Builds the fleet: each slot draws its replica's fault timeline, the
    /// router's static assignment is submitted to the first `replicas`
    /// slots, and slots up to the plan's ceiling start idle.
    #[expect(
        clippy::too_many_arguments,
        reason = "the run inputs the fleet is built from"
    )]
    fn new(
        trace: &Trace,
        replicas: u32,
        scheduler: &'a SchedulerSpec,
        config: &'a ClusterConfig,
        plan: &'a FaultPlan,
        elastic: &'a ElasticPlan,
        seeds: &'a SeedStream,
        tracer: &'a Tracer,
    ) -> Result<Self, RouterError> {
        let initial = replicas;
        let max_replicas = elastic.max_replicas.max(initial).max(
            elastic
                .autoscale
                .map(|a| a.normalized().max_replicas)
                .unwrap_or(0),
        );
        let targets = config
            .router
            .try_assign(trace.requests(), nums::u32_to_usize(initial))?;

        // The fault timeline must cover the whole run; with no explicit
        // horizon, pad past the last arrival so late-run crashes exist.
        let schedule_horizon = config
            .horizon
            .unwrap_or_else(|| trace.horizon() + SimDuration::from_secs(3_600));
        let fleet = FleetState {
            held: BTreeMap::new(),
            dynamic: false,
            fleet_log: vec![(SimTime::ZERO, initial)],
            replica_us: 0,
        };
        let mut scheduled = elastic.schedule.clone();
        scheduled.sort_by_key(|e| e.at);
        let controller = elastic.autoscale.map(AutoscaleController::new);
        let next_tick = controller
            .as_ref()
            .map(|c| SimTime::ZERO + c.config().control_interval)
            .filter(|&t| t <= schedule_horizon);

        let mut k = Kernel {
            scheduler,
            config,
            plan,
            elastic,
            seeds,
            tracer,
            dispatch: Dispatcher::default(),
            schedule_horizon,
            slots: Vec::new(),
            fleet,
            book: RecoveryBook {
                stats: FaultRunStats::default(),
                outcomes: Vec::with_capacity(trace.len()),
                history: BTreeMap::new(),
            },
            scheduled,
            next_event: 0,
            controller,
            next_tick,
            window: AttainmentWindow::default(),
            last_time: SimTime::ZERO,
        };
        // Slots beyond the initial fleet get fault timelines too; each
        // replica draws from its own seed streams, so the first `initial`
        // timelines do not depend on the ceiling.
        k.slots = (0..max_replicas)
            .map(|r| {
                let (crashes, profile) = plan.faults.draw(r, schedule_horizon, seeds);
                let serving = r < initial;
                Slot {
                    engine: k.engine(r, &profile),
                    crashes,
                    next_crash: 0,
                    profile,
                    parked: !serving,
                    phase: if serving { Phase::Serving } else { Phase::Idle },
                    provisioned_since: serving.then_some(SimTime::ZERO),
                    outstanding: [0, 0],
                    breaker: plan.breaker.then(|| {
                        let mut b = CircuitBreaker::new();
                        if tracer.enabled() {
                            b.set_tracer(tracer.for_replica(r));
                        }
                        b
                    }),
                }
            })
            .collect();
        for (spec, target) in trace.requests().iter().zip(targets) {
            let slot = &mut k.slots[target];
            slot.admit(spec);
            slot.engine.submit(*spec);
        }
        Ok(k)
    }

    /// A fresh engine generation for slot `replica`, executing the
    /// replica's slowdown windows.
    fn engine(&self, replica: u32, profile: &ReplicaFaultProfile) -> ReplicaEngine {
        build_engine(
            self.scheduler,
            self.config,
            self.seeds,
            replica,
            profile.clone(),
            self.tracer,
        )
    }

    /// Replaces slot `r`'s engine with a fresh generation; it stays
    /// parked until work is routed to it. The replaced generation's
    /// degraded iterations are counted here, and the last generation's at
    /// `finish`, so each generation counts once.
    fn restart(&mut self, r: usize) {
        let fresh = self.engine(nums::usize_to_u32(r), &self.slots[r].profile);
        let old = std::mem::replace(&mut self.slots[r].engine, fresh);
        self.book.stats.degraded_iterations += old.degraded_iterations();
        self.slots[r].parked = true;
        if let Some(b) = self.slots[r].breaker.as_mut() {
            b.reset(); // fresh generation, fresh health history
        }
    }

    /// The next control instant: scheduled event, autoscaler tick,
    /// warm-up transition, or drain deadline — whichever is earliest.
    fn next_control(&self) -> Option<SimTime> {
        let lifecycle = self.slots.iter().filter_map(|s| match s.phase {
            Phase::Provisioning { warm_at, .. } => Some(warm_at),
            Phase::Warming { up_at, .. } => Some(up_at),
            Phase::Draining { deadline } => Some(deadline),
            Phase::Idle | Phase::Serving | Phase::Lost => None,
        });
        let event = self.scheduled.get(self.next_event).map(|e| e.at);
        [event, self.next_tick]
            .into_iter()
            .flatten()
            .chain(lifecycle)
            .min()
    }

    /// No held requests, no scheduled events left, and no lifecycle
    /// transition in flight: only autoscaler ticks remain.
    fn idle_control_plane(&self) -> bool {
        self.fleet.held.is_empty()
            && self.next_event >= self.scheduled.len()
            && self
                .slots
                .iter()
                .all(|s| matches!(s.phase, Phase::Idle | Phase::Serving | Phase::Lost))
    }

    /// Processes the control instant `t`, every runnable clock being at
    /// or past it.
    fn control_instant(&mut self, t: SimTime) {
        self.last_time = self.last_time.max(t);
        // (1) Collect freshly completed outcomes so attainment and
        // outstanding counts are current.
        for r in 0..self.slots.len() {
            if self.slots[r].phase != Phase::Lost {
                self.collect_outcomes(r);
            }
        }

        // (2) Lifecycle transitions due at t, lowest slot first.
        for r in 0..self.slots.len() {
            match self.slots[r].phase {
                Phase::Provisioning {
                    warm_at,
                    up_at,
                    decided_at,
                } if warm_at <= t => {
                    self.slots[r].phase = Phase::Warming { up_at, decided_at };
                }
                Phase::Warming { up_at, decided_at } if up_at <= t => {
                    self.restart(r);
                    let slot = &mut self.slots[r];
                    slot.next_crash = slot.crashes.partition_point(|c| c.at < up_at);
                    slot.phase = Phase::Serving;
                    let warmup_us = up_at.duration_since(decided_at).as_micros();
                    self.book.stats.warmup_wasted_us += warmup_us;
                    if self.tracer.enabled() {
                        self.tracer.for_replica(nums::usize_to_u32(r)).emit_at(
                            up_at,
                            None,
                            TraceEvent::WarmupComplete { warmup_us },
                        );
                    }
                }
                _ => {}
            }
        }

        // (3) Drain deadlines due at t: hand unfinished work to the
        // recovery path and retire the slot.
        for r in 0..self.slots.len() {
            match self.slots[r].phase {
                Phase::Draining { deadline } if deadline <= t => self.finish_drain(r, deadline),
                _ => {}
            }
        }

        // (4) Scheduled scale events due at t, in schedule order.
        while let Some(ev) = self.scheduled.get(self.next_event).copied() {
            if ev.at > t {
                break;
            }
            self.next_event += 1;
            self.apply(t, ev.action, 1);
        }

        // (5) Autoscaler tick due at t.
        if let Some(tick_at) = self.next_tick.filter(|&tick| tick <= t) {
            if let Some(mut c) = self.controller.take() {
                let obs = self.observe(tick_at, &c);
                let action = match c.tick(tick_at, &obs) {
                    AutoscaleDecision::Hold => None,
                    AutoscaleDecision::Up => Some(ScaleAction::Add),
                    AutoscaleDecision::Down => Some(ScaleAction::Drain),
                };
                if let Some(action) = action {
                    self.apply(tick_at, action, c.config().min_replicas);
                }
                self.next_tick = Some(tick_at + c.config().control_interval)
                    .filter(|&nt| nt <= self.schedule_horizon);
                self.controller = Some(c);
            }
        }

        // (6) Windowed dynamic dispatch of held requests, up to the next
        // control instant (read after this instant's transitions).
        if self.fleet.dynamic && !self.fleet.held.is_empty() {
            let window = self.next_control();
            self.dispatch_held(t, window);
        }
    }

    /// Moves slot `r`'s finished outcomes into the book.
    fn collect_outcomes(&mut self, r: usize) {
        let slot = &mut self.slots[r];
        for o in slot.engine.take_outcomes() {
            slot.release(&o.spec);
            self.book.outcomes.push(o);
        }
    }

    /// Empties slot `r` after a crash or at its drain deadline: finished
    /// outcomes go to the book, unfinished work comes back as orphans in
    /// request-id order.
    fn evacuate(&mut self, r: usize) -> Vec<OrphanedJob> {
        let mut orphans = self.slots[r].engine.take_orphans();
        self.collect_outcomes(r);
        orphans.sort_by_key(|j| j.spec.id);
        for o in &orphans {
            self.slots[r].release(&o.spec);
        }
        orphans
    }

    /// Slot `idx`'s upcoming `crash`, due at its engine clock: the slot
    /// restarts, is lost, or (if draining) retires early, and its orphans
    /// are re-dispatched.
    fn handle_crash(&mut self, idx: usize, crash: CrashEvent) {
        self.book.stats.crashes += 1;
        self.slots[idx].next_crash += 1;
        // The crash instant, not the engine clock (which may have idled
        // past it), anchors backoff and restart timing.
        self.last_time = self.last_time.max(crash.at);
        let replica_id = nums::usize_to_u32(idx);
        if self.tracer.enabled() {
            self.tracer.for_replica(replica_id).emit_at(
                crash.at,
                None,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Crash,
                    slowdown: 1.0,
                },
            );
        }

        let orphans = self.evacuate(idx);
        if matches!(self.slots[idx].phase, Phase::Draining { .. }) {
            // A crash preempts the drain: the slot retires early and the
            // scheduled restart (if any) is moot.
            self.retire(idx, crash.at);
        } else if crash.restart_at.is_some() {
            self.book.stats.restarts += 1;
            self.restart(idx);
        } else {
            // Lost for good. A parked slot meets its crash only once work
            // revives it, possibly after later control instants, so its
            // replica-time stops at the crash but the fleet log records
            // the loss at the latest instant processed.
            let slot = &mut self.slots[idx];
            slot.parked = true;
            slot.phase = Phase::Lost;
            self.fleet.replica_us += slot.deprovision(crash.at);
            self.fleet.log_fleet(self.last_time, &self.slots);
        }
        self.redispatch(orphans, crash.at, replica_id, false);
    }

    /// Slot `r`'s drain deadline: unfinished work is handed to the
    /// recovery path and the slot retires.
    fn finish_drain(&mut self, r: usize, deadline: SimTime) {
        let orphans = self.evacuate(r);
        let deadline_hit = orphans.iter().any(|o| o.prefill_done > 0);
        // Retire before re-dispatch so the drained replica is not
        // serving when its own orphans are placed.
        self.retire(r, deadline);
        let replica_id = nums::usize_to_u32(r);
        let migrated = self.redispatch(orphans, deadline, replica_id, true);
        if self.tracer.enabled() {
            self.tracer.for_replica(replica_id).emit_at(
                deadline,
                None,
                TraceEvent::DrainFinished {
                    migrated,
                    deadline_hit,
                },
            );
        }
    }

    /// Parks slot `r` and returns it to Idle at `at`, ending its
    /// replica-time.
    fn retire(&mut self, r: usize, at: SimTime) {
        let slot = &mut self.slots[r];
        slot.parked = true;
        slot.phase = Phase::Idle;
        self.fleet.replica_us += slot.deprovision(at);
        self.fleet.log_fleet(at, &self.slots);
    }

    /// Re-dispatches one batch of orphans. `anchor` is the crash instant
    /// or the drain deadline; `drain` switches on the drain-migration
    /// counters. Returns the number of orphans migrated by a drain.
    fn redispatch(
        &mut self,
        orphans: Vec<OrphanedJob>,
        anchor: SimTime,
        from_replica: u32,
        drain: bool,
    ) -> u32 {
        let serving = serving(&self.slots);
        let held_or_lost = held_or_lost(&self.slots);
        let plan = self.plan;
        let mut migrated = 0u32;
        for orphan in orphans {
            let id = orphan.spec.id;
            let history = self.book.history.entry(id).or_default();
            history.retries += 1;
            history.reprefill_tokens += u64::from(orphan.prefill_done);
            history.relegated |= orphan.relegated;
            let attempt = history.retries;

            if attempt > plan.max_retries {
                self.book.stats.retry_exhausted += 1;
                self.book.outcomes.push(RequestOutcome::unserved(
                    orphan.spec,
                    history.relegated,
                    from_replica,
                    Disposition::RetryExhausted,
                ));
                continue;
            }

            let redispatch_at =
                (anchor + RETRY_BACKOFF * u64::from(attempt)).max(orphan.spec.arrival);
            let placed = self.dispatch.orphan(
                &serving,
                held_or_lost,
                orphan.spec.priority(),
                redispatch_at,
                &self.slots,
            );
            let Some(placed) = placed else {
                self.book.stats.shed += 1;
                self.book.outcomes.push(RequestOutcome::unserved(
                    orphan.spec,
                    history.relegated,
                    from_replica,
                    Disposition::Shed,
                ));
                continue;
            };

            self.book.stats.redispatches += 1;
            if placed.diverted {
                self.book.stats.breaker_diverted += 1;
            }
            if drain {
                self.book.stats.drain_migrated += 1;
                history.drain_migrations += 1;
                migrated += 1;
            }
            if self.tracer.enabled() {
                self.tracer.for_replica(placed.slot).emit_at(
                    redispatch_at,
                    Some(id.0),
                    TraceEvent::OrphanRedispatched {
                        from_replica,
                        to_replica: placed.slot,
                        attempt,
                    },
                );
            }
            let target = &mut self.slots[nums::u32_to_usize(placed.slot)];
            target.admit(&orphan.spec);
            target.engine.submit_at(orphan.spec, redispatch_at);
            target.parked = false;
        }
        migrated
    }

    /// Applies one scale action at `now`. The first action of a run
    /// flips dispatch from the static pre-assignment to dynamic: every
    /// undelivered request is recalled into the held pool for re-routing
    /// over the live membership. A no-op action (no free slot, or the
    /// fleet is already at the serving floor) changes nothing else.
    fn apply(&mut self, now: SimTime, action: ScaleAction, min_serving: u32) {
        if !self.fleet.dynamic {
            self.fleet.dynamic = true;
            for slot in &mut self.slots {
                if slot.phase != Phase::Lost {
                    let unarrived = slot.engine.take_unarrived();
                    self.fleet.recall(slot, unarrived);
                }
            }
        }
        match action {
            ScaleAction::Add => {
                let Some(r) = self.slots.iter().position(|s| s.phase == Phase::Idle) else {
                    return; // no free slot: the ceiling is the ceiling
                };
                let before = fleet_size(&self.slots);
                let warm_at = now + self.elastic.lifecycle.provision_delay;
                let slot = &mut self.slots[r];
                slot.phase = Phase::Provisioning {
                    warm_at,
                    up_at: warm_at + self.elastic.lifecycle.warmup,
                    decided_at: now,
                };
                slot.provisioned_since = Some(now);
                self.book.stats.scale_ups += 1;
                if self.tracer.enabled() {
                    self.tracer.for_replica(nums::usize_to_u32(r)).emit_at(
                        now,
                        None,
                        TraceEvent::ScaleDecision {
                            direction: ScaleDirection::Up,
                            fleet_before: before,
                            fleet_after: before + 1,
                        },
                    );
                }
                self.fleet.log_fleet(now, &self.slots);
            }
            ScaleAction::Drain => {
                let candidates: Vec<DrainCandidate> = serving(&self.slots)
                    .into_iter()
                    .map(|replica| {
                        let [important, low] = self.slots[nums::u32_to_usize(replica)].outstanding;
                        DrainCandidate {
                            replica,
                            outstanding_important: important,
                            outstanding_low: low,
                        }
                    })
                    .collect();
                if nums::usize_to_u32(candidates.len()) <= min_serving {
                    return; // never drain the fleet empty
                }
                let Some(victim) = drain_victim(&candidates) else {
                    return;
                };
                let before = fleet_size(&self.slots);
                let deadline = now + self.elastic.lifecycle.drain_grace;
                let slot = &mut self.slots[nums::u32_to_usize(victim)];
                slot.phase = Phase::Draining { deadline };
                slot.engine.begin_drain(deadline);
                let unarrived = slot.engine.take_unarrived();
                self.fleet.recall(slot, unarrived);
                self.book.stats.scale_downs += 1;
                if self.tracer.enabled() {
                    let t = self.tracer.for_replica(victim);
                    t.emit_at(
                        now,
                        None,
                        TraceEvent::ScaleDecision {
                            direction: ScaleDirection::Down,
                            fleet_before: before,
                            fleet_after: before.saturating_sub(1),
                        },
                    );
                    t.emit_at(
                        now,
                        None,
                        TraceEvent::DrainStarted {
                            deadline_us: deadline.as_micros(),
                        },
                    );
                }
                // The drain itself keeps the slot non-idle until the
                // deadline retires it; no fleet-size change yet.
            }
        }
    }

    /// Routes held requests due before `window_end` (all of them when the
    /// schedule has no further control instant) over the serving set,
    /// earliest first. The requests left behind are not touched.
    fn dispatch_held(&mut self, now: SimTime, window_end: Option<SimTime>) {
        let serving = serving(&self.slots);
        while let Some(due) = self.fleet.held.first_entry() {
            if window_end.is_some_and(|w| due.key().0 >= w) {
                break;
            }
            // `None` only when nothing serves: retried at the next
            // control instant.
            let Some(target) = self.dispatch.held(&serving) else {
                break;
            };
            let spec = due.remove();
            let slot = &mut self.slots[nums::u32_to_usize(target)];
            slot.admit(&spec);
            slot.engine.submit_at(spec, now);
            slot.parked = false;
        }
    }

    /// Samples the autoscaler's control signals at `now`.
    fn observe(&mut self, now: SimTime, controller: &AutoscaleController) -> ControlObservation {
        let window_start = now.saturating_sub(controller.config().window);
        // Worst per-tier attainment over outcomes completed in the window.
        let per_tier = self.window.tally(&self.book.outcomes, window_start, now);
        // Attainment never exceeds 1, so an empty window reads as 1.
        let attainment = per_tier
            .values()
            .map(|&(total, violated)| 1.0 - violated as f64 / total.max(1) as f64)
            .fold(1.0, f64::min);

        let serving_set = serving(&self.slots);
        let mut queue_tokens: u64 = serving_set
            .iter()
            .map(|&r| {
                self.slots[nums::u32_to_usize(r)]
                    .engine
                    .health()
                    .queue_tokens
            })
            .sum();
        // Held requests are queue pressure only once they have actually
        // arrived: between control instants the held pool also buffers
        // future arrivals (dispatch_held routes them lazily so routing sees
        // live membership), and counting those would pin the fleet at peak.
        queue_tokens += self
            .fleet
            .held
            .range(..=(now, RequestId(u64::MAX)))
            .map(|(_, s)| u64::from(s.total_tokens()))
            .sum::<u64>();
        let serving = nums::usize_to_u32(serving_set.len());
        let warming = count(&self.slots, |p| {
            matches!(p, Phase::Provisioning { .. } | Phase::Warming { .. })
        });
        ControlObservation {
            attainment,
            queue_tokens_per_replica: queue_tokens / u64::from(serving.max(1)),
            queue_tokens,
            serving,
            warming,
        }
    }

    /// Finalizes every engine, sheds held requests that never found a
    /// serving replica (conservation holds under any schedule), stamps
    /// the recovery history onto the outcomes, and closes out
    /// replica-time.
    fn finish(
        mut self,
        requests: usize,
        observer: Option<&dyn ControlObserver>,
    ) -> ElasticRunResult {
        let book = &mut self.book;
        for slot in &mut self.slots {
            book.stats.degraded_iterations += slot.engine.degraded_iterations();
            book.outcomes.extend(slot.engine.finish());
        }
        for spec in std::mem::take(&mut self.fleet.held).into_values() {
            book.stats.shed += 1;
            book.outcomes.push(RequestOutcome::unserved(
                spec,
                false,
                u32::MAX,
                Disposition::Shed,
            ));
        }

        for o in &mut book.outcomes {
            if let Some(h) = book.history.get(&o.spec.id) {
                o.retries = h.retries;
                o.reprefill_tokens = h.reprefill_tokens;
                o.relegated |= h.relegated;
                o.drain_migrations = h.drain_migrations;
                book.stats.reprefill_tokens += h.reprefill_tokens;
            }
        }
        book.outcomes.sort_by_key(|o| o.spec.id);
        debug_assert_eq!(book.outcomes.len(), requests, "no request may be lost");
        book.stats.breaker_opens = self
            .slots
            .iter()
            .filter_map(|s| s.breaker.as_ref())
            .map(CircuitBreaker::open_count)
            .sum();

        let end = self
            .slots
            .iter()
            .map(|s| s.engine.now())
            .max()
            .unwrap_or(SimTime::ZERO)
            .max(self.last_time);
        for slot in &mut self.slots {
            self.fleet.replica_us += slot.deprovision(end);
        }
        self.tracer.flush();
        if let Some(obs) = observer {
            obs.finish(end);
        }

        ElasticRunResult {
            outcomes: self.book.outcomes,
            stats: self.book.stats,
            replica_us: self.fleet.replica_us,
            fleet: self.fleet.fleet_log,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lifecycle::LifecycleConfig;
    use qoserve_perf::HardwareConfig;
    use qoserve_sim::faults::FaultConfig;
    use qoserve_stats::{stream_to_jsonl, StatsConfig, StatsHandle};
    use qoserve_trace::{to_jsonl, RingSink};
    use qoserve_workload::{ArrivalProcess, Dataset, TraceBuilder};
    use std::cell::RefCell;
    use std::collections::BTreeSet;

    fn config() -> ClusterConfig {
        ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1())
    }

    fn trace(seed: u64, qps: f64, n: usize) -> Trace {
        TraceBuilder::new(Dataset::azure_conv())
            .arrivals(ArrivalProcess::poisson(qps))
            .num_requests(n)
            .paper_tier_mix()
            .low_priority_fraction(0.3)
            .build(&SeedStream::new(seed))
    }

    fn fast_lifecycle() -> LifecycleConfig {
        LifecycleConfig {
            provision_delay: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(3),
            drain_grace: SimDuration::from_secs(5),
        }
    }

    /// A crash due at t = 0 is handled before the slot's first step: every
    /// request pre-assigned to the slot comes back as an orphan with no
    /// work done, and the survivor serves it. The other slot's requests
    /// are untouched.
    #[test]
    fn a_crash_due_at_zero_orphans_every_request_on_its_slot() {
        let t = trace(27, 4.0, 60);
        let (spec, config, seeds) = (SchedulerSpec::qoserve(), config(), SeedStream::new(27));
        let (plan, elastic, tracer) = (FaultPlan::none(), ElasticPlan::none(), Tracer::disabled());
        let run = |mode| {
            let mut k =
                Kernel::new(&t, 2, &spec, &config, &plan, &elastic, &seeds, &tracer).unwrap();
            k.slots[0].crashes = vec![CrashEvent {
                at: SimTime::ZERO,
                restart_at: None,
            }];
            drive(k, t.len(), None, mode)
        };
        let r = run(ExecMode::sharded());
        assert_eq!(r, run(ExecMode::Lockstep), "kernels must agree");
        let targets = config.router.assign(t.requests(), 2);
        for (o, &target) in r.outcomes.iter().zip(&targets) {
            assert!(o.finished(), "{o:?}");
            assert_eq!(o.replica, 1);
            assert_eq!(o.retries, u32::from(target == 0), "{o:?}");
            assert_eq!(o.reprefill_tokens, 0);
        }
        let orphaned = targets.iter().filter(|&&r| r == 0).count();
        assert!(orphaned > 0);
        assert_eq!(
            r.stats,
            FaultRunStats {
                crashes: 1,
                redispatches: orphaned as u64,
                ..FaultRunStats::default()
            }
        );
        assert_eq!(r.fleet, [(SimTime::ZERO, 2), (SimTime::ZERO, 1)]);
    }

    /// Held dispatch every 20 s can revive a parked slot after its
    /// permanent crash instant, and the kernel sees that crash only then.
    /// The fleet log must still step forward in time: the loss is logged
    /// when it is seen. Sharded and lockstep agree on that path too.
    #[test]
    fn late_seen_losses_keep_the_fleet_log_sorted() {
        let faults = FaultConfig {
            crash_rate_per_hour: 120.0,
            restart_downtime: None,
            max_crashes_per_replica: 1,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::with_faults(faults);
        // No-op Adds at a full ceiling: dynamic dispatch, 20 s windows.
        let elastic = ElasticPlan {
            max_replicas: 3,
            schedule: (0..8)
                .map(|i| ScaleEvent {
                    at: SimTime::from_secs(1 + 20 * i),
                    action: ScaleAction::Add,
                })
                .collect(),
            ..ElasticPlan::none()
        };
        let mut lost = 0;
        for seed in 0..24 {
            let t = TraceBuilder::new(Dataset::azure_conv())
                .arrivals(ArrivalProcess::poisson(0.5))
                .num_requests(60)
                .paper_tier_mix()
                .build(&SeedStream::new(seed));
            let spec = SchedulerSpec::qoserve();
            let seeds = SeedStream::new(seed);
            let r = run_shared_elastic(&t, 3, &spec, &config(), &plan, &elastic, &seeds).unwrap();
            let lockstep = run_shared_elastic_observed_lockstep(
                &t,
                3,
                &spec,
                &config(),
                &plan,
                &elastic,
                &seeds,
                &Tracer::disabled(),
                None,
            )
            .unwrap();
            assert_eq!(r, lockstep, "seed {seed}: kernels must agree");
            assert!(
                r.fleet.windows(2).all(|w| w[0].0 <= w[1].0),
                "seed {seed}: fleet log out of order: {:?}",
                r.fleet
            );
            lost += r.stats.crashes;
        }
        assert!(lost > 0, "the runs must lose slots");
    }

    /// Crashes, breakers, an Add and a drain on a 3-slot ceiling.
    fn churn_plans() -> (FaultPlan, ElasticPlan) {
        let mut faults = FaultConfig::moderate();
        faults.crash_rate_per_hour = 400.0;
        let elastic = ElasticPlan {
            lifecycle: fast_lifecycle(),
            max_replicas: 3,
            schedule: vec![
                ScaleEvent {
                    at: SimTime::from_secs(4),
                    action: ScaleAction::Add,
                },
                ScaleEvent {
                    at: SimTime::from_secs(12),
                    action: ScaleAction::Drain,
                },
            ],
            autoscale: None,
        };
        (FaultPlan::with_faults(faults).with_breaker(), elastic)
    }

    /// One observed run with crashes, breakers, an Add and a drain gives
    /// the lockstep kernel's result, trace bytes and stats bytes on
    /// worker sets of 1 to 3 threads. Asked for 4, `drive` caps the set
    /// at one thread per slot, so it runs on 3 threads again. Until the
    /// Add, the 3-thread set's epochs hand it 2 runnable slots, fewer
    /// than its workers.
    #[test]
    fn sharded_runs_agree_at_every_thread_count() {
        let t = trace(29, 8.0, 250);
        let (spec, config, seeds) = (SchedulerSpec::qoserve(), config(), SeedStream::new(29));
        let (plan, elastic) = churn_plans();
        let run = |mode| {
            let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_secs(5)));
            let tracer = Tracer::new(stats.tee(Box::new(RingSink::new(4096))));
            let k = Kernel::new(&t, 2, &spec, &config, &plan, &elastic, &seeds, &tracer).unwrap();
            let result = drive(k, t.len(), Some(&stats), mode);
            let trace_bytes = to_jsonl(&tracer.snapshot(), tracer.dropped());
            (result, trace_bytes, stream_to_jsonl(&stats.stream()))
        };
        let lockstep = run(ExecMode::Lockstep);
        let s = lockstep.0.stats;
        assert!(s.crashes > 0 && s.redispatches > 0, "{s:?}");
        assert!(s.scale_ups > 0 && s.scale_downs > 0, "{s:?}");
        for threads in 1..=4 {
            let sharded = run(ExecMode::Sharded { threads });
            assert!(sharded == lockstep, "{threads} threads disagree");
        }
    }

    /// Records [`thread_limit`] where the kernel calls its observer.
    struct LimitProbe(RefCell<BTreeSet<usize>>);

    impl ControlObserver for LimitProbe {
        fn next_boundary(&self, after: SimTime) -> Option<SimTime> {
            Some(after + SimDuration::from_secs(5))
        }

        fn boundary(&self, _: SimTime) {
            self.0.borrow_mut().insert(thread_limit());
        }

        fn finish(&self, _: SimTime) {
            self.0.borrow_mut().insert(thread_limit());
        }
    }

    /// A kernel run on a task of a three-thread `par_map` runs serially
    /// (its observer reads `thread_limit() == 1`) and equals the top-level
    /// run, whose observer reads `QOSERVE_THREADS`.
    #[test]
    fn a_kernel_inside_a_worker_runs_serially_and_agrees() {
        let t = trace(30, 8.0, 200);
        let (plan, elastic) = churn_plans();
        let run = || {
            let probe = LimitProbe(RefCell::default());
            let result = run_shared_elastic_observed(
                &t,
                2,
                &SchedulerSpec::qoserve(),
                &config(),
                &plan,
                &elastic,
                &SeedStream::new(30),
                &Tracer::disabled(),
                Some(&probe),
            )
            .unwrap();
            (result, probe.0.into_inner())
        };
        let top = thread_limit();
        let env = std::env::var(qoserve_sim::parallel::THREADS_ENV).ok();
        if let Some(n) = env.and_then(|v| v.trim().parse::<usize>().ok()) {
            assert!(n == 0 || top == n, "the top level reads QOSERVE_THREADS");
        }
        let (result, seen) = run();
        assert_eq!(seen, BTreeSet::from([top]));
        for (nested, seen) in qoserve_sim::par_map_threads(3, vec![(); 3], |_, ()| run()) {
            assert_eq!(seen, BTreeSet::from([1]), "a nested kernel runs serially");
            assert!(
                nested == result,
                "a nested run must equal the top-level one"
            );
        }
    }

    /// Each engine generation's degraded iterations count once: on a run
    /// with straggler windows throughout, one drain that is never
    /// re-provisioned, one crash with a restart and one without, the
    /// counter equals the traced slowdown records.
    #[test]
    fn degraded_iterations_count_each_engine_generation_once() {
        let t = trace(22, 8.0, 250);
        let faults = FaultConfig {
            straggler_rate_per_hour: 360_000.0,
            straggler_duration: SimDuration::from_secs(60),
            straggler_factor: 2.0,
            ..FaultConfig::none()
        };
        let (plan, spec, seeds) = (
            FaultPlan::with_faults(faults),
            SchedulerSpec::qoserve(),
            SeedStream::new(22),
        );
        let elastic = ElasticPlan {
            lifecycle: fast_lifecycle(),
            max_replicas: 3,
            schedule: vec![ScaleEvent {
                at: SimTime::from_secs(5),
                action: ScaleAction::Drain,
            }],
            autoscale: None,
        };
        let config = config();
        let run = |mode| {
            let tracer = Tracer::unbounded();
            let mut k =
                Kernel::new(&t, 3, &spec, &config, &plan, &elastic, &seeds, &tracer).unwrap();
            for (slot, restart_at) in [(0, Some(SimTime::from_secs(9))), (1, None)] {
                k.slots[slot].crashes = vec![CrashEvent {
                    at: SimTime::from_secs(8),
                    restart_at,
                }];
            }
            let result = drive(k, t.len(), None, mode);
            let slowdowns = tracer
                .snapshot()
                .iter()
                .filter(|r| {
                    matches!(
                        r.event,
                        TraceEvent::FaultInjected {
                            kind: FaultKind::Slowdown,
                            ..
                        }
                    )
                })
                .count();
            (result, slowdowns as u64)
        };
        let (r, slowdowns) = run(ExecMode::sharded());
        assert_eq!(
            (r.stats.scale_downs, r.stats.crashes),
            (1, 2),
            "{:?}",
            r.stats
        );
        assert_eq!(r.stats.restarts, 1);
        assert!(r.stats.degraded_iterations > 0);
        assert_eq!(r.stats.degraded_iterations, slowdowns);
        assert_eq!(
            run(ExecMode::Lockstep),
            (r, slowdowns),
            "kernels must agree"
        );
    }

    #[test]
    fn zero_scale_events_match_a_fixed_fleet_bit_for_bit() {
        let t = trace(21, 6.0, 200);
        let plan = FaultPlan::with_faults(FaultConfig::moderate().scaled(2.0));
        let run = |elastic: &ElasticPlan| {
            run_shared_elastic(
                &t,
                3,
                &SchedulerSpec::qoserve(),
                &config(),
                &plan,
                elastic,
                &SeedStream::new(21),
            )
            .unwrap()
        };
        let base = run(&ElasticPlan::none());
        // A larger ceiling adds idle slots only; the lifecycle filter
        // keeps them out of every dispatch decision.
        let headroom = run(&ElasticPlan {
            max_replicas: 6,
            ..ElasticPlan::none()
        });
        assert_eq!(headroom.outcomes, base.outcomes);
        assert_eq!(headroom.stats, base.stats);
    }

    #[test]
    fn scale_up_and_drain_conserve_every_request() {
        let t = trace(22, 8.0, 250);
        let elastic = ElasticPlan {
            lifecycle: fast_lifecycle(),
            max_replicas: 4,
            schedule: vec![
                ScaleEvent {
                    at: SimTime::from_secs(3),
                    action: ScaleAction::Add,
                },
                ScaleEvent {
                    at: SimTime::from_secs(10),
                    action: ScaleAction::Drain,
                },
                ScaleEvent {
                    at: SimTime::from_secs(14),
                    action: ScaleAction::Add,
                },
            ],
            autoscale: None,
        };
        let run = || {
            run_shared_elastic(
                &t,
                2,
                &SchedulerSpec::qoserve(),
                &config(),
                &FaultPlan::none(),
                &elastic,
                &SeedStream::new(22),
            )
            .unwrap()
        };
        let a = run();
        assert_eq!(a, run(), "same seed must replay bit-identically");
        assert_eq!(a.outcomes.len(), t.len());
        for (i, o) in a.outcomes.iter().enumerate() {
            assert_eq!(o.spec.id.0, i as u64, "one outcome per request, by id");
        }
        assert_eq!(a.stats.scale_ups, 2);
        assert_eq!(a.stats.scale_downs, 1);
        assert!(a.replica_us > 0);
        assert!(a.fleet.len() > 1, "membership changes must be logged");
    }

    #[test]
    fn drain_migrates_in_flight_work() {
        // Saturate two replicas then drain one with a short grace: the
        // victim's unfinished work must migrate, not vanish.
        let t = trace(23, 20.0, 300);
        let elastic = ElasticPlan {
            lifecycle: LifecycleConfig {
                drain_grace: SimDuration::from_millis(200),
                ..fast_lifecycle()
            },
            max_replicas: 2,
            schedule: vec![ScaleEvent {
                at: SimTime::from_secs(5),
                action: ScaleAction::Drain,
            }],
            autoscale: None,
        };
        let r = run_shared_elastic(
            &t,
            2,
            &SchedulerSpec::qoserve(),
            &config(),
            &FaultPlan::none(),
            &elastic,
            &SeedStream::new(23),
        )
        .unwrap();
        assert_eq!(r.outcomes.len(), t.len());
        assert_eq!(r.stats.scale_downs, 1);
        assert!(
            r.stats.drain_migrated > 0,
            "a saturated replica drained on a 200ms grace must migrate work"
        );
        assert!(
            r.outcomes.iter().any(|o| o.drain_migrations > 0),
            "migrations must be stamped on outcomes"
        );
    }

    #[test]
    fn elastic_sharded_matches_lockstep_bit_for_bit() {
        let t = trace(24, 8.0, 250);
        let mut faults = FaultConfig::moderate();
        faults.crash_rate_per_hour = 400.0;
        let plan = FaultPlan::with_faults(faults);
        let elastic = ElasticPlan {
            lifecycle: fast_lifecycle(),
            max_replicas: 5,
            schedule: vec![
                ScaleEvent {
                    at: SimTime::from_secs(4),
                    action: ScaleAction::Add,
                },
                ScaleEvent {
                    at: SimTime::from_secs(12),
                    action: ScaleAction::Drain,
                },
            ],
            autoscale: None,
        };
        let sharded = run_shared_elastic(
            &t,
            3,
            &SchedulerSpec::qoserve(),
            &config(),
            &plan,
            &elastic,
            &SeedStream::new(24),
        )
        .unwrap();
        let lockstep = run_shared_elastic_observed_lockstep(
            &t,
            3,
            &SchedulerSpec::qoserve(),
            &config(),
            &plan,
            &elastic,
            &SeedStream::new(24),
            &Tracer::disabled(),
            None,
        )
        .unwrap();
        assert!(sharded.stats.crashes > 0, "differential must see faults");
        assert_eq!(sharded, lockstep, "kernels must agree bit-for-bit");
    }

    #[test]
    fn autoscaler_grows_fleet_under_pressure() {
        // One replica at high load with headroom to 4: attainment/queue
        // pressure must provision more capacity.
        let t = trace(25, 14.0, 400);
        let elastic = ElasticPlan {
            lifecycle: fast_lifecycle(),
            max_replicas: 4,
            schedule: Vec::new(),
            autoscale: Some(crate::autoscale::AutoscaleConfig {
                control_interval: SimDuration::from_secs(5),
                window: SimDuration::from_secs(20),
                min_replicas: 1,
                max_replicas: 4,
                queue_high_tokens: 2_000,
                queue_low_tokens: 500,
                cooldown: SimDuration::from_secs(10),
                ..crate::autoscale::AutoscaleConfig::default()
            }),
        };
        let r = run_shared_elastic(
            &t,
            1,
            &SchedulerSpec::qoserve(),
            &config(),
            &FaultPlan::none(),
            &elastic,
            &SeedStream::new(25),
        )
        .unwrap();
        assert_eq!(r.outcomes.len(), t.len());
        assert!(r.stats.scale_ups > 0, "pressure must trigger scale-up");
        assert!(r.stats.warmup_wasted_us > 0, "scale-ups pay warm-up");
        assert!(
            r.fleet.iter().any(|&(_, size)| size > 1),
            "the fleet log must show growth: {:?}",
            r.fleet
        );
    }

    /// The full rescan the window replaces: per-tier `(completed,
    /// violated)` over every outcome completed in `(window_start, now]`.
    fn rescan(
        outcomes: &[RequestOutcome],
        window_start: SimTime,
        now: SimTime,
    ) -> BTreeMap<TierId, (u64, u64)> {
        let mut per_tier: BTreeMap<TierId, (u64, u64)> = BTreeMap::new();
        for o in outcomes {
            let Some(c) = o.completion else { continue };
            if c <= window_start || c > now {
                continue;
            }
            let e = per_tier.entry(o.tier()).or_insert((0, 0));
            e.0 += 1;
            if o.violated() {
                e.1 += 1;
            }
        }
        per_tier
    }

    /// Random outcome batches between strictly increasing ticks: unserved
    /// outcomes without a completion, completions already outside the
    /// window when collected, completions inside it, and completions after
    /// the tick. Times are whole seconds so that completions often land
    /// exactly on a window start or a tick. The incremental tally equals
    /// the full rescan at every tick.
    #[test]
    fn attainment_window_matches_a_full_rescan() {
        use qoserve_sim::time::SignedDuration;
        use qoserve_sim::{forall, Rng};

        let specs = trace(26, 5.0, 300);
        forall(256, 26, |rng| {
            let window = rng.gen_range(1..10u64);
            let mut w = AttainmentWindow::default();
            let mut outcomes = Vec::new();
            let mut secs = 0;
            for _ in 0..rng.gen_range(1..40) {
                secs += rng.gen_range(1..=window + 1);
                let window_start = SimTime::from_secs(secs.saturating_sub(window));
                for _ in 0..rng.gen_range(0..12) {
                    let spec = specs.requests()[outcomes.len() % specs.len()];
                    let unserved = RequestOutcome::unserved(spec, false, 0, Disposition::Shed);
                    let outcome = if rng.gen_range(0..5) == 0 {
                        unserved
                    } else {
                        // From two windows before the tick to one after.
                        let from = secs.saturating_sub(2 * window);
                        let completion = rng.gen_range(from..=secs + window);
                        let lateness = rng.gen_range(-1_000_000..1_000_000);
                        RequestOutcome {
                            completion: Some(SimTime::from_secs(completion)),
                            worst_token_lateness: SignedDuration::from_micros(lateness),
                            disposition: Disposition::Completed,
                            ..unserved
                        }
                    };
                    outcomes.push(outcome);
                }
                let now = SimTime::from_secs(secs);
                assert_eq!(
                    w.tally(&outcomes, window_start, now),
                    rescan(&outcomes, window_start, now),
                    "tick at {now:?} over {} outcomes",
                    outcomes.len()
                );
            }
        });
    }
}
