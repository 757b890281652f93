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
//! the next control instant are routed over the currently serving
//! replicas by a [`FleetRouter`]. Held requests with no serving target
//! are retried at the next control instant and terminally shed at the
//! horizon — no request is ever silently dropped.
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

use std::collections::{BTreeMap, BTreeSet};

use qoserve_engine::{OrphanedJob, ReplicaEngine, ReplicaState};
use qoserve_metrics::{Disposition, RequestOutcome};
use qoserve_sim::faults::FaultSchedule;
use qoserve_sim::nums;
use qoserve_sim::{SeedStream, SimDuration, SimTime};
use qoserve_trace::{ControlObserver, FaultKind, ScaleDirection, TraceEvent, Tracer};
use qoserve_workload::{Priority, RequestId, RequestSpec, TierId, Trace};

use crate::autoscale::{AutoscaleController, AutoscaleDecision, ControlObservation};
use crate::breaker::{pick_target, CircuitBreaker};
use crate::deployment::{build_engine, ClusterConfig};
use crate::lifecycle::{
    drain_victim, DrainCandidate, ElasticPlan, FleetRouter, ScaleAction, ScaleEvent,
};
use crate::recovery::{
    advance_to_barrier, pending_crash_barrier, FaultPlan, FaultRunStats, Slot, UpSetIndex,
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
    /// with the initial fleet at time zero.
    pub fleet: Vec<(SimTime, u32)>,
}

/// Where one slot is in the replica lifecycle. The engine-facing
/// states (`Up`/`Degraded`/`Down`) stay inside the engine; these phases
/// are the cluster-side control-plane view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Unprovisioned slot (or retired replica); holds no capacity.
    Idle,
    /// Capacity allocated at `decided_at`; model load starts at
    /// `warm_at`, serving starts at `up_at`.
    Provisioning {
        warm_at: SimTime,
        up_at: SimTime,
        decided_at: SimTime,
    },
    /// Model loading; serving starts at `up_at`.
    Warming { up_at: SimTime, decided_at: SimTime },
    /// Serving traffic (possibly crashed-and-restarting under faults).
    Serving,
    /// Admission stopped; running work finishes until `deadline`.
    Draining { deadline: SimTime },
}

/// Mutable lifecycle state of the fleet, separate from the engine slots.
struct FleetState {
    phases: Vec<Phase>,
    /// When each slot's current provisioning began (replica-time accrual
    /// anchor); `None` while idle.
    provisioned_since: Vec<Option<SimTime>>,
    /// Requests submitted to each slot and not yet resolved, split
    /// `[important, low]` — the drain-victim signal.
    outstanding: Vec<[u64; 2]>,
    /// Undelivered requests recalled from engines, awaiting dynamic
    /// dispatch.
    held: Vec<RequestSpec>,
    /// False until the first applied scale action; while false the
    /// static pre-assignment stands untouched.
    dynamic: bool,
    router: FleetRouter,
    fleet_log: Vec<(SimTime, u32)>,
    replica_us: u64,
    /// Per-request drain-migration counts, stamped onto outcomes at the
    /// end like retries.
    drain_migrations: BTreeMap<RequestId, u32>,
}

impl FleetState {
    fn prio_ix(spec: &RequestSpec) -> usize {
        usize::from(spec.priority() == Priority::Low)
    }

    /// `spec` was submitted to slot `r`.
    fn admit(&mut self, r: usize, spec: &RequestSpec) {
        self.outstanding[r][Self::prio_ix(spec)] += 1;
    }

    /// `spec` left slot `r`: resolved, orphaned, or recalled.
    fn release(&mut self, r: usize, spec: &RequestSpec) {
        let n = &mut self.outstanding[r][Self::prio_ix(spec)];
        *n = n.saturating_sub(1);
    }

    /// Moves requests recalled from slot `r` into the held pool.
    fn recall(&mut self, r: usize, specs: Vec<RequestSpec>) {
        for spec in specs {
            self.release(r, &spec);
            self.held.push(spec);
        }
    }

    /// Provisioned fleet size: every non-idle slot, draining included.
    fn fleet_size(&self) -> u32 {
        nums::usize_to_u32(
            self.phases
                .iter()
                .filter(|p| !matches!(p, Phase::Idle))
                .count(),
        )
    }

    fn log_fleet(&mut self, at: SimTime) {
        let size = self.fleet_size();
        if self.fleet_log.last().map(|&(_, s)| s) != Some(size) {
            self.fleet_log.push((at, size));
        }
    }

    /// The per-slot [`ReplicaState`] view used for routing filters.
    fn lifecycle_states(&self, slots: &[Slot]) -> Vec<ReplicaState> {
        self.phases
            .iter()
            .zip(slots)
            .map(|(p, s)| match p {
                _ if s.dead => ReplicaState::Down,
                Phase::Idle => ReplicaState::Down,
                Phase::Provisioning { .. } => ReplicaState::Provisioning,
                Phase::Warming { .. } => ReplicaState::Warming,
                Phase::Serving => ReplicaState::Up,
                Phase::Draining { .. } => ReplicaState::Draining,
            })
            .collect()
    }

    /// Serving replicas (ascending), the dynamic-dispatch target set.
    fn serving(&self, slots: &[Slot]) -> Vec<u32> {
        self.phases
            .iter()
            .enumerate()
            .filter(|(r, p)| matches!(p, Phase::Serving) && !slots[*r].dead)
            .map(|(r, _)| nums::usize_to_u32(r))
            .collect()
    }

    /// Stops replica-time accrual for slot `r` at `at`.
    fn deprovision(&mut self, r: usize, at: SimTime) {
        if let Some(since) = self.provisioned_since[r].take() {
            self.replica_us += at.duration_since(since).as_micros();
        }
    }

    fn retire(&mut self, r: usize, at: SimTime) {
        self.phases[r] = Phase::Idle;
        self.deprovision(r, at);
        self.log_fleet(at);
    }
}

/// Retry/re-prefill bookkeeping shared by the crash and drain handoff
/// paths.
struct RecoveryBook {
    stats: FaultRunStats,
    outcomes: Vec<RequestOutcome>,
    retries: BTreeMap<RequestId, u32>,
    reprefill: BTreeMap<RequestId, u64>,
    relegated_ids: BTreeSet<RequestId>,
    rotation: u64,
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
    run_elastic_inner(
        trace,
        replicas,
        scheduler,
        config,
        plan,
        elastic,
        seeds,
        &Tracer::disabled(),
        None,
        ExecMode::Sharded,
    )
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
/// both kernels). Observation is contractually invisible: outcomes,
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
    run_elastic_inner(
        trace,
        replicas,
        scheduler,
        config,
        plan,
        elastic,
        seeds,
        tracer,
        observer,
        ExecMode::Sharded,
    )
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
    run_elastic_inner(
        trace,
        replicas,
        scheduler,
        config,
        plan,
        elastic,
        seeds,
        tracer,
        observer,
        ExecMode::Lockstep,
    )
}

/// Which kernel drives a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ExecMode {
    /// Two-phase sharded kernel: parallel replica-local advancement
    /// between barriers, lockstep only around crashes and control
    /// instants.
    Sharded,
    /// The single-threaded min-now kernel, start to finish.
    Lockstep,
}

/// The kernel loop. Each pass either fires an observation boundary,
/// processes a control instant, or takes one min-now lockstep step
/// (handling a crash when the step halts on one). In sharded mode every
/// resync first advances all runnable replicas in parallel up to the
/// next barrier — the earliest pending crash, control instant, or
/// observation boundary — so the lockstep steps only cover barrier
/// neighbourhoods. See the module docs for the synchronization argument.
#[expect(
    clippy::too_many_arguments,
    reason = "each argument is an independent run input: trace, fleet, scheduler, faults, scaling, seeds and observation"
)]
fn run_elastic_inner(
    trace: &Trace,
    replicas: u32,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    plan: &FaultPlan,
    elastic: &ElasticPlan,
    seeds: &SeedStream,
    tracer: &Tracer,
    observer: Option<&dyn ControlObserver>,
    mode: ExecMode,
) -> Result<ElasticRunResult, RouterError> {
    let mut k = Kernel::new(
        trace, replicas, scheduler, config, plan, elastic, seeds, tracer,
    )?;
    let sharded = matches!(mode, ExecMode::Sharded);
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
            advance_to_barrier(&mut k.slots, &mut k.breakers, barrier);
            resync = false;
        }
        // The min-now lockstep pick: the runnable engine furthest behind
        // (ties to the lowest index). Its clock is the fleet's minimum
        // runnable clock, which gates the barriers below.
        let pick = k
            .slots
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.dead && !s.parked)
            .min_by_key(|(_, s)| s.engine.now())
            .map(|(i, _)| i);
        let min_runnable = pick.map(|i| k.slots[i].engine.now());

        // Fire the observation boundary once every runnable clock has
        // reached it. With nothing runnable the run is over and the
        // remaining window folds at `finish` instead — firing here would
        // tick forever (boundaries never run out).
        if let (Some(obs), Some(t)) = (observer, next_obs) {
            if min_runnable.is_some_and(|m| m >= t) {
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
            if slot.engine.step() {
                if let Some(b) = k.breakers.get_mut(idx) {
                    // Health reads are pure: observing never perturbs the
                    // engine's own timeline.
                    b.observe(&slot.engine.health(), slot.engine.now());
                }
                continue;
            }
            if !slot.engine.crashed() {
                slot.parked = true; // drained (or horizon); may be revived
                continue;
            }
            k.handle_crash(idx);
        }
        debug_assert_eq!(
            k.fleet.outstanding.iter().flatten().sum::<u64>()
                + nums::usize_to_u64(k.fleet.held.len() + k.book.outcomes.len()),
            nums::usize_to_u64(trace.len()),
            "every request is outstanding on one slot, held, or resolved"
        );
        resync = sharded;
    }
    Ok(k.finish(trace.len(), observer))
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
    schedule: FaultSchedule,
    schedule_horizon: SimTime,
    up_index: UpSetIndex,
    slots: Vec<Slot>,
    /// One breaker per slot when the plan enables them; empty otherwise
    /// (dispatch then degenerates to plain round-robin).
    breakers: Vec<CircuitBreaker>,
    fleet: FleetState,
    book: RecoveryBook,
    /// Scheduled scale events sorted by time (ties keep schedule order);
    /// `next_event` indexes the first one not yet applied.
    scheduled: Vec<ScaleEvent>,
    next_event: usize,
    controller: Option<AutoscaleController>,
    next_tick: Option<SimTime>,
    /// Latest control or crash instant processed; replica-time accrues
    /// at least up to it.
    last_time: SimTime,
}

impl<'a> Kernel<'a> {
    /// Builds the fleet: the router's static assignment is submitted to
    /// the first `replicas` slots, and slots up to the plan's ceiling
    /// start idle.
    #[expect(
        clippy::too_many_arguments,
        reason = "the run inputs of `run_elastic_inner` the fleet is built from"
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
        // Slots beyond the initial fleet get fault timelines too; the
        // per-(class, replica) seed streams keep the first `initial`
        // timelines independent of the ceiling.
        let schedule = FaultSchedule::generate(
            &plan.faults,
            max_replicas,
            schedule_horizon,
            &seeds.child("faults"),
        );
        let breakers = plan
            .breaker
            .map(|cfg| {
                (0..max_replicas)
                    .map(|r| {
                        let mut b = CircuitBreaker::new(cfg);
                        if tracer.enabled() {
                            b.set_tracer(tracer.for_replica(r));
                        }
                        b
                    })
                    .collect()
            })
            .unwrap_or_default();
        let fleet = FleetState {
            phases: (0..max_replicas)
                .map(|r| {
                    if r < initial {
                        Phase::Serving
                    } else {
                        Phase::Idle
                    }
                })
                .collect(),
            provisioned_since: (0..max_replicas)
                .map(|r| (r < initial).then_some(SimTime::ZERO))
                .collect(),
            outstanding: vec![[0, 0]; nums::u32_to_usize(max_replicas)],
            held: Vec::new(),
            dynamic: false,
            router: FleetRouter::new(config.router),
            fleet_log: vec![(SimTime::ZERO, initial)],
            replica_us: 0,
            drain_migrations: BTreeMap::new(),
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
            up_index: UpSetIndex::build(&schedule, max_replicas),
            schedule,
            schedule_horizon,
            slots: Vec::new(),
            breakers,
            fleet,
            book: RecoveryBook {
                stats: FaultRunStats::default(),
                outcomes: Vec::with_capacity(trace.len()),
                retries: BTreeMap::new(),
                reprefill: BTreeMap::new(),
                relegated_ids: BTreeSet::new(),
                rotation: 0,
            },
            scheduled,
            next_event: 0,
            controller,
            next_tick,
            last_time: SimTime::ZERO,
        };
        k.slots = (0..max_replicas)
            .map(|r| Slot {
                engine: k.engine(r, SimTime::ZERO),
                crashes: k.schedule.crashes_for(r),
                next_crash: 0,
                parked: r >= initial,
                dead: false,
            })
            .collect();
        for (spec, target) in trace.requests().iter().zip(targets) {
            k.fleet.admit(target, spec);
            k.slots[target].engine.submit(*spec);
        }
        Ok(k)
    }

    /// A fresh engine generation for slot `replica`, its fault profile
    /// starting at `from`.
    fn engine(&self, replica: u32, from: SimTime) -> ReplicaEngine {
        build_engine(
            self.scheduler,
            self.config,
            self.seeds,
            replica,
            self.schedule.profile_for(replica, from),
            self.tracer,
        )
    }

    /// Replaces slot `r`'s engine with a fresh generation starting at
    /// `from`; it stays parked until work is routed to it.
    fn restart(&mut self, r: usize, from: SimTime) {
        self.slots[r].engine = self.engine(nums::usize_to_u32(r), from);
        self.slots[r].parked = true;
        if let Some(b) = self.breakers.get_mut(r) {
            b.reset(); // fresh generation, fresh health history
        }
    }

    /// The next control instant: scheduled event, autoscaler tick,
    /// warm-up transition, or drain deadline — whichever is earliest.
    fn next_control(&self) -> Option<SimTime> {
        let lifecycle = self.fleet.phases.iter().filter_map(|p| match *p {
            Phase::Provisioning { warm_at, .. } => Some(warm_at),
            Phase::Warming { up_at, .. } => Some(up_at),
            Phase::Draining { deadline } => Some(deadline),
            Phase::Idle | Phase::Serving => None,
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
                .fleet
                .phases
                .iter()
                .all(|p| matches!(p, Phase::Idle | Phase::Serving))
    }

    /// Processes the control instant `t`, every runnable clock being at
    /// or past it.
    fn control_instant(&mut self, t: SimTime) {
        self.last_time = self.last_time.max(t);
        // (1) Collect freshly completed outcomes so attainment and
        // outstanding counts are current.
        for r in 0..self.slots.len() {
            if !self.slots[r].dead {
                self.collect_outcomes(r);
            }
        }

        // (2) Lifecycle transitions due at t, lowest slot first.
        for r in 0..self.slots.len() {
            match self.fleet.phases[r] {
                Phase::Provisioning {
                    warm_at,
                    up_at,
                    decided_at,
                } if warm_at <= t => {
                    self.fleet.phases[r] = Phase::Warming { up_at, decided_at };
                }
                Phase::Warming { up_at, decided_at } if up_at <= t => {
                    self.restart(r, up_at);
                    let slot = &mut self.slots[r];
                    slot.next_crash = slot.crashes.partition_point(|c| c.at < up_at);
                    slot.dead = false;
                    self.fleet.phases[r] = Phase::Serving;
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
            match self.fleet.phases[r] {
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
                let (action, n) = match c.tick(tick_at, &obs) {
                    AutoscaleDecision::Hold => (ScaleAction::Add, 0),
                    AutoscaleDecision::Up(n) => (ScaleAction::Add, n),
                    AutoscaleDecision::Down(n) => (ScaleAction::Drain, n),
                };
                for _ in 0..n {
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
        for o in self.slots[r].engine.take_outcomes() {
            self.fleet.release(r, &o.spec);
            self.book.outcomes.push(o);
        }
    }

    /// Empties slot `r` after a crash or at its drain deadline: finished
    /// outcomes go to the book, unfinished work comes back as orphans in
    /// request-id order.
    fn evacuate(&mut self, r: usize) -> Vec<OrphanedJob> {
        let mut orphans = self.slots[r].engine.take_orphans();
        self.book.stats.degraded_iterations += self.slots[r].engine.degraded_iterations();
        self.collect_outcomes(r);
        orphans.sort_by_key(|j| j.spec.id);
        for o in &orphans {
            self.fleet.release(r, &o.spec);
        }
        orphans
    }

    /// The crash that halted slot `idx`: the slot restarts, dies, or (if
    /// draining) retires early, and its orphans are re-dispatched.
    fn handle_crash(&mut self, idx: usize) {
        self.book.stats.crashes += 1;
        let slot = &mut self.slots[idx];
        let crash = slot.crashes.get(slot.next_crash).copied();
        slot.next_crash += 1;
        // The schedule's crash instant, not the engine clock (which may
        // have idled past it), anchors backoff and restart timing.
        let crash_at = crash.map_or(slot.engine.now(), |c| c.at);
        self.last_time = self.last_time.max(crash_at);
        let replica_id = nums::usize_to_u32(idx);
        if self.tracer.enabled() {
            self.tracer.for_replica(replica_id).emit_at(
                crash_at,
                None,
                TraceEvent::FaultInjected {
                    kind: FaultKind::Crash,
                    slowdown: 1.0,
                },
            );
        }

        let orphans = self.evacuate(idx);
        if matches!(self.fleet.phases[idx], Phase::Draining { .. }) {
            // A crash preempts the drain: the slot retires early and the
            // scheduled restart (if any) is moot.
            self.slots[idx].parked = true;
            self.fleet.retire(idx, crash_at);
        } else if let Some(restart_at) = crash.and_then(|c| c.restart_at) {
            self.book.stats.restarts += 1;
            self.restart(idx, restart_at);
        } else {
            self.slots[idx].dead = true;
            self.fleet.deprovision(idx, crash_at);
        }
        self.redispatch(orphans, crash_at, replica_id, false);
    }

    /// Slot `r`'s drain deadline: unfinished work is handed to the
    /// recovery path and the slot retires.
    fn finish_drain(&mut self, r: usize, deadline: SimTime) {
        let orphans = self.evacuate(r);
        let deadline_hit = orphans.iter().any(|o| o.prefill_done > 0);
        self.slots[r].parked = true;
        // Retire before re-dispatch so the drained replica is
        // lifecycle-inadmissible for its own orphans.
        self.fleet.retire(r, deadline);
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
        let states = self.fleet.lifecycle_states(&self.slots);
        let denom = self.fleet.fleet_size().max(1);
        let plan = self.plan;
        let mut migrated = 0u32;
        for orphan in orphans {
            let id = orphan.spec.id;
            let attempt = {
                let a = self.book.retries.entry(id).or_insert(0);
                *a += 1;
                *a
            };
            if orphan.prefill_done > 0 {
                *self.book.reprefill.entry(id).or_insert(0) += u64::from(orphan.prefill_done);
            }
            if orphan.relegated {
                self.book.relegated_ids.insert(id);
            }
            let was_relegated = self.book.relegated_ids.contains(&id);

            if attempt > plan.max_retries {
                self.book.stats.retry_exhausted += 1;
                self.book.outcomes.push(RequestOutcome::unserved(
                    orphan.spec,
                    was_relegated,
                    from_replica,
                    Disposition::RetryExhausted,
                ));
                continue;
            }

            let redispatch_at =
                (anchor + plan.retry_backoff * u64::from(attempt)).max(orphan.spec.arrival);
            // Lifecycle filter *before* the fraction: replicas the schedule
            // thinks are up but the control plane holds idle/warming must
            // neither receive work nor count as surviving capacity.
            let up: Vec<u32> = self
                .up_index
                .up_at(redispatch_at)
                .iter()
                .copied()
                .filter(|&r| {
                    states
                        .get(nums::u32_to_usize(r))
                        .is_none_or(|s| s.accepts_work())
                })
                .collect();
            let up_fraction = up.len() as f64 / denom as f64;
            let low_capacity = up_fraction < plan.shed_below_up_fraction
                && orphan.spec.priority() == Priority::Low;
            // Breaker-aware selection prefers healthy targets but falls
            // back to the full up-set — it may delay work, never strand
            // it. `None` if and only if no replica is up at all.
            let picked = if low_capacity {
                None
            } else {
                pick_target(&up, &[], &self.breakers, self.book.rotation, redispatch_at)
            };
            let Some(picked) = picked else {
                self.book.stats.shed += 1;
                self.book.outcomes.push(RequestOutcome::unserved(
                    orphan.spec,
                    was_relegated,
                    from_replica,
                    Disposition::Shed,
                ));
                continue;
            };

            self.book.stats.redispatches += 1;
            if picked.diverted {
                self.book.stats.breaker_diverted += 1;
            }
            if drain {
                self.book.stats.drain_migrated += 1;
                *self.fleet.drain_migrations.entry(id).or_insert(0) += 1;
                migrated += 1;
            }
            let target = nums::u32_to_usize(picked.replica);
            self.book.rotation += 1;
            if self.tracer.enabled() {
                self.tracer.for_replica(picked.replica).emit_at(
                    redispatch_at,
                    Some(id.0),
                    TraceEvent::OrphanRedispatched {
                        from_replica,
                        to_replica: picked.replica,
                        attempt,
                    },
                );
            }
            self.fleet.admit(target, &orphan.spec);
            self.slots[target]
                .engine
                .submit_at(orphan.spec, redispatch_at);
            self.slots[target].parked = false;
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
            for r in 0..self.slots.len() {
                if !self.slots[r].dead {
                    let unarrived = self.slots[r].engine.take_unarrived();
                    self.fleet.recall(r, unarrived);
                }
            }
        }
        match action {
            ScaleAction::Add => {
                let Some(r) = self
                    .fleet
                    .phases
                    .iter()
                    .zip(&self.slots)
                    .position(|(p, s)| matches!(p, Phase::Idle) && !s.dead)
                else {
                    return; // no free slot: the ceiling is the ceiling
                };
                let before = self.fleet.fleet_size();
                let warm_at = now + self.elastic.lifecycle.provision_delay;
                self.fleet.phases[r] = Phase::Provisioning {
                    warm_at,
                    up_at: warm_at + self.elastic.lifecycle.warmup,
                    decided_at: now,
                };
                self.fleet.provisioned_since[r] = Some(now);
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
                self.fleet.log_fleet(now);
            }
            ScaleAction::Drain => {
                let candidates: Vec<DrainCandidate> = self
                    .fleet
                    .serving(&self.slots)
                    .into_iter()
                    .map(|replica| {
                        let [important, low] = self.fleet.outstanding[nums::u32_to_usize(replica)];
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
                let r = nums::u32_to_usize(victim);
                let before = self.fleet.fleet_size();
                let deadline = now + self.elastic.lifecycle.drain_grace;
                self.fleet.phases[r] = Phase::Draining { deadline };
                self.slots[r].engine.begin_drain(deadline);
                let unarrived = self.slots[r].engine.take_unarrived();
                self.fleet.recall(r, unarrived);
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
    /// schedule has no further control instant) over the serving set.
    fn dispatch_held(&mut self, now: SimTime, window_end: Option<SimTime>) {
        self.fleet.held.sort_by_key(|s| (s.arrival, s.id));
        let serving = self.fleet.serving(&self.slots);
        if serving.is_empty() {
            return; // retried at the next control instant
        }
        let mut kept = Vec::new();
        for spec in std::mem::take(&mut self.fleet.held) {
            if window_end.is_some_and(|w| spec.arrival >= w) {
                kept.push(spec);
                continue;
            }
            match self.fleet.router.route(&serving) {
                Some(target) => {
                    let t = nums::u32_to_usize(target);
                    self.fleet.admit(t, &spec);
                    self.slots[t].engine.submit_at(spec, now);
                    self.slots[t].parked = false;
                }
                None => kept.push(spec),
            }
        }
        self.fleet.held = kept;
    }

    /// Samples the autoscaler's control signals at `now`.
    fn observe(&self, now: SimTime, controller: &AutoscaleController) -> ControlObservation {
        let window_start = now.saturating_sub(controller.config().window);
        // Worst per-tier attainment over outcomes completed in the window.
        let mut per_tier: BTreeMap<TierId, (u64, u64)> = BTreeMap::new();
        for o in &self.book.outcomes {
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
        // Attainment never exceeds 1, so an empty window reads as 1.
        let attainment = per_tier
            .values()
            .map(|&(total, violated)| 1.0 - violated as f64 / total.max(1) as f64)
            .fold(1.0, f64::min);

        let serving_set = self.fleet.serving(&self.slots);
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
            .iter()
            .filter(|s| s.arrival <= now)
            .map(|s| u64::from(s.total_tokens()))
            .sum::<u64>();
        let serving = nums::usize_to_u32(serving_set.len());
        let warming = nums::usize_to_u32(
            self.fleet
                .phases
                .iter()
                .filter(|p| matches!(p, Phase::Provisioning { .. } | Phase::Warming { .. }))
                .count(),
        );
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
        self.fleet.held.sort_by_key(|s| (s.arrival, s.id));
        for spec in self.fleet.held.drain(..) {
            book.stats.shed += 1;
            book.outcomes.push(RequestOutcome::unserved(
                spec,
                false,
                u32::MAX,
                Disposition::Shed,
            ));
        }

        for o in &mut book.outcomes {
            if let Some(&r) = book.retries.get(&o.spec.id) {
                o.retries = r;
            }
            if let Some(&tokens) = book.reprefill.get(&o.spec.id) {
                o.reprefill_tokens = tokens;
                book.stats.reprefill_tokens += tokens;
            }
            if book.relegated_ids.contains(&o.spec.id) {
                o.relegated = true;
            }
            if let Some(&m) = self.fleet.drain_migrations.get(&o.spec.id) {
                o.drain_migrations = m;
            }
        }
        book.outcomes.sort_by_key(|o| o.spec.id);
        debug_assert_eq!(book.outcomes.len(), requests, "no request may be lost");
        book.stats.breaker_opens = self.breakers.iter().map(|b| b.open_count()).sum();

        let end = self
            .slots
            .iter()
            .map(|s| s.engine.now())
            .max()
            .unwrap_or(SimTime::ZERO)
            .max(self.last_time);
        for r in 0..self.slots.len() {
            self.fleet.deprovision(r, end);
        }
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
    use qoserve_workload::{ArrivalProcess, Dataset, TraceBuilder};

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
}
