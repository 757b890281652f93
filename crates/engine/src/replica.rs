//! The replica engine: one simulated serving instance.
//!
//! The engine advances in *iterations*, exactly like a chunked-prefill
//! serving loop (§3.1): each iteration batches every in-flight decode with
//! the prefill chunks the scheduler selected, executes the batch against
//! the calibrated latency model (plus noise), and moves simulated time
//! forward by the observed latency. Requests flow prefill queue → decode
//! pool → completion; the KV cache bounds admission.

use std::collections::{BTreeMap, BTreeSet};

use qoserve_metrics::RequestOutcome;
use qoserve_perf::{BatchProfile, HardwareConfig, LatencyModel, PrefillChunkProfile};
use qoserve_sched::{Constraints, DecodeJob, PrefillJob, Scheduler};
use qoserve_sim::faults::ReplicaFaultProfile;
use qoserve_sim::nums;
use qoserve_sim::time::SignedDuration;
use qoserve_sim::{CalendarQueue, JobRef, JobSlab, SeedStream, SimDuration, SimTime};
use qoserve_trace::{FaultKind, TraceEvent, Tracer};
use qoserve_workload::{RequestId, RequestSpec, Trace};

use crate::health::{HealthRing, HealthSample, HealthSnapshot};
use crate::kv::KvCache;
use crate::noise::ExecutionNoise;

/// Availability of a replica, covering both the recovery story
/// (`Up → Degraded → Down → Restarting`) and the elastic control plane's
/// lifecycle (`Provisioning → Warming → Up → Draining → Down`). The
/// engine itself reports `Up`/`Degraded`/`Down`/`Draining`;
/// `Restarting`, `Provisioning`, and `Warming` are the cluster layer's
/// view of replicas that have no live engine generation yet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplicaState {
    /// Scale-up decided; the instance is being allocated (model weights
    /// not loaded yet). Accepts no work.
    Provisioning,
    /// Model load / cache warm-up in progress. Accepts no work.
    Warming,
    /// Serving normally.
    Up,
    /// Serving inside a straggler/drift window (latency inflated).
    Degraded,
    /// Graceful drain: admission stopped, running decodes finishing to a
    /// deadline. Accepts no *new* work.
    Draining,
    /// Crashed (in-flight and queued work must be re-dispatched), or
    /// scaled down / never provisioned.
    Down,
    /// Waiting out the post-crash downtime before restarting empty.
    Restarting,
}

impl ReplicaState {
    /// Whether a router/dispatcher may send *new* work to a replica in
    /// this state. `Restarting` counts: the crash downtime is modelled by
    /// the fault schedule's up-set, and re-dispatch to a restarting slot
    /// is exactly how orphans revive it.
    pub fn accepts_work(&self) -> bool {
        matches!(
            self,
            ReplicaState::Up | ReplicaState::Degraded | ReplicaState::Restarting
        )
    }
}

/// A request stranded by a replica crash, surfaced to the cluster layer
/// for re-dispatch. Its KV state died with the replica: a re-dispatched
/// request starts prefill from zero (`prefill_done` here records the lost
/// progress, i.e. the re-prefill cost).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrphanedJob {
    /// The stranded request.
    pub spec: RequestSpec,
    /// Prompt tokens whose KV state was lost with the crash.
    pub prefill_done: u32,
    /// Whether eager relegation had demoted the request on the dead
    /// replica.
    pub relegated: bool,
}

/// Configuration of one replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Model/GPU/parallelism served by this replica.
    pub hardware: HardwareConfig,
    /// Maximum concurrent decoding requests (vLLM's `max_num_seqs`);
    /// prefill admission pauses when the pool is full.
    pub max_decode_batch: usize,
    /// Relative execution-noise sigma (0 disables noise).
    pub noise_sigma: f64,
    /// Replica identity recorded into outcomes.
    pub replica_id: u32,
    /// Optional simulated-time cutoff: the run stops here and everything
    /// unfinished is recorded as violated.
    pub horizon: Option<SimTime>,
    /// Record per-batch diagnostics (chunk budgets, latencies) — Fig. 9
    /// and Fig. 15a read these.
    pub record_batches: bool,
    /// Injected-fault timeline for this replica generation: at most one
    /// upcoming crash plus any latency-inflation windows. Healthy by
    /// default, in which case behaviour is bit-identical to the
    /// pre-fault-model engine.
    pub faults: ReplicaFaultProfile,
}

impl ReplicaConfig {
    /// Defaults for `hardware`: TBT-sustainable decode pool (see
    /// [`sustainable_decode_batch`]), 2 % noise, no horizon, no batch
    /// recording.
    pub fn new(hardware: HardwareConfig) -> Self {
        let max_decode_batch = sustainable_decode_batch(&hardware);
        ReplicaConfig {
            hardware,
            max_decode_batch,
            noise_sigma: 0.02,
            replica_id: 0,
            horizon: None,
            record_batches: false,
            faults: ReplicaFaultProfile::healthy(),
        }
    }

    /// Sets the replica id.
    pub fn with_replica_id(mut self, id: u32) -> Self {
        self.replica_id = id;
        self
    }

    /// Sets the injected-fault timeline for this replica generation.
    pub fn with_faults(mut self, faults: ReplicaFaultProfile) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the simulated-time cutoff.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = Some(horizon);
        self
    }

    /// Enables per-batch diagnostics.
    pub fn with_batch_recording(mut self) -> Self {
        self.record_batches = true;
        self
    }
}

/// The default decode-pool cap for a hardware configuration: the largest
/// pool whose *decode-only* iteration stays within a 40 ms budget at a
/// representative 2.5 k-token context per request.
///
/// This is the simulator's analogue of tuning vLLM's `max_num_seqs` per
/// model: a pool so deep that even a decode-only iteration exceeds the
/// strictest TBT makes the 50 ms tier physically unservable no matter what
/// the scheduler does — MHA models (4x the KV traffic of GQA) need a much
/// shallower pool than GQA models.
pub fn sustainable_decode_batch(hw: &HardwareConfig) -> usize {
    const BUDGET_MS: f64 = 40.0;
    const CTX_PER_DECODE: u64 = 2_500;
    let model = LatencyModel::new(hw);
    let fits = |n: u64| {
        let batch = BatchProfile::builder()
            .decodes(nums::u64_to_u32(n), n * CTX_PER_DECODE)
            .build();
        model.iteration_time_us(&batch) / 1e3 <= BUDGET_MS
    };
    let (mut lo, mut hi) = (8u64, 256u64);
    if !fits(lo) {
        return nums::u64_to_usize(lo);
    }
    if fits(hi) {
        return nums::u64_to_usize(hi);
    }
    while hi - lo > 1 {
        let mid = (lo + hi) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    nums::u64_to_usize(lo)
}

/// Per-batch diagnostic record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchRecord {
    /// Iteration start time.
    pub start: SimTime,
    /// Observed execution latency.
    pub exec: SimDuration,
    /// The scheduler's token budget for this batch (the dynamic chunk
    /// size in QoServe).
    pub token_budget: u32,
    /// Prefill tokens actually scheduled.
    pub prefill_tokens: u32,
    /// Decode-pool size during the batch.
    pub num_decodes: u32,
}

/// Runtime state of one admitted request.
#[derive(Debug, Clone)]
struct Running {
    spec: RequestSpec,
    prefill_done: u32,
    generated: u32,
    first_token: Option<SimTime>,
    last_token: SimTime,
    max_tbt: SimDuration,
    worst_lateness_us: i64,
    relegated: bool,
}

impl Running {
    fn new(spec: RequestSpec) -> Self {
        Running {
            spec,
            prefill_done: 0,
            generated: 0,
            first_token: None,
            last_token: SimTime::ZERO,
            max_tbt: SimDuration::ZERO,
            worst_lateness_us: i64::MIN,
            relegated: false,
        }
    }

    /// Records the emission of the next output token at `at`.
    fn emit_token(&mut self, at: SimTime) {
        self.generated += 1;
        if self.generated == 1 {
            self.first_token = Some(at);
        } else {
            let gap = at.duration_since(self.last_token);
            self.max_tbt = self.max_tbt.max(gap);
        }
        let deadline = self.spec.token_deadline(self.generated);
        let lateness = at.signed_duration_since(deadline).as_micros();
        self.worst_lateness_us = self.worst_lateness_us.max(lateness);
        self.last_token = at;
    }

    fn is_done(&self) -> bool {
        self.generated >= self.spec.decode_tokens.max(1)
    }

    /// KV tokens this request holds from admission to completion: its
    /// written prompt plus the decode reserve (see [`decode_reserve`]).
    fn kv_tokens(&self) -> u64 {
        u64::from(self.prefill_done) + decode_reserve(&self.spec)
    }

    fn into_outcome(self, replica: u32) -> RequestOutcome {
        RequestOutcome {
            spec: self.spec,
            first_token: self.first_token,
            completion: Some(self.last_token),
            max_tbt: self.max_tbt,
            worst_token_lateness: SignedDuration::from_micros(self.worst_lateness_us),
            relegated: self.relegated,
            replica,
            disposition: qoserve_metrics::Disposition::Completed,
            retries: 0,
            reprefill_tokens: 0,
            drain_migrations: 0,
        }
    }
}

/// KV growth reserved at admission: one token per decode step after the
/// first token, which the prefill's last iteration emits. A request makes
/// exactly this many decode writes before it completes, so the reserve
/// covers every one and a decode step needs no KV call.
fn decode_reserve(spec: &RequestSpec) -> u64 {
    u64::from(spec.decode_tokens.saturating_sub(1))
}

/// One simulated serving replica.
///
/// # Example
///
/// ```
/// use qoserve_engine::{ReplicaConfig, ReplicaEngine};
/// use qoserve_perf::{HardwareConfig, LatencyPredictor};
/// use qoserve_sched::{QoServeConfig, QoServeScheduler};
/// use qoserve_sim::SeedStream;
/// use qoserve_workload::{ArrivalProcess, Dataset, TraceBuilder};
///
/// let hw = HardwareConfig::llama3_8b_a100_tp1();
/// let seeds = SeedStream::new(1);
/// let sched = QoServeScheduler::new(
///     QoServeConfig::default(),
///     LatencyPredictor::analytical(&hw),
/// );
/// let mut engine = ReplicaEngine::new(ReplicaConfig::new(hw), Box::new(sched), &seeds);
/// let trace = TraceBuilder::new(Dataset::azure_conv())
///     .arrivals(ArrivalProcess::poisson(2.0))
///     .num_requests(20)
///     .build(&seeds);
/// let outcomes = engine.run_trace(&trace);
/// assert_eq!(outcomes.len(), 20);
/// ```
pub struct ReplicaEngine {
    config: ReplicaConfig,
    model: LatencyModel,
    noise: ExecutionNoise,
    scheduler: Box<dyn Scheduler>,
    arrivals: CalendarQueue<RequestSpec>,
    /// Specs of arrived requests not yet admitted (engine-side copy; the
    /// scheduler owns the live prefill job until completion). Admission
    /// removes the entry, so the map holds only the queue.
    known_specs: BTreeMap<RequestId, RequestSpec>,
    /// In-flight request state, slab-allocated so the per-iteration hot
    /// loops index it in O(1) through [`JobRef`]s.
    jobs: JobSlab<Running>,
    /// Index of in-flight requests. Ordered map: `take_orphans` drains it
    /// into orphans (or, via `finish`, unfinished outcomes), and that walk
    /// order must be a function of request ids alone for replays to be
    /// bit-identical.
    running: BTreeMap<RequestId, JobRef>,
    decode_pool: Vec<(RequestId, JobRef)>,
    /// Iteration-scoped scratch (decode snapshot, finished list, batch
    /// profile), kept across steps so the hot loop never reallocates.
    decode_scratch: Vec<DecodeJob>,
    finished_scratch: Vec<RequestId>,
    profile_scratch: BatchProfile,
    /// Total KV held by `running`: Σ(`prefill_done` + decode reserve).
    kv: KvCache,
    now: SimTime,
    outcomes: Vec<RequestOutcome>,
    iterations: u64,
    batch_log: Vec<BatchRecord>,
    /// Consecutive iterations that made no progress (deadlock guard).
    stall_streak: u32,
    /// Set once the configured crash time is reached; the engine refuses
    /// further work and the cluster layer collects orphans.
    crashed: bool,
    /// Graceful-drain deadline. While set, the scheduler's constraints
    /// pin `max_new_requests` to zero (admitted work keeps chunking, new
    /// work is never admitted) and the engine halts once the running set
    /// empties or the deadline passes.
    draining: Option<SimTime>,
    /// Iterations executed inside a straggler/drift slowdown window.
    degraded_iterations: u64,
    /// Rolling per-iteration health samples backing [`health`](Self::health).
    health: HealthRing,
    /// Decision tracer, pre-bound to this replica's id. Disabled by
    /// default: every emission site is a no-op and behaviour is
    /// bit-identical to the untraced engine.
    tracer: Tracer,
}

impl ReplicaEngine {
    /// Builds an engine around a scheduler.
    pub fn new(config: ReplicaConfig, scheduler: Box<dyn Scheduler>, seeds: &SeedStream) -> Self {
        let model = LatencyModel::new(&config.hardware);
        let kv = KvCache::new(config.hardware.kv_token_capacity());
        let noise = ExecutionNoise::new(seeds, config.replica_id, config.noise_sigma);
        ReplicaEngine {
            config,
            model,
            noise,
            scheduler,
            arrivals: CalendarQueue::new(),
            known_specs: BTreeMap::new(),
            jobs: JobSlab::new(),
            running: BTreeMap::new(),
            decode_pool: Vec::new(),
            decode_scratch: Vec::new(),
            finished_scratch: Vec::new(),
            profile_scratch: BatchProfile::default(),
            kv,
            now: SimTime::ZERO,
            outcomes: Vec::new(),
            iterations: 0,
            batch_log: Vec::new(),
            stall_streak: 0,
            crashed: false,
            draining: None,
            degraded_iterations: 0,
            health: HealthRing::new(),
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a decision tracer. The engine binds the handle to its own
    /// replica id and forwards a clone to the scheduler, so every event —
    /// engine lifecycle or scheduler decision — lands on this replica's
    /// deterministic stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        let tracer = tracer.for_replica(self.config.replica_id);
        self.scheduler.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Queues a request for arrival at `spec.arrival`.
    pub fn submit(&mut self, spec: RequestSpec) {
        self.arrivals.push(spec.arrival, 0, spec);
    }

    /// Queues a request for delivery at `at`, independent of
    /// `spec.arrival`. Used for post-crash re-dispatch: the request
    /// reaches the replacement replica only at the re-dispatch time, but
    /// its SLO clock (deadlines derived from `spec.arrival`) keeps
    /// running from the original arrival — a recovered request that blew
    /// its deadline while stranded still counts as violated.
    pub fn submit_at(&mut self, spec: RequestSpec, at: SimTime) {
        self.arrivals.push(at.max(spec.arrival), 0, spec);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> u64 {
        self.iterations
    }

    /// The scheduler's display name.
    pub fn scheduler_name(&self) -> &str {
        self.scheduler.name()
    }

    /// Recorded batch diagnostics (empty unless enabled in the config).
    pub fn batch_log(&self) -> &[BatchRecord] {
        &self.batch_log
    }

    /// Submits every request of `trace` and runs to completion.
    pub fn run_trace(&mut self, trace: &Trace) -> Vec<RequestOutcome> {
        for spec in trace {
            self.submit(*spec);
        }
        self.run()
    }

    /// Runs until all submitted work completes (or the horizon / deadlock
    /// guard fires), returning one outcome per submitted request, ordered
    /// by request id.
    pub fn run(&mut self) -> Vec<RequestOutcome> {
        while self.step() {}
        self.finish()
    }

    /// Finalizes a halted engine: accounts everything still in
    /// flight/queued/unarrived (rejections with their own label, the rest
    /// as unfinished) and returns every outcome, ordered by request id.
    /// Used directly by the fault-aware cluster driver, which steps
    /// engines manually instead of calling [`run`](Self::run).
    pub fn finish(&mut self) -> Vec<RequestOutcome> {
        // The crash walk, with every orphan accounted as unfinished
        // instead of re-dispatched.
        let replica = self.config.replica_id;
        let unfinished = self.take_orphans();
        let mut outcomes = std::mem::take(&mut self.outcomes);
        outcomes.extend(
            unfinished
                .into_iter()
                .map(|o| RequestOutcome::unfinished(o.spec, o.relegated, replica)),
        );
        outcomes.sort_by_key(|o| o.spec.id);
        outcomes
    }

    /// Executes one engine step. Returns `false` when no work remains (or
    /// the horizon was reached).
    pub fn step(&mut self) -> bool {
        if let Some(h) = self.config.horizon {
            if self.now >= h {
                return false;
            }
        }
        // Crash check: once simulated time reaches the injected crash, the
        // replica does no further work. The cluster layer distinguishes
        // this halt from a drained engine via [`crashed`](Self::crashed)
        // and collects the stranded jobs with
        // [`take_orphans`](Self::take_orphans).
        if let Some(crash) = self.config.faults.crash_at {
            if self.crashed || self.now >= crash {
                self.crashed = true;
                return false;
            }
        }
        // Drain halt: once everything admitted has completed (or the
        // grace deadline passed with work still in flight), the engine
        // stops and the cluster layer hands the rest over via
        // [`take_orphans`](Self::take_orphans).
        if let Some(deadline) = self.draining {
            if self.running.is_empty() || self.now >= deadline {
                return false;
            }
        }
        // Safety net: a scheduler bug that never makes progress would
        // otherwise spin forever.
        if self.stall_streak > 10_000 {
            return false;
        }

        // 1. Deliver due arrivals.
        self.tracer.set_now(self.now);
        while let Some((_, _, spec)) = self.arrivals.pop_due(self.now) {
            self.known_specs.insert(spec.id, spec);
            if self.tracer.enabled() {
                self.tracer.emit(
                    Some(spec.id.0),
                    TraceEvent::RequestArrived {
                        prompt_tokens: spec.prompt_tokens,
                        decode_tokens: spec.decode_tokens,
                        tier: spec.tier().0,
                        deadline_us: spec.first_token_deadline().as_micros(),
                    },
                );
            }
            self.scheduler.on_arrival(PrefillJob::new(spec), self.now);
        }

        // 2. Snapshot the decode pool into the reused scratch buffer —
        // slab lookups through the pool's `JobRef`s, no per-step
        // allocation.
        self.decode_scratch.clear();
        for &(id, job) in &self.decode_pool {
            let Some(r) = self.jobs.get(job) else {
                if cfg!(debug_assertions) {
                    unreachable!("decode {id} is not running");
                }
                continue;
            };
            self.decode_scratch.push(DecodeJob {
                id,
                context_len: r.prefill_done + r.generated,
                next_token_deadline: r.spec.token_deadline(r.generated + 1),
                relegated: r.relegated,
            });
        }

        // 3. Ask the scheduler for the prefill side.
        let total_running = self.running.len();
        let constraints = Constraints {
            kv_headroom_tokens: self.kv.headroom(),
            allow_prefill: total_running < self.config.max_decode_batch,
            // Draining stops *admission* only: every scheduler gates fresh
            // jobs on `max_new_requests` but keeps chunking jobs it
            // already admitted, so running prefills still finish.
            max_new_requests: if self.draining.is_some() {
                0
            } else {
                self.config.max_decode_batch.saturating_sub(total_running)
            },
        };
        let plan = self
            .scheduler
            .plan_batch(self.now, &self.decode_scratch, constraints);

        // 4. Idle handling: nothing runnable this instant.
        if plan.is_empty() && self.decode_scratch.is_empty() {
            if let Some(next) = self.arrivals.peek_time() {
                // Jump to the next arrival.
                self.now = self.now.max(next);
                self.stall_streak = 0;
                return true;
            }
            if self.scheduler.pending_prefills() > 0 {
                // Queued work that cannot be scheduled right now (e.g. KV
                // exhausted); nudge time forward and retry.
                self.now += SimDuration::from_millis(10);
                self.stall_streak += 1;
                return true;
            }
            return false; // fully drained
        }
        self.stall_streak = 0;

        // 5. Execute the mixed batch (profile rebuilt in place, reusing
        // its chunk buffer).
        self.profile_scratch.prefill.clear();
        for a in &plan.prefill {
            self.profile_scratch
                .prefill
                .push(PrefillChunkProfile::new(a.tokens, a.context_before));
        }
        self.profile_scratch.num_decodes = nums::usize_to_u32(self.decode_scratch.len());
        self.profile_scratch.decode_context_total = self
            .decode_scratch
            .iter()
            .map(|d| u64::from(d.context_len))
            .sum();

        let clean = self.model.iteration_time(&self.profile_scratch);
        let mut exec = self.noise.apply(clean);
        // Straggler/drift windows inflate the iteration latency by the
        // product of the factors of every window containing the iteration
        // start. With no active window the multiplier is exactly 1.0 and
        // `exec` is untouched, keeping fault-free runs bit-identical.
        let slowdown = self.config.faults.slowdown_at(self.now);
        let degraded = slowdown > 1.0;
        if degraded {
            exec = exec.mul_f64(slowdown);
            self.degraded_iterations += 1;
            if self.tracer.enabled() {
                self.tracer.emit(
                    None,
                    TraceEvent::FaultInjected {
                        kind: FaultKind::Slowdown,
                        slowdown,
                    },
                );
            }
        }
        if self.tracer.enabled() {
            self.tracer.emit(
                None,
                TraceEvent::IterationExecuted {
                    batch_tokens: plan.prefill_tokens()
                        + nums::usize_to_u32(self.decode_scratch.len()),
                    prefill_tokens: plan.prefill_tokens(),
                    num_decodes: nums::usize_to_u32(self.decode_scratch.len()),
                    observed_us: exec.as_micros(),
                },
            );
        }
        self.now += exec;
        self.tracer.set_now(self.now);
        self.iterations += 1;
        self.health.record(HealthSample {
            degraded,
            ratio: exec.as_micros() as f64 / clean.as_micros().max(1) as f64,
            tokens: u64::from(plan.prefill_tokens())
                + nums::usize_to_u64(self.decode_scratch.len()),
            exec_us: exec.as_micros(),
        });
        // Close the observe→adapt loop: the scheduler sees the batch it
        // planned together with the *observed* execution latency (a no-op
        // for static schedulers).
        self.scheduler
            .on_iteration(&self.profile_scratch, exec, self.now);
        if self.config.record_batches {
            self.batch_log.push(BatchRecord {
                start: self.now - exec,
                exec,
                token_budget: plan.token_budget,
                prefill_tokens: plan.prefill_tokens(),
                num_decodes: nums::usize_to_u32(self.decode_scratch.len()),
            });
        }

        // 6. Decode side: each pooled request emits one token. The pool
        // itself only changes in `complete`, deferred until after the
        // walk, so iterating it directly matches the snapshot exactly.
        self.finished_scratch.clear();
        for i in 0..self.decode_pool.len() {
            let (id, job) = self.decode_pool[i];
            let Some(r) = self.jobs.get_mut(job) else {
                // Scheduler/engine contract breach: loud in debug builds
                // (where the test suite runs), a defensive skip in release.
                if cfg!(debug_assertions) {
                    unreachable!("decode {id} is not running");
                }
                continue;
            };
            r.emit_token(self.now);
            if r.is_done() {
                self.finished_scratch.push(id);
            }
        }
        let finished = std::mem::take(&mut self.finished_scratch);
        for &id in &finished {
            self.complete(id);
        }
        self.finished_scratch = finished;

        // 7. Prefill side: apply progress; completions emit their first
        // token and join the decode pool.
        for a in &plan.prefill {
            if !self.running.contains_key(&a.id) {
                // Fresh admission: reserve the decode growth up front so
                // the pooled decode can never be evicted (§3.4: decodes
                // are not preempted).
                let Some(spec) = self.known_specs.remove(&a.id) else {
                    if cfg!(debug_assertions) {
                        unreachable!("scheduler planned unknown request {}", a.id);
                    }
                    continue;
                };
                self.kv.hold(decode_reserve(&spec));
                let job = self.jobs.insert(Running::new(spec));
                self.running.insert(a.id, job);
            }
            // Present unless the unknown-request guard above skipped the
            // admission for this assignment.
            let Some(&job) = self.running.get(&a.id) else {
                continue;
            };
            let Some(entry) = self.jobs.get_mut(job) else {
                continue;
            };
            entry.prefill_done += a.tokens;
            entry.relegated |= a.relegated;
            self.kv.hold(u64::from(a.tokens));
            if a.completes_prefill {
                entry.emit_token(self.now);
                if self.tracer.enabled() {
                    self.tracer.emit(Some(a.id.0), TraceEvent::FirstToken);
                }
                if entry.is_done() {
                    self.complete(a.id);
                } else {
                    self.decode_pool.push((a.id, job));
                }
            }
        }

        debug_assert_eq!(
            self.kv.held(),
            self.running
                .values()
                .filter_map(|&job| self.jobs.get(job))
                .map(Running::kv_tokens)
                .sum::<u64>(),
            "KV total drifted from the running requests"
        );
        true
    }

    fn complete(&mut self, id: RequestId) {
        let Some(job) = self.running.remove(&id) else {
            if cfg!(debug_assertions) {
                unreachable!("completing unknown request {id}");
            }
            return;
        };
        let Some(r) = self.jobs.remove(job) else {
            if cfg!(debug_assertions) {
                unreachable!("completing stale job for request {id}");
            }
            return;
        };
        self.decode_pool.retain(|(d, _)| *d != id);
        self.kv.release(r.kv_tokens());
        self.scheduler.on_completion(&r.spec, r.generated);
        if self.tracer.enabled() {
            self.tracer.emit(
                Some(id.0),
                TraceEvent::RequestCompleted {
                    violated: r.worst_lateness_us > 0,
                    worst_lateness_us: r.worst_lateness_us,
                    max_tbt_us: r.max_tbt.as_micros(),
                    relegated: r.relegated,
                },
            );
        }
        self.outcomes.push(r.into_outcome(self.config.replica_id));
    }

    /// Whether the injected crash has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Current availability: `Down` after the crash fires, `Draining`
    /// while a graceful drain is in progress, `Degraded` inside an active
    /// slowdown window, `Up` otherwise. (`Restarting`, `Provisioning`,
    /// and `Warming` are reported by the cluster layer, which owns those
    /// clocks.)
    pub fn state(&self) -> ReplicaState {
        if self.crashed {
            ReplicaState::Down
        } else if self.draining.is_some() {
            ReplicaState::Draining
        } else if self.config.faults.slowdown_at(self.now) > 1.0 {
            ReplicaState::Degraded
        } else {
            ReplicaState::Up
        }
    }

    /// Starts a graceful drain: admission stops immediately, running work
    /// keeps executing until it completes or `deadline` passes, and the
    /// engine then halts (without [`crashed`](Self::crashed)) so the
    /// cluster layer can migrate the leftovers via
    /// [`take_orphans`](Self::take_orphans).
    pub fn begin_drain(&mut self, deadline: SimTime) {
        self.draining = Some(deadline);
    }

    /// Whether a graceful drain is in progress.
    pub fn draining(&self) -> bool {
        self.draining.is_some()
    }

    /// Removes and returns every request still sitting in the arrival
    /// queue (undelivered), in delivery order. The elastic dispatcher
    /// calls this when fleet membership first changes: statically
    /// pre-assigned future arrivals are recalled and re-routed over the
    /// live membership instead. Requests the scheduler already owns are
    /// untouched.
    pub fn take_unarrived(&mut self) -> Vec<RequestSpec> {
        let mut recalled = Vec::new();
        while let Some((_, _, spec)) = self.arrivals.pop() {
            recalled.push(spec);
        }
        recalled
    }

    /// Whether any work remains (queued arrivals, in-flight requests, or
    /// pending prefills). Used by the lockstep cluster driver to tell an
    /// idle-but-alive replica from a drained one.
    pub fn has_work(&self) -> bool {
        !self.arrivals.is_empty()
            || !self.running.is_empty()
            || self.scheduler.pending_prefills() > 0
    }

    /// Iterations executed inside a slowdown window so far.
    pub fn degraded_iterations(&self) -> u64 {
        self.degraded_iterations
    }

    /// Point-in-time health of this replica: rolling degraded-iteration
    /// fraction, observed/clean latency ratio, queue-drain velocity, and
    /// queue depth. A pure read — taking snapshots never perturbs the
    /// replica's own timeline, so health-driven dispatch leaves fault-free
    /// runs bit-identical.
    pub fn health(&self) -> HealthSnapshot {
        HealthSnapshot::from_ring(
            &self.health,
            self.config.replica_id,
            self.state(),
            self.iterations,
            self.scheduler.pending_prefill_tokens(),
            self.scheduler.pending_prefills(),
        )
    }

    /// Takes the outcomes recorded so far (completions plus any rejected
    /// outcomes surfaced by [`take_orphans`](Self::take_orphans)),
    /// unsorted. The fault-aware driver calls this after a crash; callers
    /// of [`run`](Self::run)/[`finish`](Self::finish) never need it.
    pub fn take_outcomes(&mut self) -> Vec<RequestOutcome> {
        std::mem::take(&mut self.outcomes)
    }

    /// Empties a halted replica: every in-flight, queued and unarrived
    /// request is returned as an [`OrphanedJob`] for the cluster layer to
    /// re-dispatch, while admission-rejected jobs are recorded as
    /// `Rejected` outcomes (a 429 happened before the crash; the client
    /// already saw it). Call this *before*
    /// [`take_outcomes`](Self::take_outcomes) so those rejections are
    /// included. [`finish`](Self::finish) runs the same walk and accounts
    /// the orphans as unfinished.
    ///
    /// Orphans are produced in request-id order (in-flight first, then
    /// queued, then unarrived) so recovery replays are bit-identical.
    pub fn take_orphans(&mut self) -> Vec<OrphanedJob> {
        let replica = self.config.replica_id;
        let mut accounted: BTreeSet<RequestId> = BTreeSet::new();
        let mut orphans: Vec<OrphanedJob> = Vec::new();
        for (id, job) in std::mem::take(&mut self.running) {
            accounted.insert(id);
            let Some(r) = self.jobs.remove(job) else {
                continue;
            };
            orphans.push(OrphanedJob {
                spec: r.spec,
                prefill_done: r.prefill_done,
                relegated: r.relegated,
            });
        }
        self.decode_pool.clear();
        self.kv.clear();
        for job in self.scheduler.drain_rejected() {
            if accounted.insert(job.spec.id) {
                self.outcomes
                    .push(RequestOutcome::rejected(job.spec, replica));
            }
        }
        for job in self.scheduler.drain_pending() {
            if accounted.insert(job.spec.id) {
                orphans.push(OrphanedJob {
                    spec: job.spec,
                    prefill_done: job.prefill_done,
                    relegated: job.relegated,
                });
            }
        }
        while let Some((_, _, spec)) = self.arrivals.pop() {
            if accounted.insert(spec.id) {
                orphans.push(OrphanedJob {
                    spec,
                    prefill_done: 0,
                    relegated: false,
                });
            }
        }
        self.known_specs.clear();
        orphans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_metrics::Disposition;
    use qoserve_sched::{OrderPolicy, RateLimitScheduler, SarathiScheduler};
    use qoserve_sim::faults::SlowWindow;
    use qoserve_workload::{QosTier, Slo};

    fn spec(id: u64, arrival_ms: u64, prompt: u32, decode: u32) -> RequestSpec {
        RequestSpec {
            id: RequestId(id),
            arrival: SimTime::from_millis(arrival_ms),
            prompt_tokens: prompt,
            decode_tokens: decode,
            slo: Slo::of_tier(QosTier::paper_q1()),
            app_id: 0,
        }
    }

    fn engine_with(config: ReplicaConfig) -> ReplicaEngine {
        let sched = SarathiScheduler::new(OrderPolicy::Fcfs, 256);
        ReplicaEngine::new(config, Box::new(sched), &SeedStream::new(7))
    }

    fn base_config() -> ReplicaConfig {
        let mut c = ReplicaConfig::new(HardwareConfig::llama3_8b_a100_tp1());
        c.noise_sigma = 0.0;
        c
    }

    #[test]
    fn completions_release_exactly_what_they_held() {
        // Decode lengths 0 and 1 reserve nothing; longer ones reserve one
        // token per decode step. Once every request has completed, the
        // releases must have returned the cache to empty.
        let mut e = engine_with(base_config());
        for (i, decode) in [0, 1, 2, 40, 300].into_iter().enumerate() {
            e.submit(spec(i as u64, i as u64 * 5, 700, decode));
        }
        while e.step() {}
        assert_eq!(e.outcomes.len(), 5, "every request completed");
        assert_eq!(e.kv.held(), 0);
    }

    #[test]
    fn healthy_profile_is_bit_identical_to_default() {
        let mut plain = engine_with(base_config());
        let mut explicit = engine_with(base_config().with_faults(ReplicaFaultProfile::healthy()));
        for e in [&mut plain, &mut explicit] {
            for i in 0..8 {
                e.submit(spec(i, i * 50, 800, 40));
            }
        }
        assert_eq!(plain.run(), explicit.run());
    }

    #[test]
    fn crash_halts_engine_and_orphans_conserve_requests() {
        let crash = SimTime::from_secs(1);
        let mut e = engine_with(base_config().with_faults(ReplicaFaultProfile {
            crash_at: Some(crash),
            windows: Vec::new(),
        }));
        let ids: Vec<u64> = (0..20).collect();
        for &i in &ids {
            // Arrivals straddle the crash: some complete, some strand
            // in-flight/queued, some never arrive.
            e.submit(spec(i, i * 150, 2_000, 100));
        }
        while e.step() {}
        assert!(e.crashed());
        assert_eq!(e.state(), ReplicaState::Down);

        let orphans = e.take_orphans();
        let outcomes = e.take_outcomes();
        assert!(!orphans.is_empty(), "a 1 s crash must strand work");
        let mut seen: Vec<u64> = outcomes
            .iter()
            .map(|o| o.spec.id.0)
            .chain(orphans.iter().map(|j| j.spec.id.0))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, ids, "every request is either accounted or orphaned");
        for o in &outcomes {
            assert_eq!(o.disposition, Disposition::Completed);
            assert!(o.completion.is_some());
        }
    }

    #[test]
    fn crash_before_any_work_orphans_everything() {
        let mut e = engine_with(base_config().with_faults(ReplicaFaultProfile {
            crash_at: Some(SimTime::ZERO),
            windows: Vec::new(),
        }));
        for i in 0..5 {
            e.submit(spec(i, 10 + i, 500, 20));
        }
        assert!(!e.step());
        assert!(e.crashed());
        let orphans = e.take_orphans();
        assert_eq!(orphans.len(), 5);
        assert!(orphans.iter().all(|j| j.prefill_done == 0 && !j.relegated));
        assert!(e.take_outcomes().is_empty());
        assert!(!e.has_work());
    }

    #[test]
    fn slowdown_window_inflates_latency_and_reports_degraded() {
        let window = SlowWindow {
            start: SimTime::ZERO,
            end: SimTime::from_secs(100_000),
            factor: 2.0,
            drift: false,
        };
        let mut healthy = engine_with(base_config());
        let mut slow = engine_with(base_config().with_faults(ReplicaFaultProfile {
            crash_at: None,
            windows: vec![window],
        }));
        assert_eq!(slow.state(), ReplicaState::Degraded);
        for e in [&mut healthy, &mut slow] {
            for i in 0..6 {
                e.submit(spec(i, 0, 1_500, 60));
            }
        }
        let fast = healthy.run();
        let degraded = slow.run();
        assert_eq!(slow.degraded_iterations(), slow.iterations());
        let end = |outs: &[RequestOutcome]| {
            outs.iter()
                .filter_map(|o| o.completion)
                .max()
                .expect("completions")
        };
        assert!(
            end(&degraded) > end(&fast),
            "a 2x straggler window must slow the run down"
        );
    }

    #[test]
    fn health_snapshot_tracks_slowdown_window() {
        let window = SlowWindow {
            start: SimTime::ZERO,
            end: SimTime::from_secs(100_000),
            factor: 1.8,
            drift: false,
        };
        let mut healthy = engine_with(base_config());
        let mut slow = engine_with(base_config().with_faults(ReplicaFaultProfile {
            crash_at: None,
            windows: vec![window],
        }));
        for e in [&mut healthy, &mut slow] {
            for i in 0..6 {
                e.submit(spec(i, 0, 1_500, 60));
            }
            let _ = e.run();
        }
        let good = healthy.health();
        let bad = slow.health();
        assert_eq!(good.degraded_fraction, 0.0);
        assert!((good.mean_latency_ratio - 1.0).abs() < 1e-9, "no noise");
        assert_eq!(good.score(), 1.0);
        assert_eq!(bad.degraded_fraction, 1.0);
        assert!(
            (bad.mean_latency_ratio - 1.8).abs() < 1e-3,
            "ratio must reflect the 1.8x window (up to µs rounding), got {}",
            bad.mean_latency_ratio
        );
        assert!(bad.score() < 0.5, "degraded replica must score low");
        assert!(
            bad.drain_velocity_tokens_per_sec < good.drain_velocity_tokens_per_sec,
            "a straggler drains slower"
        );
        assert_eq!(bad.window as u64, bad.iterations.min(32));
    }

    #[test]
    fn health_snapshot_before_any_iteration_is_nominal() {
        let e = engine_with(base_config().with_replica_id(9));
        let snap = e.health();
        assert_eq!(snap.replica_id, 9);
        assert_eq!(snap.window, 0);
        assert_eq!(snap.score(), 1.0);
        assert_eq!(snap.queue_tokens, 0);
        assert_eq!(snap.pending_prefills, 0);
    }

    #[test]
    fn drain_stops_admission_but_finishes_running_work() {
        let mut e = engine_with(base_config());
        // Two early requests get admitted; the late ones are still queued
        // or unarrived when the drain begins.
        for i in 0..2 {
            e.submit(spec(i, 0, 1_200, 40));
        }
        for i in 2..6 {
            e.submit(spec(i, 5_000 + i * 10, 1_200, 40));
        }
        for _ in 0..3 {
            assert!(e.step());
        }
        e.begin_drain(SimTime::from_secs(600));
        assert_eq!(e.state(), ReplicaState::Draining);
        assert!(e.draining());
        while e.step() {}
        assert!(!e.crashed());

        let orphans = e.take_orphans();
        let outcomes = e.take_outcomes();
        assert!(
            outcomes.iter().any(|o| o.finished()),
            "admitted work must run to completion under drain"
        );
        assert!(
            orphans.iter().all(|j| j.prefill_done == 0),
            "with a generous deadline only never-admitted work is handed over"
        );
        let mut seen: Vec<u64> = outcomes
            .iter()
            .map(|o| o.spec.id.0)
            .chain(orphans.iter().map(|j| j.spec.id.0))
            .collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..6).collect::<Vec<u64>>(),
            "drain conserves requests"
        );
    }

    #[test]
    fn drain_deadline_cuts_running_work_loose() {
        let mut e = engine_with(base_config());
        for i in 0..8 {
            e.submit(spec(i, 0, 4_000, 4_000));
        }
        for _ in 0..3 {
            assert!(e.step());
        }
        let deadline = e.now() + SimDuration::from_millis(50);
        e.begin_drain(deadline);
        while e.step() {}
        assert!(e.now() >= deadline, "halt must come from the deadline");
        let orphans = e.take_orphans();
        assert!(
            !orphans.is_empty(),
            "a 50 ms deadline cannot finish 4k-token decodes"
        );
    }

    #[test]
    fn drain_on_idle_engine_halts_immediately() {
        let mut e = engine_with(base_config());
        e.begin_drain(SimTime::from_secs(1));
        assert!(!e.step());
        assert!(!e.crashed());
        assert_eq!(e.state(), ReplicaState::Draining);
    }

    #[test]
    fn take_unarrived_recalls_only_queue_residents() {
        let mut e = engine_with(base_config());
        e.submit(spec(0, 0, 800, 20));
        e.submit(spec(1, 60_000, 800, 20));
        e.submit(spec(2, 90_000, 800, 20));
        // Deliver the first arrival (and admit it), leaving two queued.
        for _ in 0..2 {
            assert!(e.step());
        }
        let recalled = e.take_unarrived();
        let ids: Vec<u64> = recalled.iter().map(|s| s.id.0).collect();
        assert_eq!(ids, vec![1, 2]);
        let outcomes = e.run();
        assert_eq!(outcomes.len(), 1, "the delivered request still finishes");
        assert!(outcomes[0].finished());
    }

    #[test]
    fn accepts_work_matches_lifecycle_contract() {
        for (state, accepts) in [
            (ReplicaState::Provisioning, false),
            (ReplicaState::Warming, false),
            (ReplicaState::Up, true),
            (ReplicaState::Degraded, true),
            (ReplicaState::Draining, false),
            (ReplicaState::Down, false),
            (ReplicaState::Restarting, true),
        ] {
            assert_eq!(state.accepts_work(), accepts, "{state:?}");
        }
    }

    #[test]
    fn rejections_surface_with_their_own_disposition() {
        let inner = SarathiScheduler::new(OrderPolicy::Fcfs, 256);
        let sched = RateLimitScheduler::new(inner, 1_000);
        let mut config = base_config();
        config.horizon = Some(SimTime::from_millis(200));
        let mut e = ReplicaEngine::new(config, Box::new(sched), &SeedStream::new(7));
        // The first arrival fills the backlog past the cap; the rest bounce.
        for i in 0..4 {
            e.submit(spec(i, 0, 3_000, 50));
        }
        let outcomes = e.run();
        assert_eq!(outcomes.len(), 4);
        let rejected = outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Rejected)
            .count();
        assert!(rejected >= 1, "backlog cap must produce Rejected outcomes");
        for o in outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Rejected)
        {
            assert!(o.first_token.is_none());
            assert!(o.completion.is_none());
        }
    }
}
