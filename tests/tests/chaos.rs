//! Chaos suite: the elastic control plane under composed fault and
//! membership churn, end to end.
//!
//! Four contracts are pinned here, mirroring DESIGN.md's control-plane
//! section:
//!
//! 1. **Zero-scale transparency**: an elastic plan with no scale events
//!    and no autoscaler is bit-identical to `ElasticPlan::none()` — the
//!    control plane must be invisible when it never moves, even with
//!    idle slot headroom above the initial fleet.
//! 2. **Conservation under chaos**: no fault-and-churn schedule may
//!    lose or double-complete a request; drain-migration stamps on
//!    outcomes reconcile exactly with the run's counters.
//! 3. **Drain isolation**: from the instant a replica starts draining
//!    until it re-warms into the serving set, no new work is routed to
//!    it — checked against the captured decision trace, not the
//!    implementation's own bookkeeping.
//! 4. **Determinism**: the same seed replays bit-identically, sharded
//!    execution matches the lockstep oracle, and `chaos_sweep` matches
//!    its one-cell sweeps at any thread count.

use qoserve::experiments::{chaos_sweep, ChaosSweepPoint, ChaosSweepSetup, FaultSweepSetup};
use qoserve::prelude::*;
use qoserve_sim::{forall, par_map_threads, Rng};
use qoserve_trace::{TraceEvent, Tracer};

fn cluster_config() -> ClusterConfig {
    ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1())
}

fn chaos_trace(seed: u64, qps: f64, n: usize) -> Trace {
    TraceBuilder::new(Dataset::azure_conv())
        .arrivals(ArrivalProcess::poisson(qps))
        .num_requests(n)
        .tier_mix(TierMix::paper_equal())
        .low_priority_fraction(0.3)
        .build(&SeedStream::new(seed))
}

/// Lifecycle timing compressed so provisioning, warm-up, and drain all
/// land inside a sub-minute test window.
fn fast_lifecycle() -> LifecycleConfig {
    LifecycleConfig {
        provision_delay: SimDuration::from_secs(2),
        warmup: SimDuration::from_secs(3),
        drain_grace: SimDuration::from_secs(5),
    }
}

#[test]
fn zero_scale_elastic_is_bit_identical_to_a_fixed_fleet() {
    let trace = chaos_trace(51, 6.0, 120);
    let config = cluster_config();
    let plan = FaultPlan::with_faults(FaultConfig::moderate().scaled(2.0));
    for (spec, max_replicas) in [
        (SchedulerSpec::qoserve(), 3u32), // no headroom
        (SchedulerSpec::qoserve(), 6),    // idle slots above the fleet
        (SchedulerSpec::sarathi_fcfs(), 5),
    ] {
        let elastic = ElasticPlan {
            lifecycle: fast_lifecycle(),
            max_replicas,
            schedule: Vec::new(),
            autoscale: None,
        };
        let baseline = run_shared_elastic(
            &trace,
            3,
            &spec,
            &config,
            &plan,
            &ElasticPlan::none(),
            &SeedStream::new(51),
        )
        .expect("baseline routes");
        let elastic_run = run_shared_elastic(
            &trace,
            3,
            &spec,
            &config,
            &plan,
            &elastic,
            &SeedStream::new(51),
        )
        .expect("elastic routes");
        assert_eq!(
            elastic_run.outcomes,
            baseline.outcomes,
            "{} (ceiling {max_replicas}): a dormant control plane must be invisible",
            spec.label()
        );
        assert_eq!(elastic_run.stats, baseline.stats, "{}", spec.label());
        assert_eq!(elastic_run.stats.scale_ups, 0);
        assert_eq!(elastic_run.stats.scale_downs, 0);
        assert_eq!(elastic_run.stats.drain_migrated, 0);
    }
}

#[test]
fn drained_replicas_never_receive_new_work() {
    // Saturate three replicas so drains always have in-flight work to
    // migrate, and crash-heavy faults so re-dispatch traffic is dense
    // while drains are open.
    let trace = chaos_trace(52, 18.0, 400);
    let config = cluster_config();
    let mut faults = FaultConfig::moderate();
    faults.crash_rate_per_hour = 300.0;
    let plan = FaultPlan::with_faults(faults);
    let elastic = ElasticPlan {
        lifecycle: fast_lifecycle(),
        max_replicas: 5,
        schedule: vec![
            ScaleEvent {
                at: SimTime::from_secs(4),
                action: ScaleAction::Drain,
            },
            ScaleEvent {
                at: SimTime::from_secs(8),
                action: ScaleAction::Add,
            },
            ScaleEvent {
                at: SimTime::from_secs(14),
                action: ScaleAction::Drain,
            },
            ScaleEvent {
                at: SimTime::from_secs(20),
                action: ScaleAction::Add,
            },
        ],
        autoscale: None,
    };
    let tracer = Tracer::unbounded();
    let result = run_shared_elastic_observed(
        &trace,
        3,
        &SchedulerSpec::qoserve(),
        &config,
        &plan,
        &elastic,
        &SeedStream::new(52),
        &tracer,
        None,
    )
    .expect("traced elastic run routes");
    assert!(result.stats.scale_downs >= 2, "both drains must fire");

    let records = tracer.snapshot();
    let drain_starts: Vec<(u32, u64, u64)> = records
        .iter()
        .filter_map(|r| match r.event {
            TraceEvent::DrainStarted { deadline_us } => Some((r.replica, r.time_us, deadline_us)),
            _ => None,
        })
        .collect();
    assert_eq!(
        drain_starts.len() as u64,
        result.stats.scale_downs,
        "every scale-down decision must open exactly one drain"
    );
    // A drain closes by its deadline: it finishes, or the replica crashes
    // first and the crash path retires it early.
    for &(replica, start_us, deadline_us) in &drain_starts {
        let closed = records.iter().any(|r| {
            r.replica == replica
                && (start_us..=deadline_us).contains(&r.time_us)
                && matches!(
                    r.event,
                    TraceEvent::DrainFinished { .. }
                        | TraceEvent::FaultInjected {
                            kind: qoserve_trace::FaultKind::Crash,
                            ..
                        }
                )
        });
        assert!(
            closed,
            "drain of replica {replica} at {start_us}us was neither finished nor ended by a \
             crash by its deadline {deadline_us}us"
        );
    }

    // From DrainStarted until the slot re-warms into the serving set
    // (or forever, if never reused), the replica is out of the
    // admission set: no re-dispatch may target it.
    for &(replica, start_us, _) in &drain_starts {
        let rejoin_us = records
            .iter()
            .filter(|r| {
                r.replica == replica
                    && r.time_us > start_us
                    && matches!(r.event, TraceEvent::WarmupComplete { .. })
            })
            .map(|r| r.time_us)
            .min()
            .unwrap_or(u64::MAX);
        let violations = records
            .iter()
            .filter(|r| {
                matches!(
                    r.event,
                    TraceEvent::OrphanRedispatched { to_replica, .. } if to_replica == replica
                ) && r.time_us > start_us
                    && r.time_us < rejoin_us
            })
            .count();
        assert_eq!(
            violations, 0,
            "replica {replica} received re-dispatched work while drained \
             (drain at {start_us}us, rejoin at {rejoin_us}us)"
        );
    }
}

#[test]
fn drain_migration_stamps_reconcile_with_counters() {
    // Heavy load + tight drain grace: drains fire with decodes still
    // running, so migrated work is guaranteed. With no retry budget the
    // same orphans are dropped instead, so none may carry a drain stamp:
    // a migration counts only once its orphan is placed.
    let trace = chaos_trace(53, 20.0, 300);
    let config = cluster_config();
    let elastic = ElasticPlan {
        lifecycle: LifecycleConfig {
            drain_grace: SimDuration::from_millis(200),
            ..fast_lifecycle()
        },
        max_replicas: 3,
        schedule: vec![
            ScaleEvent {
                at: SimTime::from_secs(3),
                action: ScaleAction::Drain,
            },
            ScaleEvent {
                at: SimTime::from_secs(6),
                action: ScaleAction::Add,
            },
        ],
        autoscale: None,
    };
    let no_retries = FaultPlan {
        max_retries: 0,
        ..FaultPlan::none()
    };
    for (plan, migrates) in [(FaultPlan::none(), true), (no_retries, false)] {
        let result = run_shared_elastic(
            &trace,
            3,
            &SchedulerSpec::qoserve(),
            &config,
            &plan,
            &elastic,
            &SeedStream::new(53),
        )
        .expect("elastic run routes");

        if migrates {
            assert!(
                result.stats.drain_migrated > 0,
                "a drain under saturation must migrate in-flight work"
            );
        } else {
            assert!(
                result.stats.retry_exhausted > 0 && result.stats.drain_migrated == 0,
                "with no retry budget the drain's orphans must be dropped, \
                 not migrated: {:?}",
                result.stats
            );
        }
        let stamped: u64 = result
            .outcomes
            .iter()
            .map(|o| o.drain_migrations as u64)
            .sum();
        assert_eq!(
            stamped, result.stats.drain_migrated,
            "per-request drain stamps must reconcile with the run counter"
        );
        for o in &result.outcomes {
            if o.drain_migrations > 0 {
                assert!(
                    o.retries > 0,
                    "a migrated request went through re-dispatch, so its \
                     attempt counter must have moved"
                );
            }
        }
    }
}

#[test]
fn elastic_sharded_matches_lockstep_under_churn_and_crashes() {
    let trace = chaos_trace(54, 8.0, 150);
    let config = cluster_config();
    let mut faults = FaultConfig::moderate();
    faults.crash_rate_per_hour = 500.0;
    let plan = FaultPlan::with_faults(faults);
    let churn = ScaleChurnConfig {
        events_per_hour: 360.0,
        max_events: 16,
    };
    let schedule =
        generate_scale_schedule(&churn, SimDuration::from_secs(60), &SeedStream::new(54));
    assert!(!schedule.is_empty(), "churn schedule must draw events");
    let elastic = ElasticPlan {
        lifecycle: fast_lifecycle(),
        max_replicas: 5,
        schedule,
        autoscale: None,
    };
    let run = |sharded: bool| {
        let f = if sharded {
            run_shared_elastic_observed
        } else {
            run_shared_elastic_observed_lockstep
        };
        f(
            &trace,
            3,
            &SchedulerSpec::qoserve(),
            &config,
            &plan,
            &elastic,
            &SeedStream::new(54),
            &Tracer::disabled(),
            None,
        )
        .expect("elastic run routes")
    };
    let sharded = run(true);
    let lockstep = run(false);
    assert!(
        sharded.stats.crashes > 0,
        "crash timeline must be exercised"
    );
    assert!(
        sharded.stats.scale_ups + sharded.stats.scale_downs > 0,
        "scale timeline must be exercised"
    );
    assert_eq!(
        sharded, lockstep,
        "execution mode must not leak into elastic results"
    );
}

#[test]
fn chaos_sweep_is_bit_identical_to_serial_and_thread_invariant() {
    let setup = ChaosSweepSetup {
        base: FaultSweepSetup {
            dataset: Dataset::azure_conv(),
            hardware: HardwareConfig::llama3_8b_a100_tp1(),
            replicas: 3,
            qps: 6.0,
            window: SimDuration::from_secs(45),
            mix: TierMix::paper_equal(),
            low_priority_fraction: 0.25,
            plan: FaultPlan::with_faults(FaultConfig::moderate()),
            seed: 55,
        },
        churn: ScaleChurnConfig {
            events_per_hour: 240.0,
            max_events: 8,
        },
        lifecycle: fast_lifecycle(),
        max_replicas: 5,
    };
    let schemes = [SchedulerSpec::qoserve(), SchedulerSpec::sarathi_fcfs()];
    let intensities = [0.0, 1.5];

    let parallel = chaos_sweep(&setup, &schemes, &intensities);
    // The serial reference: one-cell sweeps (a one-item `par_map` runs
    // in order on the calling thread), concatenated in grid order.
    let mut serial: Vec<ChaosSweepPoint> = Vec::new();
    for &intensity in &intensities {
        for scheme in &schemes {
            serial.extend(chaos_sweep(
                &setup,
                std::slice::from_ref(scheme),
                &[intensity],
            ));
        }
    }
    assert_eq!(parallel.len(), serial.len());
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.scheme, s.scheme);
        assert_eq!(p.intensity.to_bits(), s.intensity.to_bits());
        assert_eq!(p.report, s.report, "{} @ {}", p.scheme, p.intensity);
        assert_eq!(p.stats, s.stats, "{} @ {}", p.scheme, p.intensity);
        assert_eq!(p.replica_us, s.replica_us, "{} @ {}", p.scheme, p.intensity);
        assert_eq!(p.outcomes, s.outcomes, "{} @ {}", p.scheme, p.intensity);
    }

    // Thread-count invariance: the same cells computed under explicit
    // 1-thread and 4-thread pools are bit-identical.
    let run_all = |threads: usize| {
        par_map_threads(threads, schemes.to_vec(), |_, spec| {
            let churn_schedule = generate_scale_schedule(
                &setup.churn,
                setup.base.window,
                &SeedStream::new(setup.base.seed),
            );
            let elastic = ElasticPlan {
                lifecycle: setup.lifecycle,
                max_replicas: setup.max_replicas,
                schedule: churn_schedule,
                autoscale: None,
            };
            let trace = chaos_trace(setup.base.seed, setup.base.qps, 100);
            run_shared_elastic(
                &trace,
                setup.base.replicas,
                &spec,
                &cluster_config(),
                &setup.base.plan,
                &elastic,
                &SeedStream::new(setup.base.seed),
            )
            .expect("elastic run routes")
        })
    };
    let one = run_all(1);
    let four = run_all(4);
    assert_eq!(one, four, "thread count must never change elastic runs");
}

/// Under any composition of crashes, stragglers, and membership
/// churn, every arrival ends in exactly one outcome, drain stamps
/// reconcile with the counters, and the same seed replays
/// bit-identically.
#[test]
fn no_request_lost_or_double_completed_under_chaos() {
    forall(10, 1, |rng| {
        let seed = rng.gen_range(0u64..1_000);
        let n = rng.gen_range(10usize..50);
        let qps = rng.gen_range(2.0f64..12.0);
        let replicas = rng.gen_range(1u32..4);
        let headroom = rng.gen_range(0u32..3);
        let crash_rate = rng.gen_range(0.0f64..400.0);
        let churn_per_hour = rng.gen_range(0.0f64..480.0);
        let trace = chaos_trace(seed, qps, n);
        let config = cluster_config();
        let mut faults = FaultConfig::moderate();
        faults.crash_rate_per_hour = crash_rate;
        let plan = FaultPlan::with_faults(faults);
        let churn = ScaleChurnConfig {
            events_per_hour: churn_per_hour,
            max_events: 12,
        };
        let schedule =
            generate_scale_schedule(&churn, SimDuration::from_secs(90), &SeedStream::new(seed));
        let elastic = ElasticPlan {
            lifecycle: fast_lifecycle(),
            max_replicas: replicas + headroom,
            schedule,
            autoscale: None,
        };
        let run = || {
            run_shared_elastic(
                &trace,
                replicas,
                &SchedulerSpec::qoserve(),
                &config,
                &plan,
                &elastic,
                &SeedStream::new(seed),
            )
            .expect("replicas > 0")
        };
        let result = run();

        // Exactly one outcome per arrival, ordered by id.
        assert_eq!(result.outcomes.len(), trace.len());
        for (i, o) in result.outcomes.iter().enumerate() {
            assert_eq!(o.spec.id.0, i as u64);
            assert_eq!(o.finished(), o.disposition == Disposition::Completed);
            assert!(o.retries <= plan.max_retries + 1);
        }

        // Drain stamps reconcile with the aggregate counter.
        let stamped: u64 = result
            .outcomes
            .iter()
            .map(|o| o.drain_migrations as u64)
            .sum();
        assert_eq!(stamped, result.stats.drain_migrated);

        // Replica-time accounting never goes negative or vanishes while
        // a fleet served traffic.
        assert!(result.replica_us > 0);
        assert!(!result.fleet.is_empty());

        // Replay with the same seed is bit-identical.
        assert_eq!(result, run());
    });
}
