//! Adaptive resilience layer invariants, end to end.
//!
//! Three contracts are pinned here:
//!
//! 1. **Calm transparency**: with an all-zero fault configuration the
//!    full adaptive pipeline — online margin, deadline-aware admission,
//!    circuit breakers — is bit-identical to the static pipeline. The
//!    resilience layer may only act when mispredictions actually occur.
//! 2. **Determinism**: the `resilience_sweep` grid is bit-identical to
//!    its one-cell sweeps run one after another — including the
//!    serialized rows — for any thread count.
//! 3. **Conservation**: breakers steer re-dispatch but never strand it;
//!    every arrival ends in exactly one outcome under any fault schedule
//!    even while breakers are open.

use qoserve::experiments::{
    resilience_pipelines, resilience_sweep, FaultSweepPoint, FaultSweepSetup,
};
use qoserve::prelude::*;
use qoserve_sim::json::Value;
use qoserve_sim::{forall, json, par_map_threads, Rng};

fn small_setup(seed: u64) -> FaultSweepSetup {
    FaultSweepSetup {
        dataset: Dataset::azure_conv(),
        hardware: HardwareConfig::llama3_8b_a100_tp1(),
        replicas: 3,
        qps: 5.0,
        window: SimDuration::from_secs(45),
        mix: TierMix::paper_equal(),
        low_priority_fraction: 0.25,
        plan: FaultPlan::with_faults(FaultConfig::moderate()),
        seed,
    }
}

/// The machine-readable rows of the sweep, mirroring what the
/// `resilience_sweep` binary writes to `results/resilience_sweep.json`.
fn sweep_rows(points: &[FaultSweepPoint]) -> String {
    let rows: Vec<Value> = points
        .iter()
        .map(|p| {
            json!({
                "pipeline": p.scheme,
                "intensity": p.intensity,
                "violation_pct": p.report.violation_pct(),
                "tier_violation_pct": {
                    "q1": p.report.tier_violation_pct(TierId::Q1),
                    "q2": p.report.tier_violation_pct(TierId::Q2),
                    "q3": p.report.tier_violation_pct(TierId::Q3),
                },
                "stats": format!("{:?}", p.stats),
            })
        })
        .collect();
    json!({ "rows": rows }).to_pretty()
}

/// The full adaptive pipeline must be invisible while the system is calm:
/// zero faults means the margin never widens past its base, the estimator
/// never recalibrates, the gate rejects nothing feasible, and the
/// breakers never trip — so outcomes are bit-identical to static QoServe.
#[test]
fn adaptive_pipeline_is_bit_identical_to_static_without_faults() {
    let trace = TraceBuilder::new(Dataset::azure_conv())
        .arrivals(ArrivalProcess::poisson(6.0))
        .duration(SimDuration::from_secs(60))
        .tier_mix(TierMix::paper_equal())
        .build(&SeedStream::new(51));
    let config = ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1());
    let static_run = run_shared_elastic(
        &trace,
        3,
        &SchedulerSpec::qoserve(),
        &config,
        &FaultPlan::none(),
        &ElasticPlan::none(),
        &SeedStream::new(51),
    )
    .expect("replicas > 0");
    let adaptive_run = run_shared_elastic(
        &trace,
        3,
        &SchedulerSpec::deadline_aware(SchedulerSpec::qoserve_adaptive()),
        &config,
        &FaultPlan::none().with_breaker(),
        &ElasticPlan::none(),
        &SeedStream::new(51),
    )
    .expect("replicas > 0");
    assert_eq!(
        adaptive_run.outcomes, static_run.outcomes,
        "a calm adaptive pipeline must match static bit for bit"
    );
    assert_eq!(adaptive_run.stats, FaultRunStats::default());
}

#[test]
fn resilience_sweep_is_bit_identical_to_serial_reference() {
    let setup = small_setup(52);
    let pipelines = resilience_pipelines();
    let intensities = [0.0, 1.0, 2.0];
    let parallel = resilience_sweep(&setup, &pipelines, &intensities);
    // The serial reference: one-cell sweeps (a one-item `par_map` runs
    // in order on the calling thread), concatenated in grid order.
    let mut serial: Vec<FaultSweepPoint> = Vec::new();
    for &intensity in &intensities {
        for pipeline in &pipelines {
            serial.extend(resilience_sweep(
                &setup,
                std::slice::from_ref(pipeline),
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
        assert_eq!(p.outcomes, s.outcomes, "{} @ {}", p.scheme, p.intensity);
    }
    // The serialized artifact is byte-identical too — what
    // results/resilience_sweep.json pins across runs and thread counts.
    assert_eq!(sweep_rows(&parallel), sweep_rows(&serial));
}

#[test]
fn resilience_runs_are_thread_invariant() {
    let trace = TraceBuilder::new(Dataset::azure_conv())
        .arrivals(ArrivalProcess::poisson(7.0))
        .duration(SimDuration::from_secs(45))
        .tier_mix(TierMix::paper_equal())
        .low_priority_fraction(0.3)
        .build(&SeedStream::new(53));
    let config = ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1());
    let plan = FaultPlan::with_faults(FaultConfig::moderate().scaled(2.0)).with_breaker();
    let schemes = vec![
        SchedulerSpec::qoserve_adaptive(),
        SchedulerSpec::deadline_aware(SchedulerSpec::qoserve_adaptive()),
    ];

    let run_all = |threads: usize| {
        par_map_threads(threads, schemes.clone(), |_, spec| {
            run_shared_elastic(
                &trace,
                3,
                &spec,
                &config,
                &plan,
                &ElasticPlan::none(),
                &SeedStream::new(53),
            )
            .expect("replicas > 0")
        })
    };
    let one = run_all(1);
    let four = run_all(4);
    assert_eq!(
        one, four,
        "thread count must never change adaptive fault runs"
    );
}

/// The sweep's zero-intensity column: both pipelines, same bits. This is
/// the same contract as the direct run above, but via the sweep harness
/// the binary actually uses.
#[test]
fn sweep_zero_intensity_pipelines_agree() {
    let setup = small_setup(54);
    let points = resilience_sweep(&setup, &resilience_pipelines(), &[0.0]);
    assert_eq!(points.len(), 2);
    assert_eq!(points[0].scheme, "static");
    assert_eq!(points[1].scheme, "adaptive");
    assert_eq!(points[0].outcomes, points[1].outcomes);
    assert_eq!(points[0].report, points[1].report);
}

/// Breakers may steer work away from straggling replicas, never
/// strand it: under any fault schedule — including ones whose
/// straggler pressure keeps breakers open for most of the run — every
/// arrival still ends in exactly one outcome, and the run replays
/// bit-identically.
#[test]
fn no_request_lost_while_breakers_are_open() {
    forall(12, 1, |rng| {
        let seed = rng.gen_range(0u64..1_000);
        let n = rng.gen_range(5usize..40);
        let qps = rng.gen_range(1.0f64..10.0);
        let replicas = rng.gen_range(1u32..4);
        let crash_rate = rng.gen_range(0.0f64..400.0);
        let restart = rng.gen::<bool>();
        let straggler_rate = rng.gen_range(0.0f64..3_000.0);
        let straggler_factor = rng.gen_range(1.5f64..6.0);
        let trace = TraceBuilder::new(Dataset::azure_conv())
            .arrivals(ArrivalProcess::poisson(qps))
            .num_requests(n)
            .tier_mix(TierMix::paper_equal())
            .low_priority_fraction(0.3)
            .build(&SeedStream::new(seed));
        let config = ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1());
        let mut faults = FaultConfig::moderate();
        faults.crash_rate_per_hour = crash_rate;
        if !restart {
            faults.restart_downtime = None;
        }
        faults.straggler_rate_per_hour = straggler_rate;
        faults.straggler_factor = straggler_factor;
        let plan = FaultPlan::with_faults(faults).with_breaker();

        let run = || {
            run_shared_elastic(
                &trace,
                replicas,
                &SchedulerSpec::deadline_aware(SchedulerSpec::qoserve_adaptive()),
                &config,
                &plan,
                &ElasticPlan::none(),
                &SeedStream::new(seed),
            )
            .expect("replicas > 0")
        };
        let result = run();

        // Exactly one outcome per arrival, ordered by id — a breaker-open
        // period must delay dispatch, not lose it.
        assert_eq!(result.outcomes.len(), trace.len());
        for (i, o) in result.outcomes.iter().enumerate() {
            assert_eq!(o.spec.id.0, i as u64);
            assert!(o.retries <= plan.max_retries + 1);
        }
        // Diversions only happen when breakers exist and some replica
        // was dispatchable: they are a subset of re-dispatches.
        assert!(result.stats.breaker_diverted <= result.stats.redispatches);

        // Replay with the same seed is bit-identical.
        assert_eq!(result, run());
    });
}
