//! Shared harness for the paper's experiments.
//!
//! Every `fig*`/`table*` binary in `qoserve-bench` drives its sweep
//! through these helpers so that scheme lists, trace construction, and
//! scaling all live in one place.
//!
//! ## Scaling
//!
//! The paper's runs take hours of traffic (4 h windows, 360 K requests).
//! The simulator replays them faithfully but the experiment binaries
//! default to a compressed window that preserves the trends (as the
//! artifact's `*_tiny.sh` scripts do). Set `QOSERVE_SCALE` to stretch it:
//! `QOSERVE_SCALE=1` is the fast default, `QOSERVE_SCALE=16` approaches
//! paper-scale windows.

use qoserve_cluster::{
    generate_scale_schedule, run_shared, run_shared_elastic, ClusterConfig, ElasticPlan, FaultPlan,
    FaultRunStats, LifecycleConfig, ScaleChurnConfig, SchedulerSpec,
};
use qoserve_metrics::{RecoveryReport, RequestOutcome, SloReport};
use qoserve_perf::HardwareConfig;
use qoserve_sim::{par_map, SeedStream, SimDuration};
use qoserve_workload::{ArrivalProcess, Dataset, TierMix, Trace, TraceBuilder};

/// Reads the experiment scale factor from `QOSERVE_SCALE`: 1.0 when it is
/// unset or not a number (`nan` included), otherwise clamped to
/// `[0.05, 64]`.
pub fn scale_factor() -> f64 {
    std::env::var("QOSERVE_SCALE").map_or(1.0, |v| parse_scale(&v))
}

/// A `QOSERVE_SCALE` value as a scale factor. `nan` parses as a number,
/// and `f64::clamp` would pass it through, so it is rejected before the
/// clamp.
fn parse_scale(raw: &str) -> f64 {
    raw.parse::<f64>()
        .ok()
        .filter(|s| !s.is_nan())
        .unwrap_or(1.0)
        .clamp(0.05, 64.0)
}

/// A measurement window of `base_secs`, scaled by [`scale_factor`].
pub fn scaled_window(base_secs: u64) -> SimDuration {
    SimDuration::from_secs_f64(base_secs as f64 * scale_factor())
}

/// The four shared-cluster schemes of Figures 10–11, in plot order.
pub fn shared_cluster_schemes() -> Vec<SchedulerSpec> {
    vec![
        SchedulerSpec::sarathi_fcfs(),
        SchedulerSpec::sarathi_srpf(),
        SchedulerSpec::sarathi_edf(),
        SchedulerSpec::qoserve(),
    ]
}

/// One point of a load sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Scheme label.
    pub scheme: String,
    /// Offered load in QPS.
    pub qps: f64,
    /// Violation/latency report of the run.
    pub report: SloReport,
    /// Raw outcomes (for custom breakdowns).
    pub outcomes: Vec<RequestOutcome>,
}

/// Runs every `(scheme, qps)` combination on a single shared replica over
/// the same per-QPS trace and returns the reports. Traces are rebuilt per
/// QPS (same seed) so schemes see identical workloads.
///
/// The grid cells are independent seeded simulations, so they run on
/// [`par_map`] worker threads (`QOSERVE_THREADS` controls how many).
/// Every cell reconstructs its randomness from `(seed, qps, scheme)`
/// alone, so the output is **bit-identical** for any thread count and
/// equal to concatenating the one-cell sweeps — properties `tests/`
/// enforces. The same holds for every sweep below.
pub fn load_sweep(
    dataset: &Dataset,
    hardware: &HardwareConfig,
    schemes: &[SchedulerSpec],
    qps_list: &[f64],
    window: SimDuration,
    mix: &TierMix,
    seed: u64,
) -> Vec<SweepPoint> {
    // Stage 1: build the per-QPS traces concurrently (each derives purely
    // from (dataset, qps, seed)).
    let traces: Vec<(f64, u32, Trace)> = par_map(qps_list.to_vec(), |_, qps| {
        let trace = TraceBuilder::new(dataset.clone())
            .arrivals(ArrivalProcess::poisson(qps))
            .duration(window)
            .tier_mix(mix.clone())
            .build(&SeedStream::new(seed));
        let threshold = trace.long_prompt_threshold();
        (qps, threshold, trace)
    });

    // Stage 2: simulate every grid cell concurrently, qps-major /
    // scheme-minor.
    par_map(grid(traces.len(), schemes.len()), |_, (qi, si)| {
        let (qps, threshold, trace) = &traces[qi];
        let scheme = &schemes[si];
        let outcomes = run_run(trace, scheme, hardware, seed);
        let report = SloReport::compute(&outcomes, *threshold);
        SweepPoint {
            scheme: scheme.label(),
            qps: *qps,
            report,
            outcomes,
        }
    })
}

/// The `(row, column)` cells of a `rows × cols` grid, row-major.
fn grid(rows: usize, cols: usize) -> Vec<(usize, usize)> {
    (0..rows)
        .flat_map(|r| (0..cols).map(move |c| (r, c)))
        .collect()
}

/// Fixed workload/cluster setup of a fault sweep: the sweep varies fault
/// intensity and scheme, everything else stays pinned here.
#[derive(Debug, Clone)]
pub struct FaultSweepSetup {
    /// Request length distributions.
    pub dataset: Dataset,
    /// Hardware of every replica.
    pub hardware: HardwareConfig,
    /// Replica count of the shared deployment.
    pub replicas: u32,
    /// Offered load in QPS.
    pub qps: f64,
    /// Trace duration.
    pub window: SimDuration,
    /// Tier mix.
    pub mix: TierMix,
    /// Fraction of requests marked [`Priority::Low`] — the traffic the
    /// recovery loop's tier-aware shedding is allowed to drop.
    ///
    /// [`Priority::Low`]: qoserve_workload::Priority::Low
    pub low_priority_fraction: f64,
    /// Base fault plan; each sweep point scales its rates by the point's
    /// intensity ([`FaultPlan::scaled`]).
    pub plan: FaultPlan,
    /// Root seed for trace, faults, and execution noise.
    pub seed: u64,
}

/// One point of a fault sweep.
#[derive(Debug, Clone)]
pub struct FaultSweepPoint {
    /// Scheme label.
    pub scheme: String,
    /// Fault-rate multiplier applied to the base plan.
    pub intensity: f64,
    /// Violation/latency report of the run.
    pub report: SloReport,
    /// Per-tier recovery accounting.
    pub recovery: RecoveryReport,
    /// Aggregate crash/retry/shed counters.
    pub stats: FaultRunStats,
    /// Raw outcomes (for custom breakdowns).
    pub outcomes: Vec<RequestOutcome>,
}

/// Runs every `(intensity, scheme)` combination of a fault sweep on the
/// same trace and returns the reports, intensity-major / scheme-minor.
/// This is [`resilience_sweep`] with one pipeline per scheme, labelled
/// with the scheme and adding no breaker to the base plan.
pub fn fault_sweep(
    setup: &FaultSweepSetup,
    schemes: &[SchedulerSpec],
    intensities: &[f64],
) -> Vec<FaultSweepPoint> {
    let pipelines: Vec<ResiliencePipeline> = schemes
        .iter()
        .map(|scheme| ResiliencePipeline {
            label: scheme.label(),
            scheme: scheme.clone(),
            breaker: false,
        })
        .collect();
    resilience_sweep(setup, &pipelines, intensities)
}

fn fault_sweep_trace(setup: &FaultSweepSetup) -> (Trace, u32) {
    let trace = TraceBuilder::new(setup.dataset.clone())
        .arrivals(ArrivalProcess::poisson(setup.qps))
        .duration(setup.window)
        .tier_mix(setup.mix.clone())
        .low_priority_fraction(setup.low_priority_fraction)
        .build(&SeedStream::new(setup.seed));
    let threshold = trace.long_prompt_threshold();
    (trace, threshold)
}

/// Fixed setup of a chaos sweep: the fault-sweep setup plus the elastic
/// control plane's churn process and lifecycle timing. The sweep varies
/// fault intensity with a seed-derived scale-event schedule running
/// alongside — crashes, stragglers, and membership changes compose.
#[derive(Debug, Clone)]
pub struct ChaosSweepSetup {
    /// Workload, fleet, and fault-plan configuration.
    pub base: FaultSweepSetup,
    /// Scale-churn process generating the Add/Drain schedule.
    pub churn: ScaleChurnConfig,
    /// Replica lifecycle timing (provision, warm-up, drain grace).
    pub lifecycle: LifecycleConfig,
    /// Slot ceiling the fleet may grow to.
    pub max_replicas: u32,
}

/// One point of a chaos sweep.
#[derive(Debug, Clone)]
pub struct ChaosSweepPoint {
    /// Scheme label.
    pub scheme: String,
    /// Fault-rate multiplier applied to the base plan.
    pub intensity: f64,
    /// Violation/latency report of the run.
    pub report: SloReport,
    /// Per-tier recovery accounting.
    pub recovery: RecoveryReport,
    /// Aggregate crash/retry/shed/scale counters.
    pub stats: FaultRunStats,
    /// Provisioned replica-microseconds over the run.
    pub replica_us: u64,
    /// Scale events the churn schedule drew.
    pub scale_events: usize,
    /// Raw outcomes (for custom breakdowns).
    pub outcomes: Vec<RequestOutcome>,
}

/// Runs every `(intensity, scheme)` combination of a chaos sweep —
/// faults *and* seed-derived scale churn on the elastic kernel —
/// intensity-major / scheme-minor, on [`par_map`] threads.
pub fn chaos_sweep(
    setup: &ChaosSweepSetup,
    schemes: &[SchedulerSpec],
    intensities: &[f64],
) -> Vec<ChaosSweepPoint> {
    let (trace, threshold) = fault_sweep_trace(&setup.base);
    par_map(grid(intensities.len(), schemes.len()), |_, (ii, si)| {
        chaos_cell(setup, &trace, threshold, intensities[ii], &schemes[si])
    })
}

fn chaos_cell(
    setup: &ChaosSweepSetup,
    trace: &Trace,
    threshold: u32,
    intensity: f64,
    scheme: &SchedulerSpec,
) -> ChaosSweepPoint {
    let config = ClusterConfig::new(setup.base.hardware.clone());
    let plan = setup.base.plan.scaled(intensity);
    let seeds = SeedStream::new(setup.base.seed);
    // The schedule derives from its own label ("scale-churn") of the same
    // root stream the runner uses, so every cell rebuilds it identically.
    let schedule = generate_scale_schedule(&setup.churn, setup.base.window, &seeds);
    let scale_events = schedule.len();
    let elastic = ElasticPlan {
        lifecycle: setup.lifecycle,
        max_replicas: setup.max_replicas,
        schedule,
        autoscale: None,
    };
    let result = run_shared_elastic(
        trace,
        setup.base.replicas,
        scheme,
        &config,
        &plan,
        &elastic,
        &seeds,
    )
    .unwrap_or_default();
    let report = SloReport::compute(&result.outcomes, threshold);
    let recovery = RecoveryReport::compute(&result.outcomes);
    ChaosSweepPoint {
        scheme: scheme.label(),
        intensity,
        report,
        recovery,
        stats: result.stats,
        replica_us: result.replica_us,
        scale_events,
        outcomes: result.outcomes,
    }
}

/// One end-to-end serving pipeline of the resilience sweep: a scheduler
/// spec (which may carry adaptive margins and an admission gate) plus
/// whether the recovery loop runs per-replica circuit breakers.
#[derive(Debug, Clone)]
pub struct ResiliencePipeline {
    /// Label the sweep point is reported under (e.g. `"static"`).
    pub label: String,
    /// The per-replica scheduler.
    pub scheme: SchedulerSpec,
    /// Whether circuit breakers steer re-dispatch away from unhealthy
    /// replicas.
    pub breaker: bool,
}

/// The two pipelines the `resilience_sweep` binary compares: today's
/// static-margin QoServe, and the full adaptive resilience layer
/// (online margin + SLO-aware admission + circuit breakers).
pub fn resilience_pipelines() -> Vec<ResiliencePipeline> {
    vec![
        ResiliencePipeline {
            label: "static".to_owned(),
            scheme: SchedulerSpec::qoserve(),
            breaker: false,
        },
        ResiliencePipeline {
            label: "adaptive".to_owned(),
            scheme: SchedulerSpec::deadline_aware(SchedulerSpec::qoserve_adaptive()),
            breaker: true,
        },
    ]
}

/// Runs every `(intensity, pipeline)` combination on the same trace,
/// intensity-major / pipeline-minor, on [`par_map`] threads. Reuses the
/// fault-sweep point shape ([`FaultSweepPoint`]) with the pipeline label
/// as the scheme.
pub fn resilience_sweep(
    setup: &FaultSweepSetup,
    pipelines: &[ResiliencePipeline],
    intensities: &[f64],
) -> Vec<FaultSweepPoint> {
    let (trace, threshold) = fault_sweep_trace(setup);
    par_map(grid(intensities.len(), pipelines.len()), |_, (ii, pi)| {
        resilience_cell(setup, &trace, threshold, intensities[ii], &pipelines[pi])
    })
}

fn resilience_cell(
    setup: &FaultSweepSetup,
    trace: &Trace,
    threshold: u32,
    intensity: f64,
    pipeline: &ResiliencePipeline,
) -> FaultSweepPoint {
    let config = ClusterConfig::new(setup.hardware.clone());
    let mut plan = setup.plan.scaled(intensity);
    if pipeline.breaker {
        plan = plan.with_breaker();
    }
    // The only error is a zero-replica deployment; report it as an empty
    // run rather than poisoning the whole sweep.
    let result = run_shared_elastic(
        trace,
        setup.replicas,
        &pipeline.scheme,
        &config,
        &plan,
        &ElasticPlan::none(),
        &SeedStream::new(setup.seed),
    )
    .unwrap_or_default();
    let report = SloReport::compute(&result.outcomes, threshold);
    let recovery = RecoveryReport::compute(&result.outcomes);
    FaultSweepPoint {
        scheme: pipeline.label.clone(),
        intensity,
        report,
        recovery,
        stats: result.stats,
        outcomes: result.outcomes,
    }
}

/// Runs one trace on one shared replica of `hardware` under `scheme`.
pub fn run_run(
    trace: &Trace,
    scheme: &SchedulerSpec,
    hardware: &HardwareConfig,
    seed: u64,
) -> Vec<RequestOutcome> {
    let config = ClusterConfig::new(hardware.clone());
    run_shared(trace, 1, scheme, &config, &SeedStream::new(seed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_workload::TierId;

    #[test]
    fn parse_scale_falls_back_on_nan_and_clamps_infinities() {
        for (raw, scale) in [
            ("nan", 1.0),
            ("NaN", 1.0),
            ("inf", 64.0),
            ("-inf", 0.05),
            ("0", 0.05),
            ("abc", 1.0),
            ("2.5", 2.5),
        ] {
            assert_eq!(parse_scale(raw), scale, "QOSERVE_SCALE={raw}");
        }
    }

    #[test]
    fn scale_factor_defaults_to_one() {
        // The test environment does not set QOSERVE_SCALE.
        if std::env::var("QOSERVE_SCALE").is_err() {
            assert_eq!(scale_factor(), 1.0);
            assert_eq!(scaled_window(100), SimDuration::from_secs(100));
        }
    }

    #[test]
    fn scheme_list_matches_paper_plots() {
        let labels: Vec<String> = shared_cluster_schemes().iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["Sarathi-FCFS", "Sarathi-SRPF", "Sarathi-EDF", "QoServe"]
        );
    }

    #[test]
    fn fault_sweep_grid_and_zero_intensity_baseline() {
        let setup = FaultSweepSetup {
            dataset: Dataset::azure_conv(),
            hardware: HardwareConfig::llama3_8b_a100_tp1(),
            replicas: 2,
            qps: 3.0,
            window: SimDuration::from_secs(40),
            mix: TierMix::paper_equal(),
            low_priority_fraction: 0.2,
            plan: FaultPlan::with_faults(qoserve_sim::FaultConfig::moderate()),
            seed: 9,
        };
        let schemes = [SchedulerSpec::sarathi_fcfs(), SchedulerSpec::qoserve()];
        let points = fault_sweep(&setup, &schemes, &[0.0, 4.0]);
        assert_eq!(points.len(), 4);
        // Intensity-major, scheme-minor order.
        assert_eq!(points[0].intensity, 0.0);
        assert_eq!(points[0].scheme, "Sarathi-FCFS");
        assert_eq!(points[3].intensity, 4.0);
        assert_eq!(points[3].scheme, "QoServe");
        // Zero intensity means the fault machinery never fires.
        assert_eq!(points[0].stats, FaultRunStats::default());
        assert_eq!(points[1].stats, FaultRunStats::default());
        // Every cell accounts the full trace.
        let n = points[0].outcomes.len();
        assert!(n > 0);
        assert!(points.iter().all(|p| p.outcomes.len() == n));
    }

    #[test]
    fn chaos_sweep_with_zero_churn_matches_fault_sweep() {
        let base = FaultSweepSetup {
            dataset: Dataset::azure_conv(),
            hardware: HardwareConfig::llama3_8b_a100_tp1(),
            replicas: 2,
            qps: 3.0,
            window: SimDuration::from_secs(40),
            mix: TierMix::paper_equal(),
            low_priority_fraction: 0.2,
            plan: FaultPlan::with_faults(qoserve_sim::FaultConfig::moderate().scaled(2.0)),
            seed: 9,
        };
        let schemes = [SchedulerSpec::qoserve()];
        let faulty = fault_sweep(&base, &schemes, &[1.0]);
        let setup = ChaosSweepSetup {
            base,
            churn: ScaleChurnConfig {
                events_per_hour: 0.0,
                max_events: 0,
            },
            lifecycle: LifecycleConfig::default(),
            max_replicas: 4,
        };
        let chaos = chaos_sweep(&setup, &schemes, &[1.0]);
        assert_eq!(chaos.len(), 1);
        assert_eq!(chaos[0].scale_events, 0);
        // Zero churn: the elastic runner degenerates to the fault path,
        // bit for bit, even with idle headroom slots.
        assert_eq!(chaos[0].outcomes, faulty[0].outcomes);
        assert_eq!(chaos[0].stats, faulty[0].stats);
        assert!(chaos[0].replica_us > 0);
    }

    #[test]
    fn chaos_sweep_with_churn_is_deterministic_and_conserves() {
        let setup = ChaosSweepSetup {
            base: FaultSweepSetup {
                dataset: Dataset::azure_conv(),
                hardware: HardwareConfig::llama3_8b_a100_tp1(),
                replicas: 2,
                qps: 4.0,
                window: SimDuration::from_secs(60),
                mix: TierMix::paper_equal(),
                low_priority_fraction: 0.2,
                plan: FaultPlan::with_faults(qoserve_sim::FaultConfig::moderate()),
                seed: 11,
            },
            churn: ScaleChurnConfig {
                events_per_hour: 240.0,
                max_events: 8,
            },
            lifecycle: LifecycleConfig {
                provision_delay: SimDuration::from_secs(2),
                warmup: SimDuration::from_secs(3),
                drain_grace: SimDuration::from_secs(5),
            },
            max_replicas: 4,
        };
        let schemes = [SchedulerSpec::qoserve()];
        let a = chaos_sweep(&setup, &schemes, &[0.0, 2.0]);
        let b: Vec<ChaosSweepPoint> = [0.0, 2.0]
            .iter()
            .flat_map(|&i| chaos_sweep(&setup, &schemes, &[i]))
            .collect();
        assert_eq!(a.len(), 2);
        assert!(a[0].scale_events > 0, "240/h over 60s should draw events");
        for (pa, pb) in a.iter().zip(&b) {
            assert_eq!(pa.outcomes, pb.outcomes, "grid == one-cell sweeps");
            assert_eq!(pa.stats, pb.stats);
            assert_eq!(pa.replica_us, pb.replica_us);
        }
        // Every cell accounts the full trace despite the churn.
        let n = a[0].outcomes.len();
        assert!(n > 0);
        assert!(a.iter().all(|p| p.outcomes.len() == n));
    }

    #[test]
    fn resilience_sweep_grid_and_zero_intensity_parity() {
        let setup = FaultSweepSetup {
            dataset: Dataset::azure_conv(),
            hardware: HardwareConfig::llama3_8b_a100_tp1(),
            replicas: 2,
            qps: 3.0,
            window: SimDuration::from_secs(40),
            mix: TierMix::paper_equal(),
            low_priority_fraction: 0.2,
            plan: FaultPlan::with_faults(qoserve_sim::FaultConfig::moderate()),
            seed: 9,
        };
        let pipelines = resilience_pipelines();
        let points = resilience_sweep(&setup, &pipelines, &[0.0]);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].scheme, "static");
        assert_eq!(points[1].scheme, "adaptive");
        // At zero intensity the fault machinery never fires and the
        // adaptive layer observes only calm iterations: both pipelines
        // must serve the trace identically, bit for bit.
        assert_eq!(points[0].outcomes, points[1].outcomes);
        assert_eq!(points[1].stats, FaultRunStats::default());
    }

    #[test]
    fn sweep_produces_scheme_by_qps_grid() {
        let points = load_sweep(
            &Dataset::azure_conv(),
            &HardwareConfig::llama3_8b_a100_tp1(),
            &[SchedulerSpec::sarathi_fcfs(), SchedulerSpec::qoserve()],
            &[1.0, 2.0],
            SimDuration::from_secs(60),
            &TierMix::paper_equal(),
            7,
        );
        assert_eq!(points.len(), 4);
        // Same trace per QPS: totals agree across schemes.
        assert_eq!(points[0].report.total, points[1].report.total);
        // Per-tier data exists.
        assert!(points[0].report.by_tier.contains_key(&TierId::Q1));
    }
}
