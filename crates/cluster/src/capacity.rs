//! Goodput search and capacity planning.
//!
//! * [`max_goodput`] — the paper's per-replica goodput metric (§4.1.2):
//!   the maximum QPS at which at most 1 % of requests violate their
//!   deadlines, found by ramp-plus-bisection over full simulation runs.
//! * [`min_replicas_for`] — the capacity planner behind Table 4 and
//!   Fig. 15b: the smallest replica pool that serves a fixed-QPS trace
//!   within the violation bar.
//!
//! Both searches run their independent probe simulations on the
//! deterministic parallel harness (`qoserve_sim::parallel`): every probe
//! reconstructs its randomness from the probe parameters alone, so the
//! answers are bit-identical to the serial search regardless of
//! `QOSERVE_THREADS`.

use qoserve_metrics::SloReport;
use qoserve_sim::{par_map, par_max_passing, SeedStream, SimDuration};
use qoserve_workload::{ArrivalProcess, Dataset, TierMix, Trace, TraceBuilder};

use crate::deployment::{run_shared, ClusterConfig};
use crate::spec::SchedulerSpec;

/// Parameters of a goodput search.
#[derive(Debug, Clone)]
pub struct GoodputOptions {
    /// Arrival window simulated per probe (the paper runs 4 h; the
    /// default keeps experiment binaries fast while preserving trends —
    /// see EXPERIMENTS.md).
    pub window: SimDuration,
    /// Violation bar in percent (the paper allows 1 %).
    pub allowed_violation_pct: f64,
    /// QPS search range.
    pub min_qps: f64,
    /// Upper bound of the QPS search.
    pub max_qps: f64,
    /// Search resolution in QPS.
    pub resolution: f64,
    /// Tier mixture of the probe traces.
    pub mix: TierMix,
}

impl Default for GoodputOptions {
    fn default() -> Self {
        GoodputOptions {
            window: SimDuration::from_secs(900),
            allowed_violation_pct: 1.0,
            min_qps: 0.25,
            max_qps: 24.0,
            resolution: 0.1,
            mix: TierMix::paper_equal(),
        }
    }
}

/// Builds the probe trace for one goodput probe.
fn probe_trace(dataset: &Dataset, qps: f64, options: &GoodputOptions, seeds: &SeedStream) -> Trace {
    TraceBuilder::new(dataset.clone())
        .arrivals(ArrivalProcess::poisson(qps))
        .duration(options.window)
        .tier_mix(options.mix.clone())
        .build(seeds)
}

/// One goodput probe: does `scheduler` hold the violation bar at `qps`?
fn goodput_probe(
    dataset: &Dataset,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    options: &GoodputOptions,
    seeds: &SeedStream,
    qps: f64,
) -> bool {
    let trace = probe_trace(dataset, qps, options, &seeds.child("trace"));
    if trace.is_empty() {
        return true;
    }
    let outcomes = run_shared(&trace, 1, scheduler, config, seeds);
    SloReport::compute(&outcomes, trace.long_prompt_threshold())
        .meets_goodput_bar(options.allowed_violation_pct)
}

/// Maximum goodput (QPS per replica) of `scheduler` on `dataset`:
/// the largest arrival rate with at most `allowed_violation_pct`
/// violations. Returns 0 when even `min_qps` fails.
///
/// The coarse bracketing grid runs in parallel (every probe derives its
/// trace and noise purely from its QPS and `seeds`), then the bisection
/// refines serially — bit-identical to the serial
/// [`max_supported_load`](qoserve_metrics::max_supported_load) search over
/// the same probe for any `QOSERVE_THREADS`.
pub fn max_goodput(
    dataset: &Dataset,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    options: &GoodputOptions,
    seeds: &SeedStream,
) -> f64 {
    par_max_passing(
        options.min_qps,
        options.max_qps,
        options.resolution,
        |qps| goodput_probe(dataset, scheduler, config, options, seeds, qps),
    )
    .unwrap_or(0.0)
}

/// Smallest number of replicas that serves `trace` with at most
/// `allowed_violation_pct` violations; `None` if even `max_replicas` is
/// insufficient.
///
/// All candidate pool sizes `1..=max_replicas` are probed concurrently
/// and the smallest passing one wins. (The earlier implementation
/// bisected, which assumed the pass predicate is monotone in pool size;
/// exhaustive probing returns the true minimum even when a mid-size pool
/// happens to fail, and its answer is independent of thread count.)
#[expect(
    clippy::cast_possible_truncation,
    reason = "lossy-cast debt: route through `qoserve_sim::nums`"
)]
pub fn min_replicas_for(
    trace: &Trace,
    scheduler: &SchedulerSpec,
    config: &ClusterConfig,
    allowed_violation_pct: f64,
    max_replicas: u32,
    seeds: &SeedStream,
) -> Option<u32> {
    assert!(max_replicas > 0, "max_replicas must be positive");
    let threshold = trace.long_prompt_threshold();
    let verdicts = par_map((1..=max_replicas).collect(), |_, replicas| {
        let outcomes = run_shared(trace, replicas, scheduler, config, seeds);
        SloReport::compute(&outcomes, threshold).meets_goodput_bar(allowed_violation_pct)
    });
    verdicts.iter().position(|&ok| ok).map(|i| i as u32 + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_perf::HardwareConfig;

    fn config() -> ClusterConfig {
        ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1())
    }

    fn fast_options() -> GoodputOptions {
        // Short probe window: Q2/Q3 TTLT violations (600s/1800s budgets)
        // cannot materialise in 120s, so only Q1 pressure binds and the
        // measured goodput sits well above the paper's 4h-window numbers.
        // That is fine for these bounded unit tests; the experiment
        // binaries use the honest default window.
        GoodputOptions {
            window: SimDuration::from_secs(120),
            resolution: 0.5,
            max_qps: 40.0,
            ..Default::default()
        }
    }

    #[test]
    fn goodput_is_positive_and_bounded() {
        let g = max_goodput(
            &Dataset::azure_conv(),
            &SchedulerSpec::qoserve(),
            &config(),
            &fast_options(),
            &SeedStream::new(1),
        );
        assert!(g > 0.5, "goodput {g}");
        assert!(g < 40.0, "goodput {g} hit the search ceiling");
    }

    #[test]
    fn qoserve_goodput_beats_fcfs() {
        // The paper's core claim at single-replica scale (Fig. 7).
        let seeds = SeedStream::new(2);
        let opts = fast_options();
        let fcfs = max_goodput(
            &Dataset::azure_conv(),
            &SchedulerSpec::sarathi_fcfs(),
            &config(),
            &opts,
            &seeds,
        );
        let qs = max_goodput(
            &Dataset::azure_conv(),
            &SchedulerSpec::qoserve(),
            &config(),
            &opts,
            &seeds,
        );
        assert!(
            qs > fcfs,
            "QoServe goodput {qs} should beat Sarathi-FCFS {fcfs}"
        );
    }

    #[test]
    fn min_replicas_finds_boundary() {
        let trace = probe_trace(
            &Dataset::azure_conv(),
            8.0,
            &fast_options(),
            &SeedStream::new(3),
        );
        let n = min_replicas_for(
            &trace,
            &SchedulerSpec::qoserve(),
            &config(),
            1.0,
            8,
            &SeedStream::new(3),
        )
        .expect("8 replicas must suffice for 8 QPS");
        assert!((1..=8).contains(&n));
        if n > 1 {
            // n-1 must fail (minimality).
            let outcomes = run_shared(
                &trace,
                n - 1,
                &SchedulerSpec::qoserve(),
                &config(),
                &SeedStream::new(3),
            );
            let report = SloReport::compute(&outcomes, trace.long_prompt_threshold());
            assert!(!report.meets_goodput_bar(1.0));
        }
    }

    #[test]
    fn min_replicas_none_when_infeasible() {
        // 30 QPS cannot fit on one replica.
        let trace = probe_trace(
            &Dataset::azure_code(),
            30.0,
            &fast_options(),
            &SeedStream::new(4),
        );
        assert_eq!(
            min_replicas_for(
                &trace,
                &SchedulerSpec::sarathi_fcfs(),
                &config(),
                1.0,
                1,
                &SeedStream::new(4),
            ),
            None
        );
    }
}
