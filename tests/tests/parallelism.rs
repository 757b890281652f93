//! Determinism of the parallel experiment harness.
//!
//! The contract of `qoserve_sim::parallel` is that thread count affects
//! wall-clock only, never results: every parallelized search/sweep must
//! produce **bit-identical** output to a serial reference. These tests
//! pin that contract at the integration level, on real simulations.

use qoserve::experiments::{load_sweep, SweepPoint};
use qoserve::prelude::*;
use qoserve_sim::par_map_threads;

fn small_options() -> GoodputOptions {
    GoodputOptions {
        window: SimDuration::from_secs(90),
        resolution: 0.5,
        max_qps: 40.0,
        ..Default::default()
    }
}

#[test]
fn parallel_load_sweep_is_bit_identical_to_serial() {
    let dataset = Dataset::azure_conv();
    let hw = HardwareConfig::llama3_8b_a100_tp1();
    let schemes = [SchedulerSpec::sarathi_fcfs(), SchedulerSpec::qoserve()];
    let qps_list = [1.5, 3.0];
    let window = SimDuration::from_secs(60);
    let mix = TierMix::paper_equal();

    let parallel = load_sweep(&dataset, &hw, &schemes, &qps_list, window, &mix, 42);
    // The serial reference: one-cell sweeps (a one-item `par_map` runs
    // in order on the calling thread), concatenated in grid order.
    let mut serial: Vec<SweepPoint> = Vec::new();
    for &qps in &qps_list {
        for scheme in &schemes {
            let cell = std::slice::from_ref(scheme);
            serial.extend(load_sweep(&dataset, &hw, cell, &[qps], window, &mix, 42));
        }
    }

    assert_eq!(parallel.len(), serial.len());
    for (p, s) in parallel.iter().zip(&serial) {
        assert_eq!(p.scheme, s.scheme);
        // Bit-level equality, not approximate.
        assert_eq!(p.qps.to_bits(), s.qps.to_bits(), "{}", p.scheme);
        assert_eq!(p.report, s.report, "{} @ {} qps", p.scheme, p.qps);
        assert_eq!(p.outcomes, s.outcomes, "{} @ {} qps", p.scheme, p.qps);
    }
}

/// The serial goodput walk, one probe at a time: `lo`, a geometric ramp
/// (×1.5, first step at least `resolution`) up to `hi`, then bisection of
/// the bracket the first failing point closes. `par_max_passing` must
/// return its answer bit for bit.
fn serial_max_passing(
    lo: f64,
    hi: f64,
    resolution: f64,
    passes: impl Fn(f64) -> bool,
) -> Option<f64> {
    if !passes(lo) {
        return None;
    }
    let mut good = lo;
    let mut bad = None;
    let mut probe = (lo * 1.5).max(lo + resolution);
    while probe < hi {
        if passes(probe) {
            good = probe;
            probe *= 1.5;
        } else {
            bad = Some(probe);
            break;
        }
    }
    let mut bad = match bad {
        Some(bad) => bad,
        None if passes(hi) => return Some(hi),
        None => hi,
    };
    while bad - good > resolution {
        let mid = (good + bad) / 2.0;
        if passes(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(good)
}

#[test]
fn parallel_goodput_search_is_bit_identical_to_serial() {
    let dataset = Dataset::azure_conv();
    let config = ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1());
    let options = small_options();
    for (spec, seed) in [
        (SchedulerSpec::qoserve(), 11u64),
        (SchedulerSpec::sarathi_fcfs(), 12),
    ] {
        let seeds = SeedStream::new(seed);
        let parallel = max_goodput(&dataset, &spec, &config, &options, &seeds);
        // The serial reference: the ramp-plus-bisection walk over the
        // same goodput probe.
        let probe = |qps: f64| {
            let trace = TraceBuilder::new(dataset.clone())
                .arrivals(ArrivalProcess::poisson(qps))
                .duration(options.window)
                .tier_mix(options.mix.clone())
                .build(&seeds.child("trace"));
            if trace.is_empty() {
                return true;
            }
            let outcomes = run_shared(&trace, 1, &spec, &config, &seeds);
            SloReport::compute(&outcomes, trace.long_prompt_threshold())
                .meets_goodput_bar(options.allowed_violation_pct)
        };
        let serial =
            serial_max_passing(options.min_qps, options.max_qps, options.resolution, probe)
                .unwrap_or(0.0);
        assert_eq!(
            parallel.to_bits(),
            serial.to_bits(),
            "{}: parallel {parallel} vs serial {serial}",
            spec.label()
        );
    }
}

#[test]
fn min_replicas_matches_exhaustive_serial_scan() {
    let trace = TraceBuilder::new(Dataset::azure_conv())
        .arrivals(ArrivalProcess::poisson(6.0))
        .duration(SimDuration::from_secs(120))
        .tier_mix(TierMix::paper_equal())
        .build(&SeedStream::new(9));
    let config = ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1());
    let spec = SchedulerSpec::qoserve();
    let seeds = SeedStream::new(9);
    let max_replicas = 6;

    let got = min_replicas_for(&trace, &spec, &config, 1.0, max_replicas, &seeds);

    // Serial reference: smallest replica count that meets the bar.
    let threshold = trace.long_prompt_threshold();
    let want = (1..=max_replicas).find(|&replicas| {
        let outcomes = run_shared(&trace, replicas, &spec, &config, &seeds);
        SloReport::compute(&outcomes, threshold).meets_goodput_bar(1.0)
    });
    assert_eq!(got, want);
}

#[test]
fn thread_count_does_not_change_simulation_results() {
    let trace = TraceBuilder::new(Dataset::azure_code())
        .arrivals(ArrivalProcess::poisson(2.0))
        .duration(SimDuration::from_secs(45))
        .tier_mix(TierMix::paper_equal())
        .build(&SeedStream::new(5));
    let config = ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1());
    let schemes = vec![
        SchedulerSpec::sarathi_fcfs(),
        SchedulerSpec::sarathi_edf(),
        SchedulerSpec::qoserve(),
    ];

    let run_all = |threads: usize| {
        par_map_threads(threads, schemes.clone(), |_, spec| {
            run_shared(&trace, 1, &spec, &config, &SeedStream::new(5))
        })
    };
    let one = run_all(1);
    let four = run_all(4);
    assert_eq!(one, four);
}

/// Regression test for iteration-order nondeterminism: two identical
/// runs in the same process must produce bit-identical outcome
/// *sequences*, before any downstream sorting.
///
/// The engine and schedulers used to keep in-flight/queued jobs in
/// `HashMap`s whose per-instance `RandomState` makes drain order differ
/// between two map instances even within one process. That leak was
/// masked by `run_replicas` sorting outcomes by id; this test compares
/// the raw order out of the engine — on a truncated horizon, so
/// `finish` (through `take_orphans`) has to drain both the running set
/// and the scheduler queue while plenty of work is still outstanding.
#[test]
fn repeated_runs_emit_outcomes_in_identical_order() {
    let trace = TraceBuilder::new(Dataset::azure_conv())
        .arrivals(ArrivalProcess::poisson(30.0)) // heavy overload: deep queues
        .duration(SimDuration::from_secs(30))
        .tier_mix(TierMix::paper_equal())
        .build(&SeedStream::new(7));
    let hw = HardwareConfig::llama3_8b_a100_tp1();

    for spec in [
        SchedulerSpec::qoserve(),
        SchedulerSpec::SlosServe,
        SchedulerSpec::sarathi_edf(),
    ] {
        let run_once = || {
            let seeds = SeedStream::new(7);
            let config = ReplicaConfig::new(hw.clone()).with_horizon(SimTime::from_secs(10)); // cut off mid-flight
            let sched = spec.build(&hw, &seeds);
            let mut engine = ReplicaEngine::new(config, sched, &seeds);
            engine.run_trace(&trace)
        };
        let first = run_once();
        let second = run_once();
        assert!(
            first.iter().any(|o| !o.finished()),
            "{}: horizon must leave unfinished work or the drain path is untested",
            spec.label()
        );
        // Sequence equality — same outcomes in a different order fails.
        assert_eq!(
            first,
            second,
            "{}: outcome order must be reproducible",
            spec.label()
        );
    }
}
