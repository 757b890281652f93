//! §4.5.3: scheduling-overhead comparison with SLOs-Serve.
//!
//! The paper argues SLOs-Serve's periodic dynamic program costs
//! `O(N · N_new · M)` per decision while QoServe pops a priority queue in
//! `O(log N_new)` — so only QoServe scales to deep queues and large
//! deployments. This binary measures both schedulers' `plan_batch` wall
//! time directly as the prefill queue deepens, and also compares their
//! end-to-end SLO attainment at a moderate load (where both are healthy —
//! the overhead, not the policy, is the scaling story).

use std::time::Instant;

use qoserve::prelude::*;
use qoserve_bench::{banner, emit_results};
use qoserve_metrics::percentile;
use qoserve_sched::{Constraints, DecodeJob, PrefillJob};
use qoserve_sim::json;

fn queued<S: Scheduler>(sched: &mut S, n: u64) {
    for i in 0..n {
        let spec = RequestSpec {
            id: RequestId(i),
            arrival: SimTime::from_millis(i),
            prompt_tokens: 1_000 + (i % 7) as u32 * 300,
            decode_tokens: 100,
            slo: Slo::of_tier(QosTier::paper_tiers()[(i % 3) as usize]),
            app_id: (i % 3) as u32,
        };
        sched.on_arrival(PrefillJob::new(spec), spec.arrival);
    }
}

fn decode_pool(n: u64) -> Vec<DecodeJob> {
    (0..n)
        .map(|i| DecodeJob {
            id: RequestId(1_000_000 + i),
            context_len: 1_500,
            next_token_deadline: SimTime::from_secs(100),
            relegated: false,
        })
        .collect()
}

/// Median wall time of `plan_batch` over `reps` fresh schedulers at
/// queue depth `n`, in microseconds. A discarded plan on another fresh
/// scheduler runs first, so no counted call pays for cold caches.
fn plan_cost<F, S>(make: F, n: u64, reps: usize) -> f64
where
    F: Fn() -> S,
    S: Scheduler,
{
    let decodes = decode_pool(64);
    let plan_us = || {
        let mut sched = make();
        queued(&mut sched, n);
        #[expect(
            clippy::disallowed_methods,
            reason = "this bin measures the host's wall time, not simulated time"
        )]
        let start = Instant::now();
        let plan = sched.plan_batch(SimTime::from_secs(1), &decodes, Constraints::unlimited());
        let us = start.elapsed().as_secs_f64() * 1e6;
        std::hint::black_box(plan);
        us
    };
    plan_us();
    let samples: Vec<f64> = (0..reps).map(|_| plan_us()).collect();
    percentile(&samples, 0.5).unwrap_or(0.0)
}

fn main() {
    banner(
        "sched_overhead",
        "Per-decision scheduling cost: QoServe vs SLOs-Serve (§4.5.3)",
    );

    let hw = HardwareConfig::llama3_8b_a100_tp1();
    let mut table = Table::new(vec![
        "queue depth",
        "QoServe plan (us)",
        "SLOs-Serve plan (us)",
        "ratio",
    ]);
    let mut rows = Vec::new();
    for n in [100u64, 1_000, 5_000, 20_000] {
        let reps = if n >= 5_000 { 3 } else { 10 };
        let qs = plan_cost(
            || QoServeScheduler::new(QoServeConfig::default(), LatencyPredictor::analytical(&hw)),
            n,
            reps,
        );
        let slos = plan_cost(
            || SlosServeScheduler::new(LatencyPredictor::analytical(&hw)),
            n,
            reps,
        );
        table.row(vec![
            n.to_string(),
            format!("{qs:.0}"),
            format!("{slos:.0}"),
            format!("{:.0}x", slos / qs.max(1e-9)),
        ]);
        rows.push(json!({
            "queue_depth": n,
            "qoserve_plan_us": qs,
            "slos_serve_plan_us": slos,
        }));
        eprintln!("  done: depth {n}");
    }
    print!("{table}");
    emit_results("sched_overhead", &rows);
    println!(
        "\npaper: SLOs-Serve's O(N*N_new*M) DP scales poorly with queue depth; \
         QoServe needs O(log N_new) per scheduled prefill"
    );

    // Policy sanity at healthy load: both attain SLOs, so the overhead is
    // the differentiator at scale.
    let trace = TraceBuilder::new(Dataset::azure_conv())
        .arrivals(ArrivalProcess::poisson(3.0))
        .duration(SimDuration::from_secs(600))
        .paper_tier_mix()
        .build(&SeedStream::new(453));
    let config = ClusterConfig::new(hw);
    println!();
    for spec in [SchedulerSpec::qoserve(), SchedulerSpec::SlosServe] {
        let outcomes = run_shared(&trace, 1, &spec, &config, &SeedStream::new(453));
        let report = SloReport::compute(&outcomes, trace.long_prompt_threshold());
        println!(
            "{:>12} at 3 QPS: {:.1}% violations",
            spec.label(),
            report.violation_pct()
        );
    }
}
