//! Fault sweep: goodput vs fault intensity under failure recovery.
//!
//! Injects a deterministic fault timeline — replica crashes, straggler
//! windows, predictor drift — at increasing intensity into a shared
//! cluster, and compares how each scheme's goodput degrades when the
//! recovery loop (re-dispatch with bounded retries, re-prefill, tier-aware
//! shedding) is doing the serving. The paper's graceful-degradation
//! argument (§3.3) predicts QoServe should lose mostly low-priority
//! traffic where importance-blind baselines lose uniformly.
//!
//! The timeline is `FaultConfig::moderate()` with its rates scaled by the
//! intensity, as in every bin that injects faults, so every crash
//! restarts after 30 s. Only tests reach the permanent-loss path (a crash
//! with no restart).

use qoserve::experiments::{fault_sweep, FaultSweepSetup};
use qoserve::prelude::*;
use qoserve_bench::{banner, emit_results};
use qoserve_sim::json;
use qoserve_sim::json::Value;

fn main() {
    banner("fault_sweep", "Goodput vs fault intensity with recovery");

    let setup = FaultSweepSetup {
        dataset: Dataset::azure_conv(),
        hardware: HardwareConfig::llama3_8b_a100_tp1(),
        replicas: 4,
        qps: 10.0,
        window: qoserve::experiments::scaled_window(600),
        mix: TierMix::paper_equal(),
        low_priority_fraction: 0.2,
        plan: FaultPlan::with_faults(FaultConfig::moderate()),
        seed: 31,
    };
    let schemes: Vec<SchedulerSpec> = vec![
        SchedulerSpec::qoserve(),
        SchedulerSpec::sarathi_fcfs(),
        SchedulerSpec::RateLimited {
            inner: Box::new(SchedulerSpec::sarathi_fcfs()),
            max_backlog_tokens: 90_000,
        },
    ];
    let intensities = [0.0, 0.5, 1.0, 1.5, 2.0];

    println!(
        "workload: {} replicas at {} QPS, moderate fault profile scaled by intensity\n",
        setup.replicas, setup.qps
    );

    let points = fault_sweep(&setup, &schemes, &intensities);

    let mut table = Table::new(vec![
        "scheme",
        "intensity",
        "goodput",
        "violations",
        "crashes",
        "redisp.",
        "shed",
        "exhausted",
        "reprefill toks",
    ]);
    let mut rows: Vec<Value> = Vec::new();
    for p in &points {
        let goodput_pct = 100.0 - p.report.violation_pct();
        table.row(vec![
            p.scheme.clone(),
            format!("{:.1}", p.intensity),
            format!("{goodput_pct:.1}%"),
            format!("{:.1}%", p.report.violation_pct()),
            p.stats.crashes.to_string(),
            p.stats.redispatches.to_string(),
            p.stats.shed.to_string(),
            p.stats.retry_exhausted.to_string(),
            p.stats.reprefill_tokens.to_string(),
        ]);
        rows.push(json!({
            "scheme": p.scheme,
            "intensity": p.intensity,
            "goodput_pct": goodput_pct,
            "violation_pct": p.report.violation_pct(),
            "served_violation_pct": p.report.served_violation_pct(),
            "rejected_pct": p.report.rejected_pct(),
            "completion_fraction": p.recovery.overall.completion_fraction(),
            "crashes": p.stats.crashes,
            "restarts": p.stats.restarts,
            "redispatches": p.stats.redispatches,
            "shed": p.stats.shed,
            "retry_exhausted": p.stats.retry_exhausted,
            "reprefill_tokens": p.stats.reprefill_tokens,
            "degraded_iterations": p.stats.degraded_iterations,
        }));
        eprintln!("  done: {} @ intensity {:.1}", p.scheme, p.intensity);
    }
    print!("{table}");
    println!(
        "\nexpectation: as intensity grows, every scheme pays crashes and \
         re-prefill, but QoServe's tier-aware recovery sheds free-tier work \
         first while rate limiting rejects blindly and FCFS drags all tiers \
         down together."
    );
    emit_results("fault_sweep", &rows);
}
