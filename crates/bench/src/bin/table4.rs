//! Table 4: cluster-scale siloed vs shared serving.
//!
//! The paper serves Az-Code at 35 QPS (3 equal tiers, Llama3-8B) on a
//! 16-GPU cluster: the siloed SOTA needs (7,3,3) = 13 GPUs to meet SLOs;
//! shrinking it to the 10 GPUs QoServe uses — silo-(6,2,2) — explodes
//! violations to 60 %, while shared QoServe-(10) serves the whole load
//! with no violations. 23 % fewer GPUs at equal SLOs.

use qoserve::experiments::scaled_window;
use qoserve::prelude::*;
use qoserve_bench::{banner, emit_results, overall_median_latency, overall_p95_latency};
use qoserve_metrics::SloReport;
use qoserve_sim::json;

fn main() {
    banner(
        "table4",
        "Cluster-scale: siloed vs QoServe shared (Az-Code @ 35 QPS)",
    );

    let hw = HardwareConfig::llama3_8b_a100_tp1();
    let window = scaled_window(3600);
    let trace = TraceBuilder::new(Dataset::azure_code())
        .arrivals(ArrivalProcess::poisson(35.0))
        .duration(window)
        .paper_tier_mix()
        .build(&SeedStream::new(4));
    println!("trace: {} requests over {window}", trace.len());

    let config = ClusterConfig::new(hw);
    let seeds = SeedStream::new(4);

    // Siloed groups: Q1 runs the TBT-safe 256 chunk; Q2/Q3 silos maximise
    // throughput with a 2k chunk (the paper's baseline configuration).
    let interactive = SchedulerSpec::Sarathi {
        policy: OrderPolicy::Fcfs,
        chunk: 256,
    };
    let batch = SchedulerSpec::Sarathi {
        policy: OrderPolicy::Fcfs,
        chunk: 2_048,
    };
    let silo = |q1: u32, q2: u32, q3: u32| {
        vec![
            SiloGroup::new(vec![TierId::Q1], q1, interactive.clone()),
            SiloGroup::new(vec![TierId::Q2], q2, batch.clone()),
            SiloGroup::new(vec![TierId::Q3], q3, batch.clone()),
        ]
    };

    let mut table = Table::new(vec![
        "scheme",
        "GPUs",
        "Q1 p99 (6s)",
        "Q2 p99 (600s)",
        "Q3 p99 (1800s)",
        "overall violations",
    ]);
    let mut rows = Vec::new();
    // The three deployments run one after another, each spreading its
    // replicas over every worker thread.
    for (label, gpus, groups) in [
        ("Silo-(7,3,3)", 13, Some(silo(7, 3, 3))),
        ("Silo-(6,2,2)", 10, Some(silo(6, 2, 2))),
        ("QoServe-(10)", 10, None),
    ] {
        let outcomes = match &groups {
            Some(groups) => run_siloed(&trace, groups, &config, &seeds),
            None => run_shared(&trace, gpus, &SchedulerSpec::qoserve(), &config, &seeds),
        };
        eprintln!("  done: {label}");
        let report = SloReport::compute(&outcomes, trace.long_prompt_threshold());
        table.row(vec![
            label.to_owned(),
            gpus.to_string(),
            format!("{:.2}", report.tier_summary(TierId::Q1).p99),
            format!("{:.2}", report.tier_summary(TierId::Q2).p99),
            format!("{:.2}", report.tier_summary(TierId::Q3).p99),
            format!("{:.2}%", report.violation_pct()),
        ]);
        rows.push(json!({
            "scheme": label,
            "gpus": gpus,
            "qps": 35.0,
            "violation_pct": report.violation_pct(),
            "p50_secs": overall_median_latency(&outcomes),
            "p95_secs": overall_p95_latency(&outcomes),
        }));
    }
    print!("{table}");
    emit_results("table4", &rows);

    println!();
    println!(
        "paper: Silo-(7,3,3)=13 GPUs meets SLOs (0.24% viol.); Silo-(6,2,2)=10 GPUs \
         collapses to 60.4%; QoServe-(10) meets SLOs with 0% — 23% fewer GPUs"
    );

    // How few replicas would QoServe actually need at this load?
    eprintln!("searching minimum QoServe replicas...");
    if let Some(n) = min_replicas_for(&trace, &SchedulerSpec::qoserve(), &config, 1.0, 13, &seeds) {
        println!(
            "capacity planner: QoServe meets all SLOs with {n} replicas \
             ({:.0}% fewer GPUs than the 13-GPU silo)",
            (1.0 - n as f64 / 13.0) * 100.0
        );
    }
}
