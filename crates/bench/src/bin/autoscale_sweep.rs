//! Autoscale sweep: fixed-for-peak vs elastic fleet on the fig12 diurnal
//! wave.
//!
//! Replays the fig12 workload (3 ↔ 8 QPS square wave, Az-Code, 20 %
//! low-priority) against three fleets: a fixed fleet sized for the peak,
//! a fixed fleet sized for the trough, and an elastic fleet driven by the
//! SLO-feedback autoscaler. The comparison the control plane has to win:
//! match the peak fleet's per-tier SLO attainment while spending
//! meaningfully fewer replica-hours, where the trough fleet shows what
//! those saved hours would cost without elasticity.

use qoserve::experiments::scale_factor;
use qoserve::prelude::*;
use qoserve_bench::{banner, emit_results};
use qoserve_metrics::SloReport;
use qoserve_sim::json;
use qoserve_sim::json::Value;

/// Per-tier SLO attainment (fraction in [0, 1]) of one run's outcomes.
fn tier_attainment(report: &SloReport, tier: TierId) -> f64 {
    1.0 - report.tier_violation_pct(tier) / 100.0
}

fn main() {
    banner(
        "autoscale_sweep",
        "Fixed vs elastic fleet on the diurnal wave (Az-Code, Llama3-8B)",
    );

    // The fig12 workload, verbatim (same shape, same seed).
    let scale = scale_factor();
    let half_period = SimDuration::from_secs_f64(900.0 * scale.clamp(0.2, 1.0));
    let total = half_period * 8;
    let trace = TraceBuilder::new(Dataset::azure_code())
        .arrivals(ArrivalProcess::DiurnalSquare {
            low_qps: 3.0,
            high_qps: 8.0,
            half_period,
        })
        .duration(total)
        .paper_tier_mix()
        .low_priority_fraction(0.2)
        .build(&SeedStream::new(12));
    println!(
        "trace: {} requests over {} (8 phases of {})\n",
        trace.len(),
        total,
        half_period
    );

    let hw = HardwareConfig::llama3_8b_a100_tp1();
    let config = ClusterConfig::new(hw.clone());
    let scheme = SchedulerSpec::qoserve();
    let threshold = trace.long_prompt_threshold();
    // One replica serves ~5.5-6 QPS, so the 8-QPS peak needs 2 replicas
    // and the 3-QPS trough needs 1 — the elasticity headroom is a factor
    // of two, same as the paper's peak-to-trough capacity argument.
    let peak_fleet = 2u32;
    let trough_fleet = 1u32;

    // Responsive control loop: queue pressure (a leading signal — it
    // fires within one tick of a burst) does the scale-up work; the
    // calm streak does conservative scale-down in the troughs. The
    // watermarks are sized in whole prompts: Az-Code prompts run to
    // several thousand tokens each, so a high watermark of a couple of
    // prompts would fire on one unlucky arrival, and a low watermark
    // below one prompt would reset the calm streak every time a single
    // request happens to be queued at the sample instant.
    let autoscale = AutoscaleConfig {
        control_interval: SimDuration::from_secs(15),
        window: SimDuration::from_secs(60),
        min_replicas: trough_fleet,
        max_replicas: peak_fleet + 1,
        queue_high_tokens: 12_000,
        queue_low_tokens: 3_000,
        up_streak: 2,
        down_streak: 4,
        cooldown: SimDuration::from_secs(45),
    };
    let elastic = ElasticPlan {
        lifecycle: LifecycleConfig {
            provision_delay: SimDuration::from_secs(5),
            warmup: SimDuration::from_secs(10),
            drain_grace: SimDuration::from_secs(30),
        },
        max_replicas: peak_fleet + 1,
        schedule: Vec::new(),
        autoscale: Some(autoscale),
    };

    let total_hours = total.as_secs_f64() / 3_600.0;
    let mut table = Table::new(vec![
        "fleet",
        "replica-hours",
        "overall viol.",
        "Q1 att.",
        "Q2 att.",
        "Q3 att.",
        "scale ups",
        "scale downs",
        "drain migr.",
        "warmup (s)",
    ]);
    let mut rows: Vec<Value> = Vec::new();
    let mut record = |label: &str,
                      outcomes: &[RequestOutcome],
                      stats: &FaultRunStats,
                      replica_hours: f64,
                      fleet_log: Option<&[(SimTime, u32)]>| {
        let report = SloReport::compute(outcomes, threshold);
        let atts: Vec<f64> = [TierId::Q1, TierId::Q2, TierId::Q3]
            .iter()
            .map(|&t| tier_attainment(&report, t))
            .collect();
        table.row(vec![
            label.to_owned(),
            format!("{replica_hours:.2}"),
            format!("{:.2}%", report.violation_pct()),
            format!("{:.3}", atts[0]),
            format!("{:.3}", atts[1]),
            format!("{:.3}", atts[2]),
            stats.scale_ups.to_string(),
            stats.scale_downs.to_string(),
            stats.drain_migrated.to_string(),
            format!("{:.0}", stats.warmup_wasted_us as f64 / 1e6),
        ]);
        rows.push(json!({
            "fleet": label,
            "replica_hours": replica_hours,
            "violation_pct": report.violation_pct(),
            "important_violation_pct": report.important_violation_pct(),
            "q1_attainment": atts[0],
            "q2_attainment": atts[1],
            "q3_attainment": atts[2],
            "scale_ups": stats.scale_ups,
            "scale_downs": stats.scale_downs,
            "drain_migrated": stats.drain_migrated,
            "warmup_wasted_us": stats.warmup_wasted_us,
            "fleet_steps": fleet_log.map(|log| {
                log.iter()
                    .map(|(at, size)| json!([at.as_micros(), size]))
                    .collect::<Vec<_>>()
            }),
        }));
        eprintln!("  done: {label}");
        atts.iter().cloned().fold(f64::INFINITY, f64::min)
    };

    // Fixed fleets run the same kernel with no scale plan (and no faults
    // injected); their replica-hours are simply size x wall time.
    for (label, replicas) in [("fixed-peak", peak_fleet), ("fixed-trough", trough_fleet)] {
        let result = run_shared_elastic(
            &trace,
            replicas,
            &scheme,
            &config,
            &FaultPlan::none(),
            &ElasticPlan::none(),
            &SeedStream::new(12),
        )
        .expect("fixed fleet run");
        record(
            label,
            &result.outcomes,
            &result.stats,
            replicas as f64 * total_hours,
            None,
        );
    }

    let result = run_shared_elastic(
        &trace,
        peak_fleet,
        &scheme,
        &config,
        &FaultPlan::none(),
        &elastic,
        &SeedStream::new(12),
    )
    .expect("elastic fleet run");
    let elastic_hours = result.replica_us as f64 / 3.6e9;
    let worst = record(
        "elastic",
        &result.outcomes,
        &result.stats,
        elastic_hours,
        Some(&result.fleet),
    );

    print!("{table}");
    println!(
        "\nexpectation: the elastic fleet drains to {trough_fleet} replica in every \
         trough and re-provisions ahead of each burst, holding every tier at \
         >= 99% attainment (worst tier here: {worst:.3}) on ~{:.0}% of the \
         fixed-for-peak replica-hours; the fixed-trough fleet shows the \
         violation cliff those saved hours would otherwise cost.",
        100.0 * elastic_hours / (peak_fleet as f64 * total_hours),
    );
    emit_results("autoscale_sweep", &rows);
}
