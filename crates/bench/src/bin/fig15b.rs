//! Figure 15b: GPUs required — PolyServe-style binning vs QoServe
//! colocation.
//!
//! Two interactive classes (Q1: 50 ms TBT, Q2: 100 ms TBT, both 6 s TTFT)
//! at 50 QPS total on Azure-Conv, with the Q1 share varied. PolyServe
//! dedicates a deployment per TBT class (Medha-style adaptive chunking
//! within each); QoServe serves both classes on one shared pool. GPUs =
//! replicas needed to carry each share at the measured per-replica
//! goodput. Expected shape: QoServe needs fewer GPUs at every mix,
//! because colocation exploits cross-class slack and avoids per-class
//! provisioning fragmentation.

use qoserve::experiments::scaled_window;
use qoserve::prelude::*;
use qoserve_bench::{banner, emit_results};
use qoserve_metrics::SloReport;
use qoserve_sim::json;

fn tier_50ms() -> QosTier {
    QosTier::new(TierId::Q1, QosClass::interactive_secs_ms(6.0, 50.0))
}

fn tier_100ms() -> QosTier {
    QosTier::new(TierId::Q2, QosClass::interactive_secs_ms(6.0, 100.0))
}

/// Per-replica goodput for a given tier mix under a scheduler. The
/// probes run on the parallel harness (`par_max_passing` returns the
/// serial walk's boundary).
fn goodput_for_mix(mix: TierMix, spec: &SchedulerSpec, window: SimDuration, seed: u64) -> f64 {
    let hw = HardwareConfig::llama3_8b_a100_tp1();
    let config = ClusterConfig::new(hw);
    let seeds = SeedStream::new(seed);
    par_max_passing(0.5, 30.0, 0.25, |qps| {
        let trace = TraceBuilder::new(Dataset::azure_conv())
            .arrivals(ArrivalProcess::poisson(qps))
            .duration(window)
            .tier_mix(mix.clone())
            .build(&seeds.child("trace"));
        if trace.is_empty() {
            return true;
        }
        let outcomes = run_shared(&trace, 1, spec, &config, &seeds);
        SloReport::compute(&outcomes, trace.long_prompt_threshold()).meets_goodput_bar(1.0)
    })
    .unwrap_or(0.0)
}

fn main() {
    banner(
        "fig15b",
        "GPUs to serve 50 QPS across two TBT classes: PolyServe vs QoServe",
    );

    let window = scaled_window(600);
    let total_qps = 50.0;

    // PolyServe: per-class deployments with class-specific adaptive
    // chunking (Medha-style, TBT target = the class SLO).
    let poly_sched = |tbt_ms: u64| SchedulerSpec::Medha {
        config: MedhaConfig {
            tbt_target: SimDuration::from_millis(tbt_ms),
        },
        predictor: PredictorKind::Analytical,
    };
    eprintln!("measuring per-class goodputs...");
    // The two per-class measurements run one after another, each search
    // spreading its probes over every worker thread.
    let g_poly_50 = goodput_for_mix(TierMix::single(tier_50ms()), &poly_sched(50), window, 151);
    let g_poly_100 = goodput_for_mix(TierMix::single(tier_100ms()), &poly_sched(100), window, 152);
    eprintln!("  PolyServe per-replica goodput: 50ms class {g_poly_50:.1} QPS, 100ms class {g_poly_100:.1} QPS");

    let mut table = Table::new(vec![
        "Q1(50ms) share",
        "PolyServe GPUs",
        "QoServe GPUs",
        "savings",
    ]);
    let mut rows = Vec::new();
    for q1_share in [0.9, 0.7, 0.5, 0.3, 0.1] {
        let poly_gpus = (total_qps * q1_share / g_poly_50.max(1e-9)).ceil()
            + (total_qps * (1.0 - q1_share) / g_poly_100.max(1e-9)).ceil();

        let mix = TierMix::new(vec![
            (tier_50ms(), q1_share),
            (tier_100ms(), 1.0 - q1_share),
        ]);
        let g_qs = goodput_for_mix(mix, &SchedulerSpec::qoserve(), window, 153);
        let qs_gpus = (total_qps / g_qs.max(1e-9)).ceil();

        table.row(vec![
            format!("{:.0}%", q1_share * 100.0),
            format!("{poly_gpus:.0}"),
            format!("{qs_gpus:.0}"),
            format!("{:.0}%", (1.0 - qs_gpus / poly_gpus) * 100.0),
        ]);
        eprintln!(
            "  done: Q1 share {:.0}% (QoServe goodput {g_qs:.1})",
            q1_share * 100.0
        );
        rows.push(json!({
            "q1_share": q1_share,
            "qps": total_qps,
            "polyserve_gpus": poly_gpus,
            "qoserve_gpus": qs_gpus,
            "qoserve_goodput_qps": g_qs,
            "polyserve_goodput_50ms_qps": g_poly_50,
            "polyserve_goodput_100ms_qps": g_poly_100,
        }));
    }
    print!("{table}");
    println!("\npaper: QoServe always requires fewer A100s than PolyServe's per-class deployments");
    emit_results("fig15b", &rows);
}
