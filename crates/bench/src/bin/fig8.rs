//! Figure 8: prefill goodput under PD disaggregation.
//!
//! Prefill nodes carry no decodes, so every scheme runs a large 8 K chunk
//! and dynamic chunking cannot help; QoServe's win comes from hybrid
//! prioritization plus eager relegation alone and is therefore smaller
//! than in the colocated case — exactly the paper's observation.

use qoserve::experiments::scaled_window;
use qoserve::prelude::*;
use qoserve_bench::{banner, emit_results};
use qoserve_engine::{disagg_chunk_limits, to_prefill_only_trace, DISAGG_CHUNK};
use qoserve_metrics::SloReport;
use qoserve_sim::json;

fn main() {
    banner("fig8", "Prefill goodput with PD disaggregation (Az-Conv)");

    let schemes: Vec<(String, SchedulerSpec)> = vec![
        (
            "Disagg-FCFS".into(),
            SchedulerSpec::Sarathi {
                policy: OrderPolicy::Fcfs,
                chunk: DISAGG_CHUNK,
            },
        ),
        (
            "Disagg-EDF".into(),
            SchedulerSpec::Sarathi {
                policy: OrderPolicy::Edf,
                chunk: DISAGG_CHUNK,
            },
        ),
        (
            "Disagg-QoServe".into(),
            SchedulerSpec::qoserve_with(QoServeConfig {
                chunk_limits: disagg_chunk_limits(),
                ..QoServeConfig::default()
            }),
        ),
    ];

    let window = scaled_window(2400);
    let dataset = Dataset::azure_conv();
    let mut table = Table::new(vec!["model", "Disagg-FCFS", "Disagg-EDF", "Disagg-QoServe"]);

    let mut rows = Vec::new();
    for hw in HardwareConfig::paper_configs() {
        let config = ClusterConfig::new(hw.clone());
        let seeds = SeedStream::new(8);
        let goodputs: Vec<f64> = schemes
            .iter()
            .map(|(_, spec)| {
                par_max_passing(0.5, 48.0, 0.2, |qps| {
                    let trace = to_prefill_only_trace(
                        &TraceBuilder::new(dataset.clone())
                            .arrivals(ArrivalProcess::poisson(qps))
                            .duration(window)
                            .paper_tier_mix()
                            .build(&seeds.child("trace")),
                    );
                    if trace.is_empty() {
                        return true;
                    }
                    let outcomes = run_shared(&trace, 1, spec, &config, &seeds);
                    SloReport::compute(&outcomes, trace.long_prompt_threshold())
                        .meets_goodput_bar(1.0)
                })
                .unwrap_or(0.0)
            })
            .collect();
        table.row(vec![
            hw.label(),
            format!("{:.1}", goodputs[0]),
            format!("{:.1}", goodputs[1]),
            format!("{:.1}", goodputs[2]),
        ]);
        rows.push(json!({
            "model": hw.label(),
            "disagg_fcfs_qps": goodputs[0],
            "disagg_edf_qps": goodputs[1],
            "disagg_qoserve_qps": goodputs[2],
        }));
        eprintln!("  done: {}", hw.label());
    }
    print!("{table}");
    emit_results("fig8", &rows);
    println!();
    println!(
        "paper: QoServe has the best prefill goodput on every model, with smaller \
         margins than PD colocation (no decode slack to exploit)"
    );
}
