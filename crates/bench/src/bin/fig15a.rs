//! Figure 15a: Medha's adaptive chunking vs QoServe's dynamic chunking.
//!
//! Both schedulers process a synthetic trace of long requests (10 K
//! prefill, 500 decode tokens — §4.5.1) and their per-batch chunk sizes
//! are traced. Medha only shrinks chunks as prompt context deepens;
//! QoServe additionally grows them whenever batch slack accumulates. An
//! isolated goodput comparison (dynamic chunking only, FCFS order, no
//! relegation) quantifies the difference — the paper measures 0.32 vs
//! 0.26 QPS, a 23 % gain.

use qoserve::prelude::*;
use qoserve_bench::{banner, emit_results};
use qoserve_metrics::SloReport;
use qoserve_sim::json;

fn synthetic_trace(qps: f64, window: SimDuration, seeds: &SeedStream) -> Trace {
    TraceBuilder::new(Dataset::fixed("synthetic-10k", 10_000, 500))
        .arrivals(ArrivalProcess::poisson(qps))
        .duration(window)
        .tier_mix(TierMix::single(QosTier::new(
            TierId::Q1,
            QosClass::interactive_secs_ms(6.0, 50.0),
        )))
        .build(seeds)
}

/// QoServe stripped to dynamic chunking only: α=0 (with a single tier
/// this is FCFS), relegation off — the §4.5.1 isolation.
fn dc_only() -> SchedulerSpec {
    SchedulerSpec::qoserve_with(QoServeConfig {
        alpha: AlphaPolicy::Fixed { ms_per_token: 0.0 },
        eager_relegation: false,
        ..QoServeConfig::default()
    })
}

fn medha() -> SchedulerSpec {
    SchedulerSpec::Medha {
        config: MedhaConfig::default(),
        predictor: PredictorKind::Analytical,
    }
}

fn chunk_trace(spec: &SchedulerSpec, trace: &Trace, seeds: &SeedStream) -> Vec<u32> {
    let hw = HardwareConfig::llama3_8b_a100_tp1();
    let config = ReplicaConfig::new(hw.clone()).with_batch_recording();
    let sched = spec.build(&hw, seeds);
    let mut engine = ReplicaEngine::new(config, sched, seeds);
    let _ = engine.run_trace(trace);
    engine
        .batch_log()
        .iter()
        .filter(|b| b.prefill_tokens > 0)
        .map(|b| b.prefill_tokens)
        .collect()
}

fn main() {
    banner(
        "fig15a",
        "Chunk-size traces: Medha vs QoServe (synthetic 10k/500)",
    );

    let seeds = SeedStream::new(15);
    let trace = synthetic_trace(0.25, SimDuration::from_secs(600), &seeds);

    let medha_chunks = chunk_trace(&medha(), &trace, &seeds);
    let qoserve_chunks = chunk_trace(&dc_only(), &trace, &seeds);

    let stats = |chunks: &[u32]| {
        let mut sorted = chunks.to_vec();
        sorted.sort_unstable();
        (
            sorted.first().copied().unwrap_or(0),
            sorted[sorted.len() / 2],
            sorted.last().copied().unwrap_or(0),
        )
    };
    let (m_min, m_med, m_max) = stats(&medha_chunks);
    let (q_min, q_med, q_max) = stats(&qoserve_chunks);

    let mut table = Table::new(vec![
        "scheme",
        "batches",
        "chunk min",
        "chunk p50",
        "chunk max",
    ]);
    table.row(vec![
        "Medha".into(),
        medha_chunks.len().to_string(),
        m_min.to_string(),
        m_med.to_string(),
        m_max.to_string(),
    ]);
    table.row(vec![
        "QoServe (DC only)".into(),
        qoserve_chunks.len().to_string(),
        q_min.to_string(),
        q_med.to_string(),
        q_max.to_string(),
    ]);
    print!("{table}");

    println!("\nfirst 24 chunk sizes of one long prefill:");
    println!(
        "  Medha:   {:?}",
        &medha_chunks[..24.min(medha_chunks.len())]
    );
    println!(
        "  QoServe: {:?}",
        &qoserve_chunks[..24.min(qoserve_chunks.len())]
    );

    // Isolated goodput comparison.
    let hw = HardwareConfig::llama3_8b_a100_tp1();
    let config = ClusterConfig::new(hw);
    let goodput = |spec: &SchedulerSpec| {
        par_max_passing(0.05, 2.0, 0.02, |qps| {
            let t = synthetic_trace(qps, SimDuration::from_secs(600), &seeds.child("gp"));
            if t.is_empty() {
                return true;
            }
            let outcomes = run_shared(&t, 1, spec, &config, &seeds);
            SloReport::compute(&outcomes, t.long_prompt_threshold()).meets_goodput_bar(1.0)
        })
        .unwrap_or(0.0)
    };
    let gm = goodput(&medha());
    let gq = goodput(&dc_only());
    emit_results(
        "fig15a",
        &[
            json!({
                "scheme": "Medha",
                "batches": medha_chunks.len(),
                "chunk_min": m_min,
                "chunk_p50": m_med,
                "chunk_max": m_max,
                "goodput_qps": gm,
            }),
            json!({
                "scheme": "QoServe (DC only)",
                "batches": qoserve_chunks.len(),
                "chunk_min": q_min,
                "chunk_p50": q_med,
                "chunk_max": q_max,
                "goodput_qps": gq,
            }),
        ],
    );
    println!(
        "\ngoodput: Medha {gm:.2} QPS vs QoServe-DC {gq:.2} QPS -> {:.0}% gain",
        (gq / gm.max(1e-9) - 1.0) * 100.0
    );
    println!("paper: 0.26 vs 0.32 QPS (23% gain) from the chunking strategy alone");
}
