//! Captures a live-stats snapshot stream from a fig12-diurnal chaos run.
//!
//! Composes the fig12 diurnal square wave with the chaos sweep's fault
//! and scale-churn machinery on the elastic runner, with the
//! `qoserve-stats` aggregator observing at a fixed sim-time cadence. The
//! written JSONL stream, and the capture ring the aggregator tees off
//! (written as trace JSONL next to it), are pure functions of
//! `(seed, config)`: CI runs this under `QOSERVE_THREADS=1` and
//! `QOSERVE_THREADS=4` and byte-diffs both files. The stream also feeds
//! `qoservetop --replay` (see EXPERIMENTS.md).
//!
//! Usage: `stats_capture [JSONL_PATH]` (default
//! `results/stats_capture.jsonl`; the ring goes to the same path with a
//! `.trace.jsonl` suffix).

use std::fs;
use std::path::PathBuf;

use qoserve::experiments::scale_factor;
use qoserve::prelude::*;
use qoserve_stats::{stream_to_jsonl, StatsConfig, StatsHandle};
use qoserve_trace::{to_jsonl, RingSink, Tracer};

/// Ring capacity per replica; small enough that heavy replicas overflow,
/// exercising the per-replica drop accounting in the snapshot.
const RING_CAPACITY: usize = 1 << 14;

fn main() {
    let out = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/stats_capture.jsonl"));

    // Truncated fig12 diurnal shape (3 <-> 8 QPS square wave, Az-Code)
    // with chaos composed on top: moderate faults plus scale churn.
    let scale = scale_factor();
    let half_period = SimDuration::from_secs_f64(120.0 * scale.clamp(0.2, 1.0));
    let total = half_period * 4;
    let seeds = SeedStream::new(12);
    let trace = TraceBuilder::new(Dataset::azure_code())
        .arrivals(ArrivalProcess::DiurnalSquare {
            low_qps: 3.0,
            high_qps: 8.0,
            half_period,
        })
        .duration(total)
        .paper_tier_mix()
        .low_priority_fraction(0.2)
        .build(&seeds);

    let config = ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1());
    let scheme = SchedulerSpec::qoserve();
    let plan = FaultPlan::with_faults(FaultConfig::moderate().scaled(2.0));
    let churn = ScaleChurnConfig {
        events_per_hour: 60.0,
        max_events: 16,
    };
    let schedule = generate_scale_schedule(&churn, total, &seeds);
    let elastic = ElasticPlan {
        lifecycle: LifecycleConfig {
            provision_delay: SimDuration::from_secs(5),
            warmup: SimDuration::from_secs(10),
            drain_grace: SimDuration::from_secs(20),
        },
        max_replicas: 4,
        schedule,
        autoscale: None,
    };

    // The aggregator tees off a bounded capture ring and is driven at a
    // 30 s sim-time cadence by the kernel's observation boundaries.
    let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_secs(30)));
    let tracer = Tracer::new(stats.tee(Box::new(RingSink::new(RING_CAPACITY))));

    let result = run_shared_elastic_observed(
        &trace,
        2,
        &scheme,
        &config,
        &plan,
        &elastic,
        &seeds,
        &tracer,
        Some(&stats),
    );
    let Ok(result) = result else {
        eprintln!("error: elastic run failed to route requests");
        std::process::exit(1);
    };

    let stream = stats.stream();
    let jsonl = stream_to_jsonl(&stream);
    let ring_path = out.with_extension("trace.jsonl");
    let ring = to_jsonl(&tracer.snapshot(), tracer.dropped());
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            if let Err(e) = fs::create_dir_all(dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                std::process::exit(1);
            }
        }
    }
    for (path, bytes) in [(&out, &jsonl), (&ring_path, &ring)] {
        if let Err(e) = fs::write(path, bytes) {
            eprintln!("error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
    }

    let full = stats.full();
    let report = SloReport::compute(&result.outcomes, trace.long_prompt_threshold());
    println!(
        "captured {} deltas + final full snapshot ({} events, {} evicted) \
         [{} thread(s)]",
        stream.deltas.len(),
        full.frame.events,
        full.frame.dropped,
        thread_limit(),
    );
    println!(
        "run: {} requests, {:.2}% violations, {} crashes, {} ups / {} downs",
        result.outcomes.len(),
        report.violation_pct(),
        result.stats.crashes,
        result.stats.scale_ups,
        result.stats.scale_downs,
    );
    println!("stream: {}", out.display());
    println!("ring:   {}", ring_path.display());
    println!(
        "view:   cargo run --release -p qoserve-bench --bin qoservetop -- --replay {}",
        out.display()
    );
}
