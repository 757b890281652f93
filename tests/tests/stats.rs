//! Live-stats layer, end to end: the aggregator observing real elastic
//! chaos runs through the `_observed` kernel entry points.
//!
//! Four contracts are pinned here, mirroring DESIGN.md's stats section:
//!
//! 1. **Behavioral invisibility**: a stats-enabled run (tee sink plus
//!    observation boundaries) is bit-identical in outcomes, counters,
//!    and fleet accounting to the plain unstatted run.
//! 2. **Stream determinism**: the snapshot JSONL is byte-identical
//!    between the sharded and lockstep kernels and across repeated
//!    runs of the same seed, and so is the capture ring's trace JSONL
//!    under crashes, drains and scale events.
//! 3. **Delta composition**: the per-boundary deltas merge left-to-right
//!    into exactly the final full snapshot, and the JSONL round-trips
//!    losslessly with the schema version checked on load.
//! 4. **Handle readers**: the handle's cadence, finished flag and
//!    deltas agree with its own full snapshot over a real run.

use qoserve::prelude::*;
use qoserve_stats::{
    compose, stream_from_jsonl, stream_to_jsonl, StatsConfig, StatsHandle, SNAPSHOT_SCHEMA_VERSION,
};
use qoserve_trace::{to_jsonl, RingSink, Tracer};

fn cluster_config() -> ClusterConfig {
    ClusterConfig::new(HardwareConfig::llama3_8b_a100_tp1())
}

fn chaos_trace(seed: u64) -> Trace {
    TraceBuilder::new(Dataset::azure_conv())
        .arrivals(ArrivalProcess::poisson(8.0))
        .num_requests(160)
        .tier_mix(TierMix::paper_equal())
        .low_priority_fraction(0.25)
        .build(&SeedStream::new(seed))
}

/// A plan with both faults and membership churn, so the stream carries
/// lifecycle, fault, and re-dispatch traffic — not just completions.
fn chaos_plan() -> (FaultPlan, ElasticPlan) {
    let plan = FaultPlan::with_faults(FaultConfig::moderate().scaled(2.0));
    let elastic = ElasticPlan {
        lifecycle: LifecycleConfig {
            provision_delay: SimDuration::from_secs(2),
            warmup: SimDuration::from_secs(3),
            drain_grace: SimDuration::from_secs(5),
        },
        max_replicas: 4,
        schedule: vec![
            ScaleEvent {
                at: SimTime::from_secs(4),
                action: ScaleAction::Add,
            },
            ScaleEvent {
                at: SimTime::from_secs(12),
                action: ScaleAction::Drain,
            },
        ],
        autoscale: None,
    };
    (plan, elastic)
}

/// Runs the elastic chaos scenario with stats observing at `cadence`,
/// through either kernel.
fn run_observed(
    seed: u64,
    cadence: SimDuration,
    lockstep: bool,
) -> (ElasticRunResult, StatsHandle) {
    let (result, stats, _) = run_captured(seed, cadence, lockstep, 4096);
    (result, stats)
}

/// [`run_observed`] with the stats tee over a capture ring of `ring`
/// records per replica, returning the tracer too.
fn run_captured(
    seed: u64,
    cadence: SimDuration,
    lockstep: bool,
    ring: usize,
) -> (ElasticRunResult, StatsHandle, Tracer) {
    let trace = chaos_trace(seed);
    let config = cluster_config();
    let (plan, elastic) = chaos_plan();
    let stats = StatsHandle::new(StatsConfig::every(cadence));
    let tracer = Tracer::new(stats.tee(Box::new(RingSink::new(ring))));
    let run = if lockstep {
        run_shared_elastic_observed_lockstep
    } else {
        run_shared_elastic_observed
    };
    let result = run(
        &trace,
        2,
        &SchedulerSpec::qoserve(),
        &config,
        &plan,
        &elastic,
        &SeedStream::new(seed),
        &tracer,
        Some(&stats),
    )
    .expect("observed elastic run routes");
    (result, stats, tracer)
}

#[test]
fn stats_observation_is_behaviorally_invisible() {
    let trace = chaos_trace(71);
    let config = cluster_config();
    let (plan, elastic) = chaos_plan();
    let baseline = run_shared_elastic(
        &trace,
        2,
        &SchedulerSpec::qoserve(),
        &config,
        &plan,
        &elastic,
        &SeedStream::new(71),
    )
    .expect("baseline routes");

    let (observed, stats) = run_observed(71, SimDuration::from_secs(5), false);
    assert_eq!(
        observed.outcomes, baseline.outcomes,
        "stats observation must not perturb a single outcome"
    );
    assert_eq!(observed.stats, baseline.stats);
    assert_eq!(observed.replica_us, baseline.replica_us);
    assert_eq!(observed.fleet, baseline.fleet);

    // And the observer actually saw the run: boundaries fired, events
    // were folded, the final fold closed the stream.
    assert!(stats.finished(), "final fold must run");
    let full = stats.full();
    assert!(full.frame.events > 0, "aggregator saw trace records");
    assert!(
        full.seq > 1,
        "a multi-second run crosses several 5 s boundaries (saw {})",
        full.seq
    );
}

#[test]
fn snapshot_stream_is_byte_identical_sharded_vs_lockstep() {
    let cadence = SimDuration::from_secs(5);
    let (sharded_run, sharded) = run_observed(72, cadence, false);
    let (lockstep_run, lockstep) = run_observed(72, cadence, true);
    assert_eq!(sharded_run.outcomes, lockstep_run.outcomes);
    assert_eq!(
        sharded.stream(),
        lockstep.stream(),
        "every boundary delta must match between kernels, value for value"
    );

    let sharded_jsonl = stream_to_jsonl(&sharded.stream());
    let lockstep_jsonl = stream_to_jsonl(&lockstep.stream());
    assert_eq!(
        sharded_jsonl, lockstep_jsonl,
        "sharded and lockstep kernels must export the same stream bytes"
    );

    // Same seed, same kernel, run again: byte-identical replay.
    let (_, again) = run_observed(72, cadence, false);
    assert_eq!(stream_to_jsonl(&again.stream()), sharded_jsonl);
}

/// The kernel's own records (crashes, re-dispatches, scale and drain
/// events) share each replica's trace lane with its engine's records;
/// the capture ring's bytes and per-replica evictions still match
/// between kernels when a small ring evicts.
#[test]
fn ring_capture_is_byte_identical_sharded_vs_lockstep() {
    let cadence = SimDuration::from_secs(5);
    let capture = |lockstep: bool| {
        let (result, stats, tracer) = run_captured(77, cadence, lockstep, 64);
        let jsonl = to_jsonl(&tracer.snapshot(), tracer.dropped());
        (
            result.stats,
            jsonl,
            tracer.dropped_by_replica(),
            stats.stream(),
        )
    };
    let (counters, jsonl, dropped, stream) = capture(false);
    assert!(counters.crashes > 0, "the plan crashes a replica");
    assert!(counters.redispatches > 0, "a crash re-dispatches work");
    assert!(
        counters.scale_ups > 0 && counters.scale_downs > 0,
        "the schedule adds and drains a replica"
    );
    assert!(
        dropped.len() > 1,
        "a 64-slot ring evicts on several replicas"
    );

    let (_, lockstep_jsonl, lockstep_dropped, lockstep_stream) = capture(true);
    assert_eq!(jsonl, lockstep_jsonl, "kernels must capture the same bytes");
    assert_eq!(dropped, lockstep_dropped);
    assert_eq!(stream_to_jsonl(&stream), stream_to_jsonl(&lockstep_stream));
}

#[test]
fn deltas_compose_to_the_final_full_snapshot() {
    let (_, stats) = run_observed(73, SimDuration::from_secs(5), false);
    let stream = stats.stream();
    let full = stream.full.clone().expect("run finished");
    assert!(
        stream.deltas.len() > 1,
        "need several boundaries to compose"
    );
    assert_eq!(
        compose(&stream.deltas),
        full,
        "left-fold of deltas must reproduce the cumulative snapshot exactly"
    );
    // Suffix queries compose on top of a prefix: full = prefix + suffix.
    let mid = stream.deltas.len() / 2;
    let mut prefix = compose(&stream.deltas[..mid]);
    for d in &stream.deltas[mid..] {
        prefix.frame.merge(&d.frame);
        prefix.seq = d.seq + 1;
        prefix.upto_us = prefix.upto_us.max(d.upto_us);
    }
    assert_eq!(prefix, full);
}

#[test]
fn snapshot_jsonl_round_trips_and_checks_the_schema_version() {
    let (_, stats) = run_observed(74, SimDuration::from_secs(10), true);
    let stream = stats.stream();
    let jsonl = stream_to_jsonl(&stream);
    let reloaded = stream_from_jsonl(&jsonl).expect("own bytes reload");
    assert_eq!(reloaded, stream, "stream round-trips losslessly");

    // A stream from a future schema must be refused, not misread.
    let future = jsonl.replacen(
        &format!("\"version\":{SNAPSHOT_SCHEMA_VERSION}"),
        &format!("\"version\":{}", SNAPSHOT_SCHEMA_VERSION + 1),
        1,
    );
    assert_ne!(future, jsonl, "header version must appear in the bytes");
    assert!(stream_from_jsonl(&future).is_err());
}

#[test]
fn capture_ring_drops_surface_in_the_snapshot() {
    // A tiny per-replica ring under a dense run guarantees evictions.
    let trace = chaos_trace(75);
    let config = cluster_config();
    let (plan, elastic) = chaos_plan();
    let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_secs(5)));
    let tracer = Tracer::new(stats.tee(Box::new(RingSink::new(8))));
    run_shared_elastic_observed(
        &trace,
        2,
        &SchedulerSpec::qoserve(),
        &config,
        &plan,
        &elastic,
        &SeedStream::new(75),
        &tracer,
        Some(&stats),
    )
    .expect("observed elastic run routes");

    let full = stats.full();
    assert!(full.frame.dropped > 0, "an 8-slot ring must overflow");
    assert_eq!(full.frame.dropped, tracer.dropped());
    assert_eq!(
        full.frame.dropped_by_replica.values().sum::<u64>(),
        full.frame.dropped,
        "per-replica drop attribution must account for every eviction"
    );
    assert_eq!(
        full.frame.dropped_by_replica,
        tracer.dropped_by_replica(),
        "snapshot drop table matches the capture sink's own accounting"
    );
}

/// The handle's own readers over a real run: its cadence, the finished
/// flag after the final fold, and every delta since sequence 0 composing
/// to the full snapshot.
#[test]
fn stats_handle_answers_over_a_real_run() {
    let (_, stats) = run_observed(76, SimDuration::from_secs(5), false);
    assert_eq!(stats.cadence_us(), 5_000_000);
    assert!(stats.finished());
    assert_eq!(
        compose(&stats.deltas_since(0)),
        stats.full(),
        "deltas since 0 compose to full"
    );
}
