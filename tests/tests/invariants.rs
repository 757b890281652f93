//! Cross-crate conservation and consistency invariants, checked over full
//! simulation runs (including seeded random workload generation).

use qoserve::prelude::*;
use qoserve_sim::{forall, Rng};
use qoserve_stats::{stream_to_jsonl, StatsConfig, StatsHandle};
use qoserve_trace::{to_jsonl, Tracer, VecSink};

fn hw() -> HardwareConfig {
    HardwareConfig::llama3_8b_a100_tp1()
}

fn run(trace: &Trace, spec: &SchedulerSpec, seed: u64) -> Vec<RequestOutcome> {
    let config = ClusterConfig::new(hw());
    run_shared(trace, 1, spec, &config, &SeedStream::new(seed))
}

/// Every outcome of a finished request is temporally consistent.
fn check_outcome_consistency(outcomes: &[RequestOutcome]) {
    for o in outcomes {
        if let (Some(first), Some(done)) = (o.first_token, o.completion) {
            assert!(
                first > o.spec.arrival,
                "{}: first token before arrival",
                o.spec.id
            );
            assert!(
                done >= first,
                "{}: completion before first token",
                o.spec.id
            );
            // TTLT >= TTFT by construction.
            assert!(o.ttlt().unwrap() >= o.ttft().unwrap());
            // A finished request with non-positive worst lateness is not a
            // violation, and vice versa.
            assert_eq!(o.violated(), o.worst_token_lateness.as_micros() > 0);
            // Decode span sanity: at least one token, gaps accumulate.
            if o.spec.decode_tokens > 1 {
                assert!(o.max_tbt > SimDuration::ZERO, "{}: zero TBT", o.spec.id);
            }
        } else {
            assert!(o.violated(), "unfinished must count as violated");
        }
    }
}

#[test]
fn outcomes_are_consistent_across_schedulers() {
    let trace = TraceBuilder::new(Dataset::azure_conv())
        .arrivals(ArrivalProcess::poisson(5.0))
        .num_requests(400)
        .paper_tier_mix()
        .build(&SeedStream::new(1));
    for spec in [
        SchedulerSpec::sarathi_fcfs(),
        SchedulerSpec::sarathi_srpf(),
        SchedulerSpec::sarathi_edf(),
        SchedulerSpec::qoserve(),
    ] {
        let outcomes = run(&trace, &spec, 1);
        assert_eq!(outcomes.len(), trace.len(), "{}", spec.label());
        check_outcome_consistency(&outcomes);
    }
}

#[test]
fn siloed_and_shared_account_identically() {
    let trace = TraceBuilder::new(Dataset::azure_code())
        .arrivals(ArrivalProcess::poisson(6.0))
        .num_requests(600)
        .paper_tier_mix()
        .build(&SeedStream::new(2));
    let config = ClusterConfig::new(hw());
    let seeds = SeedStream::new(2);

    let shared = run_shared(&trace, 3, &SchedulerSpec::qoserve(), &config, &seeds);
    let siloed = run_siloed(
        &trace,
        &[
            SiloGroup::new(vec![TierId::Q1], 1, SchedulerSpec::sarathi_fcfs()),
            SiloGroup::new(
                vec![TierId::Q2, TierId::Q3],
                2,
                SchedulerSpec::sarathi_fcfs(),
            ),
        ],
        &config,
        &seeds,
    );
    for outcomes in [&shared, &siloed] {
        assert_eq!(outcomes.len(), trace.len());
        let ids: std::collections::BTreeSet<u64> = outcomes.iter().map(|o| o.spec.id.0).collect();
        assert_eq!(ids.len(), trace.len(), "unique accounting");
    }
    check_outcome_consistency(&shared);
    check_outcome_consistency(&siloed);
}

#[test]
fn full_stack_determinism() {
    let trace = TraceBuilder::new(Dataset::sharegpt())
        .arrivals(ArrivalProcess::poisson(2.0))
        .num_requests(150)
        .paper_tier_mix()
        .low_priority_fraction(0.2)
        .build(&SeedStream::new(3));
    let a = run(&trace, &SchedulerSpec::qoserve(), 3);
    let b = run(&trace, &SchedulerSpec::qoserve(), 3);
    assert_eq!(
        a, b,
        "identical seeds must reproduce bit-identical outcomes"
    );
}

/// Conservation holds for arbitrary workload shapes: every request
/// yields exactly one outcome, and finished outcomes are consistent.
#[test]
fn conservation_over_random_workloads() {
    forall(8, 1, |rng| {
        let seed = rng.gen_range(0u64..1_000);
        let qps = rng.gen_range(0.5f64..8.0);
        let n = rng.gen_range(20usize..150);
        let low_frac = rng.gen_range(0.0f64..0.5);
        let trace = TraceBuilder::new(Dataset::azure_conv())
            .arrivals(ArrivalProcess::poisson(qps))
            .num_requests(n)
            .paper_tier_mix()
            .low_priority_fraction(low_frac)
            .build(&SeedStream::new(seed));
        let outcomes = run(&trace, &SchedulerSpec::qoserve(), seed);
        assert_eq!(outcomes.len(), n);
        check_outcome_consistency(&outcomes);
    });
}

/// FNV-1a, 64-bit: a dependency-free digest for the decision pins.
fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    hash
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of every outcome's integer fields, in outcome order.
fn outcome_digest(outcomes: &[RequestOutcome]) -> u64 {
    let micros = |t: Option<SimTime>| t.map_or(u64::MAX, |t| t.as_micros());
    outcomes.iter().fold(FNV_OFFSET, |h, o| {
        [
            o.spec.id.0,
            micros(o.first_token),
            micros(o.completion),
            o.max_tbt.as_micros(),
            o.worst_token_lateness.as_micros() as u64,
            u64::from(o.relegated),
            u64::from(o.replica),
            o.disposition as u64,
        ]
        .iter()
        .fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
    })
}

/// Every scheduler the bins build, run on one overloaded single-replica
/// trace with a free-tier share (so relegation and rate-limit rejection
/// fire), pinned by a digest of its outcomes and of its decision trace.
/// Any change to a scheduler's decision sequence (batch fill, ordering,
/// chunking, relegation, admission) or to the engine's KV admission
/// moves a digest. A deliberate behaviour change re-records the table
/// from the failure message.
#[test]
fn scheduler_decisions_are_pinned() {
    let trace = TraceBuilder::new(Dataset::sharegpt())
        .arrivals(ArrivalProcess::poisson(50.0))
        .num_requests(150)
        .paper_tier_mix()
        .low_priority_fraction(0.3)
        .build(&SeedStream::new(15));
    let sarathi = |policy| SchedulerSpec::Sarathi { policy, chunk: 256 };
    // (label, scheduler, outcome digest, trace JSONL digest)
    let pins = [
        (
            "Sarathi-FCFS",
            sarathi(OrderPolicy::Fcfs),
            0xa402_22b7_9f5c_1f36,
            0x6243_0a64_0daa_9c61,
        ),
        (
            "Sarathi-SJF",
            sarathi(OrderPolicy::Sjf),
            0xc2aa_4c6d_f941_b460,
            0x7419_92a4_efe5_9514,
        ),
        (
            "Sarathi-SRPF",
            sarathi(OrderPolicy::Srpf),
            0x306b_86f7_3904_92cc,
            0x8ac2_f00e_17c0_bb83,
        ),
        (
            "Sarathi-EDF",
            sarathi(OrderPolicy::Edf),
            0x787c_1c94_1054_254c,
            0x631b_a3b9_9af1_dbc8,
        ),
        (
            "QoServe",
            SchedulerSpec::qoserve(),
            0x77c2_4abb_2320_fa92,
            0xc2a9_09e6_112f_3e21,
        ),
        (
            "QoServe (DC)",
            SchedulerSpec::qoserve_with(QoServeConfig::ablation_dc()),
            0xbedd_ad91_6c1c_531d,
            0x3afd_839c_85d7_5db5,
        ),
        (
            "QoServe (DC+ER)",
            SchedulerSpec::qoserve_with(QoServeConfig::ablation_dc_er()),
            0x10fa_a5a9_0961_3adf,
            0x8415_a465_856a_1874,
        ),
        (
            "QoServe adaptive",
            SchedulerSpec::qoserve_adaptive(),
            0x77c2_4abb_2320_fa92,
            0x471f_bee3_5d96_490c,
        ),
        (
            "Medha",
            SchedulerSpec::Medha {
                config: MedhaConfig::default(),
                predictor: PredictorKind::Analytical,
            },
            0x2489_5dd4_607d_86b5,
            0xa674_019e_dacb_286e,
        ),
        (
            "ConServe",
            SchedulerSpec::ConServe { chunk: 256 },
            0x976b_6127_909f_a63b,
            0xe982_a62e_1e78_8d25,
        ),
        (
            "SLOs-Serve",
            SchedulerSpec::SlosServe,
            0xafb8_2b12_d116_6915,
            0x2a4d_b83d_4235_eeac,
        ),
        (
            "RateLimited",
            SchedulerSpec::RateLimited {
                inner: Box::new(SchedulerSpec::sarathi_fcfs()),
                max_backlog_tokens: 90_000,
            },
            0x7201_66de_fca7_5360,
            0x77cc_01a4_18fe_7ee0,
        ),
        (
            "DeadlineAware",
            SchedulerSpec::deadline_aware(SchedulerSpec::qoserve_adaptive()),
            0x77c2_4abb_2320_fa92,
            0x471f_bee3_5d96_490c,
        ),
    ];
    let config = ClusterConfig::new(hw());
    let mut report = String::new();
    let mut relegated = 0;
    let mut rejected = 0;
    for (label, spec, outcome_pin, trace_pin) in &pins {
        let tracer = Tracer::unbounded();
        let outcomes = run_shared_traced(&trace, 1, spec, &config, &SeedStream::new(15), &tracer);
        assert_eq!(outcomes.len(), trace.len(), "{label}");
        relegated += outcomes.iter().filter(|o| o.relegated).count();
        rejected += outcomes
            .iter()
            .filter(|o| o.disposition == Disposition::Rejected)
            .count();
        let jsonl = to_jsonl(&tracer.snapshot(), tracer.dropped());
        let got = (
            outcome_digest(&outcomes),
            fnv1a(FNV_OFFSET, jsonl.as_bytes()),
        );
        if got != (*outcome_pin, *trace_pin) {
            report.push_str(&format!("{label}: {:#018x}, {:#018x}\n", got.0, got.1));
        }
    }
    assert!(report.is_empty(), "scheduler decisions changed:\n{report}");
    assert!(
        relegated > 0 && rejected > 0,
        "the trace must overload the replica"
    );
}

/// The elastic kernel on a test-sized fig. 12 wave: Azure-Code on a
/// 3↔8 QPS diurnal square wave (20 % low priority) starting on 2
/// replicas, under perfbench's `diurnal-elastic` autoscaler and
/// lifecycle (1–3 replicas), with faults scaled until crashes fire and a
/// stats tee over a `VecSink` observing the run. Pins the outcomes, the
/// decision trace, the stats stream, the recovery counters, replica time
/// and the fleet log. Any change to held-work dispatch, crash and drain
/// re-dispatch, the autoscaler's signals or the lifecycle moves a pin. A
/// deliberate behaviour change re-records them from the failure message.
#[test]
fn elastic_kernel_is_pinned() {
    let half_period = SimDuration::from_secs(120);
    let trace = TraceBuilder::new(Dataset::azure_code())
        .arrivals(ArrivalProcess::DiurnalSquare {
            low_qps: 3.0,
            high_qps: 8.0,
            half_period,
        })
        .duration(half_period * 8)
        .paper_tier_mix()
        .low_priority_fraction(0.2)
        .build(&SeedStream::new(12));
    let elastic = ElasticPlan {
        lifecycle: LifecycleConfig {
            provision_delay: SimDuration::from_secs(5),
            warmup: SimDuration::from_secs(10),
            drain_grace: SimDuration::from_secs(30),
        },
        max_replicas: 3,
        schedule: Vec::new(),
        autoscale: Some(AutoscaleConfig {
            control_interval: SimDuration::from_secs(15),
            window: SimDuration::from_secs(60),
            min_replicas: 1,
            max_replicas: 3,
            queue_high_tokens: 12_000,
            queue_low_tokens: 3_000,
            up_streak: 2,
            down_streak: 4,
            cooldown: SimDuration::from_secs(45),
        }),
    };
    // At the moderate rates no crash fires in this 16-minute wave; at 4×
    // seven do, and their orphans are re-dispatched or shed.
    let plan = FaultPlan::with_faults(FaultConfig::moderate().scaled(4.0));
    let stats = StatsHandle::new(StatsConfig::every(SimDuration::from_secs(30)));
    let tracer = Tracer::new(stats.tee(Box::new(VecSink::new())));
    let r = run_shared_elastic_observed(
        &trace,
        2,
        &SchedulerSpec::qoserve(),
        &ClusterConfig::new(hw()),
        &plan,
        &elastic,
        &SeedStream::new(12),
        &tracer,
        Some(&stats),
    )
    .expect("the elastic run routes");
    assert_eq!(r.outcomes.len(), trace.len());
    let s = &r.stats;
    assert!(
        s.crashes > 0 && s.redispatches > 0 && s.scale_ups > 0 && s.scale_downs > 0,
        "the run must crash, re-dispatch and scale both ways: {s:?}"
    );
    let jsonl = to_jsonl(&tracer.snapshot(), tracer.dropped());
    // (outcome digest, trace JSONL digest, stats-stream JSONL digest)
    let got = (
        outcome_digest(&r.outcomes),
        fnv1a(FNV_OFFSET, jsonl.as_bytes()),
        fnv1a(FNV_OFFSET, stream_to_jsonl(&stats.stream()).as_bytes()),
    );
    assert_eq!(
        got,
        (
            0x0ad8_a714_80d9_3dae,
            0xc248_62d4_78ec_0ebe,
            0x0025_07d6_7d36_17f6
        ),
        "elastic kernel digests changed: {got:#018x?}"
    );
    assert_eq!(
        r.stats,
        FaultRunStats {
            crashes: 7,
            restarts: 7,
            redispatches: 95,
            shed: 22,
            retry_exhausted: 0,
            reprefill_tokens: 16_429,
            degraded_iterations: 7_919,
            breaker_opens: 0,
            breaker_diverted: 0,
            scale_ups: 4,
            scale_downs: 3,
            drain_migrated: 0,
            warmup_wasted_us: 60_000_000,
        }
    );
    assert_eq!(r.replica_us, 2_495_657_037);
    let fleet = [0, 150, 165, 240, 615, 645, 795, 900]
        .into_iter()
        .zip([2, 1, 2, 3, 2, 3, 2, 3])
        .map(|(secs, size)| (SimTime::from_secs(secs), size))
        .collect::<Vec<_>>();
    assert_eq!(r.fleet, fleet);
}

/// Digest of every outcome's recovery history (retries, re-prefilled
/// tokens, drain migrations), in outcome order.
fn history_digest(outcomes: &[RequestOutcome]) -> u64 {
    outcomes.iter().fold(FNV_OFFSET, |h, o| {
        [
            o.spec.id.0,
            u64::from(o.retries),
            o.reprefill_tokens,
            u64::from(o.drain_migrations),
        ]
        .iter()
        .fold(h, |h, v| fnv1a(h, &v.to_le_bytes()))
    })
}

/// The re-dispatch branches `elastic_kernel_is_pinned` never takes:
/// (a) a fixed fleet of 4 with circuit breakers under doubled moderate
/// faults (Azure-Conv at Poisson 10 QPS for 120 s, 20 % low priority),
/// where breakers open and steer orphans away from unhealthy replicas;
/// (b) a drain under saturation (the scenario of
/// `chaos::drain_migration_stamps_reconcile_with_counters`), whose
/// unfinished work migrates through the orphan path. Pins the outcomes,
/// their recovery history and the recovery counters of both. A
/// deliberate behaviour change re-records them from the failure message.
#[test]
fn redispatch_branches_are_pinned() {
    let diverted = {
        let trace = TraceBuilder::new(Dataset::azure_conv())
            .arrivals(ArrivalProcess::poisson(10.0))
            .duration(SimDuration::from_secs(120))
            .tier_mix(TierMix::paper_equal())
            .low_priority_fraction(0.2)
            .build(&SeedStream::new(41));
        let plan = FaultPlan::with_faults(FaultConfig::moderate().scaled(2.0)).with_breaker();
        run_shared_elastic(
            &trace,
            4,
            &SchedulerSpec::qoserve(),
            &ClusterConfig::new(hw()),
            &plan,
            &ElasticPlan::none(),
            &SeedStream::new(41),
        )
        .expect("the faulty run routes")
    };
    let drained = {
        let trace = TraceBuilder::new(Dataset::azure_conv())
            .arrivals(ArrivalProcess::poisson(20.0))
            .num_requests(300)
            .tier_mix(TierMix::paper_equal())
            .low_priority_fraction(0.3)
            .build(&SeedStream::new(53));
        let elastic = ElasticPlan {
            lifecycle: LifecycleConfig {
                provision_delay: SimDuration::from_secs(2),
                warmup: SimDuration::from_secs(3),
                drain_grace: SimDuration::from_millis(200),
            },
            max_replicas: 3,
            schedule: vec![
                ScaleEvent {
                    at: SimTime::from_secs(3),
                    action: ScaleAction::Drain,
                },
                ScaleEvent {
                    at: SimTime::from_secs(6),
                    action: ScaleAction::Add,
                },
            ],
            autoscale: None,
        };
        run_shared_elastic(
            &trace,
            3,
            &SchedulerSpec::qoserve(),
            &ClusterConfig::new(hw()),
            &FaultPlan::none(),
            &elastic,
            &SeedStream::new(53),
        )
        .expect("the elastic run routes")
    };
    // (outcome digest, history digest) per run
    let got =
        [&diverted, &drained].map(|r| (outcome_digest(&r.outcomes), history_digest(&r.outcomes)));
    assert_eq!(
        got,
        [
            (0x49f6_3372_48b8_d778, 0x51fe_cb5c_365f_e2b3),
            (0x6105_54ba_df69_9ece, 0xc15a_5b4c_f5d6_e2b4),
        ],
        "re-dispatch digests changed: {got:#018x?}"
    );
    assert_eq!(
        diverted.stats,
        FaultRunStats {
            crashes: 3,
            restarts: 3,
            redispatches: 549,
            shed: 0,
            retry_exhausted: 0,
            reprefill_tokens: 86_977,
            degraded_iterations: 3_755,
            breaker_opens: 25,
            breaker_diverted: 41,
            scale_ups: 0,
            scale_downs: 0,
            drain_migrated: 0,
            warmup_wasted_us: 0,
        }
    );
    assert_eq!(
        drained.stats,
        FaultRunStats {
            crashes: 0,
            restarts: 0,
            redispatches: 11,
            shed: 0,
            retry_exhausted: 0,
            reprefill_tokens: 17_958,
            degraded_iterations: 0,
            breaker_opens: 0,
            breaker_diverted: 0,
            scale_ups: 1,
            scale_downs: 1,
            drain_migrated: 11,
            warmup_wasted_us: 5_000_000,
        }
    );
}

/// The facade API preserves the same invariants.
#[test]
fn facade_conservation() {
    forall(8, 2, |rng| {
        let seed = rng.gen_range(0u64..100);
        let n = rng.gen_range(1usize..40);
        let mut server = QoServe::builder(hw()).seed(seed).build();
        for i in 0..n {
            let req = if i % 2 == 0 {
                Request::interactive(200 + i as u32 * 50, 10)
            } else {
                Request::batch(1_000 + i as u32 * 100, 30)
            };
            server.submit(req.arriving_at_secs(i as f64 * 0.2));
        }
        let report = server.run();
        assert_eq!(report.outcomes.len(), n);
        assert_eq!(report.slo.total, n);
        check_outcome_consistency(&report.outcomes);
    });
}
