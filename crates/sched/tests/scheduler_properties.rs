//! Invariants that every scheduler implementation must uphold, checked
//! over seeded random queues, decode pools, and constraints.
//!
//! These are the contracts the engine relies on:
//!
//! 1. A plan never exceeds the KV headroom.
//! 2. A plan never schedules more *new* requests than allowed.
//! 3. No request appears twice in one plan.
//! 4. Scheduled tokens never exceed a request's remaining prompt.
//! 5. `completes_prefill` is set iff the cumulative scheduled tokens
//!    reach the prompt length.
//! 6. `allow_prefill == false` yields an empty plan.
//! 7. Conservation: queued tokens + scheduled tokens is invariant.

use qoserve_perf::{HardwareConfig, LatencyPredictor};
use qoserve_sched::{
    ConServeScheduler, Constraints, DecodeJob, MedhaConfig, MedhaScheduler, OrderPolicy,
    PrefillJob, QoServeConfig, QoServeScheduler, RateLimitScheduler, SarathiScheduler, Scheduler,
    SlosServeScheduler,
};
use qoserve_sim::{forall, Rng, SimRng, SimTime};
use qoserve_workload::{QosTier, RequestId, RequestSpec, Slo};

fn predictor() -> LatencyPredictor {
    LatencyPredictor::analytical(&HardwareConfig::llama3_8b_a100_tp1())
}

/// All scheduler implementations under test, freshly constructed.
fn all_schedulers() -> Vec<Box<dyn Scheduler>> {
    vec![
        Box::new(SarathiScheduler::new(OrderPolicy::Fcfs, 256)),
        Box::new(SarathiScheduler::new(OrderPolicy::Srpf, 512)),
        Box::new(SarathiScheduler::new(OrderPolicy::Edf, 2_048)),
        Box::new(QoServeScheduler::new(QoServeConfig::default(), predictor())),
        Box::new(QoServeScheduler::new(
            QoServeConfig::ablation_dc(),
            predictor(),
        )),
        Box::new(MedhaScheduler::new(MedhaConfig::default(), predictor())),
        Box::new(SlosServeScheduler::new(predictor())),
        Box::new(RateLimitScheduler::new(
            Box::new(SarathiScheduler::new(OrderPolicy::Fcfs, 256)),
            200_000,
        )),
        Box::new(ConServeScheduler::new(512)),
    ]
}

#[derive(Debug, Clone)]
struct QueueScenario {
    jobs: Vec<(
        u32, /* prompt */
        u8,  /* tier 0..3 */
        u32, /* arrival ms */
    )>,
    decodes: Vec<(u32 /* ctx */, u32 /* deadline ms from now */)>,
    now_ms: u32,
    kv_headroom: u64,
    max_new: usize,
    allow_prefill: bool,
}

fn random_scenario(rng: &mut SimRng) -> QueueScenario {
    let jobs = (0..rng.gen_range(0..40))
        .map(|_| {
            (
                rng.gen_range(16u32..20_000),
                rng.gen_range(0u8..3),
                rng.gen_range(0u32..5_000),
            )
        })
        .collect();
    let decodes = (0..rng.gen_range(0..32))
        .map(|_| (rng.gen_range(16u32..4_000), rng.gen_range(1u32..10_000)))
        .collect();
    QueueScenario {
        jobs,
        decodes,
        now_ms: rng.gen_range(5_000..100_000),
        kv_headroom: if rng.gen() {
            u64::MAX
        } else {
            rng.gen_range(0..5_000)
        },
        max_new: if rng.gen() {
            usize::MAX
        } else {
            rng.gen_range(0..4)
        },
        allow_prefill: rng.gen(),
    }
}

fn run_scenario(sched: &mut dyn Scheduler, s: &QueueScenario) {
    let tiers = QosTier::paper_tiers();
    for (i, (prompt, tier, arrival_ms)) in s.jobs.iter().enumerate() {
        let spec = RequestSpec {
            id: RequestId(i as u64),
            arrival: SimTime::from_millis(*arrival_ms as u64),
            prompt_tokens: *prompt,
            decode_tokens: 10,
            slo: Slo::of_tier(tiers[*tier as usize]),
            app_id: *tier as u32,
        };
        sched.on_arrival(PrefillJob::new(spec), spec.arrival);
    }
    let now = SimTime::from_millis(s.now_ms as u64);
    let decodes: Vec<DecodeJob> = s
        .decodes
        .iter()
        .enumerate()
        .map(|(i, (ctx, deadline_ms))| DecodeJob {
            id: RequestId(100_000 + i as u64),
            context_len: *ctx,
            next_token_deadline: now + qoserve_sim::SimDuration::from_millis(*deadline_ms as u64),
            relegated: false,
        })
        .collect();
    let constraints = Constraints {
        kv_headroom_tokens: s.kv_headroom,
        allow_prefill: s.allow_prefill,
        max_new_requests: s.max_new,
    };

    let admitted_tokens: u64 = sched.pending_prefill_tokens();
    let mut progress: std::collections::BTreeMap<RequestId, u32> = Default::default();

    // Run several consecutive planning rounds to exercise partial
    // progress and reinsertion paths.
    let mut scheduled_total: u64 = 0;
    for round in 0..4u64 {
        let plan = sched.plan_batch(
            now + qoserve_sim::SimDuration::from_millis(50 * round),
            &decodes,
            constraints,
        );

        if !s.allow_prefill {
            assert!(plan.is_empty(), "{}: prefill gate ignored", sched.name());
        }
        if s.kv_headroom != u64::MAX {
            assert!(
                plan.prefill_tokens() as u64 <= s.kv_headroom * 4,
                "{}: plan exceeds cumulative KV headroom",
                sched.name()
            );
        }
        // Invariant 3: no duplicate request in one plan.
        let mut seen = std::collections::BTreeSet::new();
        for a in &plan.prefill {
            assert!(
                seen.insert(a.id),
                "{}: duplicate assignment {:?}",
                sched.name(),
                a.id
            );
        }
        // Invariant 2: new-request cap per plan.
        let new_started = plan
            .prefill
            .iter()
            .filter(|a| a.context_before == 0)
            .count();
        assert!(
            new_started <= s.max_new,
            "{}: started {new_started} new requests, cap {}",
            sched.name(),
            s.max_new
        );
        // Invariants 4/5: per-request token accounting.
        for a in &plan.prefill {
            let prompt = s.jobs[a.id.0 as usize].0;
            let done = progress.entry(a.id).or_insert(0);
            assert_eq!(
                a.context_before,
                *done,
                "{}: context_before mismatch for {:?}",
                sched.name(),
                a.id
            );
            *done += a.tokens;
            assert!(
                *done <= prompt,
                "{}: over-scheduled {:?}: {} > {prompt}",
                sched.name(),
                a.id,
                *done
            );
            assert_eq!(
                a.completes_prefill,
                *done == prompt,
                "{}: completes_prefill wrong for {:?}",
                sched.name(),
                a.id
            );
        }
        scheduled_total += plan.prefill_tokens() as u64;
        // Per-plan KV cap (invariant 1, per round).
        if s.kv_headroom != u64::MAX {
            assert!(
                plan.prefill_tokens() as u64 <= s.kv_headroom,
                "{}: single plan exceeds KV headroom",
                sched.name()
            );
        }
    }

    // Invariant 7: conservation across rounds.
    assert_eq!(
        sched.pending_prefill_tokens() + scheduled_total,
        admitted_tokens,
        "{}: token conservation broken",
        sched.name()
    );

    // Draining returns every unfinished job — including any the rate
    // limiter rejected at admission (those never entered `pending`, so
    // the drain equality is against the total offered work, not the
    // admitted backlog).
    let total_offered: u64 = s.jobs.iter().map(|(p, _, _)| *p as u64).sum();
    let drained = sched.drain_pending();
    let drained_tokens: u64 = drained.iter().map(|j| j.remaining_tokens() as u64).sum();
    assert_eq!(
        drained_tokens + scheduled_total,
        total_offered,
        "{}: drain conservation broken",
        sched.name()
    );
    assert_eq!(sched.pending_prefills(), 0);
}

#[test]
fn all_schedulers_uphold_plan_invariants() {
    forall(48, 1, |rng| {
        let s = random_scenario(rng);
        for mut sched in all_schedulers() {
            run_scenario(sched.as_mut(), &s);
        }
    });
}

/// A once-failing scenario, kept verbatim: a deep queue with no new
/// request allowed (`max_new: 0`) under a tight KV headroom.
#[test]
fn recorded_scenario_with_no_new_requests_and_tight_kv() {
    let s = QueueScenario {
        jobs: vec![
            (15278, 0, 0),
            (9623, 0, 0),
            (14039, 0, 0),
            (15090, 0, 0),
            (19815, 0, 0),
            (12710, 1, 930),
            (9821, 2, 1486),
            (15008, 1, 2143),
            (3221, 0, 1078),
            (10921, 0, 4822),
            (8544, 0, 2384),
            (5368, 2, 3265),
            (12656, 0, 1038),
            (1824, 2, 4960),
            (8255, 2, 1326),
            (16483, 2, 4657),
            (1569, 0, 170),
            (19775, 1, 181),
            (17921, 1, 1773),
        ],
        decodes: vec![
            (3864, 7657),
            (2187, 9812),
            (3220, 9248),
            (1305, 473),
            (2825, 2922),
            (2538, 9152),
            (2103, 9372),
            (1686, 5796),
            (1859, 4382),
            (1974, 8282),
            (2485, 5106),
            (1698, 2622),
            (2777, 5847),
            (3295, 140),
            (788, 6310),
            (3467, 4413),
            (558, 4516),
            (720, 2053),
            (2065, 1402),
            (824, 2151),
            (3316, 741),
            (3192, 9933),
            (84, 18),
            (381, 9667),
            (1349, 6299),
            (2121, 3564),
        ],
        now_ms: 34430,
        kv_headroom: 4502,
        max_new: 0,
        allow_prefill: true,
    };
    assert_eq!((s.jobs.len(), s.decodes.len()), (19, 26));
    for mut sched in all_schedulers() {
        run_scenario(sched.as_mut(), &s);
    }
}

#[test]
fn empty_queue_plans_are_empty_for_all_schedulers() {
    for mut sched in all_schedulers() {
        let plan = sched.plan_batch(SimTime::from_secs(1), &[], Constraints::unlimited());
        assert!(plan.is_empty(), "{}", sched.name());
        assert_eq!(sched.pending_prefills(), 0);
    }
}
