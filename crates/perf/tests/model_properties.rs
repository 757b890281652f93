//! Seeded property tests of the performance substrate: the analytical
//! model's monotonicity (which the chunk-budget search depends on), and
//! budget-search safety under arbitrary operating points.

use qoserve_perf::{
    BatchProfile, ChunkBudget, ChunkLimits, HardwareConfig, LatencyModel, LatencyPredictor,
};
use qoserve_sim::{forall, Rng, SimDuration};

fn models() -> Vec<LatencyModel> {
    HardwareConfig::paper_configs()
        .iter()
        .map(LatencyModel::new)
        .collect()
}

/// Latency increases (weakly) when the chunk grows, all else equal —
/// the monotonicity the binary search in `prefill_budget` relies on.
#[test]
fn latency_monotone_in_chunk() {
    forall(64, 1, |rng| {
        let chunk = rng.gen_range(16u32..4_000);
        let extra = rng.gen_range(1u32..2_000);
        let ctx = rng.gen_range(0u32..16_000);
        let decodes = rng.gen_range(0u32..128);
        let mean_ctx = rng.gen_range(16u64..4_000);
        for m in models() {
            let small = BatchProfile::builder()
                .prefill_chunk(chunk, ctx)
                .decodes(decodes, decodes as u64 * mean_ctx)
                .build();
            let big = BatchProfile::builder()
                .prefill_chunk(chunk + extra, ctx)
                .decodes(decodes, decodes as u64 * mean_ctx)
                .build();
            assert!(m.iteration_time_us(&big) >= m.iteration_time_us(&small));
        }
    });
}

/// Latency increases (weakly) with decode-pool context.
#[test]
fn latency_monotone_in_decode_context() {
    forall(64, 2, |rng| {
        let chunk = rng.gen_range(0u32..2_000);
        let decodes = rng.gen_range(1u32..128);
        let ctx_a = rng.gen_range(16u64..2_000);
        let ctx_extra = rng.gen_range(1u64..4_000);
        for m in models() {
            let light = BatchProfile::builder()
                .prefill_chunk(chunk, 0)
                .decodes(decodes, decodes as u64 * ctx_a)
                .build();
            let heavy = BatchProfile::builder()
                .prefill_chunk(chunk, 0)
                .decodes(decodes, decodes as u64 * (ctx_a + ctx_extra))
                .build();
            assert!(m.iteration_time_us(&heavy) >= m.iteration_time_us(&light));
        }
    });
}

/// Latency increases (weakly) with the chunk's context depth (the
/// quadratic prefill-attention term — Medha's whole reason to exist).
#[test]
fn latency_monotone_in_prefill_depth() {
    forall(64, 3, |rng| {
        let chunk = rng.gen_range(16u32..2_000);
        let depth = rng.gen_range(0u32..50_000);
        let extra = rng.gen_range(1u32..50_000);
        for m in models() {
            let shallow = BatchProfile::builder().prefill_chunk(chunk, depth).build();
            let deep = BatchProfile::builder()
                .prefill_chunk(chunk, depth + extra)
                .build();
            assert!(m.iteration_time_us(&deep) >= m.iteration_time_us(&shallow));
        }
    });
}

/// Whatever budget the search returns actually fits the slack (with
/// the safety margin), and is maximal to within one step.
#[test]
fn budget_is_safe_and_maximal() {
    forall(64, 4, |rng| {
        let decodes = rng.gen_range(0u32..160);
        let mean_ctx = rng.gen_range(16u64..3_000);
        let prefill_ctx = rng.gen_range(0u32..20_000);
        let slack_ms = rng.gen_range(1u64..500);
        let hw = HardwareConfig::llama3_8b_a100_tp1();
        let mut budget =
            ChunkBudget::new(LatencyPredictor::analytical(&hw), ChunkLimits::default());
        let slack = SimDuration::from_millis(slack_ms);
        let ctx_total = decodes as u64 * mean_ctx;
        let chunk = budget.prefill_budget(decodes, ctx_total, prefill_ctx, Some(slack));
        let limits = budget.limits();
        assert!(chunk <= limits.max_chunk);
        assert_eq!(chunk % limits.step, 0);
        if chunk > 0 {
            let fits = BatchProfile::builder()
                .prefill_chunk(chunk, prefill_ctx)
                .decodes(decodes, ctx_total)
                .build();
            assert!(
                budget.predictor().predict(&fits) <= slack,
                "returned chunk {} does not fit slack {}",
                chunk,
                slack
            );
        }
        if chunk < limits.max_chunk {
            let bigger = BatchProfile::builder()
                .prefill_chunk(chunk + limits.step, prefill_ctx)
                .decodes(decodes, ctx_total)
                .build();
            assert!(
                budget.predictor().predict(&bigger) > slack,
                "chunk {} was not maximal",
                chunk
            );
        }
    });
}

/// The reference `ChunkBudget::prefill_budget` must equal: its
/// search written out here, with a fresh `BatchProfile` built for every
/// probe.
fn fresh_profile_budget(
    predictor: &LatencyPredictor,
    limits: ChunkLimits,
    num_decodes: u32,
    decode_context_total: u64,
    prefill_context: u32,
    slack: Option<SimDuration>,
) -> u32 {
    let Some(slack) = slack else {
        return limits.max_chunk;
    };
    let fits = |chunk: u32| {
        let batch = BatchProfile::builder()
            .prefill_chunk(chunk, prefill_context)
            .decodes(num_decodes, decode_context_total)
            .build();
        predictor.predict(&batch) <= slack
    };
    let step = limits.step.max(1);
    let max_steps = limits.max_chunk / step;
    if max_steps == 0 || !fits(step) {
        return 0;
    }
    if fits(max_steps * step) {
        return max_steps * step;
    }
    let (mut lo, mut hi) = (1u32, max_steps);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid * step) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let mut chunk = lo * step;
    while chunk > 0 && !fits(chunk) {
        chunk -= step;
    }
    chunk
}

/// The budget search returns exactly what the fresh-profile reference
/// returns, over random decode pools and slacks, with one `ChunkBudget`
/// answering the whole probe sequence (so each search starts from the
/// probe batch the previous one left).
#[test]
fn budget_equals_fresh_profile_reference() {
    forall(64, 5, |rng| {
        let n_probes = rng.gen_range(1usize..24);
        let probes: Vec<(u32, u64, u32, u64)> = (0..n_probes)
            .map(|_| {
                (
                    rng.gen_range(0u32..200),
                    rng.gen_range(0u64..4_000),
                    rng.gen_range(0u32..30_000),
                    rng.gen_range(0u64..400_000),
                )
            })
            .collect();
        let hw = HardwareConfig::llama3_8b_a100_tp1();
        let reference = LatencyPredictor::analytical(&hw);
        let limits = ChunkLimits::default();
        let mut budget = ChunkBudget::new(reference.clone(), limits);
        for &(decodes, mean_ctx, prefill_ctx, slack_us) in &probes {
            let ctx_total = decodes as u64 * mean_ctx;
            let slack = Some(SimDuration::from_micros(slack_us));
            assert_eq!(
                budget.prefill_budget(decodes, ctx_total, prefill_ctx, slack),
                fresh_profile_budget(&reference, limits, decodes, ctx_total, prefill_ctx, slack),
                "diverged at decodes={} mean_ctx={} prefill_ctx={} slack_us={}",
                decodes,
                mean_ctx,
                prefill_ctx,
                slack_us
            );
        }
    });
}

/// Throughput never exceeds the model's asymptotic ceiling and is
/// positive for non-empty batches.
#[test]
fn throughput_is_sane() {
    forall(64, 6, |rng| {
        let chunk = rng.gen_range(1u32..4_096);
        let decodes = rng.gen_range(0u32..128);
        let mean_ctx = rng.gen_range(16u64..3_000);
        for m in models() {
            let b = BatchProfile::builder()
                .prefill_chunk(chunk, 0)
                .decodes(decodes, decodes as u64 * mean_ctx)
                .build();
            let tput = m.throughput_tokens_per_sec(&b);
            assert!(tput > 0.0);
            assert!(tput < 100_000.0, "implausible {tput} tok/s");
        }
    });
}
