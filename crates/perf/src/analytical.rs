//! Calibrated analytical batch-latency model.
//!
//! This is the reproduction's stand-in for real GPU kernel execution. It is
//! a roofline-style model: an iteration's compute work (linear-layer GEMMs
//! plus attention FLOPs) and memory work (weight streaming plus KV-cache
//! traffic) are estimated separately, partially overlapped, and topped with
//! fixed scheduling/launch and tensor-parallel synchronization overheads.
//!
//! The per-GPU efficiency constants in [`GpuSpec`](crate::GpuSpec) are
//! *calibration constants*, fitted so that the end-to-end curve reproduces
//! the published throughput/latency-vs-chunk-size characteristic (Figure 4
//! of the paper): latency roughly affine in chunk size, throughput
//! saturating around a 2–2.5 k-token chunk at about twice the 256-token
//! throughput. They are not claims about individual kernels.

use qoserve_sim::{nums, SimDuration};

use crate::batch::BatchProfile;
use crate::hardware::HardwareConfig;

/// Fixed per-iteration overhead outside the GPU kernels (scheduler step,
/// kernel launches, sampling, detokenization hand-off), in microseconds.
const ITERATION_OVERHEAD_US: f64 = 3_000.0;

/// Fraction of the smaller of (compute, memory) that is *not* hidden by
/// overlapping the two; 0 would be a perfect roofline `max`, 1 a pessimistic
/// sum.
const OVERLAP_RESIDUAL: f64 = 0.35;

/// The ground-truth analytical latency model for one hardware
/// configuration.
///
/// # Example
///
/// ```
/// use qoserve_perf::{BatchProfile, HardwareConfig, LatencyModel};
///
/// let model = LatencyModel::new(&HardwareConfig::llama3_8b_a100_tp1());
/// let small = BatchProfile::builder().prefill_chunk(256, 0).build();
/// let large = BatchProfile::builder().prefill_chunk(2048, 0).build();
/// assert!(model.iteration_time(&large) > model.iteration_time(&small));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyModel {
    /// FLOPs through the linear layers per token, per GPU shard.
    linear_flops_per_token: f64,
    /// Attention FLOPs per (query-token × context-token) pair, per shard.
    attn_flops_per_pair: f64,
    /// Weight bytes streamed per iteration, per shard.
    weight_bytes: f64,
    /// KV-cache bytes per token, per shard.
    kv_bytes_per_token: f64,
    /// Achievable FLOP/s of one shard.
    effective_flops: f64,
    /// Achievable bytes/s of one shard.
    effective_bw: f64,
    /// Per-iteration TP synchronization, µs.
    sync_overhead_us: f64,
}

impl LatencyModel {
    /// Builds the model for a hardware configuration.
    pub fn new(hw: &HardwareConfig) -> Self {
        let tp = hw.parallelism.tensor_parallel as f64;
        LatencyModel {
            linear_flops_per_token: 2.0 * hw.model.params as f64 / tp,
            attn_flops_per_pair: 4.0 * hw.model.hidden as f64 * hw.model.layers as f64 / tp,
            weight_bytes: hw.model.weight_bytes() as f64 / tp,
            kv_bytes_per_token: hw.model.kv_bytes_per_token() as f64 / tp,
            effective_flops: hw.gpu.effective_flops(),
            effective_bw: hw.gpu.effective_bw(),
            sync_overhead_us: hw.parallelism.sync_overhead_us(),
        }
    }

    /// Predicted execution time of one iteration, noise-free.
    pub fn iteration_time(&self, batch: &BatchProfile) -> SimDuration {
        SimDuration::from_micros(nums::f64_round_to_u64(self.iteration_time_us(batch)))
    }

    /// Same as [`iteration_time`](Self::iteration_time) but in fractional
    /// microseconds, for calibration and model fitting.
    pub fn iteration_time_us(&self, batch: &BatchProfile) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }

        let total_tokens = batch.total_tokens() as f64;

        // Compute side: GEMMs over every token, plus attention score/value
        // FLOPs over the quadratic prefill pairs and the decode context.
        let linear_flops = self.linear_flops_per_token * total_tokens;
        let attn_flops = self.attn_flops_per_pair
            * (batch.prefill_attention_pairs() as f64 + batch.decode_context_total as f64);
        let compute_us = (linear_flops + attn_flops) / self.effective_flops * 1e6;

        // Memory side: stream the weights once, read the KV context consumed
        // by decode attention and by each prefill chunk, write new KV.
        let prefill_ctx_reads: f64 = batch.prefill.iter().map(|c| c.context_before as f64).sum();
        let kv_read_tokens = batch.decode_context_total as f64 + prefill_ctx_reads;
        let kv_bytes = (kv_read_tokens + total_tokens) * self.kv_bytes_per_token;
        let memory_us = (self.weight_bytes + kv_bytes) / self.effective_bw * 1e6;

        let overlapped = compute_us.max(memory_us) + OVERLAP_RESIDUAL * compute_us.min(memory_us);
        ITERATION_OVERHEAD_US + self.sync_overhead_us + overlapped
    }

    /// Throughput of a batch in tokens per second (total tokens divided by
    /// iteration time); zero for an empty batch.
    pub fn throughput_tokens_per_sec(&self, batch: &BatchProfile) -> f64 {
        if batch.is_empty() {
            return 0.0;
        }
        batch.total_tokens() as f64 / (self.iteration_time_us(batch) / 1e6)
    }

    /// Time to stream the model weights once — the latency floor of any
    /// decode-only iteration, in microseconds.
    pub fn weight_read_us(&self) -> f64 {
        self.weight_bytes / self.effective_bw * 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::HardwareConfig;

    fn model_8b() -> LatencyModel {
        LatencyModel::new(&HardwareConfig::llama3_8b_a100_tp1())
    }

    /// A decode pool like the one behind Figure 4: ~100 in-flight decodes
    /// with ~2k context each.
    fn fig4_decodes() -> (u32, u64) {
        (100, 200_000)
    }

    fn fig4_batch(chunk: u32) -> BatchProfile {
        let (n, ctx) = fig4_decodes();
        BatchProfile::builder()
            .prefill_chunk(chunk, 1_000)
            .decodes(n, ctx)
            .build()
    }

    #[test]
    fn empty_batch_costs_nothing() {
        assert_eq!(model_8b().iteration_time_us(&BatchProfile::default()), 0.0);
        assert_eq!(
            model_8b().throughput_tokens_per_sec(&BatchProfile::default()),
            0.0
        );
    }

    #[test]
    fn latency_is_monotonic_in_chunk_size() {
        let m = model_8b();
        let mut last = 0.0;
        for chunk in [64, 128, 256, 512, 1024, 2048, 4096] {
            let t = m.iteration_time_us(&fig4_batch(chunk));
            assert!(t > last, "chunk {chunk}: {t} <= {last}");
            last = t;
        }
    }

    #[test]
    fn figure4_calibration_chunk_330_near_50ms() {
        // The paper's Fig. 4 marks chunk 330 against the 50 ms TBT SLO.
        let t = model_8b().iteration_time_us(&fig4_batch(330)) / 1e3;
        assert!(
            (35.0..=60.0).contains(&t),
            "chunk 330 should land near the 50ms SLO, got {t:.1}ms"
        );
    }

    #[test]
    fn figure4_calibration_throughput_ratio() {
        // Paper: a 2500-token chunk delivers ~2x the throughput of the
        // default 256 chunk. Accept 1.5x..2.5x for the reproduction.
        let m = model_8b();
        let small = m.throughput_tokens_per_sec(&fig4_batch(256));
        let large = m.throughput_tokens_per_sec(&fig4_batch(2_500));
        let ratio = large / small;
        assert!(
            (1.5..=2.5).contains(&ratio),
            "throughput ratio 2500/256 should be ~2x, got {ratio:.2} ({small:.0} -> {large:.0})"
        );
    }

    #[test]
    fn figure4_throughput_saturates() {
        // Marginal throughput gain from 2500 -> 4000 should be small
        // compared with the gain from 256 -> 2500.
        let m = model_8b();
        let t256 = m.throughput_tokens_per_sec(&fig4_batch(256));
        let t2500 = m.throughput_tokens_per_sec(&fig4_batch(2_500));
        let t4000 = m.throughput_tokens_per_sec(&fig4_batch(4_000));
        let early_gain = t2500 - t256;
        let late_gain = t4000 - t2500;
        assert!(
            late_gain < 0.25 * early_gain,
            "throughput should saturate: early gain {early_gain:.0}, late gain {late_gain:.0}"
        );
    }

    #[test]
    fn decode_only_iteration_is_memory_bound() {
        // A decode-only batch should cost at least the weight-read floor.
        let m = model_8b();
        let batch = BatchProfile::builder().decodes(32, 32 * 1000).build();
        let t = m.iteration_time_us(&batch);
        assert!(t >= m.weight_read_us());
        // And should comfortably meet a 50ms TBT.
        assert!(t / 1e3 < 50.0, "decode-only TBT was {:.1}ms", t / 1e3);
    }

    #[test]
    fn mha_decode_attention_costs_more_than_gqa() {
        // Qwen-7B (MHA) has 4x the KV bytes of Llama3-8B (GQA); a decode
        // heavy batch must cost relatively more on the KV term.
        let gqa = LatencyModel::new(&HardwareConfig::llama3_8b_a100_tp1());
        let mha = LatencyModel::new(&HardwareConfig::qwen_7b_a100_tp2());
        let light = BatchProfile::builder().decodes(8, 8 * 100).build();
        let heavy = BatchProfile::builder().decodes(64, 64 * 4_000).build();
        let gqa_growth = gqa.iteration_time_us(&heavy) / gqa.iteration_time_us(&light);
        let mha_growth = mha.iteration_time_us(&heavy) / mha.iteration_time_us(&light);
        assert!(
            mha_growth > gqa_growth,
            "MHA decode growth {mha_growth:.2} should exceed GQA {gqa_growth:.2}"
        );
    }

    #[test]
    fn deeper_context_makes_chunks_slower() {
        // The Medha effect: the same chunk is slower late in a long prompt.
        let m = model_8b();
        let early = BatchProfile::builder().prefill_chunk(512, 0).build();
        let late = BatchProfile::builder().prefill_chunk(512, 100_000).build();
        let e = m.iteration_time_us(&early);
        let l = m.iteration_time_us(&late);
        assert!(
            l > 1.5 * e,
            "chunk at 100k context ({l:.0}us) should be much slower than at 0 ({e:.0}us)"
        );
    }

    #[test]
    fn seventy_b_is_slower_than_8b() {
        let small = LatencyModel::new(&HardwareConfig::llama3_8b_a100_tp1());
        let big = LatencyModel::new(&HardwareConfig::llama3_70b_h100_tp4());
        let batch = fig4_batch(512);
        assert!(big.iteration_time_us(&batch) > small.iteration_time_us(&batch));
    }

    #[test]
    fn tp_sync_overhead_present_for_multi_gpu() {
        let tp2 = LatencyModel::new(&HardwareConfig::qwen_7b_a100_tp2());
        assert!(tp2.sync_overhead_us > 0.0);
    }

    #[test]
    fn iteration_time_matches_us_variant() {
        let m = model_8b();
        let b = fig4_batch(512);
        let us = m.iteration_time_us(&b);
        assert_eq!(m.iteration_time(&b).as_micros(), us.round() as u64);
    }
}
