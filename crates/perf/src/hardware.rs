//! Model, GPU, and parallelism descriptions.
//!
//! These structs carry just enough architectural detail to drive the
//! analytical latency model: parameter count (weight-read time and GEMM
//! FLOPs), layer/head geometry (KV-cache bytes per token), and per-GPU
//! compute/bandwidth envelopes. The three constructors on
//! [`HardwareConfig`] correspond to Table 1 of the paper.

use qoserve_sim::nums;

/// Attention layout of a model — decides KV-cache bytes per token.
///
/// The paper deliberately spans both: Llama3 models use grouped-query
/// attention (small KV), Qwen-7B uses multi-head attention (large KV),
/// which stresses the decode-attention term of the latency model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AttentionKind {
    /// Multi-head attention: one KV head per query head.
    Mha,
    /// Grouped-query attention with the given number of KV heads.
    Gqa {
        /// Number of key/value heads shared across the query heads.
        kv_heads: u32,
    },
}

/// Architecture of a served model.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelSpec {
    /// Human-readable name, e.g. `"Llama3-8B"`.
    pub name: String,
    /// Total parameter count.
    pub params: u64,
    /// Number of transformer layers.
    pub layers: u32,
    /// Hidden dimension.
    pub hidden: u32,
    /// Number of query heads.
    pub heads: u32,
    /// Attention layout.
    pub attention: AttentionKind,
    /// Bytes per weight element (2 for bf16).
    pub bytes_per_param: u32,
}

impl ModelSpec {
    /// Head dimension (`hidden / heads`).
    pub fn head_dim(&self) -> u32 {
        self.hidden / self.heads
    }

    /// Number of KV heads for this model's attention layout.
    pub fn kv_heads(&self) -> u32 {
        match self.attention {
            AttentionKind::Mha => self.heads,
            AttentionKind::Gqa { kv_heads } => kv_heads,
        }
    }

    /// KV-cache bytes stored per token across all layers (keys + values).
    pub fn kv_bytes_per_token(&self) -> u64 {
        2 * self.kv_heads() as u64
            * self.head_dim() as u64
            * self.bytes_per_param as u64
            * self.layers as u64
    }

    /// Total weight bytes.
    pub fn weight_bytes(&self) -> u64 {
        self.params * self.bytes_per_param as u64
    }

    /// Llama3-8B: 32 layers, 4096 hidden, GQA with 8 KV heads.
    pub fn llama3_8b() -> Self {
        ModelSpec {
            name: "Llama3-8B".to_owned(),
            params: 8_000_000_000,
            layers: 32,
            hidden: 4096,
            heads: 32,
            attention: AttentionKind::Gqa { kv_heads: 8 },
            bytes_per_param: 2,
        }
    }

    /// Qwen-7B: 32 layers, 4096 hidden, full MHA (32 KV heads).
    pub fn qwen_7b() -> Self {
        ModelSpec {
            name: "Qwen-7B".to_owned(),
            params: 7_000_000_000,
            layers: 32,
            hidden: 4096,
            heads: 32,
            attention: AttentionKind::Mha,
            bytes_per_param: 2,
        }
    }

    /// Llama3-70B: 80 layers, 8192 hidden, GQA with 8 KV heads.
    pub fn llama3_70b() -> Self {
        ModelSpec {
            name: "Llama3-70B".to_owned(),
            params: 70_000_000_000,
            layers: 80,
            hidden: 8192,
            heads: 64,
            attention: AttentionKind::Gqa { kv_heads: 8 },
            bytes_per_param: 2,
        }
    }
}

/// Compute/memory envelope of one GPU.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuSpec {
    /// Marketing name, e.g. `"A100-80GB"`.
    pub name: String,
    /// Peak dense bf16 throughput in TFLOP/s.
    pub peak_tflops: f64,
    /// Peak HBM bandwidth in GB/s.
    pub peak_bw_gbps: f64,
    /// HBM capacity in GiB.
    pub memory_gib: f64,
    /// Fraction of peak FLOPs realistically achieved by fused
    /// prefill/decode kernels.
    pub flops_efficiency: f64,
    /// Fraction of peak bandwidth realistically achieved by weight and
    /// KV-cache streaming.
    pub bw_efficiency: f64,
}

impl GpuSpec {
    /// NVIDIA A100 80 GB SXM.
    pub fn a100_80gb() -> Self {
        GpuSpec {
            name: "A100-80GB".to_owned(),
            peak_tflops: 312.0,
            peak_bw_gbps: 2039.0,
            memory_gib: 80.0,
            // End-to-end calibration constant (see crate::analytical):
            // fitted so the Figure-4 throughput/latency curve matches the
            // paper, not a microbenchmark claim.
            flops_efficiency: 0.88,
            bw_efficiency: 0.65,
        }
    }

    /// NVIDIA H100 80 GB SXM.
    pub fn h100_80gb() -> Self {
        GpuSpec {
            name: "H100-80GB".to_owned(),
            peak_tflops: 989.0,
            peak_bw_gbps: 3350.0,
            memory_gib: 80.0,
            flops_efficiency: 0.45,
            bw_efficiency: 0.68,
        }
    }

    /// Achievable FLOP/s (peak × efficiency), in FLOP per second.
    pub fn effective_flops(&self) -> f64 {
        self.peak_tflops * 1e12 * self.flops_efficiency
    }

    /// Achievable bandwidth (peak × efficiency), in bytes per second.
    pub fn effective_bw(&self) -> f64 {
        self.peak_bw_gbps * 1e9 * self.bw_efficiency
    }
}

/// Tensor-parallel degree and its communication overhead.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Parallelism {
    /// Number of GPUs the model is sharded across.
    pub tensor_parallel: u32,
    /// Additional per-iteration all-reduce cost in microseconds for each
    /// extra TP rank (NVLink all-reduce latency floor).
    pub tp_sync_us_per_rank: f64,
}

impl Parallelism {
    /// Single-GPU execution.
    pub fn tp(degree: u32) -> Self {
        Parallelism {
            tensor_parallel: degree.max(1),
            tp_sync_us_per_rank: 550.0,
        }
    }

    /// Per-iteration synchronization cost in microseconds.
    pub fn sync_overhead_us(&self) -> f64 {
        (self.tensor_parallel.saturating_sub(1)) as f64 * self.tp_sync_us_per_rank
    }
}

/// A full serving configuration: model × GPU × parallelism (one row of
/// Table 1).
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// The served model.
    pub model: ModelSpec,
    /// The GPU type each shard runs on.
    pub gpu: GpuSpec,
    /// Tensor-parallel layout.
    pub parallelism: Parallelism,
}

impl HardwareConfig {
    /// Table 1 row 1: Llama3-8B on one A100.
    pub fn llama3_8b_a100_tp1() -> Self {
        HardwareConfig {
            model: ModelSpec::llama3_8b(),
            gpu: GpuSpec::a100_80gb(),
            parallelism: Parallelism::tp(1),
        }
    }

    /// Table 1 row 2: Qwen-7B on two A100s (TP2, MHA).
    pub fn qwen_7b_a100_tp2() -> Self {
        HardwareConfig {
            model: ModelSpec::qwen_7b(),
            gpu: GpuSpec::a100_80gb(),
            parallelism: Parallelism::tp(2),
        }
    }

    /// Table 1 row 3: Llama3-70B on four H100s (TP4).
    pub fn llama3_70b_h100_tp4() -> Self {
        HardwareConfig {
            model: ModelSpec::llama3_70b(),
            gpu: GpuSpec::h100_80gb(),
            parallelism: Parallelism::tp(4),
        }
    }

    /// All three paper configurations, in Table 1 order.
    pub fn paper_configs() -> Vec<HardwareConfig> {
        vec![
            Self::llama3_8b_a100_tp1(),
            Self::qwen_7b_a100_tp2(),
            Self::llama3_70b_h100_tp4(),
        ]
    }

    /// Number of GPUs one replica of this configuration occupies.
    pub fn gpus_per_replica(&self) -> u32 {
        self.parallelism.tensor_parallel
    }

    /// Weight bytes resident on each GPU shard.
    pub fn weight_bytes_per_gpu(&self) -> u64 {
        self.model.weight_bytes() / self.parallelism.tensor_parallel as u64
    }

    /// HBM bytes left for KV cache on each shard after weights and a fixed
    /// activation/fragmentation reserve.
    pub fn kv_budget_bytes_per_gpu(&self) -> u64 {
        let total = nums::f64_trunc_to_u64(self.gpu.memory_gib * 1024.0 * 1024.0 * 1024.0);
        let reserve = total / 10; // activations, CUDA context, fragmentation
        total
            .saturating_sub(self.weight_bytes_per_gpu())
            .saturating_sub(reserve)
    }

    /// Total KV-cache token capacity of one replica (all shards pooled;
    /// with TP the KV is sharded the same way as the weights).
    pub fn kv_token_capacity(&self) -> u64 {
        let per_gpu = self.kv_budget_bytes_per_gpu();
        let total = per_gpu * self.parallelism.tensor_parallel as u64;
        total / self.model.kv_bytes_per_token().max(1)
    }

    /// Short display label, e.g. `"Llama3-8B (TP1-A100-80GB)"`.
    pub fn label(&self) -> String {
        format!(
            "{} (TP{}-{})",
            self.model.name, self.parallelism.tensor_parallel, self.gpu.name
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kv_bytes_gqa_vs_mha() {
        let gqa = ModelSpec::llama3_8b();
        let mha = ModelSpec::qwen_7b();
        // 8 KV heads vs 32 KV heads, same geometry otherwise -> 4x KV.
        assert_eq!(gqa.kv_bytes_per_token() * 4, mha.kv_bytes_per_token());
        // Llama3-8B: 2 * 8 * 128 * 2 * 32 = 131072 bytes per token.
        assert_eq!(gqa.kv_bytes_per_token(), 131_072);
    }

    #[test]
    fn head_dim_is_consistent() {
        assert_eq!(ModelSpec::llama3_8b().head_dim(), 128);
        assert_eq!(ModelSpec::llama3_70b().head_dim(), 128);
    }

    #[test]
    fn weight_bytes_match_param_count() {
        assert_eq!(ModelSpec::llama3_8b().weight_bytes(), 16_000_000_000);
    }

    #[test]
    fn tp_sharding_reduces_per_gpu_weights() {
        let hw = HardwareConfig::llama3_70b_h100_tp4();
        assert_eq!(hw.weight_bytes_per_gpu(), 140_000_000_000 / 4);
        assert_eq!(hw.gpus_per_replica(), 4);
    }

    #[test]
    fn kv_capacity_is_positive_and_plausible() {
        for hw in HardwareConfig::paper_configs() {
            let cap = hw.kv_token_capacity();
            assert!(
                cap > 50_000,
                "{} should hold a few hundred thousand KV tokens, got {cap}",
                hw.label()
            );
            assert!(cap < 5_000_000, "{}: implausibly large {cap}", hw.label());
        }
    }

    #[test]
    fn tp1_has_no_sync_overhead() {
        assert_eq!(Parallelism::tp(1).sync_overhead_us(), 0.0);
        assert!(Parallelism::tp(4).sync_overhead_us() > 0.0);
    }

    #[test]
    fn labels_are_informative() {
        assert_eq!(
            HardwareConfig::llama3_8b_a100_tp1().label(),
            "Llama3-8B (TP1-A100-80GB)"
        );
    }
}
