//! Vidur-like profiling harness.
//!
//! The paper collects latency profiles "of MLP and attention operation ...
//! at varying chunk sizes, batch sizes as well as context lengths" through
//! a lightweight harness exposed by the Vidur simulator, once per (model,
//! hardware, parallelism) configuration (§3.6.1). This module is that
//! harness for the reproduction: it sweeps the batch-profile space, labels
//! each point with the ground-truth analytical model plus multiplicative
//! measurement noise, and hands the samples to the forest trainer.

use qoserve_sim::Rng;

use qoserve_sim::rng::sample_standard_normal;
use qoserve_sim::SeedStream;

use crate::analytical::LatencyModel;
use crate::batch::BatchProfile;
use crate::hardware::HardwareConfig;

/// One labelled profiling observation.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileSample {
    /// The batch that was "measured".
    pub batch: BatchProfile,
    /// Observed iteration latency in microseconds.
    pub latency_us: f64,
}

/// Sweep ranges for the profiling run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProfilerConfig {
    /// Number of samples to collect.
    pub num_samples: usize,
    /// Largest prefill chunk to measure.
    pub max_chunk: u32,
    /// Largest per-request prompt context to measure.
    pub max_context: u32,
    /// Largest decode batch to measure.
    pub max_decodes: u32,
    /// Largest mean decode context length.
    pub max_decode_context: u32,
    /// Multiplicative measurement-noise sigma (e.g. 0.02 for 2 %).
    pub noise_sigma: f64,
}

impl Default for ProfilerConfig {
    fn default() -> Self {
        ProfilerConfig {
            num_samples: 6_000,
            max_chunk: 4_096,
            max_context: 16_384,
            max_decodes: 200,
            max_decode_context: 4_096,
            noise_sigma: 0.02,
        }
    }
}

/// The profiling harness for one hardware configuration.
///
/// # Example
///
/// ```
/// use qoserve_perf::{HardwareConfig, Profiler, ProfilerConfig};
/// use qoserve_sim::SeedStream;
///
/// let profiler = Profiler::new(
///     HardwareConfig::llama3_8b_a100_tp1(),
///     ProfilerConfig { num_samples: 100, ..Default::default() },
/// );
/// let samples = profiler.collect(&SeedStream::new(7));
/// assert_eq!(samples.len(), 100);
/// assert!(samples.iter().all(|s| s.latency_us > 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct Profiler {
    model: LatencyModel,
    config: ProfilerConfig,
}

impl Profiler {
    /// Creates a harness for `hw` with the given sweep configuration.
    pub fn new(hw: HardwareConfig, config: ProfilerConfig) -> Self {
        Profiler {
            model: LatencyModel::new(&hw),
            config,
        }
    }

    /// Runs the sweep, returning `num_samples` labelled observations.
    ///
    /// A third of the samples are decode-only batches, a third prefill-only,
    /// and a third mixed — mirroring the operating points a chunked-prefill
    /// engine actually visits.
    pub fn collect(&self, seeds: &SeedStream) -> Vec<ProfileSample> {
        let mut rng = seeds.derive("profiler");
        let mut samples = Vec::with_capacity(self.config.num_samples);
        for i in 0..self.config.num_samples {
            let batch = match i % 3 {
                0 => self.sample_decode_only(&mut rng),
                1 => self.sample_prefill_only(&mut rng),
                _ => self.sample_mixed(&mut rng),
            };
            let clean = self.model.iteration_time_us(&batch);
            let noise = 1.0 + self.config.noise_sigma * sample_standard_normal(&mut rng);
            samples.push(ProfileSample {
                batch,
                latency_us: clean * noise.max(0.5),
            });
        }
        samples
    }

    /// Splits samples into `(features, labels)` arrays for forest training.
    pub fn to_training_set(samples: &[ProfileSample]) -> (Vec<[f64; 4]>, Vec<f64>) {
        let rows = samples.iter().map(|s| s.batch.features()).collect();
        let labels = samples.iter().map(|s| s.latency_us).collect();
        (rows, labels)
    }

    fn sample_decode_only<R: Rng>(&self, rng: &mut R) -> BatchProfile {
        let n = rng.gen_range(1..=self.config.max_decodes);
        let mean_ctx = rng.gen_range(16..=self.config.max_decode_context) as u64;
        BatchProfile::builder()
            .decodes(n, n as u64 * mean_ctx)
            .build()
    }

    fn sample_prefill_only<R: Rng>(&self, rng: &mut R) -> BatchProfile {
        let chunk = rng.gen_range(16..=self.config.max_chunk);
        let ctx = rng.gen_range(0..=self.config.max_context);
        BatchProfile::builder().prefill_chunk(chunk, ctx).build()
    }

    fn sample_mixed<R: Rng>(&self, rng: &mut R) -> BatchProfile {
        let chunk = rng.gen_range(16..=self.config.max_chunk);
        let ctx = rng.gen_range(0..=self.config.max_context);
        let n = rng.gen_range(1..=self.config.max_decodes);
        let mean_ctx = rng.gen_range(16..=self.config.max_decode_context) as u64;
        BatchProfile::builder()
            .prefill_chunk(chunk, ctx)
            .decodes(n, n as u64 * mean_ctx)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForest;

    fn small_profiler() -> Profiler {
        Profiler::new(
            HardwareConfig::llama3_8b_a100_tp1(),
            ProfilerConfig {
                num_samples: 1_500,
                ..Default::default()
            },
        )
    }

    #[test]
    fn collect_is_deterministic_per_seed() {
        let p = small_profiler();
        let a = p.collect(&SeedStream::new(1));
        let b = p.collect(&SeedStream::new(1));
        assert_eq!(a, b);
        let c = p.collect(&SeedStream::new(2));
        assert_ne!(a, c);
    }

    #[test]
    fn samples_cover_all_batch_shapes() {
        let samples = small_profiler().collect(&SeedStream::new(3));
        let decode_only = samples
            .iter()
            .filter(|s| s.batch.prefill.is_empty() && s.batch.num_decodes > 0)
            .count();
        let prefill_only = samples
            .iter()
            .filter(|s| !s.batch.prefill.is_empty() && s.batch.num_decodes == 0)
            .count();
        let mixed = samples
            .iter()
            .filter(|s| !s.batch.prefill.is_empty() && s.batch.num_decodes > 0)
            .count();
        assert!(decode_only > 100 && prefill_only > 100 && mixed > 100);
    }

    #[test]
    fn noise_stays_close_to_ground_truth() {
        let p = small_profiler();
        let model = LatencyModel::new(&HardwareConfig::llama3_8b_a100_tp1());
        for s in p.collect(&SeedStream::new(5)) {
            let clean = model.iteration_time_us(&s.batch);
            let rel = (s.latency_us - clean).abs() / clean;
            assert!(rel < 0.15, "noise too large: {rel}");
        }
    }

    /// The paper claims < 10 % error for the trained predictor; verify the
    /// whole pipeline (profile -> train -> holdout eval) achieves that.
    #[test]
    fn trained_forest_meets_paper_error_bound() {
        let p = Profiler::new(
            HardwareConfig::llama3_8b_a100_tp1(),
            ProfilerConfig {
                num_samples: 4_000,
                ..Default::default()
            },
        );
        let samples = p.collect(&SeedStream::new(11));
        let (train, test) = samples.split_at(3_200);
        let (rows, labels) = Profiler::to_training_set(train);
        let mut rng = SeedStream::new(12).derive("fit");
        let forest = RandomForest::fit(&rows, &labels, &mut rng).unwrap();
        let (test_rows, test_labels) = Profiler::to_training_set(test);
        let mape = forest.mape(&test_rows, &test_labels);
        assert!(
            mape < 0.10,
            "holdout MAPE should be < 10% per the paper, got {:.1}%",
            mape * 100.0
        );
    }
}
