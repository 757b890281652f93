//! Rolling replica health: the engine-side observation feed for the
//! cluster layer's circuit breakers.
//!
//! Every executed iteration contributes one [`HealthSample`] — whether a
//! slowdown window inflated it and the observed/clean latency ratio —
//! into a fixed-size ring. [`HealthSnapshot`] summarises the ring on
//! demand: degraded-iteration fraction and mean latency ratio, folded
//! into a single [`score`](HealthSnapshot::score) the breaker thresholds
//! against, plus the queued prompt tokens the autoscaler reads.
//!
//! Reads are pure (no engine state is touched), so health-driven dispatch
//! decisions never perturb a replica's own timeline — fault-free runs
//! stay bit-identical whether or not anyone looks at the snapshots.

/// Iterations summarised by a snapshot. Large enough to smooth batch-mix
/// noise, small enough that a straggler window dominates the ring within
/// a second or two of onset.
pub const HEALTH_WINDOW: usize = 32;

/// One iteration's contribution to the health ring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSample {
    /// Whether a straggler/drift window inflated this iteration.
    pub degraded: bool,
    /// Observed execution latency over the clean model latency (noise and
    /// slowdown included; 1.0 = exactly as modelled).
    pub ratio: f64,
}

/// Fixed-size ring of recent [`HealthSample`]s.
#[derive(Debug, Clone, Default)]
pub struct HealthRing {
    samples: Vec<HealthSample>,
    cursor: usize,
}

impl HealthRing {
    /// An empty ring.
    pub fn new() -> Self {
        HealthRing {
            samples: Vec::with_capacity(HEALTH_WINDOW),
            cursor: 0,
        }
    }

    /// Records one iteration, evicting the oldest past [`HEALTH_WINDOW`].
    pub fn record(&mut self, sample: HealthSample) {
        if self.samples.len() < HEALTH_WINDOW {
            self.samples.push(sample);
        } else {
            self.samples[self.cursor] = sample;
        }
        self.cursor = (self.cursor + 1) % HEALTH_WINDOW;
    }

    /// Samples currently held.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True before the first iteration.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The degraded fraction and mean latency ratio of the ring.
    fn summarize(&self) -> (f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 1.0);
        }
        let n = self.samples.len() as f64;
        let degraded = self.samples.iter().filter(|s| s.degraded).count() as f64 / n;
        let mean_ratio = self.samples.iter().map(|s| s.ratio).sum::<f64>() / n;
        (degraded, mean_ratio)
    }
}

/// Point-in-time health of one replica, as reported to the cluster layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HealthSnapshot {
    /// Iterations summarised below (0 before the first iteration).
    pub window: usize,
    /// Fraction of windowed iterations inside a slowdown window.
    pub degraded_fraction: f64,
    /// Mean observed/clean latency ratio over the window (1.0 = nominal).
    pub mean_latency_ratio: f64,
    /// Prompt tokens waiting in the scheduler queue.
    pub queue_tokens: u64,
}

impl HealthSnapshot {
    /// Builds a snapshot from a ring plus the caller's queued prompt
    /// tokens.
    pub fn from_ring(ring: &HealthRing, queue_tokens: u64) -> Self {
        let (degraded_fraction, mean_latency_ratio) = ring.summarize();
        HealthSnapshot {
            window: ring.len(),
            degraded_fraction,
            mean_latency_ratio,
            queue_tokens,
        }
    }

    /// Scalar health in `(0, 1]`: 1.0 is a nominal replica; sustained
    /// slowdown pushes the score toward 0. The latency-ratio term is the
    /// reciprocal of the mean ratio (a 2x straggler halves the score);
    /// the degraded-fraction term halves the score when every windowed
    /// iteration was inside a fault window.
    pub fn score(&self) -> f64 {
        let ratio_term = if self.mean_latency_ratio > 1.0 {
            1.0 / self.mean_latency_ratio
        } else {
            1.0
        };
        let degraded_term = 1.0 - 0.5 * self.degraded_fraction.clamp(0.0, 1.0);
        ratio_term * degraded_term
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(degraded: bool, ratio: f64) -> HealthSample {
        HealthSample { degraded, ratio }
    }

    #[test]
    fn empty_ring_reports_nominal() {
        let ring = HealthRing::new();
        let snap = HealthSnapshot::from_ring(&ring, 7);
        assert_eq!(snap.window, 0);
        assert_eq!(snap.mean_latency_ratio, 1.0);
        assert_eq!(snap.degraded_fraction, 0.0);
        assert_eq!(snap.score(), 1.0);
        assert_eq!(snap.queue_tokens, 7);
    }

    #[test]
    fn ring_evicts_oldest_past_window() {
        let mut ring = HealthRing::new();
        // Fill with degraded samples, then push a full window of clean
        // ones: the degraded history must age out completely.
        for _ in 0..HEALTH_WINDOW {
            ring.record(sample(true, 2.0));
        }
        for _ in 0..HEALTH_WINDOW {
            ring.record(sample(false, 1.0));
        }
        assert_eq!(ring.len(), HEALTH_WINDOW);
        let snap = HealthSnapshot::from_ring(&ring, 0);
        assert_eq!(snap.degraded_fraction, 0.0);
        assert_eq!(snap.mean_latency_ratio, 1.0);
        assert_eq!(snap.score(), 1.0);
    }

    #[test]
    fn straggler_window_degrades_the_score() {
        let mut ring = HealthRing::new();
        for _ in 0..HEALTH_WINDOW {
            ring.record(sample(true, 2.0));
        }
        let snap = HealthSnapshot::from_ring(&ring, 0);
        assert_eq!(snap.degraded_fraction, 1.0);
        assert_eq!(snap.mean_latency_ratio, 2.0);
        // ratio term 0.5 x degraded term 0.5 = 0.25.
        assert!((snap.score() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn faster_than_modelled_does_not_inflate_score() {
        let mut ring = HealthRing::new();
        ring.record(sample(false, 0.9));
        let snap = HealthSnapshot::from_ring(&ring, 0);
        assert_eq!(snap.score(), 1.0, "score is capped at nominal");
    }
}
