//! Buildable scheduler descriptions.
//!
//! A cluster run needs one scheduler instance per replica; a
//! [`SchedulerSpec`] captures the policy choice as plain data and builds
//! fresh instances on demand.

use qoserve_perf::{HardwareConfig, LatencyPredictor, PredictorKind};
use qoserve_sched::{
    ConServeScheduler, DeadlineAwareAdmission, MedhaConfig, MedhaScheduler, OrderPolicy,
    QoServeConfig, QoServeScheduler, RateLimitScheduler, SarathiScheduler, Scheduler,
    SlosServeScheduler,
};
use qoserve_sim::SeedStream;

/// A scheduler policy as data, buildable per replica.
#[derive(Debug, Clone)]
pub enum SchedulerSpec {
    /// Fixed-chunk Sarathi with the given ordering.
    Sarathi {
        /// Prefill ordering policy.
        policy: OrderPolicy,
        /// Fixed per-iteration token budget.
        chunk: u32,
    },
    /// The QoServe scheduler.
    QoServe {
        /// Feature configuration (α, relegation, chunking).
        config: QoServeConfig,
        /// Which latency predictor backs dynamic chunking.
        predictor: PredictorKind,
    },
    /// Medha-style adaptive chunking (§4.5.1).
    Medha {
        /// The TBT target.
        config: MedhaConfig,
        /// Which latency predictor backs the chunk search.
        predictor: PredictorKind,
    },
    /// ConServe-style binary online/offline collocation (§5).
    ConServe {
        /// Fixed per-iteration token budget.
        chunk: u32,
    },
    /// SLOs-Serve-style DP planning at every batch (§4.5.3).
    SlosServe,
    /// §2.2's rate-limiting overload baseline: an inner scheduler behind
    /// an importance-blind backlog cap.
    RateLimited {
        /// The admission-controlled scheduler.
        inner: Box<SchedulerSpec>,
        /// Backlog cap in pending prompt tokens.
        max_backlog_tokens: u64,
    },
    /// The resilience layer's SLO-aware gate: an inner scheduler behind
    /// an admission wrapper that rejects only provably-late requests,
    /// tightening online with observed misprediction.
    DeadlineAware {
        /// The admission-controlled scheduler.
        inner: Box<SchedulerSpec>,
        /// The predictor the completion estimate derives from.
        predictor: PredictorKind,
    },
}

impl SchedulerSpec {
    /// The paper's shared-cluster baseline: Sarathi-FCFS at chunk 256.
    pub fn sarathi_fcfs() -> Self {
        SchedulerSpec::Sarathi {
            policy: OrderPolicy::Fcfs,
            chunk: 256,
        }
    }

    /// The paper's deadline-aware baseline: Sarathi-EDF at chunk 256.
    pub fn sarathi_edf() -> Self {
        SchedulerSpec::Sarathi {
            policy: OrderPolicy::Edf,
            chunk: 256,
        }
    }

    /// The paper's length-aware baseline: Sarathi-SRPF at chunk 256.
    pub fn sarathi_srpf() -> Self {
        SchedulerSpec::Sarathi {
            policy: OrderPolicy::Srpf,
            chunk: 256,
        }
    }

    /// Default QoServe with the analytical predictor (fast; the forest
    /// variant is behaviourally equivalent within its < 10 % error).
    pub fn qoserve() -> Self {
        SchedulerSpec::QoServe {
            config: QoServeConfig::default(),
            predictor: PredictorKind::Analytical,
        }
    }

    /// QoServe with a custom configuration.
    pub fn qoserve_with(config: QoServeConfig) -> Self {
        SchedulerSpec::QoServe {
            config,
            predictor: PredictorKind::Analytical,
        }
    }

    /// QoServe with the online adaptive margin enabled — the resilience
    /// layer's per-replica scheduler.
    pub fn qoserve_adaptive() -> Self {
        SchedulerSpec::QoServe {
            config: QoServeConfig::adaptive(),
            predictor: PredictorKind::Analytical,
        }
    }

    /// `inner` behind the SLO-aware deadline admission gate.
    pub fn deadline_aware(inner: SchedulerSpec) -> Self {
        SchedulerSpec::DeadlineAware {
            inner: Box::new(inner),
            predictor: PredictorKind::Analytical,
        }
    }

    /// Builds a fresh scheduler instance for one replica.
    pub fn build(&self, hw: &HardwareConfig, seeds: &SeedStream) -> Box<dyn Scheduler> {
        match self {
            SchedulerSpec::Sarathi { policy, chunk } => {
                Box::new(SarathiScheduler::new(*policy, *chunk))
            }
            SchedulerSpec::QoServe { config, predictor } => Box::new(QoServeScheduler::new(
                config.clone(),
                LatencyPredictor::of_kind(*predictor, hw, seeds),
            )),
            SchedulerSpec::Medha { config, predictor } => Box::new(MedhaScheduler::new(
                *config,
                LatencyPredictor::of_kind(*predictor, hw, seeds),
            )),
            SchedulerSpec::ConServe { chunk } => Box::new(ConServeScheduler::new(*chunk)),
            SchedulerSpec::SlosServe => {
                Box::new(SlosServeScheduler::new(LatencyPredictor::analytical(hw)))
            }
            SchedulerSpec::RateLimited {
                inner,
                max_backlog_tokens,
            } => Box::new(RateLimitScheduler::new(
                inner.build(hw, seeds),
                *max_backlog_tokens,
            )),
            SchedulerSpec::DeadlineAware { inner, predictor } => {
                Box::new(DeadlineAwareAdmission::new(
                    inner.build(hw, seeds),
                    LatencyPredictor::of_kind(*predictor, hw, seeds),
                ))
            }
        }
    }

    /// Display label, e.g. `"Sarathi-EDF"` or `"QoServe"`.
    pub fn label(&self) -> String {
        match self {
            SchedulerSpec::Sarathi { policy, .. } => format!("Sarathi-{}", policy.label()),
            SchedulerSpec::QoServe { .. } => "QoServe".to_owned(),
            SchedulerSpec::Medha { .. } => "Medha".to_owned(),
            SchedulerSpec::ConServe { .. } => "ConServe".to_owned(),
            SchedulerSpec::SlosServe => "SLOs-Serve".to_owned(),
            SchedulerSpec::RateLimited { inner, .. } => {
                format!("RateLimited({})", inner.label())
            }
            SchedulerSpec::DeadlineAware { inner, .. } => {
                format!("DeadlineAware({})", inner.label())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_each_variant() {
        let hw = HardwareConfig::llama3_8b_a100_tp1();
        let seeds = SeedStream::new(1);
        assert_eq!(
            SchedulerSpec::sarathi_fcfs().build(&hw, &seeds).name(),
            "Sarathi-FCFS"
        );
        assert_eq!(
            SchedulerSpec::qoserve().build(&hw, &seeds).name(),
            "QoServe"
        );
        let medha = SchedulerSpec::Medha {
            config: MedhaConfig::default(),
            predictor: PredictorKind::Analytical,
        };
        assert_eq!(medha.build(&hw, &seeds).name(), "Medha");
    }

    #[test]
    fn labels_match_builds() {
        assert_eq!(SchedulerSpec::sarathi_edf().label(), "Sarathi-EDF");
        assert_eq!(SchedulerSpec::sarathi_srpf().label(), "Sarathi-SRPF");
        assert_eq!(SchedulerSpec::qoserve().label(), "QoServe");
    }

    #[test]
    fn builds_adaptive_and_deadline_aware() {
        let hw = HardwareConfig::llama3_8b_a100_tp1();
        let seeds = SeedStream::new(3);
        assert_eq!(
            SchedulerSpec::qoserve_adaptive().build(&hw, &seeds).name(),
            "QoServe"
        );
        let gated = SchedulerSpec::deadline_aware(SchedulerSpec::qoserve_adaptive());
        assert_eq!(gated.label(), "DeadlineAware(QoServe)");
        assert_eq!(gated.build(&hw, &seeds).name(), "DeadlineAware(QoServe)");
    }

    #[test]
    fn builds_slos_serve_and_rate_limited() {
        let hw = HardwareConfig::llama3_8b_a100_tp1();
        let seeds = SeedStream::new(2);
        assert_eq!(
            SchedulerSpec::SlosServe.build(&hw, &seeds).name(),
            "SLOs-Serve"
        );
        let limited = SchedulerSpec::RateLimited {
            inner: Box::new(SchedulerSpec::sarathi_fcfs()),
            max_backlog_tokens: 10_000,
        };
        assert_eq!(limited.label(), "RateLimited(Sarathi-FCFS)");
        assert_eq!(
            limited.build(&hw, &seeds).name(),
            "RateLimited(Sarathi-FCFS)"
        );
    }
}
