//! The high-level serving facade.
//!
//! [`QoServe`] wraps a replica engine (or a small shared cluster) behind
//! the API shape the paper describes for its vLLM extension: requests are
//! submitted together with their QoS contract (TTFT/TBT or TTLT targets
//! plus a priority hint), and the system reports per-request outcomes and
//! an SLO summary.

use qoserve_cluster::{run_shared, ClusterConfig, SchedulerSpec};
use qoserve_metrics::{RequestOutcome, SloReport};
use qoserve_perf::HardwareConfig;
use qoserve_sim::{SeedStream, SimTime};
use qoserve_workload::{Priority, QosClass, QosTier, RequestId, RequestSpec, Slo, TierId, Trace};

/// Builder-style request description.
///
/// # Example
///
/// ```
/// use qoserve::Request;
///
/// let spec = Request::interactive(512, 100)
///     .ttft_secs(3.0)
///     .tbt_ms(25.0)
///     .priority_low()
///     .arriving_at_secs(1.5)
///     .into_spec(qoserve_workload::RequestId(7));
/// assert_eq!(spec.prompt_tokens, 512);
/// assert!(spec.class().is_interactive());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    prompt_tokens: u32,
    decode_tokens: u32,
    class: QosClass,
    tier: TierId,
    priority: Priority,
    arrival: SimTime,
    app_id: u32,
}

impl Request {
    /// An interactive request (defaults: Table 3's Q1 SLOs — 6 s TTFT,
    /// 50 ms TBT).
    pub fn interactive(prompt_tokens: u32, decode_tokens: u32) -> Self {
        Request {
            prompt_tokens,
            decode_tokens,
            class: QosClass::interactive_secs_ms(6.0, 50.0),
            tier: TierId::Q1,
            priority: Priority::Important,
            arrival: SimTime::ZERO,
            app_id: 1,
        }
    }

    /// A non-interactive batch request (default: 600 s TTLT, tier Q2).
    pub fn batch(prompt_tokens: u32, decode_tokens: u32) -> Self {
        Request {
            prompt_tokens,
            decode_tokens,
            class: QosClass::non_interactive_secs(600.0),
            tier: TierId::Q2,
            priority: Priority::Important,
            arrival: SimTime::ZERO,
            app_id: 2,
        }
    }

    /// Sets the TTFT target (interactive requests only — converts the
    /// class if needed, keeping the current TBT or the 50 ms default).
    pub fn ttft_secs(mut self, secs: f64) -> Self {
        let tbt = self
            .class
            .tbt()
            .unwrap_or(qoserve_sim::SimDuration::from_millis(50));
        self.class = QosClass::Interactive {
            ttft: qoserve_sim::SimDuration::from_secs_f64(secs),
            tbt,
        };
        self
    }

    /// Sets the TBT target (interactive requests only).
    pub fn tbt_ms(mut self, ms: f64) -> Self {
        let ttft = self
            .class
            .ttft()
            .unwrap_or(qoserve_sim::SimDuration::from_secs(6));
        self.class = QosClass::Interactive {
            ttft,
            tbt: qoserve_sim::SimDuration::from_millis_f64(ms),
        };
        self
    }

    /// Sets the TTLT target and makes the request non-interactive.
    pub fn ttlt_secs(mut self, secs: f64) -> Self {
        self.class = QosClass::non_interactive_secs(secs);
        self
    }

    /// Assigns the request to a tier id (used in reports).
    pub fn tier(mut self, tier: TierId) -> Self {
        self.tier = tier;
        self
    }

    /// Marks the request as low priority (preferentially relegated under
    /// overload).
    pub fn priority_low(mut self) -> Self {
        self.priority = Priority::Low;
        self
    }

    /// Sets the arrival time.
    pub fn arriving_at_secs(mut self, secs: f64) -> Self {
        self.arrival = SimTime::from_secs_f64(secs);
        self
    }

    /// Sets the application id feeding the decode-length history.
    pub fn app(mut self, app_id: u32) -> Self {
        self.app_id = app_id;
        self
    }

    /// Finalises into a [`RequestSpec`] with the given id.
    pub fn into_spec(self, id: RequestId) -> RequestSpec {
        RequestSpec {
            id,
            arrival: self.arrival,
            prompt_tokens: self.prompt_tokens,
            decode_tokens: self.decode_tokens,
            slo: Slo {
                tier: QosTier::new(self.tier, self.class),
                priority: self.priority,
            },
            app_id: self.app_id,
        }
    }
}

/// Result of a [`QoServe::run`]: per-request outcomes plus the SLO
/// summary.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// One outcome per submitted request, ordered by submission.
    pub outcomes: Vec<RequestOutcome>,
    /// Violation/latency breakdown over the outcomes.
    pub slo: SloReport,
}

/// Builder for [`QoServe`].
#[derive(Debug, Clone)]
pub struct QoServeBuilder {
    hardware: HardwareConfig,
    scheduler: SchedulerSpec,
    replicas: u32,
    seed: u64,
    noise_sigma: f64,
}

impl QoServeBuilder {
    /// Sets the deterministic seed (default 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the scheduler (default: QoServe with paper settings).
    pub fn scheduler(mut self, scheduler: SchedulerSpec) -> Self {
        self.scheduler = scheduler;
        self
    }

    /// Sets the replica count (default 1).
    pub fn replicas(mut self, replicas: u32) -> Self {
        assert!(replicas > 0, "at least one replica is required");
        self.replicas = replicas;
        self
    }

    /// Sets execution-noise sigma (default 0.02).
    pub fn noise_sigma(mut self, sigma: f64) -> Self {
        self.noise_sigma = sigma.max(0.0);
        self
    }

    /// Builds the server.
    pub fn build(self) -> QoServe {
        QoServe {
            hardware: self.hardware,
            scheduler: self.scheduler,
            replicas: self.replicas,
            seed: self.seed,
            noise_sigma: self.noise_sigma,
            pending: Vec::new(),
            next_id: 0,
        }
    }
}

/// A QoS-aware serving instance (one or more replicas behind a
/// round-robin router).
#[derive(Debug, Clone)]
pub struct QoServe {
    hardware: HardwareConfig,
    scheduler: SchedulerSpec,
    replicas: u32,
    seed: u64,
    noise_sigma: f64,
    pending: Vec<RequestSpec>,
    next_id: u64,
}

impl QoServe {
    /// Starts building a server over `hardware`.
    pub fn builder(hardware: HardwareConfig) -> QoServeBuilder {
        QoServeBuilder {
            hardware,
            scheduler: SchedulerSpec::qoserve(),
            replicas: 1,
            seed: 0,
            noise_sigma: 0.02,
        }
    }

    /// Submits a request; returns its assigned id.
    pub fn submit(&mut self, request: Request) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.pending.push(request.into_spec(id));
        id
    }

    /// Number of submitted-but-not-yet-run requests.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Runs everything submitted so far to completion and clears the
    /// queue. Deterministic for a given builder seed.
    pub fn run(&mut self) -> RunReport {
        let specs = std::mem::take(&mut self.pending);
        let trace = Trace::from_requests("submitted", specs);
        let mut config = ClusterConfig::new(self.hardware.clone());
        config.noise_sigma = self.noise_sigma;
        let outcomes = run_shared(
            &trace,
            self.replicas,
            &self.scheduler,
            &config,
            &SeedStream::new(self.seed),
        );
        let slo = SloReport::compute(&outcomes, trace.long_prompt_threshold());
        RunReport { outcomes, slo }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quickstart_flow() {
        let mut server = QoServe::builder(HardwareConfig::llama3_8b_a100_tp1())
            .seed(1)
            .build();
        let chat = server.submit(Request::interactive(1_024, 50).arriving_at_secs(0.1));
        let batch = server.submit(Request::batch(4_096, 100).arriving_at_secs(0.2));
        assert_eq!(server.pending(), 2);
        let report = server.run();
        assert_eq!(server.pending(), 0);
        assert_eq!(report.outcomes.len(), 2);
        assert_eq!(report.outcomes[0].spec.id, chat);
        assert_eq!(report.outcomes[1].spec.id, batch);
        assert_eq!(report.slo.violations, 0);
    }

    #[test]
    fn request_builder_composes() {
        let spec = Request::interactive(100, 10)
            .ttft_secs(2.0)
            .tbt_ms(20.0)
            .tier(TierId(5))
            .priority_low()
            .app(9)
            .arriving_at_secs(3.0)
            .into_spec(RequestId(1));
        assert_eq!(
            spec.class().ttft(),
            Some(qoserve_sim::SimDuration::from_secs(2))
        );
        assert_eq!(
            spec.class().tbt(),
            Some(qoserve_sim::SimDuration::from_millis(20))
        );
        assert_eq!(spec.tier(), TierId(5));
        assert_eq!(spec.priority(), Priority::Low);
        assert_eq!(spec.app_id, 9);
        assert_eq!(spec.arrival, SimTime::from_secs(3));
    }

    #[test]
    fn ttlt_converts_class() {
        let spec = Request::interactive(100, 10)
            .ttlt_secs(900.0)
            .into_spec(RequestId(0));
        assert!(!spec.class().is_interactive());
        assert_eq!(
            spec.class().ttlt(),
            Some(qoserve_sim::SimDuration::from_secs(900))
        );
    }

    #[test]
    fn ttft_on_batch_converts_to_interactive() {
        let spec = Request::batch(100, 10)
            .ttft_secs(1.0)
            .into_spec(RequestId(0));
        assert!(spec.class().is_interactive());
        assert_eq!(
            spec.class().tbt(),
            Some(qoserve_sim::SimDuration::from_millis(50))
        );
    }

    #[test]
    fn runs_are_seed_deterministic() {
        let run_once = |seed: u64| {
            let mut s = QoServe::builder(HardwareConfig::llama3_8b_a100_tp1())
                .seed(seed)
                .build();
            for i in 0..10 {
                s.submit(Request::interactive(500, 20).arriving_at_secs(i as f64 * 0.3));
            }
            s.run().outcomes
        };
        assert_eq!(run_once(3), run_once(3));
    }

    #[test]
    fn multi_replica_round_robin() {
        let mut s = QoServe::builder(HardwareConfig::llama3_8b_a100_tp1())
            .replicas(2)
            .build();
        for i in 0..6 {
            s.submit(Request::interactive(500, 5).arriving_at_secs(i as f64 * 0.1));
        }
        let report = s.run();
        let replicas: std::collections::BTreeSet<u32> =
            report.outcomes.iter().map(|o| o.replica).collect();
        assert_eq!(replicas.len(), 2);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = QoServe::builder(HardwareConfig::llama3_8b_a100_tp1()).replicas(0);
    }
}
