//! Trace assembly: dataset × arrivals × tier mix → a reproducible workload.
//!
//! The paper "divides the dataset into three equal parts, and assigns each
//! part a different application type and the corresponding QoS bucket and
//! SLO" (§4), with skewed 70-15-15 / 15-15-70 variants in §4.4.2 and a 20 %
//! low-priority tagging in the transient-overload study (§4.3).

use qoserve_sim::Rng;

use qoserve_sim::{SeedStream, SimDuration, SimTime};

use crate::arrivals::ArrivalProcess;
use crate::dataset::Dataset;
use crate::qos::{Priority, QosTier, Slo, TierId};
use crate::request::{RequestId, RequestSpec};

/// A weighted mixture of QoS tiers.
#[derive(Debug, Clone, PartialEq)]
pub struct TierMix {
    entries: Vec<(QosTier, f64)>,
}

impl TierMix {
    /// Builds a mix from `(tier, weight)` pairs. Weights are relative and
    /// need not sum to one.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or any weight is negative / all weights
    /// are zero.
    pub fn new(entries: Vec<(QosTier, f64)>) -> Self {
        assert!(!entries.is_empty(), "tier mix must not be empty");
        assert!(
            entries.iter().all(|(_, w)| *w >= 0.0),
            "tier weights must be non-negative"
        );
        assert!(
            entries.iter().map(|(_, w)| w).sum::<f64>() > 0.0,
            "at least one tier weight must be positive"
        );
        TierMix { entries }
    }

    /// The paper's default: Table 3 tiers at 33.3 % each.
    pub fn paper_equal() -> Self {
        let [q1, q2, q3] = QosTier::paper_tiers();
        TierMix::new(vec![(q1, 1.0), (q2, 1.0), (q3, 1.0)])
    }

    /// §4.4.2's interactive-dominant split (70-15-15 over Q1/Q2/Q3).
    pub fn paper_interactive_dominant() -> Self {
        let [q1, q2, q3] = QosTier::paper_tiers();
        TierMix::new(vec![(q1, 0.70), (q2, 0.15), (q3, 0.15)])
    }

    /// §4.4.2's batch-dominant split (15-15-70 over Q1/Q2/Q3).
    pub fn paper_batch_dominant() -> Self {
        let [q1, q2, q3] = QosTier::paper_tiers();
        TierMix::new(vec![(q1, 0.15), (q2, 0.15), (q3, 0.70)])
    }

    /// A single-tier mix.
    pub fn single(tier: QosTier) -> Self {
        TierMix::new(vec![(tier, 1.0)])
    }

    /// The tiers in this mix.
    pub fn tiers(&self) -> impl Iterator<Item = &QosTier> {
        self.entries.iter().map(|(t, _)| t)
    }

    /// Draws a tier according to the weights. A draw past every earlier
    /// weight, float rounding included, is the last tier's (`new` asserts
    /// the mix is non-empty).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> QosTier {
        let total: f64 = self.entries.iter().map(|(_, w)| w).sum();
        let mut x = rng.gen_range(0.0..total);
        let last = self.entries.len() - 1;
        for (tier, w) in &self.entries[..last] {
            if x < *w {
                return *tier;
            }
            x -= w;
        }
        self.entries[last].0
    }
}

/// How many requests a trace should contain.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Extent {
    Count(usize),
    Duration(SimDuration),
}

/// Builder for [`Trace`].
///
/// # Example
///
/// ```
/// use qoserve_sim::SeedStream;
/// use qoserve_workload::{ArrivalProcess, Dataset, TraceBuilder};
///
/// let trace = TraceBuilder::new(Dataset::azure_conv())
///     .arrivals(ArrivalProcess::poisson(2.0))
///     .num_requests(50)
///     .paper_tier_mix()
///     .low_priority_fraction(0.2)
///     .build(&SeedStream::new(1));
/// assert_eq!(trace.len(), 50);
/// ```
#[derive(Debug, Clone)]
pub struct TraceBuilder {
    dataset: Dataset,
    arrivals: ArrivalProcess,
    extent: Extent,
    mix: TierMix,
    low_priority_fraction: f64,
}

impl TraceBuilder {
    /// Starts a builder over `dataset` with defaults: 1 QPS Poisson, 1000
    /// requests, the paper's equal tier mix, no low-priority tagging.
    pub fn new(dataset: Dataset) -> Self {
        TraceBuilder {
            dataset,
            arrivals: ArrivalProcess::poisson(1.0),
            extent: Extent::Count(1_000),
            mix: TierMix::paper_equal(),
            low_priority_fraction: 0.0,
        }
    }

    /// Sets the arrival process.
    pub fn arrivals(mut self, arrivals: ArrivalProcess) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Sizes the trace by request count.
    pub fn num_requests(mut self, count: usize) -> Self {
        self.extent = Extent::Count(count);
        self
    }

    /// Sizes the trace by wall-clock duration of the arrival window.
    pub fn duration(mut self, duration: SimDuration) -> Self {
        self.extent = Extent::Duration(duration);
        self
    }

    /// Uses the paper's equal three-tier mix (Table 3).
    pub fn paper_tier_mix(mut self) -> Self {
        self.mix = TierMix::paper_equal();
        self
    }

    /// Sets a custom tier mix.
    pub fn tier_mix(mut self, mix: TierMix) -> Self {
        self.mix = mix;
        self
    }

    /// Marks a random `fraction` of requests in *each* tier as
    /// [`Priority::Low`] (the paper's §4.3 uses 0.2).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn low_priority_fraction(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0,1]");
        self.low_priority_fraction = fraction;
        self
    }

    /// Generates the trace. Same seeds → identical trace.
    pub fn build(&self, seeds: &SeedStream) -> Trace {
        let mut arrival_rng = seeds.derive("trace-arrivals");
        let times = match self.extent {
            Extent::Count(n) => self.arrivals.generate_count(n, &mut arrival_rng),
            Extent::Duration(d) => self.arrivals.generate_for(d, &mut arrival_rng),
        };

        let mut length_rng = seeds.derive("trace-lengths");
        let mut tier_rng = seeds.derive("trace-tiers");
        let mut priority_rng = seeds.derive("trace-priority");

        let requests = times
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                let (prompt_tokens, decode_tokens) = self.dataset.sample_lengths(&mut length_rng);
                let tier = self.mix.sample(&mut tier_rng);
                let priority = if priority_rng.gen_bool(self.low_priority_fraction) {
                    Priority::Low
                } else {
                    Priority::Important
                };
                RequestSpec {
                    id: RequestId(i as u64),
                    arrival,
                    prompt_tokens,
                    decode_tokens,
                    slo: Slo::of_tier(tier).with_priority(priority),
                    app_id: tier.id.0 as u32,
                }
            })
            .collect();

        Trace {
            dataset_name: self.dataset.name.clone(),
            requests,
        }
    }
}

/// A generated workload: requests sorted by arrival time.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Name of the source dataset.
    pub dataset_name: String,
    requests: Vec<RequestSpec>,
}

impl Trace {
    /// Builds a trace directly from request specs (sorted by arrival).
    pub fn from_requests(dataset_name: &str, mut requests: Vec<RequestSpec>) -> Self {
        requests.sort_by_key(|r| (r.arrival, r.id));
        Trace {
            dataset_name: dataset_name.to_owned(),
            requests,
        }
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// True when the trace has no requests.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// The requests, in arrival order.
    pub fn requests(&self) -> &[RequestSpec] {
        &self.requests
    }

    /// Iterates over requests in arrival order.
    pub fn iter(&self) -> std::slice::Iter<'_, RequestSpec> {
        self.requests.iter()
    }

    /// Arrival time of the last request (`ZERO` when empty).
    pub fn horizon(&self) -> SimTime {
        self.requests.last().map_or(SimTime::ZERO, |r| r.arrival)
    }

    /// Requests belonging to `tier`.
    pub fn tier_requests(&self, tier: TierId) -> impl Iterator<Item = &RequestSpec> {
        self.requests.iter().filter(move |r| r.tier() == tier)
    }

    /// The 90th-percentile prompt length of this trace — the paper's
    /// threshold for classifying a request as "long" (Fig. 11).
    pub fn long_prompt_threshold(&self) -> u32 {
        if self.requests.is_empty() {
            return u32::MAX;
        }
        let mut prompts: Vec<u32> = self.requests.iter().map(|r| r.prompt_tokens).collect();
        prompts.sort_unstable();
        prompts[((prompts.len() as f64 - 1.0) * 0.9).round() as usize]
    }

    /// Observed mean arrival rate over the trace window, requests/second.
    pub fn observed_qps(&self) -> f64 {
        if self.requests.len() < 2 {
            return 0.0;
        }
        self.requests.len() as f64 / self.horizon().as_secs_f64().max(1e-9)
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a RequestSpec;
    type IntoIter = std::slice::Iter<'a, RequestSpec>;

    fn into_iter(self) -> Self::IntoIter {
        self.requests.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_trace(seed: u64) -> Trace {
        TraceBuilder::new(Dataset::azure_code())
            .arrivals(ArrivalProcess::poisson(4.0))
            .num_requests(3_000)
            .paper_tier_mix()
            .build(&SeedStream::new(seed))
    }

    #[test]
    fn builds_requested_count_in_arrival_order() {
        let t = small_trace(1);
        assert_eq!(t.len(), 3_000);
        for w in t.requests().windows(2) {
            assert!(w[1].arrival > w[0].arrival);
        }
        // IDs are assigned in arrival order.
        assert_eq!(t.requests()[0].id, RequestId(0));
    }

    #[test]
    fn equal_mix_splits_into_thirds() {
        let t = small_trace(2);
        for tier in [TierId::Q1, TierId::Q2, TierId::Q3] {
            let frac = t.tier_requests(tier).count() as f64 / t.len() as f64;
            assert!(
                (frac - 1.0 / 3.0).abs() < 0.03,
                "tier {tier} fraction was {frac}"
            );
        }
    }

    #[test]
    fn skewed_mix_is_respected() {
        let t = TraceBuilder::new(Dataset::azure_code())
            .num_requests(3_000)
            .tier_mix(TierMix::paper_interactive_dominant())
            .build(&SeedStream::new(3));
        let q1 = t.tier_requests(TierId::Q1).count() as f64 / t.len() as f64;
        assert!((q1 - 0.70).abs() < 0.03, "Q1 fraction was {q1}");
    }

    #[test]
    fn low_priority_fraction_is_respected_per_tier() {
        let t = TraceBuilder::new(Dataset::azure_conv())
            .num_requests(4_000)
            .low_priority_fraction(0.2)
            .build(&SeedStream::new(4));
        for tier in [TierId::Q1, TierId::Q2, TierId::Q3] {
            let reqs: Vec<_> = t.tier_requests(tier).collect();
            let low = reqs
                .iter()
                .filter(|r| r.priority() == Priority::Low)
                .count() as f64
                / reqs.len() as f64;
            assert!((low - 0.2).abs() < 0.05, "tier {tier} low fraction {low}");
        }
    }

    #[test]
    fn build_is_deterministic() {
        assert_eq!(small_trace(7), small_trace(7));
        assert_ne!(small_trace(7), small_trace(8));
    }

    #[test]
    fn app_id_follows_tier() {
        let t = small_trace(5);
        for r in &t {
            assert_eq!(r.app_id, r.tier().0 as u32);
        }
    }

    #[test]
    fn long_prompt_threshold_is_p90() {
        let t = small_trace(6);
        let threshold = t.long_prompt_threshold();
        let long = t
            .requests()
            .iter()
            .filter(|r| r.prompt_tokens >= threshold)
            .count() as f64
            / t.len() as f64;
        assert!((long - 0.10).abs() < 0.02, "long fraction was {long}");
    }

    #[test]
    fn observed_qps_near_target() {
        let t = small_trace(9);
        assert!((t.observed_qps() - 4.0).abs() < 0.4, "{}", t.observed_qps());
    }

    #[test]
    fn duration_extent_bounds_arrivals() {
        let t = TraceBuilder::new(Dataset::sharegpt())
            .arrivals(ArrivalProcess::poisson(5.0))
            .duration(SimDuration::from_secs(100))
            .build(&SeedStream::new(10));
        assert!(t.horizon() < SimTime::from_secs(100));
        assert!(t.len() > 300 && t.len() < 700, "got {}", t.len());
    }

    #[test]
    fn from_requests_sorts() {
        let specs = vec![
            RequestSpec {
                id: RequestId(1),
                arrival: SimTime::from_secs(5),
                prompt_tokens: 10,
                decode_tokens: 1,
                slo: Slo::of_tier(QosTier::paper_q1()),
                app_id: 0,
            },
            RequestSpec {
                id: RequestId(0),
                arrival: SimTime::from_secs(1),
                prompt_tokens: 10,
                decode_tokens: 1,
                slo: Slo::of_tier(QosTier::paper_q1()),
                app_id: 0,
            },
        ];
        let t = Trace::from_requests("custom", specs);
        assert_eq!(t.requests()[0].id, RequestId(0));
    }

    #[test]
    #[should_panic(expected = "tier mix must not be empty")]
    fn empty_mix_rejected() {
        let _ = TierMix::new(vec![]);
    }

    #[test]
    fn empty_trace_edge_cases() {
        let t = Trace::from_requests("empty", vec![]);
        assert!(t.is_empty());
        assert_eq!(t.horizon(), SimTime::ZERO);
        assert_eq!(t.observed_qps(), 0.0);
        assert_eq!(t.long_prompt_threshold(), u32::MAX);
    }
}
