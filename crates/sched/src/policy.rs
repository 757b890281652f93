//! Classical prefill-ordering policies (§2.4).
//!
//! These are the literature baselines the paper analyses in Figure 2 and
//! benchmarks against in §4: FCFS, SJF, SRPF, and EDF. Each is expressed
//! as a priority key over [`PrefillJob`]s — smaller keys schedule first —
//! so they all plug into the same [`JobQueue`](crate::JobQueue).

use qoserve_sim::nums;

use crate::job::PrefillJob;

/// A classical ordering policy for the prefill queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OrderPolicy {
    /// First-come-first-served: order by arrival time.
    Fcfs,
    /// Shortest job first: order by total prompt length (the dominant,
    /// known component of a request's execution time).
    Sjf,
    /// Shortest remaining prompt first: order by outstanding prefill
    /// tokens, re-evaluated as chunks complete.
    Srpf,
    /// Earliest deadline first: order by the request's urgency deadline
    /// (TTFT for interactive, TTLT for non-interactive).
    Edf,
}

impl OrderPolicy {
    /// The priority key for `job` (smaller = sooner).
    pub fn key(&self, job: &PrefillJob) -> i64 {
        match self {
            OrderPolicy::Fcfs => nums::u64_clamp_i64(job.spec.arrival.as_micros()),
            OrderPolicy::Sjf => job.spec.prompt_tokens as i64,
            OrderPolicy::Srpf => job.remaining_tokens() as i64,
            OrderPolicy::Edf => nums::u64_clamp_i64(job.urgency_deadline().as_micros()),
        }
    }

    /// Display name used in scheme labels.
    pub fn label(&self) -> &'static str {
        match self {
            OrderPolicy::Fcfs => "FCFS",
            OrderPolicy::Sjf => "SJF",
            OrderPolicy::Srpf => "SRPF",
            OrderPolicy::Edf => "EDF",
        }
    }

    /// All four policies, in the paper's Figure 2 order.
    pub fn all() -> [OrderPolicy; 4] {
        [
            OrderPolicy::Fcfs,
            OrderPolicy::Sjf,
            OrderPolicy::Srpf,
            OrderPolicy::Edf,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_sim::SimTime;
    use qoserve_workload::{QosTier, RequestId, RequestSpec, Slo};

    fn job(id: u64, arrival_secs: u64, prompt: u32, done: u32, tier: QosTier) -> PrefillJob {
        let mut j = PrefillJob::new(RequestSpec {
            id: RequestId(id),
            arrival: SimTime::from_secs(arrival_secs),
            prompt_tokens: prompt,
            decode_tokens: 10,
            slo: Slo::of_tier(tier),
            app_id: 0,
        });
        j.prefill_done = done;
        j
    }

    #[test]
    fn fcfs_orders_by_arrival() {
        let early = job(1, 5, 9_000, 0, QosTier::paper_q1());
        let late = job(2, 6, 10, 0, QosTier::paper_q1());
        assert!(OrderPolicy::Fcfs.key(&early) < OrderPolicy::Fcfs.key(&late));
    }

    #[test]
    fn sjf_orders_by_total_prompt() {
        let long = job(1, 5, 9_000, 8_999, QosTier::paper_q1()); // almost done
        let short = job(2, 6, 10, 0, QosTier::paper_q1());
        // SJF ignores progress — still prefers the short total job.
        assert!(OrderPolicy::Sjf.key(&short) < OrderPolicy::Sjf.key(&long));
        // SRPF accounts for progress — the nearly-done job wins.
        assert!(OrderPolicy::Srpf.key(&long) < OrderPolicy::Srpf.key(&short));
    }

    #[test]
    fn edf_orders_by_deadline_across_classes() {
        // Q1 arrives later but has a 6s TTFT; Q3 arrived first with a 30min
        // TTLT deadline. EDF must prefer the interactive request.
        let batch = job(1, 0, 100, 0, QosTier::paper_q3()); // deadline 1800s
        let chat = job(2, 100, 100, 0, QosTier::paper_q1()); // deadline 106s
        assert!(OrderPolicy::Edf.key(&chat) < OrderPolicy::Edf.key(&batch));
    }

    #[test]
    fn labels() {
        assert_eq!(OrderPolicy::Fcfs.label(), "FCFS");
        assert_eq!(OrderPolicy::all().len(), 4);
    }
}
