//! Request routing across replicas.
//!
//! The paper's cluster experiments use round-robin load balancing across
//! replicas (§4.1.1); that is the one policy here.

use std::fmt;

use qoserve_workload::RequestSpec;

/// Routing failure: the deployment has no replica to route to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterError {
    /// Zero replicas were offered (misconfiguration, or every replica of
    /// a fault-injected cluster is down).
    NoReplicas,
}

impl fmt::Display for RouterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouterError::NoReplicas => write!(f, "at least one replica is required"),
        }
    }
}

impl std::error::Error for RouterError {}

/// Routing policy across the replicas of one deployment group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Router {
    /// Strict rotation, as in the paper's experiments.
    RoundRobin,
}

impl Router {
    /// Assigns each request of `requests` (in order) to one of
    /// `replicas` targets; returns the per-request replica index, or
    /// [`RouterError::NoReplicas`] when there is nothing to route to.
    pub fn try_assign(
        &self,
        requests: &[RequestSpec],
        replicas: usize,
    ) -> Result<Vec<usize>, RouterError> {
        if replicas == 0 {
            return Err(RouterError::NoReplicas);
        }
        Ok(match self {
            Router::RoundRobin => (0..requests.len()).map(|i| i % replicas).collect(),
        })
    }

    /// Assigns each request of `requests` (in order) to one of
    /// `replicas` targets; returns the per-request replica index.
    ///
    /// # Panics
    ///
    /// Panics when `replicas == 0`; use [`try_assign`](Self::try_assign)
    /// to handle that case as a value.
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics` wrapper over try_assign"
    )]
    pub fn assign(&self, requests: &[RequestSpec], replicas: usize) -> Vec<usize> {
        self.try_assign(requests, replicas)
            .expect("at least one replica is required")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_sim::SimTime;
    use qoserve_workload::{QosTier, RequestId, Slo};

    fn spec(id: u64, prompt: u32) -> RequestSpec {
        RequestSpec {
            id: RequestId(id),
            arrival: SimTime::from_secs(id),
            prompt_tokens: prompt,
            decode_tokens: 10,
            slo: Slo::of_tier(QosTier::paper_q1()),
            app_id: 0,
        }
    }

    #[test]
    fn round_robin_rotates() {
        let reqs: Vec<RequestSpec> = (0..7).map(|i| spec(i, 100)).collect();
        let targets = Router::RoundRobin.assign(&reqs, 3);
        assert_eq!(targets, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn single_replica_takes_everything() {
        let reqs: Vec<RequestSpec> = (0..5).map(|i| spec(i, 10)).collect();
        assert!(Router::RoundRobin.assign(&reqs, 1).iter().all(|t| *t == 0));
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_replicas_rejected() {
        let _ = Router::RoundRobin.assign(&[], 0);
    }

    #[test]
    fn try_assign_surfaces_zero_replicas_as_error() {
        let reqs = vec![spec(0, 10)];
        let r = Router::RoundRobin;
        assert_eq!(r.try_assign(&reqs, 0), Err(RouterError::NoReplicas));
        assert!(r.try_assign(&reqs, 1).is_ok());
        assert_eq!(
            RouterError::NoReplicas.to_string(),
            "at least one replica is required"
        );
    }

    #[test]
    fn try_assign_matches_assign() {
        let reqs: Vec<RequestSpec> = (0..9).map(|i| spec(i, 100 * (i as u32 + 1))).collect();
        let r = Router::RoundRobin;
        assert_eq!(r.try_assign(&reqs, 3).unwrap(), r.assign(&reqs, 3));
    }
}
