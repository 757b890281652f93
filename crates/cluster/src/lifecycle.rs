//! Replica lifecycle: the phases of a cluster-kernel slot, provisioning
//! delays, warm-up, graceful drain, and deterministic scale schedules.
//!
//! Every slot of the cluster kernel is in one lifecycle phase (`Phase`):
//!
//! ```text
//!        Add                                            Drain
//! Idle ───────▶ Provisioning ───▶ Warming ───▶ Serving ───────▶ Draining
//!  ▲            (capacity         (model       (takes           (admission stopped;
//!  │             allocated)        loading)     work)            decodes finish to
//!  │                                              │              a deadline)
//!  │                        crash with no restart │                  │
//!  │                                              ▼                  │
//!  │                                             Lost                │
//!  └────────────────── at the deadline, or at a crash ──────────────┘
//! ```
//!
//! * A scale-up decision takes the lowest Idle slot, allocates capacity,
//!   then waits [`LifecycleConfig::provision_delay`] before the model
//!   starts loading, and a further [`LifecycleConfig::warmup`] before the
//!   replica accepts any work. Warm-up elapsed before serving is the
//!   `warmup_wasted_us` cost the autoscaler pays for every flap.
//! * A scale-down decision picks a victim via [`drain_victim`] — the
//!   serving replica carrying the *least important* outstanding work,
//!   free-tier-heavy replicas first, as the tier-aware shed lets
//!   `Priority::Low` absorb capacity loss — and drains it: admission
//!   stops immediately, queued-but-unarrived work is recalled for
//!   re-routing, running decodes get [`LifecycleConfig::drain_grace`] to
//!   finish, and whatever remains at the deadline is handed to the
//!   orphan re-dispatch path. The slot is then Idle again, and a later
//!   Add may reuse it; a crash while draining retires it early.
//! * A crash with no restart leaves the slot Lost: it holds no capacity,
//!   takes no work, and an Add never reuses it.
//!
//! Whether a replica is up is not a phase: its slot's crash timeline
//! answers that. A Serving slot whose crash has a restart stays Serving:
//! a fresh, empty engine generation replaces the crashed one, and orphans
//! skip the slot until the restart instant. Slowdown windows degrade a
//! serving replica without changing its phase.
//!
//! # Determinism rule for scale events
//!
//! Scale events only take effect at *control instants* (scheduled event
//! times, autoscaler ticks, warm-up completions, drain deadlines) that
//! every replica has simulated up to. The elastic runner never acts on a
//! scale decision while any replica's clock is behind it, so lifecycle
//! transitions — like fault injection before them — are a pure function
//! of the seed and the schedule, independent of thread interleaving.

use std::cmp::Reverse;

use qoserve_sim::rng::exponential_gap_secs;
use qoserve_sim::{SeedStream, SimDuration, SimTime};

/// Timing constants of the replica lifecycle.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LifecycleConfig {
    /// Capacity-allocation delay before model load starts (Provisioning).
    pub provision_delay: SimDuration,
    /// Model-load / cache-warm time before the replica accepts work
    /// (Warming).
    pub warmup: SimDuration,
    /// Grace period a draining replica gets to finish running decodes
    /// before unfinished work is orphaned and re-dispatched.
    pub drain_grace: SimDuration,
}

impl Default for LifecycleConfig {
    fn default() -> Self {
        LifecycleConfig {
            provision_delay: SimDuration::from_secs(10),
            warmup: SimDuration::from_secs(20),
            drain_grace: SimDuration::from_secs(30),
        }
    }
}

/// One externally scheduled membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleAction {
    /// Provision one new replica (no-op when no slot is free).
    Add,
    /// Gracefully drain one serving replica (no-op when only one replica
    /// is serving — scheduled churn never empties the fleet).
    Drain,
}

/// A scale action pinned to a simulated instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleEvent {
    /// When the action fires.
    pub at: SimTime,
    /// What happens.
    pub action: ScaleAction,
}

/// Seed-derived scale-churn process for the chaos harness.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleChurnConfig {
    /// Mean scale events per simulated hour (Poisson arrivals).
    pub events_per_hour: f64,
    /// Hard cap on generated events.
    pub max_events: usize,
}

impl Default for ScaleChurnConfig {
    fn default() -> Self {
        ScaleChurnConfig {
            events_per_hour: 6.0,
            max_events: 64,
        }
    }
}

/// Draws a deterministic schedule of Add/Drain events over `horizon`.
///
/// Event times are a Poisson process and the Add-vs-Drain coin is a
/// fixed function of the same per-label stream, so — like a replica's
/// fault timeline ([`FaultConfig::draw`](qoserve_sim::FaultConfig::draw))
/// — the schedule is a pure function of the seed and config.
pub fn generate_scale_schedule(
    config: &ScaleChurnConfig,
    horizon: SimDuration,
    seeds: &SeedStream,
) -> Vec<ScaleEvent> {
    let mut events = Vec::new();
    if config.events_per_hour <= 0.0 || config.max_events == 0 {
        return events;
    }
    let rate_per_sec = config.events_per_hour / 3_600.0;
    let horizon_secs = horizon.as_secs_f64();
    let mut rng = seeds.derive("scale-churn");
    let mut t = 0.0;
    for _ in 0..config.max_events {
        t += exponential_gap_secs(&mut rng, rate_per_sec);
        if t >= horizon_secs {
            break;
        }
        // A fair deterministic coin: an Exp(1) draw is below its median
        // ln 2 with probability 1/2.
        let action = if exponential_gap_secs(&mut rng, 1.0) < std::f64::consts::LN_2 {
            ScaleAction::Add
        } else {
            ScaleAction::Drain
        };
        events.push(ScaleEvent {
            at: SimTime::from_secs_f64(t),
            action,
        });
    }
    events
}

/// The full elastic plan the runner executes: lifecycle timing, the slot
/// ceiling, an optional external scale schedule (chaos), and an optional
/// feedback autoscaler.
#[derive(Debug, Clone, Default)]
pub struct ElasticPlan {
    /// Lifecycle timing constants.
    pub lifecycle: LifecycleConfig,
    /// Slot ceiling: the fleet may grow to this many replicas. Raised to
    /// the initial fleet size when smaller. An Add takes only a slot that
    /// never served or was retired by a drain: a slot lost to a crash with
    /// no restart is never reused, so each permanent loss lowers the
    /// ceiling for the rest of the run.
    pub max_replicas: u32,
    /// Externally scheduled membership changes, in any order (the runner
    /// sorts them).
    pub schedule: Vec<ScaleEvent>,
    /// Feedback autoscaler; `None` runs only the external schedule.
    pub autoscale: Option<crate::autoscale::AutoscaleConfig>,
}

impl ElasticPlan {
    /// A plan with no scale events and no autoscaler — the elastic
    /// runner degenerates to the static fault path.
    pub fn none() -> Self {
        ElasticPlan::default()
    }
}

/// Where one kernel slot is in the replica lifecycle (see the module
/// docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Unprovisioned slot (or retired replica); holds no capacity.
    Idle,
    /// Capacity allocated at `decided_at`; model load starts at
    /// `warm_at`, serving starts at `up_at`.
    Provisioning {
        warm_at: SimTime,
        up_at: SimTime,
        decided_at: SimTime,
    },
    /// Model loading; serving starts at `up_at`.
    Warming { up_at: SimTime, decided_at: SimTime },
    /// Serving traffic (possibly crashed-and-restarting under faults).
    Serving,
    /// Admission stopped; running work finishes until `deadline`.
    Draining { deadline: SimTime },
    /// Crashed with no restart: holds no capacity, takes no work, and an
    /// Add never reuses it.
    Lost,
}

/// Outstanding-work summary of one serving replica, used to pick the
/// scale-down victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainCandidate {
    /// Replica id.
    pub replica: u32,
    /// Outstanding requests of important (non-low) priority.
    pub outstanding_important: u64,
    /// Outstanding low-priority (free-tier) requests.
    pub outstanding_low: u64,
}

/// Picks which serving replica to drain: the one carrying the fewest
/// important requests; among ties, the one carrying the *most* free-tier
/// work (so free-tier-serving replicas drain first, mirroring the PR 3
/// shed ordering where `Priority::Low` absorbs capacity loss); final
/// ties break on the lowest replica id for determinism.
pub fn drain_victim(candidates: &[DrainCandidate]) -> Option<u32> {
    candidates
        .iter()
        .min_by_key(|c| {
            (
                c.outstanding_important,
                Reverse(c.outstanding_low),
                c.replica,
            )
        })
        .map(|c| c.replica)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(replica: u32, important: u64, low: u64) -> DrainCandidate {
        DrainCandidate {
            replica,
            outstanding_important: important,
            outstanding_low: low,
        }
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let config = ScaleChurnConfig::default();
        let horizon = SimDuration::from_secs(7_200);
        let a = generate_scale_schedule(&config, horizon, &SeedStream::new(7));
        let b = generate_scale_schedule(&config, horizon, &SeedStream::new(7));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "6/h over 2h should draw events");
        assert!(a.len() <= config.max_events);
        assert!(a.windows(2).all(|w| w[0].at <= w[1].at), "sorted by time");
        assert!(a.iter().all(|e| e.at < SimTime::ZERO + horizon));
        let c = generate_scale_schedule(&config, horizon, &SeedStream::new(8));
        assert_ne!(a, c, "different seeds draw different schedules");
    }

    #[test]
    fn schedule_mixes_both_actions() {
        let config = ScaleChurnConfig {
            events_per_hour: 60.0,
            max_events: 64,
        };
        let events =
            generate_scale_schedule(&config, SimDuration::from_secs(7_200), &SeedStream::new(3));
        assert!(events.iter().any(|e| e.action == ScaleAction::Add));
        assert!(events.iter().any(|e| e.action == ScaleAction::Drain));
    }

    #[test]
    fn zero_rate_draws_nothing() {
        let config = ScaleChurnConfig {
            events_per_hour: 0.0,
            max_events: 64,
        };
        assert!(generate_scale_schedule(
            &config,
            SimDuration::from_secs(3_600),
            &SeedStream::new(1)
        )
        .is_empty());
    }

    #[test]
    fn drain_victim_sheds_free_tier_work_first() {
        // Fewest important requests wins outright.
        assert_eq!(
            drain_victim(&[cand(0, 5, 0), cand(1, 2, 0), cand(2, 9, 0)]),
            Some(1)
        );
        // Ties on important break toward the replica with MORE low-
        // priority work: free-tier-serving replicas drain first.
        assert_eq!(
            drain_victim(&[cand(0, 2, 1), cand(1, 2, 7), cand(2, 2, 3)]),
            Some(1)
        );
        // Full ties break on the lowest id.
        assert_eq!(drain_victim(&[cand(2, 1, 1), cand(1, 1, 1)]), Some(1));
        assert_eq!(drain_victim(&[]), None);
    }

    mod properties {
        use super::*;
        use qoserve_sim::{forall, Rng};

        /// The drain victim always has the minimum important count, and
        /// among those, the maximum low-priority count — the tier-aware
        /// shed ordering (low-priority work absorbs capacity loss).
        #[test]
        fn victim_matches_shed_ordering() {
            forall(128, 1, |rng| {
                let n = rng.gen_range(1..8u32);
                let candidates: Vec<DrainCandidate> = (0..n)
                    .map(|i| cand(i, rng.gen_range(0..5), rng.gen_range(0..5)))
                    .collect();
                let victim = drain_victim(&candidates).expect("non-empty");
                let v = candidates.iter().find(|c| c.replica == victim).unwrap();
                let min_imp = candidates
                    .iter()
                    .map(|c| c.outstanding_important)
                    .min()
                    .unwrap();
                assert_eq!(v.outstanding_important, min_imp);
                let max_low = candidates
                    .iter()
                    .filter(|c| c.outstanding_important == min_imp)
                    .map(|c| c.outstanding_low)
                    .max()
                    .unwrap();
                assert_eq!(v.outstanding_low, max_low);
            });
        }
    }
}
