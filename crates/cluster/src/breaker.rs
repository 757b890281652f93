//! Per-replica circuit breakers: health-aware dispatch for the recovery
//! loop.
//!
//! A crashed replica is easy — it stops, surfaces orphans, and the
//! recovery loop re-dispatches them. A *straggling-but-alive* replica is
//! worse: it keeps accepting work and keeps missing deadlines. The
//! breaker closes that gap. Each replica's rolling
//! [`HealthSnapshot`] is thresholded into
//! a three-state machine:
//!
//! * **Closed** — healthy; receives re-dispatched work normally.
//! * **Open** — score fell below [`BreakerConfig::open_below_score`];
//!   no new work until [`BreakerConfig::cooldown`] elapses.
//! * **HalfProbe** — cooldown elapsed; the replica may receive work
//!   again (the probe). A recovered score closes the breaker, a still-bad
//!   score re-opens it for another cooldown.
//!
//! Target selection ([`pick_target`]) prefers breaker-allowed replicas
//! but *always* falls back to the full up-set when every breaker is open
//! — a breaker may delay work, never strand it. All transitions are
//! driven by simulated time and deterministic health scores, so breaker
//! decisions replay bit-identically.

use qoserve_engine::{HealthSnapshot, ReplicaState};
use qoserve_sim::nums;
use qoserve_sim::{SimDuration, SimTime};
use qoserve_trace::{BreakerPhase, TraceEvent, Tracer};

/// Breaker thresholds and cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BreakerConfig {
    /// Open when the health score drops below this.
    pub open_below_score: f64,
    /// Close a probing breaker when the score recovers above this
    /// (hysteresis: strictly greater than `open_below_score`).
    pub close_above_score: f64,
    /// Minimum windowed iterations before a snapshot is trusted — a
    /// freshly (re)started replica is never judged on one bad batch.
    pub min_window: usize,
    /// Time an open breaker blocks dispatch before probing again.
    pub cooldown: SimDuration,
}

impl Default for BreakerConfig {
    /// Defaults: open below 0.6 (a ~1.7x sustained straggler), close
    /// above 0.85, judge after 8 iterations, probe every 5 s.
    fn default() -> Self {
        BreakerConfig {
            open_below_score: 0.6,
            close_above_score: 0.85,
            min_window: 8,
            cooldown: SimDuration::from_secs(5),
        }
    }
}

/// Breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy; dispatch allowed.
    Closed,
    /// Tripped; dispatch blocked until the cooldown elapses.
    Open,
    /// Cooldown elapsed; dispatch allowed as a probe.
    HalfProbe,
}

/// One replica's circuit breaker.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: BreakerState,
    opened_at: SimTime,
    opens: u64,
    /// Decision tracer, pre-bound to this breaker's replica id by the
    /// recovery orchestrator (disabled by default).
    tracer: Tracer,
}

/// The trace-crate mirror of a [`BreakerState`].
fn phase_of(state: BreakerState) -> BreakerPhase {
    match state {
        BreakerState::Closed => BreakerPhase::Closed,
        BreakerState::Open => BreakerPhase::Open,
        BreakerState::HalfProbe => BreakerPhase::HalfProbe,
    }
}

impl CircuitBreaker {
    /// A closed breaker with the given thresholds.
    pub fn new(config: BreakerConfig) -> Self {
        CircuitBreaker {
            config,
            state: BreakerState::Closed,
            opened_at: SimTime::ZERO,
            opens: 0,
            tracer: Tracer::disabled(),
        }
    }

    /// Installs a decision tracer. Pass a handle already bound to this
    /// breaker's replica id (`Tracer::for_replica`) so transitions land on
    /// the right stream.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Moves to `to` at `now`, emitting the transition when traced.
    fn transition(&mut self, to: BreakerState, now: SimTime) {
        if self.tracer.enabled() && self.state != to {
            self.tracer.emit_at(
                now,
                None,
                TraceEvent::BreakerTransition {
                    from: phase_of(self.state),
                    to: phase_of(to),
                },
            );
        }
        self.state = to;
    }

    /// Current position.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times this breaker has tripped (probe failures count again).
    pub fn open_count(&self) -> u64 {
        self.opens
    }

    /// Feeds one health snapshot into the state machine.
    pub fn observe(&mut self, snapshot: &HealthSnapshot, now: SimTime) {
        // An open breaker matures into a probe on its own clock, even if
        // the snapshot arrives late.
        if self.state == BreakerState::Open && now >= self.opened_at + self.config.cooldown {
            self.transition(BreakerState::HalfProbe, now);
        }
        if snapshot.window < self.config.min_window {
            return; // not enough evidence to judge either way
        }
        let score = snapshot.score();
        match self.state {
            BreakerState::Closed | BreakerState::HalfProbe
                if score < self.config.open_below_score =>
            {
                self.transition(BreakerState::Open, now);
                self.opened_at = now;
                self.opens += 1;
            }
            BreakerState::HalfProbe if score >= self.config.close_above_score => {
                self.transition(BreakerState::Closed, now);
            }
            _ => {}
        }
    }

    /// Whether dispatch to this replica is allowed at `now`. An open
    /// breaker past its cooldown allows dispatch (the dispatch *is* the
    /// probe) even before the next `observe` formally transitions it.
    pub fn allows(&self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfProbe => true,
            BreakerState::Open => now >= self.opened_at + self.config.cooldown,
        }
    }

    /// Snaps back to `Closed` — a restarted replica is a fresh generation
    /// with no health history.
    pub fn reset(&mut self) {
        self.state = BreakerState::Closed;
        self.opened_at = SimTime::ZERO;
    }
}

/// A dispatch decision from [`pick_target`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PickedTarget {
    /// The chosen replica id (always a member of the caller's up-set).
    pub replica: u32,
    /// True when the breakers pruned the candidate set — the pick was
    /// steered away from at least one up-but-unhealthy replica.
    pub diverted: bool,
}

/// Round-robin over `up` by the caller's rotation cursor. `None` only
/// when `up` is empty.
#[expect(
    clippy::cast_possible_truncation,
    reason = "lossy-cast debt: route through `qoserve_sim::nums`"
)]
pub fn pick_round_robin(up: &[u32], rotation: u64) -> Option<PickedTarget> {
    if up.is_empty() {
        return None;
    }
    Some(PickedTarget {
        replica: up[(rotation % up.len() as u64) as usize],
        diverted: false,
    })
}

/// Health- and lifecycle-aware target selection.
///
/// The candidate set is pruned in two stages with different strength:
///
/// 1. **Lifecycle filter (strict).** `states` is indexed by replica id
///    (replicas beyond its length count as serving, so non-elastic
///    callers pass `&[]`). Replicas whose state does not
///    [accept work](qoserve_engine::ReplicaState::accepts_work) — e.g.
///    `Warming` or `Draining` — are removed with *no* fallback: routing
///    to a draining replica would violate the drain contract, and a
///    warming replica has no model loaded. `None` when nothing survives.
/// 2. **Breaker filter (soft).** Round-robin over the breaker-allowed
///    subset, falling back to the whole lifecycle-admissible set when
///    every breaker blocks — a breaker may delay work, never strand it.
///    `breakers` is indexed by replica id.
pub fn pick_target(
    up: &[u32],
    states: &[ReplicaState],
    breakers: &[CircuitBreaker],
    rotation: u64,
    at: SimTime,
) -> Option<PickedTarget> {
    let admissible: Vec<u32> = up
        .iter()
        .copied()
        .filter(|&r| {
            states
                .get(nums::u32_to_usize(r))
                .is_none_or(|s| s.accepts_work())
        })
        .collect();
    if admissible.is_empty() {
        return None;
    }
    let allowed: Vec<u32> = admissible
        .iter()
        .copied()
        .filter(|&r| breakers.get(r as usize).is_none_or(|b| b.allows(at)))
        .collect();
    if allowed.is_empty() || allowed.len() == admissible.len() {
        return pick_round_robin(&admissible, rotation);
    }
    pick_round_robin(&allowed, rotation).map(|p| PickedTarget {
        diverted: true,
        ..p
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_engine::{HealthRing, HealthSample, HealthSnapshot, ReplicaState, HEALTH_WINDOW};

    fn snapshot(ratio: f64, window: usize) -> HealthSnapshot {
        let mut ring = HealthRing::new();
        for _ in 0..window.min(HEALTH_WINDOW) {
            ring.record(HealthSample {
                degraded: ratio > 1.0,
                ratio,
                tokens: 100,
                exec_us: 1_000,
            });
        }
        HealthSnapshot::from_ring(&ring, 0, ReplicaState::Up, window as u64, 0, 0)
    }

    /// A full ring where only `degraded` of the samples are still inside
    /// a fault window at `ratio`; the rest have fully recovered.
    fn partial_snapshot(degraded: usize, ratio: f64) -> HealthSnapshot {
        let mut ring = HealthRing::new();
        for i in 0..HEALTH_WINDOW {
            let bad = i < degraded;
            ring.record(HealthSample {
                degraded: bad,
                ratio: if bad { ratio } else { 1.0 },
                tokens: 100,
                exec_us: 1_000,
            });
        }
        HealthSnapshot::from_ring(&ring, 0, ReplicaState::Up, HEALTH_WINDOW as u64, 0, 0)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn healthy_replica_stays_closed() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        for t in 0..20 {
            b.observe(&snapshot(1.0, HEALTH_WINDOW), secs(t));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.open_count(), 0);
        assert!(b.allows(secs(20)));
    }

    #[test]
    fn straggler_opens_after_min_window() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        // 3x straggler, but too little evidence: stays closed.
        b.observe(&snapshot(3.0, 4), secs(1));
        assert_eq!(b.state(), BreakerState::Closed);
        // Full window of the same: opens and blocks dispatch.
        b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(2));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.open_count(), 1);
        assert!(!b.allows(secs(3)));
    }

    #[test]
    fn cooldown_matures_into_probe_then_closes_on_recovery() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(1));
        assert!(!b.allows(secs(5)));
        // Cooldown (5 s) elapsed: dispatch is allowed as the probe even
        // before the next observation.
        assert!(b.allows(secs(6)));
        b.observe(&snapshot(1.0, HEALTH_WINDOW), secs(7));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.open_count(), 1);
    }

    #[test]
    fn failed_probe_reopens_for_another_cooldown() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(1));
        b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(7)); // probe fails
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.open_count(), 2);
        assert!(!b.allows(secs(8)));
        assert!(b.allows(secs(12)));
    }

    #[test]
    fn middling_score_holds_the_probe_open() {
        // Hysteresis: a probe score between the thresholds neither closes
        // nor re-opens. 12 of 32 windowed samples still degraded at 1.2x
        // scores ~0.76 — above open_below (0.6), below close_above (0.85).
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(1));
        b.observe(&partial_snapshot(12, 1.2), secs(7));
        assert_eq!(b.state(), BreakerState::HalfProbe);
        assert!(b.allows(secs(8)));
    }

    #[test]
    fn reset_closes_and_keeps_the_open_count() {
        let mut b = CircuitBreaker::new(BreakerConfig::default());
        b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(1));
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.open_count(), 1, "history survives for stats");
        assert!(b.allows(secs(2)));
    }

    #[test]
    fn pick_target_prefers_allowed_replicas() {
        let mut breakers: Vec<CircuitBreaker> = (0..3)
            .map(|_| CircuitBreaker::new(BreakerConfig::default()))
            .collect();
        breakers[1].observe(&snapshot(3.0, HEALTH_WINDOW), secs(1));
        let up = [0u32, 1, 2];
        for rotation in 0..6 {
            let p = pick_target(&up, &[], &breakers, rotation, secs(2)).unwrap();
            assert_ne!(p.replica, 1, "open breaker must divert work");
            assert!(p.diverted);
        }
    }

    #[test]
    fn pick_target_falls_back_when_every_breaker_is_open() {
        let mut breakers: Vec<CircuitBreaker> = (0..2)
            .map(|_| CircuitBreaker::new(BreakerConfig::default()))
            .collect();
        for b in &mut breakers {
            b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(1));
        }
        let up = [0u32, 1];
        let p = pick_target(&up, &[], &breakers, 0, secs(2)).unwrap();
        assert_eq!(p.replica, 0, "fallback is plain round-robin over up");
        assert!(!p.diverted, "no healthy subset existed to divert into");
    }

    #[test]
    fn pick_target_with_all_closed_matches_round_robin() {
        let breakers: Vec<CircuitBreaker> = (0..3)
            .map(|_| CircuitBreaker::new(BreakerConfig::default()))
            .collect();
        let up = [0u32, 2];
        for rotation in 0..5 {
            assert_eq!(
                pick_target(&up, &[], &breakers, rotation, secs(1)),
                pick_round_robin(&up, rotation),
            );
        }
    }

    #[test]
    fn pick_target_never_routes_to_warming_or_draining() {
        // Regression for the elastic control plane: lifecycle states are
        // a strict filter with no fallback, unlike breakers.
        let up = [0u32, 1, 2, 3];
        let states = [
            ReplicaState::Up,
            ReplicaState::Warming,
            ReplicaState::Draining,
            ReplicaState::Up,
        ];
        for rotation in 0..8 {
            let p = pick_target(&up, &states, &[], rotation, secs(1)).unwrap();
            assert!(
                p.replica == 0 || p.replica == 3,
                "rotation {rotation} routed to lifecycle-inadmissible replica {}",
                p.replica
            );
        }
        // Even with every breaker healthy, an all-draining fleet yields
        // no target — the drain contract beats the never-strand rule.
        let draining = [ReplicaState::Draining; 4];
        assert_eq!(pick_target(&up, &draining, &[], 0, secs(1)), None);
        // Replicas beyond the states slice count as serving.
        let short = [ReplicaState::Draining];
        let p = pick_target(&up, &short, &[], 0, secs(1)).unwrap();
        assert_ne!(p.replica, 0);
    }

    #[test]
    fn empty_up_set_yields_none() {
        assert_eq!(pick_round_robin(&[], 3), None);
        assert_eq!(pick_target(&[], &[], &[], 3, secs(1)), None);
    }

    mod prop {
        use super::*;
        use qoserve_sim::{forall, Rng};

        /// The breaker may steer work, never strand it: for any non-empty
        /// up-set and any breaker states, a target exists and is a member
        /// of the up-set.
        #[test]
        fn never_strands_work() {
            forall(128, 1, |rng| {
                let size = rng.gen_range(1..8);
                let mut up = std::collections::BTreeSet::new();
                while up.len() < size {
                    up.insert(rng.gen_range(0u32..8));
                }
                let up: Vec<u32> = up.into_iter().collect();
                let bad: Vec<bool> = (0..8).map(|_| rng.gen()).collect();
                let rotation: u64 = rng.gen();
                let at_secs = rng.gen_range(0u64..100);
                let mut breakers: Vec<CircuitBreaker> = bad
                    .iter()
                    .map(|_| CircuitBreaker::new(BreakerConfig::default()))
                    .collect();
                for (b, &is_bad) in breakers.iter_mut().zip(&bad) {
                    if is_bad {
                        b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(at_secs));
                    }
                }
                let picked = pick_target(&up, &[], &breakers, rotation, secs(at_secs));
                let picked = picked.expect("non-empty up-set must yield a target");
                assert!(up.contains(&picked.replica));
                // Diversion only claims to have pruned when a healthy
                // subset actually existed — and then the pick is healthy.
                if picked.diverted {
                    assert!(breakers[picked.replica as usize].allows(secs(at_secs)));
                }
            });
        }
    }
}
