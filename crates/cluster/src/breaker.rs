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
//! * **Open** — score fell below 0.6 (with at least 8 iterations of
//!   evidence); no new work until a 5 s cooldown elapses.
//! * **HalfProbe** — cooldown elapsed; the replica may receive work
//!   again (the probe). A recovered score closes the breaker, a still-bad
//!   score re-opens it for another cooldown.
//!
//! Each breaker lives in its replica's kernel slot. When the kernel's
//! dispatcher places an orphan it prefers replicas whose breaker allows
//! work but *always* falls back to every serving, up replica when all of
//! them block — a breaker may delay work, never strand it. All
//! transitions are driven by simulated time and deterministic health
//! scores, so breaker decisions replay bit-identically.

use qoserve_engine::HealthSnapshot;
use qoserve_sim::{SimDuration, SimTime};
use qoserve_trace::{BreakerPhase, TraceEvent, Tracer};

/// Open when the health score drops below this (a ~1.7x sustained
/// straggler).
pub(crate) const OPEN_BELOW_SCORE: f64 = 0.6;
/// Close a probing breaker when the score recovers to this (hysteresis:
/// strictly greater than `OPEN_BELOW_SCORE`).
pub(crate) const CLOSE_ABOVE_SCORE: f64 = 0.85;
/// Minimum windowed iterations before a snapshot is trusted — a freshly
/// (re)started replica is never judged on one bad batch.
pub(crate) const MIN_WINDOW: usize = 8;
/// Time an open breaker blocks dispatch before probing again.
pub(crate) const COOLDOWN: SimDuration = SimDuration::from_secs(5);

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
    state: BreakerState,
    opened_at: SimTime,
    opens: u64,
    /// Decision tracer, pre-bound to this breaker's replica id by the
    /// cluster kernel (disabled by default).
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

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new()
    }
}

impl CircuitBreaker {
    /// A closed breaker.
    pub fn new() -> Self {
        CircuitBreaker {
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
        if self.state == BreakerState::Open && now >= self.opened_at + COOLDOWN {
            self.transition(BreakerState::HalfProbe, now);
        }
        if snapshot.window < MIN_WINDOW {
            return; // not enough evidence to judge either way
        }
        let score = snapshot.score();
        match self.state {
            BreakerState::Closed | BreakerState::HalfProbe if score < OPEN_BELOW_SCORE => {
                self.transition(BreakerState::Open, now);
                self.opened_at = now;
                self.opens += 1;
            }
            BreakerState::HalfProbe if score >= CLOSE_ABOVE_SCORE => {
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
            BreakerState::Open => now >= self.opened_at + COOLDOWN,
        }
    }

    /// Snaps back to `Closed` — a restarted replica is a fresh generation
    /// with no health history.
    pub fn reset(&mut self) {
        self.state = BreakerState::Closed;
        self.opened_at = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_engine::{HealthRing, HealthSample, HealthSnapshot, HEALTH_WINDOW};

    fn snapshot(ratio: f64, window: usize) -> HealthSnapshot {
        let mut ring = HealthRing::new();
        for _ in 0..window.min(HEALTH_WINDOW) {
            ring.record(HealthSample {
                degraded: ratio > 1.0,
                ratio,
            });
        }
        HealthSnapshot::from_ring(&ring, 0)
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
            });
        }
        HealthSnapshot::from_ring(&ring, 0)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(s)
    }

    #[test]
    fn healthy_replica_stays_closed() {
        let mut b = CircuitBreaker::new();
        for t in 0..20 {
            b.observe(&snapshot(1.0, HEALTH_WINDOW), secs(t));
        }
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.open_count(), 0);
        assert!(b.allows(secs(20)));
    }

    #[test]
    fn straggler_opens_after_min_window() {
        let mut b = CircuitBreaker::new();
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
        let mut b = CircuitBreaker::new();
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
        let mut b = CircuitBreaker::new();
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
        let mut b = CircuitBreaker::new();
        b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(1));
        b.observe(&partial_snapshot(12, 1.2), secs(7));
        assert_eq!(b.state(), BreakerState::HalfProbe);
        assert!(b.allows(secs(8)));
    }

    #[test]
    fn reset_closes_and_keeps_the_open_count() {
        let mut b = CircuitBreaker::new();
        b.observe(&snapshot(3.0, HEALTH_WINDOW), secs(1));
        b.reset();
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.open_count(), 1, "history survives for stats");
        assert!(b.allows(secs(2)));
    }
}
