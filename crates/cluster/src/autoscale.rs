//! SLO-feedback autoscaling: a hysteresis controller on windowed
//! per-tier attainment and queue pressure.
//!
//! The paper's diurnal experiment (fig12) runs a *fixed* fleet sized for
//! peak load; the elastic control plane instead sizes the fleet from two
//! deterministic signals sampled every [`AutoscaleConfig::control_interval`]:
//!
//! * **attainment** — the worst per-tier fraction of requests that
//!   completed inside their SLO over the trailing
//!   [`AutoscaleConfig::window`]. The *minimum* across tiers is used so
//!   a fleet that serves paid tiers while starving the free tier still
//!   reads as under-provisioned — pooling capacity across QoS classes is
//!   the whole point of breaking the silos.
//! * **queue pressure** — mean queued tokens per serving replica, a
//!   leading indicator that fires before attainment degrades (attainment
//!   is a trailing, windowed signal).
//!
//! # Hysteresis contract
//!
//! Scale-up pressure (`attainment < 0.97` **or** `queue >
//! queue_high_tokens`) and scale-down calm (`attainment > 0.995` **and**
//! `queue < queue_low_tokens`) are *mutually exclusive by construction*:
//! the attainment thresholds are ordered constants and
//! [`AutoscaleConfig::normalized`] clamps `queue_low_tokens <=
//! queue_high_tokens`, so no single observation can argue both
//! directions. Each action adds or drains one replica. On top of that,
//! decisions require a streak of
//! consecutive agreeing observations (`up_streak` / `down_streak`) and
//! respect a post-action `cooldown`, so a constant load can never make
//! the controller flap — a property pinned by the seeded property tests
//! below.
//!
//! The controller is a pure state machine over explicit
//! [`ControlObservation`]s: it never reads a clock or RNG, so autoscale
//! decisions replay bit-identically inside the deterministic sim.

use qoserve_sim::{SimDuration, SimTime};

/// Scale up when the worst per-tier attainment falls below this.
pub(crate) const SCALE_UP_BELOW: f64 = 0.97;
/// Scale down only when the worst per-tier attainment is above this
/// (at least `SCALE_UP_BELOW`, so pressure and calm never overlap).
pub(crate) const SCALE_DOWN_ABOVE: f64 = 0.995;

/// Autoscaler thresholds and cadence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// How often the controller samples signals and may act.
    pub control_interval: SimDuration,
    /// Trailing window over which per-tier attainment is computed.
    pub window: SimDuration,
    /// Fleet floor: scale-down never drains below this many serving
    /// replicas.
    pub min_replicas: u32,
    /// Fleet ceiling: scale-up never provisions beyond this.
    pub max_replicas: u32,
    /// Scale up when queued tokens per serving replica exceed this.
    pub queue_high_tokens: u64,
    /// Scale down only when queued tokens per serving replica are below
    /// this (must be `<= queue_high_tokens`).
    pub queue_low_tokens: u64,
    /// Consecutive pressured observations required before scaling up.
    pub up_streak: u32,
    /// Consecutive calm observations required before scaling down
    /// (larger than `up_streak` by default: adding capacity is cheap,
    /// removing it risks SLOs).
    pub down_streak: u32,
    /// Minimum simulated time between consecutive scale actions.
    pub cooldown: SimDuration,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig {
            control_interval: SimDuration::from_secs(15),
            window: SimDuration::from_secs(60),
            min_replicas: 1,
            max_replicas: 8,
            queue_high_tokens: 40_000,
            queue_low_tokens: 8_000,
            up_streak: 2,
            down_streak: 4,
            cooldown: SimDuration::from_secs(60),
        }
    }
}

impl AutoscaleConfig {
    /// Returns a copy with the hysteresis invariants enforced:
    /// `queue_low_tokens <= queue_high_tokens`, `min <= max`, and streaks
    /// at least 1. All controller entry points normalize, so a hand-built
    /// config can never make pressure and calm overlap.
    pub fn normalized(mut self) -> Self {
        if self.queue_low_tokens > self.queue_high_tokens {
            self.queue_low_tokens = self.queue_high_tokens;
        }
        if self.max_replicas < self.min_replicas {
            self.max_replicas = self.min_replicas;
        }
        self.min_replicas = self.min_replicas.max(1);
        self.max_replicas = self.max_replicas.max(self.min_replicas);
        self.up_streak = self.up_streak.max(1);
        self.down_streak = self.down_streak.max(1);
        self
    }
}

/// One sampled control-plane observation, taken at a controller tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ControlObservation {
    /// Worst per-tier SLO attainment over the trailing window, in
    /// `[0, 1]`. Windows with no completions report `1.0` (no evidence
    /// of trouble is not evidence of trouble).
    pub attainment: f64,
    /// Mean queued tokens per serving replica.
    pub queue_tokens_per_replica: u64,
    /// Total queued tokens across the fleet. The controller compares
    /// consecutive totals to tell a backlog that is already draining
    /// (queue high but shrinking — capacity is adequate, adding more
    /// would idle) from genuine under-capacity (queue high and not
    /// shrinking).
    pub queue_tokens: u64,
    /// Replicas currently serving.
    pub serving: u32,
    /// Replicas currently provisioning or warming (counted as incoming
    /// capacity so the controller does not double-scale while waiting
    /// for warm-up).
    pub warming: u32,
}

/// What the controller decided at a tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AutoscaleDecision {
    /// No action this tick.
    Hold,
    /// Provision one new replica.
    Up,
    /// Gracefully drain one serving replica.
    Down,
}

/// The hysteresis controller. Feed it one [`ControlObservation`] per
/// control interval via [`tick`](Self::tick); it returns an
/// [`AutoscaleDecision`].
#[derive(Debug, Clone)]
pub struct AutoscaleController {
    config: AutoscaleConfig,
    pressured: u32,
    calm: u32,
    last_action_at: Option<SimTime>,
    last_queue: Option<u64>,
}

impl AutoscaleController {
    /// Builds a controller; the config is [`normalized`](AutoscaleConfig::normalized).
    pub fn new(config: AutoscaleConfig) -> Self {
        AutoscaleController {
            config: config.normalized(),
            pressured: 0,
            calm: 0,
            last_action_at: None,
            last_queue: None,
        }
    }

    /// The (normalized) config this controller runs.
    pub fn config(&self) -> &AutoscaleConfig {
        &self.config
    }

    /// Whether this observation argues for more capacity. A high queue
    /// only counts while it is not shrinking: a backlog left over from a
    /// burst already absorbed by a previous scale-up drains monotonically
    /// and must not trigger a second, idle-bound replica.
    fn pressure(&self, obs: &ControlObservation, queue_growing: bool) -> bool {
        obs.attainment < SCALE_UP_BELOW
            || (obs.queue_tokens_per_replica > self.config.queue_high_tokens && queue_growing)
    }

    /// Whether this observation argues capacity is safely excess.
    fn is_calm(&self, obs: &ControlObservation) -> bool {
        obs.attainment > SCALE_DOWN_ABOVE
            && obs.queue_tokens_per_replica < self.config.queue_low_tokens
    }

    /// Processes one observation taken at `now`; returns the decision.
    ///
    /// Streak counters reset whenever the signal flips direction, and a
    /// decision other than [`AutoscaleDecision::Hold`] resets both
    /// streaks and starts the cooldown clock.
    pub fn tick(&mut self, now: SimTime, obs: &ControlObservation) -> AutoscaleDecision {
        let queue_growing = self.last_queue.is_none_or(|prev| obs.queue_tokens >= prev);
        self.last_queue = Some(obs.queue_tokens);
        let pressure = self.pressure(obs, queue_growing);
        let calm = self.is_calm(obs);
        debug_assert!(
            !(pressure && calm),
            "normalized thresholds make pressure and calm exclusive"
        );
        if pressure {
            self.pressured += 1;
            self.calm = 0;
        } else if calm {
            self.calm += 1;
            self.pressured = 0;
        } else {
            self.pressured = 0;
            self.calm = 0;
        }
        if let Some(at) = self.last_action_at {
            if now.duration_since(at) < self.config.cooldown {
                return AutoscaleDecision::Hold;
            }
        }
        // Provisioning/warming replicas count as incoming capacity so a
        // pressured window does not trigger a second scale-up while the
        // first is still warming.
        let incoming = obs.serving.saturating_add(obs.warming);
        let decision = if self.pressured >= self.config.up_streak
            && incoming < self.config.max_replicas
        {
            AutoscaleDecision::Up
        } else if self.calm >= self.config.down_streak && obs.serving > self.config.min_replicas {
            AutoscaleDecision::Down
        } else {
            return AutoscaleDecision::Hold;
        };
        self.pressured = 0;
        self.calm = 0;
        self.last_action_at = Some(now);
        decision
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(attainment: f64, queue: u64, serving: u32, warming: u32) -> ControlObservation {
        ControlObservation {
            attainment,
            queue_tokens_per_replica: queue,
            // A flat repeated total reads as "not shrinking", so constant
            // pressure sequences exercise the up path.
            queue_tokens: queue.saturating_mul(u64::from(serving.max(1))),
            serving,
            warming,
        }
    }

    fn ticked(
        c: &mut AutoscaleController,
        ticks: u32,
        o: ControlObservation,
    ) -> Vec<AutoscaleDecision> {
        let interval = c.config().control_interval;
        (0..ticks)
            .map(|i| c.tick(SimTime::ZERO + interval * ((i + 1) as u64), &o))
            .collect()
    }

    #[test]
    fn scales_up_after_streak_of_pressure() {
        let mut c = AutoscaleController::new(AutoscaleConfig::default());
        let bad = obs(0.90, 0, 2, 0);
        let decisions = ticked(&mut c, 2, bad);
        assert_eq!(
            decisions,
            vec![AutoscaleDecision::Hold, AutoscaleDecision::Up],
            "second pressured tick fires the scale-up"
        );
    }

    #[test]
    fn queue_pressure_alone_scales_up() {
        let mut c = AutoscaleController::new(AutoscaleConfig::default());
        let queued = obs(1.0, 100_000, 2, 0);
        assert_eq!(
            ticked(&mut c, 2, queued).last(),
            Some(&AutoscaleDecision::Up)
        );
    }

    #[test]
    fn scales_down_after_longer_calm_streak() {
        let mut c = AutoscaleController::new(AutoscaleConfig::default());
        let idle = obs(1.0, 0, 4, 0);
        let decisions = ticked(&mut c, 4, idle);
        assert_eq!(decisions[..3], vec![AutoscaleDecision::Hold; 3]);
        assert_eq!(decisions[3], AutoscaleDecision::Down);
    }

    #[test]
    fn respects_fleet_bounds() {
        let mut c = AutoscaleController::new(AutoscaleConfig {
            min_replicas: 2,
            max_replicas: 3,
            ..AutoscaleConfig::default()
        });
        // Already at the ceiling (serving + warming): no scale-up.
        assert!(ticked(&mut c, 4, obs(0.5, 100_000, 2, 1))
            .iter()
            .all(|d| *d == AutoscaleDecision::Hold));
        // At the floor: no scale-down.
        let mut c = AutoscaleController::new(AutoscaleConfig {
            min_replicas: 2,
            max_replicas: 3,
            ..AutoscaleConfig::default()
        });
        assert!(ticked(&mut c, 8, obs(1.0, 0, 2, 0))
            .iter()
            .all(|d| *d == AutoscaleDecision::Hold));
    }

    #[test]
    fn cooldown_blocks_back_to_back_actions() {
        let config = AutoscaleConfig::default();
        let mut c = AutoscaleController::new(config);
        let interval = config.control_interval;
        let bad = obs(0.5, 0, 1, 0);
        assert_eq!(
            c.tick(SimTime::ZERO + interval, &bad),
            AutoscaleDecision::Hold
        );
        assert_eq!(
            c.tick(SimTime::ZERO + interval * 2, &bad),
            AutoscaleDecision::Up
        );
        // Still inside the 60s cooldown at t=45/60s: streaks accumulate
        // but no action fires.
        assert_eq!(
            c.tick(SimTime::ZERO + interval * 3, &bad),
            AutoscaleDecision::Hold
        );
        assert_eq!(
            c.tick(SimTime::ZERO + interval * 4, &bad),
            AutoscaleDecision::Hold
        );
        // Cooldown elapsed and the streak is satisfied again.
        assert_eq!(
            c.tick(SimTime::ZERO + interval * 6, &bad),
            AutoscaleDecision::Up
        );
    }

    #[test]
    fn warming_capacity_suppresses_double_scale_up() {
        let mut c = AutoscaleController::new(AutoscaleConfig {
            max_replicas: 3,
            ..AutoscaleConfig::default()
        });
        // 2 serving + 1 warming == 3 incoming == max: hold even under
        // sustained pressure.
        assert!(ticked(&mut c, 6, obs(0.5, 100_000, 2, 1))
            .iter()
            .all(|d| *d == AutoscaleDecision::Hold));
    }

    #[test]
    fn draining_backlog_never_triggers_second_up() {
        // The growth gate's defining behaviour: a queue above the high
        // watermark that shrinks tick over tick is a draining backlog,
        // not pressure — the controller must hold.
        let mut c = AutoscaleController::new(AutoscaleConfig {
            queue_high_tokens: 10_000,
            up_streak: 1,
            cooldown: SimDuration::ZERO,
            max_replicas: 8,
            ..AutoscaleConfig::default()
        });
        let mut now = SimTime::ZERO;
        let interval = c.config().control_interval;
        let mut queue_total: u64 = 400_000;
        // First tick: no previous sample, so a high queue counts as
        // growing and fires the up path.
        now += interval;
        let first = c.tick(
            now,
            &ControlObservation {
                attainment: 1.0,
                queue_tokens_per_replica: queue_total / 2,
                queue_tokens: queue_total,
                serving: 2,
                warming: 0,
            },
        );
        assert_eq!(first, AutoscaleDecision::Up);
        // Strictly shrinking afterwards: always Hold, however high the
        // level still is.
        for _ in 0..20 {
            now += interval;
            queue_total -= 15_000;
            let d = c.tick(
                now,
                &ControlObservation {
                    attainment: 1.0,
                    queue_tokens_per_replica: queue_total / 3,
                    queue_tokens: queue_total,
                    serving: 3,
                    warming: 0,
                },
            );
            assert_eq!(
                d,
                AutoscaleDecision::Hold,
                "draining backlog must not scale up"
            );
        }
    }

    #[test]
    fn normalized_clamps_inverted_thresholds() {
        let c = AutoscaleConfig {
            queue_high_tokens: 10,
            queue_low_tokens: 100,
            min_replicas: 5,
            max_replicas: 2,
            up_streak: 0,
            down_streak: 0,
            ..AutoscaleConfig::default()
        }
        .normalized();
        assert!(c.queue_low_tokens <= c.queue_high_tokens);
        assert!(c.max_replicas >= c.min_replicas);
        assert!(c.up_streak >= 1 && c.down_streak >= 1);
    }

    mod properties {
        use super::*;
        use qoserve_sim::{forall, Rng};

        /// Hysteresis stability: under any *constant* observation the
        /// controller never emits both an Up and a Down over a long run —
        /// constant load cannot make the fleet flap.
        #[test]
        fn constant_load_never_flaps() {
            forall(256, 1, |rng| {
                let attainment = rng.gen_range(0.0..=1.0);
                let queue = rng.gen_range(0u64..200_000);
                let serving = rng.gen_range(1u32..16);
                let warming = rng.gen_range(0u32..4);
                let config = AutoscaleConfig {
                    queue_high_tokens: rng.gen_range(0..100_000),
                    queue_low_tokens: rng.gen_range(0..100_000),
                    max_replicas: 32,
                    ..AutoscaleConfig::default()
                };
                let mut c = AutoscaleController::new(config);
                let o = ControlObservation {
                    attainment,
                    queue_tokens_per_replica: queue,
                    queue_tokens: queue.saturating_mul(u64::from(serving.max(1))),
                    serving,
                    warming,
                };
                let interval = c.config().control_interval;
                let mut saw_up = false;
                let mut saw_down = false;
                let mut now = SimTime::ZERO;
                for _ in 0..200 {
                    now += interval;
                    match c.tick(now, &o) {
                        AutoscaleDecision::Up => saw_up = true,
                        AutoscaleDecision::Down => saw_down = true,
                        AutoscaleDecision::Hold => {}
                    }
                }
                assert!(
                    !(saw_up && saw_down),
                    "constant observation produced both scale directions"
                );
            });
        }

        /// Decisions never violate the configured fleet bounds.
        #[test]
        fn steps_respect_bounds() {
            forall(256, 2, |rng| {
                let serving = rng.gen_range(1u32..16);
                let warming = rng.gen_range(0u32..4);
                let config = AutoscaleConfig {
                    min_replicas: rng.gen_range(1..4),
                    max_replicas: rng.gen_range(4..16),
                    up_streak: 1,
                    down_streak: 1,
                    cooldown: SimDuration::ZERO,
                    ..AutoscaleConfig::default()
                };
                let mut up_c = AutoscaleController::new(config);
                let pressured = ControlObservation {
                    attainment: 0.0,
                    queue_tokens_per_replica: u64::MAX,
                    queue_tokens: u64::MAX,
                    serving,
                    warming,
                };
                if up_c.tick(SimTime::from_secs(15), &pressured) == AutoscaleDecision::Up {
                    assert!(serving + warming < up_c.config().max_replicas);
                }
                let mut down_c = AutoscaleController::new(config);
                let idle = ControlObservation {
                    attainment: 1.0,
                    queue_tokens_per_replica: 0,
                    queue_tokens: 0,
                    serving,
                    warming,
                };
                if down_c.tick(SimTime::from_secs(15), &idle) == AutoscaleDecision::Down {
                    assert!(serving > down_c.config().min_replicas);
                }
            });
        }
    }
}
