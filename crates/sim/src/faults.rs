//! Deterministic fault schedules.
//!
//! Fault injection follows the same contract as every other stochastic
//! component of the simulator: all randomness derives from a
//! [`SeedStream`] by label, so a `(seed, config)` pair always yields the
//! same fault timeline, independent of execution order or thread count.
//! The schedule is computed **a priori** over a horizon — faults are data,
//! not side effects. The cluster kernel hands each replica slot its crash
//! timeline ([`FaultSchedule::crashes_for`]) and each engine its slowdown
//! windows ([`FaultSchedule::profile_for`]).
//!
//! The fault taxonomy (see DESIGN.md, "Fault model"):
//!
//! * **Crash** — the replica halts; in-flight and queued requests are lost
//!   (their KV state with them) and must be re-dispatched. With a
//!   configured downtime the replica restarts *empty* after it.
//! * **Straggler window** — iteration latency is inflated by a factor for
//!   a bounded interval (interference, thermal throttling).
//! * **Predictor-drift window** — a milder sustained inflation that the
//!   scheduler's latency predictor does not see, modelling calibration
//!   drift between the predictor and the hardware.

use crate::nums;
use crate::rng::{exponential_gap_secs, SeedStream};
use crate::time::{SimDuration, SimTime};

/// Safety cap on generated events per replica per fault class, so a
/// pathological rate cannot allocate unbounded schedules.
const MAX_EVENTS_PER_CLASS: usize = 4_096;

/// One class of injected fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Replica halt. `restart_after` is the downtime before the replica
    /// comes back (empty); `None` means it never returns.
    Crash {
        /// Downtime before restart, if any.
        restart_after: Option<SimDuration>,
    },
    /// Transient slowdown: iteration latency is multiplied by `factor`
    /// while the window is open.
    Straggler {
        /// Window length.
        duration: SimDuration,
        /// Latency multiplier (> 1).
        factor: f64,
    },
    /// Predictor drift: execution latency is biased by `bias` while the
    /// scheduler's predictor keeps using its clean calibration.
    PredictorDrift {
        /// Window length.
        duration: SimDuration,
        /// Latency multiplier (> 1) hidden from the predictor.
        bias: f64,
    },
}

impl FaultKind {
    /// Stable ordering rank used to make event sorting total.
    fn rank(&self) -> u8 {
        match self {
            FaultKind::Crash { .. } => 0,
            FaultKind::Straggler { .. } => 1,
            FaultKind::PredictorDrift { .. } => 2,
        }
    }
}

/// One scheduled fault on one replica.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// The replica it hits.
    pub replica: u32,
    /// What happens.
    pub kind: FaultKind,
}

/// Rates and shapes of the injected faults. All rates are per replica and
/// per simulated hour; a rate of zero disables that fault class, and
/// [`FaultConfig::none`] disables everything (the resulting schedule is
/// empty, and fault-aware runs are bit-identical to fault-free ones).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultConfig {
    /// Crashes per replica-hour.
    pub crash_rate_per_hour: f64,
    /// Downtime before a crashed replica restarts; `None` = permanent.
    pub restart_downtime: Option<SimDuration>,
    /// Upper bound on crashes scheduled per replica.
    pub max_crashes_per_replica: u32,
    /// Straggler windows per replica-hour.
    pub straggler_rate_per_hour: f64,
    /// Length of each straggler window.
    pub straggler_duration: SimDuration,
    /// Iteration-latency multiplier inside a straggler window.
    pub straggler_factor: f64,
    /// Predictor-drift windows per replica-hour.
    pub drift_rate_per_hour: f64,
    /// Length of each drift window.
    pub drift_duration: SimDuration,
    /// Latency multiplier inside a drift window.
    pub drift_bias: f64,
}

impl FaultConfig {
    /// No faults at all: every rate is zero.
    pub fn none() -> Self {
        FaultConfig {
            crash_rate_per_hour: 0.0,
            restart_downtime: None,
            max_crashes_per_replica: 0,
            straggler_rate_per_hour: 0.0,
            straggler_duration: SimDuration::ZERO,
            straggler_factor: 1.0,
            drift_rate_per_hour: 0.0,
            drift_duration: SimDuration::ZERO,
            drift_bias: 1.0,
        }
    }

    /// A moderate mixed-fault profile used as the unit load of the
    /// `fault_sweep` experiment: crashes with restart, occasional
    /// stragglers, and mild predictor drift.
    pub fn moderate() -> Self {
        FaultConfig {
            crash_rate_per_hour: 3.0,
            restart_downtime: Some(SimDuration::from_secs(30)),
            max_crashes_per_replica: 64,
            straggler_rate_per_hour: 12.0,
            straggler_duration: SimDuration::from_secs(10),
            straggler_factor: 1.8,
            drift_rate_per_hour: 6.0,
            drift_duration: SimDuration::from_secs(20),
            drift_bias: 1.15,
        }
    }

    /// True when no fault class has a positive rate.
    pub fn is_none(&self) -> bool {
        self.crash_rate_per_hour <= 0.0
            && self.straggler_rate_per_hour <= 0.0
            && self.drift_rate_per_hour <= 0.0
    }

    /// Scales every fault *rate* by `intensity` (shapes — durations,
    /// factors, downtime — are untouched). Intensity 0 disables faults.
    pub fn scaled(&self, intensity: f64) -> Self {
        let intensity = intensity.max(0.0);
        FaultConfig {
            crash_rate_per_hour: self.crash_rate_per_hour * intensity,
            straggler_rate_per_hour: self.straggler_rate_per_hour * intensity,
            drift_rate_per_hour: self.drift_rate_per_hour * intensity,
            ..self.clone()
        }
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// One crash occurrence on a replica, as seen by the recovery layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashEvent {
    /// When the replica halts.
    pub at: SimTime,
    /// When it comes back (empty), if ever.
    pub restart_at: Option<SimTime>,
}

/// A latency-inflation interval on one replica (straggler or drift).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SlowWindow {
    /// Window start (inclusive).
    pub start: SimTime,
    /// Window end (exclusive).
    pub end: SimTime,
    /// Iteration-latency multiplier while open.
    pub factor: f64,
    /// True for predictor-drift windows, false for stragglers.
    pub drift: bool,
}

impl SlowWindow {
    /// Whether the window is open at `t`.
    pub fn contains(&self, t: SimTime) -> bool {
        self.start <= t && t < self.end
    }
}

/// The faults one replica's engine executes: its slowdown windows.
/// Crashes belong to the cluster kernel, which halts and restarts the
/// replica around them.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ReplicaFaultProfile {
    /// Latency-inflation windows (the engine applies whichever contain
    /// the iteration start).
    pub windows: Vec<SlowWindow>,
}

impl ReplicaFaultProfile {
    /// A profile with no faults.
    pub fn healthy() -> Self {
        ReplicaFaultProfile::default()
    }

    /// Combined latency multiplier at `t` (product of all open windows;
    /// 1.0 when none are).
    pub fn slowdown_at(&self, t: SimTime) -> f64 {
        let mut factor = 1.0;
        for w in &self.windows {
            if w.contains(t) {
                factor *= w.factor;
            }
        }
        factor
    }
}

/// A fully materialised, deterministic fault timeline for a cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    /// All events, sorted by `(at, replica, kind)`.
    events: Vec<FaultEvent>,
    /// Number of replicas the schedule was generated for.
    replicas: u32,
}

impl FaultSchedule {
    /// An empty schedule (no faults ever).
    pub fn empty(replicas: u32) -> Self {
        FaultSchedule {
            events: Vec::new(),
            replicas,
        }
    }

    /// Generates the schedule for `replicas` replicas over `[0, horizon)`.
    ///
    /// Each `(fault class, replica)` pair draws from its own
    /// [`SeedStream::derive_indexed`] stream, so adding replicas or fault
    /// classes never perturbs the others, and the same `(seeds, config,
    /// replicas, horizon)` always produces the identical timeline.
    pub fn generate(
        config: &FaultConfig,
        replicas: u32,
        horizon: SimTime,
        seeds: &SeedStream,
    ) -> Self {
        let mut events: Vec<FaultEvent> = Vec::new();
        if config.is_none() {
            return FaultSchedule::empty(replicas);
        }
        let horizon_secs = horizon.as_secs_f64();
        for replica in 0..replicas {
            generate_crashes(config, replica, horizon_secs, seeds, &mut events);
            generate_windows(
                "fault-straggler",
                config.straggler_rate_per_hour,
                config.straggler_duration,
                config.straggler_factor,
                false,
                replica,
                horizon_secs,
                seeds,
                &mut events,
            );
            generate_windows(
                "fault-drift",
                config.drift_rate_per_hour,
                config.drift_duration,
                config.drift_bias,
                true,
                replica,
                horizon_secs,
                seeds,
                &mut events,
            );
        }
        events.sort_by_key(|e| (e.at, e.replica, e.kind.rank()));
        FaultSchedule { events, replicas }
    }

    /// All scheduled events, sorted by time.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of replicas the schedule covers.
    pub fn replicas(&self) -> u32 {
        self.replicas
    }

    /// The crash timeline of one replica, in time order.
    pub fn crashes_for(&self, replica: u32) -> Vec<CrashEvent> {
        self.events
            .iter()
            .filter(|e| e.replica == replica)
            .filter_map(|e| match e.kind {
                FaultKind::Crash { restart_after } => Some(CrashEvent {
                    at: e.at,
                    restart_at: restart_after.map(|d| e.at + d),
                }),
                _ => None,
            })
            .collect()
    }

    /// The engine-facing fault profile of one replica: every slowdown
    /// window (containment checks are by absolute time, so one profile
    /// serves every generation of the replica).
    pub fn profile_for(&self, replica: u32) -> ReplicaFaultProfile {
        let windows = self
            .events
            .iter()
            .filter(|e| e.replica == replica)
            .filter_map(|e| match e.kind {
                FaultKind::Straggler { duration, factor } => Some(SlowWindow {
                    start: e.at,
                    end: e.at + duration,
                    factor,
                    drift: false,
                }),
                FaultKind::PredictorDrift { duration, bias } => Some(SlowWindow {
                    start: e.at,
                    end: e.at + duration,
                    factor: bias,
                    drift: true,
                }),
                FaultKind::Crash { .. } => None,
            })
            .collect();
        ReplicaFaultProfile { windows }
    }
}

/// Draws the crash timeline of one replica into `out`.
fn generate_crashes(
    config: &FaultConfig,
    replica: u32,
    horizon_secs: f64,
    seeds: &SeedStream,
    out: &mut Vec<FaultEvent>,
) {
    if config.crash_rate_per_hour <= 0.0 || config.max_crashes_per_replica == 0 {
        return;
    }
    let rate_per_sec = config.crash_rate_per_hour / 3_600.0;
    let mut rng = seeds.derive_indexed("fault-crash", u64::from(replica));
    let mut t = 0.0;
    let cap = nums::u32_to_usize(config.max_crashes_per_replica).min(MAX_EVENTS_PER_CLASS);
    for _ in 0..cap {
        t += exponential_gap_secs(&mut rng, rate_per_sec);
        if t >= horizon_secs {
            break;
        }
        out.push(FaultEvent {
            at: SimTime::from_secs_f64(t),
            replica,
            kind: FaultKind::Crash {
                restart_after: config.restart_downtime,
            },
        });
        match config.restart_downtime {
            // The replica is down for the outage; the next crash can only
            // hit the restarted instance.
            Some(downtime) => t += downtime.as_secs_f64(),
            // Permanent loss: no further crashes are possible.
            None => break,
        }
    }
}

/// Draws non-overlapping slowdown windows of one class for one replica.
#[expect(
    clippy::too_many_arguments,
    reason = "one call per window class, each with its own rate, duration, factor and drift flag"
)]
fn generate_windows(
    label: &str,
    rate_per_hour: f64,
    duration: SimDuration,
    factor: f64,
    drift: bool,
    replica: u32,
    horizon_secs: f64,
    seeds: &SeedStream,
    out: &mut Vec<FaultEvent>,
) {
    if rate_per_hour <= 0.0 || duration.is_zero() || factor <= 1.0 {
        return;
    }
    let rate_per_sec = rate_per_hour / 3_600.0;
    let mut rng = seeds.derive_indexed(label, u64::from(replica));
    let mut t = 0.0;
    for _ in 0..MAX_EVENTS_PER_CLASS {
        t += exponential_gap_secs(&mut rng, rate_per_sec);
        if t >= horizon_secs {
            break;
        }
        let kind = if drift {
            FaultKind::PredictorDrift {
                duration,
                bias: factor,
            }
        } else {
            FaultKind::Straggler { duration, factor }
        };
        out.push(FaultEvent {
            at: SimTime::from_secs_f64(t),
            replica,
            kind,
        });
        // Windows of one class never overlap on a replica.
        t += duration.as_secs_f64();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn horizon() -> SimTime {
        SimTime::from_secs(3_600)
    }

    #[test]
    fn zero_rates_yield_empty_schedule() {
        let s = FaultSchedule::generate(&FaultConfig::none(), 4, horizon(), &SeedStream::new(1));
        assert!(s.is_empty());
        assert!(s.crashes_for(0).is_empty());
        assert_eq!(s.profile_for(2), ReplicaFaultProfile::healthy());
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = FaultConfig::moderate();
        let a = FaultSchedule::generate(&cfg, 3, horizon(), &SeedStream::new(7));
        let b = FaultSchedule::generate(&cfg, 3, horizon(), &SeedStream::new(7));
        assert_eq!(a, b);
        assert!(!a.is_empty(), "moderate config over an hour must fault");
        let c = FaultSchedule::generate(&cfg, 3, horizon(), &SeedStream::new(8));
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn adding_replicas_preserves_existing_timelines() {
        let cfg = FaultConfig::moderate();
        let seeds = SeedStream::new(3);
        let small = FaultSchedule::generate(&cfg, 2, horizon(), &seeds);
        let large = FaultSchedule::generate(&cfg, 4, horizon(), &seeds);
        for r in 0..2 {
            assert_eq!(small.crashes_for(r), large.crashes_for(r));
            assert_eq!(small.profile_for(r), large.profile_for(r));
        }
    }

    #[test]
    fn events_are_sorted_and_within_horizon() {
        let cfg = FaultConfig::moderate();
        let s = FaultSchedule::generate(&cfg, 4, horizon(), &SeedStream::new(11));
        let events = s.events();
        for pair in events.windows(2) {
            assert!(pair[0].at <= pair[1].at, "events must be time-sorted");
        }
        assert!(events.iter().all(|e| e.at < horizon()));
        assert!(events.iter().all(|e| e.replica < 4));
    }

    #[test]
    fn crash_outage_and_restart_windows() {
        let mut cfg = FaultConfig::none();
        cfg.crash_rate_per_hour = 2.0;
        cfg.restart_downtime = Some(SimDuration::from_secs(60));
        cfg.max_crashes_per_replica = 8;
        let s = FaultSchedule::generate(&cfg, 1, horizon(), &SeedStream::new(5));
        let crashes = s.crashes_for(0);
        assert!(!crashes.is_empty());
        let c = crashes[0];
        let restart = c.restart_at.expect("downtime configured");
        assert_eq!(restart, c.at + SimDuration::from_secs(60));
    }

    #[test]
    fn permanent_crash_never_restarts() {
        let mut cfg = FaultConfig::none();
        cfg.crash_rate_per_hour = 4.0;
        cfg.restart_downtime = None;
        cfg.max_crashes_per_replica = 8;
        let s = FaultSchedule::generate(&cfg, 2, horizon(), &SeedStream::new(9));
        let crashes = s.crashes_for(0);
        assert_eq!(crashes.len(), 1, "a permanent crash ends the timeline");
        assert_eq!(crashes[0].restart_at, None);
    }

    /// A restarted replica meets the next crash of its list, so none may
    /// fall inside an outage: the generator resumes after the downtime.
    #[test]
    fn each_crash_follows_the_previous_restart() {
        let mut cfg = FaultConfig::none();
        cfg.crash_rate_per_hour = 6.0;
        cfg.restart_downtime = Some(SimDuration::from_secs(10));
        cfg.max_crashes_per_replica = 16;
        let s = FaultSchedule::generate(&cfg, 1, horizon(), &SeedStream::new(13));
        let crashes = s.crashes_for(0);
        assert!(crashes.len() >= 2, "need at least two crashes for the test");
        for pair in crashes.windows(2) {
            assert!(pair[1].at >= pair[0].restart_at.expect("restarts on"));
        }
    }

    #[test]
    fn slowdown_windows_compose() {
        let profile = ReplicaFaultProfile {
            windows: vec![
                SlowWindow {
                    start: SimTime::from_secs(10),
                    end: SimTime::from_secs(20),
                    factor: 2.0,
                    drift: false,
                },
                SlowWindow {
                    start: SimTime::from_secs(15),
                    end: SimTime::from_secs(30),
                    factor: 1.5,
                    drift: true,
                },
            ],
        };
        assert_eq!(profile.slowdown_at(SimTime::from_secs(5)), 1.0);
        assert_eq!(profile.slowdown_at(SimTime::from_secs(12)), 2.0);
        assert_eq!(profile.slowdown_at(SimTime::from_secs(16)), 3.0);
        assert_eq!(profile.slowdown_at(SimTime::from_secs(25)), 1.5);
        assert_eq!(
            profile.slowdown_at(SimTime::from_secs(30)),
            1.0,
            "end exclusive"
        );
    }

    #[test]
    fn intensity_scaling_monotone() {
        let cfg = FaultConfig::moderate();
        let zero = cfg.scaled(0.0);
        assert!(zero.is_none());
        let double = cfg.scaled(2.0);
        assert_eq!(double.crash_rate_per_hour, cfg.crash_rate_per_hour * 2.0);
        assert_eq!(double.straggler_duration, cfg.straggler_duration);
        let n_at = |c: &FaultConfig, seed: u64| {
            FaultSchedule::generate(c, 4, horizon(), &SeedStream::new(seed))
                .events()
                .len()
        };
        // Higher intensity produces at least as many events on average;
        // check a fixed seed where it strictly grows.
        assert!(n_at(&double, 21) >= n_at(&cfg, 21));
    }
}
