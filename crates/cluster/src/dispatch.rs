//! Placement after the static pre-assignment: every target the cluster
//! kernel picks for a held request or a crash or drain orphan.
//!
//! The router's round-robin pre-assignment fixes where each request of
//! the trace starts. From then on the kernel asks the [`Dispatcher`]:
//!
//! * **Held requests** (recalled once the fleet first moves) go
//!   round-robin over the serving slots.
//! * **Orphans** go round-robin over the serving slots whose replica is
//!   up at their re-dispatch instant, as the slot's own crash timeline
//!   tells (`Slot::up_at`). When too little is left of the slots the
//!   fleet holds or has lost to crashes, a low-priority orphan is shed
//!   instead — the tier-aware shed of §3.3, which measures capacity loss,
//!   so a slot lost for good still counts against it. Otherwise the
//!   circuit breakers filter the candidates *softly*: the pick prefers
//!   slots whose breaker allows work and falls back to every candidate
//!   when none does, so a breaker may delay work, never strand it.
//!
//! Held requests and orphans keep separate cursors: each stream rotates
//! over its own targets, as the round-robin balancer of §4.1.1 does.
//! Serving means a slot in the serving phase, so provisioning, warming,
//! draining, idle and lost slots take no work.

use qoserve_sim::{nums, SimTime};
use qoserve_workload::Priority;

use crate::recovery::{Slot, SHED_BELOW_UP_FRACTION};

/// Where an orphan goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Placement {
    /// The target slot: serving, and up at the re-dispatch instant.
    pub(crate) slot: u32,
    /// The breakers pruned the candidates: the pick was steered away
    /// from at least one up-but-unhealthy slot.
    pub(crate) diverted: bool,
}

/// The one owner of placement after the static pre-assignment.
#[derive(Default)]
pub(crate) struct Dispatcher {
    held_cursor: u64,
    orphan_cursor: u64,
}

impl Dispatcher {
    /// The next held request's slot, round-robin over `serving` (sorted
    /// ascending); `None` when nothing serves.
    pub(crate) fn held(&mut self, serving: &[u32]) -> Option<u32> {
        if serving.is_empty() {
            return None;
        }
        let slot =
            serving[nums::u64_to_usize(self.held_cursor % nums::usize_to_u64(serving.len()))];
        self.held_cursor += 1;
        Some(slot)
    }

    /// Places an orphan of `priority` re-dispatched at `at`, or `None`
    /// to shed it: no candidate (a serving slot whose replica is up at
    /// `at`) exists, or it is low priority and the candidates are fewer
    /// than `SHED_BELOW_UP_FRACTION` of the `held_or_lost` slots (every
    /// slot the fleet holds, plus those lost to a crash with no restart).
    /// `slots` are the kernel's, indexed by slot number.
    pub(crate) fn orphan(
        &mut self,
        serving: &[u32],
        held_or_lost: u32,
        priority: Priority,
        at: SimTime,
        slots: &[Slot],
    ) -> Option<Placement> {
        let slot_of = |r: u32| &slots[nums::u32_to_usize(r)];
        let candidates = || serving.iter().copied().filter(|&r| slot_of(r).up_at(at));
        // Serving filter before the fraction: a slot whose replica is up
        // but which the control plane holds idle or warming neither takes
        // work nor counts as surviving capacity.
        let total = candidates().count();
        let up_fraction = total as f64 / f64::from(held_or_lost.max(1));
        if total == 0 || (up_fraction < SHED_BELOW_UP_FRACTION && priority == Priority::Low) {
            return None;
        }
        let allows = |r: u32| slot_of(r).breaker.as_ref().is_none_or(|b| b.allows(at));
        let allowed = candidates().filter(|&r| allows(r)).count();
        let diverted = allowed > 0 && allowed < total;
        let pool = if diverted { allowed } else { total };
        let k = nums::u64_to_usize(self.orphan_cursor % nums::usize_to_u64(pool));
        let slot = candidates().filter(|&r| !diverted || allows(r)).nth(k)?;
        self.orphan_cursor += 1;
        Some(Placement { slot, diverted })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::CircuitBreaker;
    use crate::elastic::serving;
    use crate::lifecycle::Phase;
    use crate::recovery::tests::{is_up_at, slot};
    use qoserve_engine::{HealthRing, HealthSample, HealthSnapshot, HEALTH_WINDOW};
    use qoserve_sim::faults::{CrashEvent, FaultConfig};
    use qoserve_sim::{forall, Rng, SeedStream, SimDuration};

    /// The code the dispatcher replaced, kept as the reference it is
    /// checked against: the kernel's lifecycle-state view of its slots,
    /// its orphan path (that view filtering the schedule's up-set, the
    /// shed, then breaker-aware round-robin) and the incremental fleet
    /// router that placed held requests. The old selection also had a
    /// lifecycle stage of its own; its only caller passed no states, so
    /// it was the identity and is left out. The up-set is the schedule's
    /// outage rule as it was ([`is_up_at`]) over every replica's crash
    /// list.
    mod reference {
        use super::*;

        /// The lifecycle states slot phases were mapped to.
        #[derive(Debug, Clone, Copy)]
        pub(super) enum State {
            Provisioning,
            Warming,
            Up,
            Draining,
            Down,
        }

        impl State {
            /// Whether a slot in this state took new work.
            fn admits(self) -> bool {
                matches!(self, State::Up)
            }
        }

        pub(super) fn states(phases: &[Phase]) -> Vec<State> {
            phases
                .iter()
                .map(|p| match p {
                    Phase::Idle | Phase::Lost => State::Down,
                    Phase::Provisioning { .. } => State::Provisioning,
                    Phase::Warming { .. } => State::Warming,
                    Phase::Serving => State::Up,
                    Phase::Draining { .. } => State::Draining,
                })
                .collect()
        }

        /// The slots whose state takes work, ascending.
        pub(super) fn admitted(states: &[State]) -> Vec<u32> {
            (0..states.len() as u32)
                .filter(|&r| states[r as usize].admits())
                .collect()
        }

        fn round_robin(up: &[u32], rotation: u64) -> u32 {
            up[(rotation % up.len() as u64) as usize]
        }

        /// Breaker-aware selection: round-robin over the breaker-allowed
        /// subset of `up`, falling back to all of `up` when every breaker
        /// blocks. `(replica, diverted)`.
        fn pick(
            up: &[u32],
            breakers: &[Option<CircuitBreaker>],
            rotation: u64,
            at: SimTime,
        ) -> Option<(u32, bool)> {
            if up.is_empty() {
                return None;
            }
            let allowed: Vec<u32> = up
                .iter()
                .copied()
                .filter(|&r| breakers[r as usize].as_ref().is_none_or(|b| b.allows(at)))
                .collect();
            if allowed.is_empty() || allowed.len() == up.len() {
                return Some((round_robin(up, rotation), false));
            }
            Some((round_robin(&allowed, rotation), true))
        }

        /// One orphan of the kernel's re-dispatch loop.
        pub(super) fn orphan(
            crashes: &[Vec<CrashEvent>],
            states: &[State],
            fleet_size: u32,
            priority: Priority,
            breakers: &[Option<CircuitBreaker>],
            rotation: &mut u64,
            at: SimTime,
        ) -> Option<(u32, bool)> {
            let up: Vec<u32> = (0..crashes.len() as u32)
                .filter(|&r| is_up_at(&crashes[r as usize], at))
                .filter(|&r| states.get(r as usize).is_none_or(|s| s.admits()))
                .collect();
            let up_fraction = up.len() as f64 / fleet_size.max(1) as f64;
            let low_capacity = up_fraction < SHED_BELOW_UP_FRACTION && priority == Priority::Low;
            let picked = if low_capacity {
                None
            } else {
                pick(&up, breakers, *rotation, at)
            }?;
            *rotation += 1;
            Some(picked)
        }

        /// The fleet router's round-robin over the serving set.
        pub(super) fn route(serving: &[u32], cursor: &mut u64) -> Option<u32> {
            if serving.is_empty() {
                return None;
            }
            let t = round_robin(serving, *cursor);
            *cursor += 1;
            Some(t)
        }
    }

    /// A full judgement window at a 3x slowdown: opens a breaker.
    fn straggling() -> HealthSnapshot {
        let mut ring = HealthRing::new();
        for _ in 0..HEALTH_WINDOW {
            ring.record(HealthSample {
                degraded: true,
                ratio: 3.0,
            });
        }
        HealthSnapshot::from_ring(&ring, 0)
    }

    fn secs(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    fn random_phase(rng: &mut impl Rng) -> Phase {
        let t = secs(rng.gen_range(0..60));
        match rng.gen_range(0..9) {
            0 => Phase::Idle,
            1 => Phase::Provisioning {
                warm_at: t,
                up_at: t,
                decided_at: t,
            },
            2 => Phase::Warming {
                up_at: t,
                decided_at: t,
            },
            3 => Phase::Draining { deadline: t },
            4 => Phase::Lost,
            _ => Phase::Serving,
        }
    }

    /// Every held pick, orphan pick, shed and `diverted` flag equals the
    /// reference's over random fleets: slot phases (lost slots included),
    /// drawn crash lists with and without restarts, breakers absent, closed,
    /// or open within or past their cooldown, random priorities, and
    /// interleaved held and orphan picks. Work is never
    /// stranded, every pick is serving (and up, for orphans), and a pick
    /// is diverted only when a breaker-allowed subset exists.
    #[test]
    fn placements_match_the_replaced_code() {
        forall(512, 22, |rng| {
            let n = rng.gen_range(1..=8u32);
            let phases: Vec<Phase> = (0..n).map(|_| random_phase(rng)).collect();
            let held_or_lost = phases.iter().filter(|p| **p != Phase::Idle).count() as u32;
            let faults = FaultConfig {
                crash_rate_per_hour: [0.0, 60.0, 600.0][rng.gen_range(0..3)],
                restart_downtime: rng
                    .gen_bool(0.7)
                    .then(|| SimDuration::from_secs(rng.gen_range(1..30))),
                max_crashes_per_replica: 8,
                ..FaultConfig::none()
            };
            let seeds = SeedStream::new(rng.gen_range(0..1_000));
            let crashes: Vec<Vec<CrashEvent>> =
                (0..n).map(|r| faults.draw(r, secs(60), &seeds).0).collect();
            let breakers: Vec<Option<CircuitBreaker>> = (0..n)
                .map(|_| match rng.gen_range(0..4) {
                    0 => None,
                    1 => Some(CircuitBreaker::new()),
                    _ => {
                        let mut b = CircuitBreaker::new();
                        b.observe(&straggling(), secs(rng.gen_range(0..60)));
                        Some(b)
                    }
                })
                .collect();
            let slots: Vec<Slot> = (0..n as usize)
                .map(|r| Slot {
                    phase: phases[r],
                    ..slot(crashes[r].clone(), breakers[r].clone())
                })
                .collect();
            let serving = serving(&slots);
            let states = reference::states(&phases);
            assert_eq!(serving, reference::admitted(&states));
            let mut dispatcher = Dispatcher::default();
            let (mut held_cursor, mut rotation) = (0, 0);
            for _ in 0..rng.gen_range(1..40) {
                if rng.gen_range(0..3) == 0 {
                    let held = dispatcher.held(&serving);
                    assert_eq!(held, reference::route(&serving, &mut held_cursor));
                    assert_eq!(held.is_some(), !serving.is_empty(), "held work stranded");
                    continue;
                }
                let at = SimTime::from_micros(rng.gen_range(0..60_000_000));
                let priority = if rng.gen_bool(0.5) {
                    Priority::Low
                } else {
                    Priority::Important
                };
                let placed = dispatcher.orphan(&serving, held_or_lost, priority, at, &slots);
                let expected = reference::orphan(
                    &crashes,
                    &states,
                    held_or_lost,
                    priority,
                    &breakers,
                    &mut rotation,
                    at,
                );
                assert_eq!(placed.map(|p| (p.slot, p.diverted)), expected);

                let candidates: Vec<u32> = serving
                    .iter()
                    .copied()
                    .filter(|&r| is_up_at(&crashes[r as usize], at))
                    .collect();
                let allows = |r: u32| breakers[r as usize].as_ref().is_none_or(|b| b.allows(at));
                if priority == Priority::Important {
                    assert_eq!(placed.is_some(), !candidates.is_empty(), "orphan stranded");
                }
                if let Some(p) = placed {
                    assert!(candidates.contains(&p.slot), "{p:?} not serving and up");
                    let slot = p.slot as usize;
                    assert_eq!(phases[slot], Phase::Serving);
                    if p.diverted {
                        assert!(allows(p.slot));
                        assert!(candidates.iter().any(|&r| !allows(r)));
                    }
                }
            }
        });
    }
}
