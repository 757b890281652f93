//! Control-instant observation: the hook the cluster kernels use to let
//! an observer (the `qoserve-stats` aggregator) take deterministic
//! snapshots *during* a run.
//!
//! # Why a trait here
//!
//! Live statistics must be folded at deterministic simulated-time
//! boundaries or the snapshot stream depends on thread interleaving.
//! The only places that can guarantee "every replica's clock has reached
//! `t`" are the cluster kernels' control-instant loops — but `qoserve-
//! cluster` must not depend on `qoserve-stats` (stats consumes cluster
//! output in bins and tests). Both crates already depend on this one, so
//! the narrow waist lives here: kernels drive any [`ControlObserver`]
//! handed to them, and the stats crate implements it.
//!
//! # Determinism contract
//!
//! A kernel driving an observer guarantees, for every boundary `t` it
//! reports via [`boundary`](ControlObserver::boundary):
//!
//! * `t` was obtained from [`next_boundary`](ControlObserver::next_boundary)
//!   and boundaries are visited in strictly increasing order;
//! * when `boundary(t)` runs, every runnable replica clock has reached at
//!   least `t`, so the set of trace records with `time_us < t` emitted so
//!   far is a pure function of the simulation — never of thread count or
//!   interleaving (orchestrator records can still be stamped *ahead* of
//!   the boundary, e.g. a scheduled re-dispatch; those fold later, which
//!   is equally deterministic);
//! * [`finish`](ControlObserver::finish) runs exactly once, after the
//!   last replica event, with the run's end time;
//! * the kernel [flushes](crate::Tracer::flush) its tracer before each
//!   `boundary` and before `finish`, so a sink the observer reads (the
//!   stats tee) has seen every record emitted so far.
//!
//! Observers must be behaviorally invisible: kernels promise that runs
//! with and without an observer produce bit-identical outcomes, so an
//! observer must never mutate anything the simulation reads.

use qoserve_sim::SimTime;

/// An observer driven at deterministic control instants by the cluster
/// kernels (see the module docs for the exact contract).
pub trait ControlObserver {
    /// The first boundary strictly after `after`, or `None` when the
    /// observer wants no further mid-run boundaries. Must be monotone:
    /// repeated calls with the same `after` return the same instant.
    fn next_boundary(&self, after: SimTime) -> Option<SimTime>;

    /// Called once per boundary, when every runnable replica clock has
    /// reached `at`.
    fn boundary(&self, at: SimTime);

    /// Called exactly once at the end of the run with the run's end time
    /// (the maximum of all replica clocks and orchestrator instants).
    fn finish(&self, at: SimTime);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    /// A scripted observer recording the calls it receives, used to pin
    /// the trait's object-safety and call shape.
    struct Script {
        every: u64,
        log: RefCell<Vec<(String, u64)>>,
    }

    impl ControlObserver for Script {
        fn next_boundary(&self, after: SimTime) -> Option<SimTime> {
            let n = (after.as_micros() / self.every + 1) * self.every;
            Some(SimTime::from_micros(n))
        }

        fn boundary(&self, at: SimTime) {
            self.log.borrow_mut().push(("b".into(), at.as_micros()));
        }

        fn finish(&self, at: SimTime) {
            self.log.borrow_mut().push(("f".into(), at.as_micros()));
        }
    }

    #[test]
    fn observer_is_object_safe_and_monotone() {
        let s = Script {
            every: 10,
            log: RefCell::new(Vec::new()),
        };
        let obs: &dyn ControlObserver = &s;
        let mut t = SimTime::ZERO;
        for _ in 0..3 {
            let n = obs.next_boundary(t).unwrap();
            assert!(n > t);
            assert_eq!(obs.next_boundary(t), Some(n));
            obs.boundary(n);
            t = n;
        }
        obs.finish(t);
        let log = s.log.borrow();
        assert_eq!(
            *log,
            vec![
                ("b".to_owned(), 10),
                ("b".to_owned(), 20),
                ("b".to_owned(), 30),
                ("f".to_owned(), 30),
            ]
        );
    }
}
