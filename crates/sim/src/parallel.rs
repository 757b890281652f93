//! Deterministic, order-preserving parallel execution.
//!
//! Every paper artifact in this workspace is a grid of *independent,
//! seeded* simulations: a load sweep is `schemes × qps`, a goodput search
//! probes many QPS points, a capacity plan probes many replica counts.
//! This module runs such grids on all available cores while guaranteeing
//! **bit-identical output to the serial path**:
//!
//! * [`par_map`] preserves input order: result `i` always comes from input
//!   `i`, regardless of which worker claimed it or in what order tasks
//!   finished.
//! * Tasks receive their index, so seed derivation (e.g.
//!   [`SeedStream::derive_indexed`](crate::rng::SeedStream::derive_indexed)
//!   or reconstructing `SeedStream::new(seed)` per task) depends only on
//!   `(seed, index)` — never on thread identity or scheduling order.
//! * [`par_max_passing`] evaluates the same probe grid as
//!   `qoserve_metrics::max_supported_load` (geometric ramp, then
//!   bisection) and brackets on the *first* failing ramp point, so it
//!   returns the identical boundary for any deterministic predicate.
//!
//! Worker count defaults to [`std::thread::available_parallelism`] and can
//! be overridden with the `QOSERVE_THREADS` environment variable
//! (`QOSERVE_THREADS=1` recovers fully serial execution). The thread count
//! affects wall-clock time only, never results.
//!
//! # Example
//!
//! ```
//! use qoserve_sim::parallel::par_map;
//!
//! let squares = par_map((1..=5).collect::<Vec<u64>>(), |i, x| (i, x * x));
//! assert_eq!(squares, vec![(0, 1), (1, 4), (2, 9), (3, 16), (4, 25)]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread;

/// Environment variable overriding the worker-thread count.
pub const THREADS_ENV: &str = "QOSERVE_THREADS";

/// Parses a `QOSERVE_THREADS` value; `None` for anything that is not a
/// positive integer.
fn parse_threads(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Worker count when no override is set: one per available core.
fn default_threads() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Number of worker threads parallel helpers use: the `QOSERVE_THREADS`
/// environment variable if set to a positive integer, otherwise
/// [`std::thread::available_parallelism`].
///
/// Thread count never affects results — only how fast they arrive.
pub fn thread_limit() -> usize {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| parse_threads(&v))
        .unwrap_or_else(default_threads)
}

/// Maps `f` over `items` on [`thread_limit`] worker threads, preserving
/// input order in the output.
///
/// `f` receives `(index, item)` so per-task seeds can be derived purely
/// from the task's position; because output slot `i` is always filled from
/// input `i`, the result is bit-identical to
/// `items.into_iter().enumerate().map(|(i, x)| f(i, x)).collect()` for any
/// thread count.
///
/// Panics in `f` propagate to the caller once all workers have stopped.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    par_map_threads(thread_limit(), items, f)
}

/// [`par_map`] with an explicit worker count (mainly for tests; callers
/// should let `QOSERVE_THREADS` decide).
pub fn par_map_threads<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, x)| f(i, x))
            .collect();
    }

    // Index-claim loop: each worker atomically claims the next unstarted
    // task, so load-imbalanced grids (e.g. overloaded QPS points that
    // simulate far more work) stay busy on all cores without any
    // order-sensitive work stealing.
    #[expect(
        clippy::disallowed_types,
        reason = "one uncontended acquisition per *task*, not per iteration: the atomic index claim guarantees a single owner per slot"
    )]
    let slots: Vec<_> = items
        .into_iter()
        .map(|x| std::sync::Mutex::new(Some(x)))
        .collect();
    #[expect(
        clippy::disallowed_types,
        reason = "one uncontended acquisition per *task*, not per iteration: the atomic index claim guarantees a single owner per slot"
    )]
    let results: Vec<_> = (0..n).map(|_| std::sync::Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                #[expect(
                    clippy::expect_used,
                    reason = "a poisoned slot means `f` panicked on another worker, which the scope re-raises; the atomic index claim gives each slot one taker"
                )]
                let item = slots[i]
                    .lock()
                    .expect("task slot poisoned")
                    .take()
                    .expect("task claimed twice");
                let out = f(i, item);
                #[expect(
                    clippy::expect_used,
                    reason = "a poisoned slot means `f` panicked on another worker, which the scope re-raises"
                )]
                let mut result = results[i].lock().expect("result slot poisoned");
                *result = Some(out);
            });
        }
    });

    let mut out = Vec::with_capacity(n);
    for slot in results {
        #[expect(
            clippy::expect_used,
            reason = "the scope has joined every worker and re-raised any panic, so each slot is unpoisoned and filled"
        )]
        out.push(
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("worker exited without storing a result"),
        );
    }
    out
}

/// Parallel counterpart of `qoserve_metrics::max_supported_load`: finds
/// (approximately) the largest `x` in `[lo, hi]` for which `passes(x)`
/// holds, assuming `passes` is monotone.
///
/// The serial routine probes a geometric ramp one point at a time and
/// stops at the first failure; each probe typically runs a full
/// simulation, so on a multicore host most of that wall-clock is wasted
/// serialization. This version evaluates the *entire* ramp grid (plus `lo`
/// and `hi`) concurrently with [`par_map`], then brackets on the first
/// failing grid point — the same bracket the serial scan would have found,
/// even for a non-monotone predicate — and finishes with the identical
/// serial bisection. Same probe grid, same bracket, same midpoints: the
/// returned boundary is bit-identical to the serial path.
///
/// # Panics
///
/// Panics if `lo > hi`, or `resolution` is not positive.
///
/// # Example
///
/// ```
/// use qoserve_sim::parallel::par_max_passing;
/// // Boundary at 3.7.
/// let got = par_max_passing(0.5, 10.0, 0.1, |qps| qps <= 3.7).unwrap();
/// assert!((got - 3.7).abs() <= 0.1);
/// ```
pub fn par_max_passing<F>(lo: f64, hi: f64, resolution: f64, passes: F) -> Option<f64>
where
    F: Fn(f64) -> bool + Sync,
{
    assert!(lo <= hi, "lo must be <= hi");
    assert!(resolution > 0.0, "resolution must be positive");

    // The exact probe sequence of the serial geometric ramp.
    let mut grid = vec![lo];
    let mut probe = (lo * 1.5).max(lo + resolution);
    while probe < hi {
        grid.push(probe);
        probe *= 1.5;
    }
    grid.push(hi);

    let verdicts = par_map(grid.clone(), |_, qps| passes(qps));

    if !verdicts[0] {
        return None;
    }
    // First failure over [ramp.., hi] gives the same bracket the serial
    // scan stops at; if everything up to and including hi passes, hi is
    // the answer.
    let first_fail = match (1..grid.len()).find(|&i| !verdicts[i]) {
        None => return Some(hi),
        Some(i) => i,
    };
    let mut good = grid[first_fail - 1];
    let mut bad = grid[first_fail];

    // Bisection is inherently sequential (each midpoint depends on the
    // previous verdict) and cheap relative to the ramp; identical
    // arithmetic to the serial path keeps the result bit-identical.
    while bad - good > resolution {
        let mid = (good + bad) / 2.0;
        if passes(mid) {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(good)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(items, |i, x| {
            assert_eq!(i as u64, x);
            x * 3 + 1
        });
        assert_eq!(out.len(), 1000);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i as u64 * 3 + 1);
        }
    }

    #[test]
    fn thread_count_never_changes_results() {
        let items: Vec<u32> = (0..257).rev().collect();
        let serial = par_map_threads(1, items.clone(), |i, x| (i, x.wrapping_mul(2654435761)));
        for threads in [2, 3, 8, 64] {
            let parallel = par_map_threads(threads, items.clone(), |i, x| {
                (i, x.wrapping_mul(2654435761))
            });
            assert_eq!(parallel, serial, "threads={threads}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_map(empty, |_, x: u8| x).is_empty());
        assert_eq!(par_map(vec![7u8], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn par_map_moves_non_clone_items() {
        struct Opaque(String);
        let items = vec![Opaque("a".into()), Opaque("b".into())];
        let out = par_map(items, |_, x| x.0);
        assert_eq!(out, vec!["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        assert_eq!(parse_threads("4"), Some(4));
        assert_eq!(parse_threads(" 12 "), Some(12));
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("-2"), None);
        assert_eq!(parse_threads("many"), None);
        assert_eq!(parse_threads(""), None);
    }

    #[test]
    fn finds_internal_boundary() {
        let got = par_max_passing(0.5, 20.0, 0.05, |x| x <= 7.3).unwrap();
        assert!((got - 7.3).abs() <= 0.05, "got {got}");
    }

    #[test]
    fn returns_none_when_lo_fails() {
        assert_eq!(par_max_passing(2.0, 10.0, 0.1, |_| false), None);
    }

    #[test]
    fn returns_hi_when_everything_passes() {
        assert_eq!(par_max_passing(1.0, 10.0, 0.1, |_| true), Some(10.0));
    }

    #[test]
    fn boundary_below_first_probe() {
        let got = par_max_passing(1.0, 100.0, 0.01, |x| x <= 1.004).unwrap();
        assert!((1.0..=1.01).contains(&got), "got {got}");
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn rejects_zero_resolution() {
        let _ = par_max_passing(1.0, 2.0, 0.0, |_| true);
    }

    /// The acceptance bar for the whole module: identical output to the
    /// serial search across many boundaries, resolutions, and ranges.
    #[test]
    fn matches_serial_search_bit_for_bit() {
        // Local copy of the serial algorithm (`max_supported_load` lives
        // in qoserve-metrics, which depends on this crate).
        fn serial(lo: f64, hi: f64, resolution: f64, passes: impl Fn(f64) -> bool) -> Option<f64> {
            if !passes(lo) {
                return None;
            }
            let mut good = lo;
            let mut bad = None;
            let mut probe = (lo * 1.5).max(lo + resolution);
            while probe < hi {
                if passes(probe) {
                    good = probe;
                    probe *= 1.5;
                } else {
                    bad = Some(probe);
                    break;
                }
            }
            let mut bad = match bad {
                Some(b) => b,
                None => {
                    if passes(hi) {
                        return Some(hi);
                    }
                    hi
                }
            };
            while bad - good > resolution {
                let mid = (good + bad) / 2.0;
                if passes(mid) {
                    good = mid;
                } else {
                    bad = mid;
                }
            }
            Some(good)
        }

        let mut boundary = 0.31f64;
        while boundary < 30.0 {
            let pred = |x: f64| x <= boundary;
            for (lo, hi, res) in [
                (0.25, 24.0, 0.1),
                (0.5, 30.0, 0.25),
                (1.0, 16.0, 0.02),
                (0.31, 12.0, 0.05),
            ] {
                let want = serial(lo, hi, res, pred);
                let got = par_max_passing(lo, hi, res, pred);
                // Bit-identical, not merely approximately equal.
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "boundary={boundary} lo={lo} hi={hi} res={res}"
                );
            }
            boundary += 0.83;
        }
    }
}
