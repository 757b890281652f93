//! Deterministic parallel execution: order-preserving maps and
//! need-ordered searches.
//!
//! Every paper artifact in this workspace is built from *independent,
//! seeded* simulations: a load sweep is `schemes × qps`, a goodput search
//! probes QPS points, a capacity plan probes replica counts. This module
//! runs them on all available cores while guaranteeing **bit-identical
//! output to the serial path**:
//!
//! * [`par_map`] preserves input order: result `i` always comes from input
//!   `i`, regardless of which worker claimed it or in what order tasks
//!   finished.
//! * Tasks receive their index, so seed derivation (e.g.
//!   [`SeedStream::derive_indexed`](crate::rng::SeedStream::derive_indexed)
//!   or reconstructing `SeedStream::new(seed)` per task) depends only on
//!   `(seed, index)` — never on thread identity or scheduling order.
//! * [`par_max_passing`] (a geometric ramp, then bisection) and
//!   [`par_position`] (the first passing item) are serial walks in which
//!   each probe depends on the verdicts before it. Each free worker runs
//!   the probe the walk needs next; when that probe is already running,
//!   it follows the walk on a guessed verdict and runs the first probe on
//!   that path that nobody has run. Answers are read only from known
//!   verdicts, so they equal the serial walk's for any predicate, and no
//!   probe the walk has already ruled out (above a known ramp failure,
//!   after a known pass) is ever started.
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

use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, MutexGuard, OnceLock, PoisonError};
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

/// Worker count when no override is set: one per available core, read
/// once per process (on Linux each read parses the cgroup CPU limits).
fn default_threads() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Number of worker threads parallel helpers use: the `QOSERVE_THREADS`
/// environment variable if set to a positive integer (read on every
/// call, so a process may switch it between runs), otherwise
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

/// Finds (approximately) the largest `x` in `[lo, hi]` for which
/// `passes(x)` holds, assuming `passes` is monotone; `None` when even `lo`
/// fails.
///
/// The walk probes `lo`, then a geometric ramp (`×1.5`, first step at
/// least `resolution`) up to `hi`, stops at the first failing point and
/// bisects the bracket it closes down to `resolution`. Each probe
/// typically runs a full simulation. On [`thread_limit`] workers, the
/// walk's next probe runs first; a worker that finds it already running
/// guesses its verdict (a ramp point passes, a midpoint fails) and runs
/// the next probe on that path instead. The answer is read from known
/// verdicts only, so it is bit-identical to the serial walk's for any
/// predicate and thread count; at one thread the probes are exactly the
/// serial walk's. No probe above a known ramp failure is ever started,
/// and no value is probed twice. A guessed probe that is still running
/// when the answer is known finishes before the call returns.
///
/// # Panics
///
/// Panics if `lo > hi`, `hi` is not finite, `resolution` is not positive,
/// or `lo + resolution` is not positive (the ramp could never reach
/// `hi`); these are checked before any probe runs. A panic in `passes`
/// reaches the caller once every worker has stopped.
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
    max_passing_threads(thread_limit(), lo, hi, resolution, passes)
}

/// [`par_max_passing`] on `threads` workers.
fn max_passing_threads<F>(
    threads: usize,
    lo: f64,
    hi: f64,
    resolution: f64,
    passes: F,
) -> Option<f64>
where
    F: Fn(f64) -> bool + Sync,
{
    assert!(lo <= hi, "lo must be <= hi");
    assert!(hi.is_finite(), "hi must be finite");
    assert!(resolution > 0.0, "resolution must be positive");
    assert!(
        lo + resolution > 0.0,
        "lo + resolution must be positive, or the ramp never grows"
    );
    search(
        threads,
        |ask| ramp_then_bisect(lo, hi, resolution, ask),
        |bits| passes(f64::from_bits(bits)),
    )
}

/// Index of the first item of `items` for which `passes` holds, like
/// `items.iter().position(passes)`, with the probes run on
/// [`thread_limit`] workers.
///
/// The walk probes the items in order. A worker that finds the walk's
/// next item already running guesses that it fails and probes the next
/// item nobody has run. The answer is read from known verdicts only, so
/// it equals the serial scan's for any predicate and thread count, and no
/// item after a known pass is ever probed. A guessed probe that is still
/// running when the answer is known finishes before the call returns.
///
/// # Panics
///
/// A panic in `passes` reaches the caller once every worker has stopped.
///
/// # Example
///
/// ```
/// use qoserve_sim::parallel::par_position;
///
/// let pools = [1u32, 2, 3, 4, 5, 6];
/// assert_eq!(par_position(&pools, |&n| n * 4 >= 14), Some(3));
/// assert_eq!(par_position(&pools, |&n| n > 6), None);
/// ```
pub fn par_position<T, F>(items: &[T], passes: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    position_threads(thread_limit(), items, passes)
}

/// [`par_position`] on `threads` workers (at most one per item).
fn position_threads<T, F>(threads: usize, items: &[T], passes: F) -> Option<usize>
where
    T: Sync,
    F: Fn(&T) -> bool + Sync,
{
    search(
        threads.min(items.len()),
        |ask| first_passing(items.len(), ask),
        |i| passes(&items[i]),
    )
}

/// A walk's view of one probe, `ask(key, guess)`: the probe's verdict
/// once known, `guess` while it runs, and `None` (which ends the walk)
/// for a probe nobody has run.
type Ask<'a, K> = &'a mut dyn FnMut(K, bool) -> Option<bool>;

/// The goodput walk behind [`par_max_passing`], keyed by each probe's
/// bits: `Some(answer)` when it finishes, `None` when it stops at an
/// unrun probe. Ramp points (and `lo` and `hi`) guess pass, so workers
/// claim the ramp in order; midpoints guess fail, the lower and cheaper
/// branch.
fn ramp_then_bisect(lo: f64, hi: f64, resolution: f64, ask: Ask<'_, u64>) -> Option<Option<f64>> {
    let mut passes = |x: f64, guess| ask(x.to_bits(), guess);
    if !passes(lo, true)? {
        return Some(None);
    }
    let mut good = lo;
    let mut bad = None;
    let mut probe = (lo * 1.5).max(lo + resolution);
    while probe < hi {
        if passes(probe, true)? {
            good = probe;
            probe *= 1.5;
        } else {
            bad = Some(probe);
            break;
        }
    }
    let mut bad = match bad {
        Some(bad) => bad,
        None if passes(hi, true)? => return Some(Some(hi)),
        None => hi,
    };
    while bad - good > resolution {
        let mid = (good + bad) / 2.0;
        if passes(mid, false)? {
            good = mid;
        } else {
            bad = mid;
        }
    }
    Some(Some(good))
}

/// The walk behind [`par_position`]: items `0..n` in order, each
/// guessing fail.
fn first_passing(n: usize, ask: Ask<'_, usize>) -> Option<Option<usize>> {
    for i in 0..n {
        if ask(i, false)? {
            return Some(Some(i));
        }
    }
    Some(None)
}

/// Verdicts of one search: `Some(verdict)` once a probe has run, `None`
/// while it runs.
struct Table<K> {
    probes: BTreeMap<K, Option<bool>>,
    /// The first panic a probe raised, re-raised by [`search`].
    panic: Option<Box<dyn Any + Send>>,
}

impl<K> Default for Table<K> {
    fn default() -> Self {
        Table {
            probes: BTreeMap::new(),
            panic: None,
        }
    }
}

/// What a worker does next, from one pass of the walk over the table.
enum Next<K, A> {
    /// The walk finished on known verdicts alone.
    Answer(A),
    /// The first probe on the walk's path, guessing through running
    /// probes, that nobody has run.
    Run(K),
    /// Every probe on that path is known or running.
    Wait,
}

impl<K: Copy + Ord> Table<K> {
    fn next<A>(&self, walk: &impl Fn(Ask<'_, K>) -> Option<A>) -> Next<K, A> {
        let mut guessed = false;
        let mut unrun = None;
        let finished = walk(&mut |key, guess| match self.probes.get(&key) {
            Some(Some(verdict)) => Some(*verdict),
            Some(None) => {
                guessed = true;
                Some(guess)
            }
            None => {
                unrun = Some(key);
                None
            }
        });
        match (finished, unrun) {
            (Some(answer), _) if !guessed => Next::Answer(answer),
            (_, Some(key)) => Next::Run(key),
            _ => Next::Wait,
        }
    }
}

/// One search's shared state.
struct Search<K, W, P> {
    walk: W,
    probe: P,
    #[expect(
        clippy::disallowed_types,
        reason = "taken to pick a probe and to record its verdict, never while a probe runs; no simulation step locks it"
    )]
    table: std::sync::Mutex<Table<K>>,
    /// Signalled whenever a verdict (or a panic) lands in the table.
    verdict: Condvar,
}

/// The need-ordered probe engine: runs `walk` on `workers` workers (the
/// calling thread is one of them), each running `probe` on the key
/// [`Table::next`] picks, and returns the walk's answer. A worker never
/// holds the table's lock while a probe runs; with nothing to run, it
/// waits for the next verdict. At one worker nothing is ever running
/// while the walk is read, so the probes are exactly the serial walk's.
fn search<K, A, W, P>(workers: usize, walk: W, probe: P) -> A
where
    K: Copy + Ord + Send,
    W: Fn(Ask<'_, K>) -> Option<A> + Sync,
    P: Fn(K) -> bool + Sync,
{
    let search = Search {
        walk,
        probe,
        table: Default::default(),
        verdict: Condvar::new(),
    };
    let answer = thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(|| {
                let _ = search.work();
            });
        }
        search.work()
    });
    let panic = search.lock().panic.take();
    match (answer, panic) {
        (Some(answer), None) => answer,
        (_, payload) => resume_unwind(
            payload.unwrap_or_else(|| Box::new("probe search ended without an answer")),
        ),
    }
}

impl<K, A, W, P> Search<K, W, P>
where
    K: Copy + Ord,
    W: Fn(Ask<'_, K>) -> Option<A>,
    P: Fn(K) -> bool,
{
    /// The table, recovered if poisoned: probes run outside the lock and
    /// their panics are caught, so no update is ever left half done.
    fn lock(&self) -> MutexGuard<'_, Table<K>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// One worker's loop: `Some(answer)` once the walk finishes, `None`
    /// once any probe has panicked.
    fn work(&self) -> Option<A> {
        let mut table = self.lock();
        loop {
            if table.panic.is_some() {
                return None;
            }
            match table.next(&self.walk) {
                Next::Answer(answer) => return Some(answer),
                Next::Wait => {
                    table = self
                        .verdict
                        .wait(table)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Next::Run(key) => {
                    table.probes.insert(key, None);
                    drop(table);
                    let verdict = catch_unwind(AssertUnwindSafe(|| (self.probe)(key)));
                    table = self.lock();
                    match verdict {
                        Ok(passed) => {
                            table.probes.insert(key, Some(passed));
                        }
                        Err(payload) => {
                            table.panic.get_or_insert(payload);
                        }
                    }
                    self.verdict.notify_all();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Rng, RngCore};
    use std::collections::BTreeSet;
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

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
    fn result_always_passes() {
        let boundary = 4.21;
        let got = max_passing_threads(1, 0.5, 16.0, 0.02, |x| x <= boundary).unwrap();
        assert!(got <= boundary + 1e-12);
        assert!(boundary - got <= 0.02);
    }

    #[test]
    fn probe_count_is_modest() {
        let count = AtomicUsize::new(0);
        let _ = max_passing_threads(1, 0.5, 64.0, 0.05, |x| {
            count.fetch_add(1, Ordering::Relaxed);
            x <= 31.0
        });
        let count = count.into_inner();
        assert!(count < 30, "used {count} probes");
    }

    #[test]
    #[should_panic(expected = "resolution must be positive")]
    fn rejects_zero_resolution() {
        let _ = par_max_passing(1.0, 2.0, 0.0, |_| true);
    }

    #[test]
    #[should_panic(expected = "lo + resolution must be positive")]
    fn rejects_a_ramp_that_cannot_grow() {
        // The first ramp step would be max(-0.75, 0.0) = 0, and 0 × 1.5
        // never reaches hi.
        let _ = par_max_passing(-0.5, 2.0, 0.5, |_| panic!("probed before the range check"));
    }

    #[test]
    #[should_panic(expected = "hi must be finite")]
    fn rejects_an_infinite_hi() {
        let _ = par_max_passing(1.0, f64::INFINITY, 0.1, |_| {
            panic!("probed before the range check")
        });
    }

    /// The serial goodput walk the search must reproduce: `lo`, a
    /// geometric ramp up to `hi`, then bisection of the first failing
    /// bracket.
    fn serial(
        lo: f64,
        hi: f64,
        resolution: f64,
        mut passes: impl FnMut(f64) -> bool,
    ) -> Option<f64> {
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

    /// The acceptance bar for the whole module: identical output to the
    /// serial search across many boundaries, resolutions, and ranges.
    #[test]
    fn matches_serial_search_bit_for_bit() {
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

    /// SplitMix64's finaliser: verdicts and sleeps keyed by a probe.
    fn mix(mut x: u64) -> u64 {
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Runs a probe keyed by `key`: records the key, then sleeps 0–2 ms
    /// derived from it, so that workers finish in a different order for
    /// different keys.
    fn timed_probe(log: &mpsc::Sender<u64>, key: u64) {
        log.send(key).unwrap();
        thread::sleep(Duration::from_micros(mix(key) % 2_000));
    }

    /// Checks one search's probe log: no key twice and, at one worker,
    /// exactly the serial walk's sequence.
    fn check_log(workers: usize, log: mpsc::Receiver<u64>, serial_log: &[u64]) {
        let probed: Vec<u64> = log.try_iter().collect();
        let distinct: BTreeSet<u64> = probed.iter().copied().collect();
        assert_eq!(
            distinct.len(),
            probed.len(),
            "a value probed twice at {workers} workers"
        );
        if workers == 1 {
            assert_eq!(
                probed, serial_log,
                "one worker must probe the serial sequence"
            );
        }
    }

    #[test]
    fn max_passing_matches_the_serial_walk_at_any_worker_count() {
        crate::forall(40, 20, |rng| {
            let lo = if rng.gen_bool(0.2) {
                0.0
            } else {
                rng.gen_range(0.05..4.0)
            };
            let hi = if rng.gen_bool(0.1) {
                lo
            } else {
                lo + rng.gen_range(0.0..30.0)
            };
            let resolution = 10f64.powf(rng.gen_range(-1.7..0.3));
            // A monotone boundary (possibly below lo or above hi), or an
            // arbitrary table keyed by the probe's bits.
            let boundary = rng.gen_range(lo - 1.0..hi + 1.0);
            let table = (rng.gen_bool(0.5), rng.next_u64(), rng.gen_range(500..1_000));
            let verdict = |x: f64| match table {
                (true, _, _) => x <= boundary,
                (false, salt, per_mille) => mix(x.to_bits() ^ salt) % 1_000 < per_mille,
            };
            let mut serial_log = Vec::new();
            let want = serial(lo, hi, resolution, |x| {
                serial_log.push(x.to_bits());
                verdict(x)
            });
            for workers in 1..=4 {
                let (log, probed) = mpsc::channel();
                let got = max_passing_threads(workers, lo, hi, resolution, |x| {
                    timed_probe(&log, x.to_bits());
                    verdict(x)
                });
                assert_eq!(
                    got.map(f64::to_bits),
                    want.map(f64::to_bits),
                    "workers={workers} lo={lo} hi={hi} res={resolution} table={table:?}"
                );
                check_log(workers, probed, &serial_log);
            }
        });
    }

    #[test]
    fn position_matches_the_serial_scan_at_any_worker_count() {
        crate::forall(40, 21, |rng| {
            let n = rng.gen_range(0..12);
            let odds = rng.gen_range(0.0..0.5);
            let verdicts: Vec<bool> = (0..n).map(|_| rng.gen_bool(odds)).collect();
            let want = verdicts.iter().position(|&v| v);
            let serial_log: Vec<u64> = (0..want.map_or(n, |i| i + 1) as u64).collect();
            let items: Vec<usize> = (0..n).collect();
            for workers in 1..=4 {
                let (log, probed) = mpsc::channel();
                let got = position_threads(workers, &items, |&i| {
                    timed_probe(&log, i as u64);
                    verdicts[i]
                });
                assert_eq!(got, want, "workers={workers} verdicts={verdicts:?}");
                check_log(workers, probed, &serial_log);
            }
        });
    }

    #[test]
    fn a_probe_panic_reaches_the_caller_while_another_worker_waits() {
        // Items 0 and 1 run together (the barrier holds each probe until
        // both have started). The other probe's verdict cannot finish the
        // walk, so its worker waits for the panicking probe's verdict.
        for panicking in [0usize, 1] {
            let (done, result) = mpsc::channel();
            let search = thread::spawn(move || {
                let both_running = Barrier::new(2);
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    position_threads(2, &[0usize, 1], |&i| {
                        both_running.wait();
                        assert!(i != panicking, "probe {i} failed");
                        i == 1
                    })
                }));
                let _ = done.send(outcome.map_err(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default()
                }));
            });
            let outcome = result
                .recv_timeout(Duration::from_secs(20))
                .expect("the search hung after a probe panicked");
            search.join().unwrap();
            assert_eq!(outcome, Err(format!("probe {panicking} failed")));
        }
    }
}
