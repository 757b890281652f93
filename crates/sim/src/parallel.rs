//! Deterministic parallel execution: a scoped worker set, order-preserving
//! maps and need-ordered searches.
//!
//! Every paper artifact in this workspace is built from *independent,
//! seeded* simulations: a load sweep is `schemes × qps`, a goodput search
//! probes QPS points, a capacity plan probes replica counts. This module
//! runs them on all available cores while guaranteeing **bit-identical
//! output to the serial path**:
//!
//! * [`with_workers`] starts one scoped [`Workers`] set: `threads − 1`
//!   helper threads, started once, plus the calling thread, which works
//!   too. Each [`Workers::run`] hands the set a batch of indexed tasks;
//!   every worker claims the next unclaimed task until the batch is done,
//!   so uneven tasks keep every worker busy. The set lives until its body
//!   returns, so a caller that runs many batches (the cluster kernel runs
//!   one per sharded epoch) starts its threads once. Spawning, claiming
//!   and panic propagation live here, and every helper below runs on it.
//! * [`par_map`] is one batch on a set of its own, and preserves input
//!   order: result `i` always comes from input `i`, regardless of which
//!   worker claimed it or in what order tasks finished.
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
//! (`QOSERVE_THREADS=1` recovers fully serial execution); the cluster
//! kernel reads it once per run. Helpers never nest: inside a task of a
//! set with two or more workers, [`thread_limit`] is 1, so a helper
//! called there ([`par_map`], a kernel run's set, a search) runs
//! serially on that worker instead of starting threads of its own. A
//! sweep of kernel runs therefore holds one set of threads, not one per
//! cell. An outer map with fewer items than workers leaves the rest
//! idle, so a caller with a few independent runs calls them one after
//! another instead, each on every worker. The thread count affects
//! wall-clock time only, never results.
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
use std::cell::Cell;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
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

thread_local! {
    /// Set on a worker set's helper threads for their whole life, and on
    /// the calling thread while it runs one of the set's tasks.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a worker until dropped, then restores the
/// previous mark (also when a task unwinds).
struct WorkerMark(bool);

impl WorkerMark {
    fn set() -> Self {
        WorkerMark(IN_WORKER.replace(true))
    }
}

impl Drop for WorkerMark {
    fn drop(&mut self) {
        IN_WORKER.set(self.0);
    }
}

/// Number of worker threads parallel helpers use: 1 inside a task of a
/// worker set with two or more workers (helpers never nest), otherwise
/// the `QOSERVE_THREADS` environment variable if set to a positive
/// integer (read on every call, so a process may switch it between
/// runs), otherwise [`std::thread::available_parallelism`]. The cluster
/// kernel reads it once per run and starts one worker set for the run.
///
/// Thread count never affects results — only how fast they arrive.
pub fn thread_limit() -> usize {
    if IN_WORKER.get() {
        return 1;
    }
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|v| parse_threads(&v))
        .unwrap_or_else(default_threads)
}

/// What a worker set's threads share, behind one lock.
struct Batch<T, R> {
    /// Tasks not yet claimed, claimed from the front.
    tasks: VecDeque<(usize, T)>,
    /// `(index, result)` of the finished tasks, in finishing order: the
    /// caller's buffer, lent to the set while a batch runs.
    done: Vec<(usize, R)>,
    /// Claimed tasks still running.
    running: usize,
    /// The first panic a task raised, re-raised by [`Workers::run`].
    panic: Option<Box<dyn Any + Send>>,
    /// Set once the set's body has returned: the helpers exit.
    closed: bool,
}

impl<T, R> Default for Batch<T, R> {
    fn default() -> Self {
        Batch {
            tasks: VecDeque::new(),
            done: Vec::new(),
            running: 0,
            panic: None,
            closed: false,
        }
    }
}

/// A worker set's shared state.
struct Shared<T, R> {
    #[expect(
        clippy::disallowed_types,
        reason = "taken to claim a task and to file its result, never while a task runs; no simulation step locks it"
    )]
    batch: std::sync::Mutex<Batch<T, R>>,
    /// Signalled when tasks are queued or the set closes.
    queued: Condvar,
    /// Signalled when the last running task of a batch finishes.
    idle: Condvar,
}

impl<T, R> Shared<T, R> {
    /// The batch, recovered if poisoned: tasks run outside the lock and
    /// their panics are caught, so no update is ever left half done.
    fn lock(&self) -> MutexGuard<'_, Batch<T, R>> {
        self.batch.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Runs the claimed task `(i, task)` outside the lock and files its
    /// result. A panic is kept for the caller and drops every unclaimed
    /// task, so the batch ends as soon as the running ones finish.
    fn execute<'a>(
        &'a self,
        mut batch: MutexGuard<'a, Batch<T, R>>,
        job: &(dyn Fn(usize, T) -> R + Sync),
        (i, task): (usize, T),
    ) -> MutexGuard<'a, Batch<T, R>> {
        batch.running += 1;
        drop(batch);
        let result = catch_unwind(AssertUnwindSafe(|| job(i, task)));
        let mut batch = self.lock();
        batch.running -= 1;
        match result {
            Ok(r) => batch.done.push((i, r)),
            Err(payload) => {
                batch.panic.get_or_insert(payload);
                batch.tasks.clear();
            }
        }
        if batch.running == 0 {
            self.idle.notify_one();
        }
        batch
    }

    /// A helper thread's loop: claims and runs tasks until the set closes.
    fn help(&self, job: &(dyn Fn(usize, T) -> R + Sync)) {
        let _mark = WorkerMark::set();
        let mut batch = self.lock();
        while !batch.closed {
            batch = match batch.tasks.pop_front() {
                Some(task) => self.execute(batch, job, task),
                None => self
                    .queued
                    .wait(batch)
                    .unwrap_or_else(PoisonError::into_inner),
            };
        }
    }
}

/// A scoped set of worker threads running one job, started by
/// [`with_workers`]. See the module docs.
pub struct Workers<'w, T, R> {
    job: &'w (dyn Fn(usize, T) -> R + Sync),
    /// `None` for a one-thread set, which runs every task inline.
    shared: Option<&'w Shared<T, R>>,
    threads: usize,
}

impl<T, R> Workers<'_, T, R> {
    /// Threads that work on a batch, the calling thread included.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the set's job on every `(index, task)` of `tasks` and appends
    /// `(index, result)` to `done` in finishing order (input order on a
    /// one-thread set). The calling thread claims tasks alongside the
    /// helpers and returns once every task has finished. Once the buffers
    /// behind the set and `done` have grown, a batch allocates nothing.
    ///
    /// # Panics
    ///
    /// A panic in the job reaches the caller once every task of the batch
    /// that had started has finished; the unclaimed ones are dropped.
    pub fn run(&mut self, tasks: impl IntoIterator<Item = (usize, T)>, done: &mut Vec<(usize, R)>) {
        let Some(shared) = self.shared else {
            done.extend(tasks.into_iter().map(|(i, task)| (i, (self.job)(i, task))));
            return;
        };
        let mut batch = shared.lock();
        batch.tasks.extend(tasks);
        std::mem::swap(&mut batch.done, done);
        // The calling thread takes one task itself.
        for _ in 1..batch.tasks.len().min(self.threads) {
            shared.queued.notify_one();
        }
        let mark = WorkerMark::set();
        loop {
            batch = match batch.tasks.pop_front() {
                Some(task) => shared.execute(batch, self.job, task),
                None if batch.running > 0 => shared
                    .idle
                    .wait(batch)
                    .unwrap_or_else(PoisonError::into_inner),
                None => break,
            };
        }
        drop(mark);
        std::mem::swap(&mut batch.done, done);
        if let Some(payload) = batch.panic.take() {
            drop(batch);
            resume_unwind(payload);
        }
    }
}

/// Starts a worker set of `threads` threads (the calling thread and
/// `threads − 1` helpers; one thread inside another set's task) running
/// `job`, hands it to `body`, and stops the helpers when `body` returns.
/// A one-thread set starts nothing and runs every task inline.
///
/// A panic in `body` reaches the caller once the helpers have stopped.
///
/// # Example
///
/// ```
/// use qoserve_sim::parallel::with_workers;
///
/// let square = |_, x: u64| x * x;
/// let sums: Vec<u64> = with_workers(2, &square, |mut workers| {
///     let mut done = Vec::new();
///     (0..3u64)
///         .map(|round| {
///             workers.run((0..4).map(|i| (i, round + i as u64)), &mut done);
///             done.drain(..).map(|(_, y)| y).sum()
///         })
///         .collect()
/// });
/// assert_eq!(sums, vec![14, 30, 54]);
/// ```
pub fn with_workers<T, R, O>(
    threads: usize,
    job: &(dyn Fn(usize, T) -> R + Sync),
    body: impl FnOnce(Workers<'_, T, R>) -> O,
) -> O
where
    T: Send,
    R: Send,
{
    let threads = if IN_WORKER.get() { 1 } else { threads.max(1) };
    if threads == 1 {
        return body(Workers {
            job,
            shared: None,
            threads,
        });
    }
    let shared = Shared {
        batch: Default::default(),
        queued: Condvar::new(),
        idle: Condvar::new(),
    };
    let out = thread::scope(|scope| {
        for _ in 1..threads {
            scope.spawn(|| shared.help(job));
        }
        let out = catch_unwind(AssertUnwindSafe(|| {
            body(Workers {
                job,
                shared: Some(&shared),
                threads,
            })
        }));
        shared.lock().closed = true;
        shared.queued.notify_all();
        out
    });
    out.unwrap_or_else(|payload| resume_unwind(payload))
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
/// should let `QOSERVE_THREADS` decide): one batch on a [`with_workers`]
/// set of at most one worker per item.
pub fn par_map_threads<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let mut done = Vec::with_capacity(items.len());
    with_workers(threads.min(items.len()), &f, |mut workers| {
        workers.run(items.into_iter().enumerate(), &mut done);
    });
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, r)| r).collect()
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

/// The need-ordered probe engine: runs `walk` on a [`with_workers`] set
/// of `workers` threads, one worker loop per thread, each running `probe`
/// on the key [`Table::next`] picks, and returns the walk's answer. A worker never
/// holds the table's lock while a probe runs; with nothing to run, it
/// waits for the next verdict. At one worker nothing is ever running
/// while the walk is read, so the probes are exactly the serial walk's.
fn search<K, A, W, P>(workers: usize, walk: W, probe: P) -> A
where
    K: Copy + Ord + Send,
    A: Send,
    W: Fn(Ask<'_, K>) -> Option<A> + Sync,
    P: Fn(K) -> bool + Sync,
{
    let search = Search {
        walk,
        probe,
        table: Default::default(),
        verdict: Condvar::new(),
    };
    let mut answers = Vec::with_capacity(workers);
    let work = |_, ()| search.work();
    with_workers(workers, &work, |mut set| {
        let loops = set.threads();
        set.run((0..loops).map(|i| (i, ())), &mut answers);
    });
    let panic = search.lock().panic.take();
    match (answers.into_iter().find_map(|(_, answer)| answer), panic) {
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
    use std::sync::atomic::{AtomicUsize, Ordering};
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

    /// Which thread ran a task: the calling thread or a helper.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Ran {
        Caller,
        Helper,
    }

    /// A panic in a task of a later batch reaches the caller, with no hang,
    /// whether it is raised on the helper or on the calling thread, while
    /// the other worker runs the batch's other task.
    #[test]
    fn a_task_panic_reaches_the_caller_while_another_worker_runs() {
        for panicking in [Ran::Helper, Ran::Caller] {
            let (done, result) = mpsc::channel();
            let set = thread::spawn(move || {
                let caller = thread::current().id();
                // Each batch's two tasks run together: the barrier holds each
                // until both have started, so one runs on each thread.
                let both_running = Barrier::new(2);
                let job = |batch: usize, ()| {
                    both_running.wait();
                    let ran = if thread::current().id() == caller {
                        Ran::Caller
                    } else {
                        Ran::Helper
                    };
                    assert!(batch != 1 || ran != panicking, "the {ran:?}'s task failed");
                    ran
                };
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    with_workers(2, &job, |mut workers| {
                        let mut done = Vec::new();
                        for batch in 0..3 {
                            workers.run([(batch, ()), (batch, ())], &mut done);
                        }
                        done
                    })
                }));
                let _ = done.send(outcome.map(|_| ()).map_err(|payload| {
                    payload
                        .downcast_ref::<String>()
                        .cloned()
                        .unwrap_or_default()
                }));
            });
            let outcome = result
                .recv_timeout(Duration::from_secs(20))
                .expect("the worker set hung after a task panicked");
            set.join().unwrap();
            assert_eq!(outcome, Err(format!("the {panicking:?}'s task failed")));
        }
    }

    /// A set starts its helpers once: every batch runs on the same three
    /// threads, the calling thread among them.
    #[test]
    fn a_worker_set_reuses_its_threads_across_batches() {
        let caller = thread::current().id();
        // Each batch's three tasks run together, one on each thread.
        let all_running = Barrier::new(3);
        let job = |_, ()| {
            all_running.wait();
            thread::current().id()
        };
        let ids = with_workers(3, &job, |mut workers| {
            assert_eq!(workers.threads(), 3);
            let mut done = Vec::new();
            for _ in 0..20 {
                workers.run((0..3).map(|i| (i, ())), &mut done);
            }
            done.into_iter().map(|(_, id)| id).collect::<Vec<_>>()
        });
        assert_eq!(ids.len(), 60);
        let mut distinct = Vec::new();
        for id in ids {
            if !distinct.contains(&id) {
                distinct.push(id);
            }
        }
        assert_eq!(distinct.len(), 3, "20 batches must share 3 threads");
        assert!(distinct.contains(&caller), "the calling thread works too");
    }

    /// Inside a task of a set with two or more workers every helper runs
    /// serially; a one-worker set does not count as one.
    #[test]
    fn helpers_inside_a_worker_run_serially() {
        let inner = |_, x: u32| x + 1;
        let seen = par_map_threads(3, vec![(); 4], |_, ()| {
            let threads = with_workers(4, &inner, |workers| workers.threads());
            let nested = par_map_threads(4, vec![1u32, 2, 3], |_, x| (thread_limit(), x));
            let position = position_threads(4, &[1, 2, 3], |&x| {
                assert_eq!(thread_limit(), 1);
                x == 2
            });
            (thread_limit(), threads, nested, position)
        });
        for (limit, threads, nested, position) in seen {
            assert_eq!((limit, threads, position), (1, 1, Some(1)));
            assert_eq!(nested, vec![(1, 1), (1, 2), (1, 3)]);
        }
        let top = thread_limit();
        assert_eq!(par_map_threads(1, vec![()], |_, ()| thread_limit()), [top]);
        assert_eq!(thread_limit(), top, "the mark ends with the task");
    }
}
