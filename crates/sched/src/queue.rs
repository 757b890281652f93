//! The prefill priority queue of Algorithm 1.
//!
//! Jobs are ordered by the comparator of Algorithm 1 (lines 26–33): all
//! non-relegated jobs sort before all relegated ones, then by a policy-
//! computed priority key (smaller = more urgent), with arrival sequence as
//! the final tie-break. Keys are computed when a job is (re-)inserted, so
//! a job whose key inputs changed (tokens consumed, relegation flipped)
//! must be popped and pushed back — exactly the access pattern of the
//! batch-filling loop.
//!
//! Re-keying a job that is still queued ([`JobQueue::reinsert`]) leaves
//! its old heap entry behind. Each queued job therefore remembers the
//! sequence number of its *current* entry, and `pop`/`peek` skip any
//! entry whose sequence no longer matches — a stale entry can never
//! resurface a job at an outdated priority. Skipping is cheap but stale
//! entries still occupy heap space, so the queue compacts (rebuilds the
//! heap from live entries) once they outnumber live jobs ~2×; long
//! overload runs keep `pop`/`peek` at their live-size cost.
//!
//! `JobQueue::fill` is Algorithm 1's batch-filling loop (lines 10–23)
//! and the only loop that pops jobs into a plan: every scheduler that
//! packs several prefills into a batch calls it, and `Room` is the one
//! owner of the per-iteration token, KV and fresh-request limits.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use qoserve_workload::{RequestId, TierId};

use crate::job::PrefillJob;
use crate::{BatchPlan, Constraints, PrefillAssignment};

/// What one iteration's plan may still take: prefill tokens, KV headroom
/// and fresh (not yet started) requests.
#[derive(Debug)]
pub(crate) struct Room {
    tokens: u32,
    kv: u64,
    new_left: usize,
}

impl Room {
    /// Room for a `budget`-token plan under the engine's `constraints`;
    /// none at all when the engine allows no prefill.
    pub(crate) fn new(constraints: Constraints, budget: u32) -> Self {
        Room {
            tokens: if constraints.allow_prefill { budget } else { 0 },
            kv: constraints.kv_headroom_tokens,
            new_left: constraints.max_new_requests,
        }
    }

    /// True once no token or no KV is left.
    fn is_full(&self) -> bool {
        self.tokens == 0 || self.kv == 0
    }

    /// Whether `job` may take tokens: it started already, or a fresh
    /// request slot is left.
    fn admits(&self, job: &PrefillJob) -> bool {
        job.prefill_done > 0 || self.new_left > 0
    }

    /// Gives `job` the largest chunk the room allows, records it in
    /// `plan` and advances the job. Returns the tokens assigned; 0 (job
    /// untouched) when nothing fits or the job is fresh and no fresh
    /// slot is left.
    pub(crate) fn assign(&mut self, job: &mut PrefillJob, plan: &mut BatchPlan) -> u32 {
        if !self.admits(job) {
            return 0;
        }
        let kv = u32::try_from(self.kv).unwrap_or(u32::MAX);
        let take = self.tokens.min(job.remaining_tokens()).min(kv);
        if take == 0 {
            return 0;
        }
        if job.prefill_done == 0 {
            self.new_left -= 1;
        }
        plan.prefill.push(PrefillAssignment {
            id: job.id(),
            tokens: take,
            context_before: job.prefill_done,
            completes_prefill: take == job.remaining_tokens(),
            relegated: job.relegated,
        });
        job.prefill_done += take;
        self.tokens -= take;
        self.kv -= u64::from(take);
        take
    }
}

/// Heap key: `(relegated, priority, seq)` ascending.
type Key = (bool, i64, u64);

/// Stale-entry floor below which compaction is never worth the rebuild.
const COMPACT_MIN_STALE: usize = 64;

/// A queued job plus the sequence number of its current heap entry (any
/// heap entry carrying another sequence for this id is stale).
#[derive(Debug, Clone)]
struct QueuedJob {
    job: PrefillJob,
    seq: u64,
}

/// A priority queue of [`PrefillJob`]s with explicit keys.
///
/// Side tables are `BTreeMap`, not `HashMap`: `drain`, `iter`, and
/// `rekey` walk them, and replay determinism requires that walk order be
/// a function of the keys alone (the `hash-iteration` lint enforces
/// this).
#[derive(Debug, Clone, Default)]
pub struct JobQueue {
    jobs: BTreeMap<RequestId, QueuedJob>,
    heap: BinaryHeap<Reverse<(Key, RequestId)>>,
    next_seq: u64,
    /// Number of dead heap entries (superseded by a reinsert and not yet
    /// skipped or compacted away).
    stale: usize,
    /// Remaining prompt tokens across all queued jobs (O(1) load signal).
    total_tokens: u64,
    /// Remaining prompt tokens across non-relegated queued jobs.
    live_tokens: u64,
    /// Per-tier live-token accounting: `(urgency SLO offset in µs,
    /// live tokens)` — lets the scheduler estimate the queue ahead of a
    /// job under deadline-dominated orderings.
    live_by_tier: BTreeMap<TierId, (i64, u64)>,
}

impl JobQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        JobQueue::default()
    }

    fn alloc_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Inserts `job` with priority `key` (smaller = scheduled sooner).
    /// The job's `relegated` flag is folded into the ordering: relegated
    /// jobs always sort after non-relegated ones.
    ///
    /// # Panics
    ///
    /// Panics (debug builds) if a job with the same id is already queued.
    pub fn push(&mut self, job: PrefillJob, key: i64) {
        debug_assert!(
            !self.jobs.contains_key(&job.id()),
            "job {} already queued",
            job.id()
        );
        let seq = self.alloc_seq();
        self.heap
            .push(Reverse(((job.relegated, key, seq), job.id())));
        self.account_insert(&job);
        self.jobs.insert(job.id(), QueuedJob { job, seq });
    }

    fn account_insert(&mut self, job: &PrefillJob) {
        let tokens = job.remaining_tokens() as u64;
        self.total_tokens += tokens;
        if !job.relegated {
            self.live_tokens += tokens;
            let entry = self
                .live_by_tier
                .entry(job.spec.tier())
                .or_insert((Self::slo_offset_us(job), 0));
            entry.1 += tokens;
        }
    }

    fn account_remove(&mut self, job: &PrefillJob) {
        let tokens = job.remaining_tokens() as u64;
        self.total_tokens -= tokens;
        if !job.relegated {
            self.live_tokens -= tokens;
            if let Some(entry) = self.live_by_tier.get_mut(&job.spec.tier()) {
                entry.1 -= tokens;
            }
        }
    }

    /// The urgency-deadline offset of a job's tier (TTFT for interactive,
    /// TTLT otherwise), in µs: the quantity that dominates deadline-based
    /// orderings.
    fn slo_offset_us(job: &PrefillJob) -> i64 {
        job.urgency_deadline()
            .signed_duration_since(job.spec.arrival)
            .as_micros()
    }

    /// Removes and returns the most urgent job.
    pub fn pop(&mut self) -> Option<PrefillJob> {
        while let Some(Reverse(((_, _, seq), id))) = self.heap.pop() {
            match self.jobs.remove(&id) {
                Some(queued) if queued.seq == seq => {
                    self.account_remove(&queued.job);
                    return Some(queued.job);
                }
                // Stale entry for a still-queued job (re-keyed since):
                // put the job back untouched and skip the entry.
                Some(queued) => {
                    self.jobs.insert(id, queued);
                    self.stale = self.stale.saturating_sub(1);
                }
                // Stale entry for a job that is already gone; skip.
                None => self.stale = self.stale.saturating_sub(1),
            }
        }
        None
    }

    /// The most urgent job without removing it.
    pub fn peek(&mut self) -> Option<&PrefillJob> {
        // Drop stale entries so the visible top is live.
        loop {
            let (seq, id) = match self.heap.peek() {
                Some(Reverse(((_, _, seq), id))) => (*seq, *id),
                None => return None,
            };
            if self.jobs.get(&id).is_some_and(|queued| queued.seq == seq) {
                return self.jobs.get(&id).map(|queued| &queued.job);
            }
            self.heap.pop();
            self.stale = self.stale.saturating_sub(1);
        }
    }

    /// Re-inserts a job that was popped (after progress or relegation)
    /// with a freshly computed key. Unlike [`push`](Self::push) this
    /// tolerates the id still being queued: the superseded heap entry is
    /// invalidated (never popped at its old key) and reclaimed by the next
    /// compaction.
    pub fn reinsert(&mut self, job: PrefillJob, key: i64) {
        if let Some(old) = self.jobs.remove(&job.id()) {
            self.account_remove(&old.job);
            // The heap entry carrying `old.seq` is now dead.
            self.stale += 1;
        }
        let seq = self.alloc_seq();
        self.heap
            .push(Reverse(((job.relegated, key, seq), job.id())));
        self.account_insert(&job);
        self.jobs.insert(job.id(), QueuedJob { job, seq });
        self.maybe_compact();
    }

    /// Rebuilds the heap without stale entries once they outnumber live
    /// jobs ~2× (and are past a fixed floor): O(heap) now, against stale
    /// entries taxing every later `pop`/`peek` sift.
    fn maybe_compact(&mut self) {
        if self.stale <= COMPACT_MIN_STALE || self.stale <= 2 * self.jobs.len() {
            return;
        }
        let jobs = &self.jobs;
        let live: Vec<_> = std::mem::take(&mut self.heap)
            .into_vec()
            .into_iter()
            .filter(|Reverse(((_, _, seq), id))| {
                jobs.get(id).is_some_and(|queued| queued.seq == *seq)
            })
            .collect();
        self.heap = BinaryHeap::from(live);
        self.stale = 0;
    }

    /// Number of queued jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Sum of remaining prompt tokens across queued jobs (O(1)).
    pub fn pending_tokens(&self) -> u64 {
        self.total_tokens
    }

    /// Remaining prompt tokens across non-relegated jobs (O(1)) — the
    /// live-backlog overload signal.
    pub fn live_tokens(&self) -> u64 {
        self.live_tokens
    }

    /// Estimated live tokens that will be served *before* `job` under a
    /// deadline-dominated ordering: all tokens of tiers with a stricter
    /// SLO offset, plus half of the job's own tier (expected position).
    pub fn live_tokens_ahead_of(&self, job: &PrefillJob) -> u64 {
        let own_offset = Self::slo_offset_us(job);
        let own_tier = job.spec.tier();
        self.live_by_tier
            .iter()
            .map(|(tier, (offset, tokens))| {
                if *tier == own_tier {
                    tokens / 2
                } else if *offset < own_offset {
                    *tokens
                } else {
                    0
                }
            })
            .sum()
    }

    /// Iterates over queued jobs in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = &PrefillJob> {
        self.jobs.values().map(|queued| &queued.job)
    }

    /// Removes and returns every queued job in ascending id order. Used
    /// when a simulation ends with work still queued.
    pub fn drain(&mut self) -> Vec<PrefillJob> {
        self.heap.clear();
        self.stale = 0;
        self.total_tokens = 0;
        self.live_tokens = 0;
        self.live_by_tier.clear();
        std::mem::take(&mut self.jobs)
            .into_values()
            .map(|queued| queued.job)
            .collect()
    }

    /// Algorithm 1's fill (lines 10–23): pops jobs in priority order and
    /// gives each its chunk until `room` is full or the queue is empty.
    ///
    /// `demote` sees each popped job that may take tokens, with the rest
    /// of the queue; when it returns true (it relegated the job) the job
    /// goes back under a fresh key and the next one is popped. A job left
    /// with prompt tokens goes back under `key` of its new progress. The
    /// fill stops at the first job that gets nothing (a fresh job with no
    /// fresh slot left, or no room), leaving it queued.
    pub(crate) fn fill(
        &mut self,
        plan: &mut BatchPlan,
        room: &mut Room,
        mut key: impl FnMut(&PrefillJob) -> i64,
        mut demote: impl FnMut(&JobQueue, &mut PrefillJob) -> bool,
    ) {
        while !room.is_full() {
            let Some(mut job) = self.pop() else {
                break;
            };
            if room.admits(&job) && demote(self, &mut job) {
                let k = key(&job);
                self.reinsert(job, k);
                continue;
            }
            let taken = room.assign(&mut job, plan);
            if taken == 0 || !job.is_complete() {
                let k = key(&job);
                self.reinsert(job, k);
            }
            if taken == 0 {
                break;
            }
        }
    }

    /// Rebuilds every heap key via `key_of` — needed when a global input
    /// of the priority function changes (e.g. the load-adaptive α).
    pub fn rekey<F: FnMut(&PrefillJob) -> i64>(&mut self, mut key_of: F) {
        self.heap.clear();
        self.stale = 0;
        let mut seq = self.next_seq;
        for (id, queued) in self.jobs.iter_mut() {
            queued.seq = seq;
            self.heap.push(Reverse((
                (queued.job.relegated, key_of(&queued.job), seq),
                *id,
            )));
            seq += 1;
        }
        self.next_seq = seq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qoserve_sim::SimTime;
    use qoserve_workload::{QosTier, RequestSpec, Slo};

    fn job(id: u64, relegated: bool) -> PrefillJob {
        let mut j = PrefillJob::new(RequestSpec {
            id: RequestId(id),
            arrival: SimTime::ZERO,
            prompt_tokens: 100,
            decode_tokens: 10,
            slo: Slo::of_tier(QosTier::paper_q1()),
            app_id: 0,
        });
        j.relegated = relegated;
        j
    }

    #[test]
    fn pops_in_key_order() {
        let mut q = JobQueue::new();
        q.push(job(1, false), 30);
        q.push(job(2, false), 10);
        q.push(job(3, false), 20);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.id().0)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn relegated_jobs_sort_last_regardless_of_key() {
        let mut q = JobQueue::new();
        q.push(job(1, true), -1_000_000); // relegated with tiny key
        q.push(job(2, false), 1_000_000); // live with huge key
        assert_eq!(q.pop().unwrap().id().0, 2);
        assert_eq!(q.pop().unwrap().id().0, 1);
    }

    #[test]
    fn equal_keys_are_fifo() {
        let mut q = JobQueue::new();
        for i in 0..10 {
            q.push(job(i, false), 5);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.id().0)).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reinsert_updates_position() {
        let mut q = JobQueue::new();
        q.push(job(1, false), 10);
        q.push(job(2, false), 20);
        let j1 = q.pop().unwrap();
        assert_eq!(j1.id().0, 1);
        // Push it back relegated: it must now sort after job 2.
        let mut j1 = j1;
        j1.relegated = true;
        q.reinsert(j1, 10);
        assert_eq!(q.pop().unwrap().id().0, 2);
        assert_eq!(q.pop().unwrap().id().0, 1);
        assert!(q.pop().is_none());
    }

    #[test]
    fn defensive_reinsert_uses_fresh_key() {
        let mut q = JobQueue::new();
        q.push(job(1, false), 10);
        q.push(job(2, false), 20);
        // Re-key job 1 to the back *without* popping it first. The old
        // key-10 heap entry must not resurrect job 1 ahead of job 2.
        q.reinsert(job(1, false), 30);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pending_tokens(), 200);
        assert_eq!(q.peek().unwrap().id().0, 2);
        assert_eq!(q.pop().unwrap().id().0, 2);
        assert_eq!(q.pop().unwrap().id().0, 1);
        assert!(q.pop().is_none());
        assert_eq!(q.pending_tokens(), 0);
    }

    #[test]
    fn stale_entries_are_compacted() {
        let mut q = JobQueue::new();
        for i in 0..40 {
            q.push(job(i, false), i as i64);
        }
        // Hammer in-place re-keys: each one deadens the previous entry.
        for round in 0..20i64 {
            for i in 0..40 {
                q.reinsert(job(i, false), i as i64 + round);
            }
        }
        assert_eq!(q.len(), 40);
        // 800 reinserts left 800 dead entries behind; compaction must have
        // kept the heap near the live size instead.
        assert!(
            q.heap.len() <= 40 + COMPACT_MIN_STALE + 2 * 40,
            "heap grew to {} entries for 40 live jobs",
            q.heap.len()
        );
        assert_eq!(q.pending_tokens(), 40 * 100);
        // Ordering and accounting survive compaction.
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.id().0)).collect();
        assert_eq!(order, (0..40).collect::<Vec<_>>());
        assert_eq!(q.pending_tokens(), 0);
        assert_eq!(q.stale, 0);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = JobQueue::new();
        q.push(job(5, false), 50);
        q.push(job(6, false), 5);
        assert_eq!(q.peek().unwrap().id().0, 6);
        assert_eq!(q.pop().unwrap().id().0, 6);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pending_tokens_accumulates() {
        let mut q = JobQueue::new();
        q.push(job(1, false), 1);
        let mut j = job(2, false);
        j.prefill_done = 40;
        q.push(j, 2);
        assert_eq!(q.pending_tokens(), 100 + 60);
    }

    #[test]
    fn rekey_reorders() {
        let mut q = JobQueue::new();
        q.push(job(1, false), 1);
        q.push(job(2, false), 2);
        // Invert the ordering.
        q.rekey(|j| -(j.id().0 as i64));
        assert_eq!(q.pop().unwrap().id().0, 2);
        assert_eq!(q.pop().unwrap().id().0, 1);
    }

    #[test]
    fn rekey_discards_stale_entries() {
        let mut q = JobQueue::new();
        q.push(job(1, false), 1);
        q.push(job(2, false), 2);
        q.reinsert(job(1, false), 3); // one stale entry
        q.rekey(|j| j.id().0 as i64);
        assert_eq!(q.stale, 0);
        assert_eq!(q.heap.len(), 2);
        assert_eq!(q.pop().unwrap().id().0, 1);
        assert_eq!(q.pop().unwrap().id().0, 2);
    }

    #[test]
    fn nan_priority_cannot_corrupt_heap_order() {
        use qoserve_sim::float::priority_micros;
        // Before `priority_micros`, a NaN priority was cast with `as i64`
        // and landed at 0 — ahead of every normal deadline key. Now it
        // pins to i64::MAX: well-formed jobs keep their relative order
        // and the poisoned job drains last instead of starving them.
        let mut q = JobQueue::new();
        q.push(job(1, false), priority_micros(f64::NAN));
        q.push(job(2, false), priority_micros(20.0));
        q.push(job(3, false), priority_micros(10.0));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|j| j.id().0)).collect();
        assert_eq!(order, vec![3, 2, 1], "NaN job must sort last, not first");

        // Reinserting with a NaN key keeps the invariant under re-keying.
        let mut q = JobQueue::new();
        q.push(job(1, false), priority_micros(5.0));
        q.push(job(2, false), priority_micros(6.0));
        q.reinsert(job(1, false), priority_micros(f64::NAN));
        assert_eq!(q.pop().unwrap().id().0, 2);
        assert_eq!(q.pop().unwrap().id().0, 1);
    }

    #[test]
    fn fill_spends_fresh_slots_only_on_assigned_jobs() {
        // One fresh slot: job 1 takes it; fresh job 2 stops the fill and
        // stays queued untouched, while the started job 3 behind it would
        // have needed no slot.
        let mut q = JobQueue::new();
        q.push(job(1, false), 1);
        q.push(job(2, false), 2);
        let mut started = job(3, false);
        started.prefill_done = 40;
        q.push(started, 3);
        let constraints = Constraints {
            kv_headroom_tokens: u64::MAX,
            allow_prefill: true,
            max_new_requests: 1,
        };
        let mut plan = BatchPlan::default();
        let mut room = Room::new(constraints, 1_000);
        q.fill(&mut plan, &mut room, |j| j.id().0 as i64, |_, _| false);
        assert_eq!(plan.prefill_tokens(), 100);
        assert_eq!(plan.prefill[0].id, RequestId(1));
        assert!(plan.prefill[0].completes_prefill);
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek().unwrap().id().0, 2);
    }

    #[test]
    fn fill_requeues_demoted_jobs_behind_live_work() {
        let mut q = JobQueue::new();
        q.push(job(1, false), 1);
        q.push(job(2, false), 2);
        let mut plan = BatchPlan::default();
        let mut room = Room::new(Constraints::unlimited(), 150);
        q.fill(
            &mut plan,
            &mut room,
            |j| j.id().0 as i64,
            |_, j| {
                let demote = j.id().0 == 1 && !j.relegated;
                j.relegated |= demote;
                demote
            },
        );
        // Job 2 completes; the demoted job 1 takes the leftover 50 tokens
        // as relegated work and goes back with its remaining 50.
        let got: Vec<_> = plan
            .prefill
            .iter()
            .map(|a| (a.id.0, a.tokens, a.relegated, a.completes_prefill))
            .collect();
        assert_eq!(got, vec![(2, 100, false, true), (1, 50, true, false)]);
        assert_eq!(q.pending_tokens(), 50);
        assert!(q.pop().unwrap().relegated);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = JobQueue::new();
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(q.peek().is_none());
        assert_eq!(q.pending_tokens(), 0);
    }
}
