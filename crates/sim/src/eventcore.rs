//! The event core: a calendar-queue scheduler and a slab arena for
//! in-flight jobs.
//!
//! Both structures exist to make big simulations (hundreds of replicas,
//! millions of requests) cheap without giving up one bit of determinism:
//!
//! * [`CalendarQueue`] is a bucketed timing wheel with a monotone
//!   radix-heap overflow, ordered by the total key
//!   `(time_us, sub, seq)` — the same total order the decision trace is
//!   canonicalised by (`sub` carries the replica index there). Events at
//!   the same `(time, sub)` pop in push order (the monotone `seq`), so
//!   with a constant `sub` it pops exactly like a binary heap keyed by
//!   `(time, push order)`, the reference its tests compare against. Pops
//!   are O(bucket) instead of O(log n), and the common simulation
//!   pattern — pushes clustered a few iterations ahead of the pop
//!   frontier — stays inside the wheel entirely.
//! * [`JobSlab`] is a free-list arena handing out generation-checked
//!   [`JobRef`] indices. Hot loops index jobs in O(1) without hashing or
//!   per-job boxing, and a stale reference (use after free / after slot
//!   reuse) is *detected* — `get` returns `None` instead of silently
//!   reading another job's state.
//!
//! # Determinism contract
//!
//! Every operation is a pure function of the operation sequence: the
//! wheel/overflow/past partition is an implementation detail that never
//! leaks into pop order, which equals a [`std::collections::BinaryHeap`]
//! over `(time_us, sub, seq)` exactly (property-tested against that
//! reference model in `tests/tests/eventcore.rs`). The slab's free list
//! is LIFO, so slot reuse is deterministic too.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::nums;
use crate::time::SimTime;

/// Number of wheel buckets. Power of two so slot math stays shift/mask.
const WHEEL_BUCKETS: usize = 256;
/// Width of one wheel bucket in microseconds (~33 ms — a few typical
/// serving iterations). The wheel spans ~8.6 simulated seconds; events
/// beyond that wait in the radix-heap overflow.
const BUCKET_WIDTH_US: u64 = 1 << 15;
/// Total span of the wheel window.
const WHEEL_SPAN_US: u64 = nums::usize_to_u64(WHEEL_BUCKETS) * BUCKET_WIDTH_US;

#[derive(Debug, Clone)]
struct Entry<T> {
    time: SimTime,
    sub: u64,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    #[inline]
    fn key(&self) -> (u64, u64, u64) {
        (self.time.as_micros(), self.sub, self.seq)
    }
}

/// Wrapper giving the *past* heap min-first ordering on the total key.
#[derive(Debug, Clone)]
struct PastEntry<T>(Entry<T>);

impl<T> PartialEq for PastEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}

impl<T> Eq for PastEntry<T> {}

impl<T> PartialOrd for PastEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for PastEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest key wins.
        other.0.key().cmp(&self.0.key())
    }
}

/// A monotone radix heap over `u64` microsecond keys.
///
/// Classic structure: bucket `0` holds keys equal to `last` (the largest
/// key ever extracted); bucket `i > 0` holds keys whose most significant
/// bit differing from `last` is bit `i - 1`. Pushes must be `>= last`
/// (guaranteed here: the overflow only receives keys at or beyond the
/// wheel window, and the window's base never retreats). The minimum key
/// always lives in the first non-empty bucket; extraction re-buckets that
/// bucket against the new `last`, moving every entry to a strictly lower
/// bucket — amortised O(bits) per entry over its lifetime.
#[derive(Debug, Clone)]
struct RadixHeap<T> {
    buckets: Vec<Vec<(u64, T)>>,
    last: u64,
    len: usize,
}

#[inline]
fn radix_bucket(key: u64, last: u64) -> usize {
    if key == last {
        0
    } else {
        64 - nums::u32_to_usize((key ^ last).leading_zeros())
    }
}

impl<T> RadixHeap<T> {
    fn new() -> Self {
        RadixHeap {
            buckets: (0..65).map(|_| Vec::new()).collect(),
            last: 0,
            len: 0,
        }
    }

    fn push(&mut self, key: u64, value: T) {
        debug_assert!(key >= self.last, "radix heap requires monotone pushes");
        self.buckets[radix_bucket(key, self.last)].push((key, value));
        self.len += 1;
    }

    /// The smallest key currently stored, without normalising.
    fn min_key(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let i = self.buckets.iter().position(|b| !b.is_empty())?;
        if i == 0 {
            Some(self.last)
        } else {
            self.buckets[i].iter().map(|(k, _)| *k).min()
        }
    }

    /// Moves the minimum-key group into bucket 0 (setting `last` to it).
    fn normalize(&mut self) {
        let Some(i) = self.buckets.iter().position(|b| !b.is_empty()) else {
            return;
        };
        if i == 0 {
            return;
        }
        let drained = std::mem::take(&mut self.buckets[i]);
        // The minimum of the first non-empty bucket is the global minimum.
        self.last = drained.iter().map(|(k, _)| *k).min().unwrap_or(self.last);
        for (k, v) in drained {
            self.buckets[radix_bucket(k, self.last)].push((k, v));
        }
    }

    /// Pops every entry with key `< bound`, in nondecreasing key order
    /// (ties in their bucket insertion order), into `f`.
    fn drain_below(&mut self, bound: u64, mut f: impl FnMut(T)) {
        while self.len > 0 {
            match self.min_key() {
                Some(m) if m < bound => {}
                _ => break,
            }
            self.normalize();
            let group = std::mem::take(&mut self.buckets[0]);
            self.len -= group.len();
            for (_, v) in group {
                f(v);
            }
        }
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.last = 0;
        self.len = 0;
    }
}

/// A calendar queue: bucketed timing wheel + radix-heap overflow, totally
/// ordered by `(time_us, sub, seq)` with `seq` assigned monotonically at
/// push. `sub` is a caller-chosen secondary key (the replica index in the
/// cluster runner; zero when unused), matching the decision trace's
/// canonical record order.
///
/// # Example
///
/// ```
/// use qoserve_sim::{CalendarQueue, SimTime};
///
/// let mut q = CalendarQueue::new();
/// q.push(SimTime::from_secs(2), 1, "b");
/// q.push(SimTime::from_secs(1), 9, "a");
/// q.push(SimTime::from_secs(2), 0, "c");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), 9, "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), 0, "c")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), 1, "b")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug, Clone)]
pub struct CalendarQueue<T> {
    /// The wheel: `WHEEL_BUCKETS` unsorted buckets of `BUCKET_WIDTH_US`
    /// each, covering `[base_us, base_us + WHEEL_SPAN_US)`.
    wheel: Vec<Vec<Entry<T>>>,
    wheel_len: usize,
    /// Index of the bucket whose window starts at `base_us`.
    cursor: usize,
    /// Low edge of the cursor bucket's window (multiple of the width).
    base_us: u64,
    /// Entries pushed behind `base_us` (the wheel never retreats); kept in
    /// an ordinary heap so arbitrary interleavings stay exact.
    past: BinaryHeap<PastEntry<T>>,
    /// Entries at or beyond the wheel window.
    overflow: RadixHeap<Entry<T>>,
    next_seq: u64,
    len: usize,
}

#[inline]
fn slot_of(time_us: u64) -> usize {
    nums::u64_to_usize(time_us / BUCKET_WIDTH_US) % WHEEL_BUCKETS
}

#[inline]
fn align_down(time_us: u64) -> u64 {
    time_us - (time_us % BUCKET_WIDTH_US)
}

impl<T> CalendarQueue<T> {
    /// Creates an empty queue anchored at time zero.
    pub fn new() -> Self {
        CalendarQueue {
            wheel: (0..WHEEL_BUCKETS).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            cursor: 0,
            base_us: 0,
            past: BinaryHeap::new(),
            overflow: RadixHeap::new(),
            next_seq: 0,
            len: 0,
        }
    }

    /// [`new`](Self::new) with per-bucket capacity pre-reserved for about
    /// `capacity` total events spread over the wheel.
    pub fn with_capacity(capacity: usize) -> Self {
        let mut q = CalendarQueue::new();
        let per_bucket = (capacity / WHEEL_BUCKETS).min(1 << 16);
        if per_bucket > 0 {
            for b in &mut q.wheel {
                b.reserve(per_bucket);
            }
        }
        q
    }

    /// Schedules `payload` at `(time, sub)`. Ties on both pop in push
    /// order.
    pub fn push(&mut self, time: SimTime, sub: u64, payload: T) {
        let entry = Entry {
            time,
            sub,
            seq: self.next_seq,
            payload,
        };
        self.next_seq += 1;
        self.len += 1;
        let t = time.as_micros();
        if t < self.base_us {
            self.past.push(PastEntry(entry));
        } else if t < self.base_us + WHEEL_SPAN_US {
            self.wheel[slot_of(t)].push(entry);
            self.wheel_len += 1;
        } else {
            self.overflow.push(t, entry);
        }
    }

    /// Removes and returns the earliest event by `(time_us, sub, seq)`.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        // Past entries are strictly behind every wheel/overflow entry
        // (they were pushed behind a base that never retreats), so the
        // heap's min is the global min whenever it is non-empty.
        if let Some(PastEntry(e)) = self.past.pop() {
            return Some((e.time, e.sub, e.payload));
        }
        if self.wheel_len == 0 {
            self.refill_from_overflow();
        }
        // Advance the cursor to the first occupied bucket. Each bucket
        // holds one window of the current span, so the first occupied one
        // contains the global minimum.
        while self.wheel[self.cursor].is_empty() {
            self.cursor = (self.cursor + 1) % WHEEL_BUCKETS;
            self.base_us += BUCKET_WIDTH_US;
        }
        let bucket = &mut self.wheel[self.cursor];
        let mut min_i = 0;
        for i in 1..bucket.len() {
            if bucket[i].key() < bucket[min_i].key() {
                min_i = i;
            }
        }
        let e = bucket.swap_remove(min_i);
        self.wheel_len -= 1;
        Some((e.time, e.sub, e.payload))
    }

    /// Re-anchors the empty wheel at the overflow's minimum and pulls in
    /// every overflow entry that now fits the window.
    fn refill_from_overflow(&mut self) {
        debug_assert_eq!(self.wheel_len, 0);
        let Some(m) = self.overflow.min_key() else {
            return;
        };
        self.base_us = align_down(m);
        self.cursor = slot_of(m);
        let bound = self.base_us + WHEEL_SPAN_US;
        let wheel = &mut self.wheel;
        let mut moved = 0;
        self.overflow.drain_below(bound, |e| {
            wheel[slot_of(e.time.as_micros())].push(e);
            moved += 1;
        });
        self.wheel_len += moved;
    }

    /// The earliest scheduled time, without removing anything.
    pub fn peek_time(&self) -> Option<SimTime> {
        if self.len == 0 {
            return None;
        }
        if let Some(PastEntry(e)) = self.past.peek() {
            return Some(e.time);
        }
        if self.wheel_len > 0 {
            // Non-mutating cursor scan.
            let mut cursor = self.cursor;
            loop {
                if let Some(min) = self.wheel[cursor].iter().map(|e| e.time).min() {
                    return Some(min);
                }
                cursor = (cursor + 1) % WHEEL_BUCKETS;
            }
        }
        self.overflow.min_key().map(SimTime::from_micros)
    }

    /// Pops the earliest event if it is due at or before `now`.
    pub fn pop_due(&mut self, now: SimTime) -> Option<(SimTime, u64, T)> {
        if self.peek_time()? <= now {
            self.pop()
        } else {
            None
        }
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every event and re-anchors at time zero. Sequence numbers
    /// keep counting, so FIFO stability spans a clear.
    pub fn clear(&mut self) {
        for b in &mut self.wheel {
            b.clear();
        }
        self.wheel_len = 0;
        self.cursor = 0;
        self.base_us = 0;
        self.past.clear();
        self.overflow.clear();
        self.len = 0;
    }
}

impl<T> Default for CalendarQueue<T> {
    fn default() -> Self {
        CalendarQueue::new()
    }
}

impl<T> Extend<(SimTime, u64, T)> for CalendarQueue<T> {
    fn extend<I: IntoIterator<Item = (SimTime, u64, T)>>(&mut self, iter: I) {
        for (time, sub, payload) in iter {
            self.push(time, sub, payload);
        }
    }
}

impl<T> FromIterator<(SimTime, u64, T)> for CalendarQueue<T> {
    fn from_iter<I: IntoIterator<Item = (SimTime, u64, T)>>(iter: I) -> Self {
        let mut q = CalendarQueue::new();
        q.extend(iter);
        q
    }
}

/// A generation-checked handle into a [`JobSlab`].
///
/// Indices are reused after removal, but every reuse bumps the slot's
/// generation, so a `JobRef` held across its job's removal resolves to
/// `None` rather than aliasing the slot's next occupant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct JobRef {
    index: u32,
    generation: u32,
}

#[derive(Debug, Clone)]
struct SlabSlot<T> {
    generation: u32,
    value: Option<T>,
}

/// A slab arena for in-flight jobs: O(1) insert/lookup/remove with LIFO
/// slot reuse and generation-checked references.
///
/// # Example
///
/// ```
/// use qoserve_sim::JobSlab;
///
/// let mut slab = JobSlab::new();
/// let a = slab.insert("job a");
/// assert_eq!(slab.get(a), Some(&"job a"));
/// assert_eq!(slab.remove(a), Some("job a"));
/// // The handle is dead: the slot may be reused, but `a` cannot see it.
/// let b = slab.insert("job b");
/// assert_eq!(slab.get(a), None);
/// assert_eq!(slab.get(b), Some(&"job b"));
/// ```
#[derive(Debug, Clone)]
pub struct JobSlab<T> {
    slots: Vec<SlabSlot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> JobSlab<T> {
    /// Creates an empty slab.
    pub fn new() -> Self {
        JobSlab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Creates an empty slab with room for `capacity` jobs.
    pub fn with_capacity(capacity: usize) -> Self {
        JobSlab {
            slots: Vec::with_capacity(capacity),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Stores `value`, returning its handle.
    pub fn insert(&mut self, value: T) -> JobRef {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[nums::u32_to_usize(index)];
            debug_assert!(slot.value.is_none());
            slot.value = Some(value);
            JobRef {
                index,
                generation: slot.generation,
            }
        } else {
            #[expect(
                clippy::panic,
                reason = "4 billion live jobs means the simulation itself is broken"
            )]
            let index =
                u32::try_from(self.slots.len()).unwrap_or_else(|_| panic!("JobSlab overflow"));
            self.slots.push(SlabSlot {
                generation: 0,
                value: Some(value),
            });
            JobRef {
                index,
                generation: 0,
            }
        }
    }

    /// The job behind `r`, or `None` if it was removed (or `r` belongs to
    /// a previous occupant of a reused slot).
    pub fn get(&self, r: JobRef) -> Option<&T> {
        let slot = self.slots.get(nums::u32_to_usize(r.index))?;
        if slot.generation != r.generation {
            return None;
        }
        slot.value.as_ref()
    }

    /// Mutable access to the job behind `r`, with the same staleness
    /// checks as [`get`](Self::get).
    pub fn get_mut(&mut self, r: JobRef) -> Option<&mut T> {
        let slot = self.slots.get_mut(nums::u32_to_usize(r.index))?;
        if slot.generation != r.generation {
            return None;
        }
        slot.value.as_mut()
    }

    /// Removes and returns the job behind `r`; the slot's generation is
    /// bumped so stale copies of `r` die with it. Removing twice returns
    /// `None`.
    pub fn remove(&mut self, r: JobRef) -> Option<T> {
        let slot = self.slots.get_mut(nums::u32_to_usize(r.index))?;
        if slot.generation != r.generation {
            return None;
        }
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(r.index);
        self.len -= 1;
        Some(value)
    }

    /// Number of live jobs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab holds no live jobs.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every job. Generations of occupied slots are bumped, so
    /// handles from before the clear are all stale.
    pub fn clear(&mut self) {
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.value.take().is_some() {
                slot.generation = slot.generation.wrapping_add(1);
                self.free.push(nums::usize_to_u32(i));
            }
        }
        self.len = 0;
    }
}

impl<T> Default for JobSlab<T> {
    fn default() -> Self {
        JobSlab::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    #[test]
    fn pops_in_time_sub_seq_order() {
        let mut q = CalendarQueue::new();
        q.push(t(500), 2, "late-sub2");
        q.push(t(500), 1, "late-sub1");
        q.push(t(100), 0, "early");
        q.push(t(500), 1, "late-sub1-second");
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((t(100), 0, "early")));
        assert_eq!(q.pop(), Some((t(500), 1, "late-sub1")));
        assert_eq!(q.pop(), Some((t(500), 1, "late-sub1-second")));
        assert_eq!(q.pop(), Some((t(500), 2, "late-sub2")));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_route_through_the_overflow_heap() {
        let mut q = CalendarQueue::new();
        // Far beyond the wheel span: must land in (and return from) the
        // radix-heap overflow.
        let horizon = WHEEL_SPAN_US * 40;
        for i in (0..100u64).rev() {
            q.push(t(i * horizon / 100), i, i);
        }
        let mut last = None;
        for _ in 0..100 {
            let (time, sub, _) = q.pop().expect("100 events");
            let key = (time.as_micros(), sub);
            assert!(last.is_none_or(|l| l <= key), "nondecreasing pops");
            last = Some(key);
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pushes_behind_the_wheel_base_still_pop_first() {
        let mut q = CalendarQueue::new();
        q.push(t(WHEEL_SPAN_US * 3), 0, "far");
        // Popping nothing yet; draining the wheel forward happens on pop.
        q.push(t(10), 0, "near");
        assert_eq!(q.pop(), Some((t(10), 0, "near")));
        // The wheel has re-anchored at the far event; a push behind the
        // new base must still pop before it.
        q.push(t(WHEEL_SPAN_US * 3), 0, "far-tie");
        let _ = q.pop(); // "far" or re-anchor; order pinned below
                         // Now the base sits at the far window. Push something earlier.
        q.push(t(20), 0, "behind-base");
        assert_eq!(q.pop(), Some((t(20), 0, "behind-base")));
        assert_eq!(q.pop(), Some((t(WHEEL_SPAN_US * 3), 0, "far-tie")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn pop_due_respects_now() {
        let mut q = CalendarQueue::new();
        q.push(t(1_000), 0, "a");
        q.push(t(2_000), 0, "b");
        assert_eq!(q.pop_due(t(500)), None);
        assert_eq!(q.pop_due(t(1_000)), Some((t(1_000), 0, "a")));
        assert_eq!(q.pop_due(t(1_000)), None);
        assert_eq!(q.peek_time(), Some(t(2_000)));
        assert_eq!(q.pop_due(t(5_000)), Some((t(2_000), 0, "b")));
    }

    #[test]
    fn clear_empties_and_reanchors() {
        let mut q = CalendarQueue::new();
        q.push(t(WHEEL_SPAN_US * 7), 0, 1u32);
        q.push(t(5), 0, 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        q.push(t(3), 0, 3);
        assert_eq!(q.pop(), Some((t(3), 0, 3)));
    }

    #[test]
    fn matches_event_queue_order_with_zero_sub() {
        use crate::events::EventQueue;
        let times = [7u64, 7, 3, 900_000, 7, 3, 12_000_000, 0, 900_000];
        let mut cq = CalendarQueue::new();
        let mut eq = EventQueue::new();
        for (i, &us) in times.iter().enumerate() {
            cq.push(t(us), 0, i);
            eq.push(t(us), i);
        }
        loop {
            let a = cq.pop().map(|(time, _, v)| (time, v));
            let b = eq.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn slab_inserts_and_lookups() {
        let mut slab = JobSlab::with_capacity(4);
        let a = slab.insert(10);
        let b = slab.insert(20);
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&10));
        *slab.get_mut(b).unwrap() += 1;
        assert_eq!(slab.get(b), Some(&21));
    }

    #[test]
    fn slab_detects_stale_refs_after_reuse() {
        let mut slab = JobSlab::new();
        let a = slab.insert("a");
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.remove(a), None, "double remove is detected");
        let b = slab.insert("b"); // reuses slot 0
        assert_eq!(slab.get(a), None, "stale ref must not alias");
        assert_eq!(slab.get_mut(a), None);
        assert_eq!(slab.get(b), Some(&"b"));
    }

    #[test]
    fn slab_clear_invalidates_everything() {
        let mut slab = JobSlab::new();
        let refs: Vec<JobRef> = (0..5).map(|i| slab.insert(i)).collect();
        slab.clear();
        assert!(slab.is_empty());
        for r in refs {
            assert_eq!(slab.get(r), None);
        }
        let again = slab.insert(99);
        assert_eq!(slab.get(again), Some(&99));
        assert_eq!(slab.len(), 1);
    }

    #[test]
    fn slab_free_list_reuse_is_deterministic() {
        let mut slab = JobSlab::new();
        let a = slab.insert(1);
        let b = slab.insert(2);
        slab.remove(a);
        slab.remove(b);
        // LIFO reuse: most recently freed slot first.
        let c = slab.insert(3);
        let d = slab.insert(4);
        assert_eq!(slab.get(c), Some(&3));
        assert_eq!(slab.get(d), Some(&4));
        assert_eq!(slab.len(), 2);
    }
}
