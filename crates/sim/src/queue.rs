//! The future-event list: a time-ordered priority queue with a total order.
//!
//! Determinism is a hard requirement for this project (every figure must be
//! exactly reproducible from a seed), so every event carries a [`Key`]:
//! its time, then a `tie` that orders events at the same time. A caller
//! that keys its events itself ([`EventQueue::schedule`]) gets an order
//! that does not depend on when anything was pushed; the engine keys each
//! event by what it is (DESIGN.md §11). [`EventQueue::push`] gives the tie
//! out in push order instead (FIFO among equal times); one queue uses one
//! of the two. `std::collections::BinaryHeap` alone is not stable, hence
//! the explicit key.
//!
//! Two backends implement the same `(time, tie)` contract:
//!
//! * [`QueueKind::Heap`] — a `BinaryHeap<Reverse<Scheduled>>`; `O(log n)`
//!   push/pop, the reference implementation.
//! * [`QueueKind::Calendar`] — a calendar queue (Brown 1988): a ring of
//!   64 ns-wide buckets spanning a ~262 µs "year", a two-level occupancy
//!   bitmap for skipping empty buckets, and an overflow heap for events
//!   beyond the current year (RTO and flow-start timers live there). A
//!   push appends to its bucket and marks it dirty; the scan sorts a dirty
//!   bucket once, when it first reads the bucket's minimum, and only a
//!   push into the bucket being drained pays a sorted insert. The packet
//!   workloads schedule ~190 events per simulated µs, a dozen per bucket
//!   at this width. Push and pop are amortised `O(1)` because simulators
//!   schedule overwhelmingly into the near future. A push earlier than
//!   the current scan position rewinds the scan, so ordering holds for
//!   arbitrary push patterns, not just monotone ones.
//!
//! The two are observationally identical — `tests::calendar_matches_heap`
//! (sparse, adversarial) and `tests::dense_calendar_matches_heap` (hundreds
//! of events per bucket, far denser than the packet workloads) drive both
//! with seeded caller-keyed workloads, equal-time events pushed in shuffled
//! order, and assert that both pop in `(time, tie)` order.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::binary_heap::{BinaryHeap, PeekMut};

/// A scheduled entry in the future-event list.
#[derive(Debug)]
struct Scheduled<E> {
    key: Key,
    event: E,
}

// Ordering is on the key only; the payload is irrelevant.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// Where an event sorts in the queue: by time, then by `tie`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Key {
    /// When the event fires.
    pub time: SimTime,
    /// Orders events at the same time.
    pub tie: u64,
}

/// Which future-event-list implementation a queue uses.
///
/// Both kinds implement the identical `(time, tie)` ordering;
/// the choice is purely a performance knob and must never change a
/// simulation artifact (see `tests/hotpath.rs`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueKind {
    /// Binary-heap future-event list (`O(log n)`, reference).
    #[default]
    Heap,
    /// Calendar-queue future-event list (amortised `O(1)`).
    Calendar,
}

// Calendar geometry: 4096 buckets of 64 ns cover a ~262 us year.
// Anything scheduled past the current year waits in the overflow heap
// and migrates into buckets as years advance.
const CAL_SHIFT: u32 = 6;
const CAL_BUCKETS: usize = 4096;
const CAL_MASK: u64 = (CAL_BUCKETS as u64) - 1;
const CAL_YEAR: u64 = (CAL_BUCKETS as u64) << CAL_SHIFT;

/// The calendar backend.
///
/// Invariants:
/// * no bucketed event is earlier than the scan position
///   `epoch + cur·width` (pushes behind the scan rewind it),
/// * `far` only holds events at or beyond `epoch + YEAR` (the horizon
///   only drops on a rewind, which keeps the property; wrapping a year
///   migrates newly-near events back into buckets), and
/// * a bucket whose `dirty` bit is clear is sorted descending by key, so
///   its minimum is `last()` and pop is `Vec::pop`. A push into the scan's
///   bucket keeps it sorted; a push into any other appends and sets the
///   bit, and [`Calendar::seek`] sorts a dirty bucket before reading it.
///
/// Together these mean the scan's first *eligible* bucket entry — one
/// whose time is inside the bucket's current-year window — is the global
/// minimum. A bucket can also hold events for future years (after a
/// rewind); the eligibility check in [`Calendar::seek`] skips those.
#[derive(Debug)]
struct Calendar<E> {
    /// Ring of buckets.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// Occupancy bitmap: bit `b & 63` of `occ[b >> 6]` set iff bucket
    /// `b` is non-empty; `top` summarises the 64 words.
    occ: [u64; CAL_BUCKETS / 64],
    top: u64,
    /// Bit `b & 63` of `dirty[b >> 6]` set iff bucket `b` may be unsorted.
    dirty: [u64; CAL_BUCKETS / 64],
    /// Scan position (bucket index) and the start time of its year (ns).
    cur: usize,
    epoch: u64,
    /// Events at or beyond `epoch + CAL_YEAR`.
    far: BinaryHeap<Reverse<Scheduled<E>>>,
    /// Events currently bucketed.
    near_len: usize,
    /// Buffers of drained buckets, handed LIFO to the next bucket that
    /// needs storage. The scan empties one bucket while pushes fill one a
    /// few microseconds ahead, so without this every one of the 4096
    /// buckets grows its own buffer and the ring cycles through all of
    /// them once a year — cold memory on every push and pop. Recycling
    /// keeps as many buffers as buckets are occupied at once, and the most
    /// recently drained (cache-hot) one is reused first.
    spare: Vec<Vec<Scheduled<E>>>,
}

impl<E> Calendar<E> {
    fn new() -> Self {
        Calendar {
            buckets: (0..CAL_BUCKETS).map(|_| Vec::new()).collect(),
            occ: [0; CAL_BUCKETS / 64],
            top: 0,
            dirty: [0; CAL_BUCKETS / 64],
            cur: 0,
            epoch: 0,
            far: BinaryHeap::new(),
            near_len: 0,
            spare: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.near_len + self.far.len()
    }

    fn insert_near(&mut self, s: Scheduled<E>) {
        let b = ((s.key.time.as_nanos() >> CAL_SHIFT) & CAL_MASK) as usize;
        let v = &mut self.buckets[b];
        if v.capacity() == 0 {
            if let Some(buf) = self.spare.pop() {
                *v = buf;
            }
        }
        if b == self.cur {
            // Descending by key: insert before the first element strictly
            // smaller, so the minimum stays `last()` for the pops to come.
            let i = v.partition_point(|x| x.key > s.key);
            v.insert(i, s);
        } else {
            v.push(s);
            self.dirty[b >> 6] |= 1 << (b & 63);
        }
        self.occ[b >> 6] |= 1 << (b & 63);
        self.top |= 1 << (b >> 6);
        self.near_len += 1;
    }

    fn push(&mut self, s: Scheduled<E>) {
        let t = s.key.time.as_nanos();
        if t < self.epoch + ((self.cur as u64) << CAL_SHIFT) {
            // Behind the scan (e.g. scheduled after a peek advanced it):
            // rewind so the forward scan sees this event first.
            self.epoch = t & !(CAL_YEAR - 1);
            self.cur = ((t >> CAL_SHIFT) & CAL_MASK) as usize;
        }
        if t < self.epoch + CAL_YEAR {
            self.insert_near(s);
        } else {
            self.far.push(Reverse(s));
        }
    }

    /// Lowest occupied bucket index in `[from, CAL_BUCKETS)`, if any.
    fn next_occupied(&self, from: usize) -> Option<usize> {
        let w0 = from >> 6;
        let bits = self.occ[w0] & (!0u64 << (from & 63));
        if bits != 0 {
            return Some((w0 << 6) + bits.trailing_zeros() as usize);
        }
        if w0 + 1 >= CAL_BUCKETS / 64 {
            return None;
        }
        let words = self.top & (!0u64 << (w0 + 1));
        if words == 0 {
            return None;
        }
        let w = words.trailing_zeros() as usize;
        Some((w << 6) + self.occ[w].trailing_zeros() as usize)
    }

    /// Pull every overflow event that now falls inside the current year.
    fn migrate_far(&mut self) {
        let horizon = self.epoch + CAL_YEAR;
        while let Some(Reverse(s)) = self.far.peek() {
            if s.key.time.as_nanos() >= horizon {
                break;
            }
            let Reverse(s) = self.far.pop().expect("peeked");
            self.insert_near(s);
        }
    }

    /// With no bucketed events left, jump the scan straight to the
    /// overflow minimum's year instead of stepping empty years.
    fn fast_forward(&mut self) {
        let t = self
            .far
            .peek()
            .expect("fast_forward needs far events")
            .0
            .key
            .time
            .as_nanos();
        self.epoch = t & !(CAL_YEAR - 1);
        self.cur = ((t >> CAL_SHIFT) & CAL_MASK) as usize;
        self.migrate_far();
    }

    /// Advance the scan to the bucket holding the global minimum.
    /// Returns `None` only when the queue is empty.
    fn seek(&mut self) -> Option<usize> {
        if self.near_len == 0 {
            if self.far.is_empty() {
                return None;
            }
            self.fast_forward();
        }
        let mut from = self.cur;
        loop {
            if let Some(b) = self.next_occupied(from) {
                if self.dirty[b >> 6] & (1 << (b & 63)) != 0 {
                    self.dirty[b >> 6] &= !(1 << (b & 63));
                    self.buckets[b].sort_unstable_by_key(|x| Reverse(x.key));
                }
                // Eligible only if the bucket's minimum falls inside the
                // bucket's window for the scan's current year; an entry
                // for a later year (bucketed before a rewind) waits.
                let min_t = self.buckets[b].last().expect("occupied").key.time;
                let min_t = min_t.as_nanos();
                if min_t < self.epoch + ((b as u64 + 1) << CAL_SHIFT) {
                    self.cur = b;
                    return Some(b);
                }
                from = b + 1;
                if from < CAL_BUCKETS {
                    continue;
                }
            }
            // Year boundary: wrap and admit newly-near overflow events.
            from = 0;
            self.cur = 0;
            self.epoch += CAL_YEAR;
            self.migrate_far();
        }
    }

    /// Pop the global minimum if `ok(its time)`; one seek serves both the
    /// test and the removal.
    fn pop_if(&mut self, ok: impl FnOnce(SimTime) -> bool) -> Option<Scheduled<E>> {
        let b = self.seek()?;
        let v = &mut self.buckets[b];
        if !ok(v.last().expect("seek found an occupied bucket").key.time) {
            return None;
        }
        let s = v.pop().expect("seek found an occupied bucket");
        if v.is_empty() {
            self.spare.push(std::mem::take(v));
            self.occ[b >> 6] &= !(1 << (b & 63));
            if self.occ[b >> 6] == 0 {
                self.top &= !(1 << (b >> 6));
            }
        }
        self.near_len -= 1;
        Some(s)
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        let b = self.seek()?;
        Some(self.buckets[b].last().expect("occupied").key.time)
    }

    fn clear(&mut self) {
        for v in &mut self.buckets {
            if v.capacity() > 0 {
                v.clear();
                self.spare.push(std::mem::take(v));
            }
        }
        self.occ = [0; CAL_BUCKETS / 64];
        self.top = 0;
        self.dirty = [0; CAL_BUCKETS / 64];
        self.cur = 0;
        self.epoch = 0;
        self.far.clear();
        self.near_len = 0;
    }
}

#[derive(Debug)]
enum Backend<E> {
    Heap(BinaryHeap<Reverse<Scheduled<E>>>),
    Calendar(Box<Calendar<E>>),
}

/// A deterministic future-event list.
///
/// Events popped from the queue are non-decreasing in time. Equal-time
/// events come out in `tie` order: the caller's own key under
/// [`EventQueue::schedule`], push order (FIFO) under [`EventQueue::push`].
///
/// ```
/// use conga_sim::{EventQueue, Key, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "b");
/// q.push(SimTime::from_nanos(10), "a");
/// q.push(SimTime::from_nanos(20), "c");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "c")));
///
/// let t = SimTime::from_nanos(30);
/// q.schedule(Key { time: t, tie: 2 }, "late");
/// q.schedule(Key { time: t, tie: 1 }, "early");
/// assert_eq!(q.pop(), Some((t, "early")));
/// assert_eq!(q.pop(), Some((t, "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    backend: Backend<E>,
    /// The tie the next [`EventQueue::push`] gives its event.
    next_seq: u64,
    /// Total number of events ever pushed (for engine statistics).
    pushed: u64,
    /// Key of the most recently popped event.
    popped: Key,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty heap-backed queue.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Heap, 0)
    }

    /// Create an empty heap-backed queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_kind(QueueKind::Heap, cap)
    }

    /// Create an empty queue with an explicit backend.
    pub fn with_kind(kind: QueueKind, cap: usize) -> Self {
        let backend = match kind {
            QueueKind::Heap => Backend::Heap(BinaryHeap::with_capacity(cap)),
            QueueKind::Calendar => Backend::Calendar(Box::new(Calendar::new())),
        };
        EventQueue {
            backend,
            next_seq: 0,
            pushed: 0,
            popped: Key {
                time: SimTime::ZERO,
                tie: 0,
            },
        }
    }

    /// Which backend this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match &self.backend {
            Backend::Heap(_) => QueueKind::Heap,
            Backend::Calendar(_) => QueueKind::Calendar,
        }
    }

    /// Schedule `event` to fire at `time`, after every event pushed at the
    /// same time before it.
    #[inline]
    pub fn push(&mut self, time: SimTime, event: E) {
        let tie = self.next_seq;
        self.next_seq += 1;
        self.schedule(Key { time, tie }, event);
    }

    /// Schedule `event` under a key of the caller's. Two events under one
    /// key pop in an unspecified order between them.
    #[inline]
    pub fn schedule(&mut self, key: Key, event: E) {
        self.pushed += 1;
        let s = Scheduled { key, event };
        match &mut self.backend {
            Backend::Heap(h) => h.push(Reverse(s)),
            Backend::Calendar(c) => c.push(s),
        }
    }

    /// Whether the event order has gone past `key`: the most recently
    /// popped event sorts after it, so an event scheduled under it would
    /// already have fired.
    #[inline]
    pub fn passed(&self, key: Key) -> bool {
        key < self.popped
    }

    /// The key of the most recently popped event.
    #[inline]
    pub fn last_popped(&self) -> Key {
        self.popped
    }

    /// Remove and return the earliest event, if any.
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_if(|_| true)
    }

    /// Remove and return the earliest event if it fires strictly before
    /// `bound`: `peek_time() < bound` then `pop()`, in one search.
    #[inline]
    pub fn pop_before(&mut self, bound: SimTime) -> Option<(SimTime, E)> {
        self.pop_if(|t| t < bound)
    }

    #[inline]
    fn pop_if(&mut self, ok: impl FnOnce(SimTime) -> bool) -> Option<(SimTime, E)> {
        let s = match &mut self.backend {
            Backend::Heap(h) => {
                let top = h.peek_mut()?;
                if !ok(top.0.key.time) {
                    return None;
                }
                PeekMut::pop(top).0
            }
            Backend::Calendar(c) => c.pop_if(ok)?,
        };
        self.popped = s.key;
        Some((s.key.time, s.event))
    }

    /// The time of the earliest pending event, if any.
    ///
    /// Takes `&mut self` because the calendar backend advances its scan
    /// position to the answer (contents are untouched).
    #[inline]
    pub fn peek_time(&mut self) -> Option<SimTime> {
        match &mut self.backend {
            Backend::Heap(h) => h.peek().map(|Reverse(s)| s.key.time),
            Backend::Calendar(c) => c.peek_time(),
        }
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(h) => h.len(),
            Backend::Calendar(c) => c.len(),
        }
    }

    /// Whether the queue is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of events pushed over the queue's lifetime.
    #[inline]
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Drop all pending events.
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Heap(h) => h.clear(),
            Backend::Calendar(c) => c.clear(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn kinds() -> [QueueKind; 2] {
        [QueueKind::Heap, QueueKind::Calendar]
    }

    #[test]
    fn pops_in_time_order() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind, 0);
            for &t in &[50u64, 10, 40, 10, 30] {
                q.push(SimTime::from_nanos(t), t);
            }
            let mut out = Vec::new();
            while let Some((t, e)) = q.pop() {
                assert_eq!(t.as_nanos(), e);
                out.push(e);
            }
            assert_eq!(out, vec![10, 10, 30, 40, 50], "{kind:?}");
        }
    }

    #[test]
    fn ties_are_fifo() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind, 0);
            let t = SimTime::from_micros(1);
            for i in 0..100 {
                q.push(t, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop().unwrap().1, i, "{kind:?}");
            }
        }
    }

    #[test]
    fn interleaved_ties_stay_fifo() {
        // FIFO among ties must hold even when pops interleave with pushes
        // at the same timestamp (the sequence number is global, not
        // per-batch).
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind, 0);
            let t = SimTime::from_micros(9);
            q.push(t, "a");
            q.push(t, "b");
            assert_eq!(q.pop().unwrap().1, "a");
            q.push(t, "c");
            assert_eq!(q.pop().unwrap().1, "b");
            assert_eq!(q.pop().unwrap().1, "c");
            assert_eq!(q.pop(), None, "{kind:?}");
        }
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = EventQueue::new();
        let mut b = EventQueue::with_capacity(4); // deliberately smaller than the load
        for &t in &[5u64, 1, 3, 3, 2, 9, 1] {
            a.push(SimTime::from_nanos(t), t);
            b.push(SimTime::from_nanos(t), t);
        }
        assert_eq!(a.total_pushed(), b.total_pushed());
        loop {
            let (x, y) = (a.pop(), b.pop());
            assert_eq!(x, y);
            if x.is_none() {
                break;
            }
        }
    }

    #[test]
    fn pushed_counts_every_push_not_net_occupancy() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind, 8);
            for i in 0..5u64 {
                q.push(SimTime::from_nanos(i), i);
            }
            for _ in 0..3 {
                q.pop();
            }
            for i in 0..2u64 {
                q.push(SimTime::from_nanos(100 + i), i);
            }
            assert_eq!(q.total_pushed(), 7, "pops must not decrement the counter");
            assert_eq!(q.len(), 4, "{kind:?}");
        }
    }

    #[test]
    fn peek_and_counters() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind, 0);
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            q.push(SimTime::from_nanos(7), ());
            q.push(SimTime::from_nanos(3), ());
            assert_eq!(q.len(), 2);
            assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
            assert_eq!(q.total_pushed(), 2);
            q.clear();
            assert!(q.is_empty());
            assert_eq!(q.total_pushed(), 2, "lifetime counter survives clear");
        }
    }

    #[test]
    fn clear_parks_every_bucket_buffer() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar, 0);
        for b in 0..8u64 {
            q.push(SimTime::from_nanos(b << CAL_SHIFT), b);
        }
        q.clear();
        let Backend::Calendar(c) = &q.backend else {
            unreachable!("built as a calendar")
        };
        assert!(c.buckets.iter().all(|v| v.capacity() == 0));
        assert_eq!(c.spare.len(), 8);
        q.push(SimTime::from_nanos(5), 5);
        assert_eq!(q.pop(), Some((SimTime::from_nanos(5), 5)));
    }

    /// The calendar backend crosses year boundaries (262 us) and parks
    /// far-future events in its overflow heap; both paths must preserve
    /// the global key order.
    #[test]
    fn calendar_handles_year_crossings_and_far_events() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar, 0);
        // An RTO-like event ~200 ms out, then a dense burst now.
        q.push(SimTime::from_millis(200), 9999u64);
        for i in 0..64u64 {
            q.push(SimTime::from_nanos(i * 700), i);
        }
        // A second far event in a middle year.
        q.push(SimTime::from_millis(30), 7777);
        for i in 0..64u64 {
            assert_eq!(q.pop().unwrap().1, i);
        }
        assert_eq!(q.pop().unwrap(), (SimTime::from_millis(30), 7777));
        assert_eq!(q.pop().unwrap(), (SimTime::from_millis(200), 9999));
        assert_eq!(q.pop(), None);
    }

    /// The tie of the `id`-th event of a test: a bijection of `id` that
    /// scrambles its order, so equal-time events are pushed in an order
    /// unrelated to the order they must pop in.
    fn scrambled(id: u64) -> u64 {
        id.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Seeded adversarial workload of caller-keyed events: interleaved
    /// schedules (always at or after the last popped time, as the engine
    /// guarantees) and pops, bursts of equal-time events under scrambled
    /// ties, and occasional multi-year jumps. At every pop both backends
    /// must hand out the minimum of a reference ordered set, and `passed`
    /// must say exactly which keys sort before the last pop.
    #[test]
    fn calendar_matches_heap() {
        let mut rng = SimRng::new(0xCA1E_50DA);
        let mut heap = EventQueue::with_kind(QueueKind::Heap, 0);
        let mut cal = EventQueue::with_kind(QueueKind::Calendar, 0);
        let mut pending: std::collections::BTreeSet<(Key, u64)> = Default::default();
        let (mut now, mut id) = (0u64, 0u64);
        let mut last: Option<(Key, u64)> = None;
        let mut against_push_order = 0;
        let mut pop = |heap: &mut EventQueue<u64>,
                       cal: &mut EventQueue<u64>,
                       pending: &mut std::collections::BTreeSet<(Key, u64)>| {
            let want = pending.pop_first();
            let (a, b) = (heap.pop(), cal.pop());
            assert_eq!(a, want.map(|(k, e)| (k.time, e)), "heap left the key order");
            assert_eq!(b, a, "calendar left the key order");
            let (key, e) = want?;
            for q in [&*heap, &*cal] {
                assert_eq!(q.last_popped(), key);
                assert!(!q.passed(key));
                if key.tie > 0 {
                    let before = Key {
                        tie: key.tie - 1,
                        ..key
                    };
                    assert!(q.passed(before));
                }
                if let Some(&(next, _)) = pending.first() {
                    assert!(!q.passed(next), "a pending key passed");
                }
            }
            if let Some((k, prev)) = last {
                if k.time == key.time && e < prev {
                    against_push_order += 1;
                }
            }
            last = Some((key, e));
            Some(key.time)
        };
        for _ in 0..30_000 {
            match rng.u64() % 7 {
                // Schedule a burst of one to four events at one time:
                // mostly near-future, sometimes far (RTO-like), often
                // exactly `now` to stress the tie order.
                0..=3 => {
                    let dt = match rng.u64() % 10 {
                        0 => 0,
                        1..=6 => rng.u64() % 3_000,
                        7 | 8 => rng.u64() % 300_000,
                        _ => rng.u64() % 50_000_000,
                    };
                    let time = SimTime::from_nanos(now + dt);
                    for _ in 0..1 + rng.u64() % 4 {
                        let key = Key {
                            time,
                            tie: scrambled(id),
                        };
                        heap.schedule(key, id);
                        cal.schedule(key, id);
                        pending.insert((key, id));
                        id += 1;
                    }
                }
                _ => {
                    if let Some(t) = pop(&mut heap, &mut cal, &mut pending) {
                        now = t.as_nanos();
                    }
                }
            }
            assert_eq!(heap.len(), pending.len());
            assert_eq!(cal.len(), pending.len());
            assert_eq!(heap.peek_time(), cal.peek_time());
        }
        while pop(&mut heap, &mut cal, &mut pending).is_some() {}
        assert!(heap.is_empty() && cal.is_empty());
        assert!(
            against_push_order > 1000,
            "{against_push_order} equal-time pops against push order"
        );
    }

    /// The push rule's four cases against a reference ordered set: pushes
    /// into the bucket being drained after the scan sorted it, into dirty
    /// buckets ahead of the scan, behind a scan that a peek or a refused
    /// `pop_before` parked on a later bucket (so the scan rewinds across
    /// dirty buckets), and into buckets on both sides of a year wrap. A
    /// bucket receives its events in scrambled key order, so one read
    /// without its sort hands out a wrong minimum.
    #[test]
    fn unsorted_buckets_pop_in_key_order() {
        const W: u64 = 1 << CAL_SHIFT;
        /// The scan position and the buckets marked dirty that hold more
        /// than one event.
        fn scan(q: &EventQueue<u64>) -> (usize, Vec<usize>) {
            let Backend::Calendar(c) = &q.backend else {
                unreachable!("built as a calendar")
            };
            let dirty = (0..CAL_BUCKETS)
                .filter(|&b| c.dirty[b >> 6] & (1 << (b & 63)) != 0 && c.buckets[b].len() > 1)
                .collect();
            (c.cur, dirty)
        }
        let mut rng = SimRng::new(0xD1A7_B175);
        let mut q = EventQueue::with_kind(QueueKind::Calendar, 0);
        let mut want: std::collections::BTreeSet<(Key, u64)> = Default::default();
        let (mut now, mut id) = (0u64, 0u64);
        let mut push = |q: &mut EventQueue<u64>, want: &mut std::collections::BTreeSet<_>, t| {
            let key = Key {
                time: SimTime::from_nanos(t),
                tie: scrambled(id),
            };
            q.schedule(key, id);
            want.insert((key, id));
            id += 1;
        };
        // Dirty buckets seen ahead of the scan, between a rewound scan and
        // where it was parked, and on each side of a year wrap.
        let (mut ahead, mut crossed, mut wrapped) = (0, 0, [0, 0]);
        for _ in 0..4_000 {
            let head = q.peek_time();
            assert_eq!(head, want.first().map(|(k, _)| k.time));
            let head = head.map_or(now, SimTime::as_nanos);
            let parked = scan(&q).0;
            match rng.u64() % 8 {
                // The bucket being drained, sorted by the peek above.
                0 => {
                    for _ in 0..1 + rng.u64() % 4 {
                        push(&mut q, &mut want, head + rng.u64() % (W - head % W));
                    }
                }
                // A few buckets ahead of the scan, several events each.
                1 => {
                    for _ in 0..4 + rng.u64() % 12 {
                        push(
                            &mut q,
                            &mut want,
                            head + W * (1 + rng.u64() % 6) + rng.u64() % W,
                        );
                    }
                    let (cur, dirty) = scan(&q);
                    ahead += dirty.iter().filter(|&&b| b > cur).count();
                }
                // Between the last pop and a scan parked further on.
                2 if head >= now + 2 * W => {
                    for _ in 0..8 + rng.u64() % 32 {
                        push(&mut q, &mut want, now + rng.u64() % (head - now));
                    }
                    let (cur, dirty) = scan(&q);
                    crossed += dirty.iter().filter(|&&b| cur < b && b <= parked).count();
                }
                // Both sides of the next year wrap.
                3 => {
                    let wrap = (head / CAL_YEAR + 1) * CAL_YEAR;
                    for _ in 0..4 + rng.u64() % 12 {
                        push(&mut q, &mut want, wrap - 3 * W + rng.u64() % (6 * W));
                    }
                    for b in scan(&q).1 {
                        if b >= CAL_BUCKETS - 3 {
                            wrapped[0] += 1;
                        } else if b < 3 {
                            wrapped[1] += 1;
                        }
                    }
                }
                // Pops bounded at the head, just past it, or a few buckets on.
                _ => {
                    for _ in 0..1 + rng.u64() % 24 {
                        let bound = match rng.u64() % 3 {
                            0 => head,
                            1 => head + 1,
                            _ => head + rng.u64() % (8 * W),
                        };
                        let bound = SimTime::from_nanos(bound);
                        let due = want.first().copied().filter(|(k, _)| k.time < bound);
                        if let Some(d) = due {
                            want.remove(&d);
                            now = d.0.time.as_nanos();
                        }
                        assert_eq!(q.pop_before(bound), due.map(|(k, e)| (k.time, e)));
                    }
                }
            }
            assert_eq!(q.len(), want.len());
        }
        while let Some(got) = q.pop() {
            let (k, e) = want.pop_first().expect("the reference holds as many");
            assert_eq!(got, (k.time, e));
        }
        assert!(want.is_empty());
        assert!(
            ahead > 1000 && crossed > 100 && wrapped[0] > 50 && wrapped[1] > 50,
            "dirty buckets: {ahead} ahead, {crossed} crossed, {wrapped:?} at wraps"
        );
    }

    /// Buckets far denser than the packet workloads make them, which the
    /// sparse test above never reaches: ≥200 events per bucket, pushed
    /// with interleaved lead times from a fraction of a bucket to five
    /// buckets (so every bucket fills out of order, drains to empty and
    /// hands its buffer on), timers a fraction of a year, more than a year
    /// and many years out, and pushes behind a scan that a peek or a
    /// refused fused pop has already advanced. Every time is a multiple of
    /// the bucket width `W`, so the geometry follows the constant. Events
    /// are keyed with scrambled ties. `reference` only ever does
    /// `peek_time` then `pop`; the other two use the fused pops and must
    /// agree with it.
    #[test]
    fn dense_calendar_matches_heap() {
        const W: u64 = 1 << CAL_SHIFT;
        const LEADS: [u64; 4] = [W / 12, W * 3 / 10, W * 6 / 5, W * 5];
        fn push_all(qs: &mut [EventQueue<u64>; 3], id: &mut u64, t: u64) {
            let key = Key {
                time: SimTime::from_nanos(t),
                tie: scrambled(*id),
            };
            for q in qs.iter_mut() {
                q.schedule(key, *id);
            }
            *id += 1;
        }
        /// One pop in each queue: form 0 plain, 1 `pop_before(bound)`,
        /// 2 `pop_before(bound + 1)`, the inclusive bound a
        /// `Network::run_until` slice ends on.
        fn pop_all(qs: &mut [EventQueue<u64>; 3], form: u64, bound: u64) -> Option<(SimTime, u64)> {
            let bound = SimTime::from_nanos(bound);
            let [reference, heap, cal] = qs;
            let due = match (form, reference.peek_time()) {
                (_, None) => false,
                (0, _) => true,
                (1, Some(t)) => t < bound,
                (_, Some(t)) => t <= bound,
            };
            let want = if due { reference.pop() } else { None };
            for q in [heap, cal] {
                let got = match form {
                    0 => q.pop(),
                    1 => q.pop_before(bound),
                    _ => q.pop_before(bound.saturating_add(SimDuration::from_nanos(1))),
                };
                assert_eq!(got, want, "{:?} form {form}", q.kind());
            }
            want
        }

        let mut rng = SimRng::new(0xD3A5_E001);
        let mut qs = [
            EventQueue::with_kind(QueueKind::Heap, 0),
            EventQueue::with_kind(QueueKind::Heap, 0),
            EventQueue::with_kind(QueueKind::Calendar, 0),
        ];
        let (mut now, mut id) = (0u64, 0u64);
        let mut densest = 0;
        for _round in 0..8 {
            // A cloud of 1500 events over the next five buckets (ties
            // included) and three timers: same year, next year, a dozen
            // years out.
            for _ in 0..1500 {
                push_all(&mut qs, &mut id, now + rng.u64() % (5 * W));
            }
            for quarters in [3, 6, 48] {
                push_all(&mut qs, &mut id, now + quarters * CAL_YEAR / 4);
            }
            // Steady state: every popped event schedules one successor.
            for step in 0..6_000u64 {
                let bound = match rng.u64() % 4 {
                    // Exactly the head's time: form 1 must refuse, form 2
                    // accept.
                    0 => qs[0].peek_time().expect("cloud").as_nanos(),
                    _ => now + rng.u64() % (W / 16),
                };
                if let Some((t, _)) = pop_all(&mut qs, step % 3, bound) {
                    now = t.as_nanos();
                    push_all(&mut qs, &mut id, now + LEADS[(step % 4) as usize]);
                    if let Backend::Calendar(c) = &qs[2].backend {
                        densest = densest.max(c.buckets[c.cur].len());
                    }
                }
                assert_eq!(qs[0].len(), qs[2].len());
            }
            // Drain the cloud; the refused pop leaves the calendar's scan
            // parked on the first timer's bucket.
            while pop_all(&mut qs, 1, now + 100 * W).is_some() {}
            assert_eq!(qs[0].len(), 3, "only the timers remain");
            assert_eq!(qs[0].peek_time(), qs[2].peek_time());
            // A push behind the scan must rewind it.
            push_all(&mut qs, &mut id, now + 1);
            assert_eq!(
                pop_all(&mut qs, 0, 0),
                Some((SimTime::from_nanos(now + 1), id - 1))
            );
            // The timers: a year wrap, far-heap migration, fast-forward.
            while let Some((t, _)) = pop_all(&mut qs, 2, u64::MAX) {
                now = t.as_nanos();
            }
            assert!(qs.iter().all(EventQueue::is_empty));
        }
        assert!(densest >= 200, "densest bucket held {densest} events");
        // Recycling: eight clouds in eight different years, yet storage was
        // only ever allocated for the few buckets occupied at one time.
        let Backend::Calendar(c) = &qs[2].backend else {
            unreachable!("third queue is the calendar")
        };
        assert!(!c.spare.is_empty(), "no drained bucket parked its buffer");
        let owned = c.buckets.iter().filter(|v| v.capacity() > 0).count();
        assert_eq!(
            owned, 0,
            "an empty calendar keeps every buffer on the spare list"
        );
        assert!(c.spare.len() <= 16, "{} buffers allocated", c.spare.len());
    }
}
