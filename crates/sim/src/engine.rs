//! The discrete-event engine.
//!
//! [`Engine`] is a priority queue of timestamped events with stable FIFO
//! tie-breaking: events scheduled for the same instant pop in the order
//! they were scheduled. The engine is deliberately *passive* — it does not
//! dispatch callbacks. The caller (e.g. the workflow executor) drives the
//! loop with [`Engine::pop`] and interprets its own event payload type,
//! which keeps borrow-checker gymnastics out of simulation models.
//!
//! Internally the queue is a *calendar queue* (Brown 1988): a circular
//! array of time-bucketed lists whose bucket width adapts to the observed
//! event density. Enqueue and dequeue are O(1) amortized instead of the
//! O(log n) of a binary heap, and — unlike a heap — a pop touches only the
//! one bucket the cursor points at, so the hot loop stays in cache. The
//! observable contract is identical to the previous `BinaryHeap`
//! implementation: strict (time, seq) pop order with monotonically
//! increasing sequence numbers (see the equivalence suite in
//! `tests/properties.rs`).
//!
//! [`Engine::cancel`] withdraws one pending event by the `(time, seq)`
//! it was scheduled under, so a model that supersedes its own future
//! event (a link whose next completion moved) removes it instead of
//! leaving it to pop and be ignored. Cancelling consumes no sequence
//! number: every other event keeps its `(time, seq)` and its place in
//! the pop order.

use crate::time::{SimDuration, SimTime};

/// A scheduled event: a payload that becomes due at a simulated instant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scheduled<E> {
    /// Instant at which the event fires.
    pub time: SimTime,
    /// Monotonic sequence number; breaks ties between same-time events.
    pub seq: u64,
    /// Caller-defined payload.
    pub payload: E,
}

/// Smallest number of buckets the calendar ever uses.
const MIN_BUCKETS: usize = 8;
/// Bucket-width exponent before any events have been observed (2^20 ns ≈ 1 ms).
const DEFAULT_SHIFT: u32 = 20;
/// Widest bucket the width estimator may pick (2^40 ns ≈ 18 min).
const MAX_SHIFT: u32 = 40;
/// How many head events the resize pass samples to estimate density.
const WIDTH_SAMPLE: usize = 1024;

/// A deterministic discrete-event queue.
///
/// ```
/// use gpuflow_sim::{Engine, SimDuration, SimTime};
///
/// let mut engine: Engine<&str> = Engine::new();
/// engine.schedule_after(SimDuration::from_millis(5), "later");
/// engine.schedule_after(SimDuration::from_millis(1), "sooner");
/// assert_eq!(engine.pop().unwrap().payload, "sooner");
/// assert_eq!(engine.now(), SimTime::from_nanos(1_000_000));
/// ```
pub struct Engine<E> {
    /// Circular bucket array; each bucket is sorted *descending* by
    /// (time, seq) so the due event is an O(1) `pop()` from the tail.
    buckets: Vec<Vec<Scheduled<E>>>,
    /// `buckets.len() - 1`; bucket count is always a power of two.
    mask: usize,
    /// Bucket width is `1 << shift` nanoseconds.
    shift: u32,
    /// Cursor: index of the bucket whose window is being swept.
    cur: usize,
    /// Exclusive upper bound (ns) of the cursor bucket's current window.
    cur_top: u64,
    /// Floor for shrinking, so a capacity hint is never deallocated.
    min_buckets: usize,
    count: usize,
    now: SimTime,
    next_seq: u64,
    processed: u64,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// Creates an empty engine at t = 0.
    pub fn new() -> Self {
        Engine::with_capacity(0)
    }

    /// Creates an empty engine sized for roughly `capacity` concurrently
    /// pending events, so steady-state scheduling never grows the calendar
    /// mid-run.
    pub fn with_capacity(capacity: usize) -> Self {
        let nb = (capacity / 2).next_power_of_two().max(MIN_BUCKETS);
        let mut e = Engine {
            buckets: Vec::new(),
            mask: nb - 1,
            shift: DEFAULT_SHIFT,
            cur: 0,
            cur_top: 1u64 << DEFAULT_SHIFT,
            min_buckets: nb,
            count: 0,
            now: SimTime::ZERO,
            next_seq: 0,
            processed: 0,
        };
        e.buckets = std::iter::repeat_with(|| Vec::with_capacity(4))
            .take(nb)
            .collect();
        e
    }

    /// Current simulated time (the timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of events still pending.
    pub fn pending(&self) -> usize {
        self.count
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Schedules `payload` at the absolute instant `time`.
    ///
    /// # Panics
    /// Panics if `time` is in the simulated past — scheduling into the past
    /// is always a model bug and silently reordering would corrupt results.
    pub fn schedule_at(&mut self, time: SimTime, payload: E) -> u64 {
        assert!(
            time >= self.now,
            "event scheduled in the past: {time} < now {}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.insert(Scheduled { time, seq, payload });
        seq
    }

    /// Schedules `payload` after `delay` from the current instant.
    pub fn schedule_after(&mut self, delay: SimDuration, payload: E) -> u64 {
        self.schedule_at(self.now + delay, payload)
    }

    /// Removes the pending event scheduled at `time` under sequence
    /// number `seq` (the value `schedule_at` returned), so it never
    /// pops. Returns `false` and changes nothing when no such event is
    /// pending: it already popped, was cancelled, or never existed.
    pub fn cancel(&mut self, time: SimTime, seq: u64) -> bool {
        let key = (time.as_nanos(), seq);
        let b = &mut self.buckets[((key.0 >> self.shift) as usize) & self.mask];
        let pos = b.partition_point(|e| (e.time.as_nanos(), e.seq) > key);
        if b.get(pos)
            .is_some_and(|e| (e.time.as_nanos(), e.seq) == key)
        {
            b.remove(pos);
            self.count -= 1;
            true
        } else {
            false
        }
    }

    /// Pops the next due event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<Scheduled<E>> {
        let (cur, cur_top) = self.locate(self.cur, self.cur_top)?;
        // Persist the sweep so the next call resumes where this one ended.
        self.cur = cur;
        self.cur_top = cur_top;
        let ev = self.buckets[cur].pop()?;
        debug_assert!(ev.time >= self.now);
        self.now = ev.time;
        self.processed += 1;
        self.count -= 1;
        if self.count * 4 < self.buckets.len() && self.buckets.len() > self.min_buckets {
            let nb = self.buckets.len() / 2;
            self.rebuild(nb);
        }
        Some(ev)
    }

    /// Finds the bucket holding the globally next (time, seq) event.
    ///
    /// Sweeps forward from the cursor window; each bucket's due event is
    /// its tail (buckets are sorted descending). If a full lap finds no
    /// event inside its window — every pending event is beyond the current
    /// calendar "year" — falls back to a direct min scan and jumps the
    /// cursor to that event's window.
    fn locate(&self, mut cur: usize, mut cur_top: u64) -> Option<(usize, u64)> {
        if self.count == 0 {
            return None;
        }
        let width = 1u64 << self.shift;
        for _ in 0..self.buckets.len() {
            if let Some(tail) = self.buckets[cur].last() {
                if tail.time.as_nanos() < cur_top {
                    return Some((cur, cur_top));
                }
            }
            cur = (cur + 1) & self.mask;
            cur_top = cur_top.saturating_add(width);
        }
        // Direct search: min (time, seq) over all bucket tails. Same-time
        // events always share a bucket, so comparing tails is exact.
        let mut best = usize::MAX;
        let mut key = (u64::MAX, u64::MAX);
        for (i, b) in self.buckets.iter().enumerate() {
            if let Some(tail) = b.last() {
                let k = (tail.time.as_nanos(), tail.seq);
                if k < key {
                    key = k;
                    best = i;
                }
            }
        }
        let vb = key.0 >> self.shift;
        Some((best, (vb + 1) << self.shift))
    }

    fn insert(&mut self, ev: Scheduled<E>) {
        let t = ev.time.as_nanos();
        let vb = t >> self.shift;
        // If the event's window precedes the cursor's, pull the cursor
        // back so the next sweep cannot skip it.
        let cur_vb = (self.cur_top >> self.shift).saturating_sub(1);
        if vb < cur_vb {
            self.cur = (vb as usize) & self.mask;
            self.cur_top = (vb + 1) << self.shift;
        }
        let idx = (vb as usize) & self.mask;
        let b = &mut self.buckets[idx];
        let key = (t, ev.seq);
        let pos = b.partition_point(|e| (e.time.as_nanos(), e.seq) > key);
        b.insert(pos, ev);
        self.count += 1;
        if self.count > self.buckets.len() * 2 {
            let nb = self.buckets.len() * 2;
            self.rebuild(nb);
        }
    }

    /// Re-buckets every pending event into `nb` buckets, re-estimating the
    /// bucket width from the head of the queue. O(n log n), amortized away
    /// by the doubling/halving schedule.
    fn rebuild(&mut self, nb: usize) {
        let nb = nb.next_power_of_two().max(self.min_buckets);
        let mut all: Vec<Scheduled<E>> = Vec::with_capacity(self.count);
        for b in &mut self.buckets {
            all.append(b);
        }
        // Stable sort: (time, seq) is already total, but stable keeps
        // the determinism obvious to the taint lint and to readers.
        all.sort_by_key(|e| (e.time, e.seq));
        self.shift = estimate_shift(&all);
        if self.buckets.len() != nb {
            self.buckets = std::iter::repeat_with(|| Vec::with_capacity(4))
                .take(nb)
                .collect();
            self.mask = nb - 1;
        }
        // Reset the cursor to `now`'s window; every event is >= now.
        let vb_now = self.now.as_nanos() >> self.shift;
        self.cur = (vb_now as usize) & self.mask;
        self.cur_top = (vb_now + 1) << self.shift;
        // Descending insertion order makes every bucket push an O(1) append
        // while preserving the descending (time, seq) bucket invariant.
        for ev in all.into_iter().rev() {
            let idx = ((ev.time.as_nanos() >> self.shift) as usize) & self.mask;
            self.buckets[idx].push(ev);
        }
    }
}

/// Picks a bucket-width exponent so that the head of the queue spreads at
/// a few events per bucket. Deterministic: depends only on queue contents.
fn estimate_shift<E>(sorted: &[Scheduled<E>]) -> u32 {
    let k = sorted.len().min(WIDTH_SAMPLE);
    if k < 2 {
        return DEFAULT_SHIFT;
    }
    let span = sorted[k - 1]
        .time
        .as_nanos()
        .saturating_sub(sorted[0].time.as_nanos());
    let avg_gap = span / (k as u64 - 1);
    // Target width ≈ 4 average gaps → ~4 events per bucket near the head.
    let target = avg_gap.saturating_mul(4).max(1);
    let ceil_log2 = 64 - (target - 1).leading_zeros();
    ceil_log2.min(MAX_SHIFT)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut e: Engine<u32> = Engine::new();
        e.schedule_at(SimTime::from_nanos(30), 3);
        e.schedule_at(SimTime::from_nanos(10), 1);
        e.schedule_at(SimTime::from_nanos(20), 2);
        let order: Vec<u32> = std::iter::from_fn(|| e.pop().map(|s| s.payload)).collect();
        assert_eq!(order, vec![1, 2, 3]);
        assert_eq!(e.processed(), 3);
    }

    #[test]
    fn same_time_events_pop_fifo() {
        let mut e: Engine<&str> = Engine::new();
        let t = SimTime::from_nanos(5);
        e.schedule_at(t, "first");
        e.schedule_at(t, "second");
        e.schedule_at(t, "third");
        assert_eq!(e.pop().unwrap().payload, "first");
        assert_eq!(e.pop().unwrap().payload, "second");
        assert_eq!(e.pop().unwrap().payload, "third");
    }

    #[test]
    fn now_advances_with_pop() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_after(SimDuration::from_millis(7), ());
        assert_eq!(e.now(), SimTime::ZERO);
        e.pop();
        assert_eq!(e.now(), SimTime::from_nanos(7_000_000));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut e: Engine<()> = Engine::new();
        e.schedule_at(SimTime::from_nanos(100), ());
        e.pop();
        e.schedule_at(SimTime::from_nanos(50), ());
    }

    #[test]
    fn grows_and_shrinks_through_resize_thresholds() {
        let mut e: Engine<u64> = Engine::new();
        for i in 0..10_000u64 {
            // Mixed density: clusters of same-instant events plus spread.
            e.schedule_at(SimTime::from_nanos((i / 3) * 977), i);
        }
        assert_eq!(e.pending(), 10_000);
        let mut last = (SimTime::ZERO, 0u64);
        let mut popped = 0u64;
        while let Some(ev) = e.pop() {
            assert!((ev.time, ev.seq) > last || popped == 0);
            last = (ev.time, ev.seq);
            popped += 1;
        }
        assert_eq!(popped, 10_000);
        assert!(e.is_empty());
    }

    #[test]
    fn far_future_gap_uses_direct_search() {
        let mut e: Engine<u8> = Engine::new();
        e.schedule_at(SimTime::from_nanos(10), 1);
        // Far beyond one calendar year of the initial geometry.
        e.schedule_at(SimTime::from_nanos(u64::MAX / 2), 2);
        assert_eq!(e.pop().unwrap().payload, 1);
        assert_eq!(e.pop().unwrap().payload, 2);
        assert!(e.pop().is_none());
    }

    #[test]
    fn insert_behind_swept_cursor_is_not_skipped() {
        let mut e: Engine<u8> = Engine::new();
        // Sweep the cursor far forward by popping a distant event...
        e.schedule_at(SimTime::from_nanos(50_000_000), 1);
        assert_eq!(e.pop().unwrap().payload, 1);
        // ...then schedule nearer than the cursor's window and a decoy later.
        e.schedule_at(SimTime::from_nanos(50_000_001), 3);
        e.schedule_at(SimTime::from_nanos(50_000_000), 2);
        assert_eq!(e.pop().unwrap().payload, 2);
        assert_eq!(e.pop().unwrap().payload, 3);
    }

    #[test]
    fn cancel_withdraws_only_the_named_pending_event() {
        let mut e: Engine<u8> = Engine::new();
        let t = SimTime::from_nanos(40);
        let a = e.schedule_at(t, 1);
        let b = e.schedule_at(t, 2);
        let c = e.schedule_at(SimTime::from_nanos(90), 3);
        assert!(!e.cancel(SimTime::from_nanos(41), b), "wrong time");
        assert!(e.cancel(t, b));
        assert!(!e.cancel(t, b), "already cancelled");
        assert_eq!(e.pending(), 2);
        let first = e.pop().unwrap();
        assert_eq!((first.seq, first.payload), (a, 1));
        assert!(!e.cancel(t, a), "already popped");
        // A cancel consumes no sequence number.
        assert_eq!(e.schedule_at(t, 4), c + 1);
        assert_eq!(e.pop().unwrap().payload, 4);
        assert_eq!(e.pop().unwrap().payload, 3);
        assert!(e.is_empty());
    }

    #[test]
    fn with_capacity_pre_sizes_the_calendar() {
        let mut e: Engine<u32> = Engine::with_capacity(4096);
        for i in 0..10_000 {
            e.schedule_at(SimTime::from_nanos(u64::from(i) * 13), i);
        }
        let mut expect = 0u32;
        while let Some(ev) = e.pop() {
            assert_eq!(ev.payload, expect);
            expect += 1;
        }
        assert_eq!(expect, 10_000);
    }
}
