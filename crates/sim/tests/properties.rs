//! Property suites for the simulation primitives under random operation
//! sequences.

use gpuflow_sim::{Engine, GroupedLink, SimDuration, SimTime};
use proptest::prelude::*;

/// The previous engine implementation — a `BinaryHeap` min-ordered on
/// (time, seq) — kept here as the behavioural oracle for the calendar
/// queue.
struct ReferenceHeap {
    heap: std::collections::BinaryHeap<std::cmp::Reverse<(SimTime, u64, u64)>>,
    now: SimTime,
    next_seq: u64,
}

impl ReferenceHeap {
    fn new() -> Self {
        ReferenceHeap {
            heap: Default::default(),
            now: SimTime::ZERO,
            next_seq: 0,
        }
    }

    fn schedule_at(&mut self, time: SimTime, payload: u64) {
        assert!(time >= self.now);
        self.heap
            .push(std::cmp::Reverse((time, self.next_seq, payload)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u64, u64)> {
        let std::cmp::Reverse((t, seq, payload)) = self.heap.pop()?;
        self.now = t;
        Some((t, seq, payload))
    }

    fn cancel(&mut self, time: SimTime, seq: u64) -> bool {
        let before = self.heap.len();
        self.heap.retain(|r| (r.0 .0, r.0 .1) != (time, seq));
        self.heap.len() < before
    }
}

/// Drains `link` from `now`, harvesting at every completion; returns
/// the owners in completion order and the instant the link went idle.
fn drain<T: Copy>(link: &mut GroupedLink<T>, mut now: SimTime) -> (Vec<T>, SimTime) {
    let mut done = Vec::new();
    while let Some(tc) = link.next_completion(now) {
        now = tc.max(now);
        link.harvest(now, &mut done);
    }
    (done, now)
}

proptest! {
    /// Two links fed the same flows complete them in the same order
    /// (determinism), and a faster link never finishes later.
    #[test]
    fn link_is_deterministic_and_monotone_in_capacity(
        sizes in prop::collection::vec(10.0f64..1e6, 1..30),
    ) {
        let run = |capacity: f64| {
            let mut link = GroupedLink::new(capacity, 1, capacity);
            for (i, &s) in sizes.iter().enumerate() {
                link.start(SimTime::from_nanos(i as u64 * 1000), 0, s, i);
            }
            drain(&mut link, SimTime::from_nanos(sizes.len() as u64 * 1000))
        };
        let (order_a, end_a) = run(1e6);
        let (order_b, end_b) = run(1e6);
        prop_assert_eq!(&order_a, &order_b);
        prop_assert_eq!(end_a, end_b);
        let (_, end_fast) = run(4e6);
        prop_assert!(end_fast <= end_a, "4x capacity cannot finish later");
    }

    /// The grouped link drains exactly its flows whatever the group mix,
    /// and total completion time is bounded below by bytes/capacity.
    #[test]
    fn grouped_link_completion_bounds(
        flows in prop::collection::vec((0usize..4, 1e3f64..1e6), 1..40),
    ) {
        let global = 1e6;
        let mut link = GroupedLink::new(global, 4, 5e5);
        let total: f64 = flows.iter().map(|f| f.1).sum();
        for (i, &(g, bytes)) in flows.iter().enumerate() {
            link.start(SimTime::ZERO, g, bytes, i);
        }
        let (mut done, now) = drain(&mut link, SimTime::ZERO);
        done.sort_unstable();
        prop_assert_eq!(done, (0..flows.len()).collect::<Vec<_>>());
        // Work conservation lower bound (generous epsilon for ns ticks).
        prop_assert!(now.as_secs_f64() + 1e-6 >= total / global);
    }

    /// The calendar queue pops the exact (time, seq) sequence a binary
    /// heap would, under random interleavings of schedules, pops and
    /// cancels — including bursts of same-instant events (FIFO ties) and
    /// far-future outliers that force the direct-search fallback.
    #[test]
    fn engine_matches_reference_heap(
        ops in prop::collection::vec((0u64..5, 0u64..2000), 1..400),
    ) {
        let mut cal: Engine<u64> = Engine::new();
        let mut reference = ReferenceHeap::new();
        // Every (time, seq) ever scheduled, popped and cancelled included.
        let mut scheduled: Vec<(SimTime, u64)> = Vec::new();
        for (i, &(kind, delta)) in ops.iter().enumerate() {
            match kind {
                // Schedule `delta` ns ahead (delta = 0 exercises ties).
                0 | 1 => {
                    let t = SimTime::from_nanos(cal.now().as_nanos() + delta);
                    scheduled.push((t, cal.schedule_at(t, i as u64)));
                    reference.schedule_at(t, i as u64);
                }
                // Far-future outlier: beyond the initial calendar year.
                2 => {
                    let t = SimTime::from_nanos(cal.now().as_nanos() + delta * 1_000_003);
                    scheduled.push((t, cal.schedule_at(t, i as u64)));
                    reference.schedule_at(t, i as u64);
                }
                // Cancel a scheduled event, sometimes one already popped
                // or cancelled, and now and then one under a wrong time.
                3 if !scheduled.is_empty() => {
                    let (t, seq) = scheduled[delta as usize % scheduled.len()];
                    let t = if delta % 11 == 0 { t + SimDuration::from_nanos(1) } else { t };
                    let want = reference.cancel(t, seq);
                    prop_assert_eq!(cal.cancel(t, seq), want);
                }
                // Pop and compare.
                _ => {
                    let got = cal.pop().map(|s| (s.time, s.seq, s.payload));
                    prop_assert_eq!(got, reference.pop());
                    prop_assert_eq!(cal.now(), reference.now);
                }
            }
            prop_assert_eq!(cal.pending(), reference.heap.len());
        }
        // Drain both to the end; total order must coincide.
        loop {
            let got = cal.pop().map(|s| (s.time, s.seq, s.payload));
            let want = reference.pop();
            prop_assert_eq!(&got, &want);
            if got.is_none() {
                break;
            }
        }
    }

    /// Engine sequence numbers keep same-instant events FIFO even when
    /// interleaved with earlier/later ones.
    #[test]
    fn engine_is_work_conserving(times in prop::collection::vec(0u64..100, 1..300)) {
        let mut e: Engine<u64> = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            e.schedule_at(SimTime::from_nanos(t), i as u64);
        }
        let mut per_time: std::collections::HashMap<u64, u64> = Default::default();
        let mut popped = 0;
        while let Some(ev) = e.pop() {
            let last = per_time.entry(ev.time.as_nanos()).or_insert(0);
            // Within one instant, payload (insertion index) ascends.
            prop_assert!(ev.payload >= *last);
            *last = ev.payload;
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert_eq!(e.pending(), 0);
    }
}
