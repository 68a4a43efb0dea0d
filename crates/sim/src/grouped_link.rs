//! Bandwidth sharing with max-min fairness: the one flow solver.
//!
//! [`GroupedLink`] models a shared backend reached through per-group
//! front-end links. Flow rates follow max-min water-filling: every flow
//! gets an equal share of the backend unless its group's front-end caps
//! it lower, in which case the slack is redistributed to unconstrained
//! flows. Two shapes cover every contended channel of the cluster:
//!
//! * the GPFS file system (backend) behind each node's NIC (one group
//!   per node);
//! * a PCIe bus or a node-local disk: `GroupedLink::new(bps, 1, bps)`,
//!   one group whose front-end equals the backend, so `k` concurrent
//!   flows each progress at `bps / k` (processor sharing).
//!
//! This fluid model produces every contention effect the paper reports
//! (disk saturation under fine-grained tasks, the shared-disk
//! bottleneck, PCIe contention between co-located GPU tasks).
//!
//! The link is passive. Each flow carries an owner token of the
//! caller's choosing. After every membership change — a
//! [`GroupedLink::start`] when a transfer begins, or a
//! [`GroupedLink::harvest`] at the link's tick, which appends the
//! finished flows' owners in start order — the executor
//! 1. cancels the link's armed tick if it is still pending
//!    ([`Engine::cancel`](crate::Engine::cancel)),
//! 2. arms one tick at [`GroupedLink::next_completion`].
//!
//! So a link has at most one pending tick, and every tick that pops is
//! live.
//!
//! Costs: `start`, `harvest` and `next_completion` take O(busy groups)
//! beyond advancing the fluid model, which subtracts one drained volume
//! from every active flow. A busy group tracks a least-remaining flow,
//! and the busy groups stay in water-filling order across calls.

use std::cmp::Reverse;

use crate::time::{SimDuration, SimTime};

/// Bytes of slack below which a flow counts as finished (absorbs the
/// nanosecond rounding of tick times).
const EPS_BYTES: f64 = 1.0;

/// The active flows of one group as parallel vectors, in start order.
#[derive(Debug, Clone)]
struct Group<T> {
    /// Start sequence number of each flow (ascending).
    seq: Vec<u64>,
    /// Owner token of each flow.
    owner: Vec<T>,
    /// Remaining bytes of each flow.
    left: Vec<f64>,
    /// Index of a flow with the least remaining bytes (0 when idle).
    /// The drain step maps every flow of a group through one monotone
    /// function, so it stays a least one until the group is compacted.
    least: usize,
}

impl<T: Copy> Group<T> {
    fn new() -> Self {
        Group {
            seq: Vec::new(),
            owner: Vec::new(),
            left: Vec::new(),
            least: 0,
        }
    }

    fn len(&self) -> usize {
        self.left.len()
    }

    /// Moves every finished flow's `(seq, owner)` to `out`, compacting
    /// the survivors in place and electing their least one.
    fn compact(&mut self, out: &mut Vec<(u64, T)>) {
        let mut kept = 0;
        self.least = 0;
        for i in 0..self.left.len() {
            let left = self.left[i];
            if left <= EPS_BYTES {
                out.push((self.seq[i], self.owner[i]));
                continue;
            }
            self.seq[kept] = self.seq[i];
            self.owner[kept] = self.owner[i];
            self.left[kept] = left;
            if left < self.left[self.least] {
                self.least = kept;
            }
            kept += 1;
        }
        self.seq.truncate(kept);
        self.owner.truncate(kept);
        self.left.truncate(kept);
    }
}

/// A globally shared channel partitioned through per-group front-ends;
/// each flow carries an owner token `T`.
///
/// ```
/// use gpuflow_sim::{GroupedLink, SimTime};
///
/// let mut link = GroupedLink::new(100.0, 1, 100.0); // one 100 B/s channel
/// link.start(SimTime::ZERO, 0, 100.0, 'a');
/// link.start(SimTime::ZERO, 0, 100.0, 'b');
/// // Two equal flows share the channel: both finish at t = 2 s.
/// let done_at = link.next_completion(SimTime::ZERO).unwrap();
/// let mut done = Vec::new();
/// link.harvest(done_at, &mut done);
/// assert_eq!(done, ['a', 'b']);
/// assert!((done_at.as_secs_f64() - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct GroupedLink<T> {
    global_bps: f64,
    group_cap_bps: f64,
    /// One group whose front-end equals the backend (a PCIe bus or a
    /// local disk): `cap / k` and `global / k` are the same float.
    channel: bool,
    /// Active flows of each group. The flows of a group share one rate,
    /// so the fluid sweeps take one product and one quotient per group,
    /// not per flow.
    groups: Vec<Group<T>>,
    /// Per-flow rate of each group under the current membership (0 for
    /// an idle group). Recomputed after every membership change, so
    /// `advance` and `next_completion` only read it.
    rates: Vec<f64>,
    /// The busy groups in water-filling order, kept across calls.
    order: Vec<usize>,
    /// Active flows across groups.
    active: usize,
    /// Finished flows of the current harvest as `(seq, owner)` (reused
    /// buffer).
    finished: Vec<(u64, T)>,
    last_update: SimTime,
    next_seq: u64,
}

impl<T: Copy> GroupedLink<T> {
    /// Creates a link with `groups` front-ends of `group_cap_bps` each,
    /// feeding a backend of `global_bps`.
    ///
    /// # Panics
    /// Panics unless rates are positive and `groups > 0`.
    pub fn new(global_bps: f64, groups: usize, group_cap_bps: f64) -> Self {
        assert!(
            global_bps > 0.0 && group_cap_bps > 0.0,
            "rates must be positive"
        );
        assert!(groups > 0, "need at least one group");
        GroupedLink {
            global_bps,
            group_cap_bps,
            channel: groups == 1 && group_cap_bps == global_bps,
            groups: (0..groups).map(|_| Group::new()).collect(),
            rates: vec![0.0; groups],
            order: Vec::with_capacity(groups),
            active: 0,
            finished: Vec::new(),
            last_update: SimTime::ZERO,
            next_seq: 0,
        }
    }

    /// Max-min water-filling over the current membership into `rates`,
    /// after `order` gained a newly busy group or lost its idle ones.
    ///
    /// Busy groups fill in ascending order of their per-flow front-end
    /// cap `cap / count`, ties by group index: count descending, then
    /// index ascending, since for the flow counts of any real link
    /// `cap / a < cap / b` exactly when `a > b`. One membership change
    /// moves few groups, so an insertion pass over the kept order
    /// restores it in O(busy groups).
    fn recompute_rates(&mut self) {
        if self.channel {
            if self.active > 0 {
                self.rates[0] = self.global_bps / self.active as f64;
            }
            return;
        }
        let (groups, order) = (&self.groups, &mut self.order);
        let key = |g: usize| (Reverse(groups[g].len()), g);
        for i in 1..order.len() {
            let g = order[i];
            let mut j = i;
            while j > 0 && key(order[j - 1]) > key(g) {
                order[j] = order[j - 1];
                j -= 1;
            }
            order[j] = g;
        }
        let cap = self.group_cap_bps;
        let mut remaining = self.global_bps;
        let mut flows_left = self.active;
        for &g in order.iter() {
            let k = groups[g].len();
            let fair = remaining / flows_left as f64;
            let r = (cap / k as f64).min(fair);
            self.rates[g] = r;
            remaining -= r * k as f64;
            flows_left -= k;
        }
    }

    fn advance(&mut self, now: SimTime) {
        let dt = now.duration_since(self.last_update).as_secs_f64();
        if dt > 0.0 {
            for &g in &self.order {
                let drained = self.rates[g] * dt;
                for left in &mut self.groups[g].left {
                    *left = (*left - drained).max(0.0);
                }
            }
        }
        self.last_update = now;
    }

    /// Begins transferring `bytes` at `now` through the front-end of
    /// `group`, on behalf of `owner`.
    ///
    /// # Panics
    /// Panics on an out-of-range group or a non-finite size.
    pub fn start(&mut self, now: SimTime, group: usize, bytes: f64, owner: T) {
        assert!(group < self.groups.len(), "group {group} out of range");
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "flow size must be finite"
        );
        self.advance(now);
        let g = &mut self.groups[group];
        if g.len() == 0 {
            self.order.push(group);
        } else if bytes < g.left[g.least] {
            g.least = g.len();
        }
        g.seq.push(self.next_seq);
        g.owner.push(owner);
        g.left.push(bytes);
        self.next_seq += 1;
        self.active += 1;
        self.recompute_rates();
    }

    /// Instant at which the earliest active flow will finish, assuming no
    /// membership changes. `None` when the link is idle.
    pub fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        if self.order.is_empty() {
            return None;
        }
        let mut min_secs = f64::INFINITY;
        for &g in &self.order {
            // Division by the group's one positive rate is monotone, so
            // its least remaining volume finishes first: the same value
            // as the least of the per-flow quotients.
            let grp = &self.groups[g];
            let least = grp.left[grp.least];
            if least <= EPS_BYTES {
                return Some(now);
            }
            min_secs = min_secs.min(least / self.rates[g]);
        }
        // Ceil to whole nanoseconds so the scheduled tick never lands
        // before the flow is actually drained.
        let ns = (min_secs * 1e9).ceil().max(1.0) as u64;
        Some(now + SimDuration::from_nanos(ns))
    }

    /// Advances the fluid model to `now`, removes every finished flow
    /// and appends their owners to `done`, in start order across groups.
    /// Only the groups whose least flow finished are compacted.
    pub fn harvest(&mut self, now: SimTime, done: &mut Vec<T>) {
        self.advance(now);
        self.finished.clear();
        for &g in &self.order {
            let grp = &mut self.groups[g];
            if grp.left[grp.least] > EPS_BYTES {
                continue;
            }
            grp.compact(&mut self.finished);
            if grp.len() == 0 {
                self.rates[g] = 0.0;
            }
        }
        if self.finished.is_empty() {
            return;
        }
        let groups = &self.groups;
        self.order.retain(|&g| groups[g].len() > 0);
        self.active -= self.finished.len();
        // Start sequence numbers are unique, so the order is total.
        self.finished.sort_unstable_by_key(|&(seq, _)| seq);
        done.extend(self.finished.iter().map(|&(_, owner)| owner));
        self.recompute_rates();
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    /// Current aggregate throughput across all flows, bytes/s.
    pub fn aggregate_rate(&self) -> f64 {
        self.order
            .iter()
            .map(|&g| self.rates[g] * self.groups[g].len() as f64)
            .sum()
    }

    /// Bytes still in flight (conservation check: started = in flight +
    /// delivered, up to tick rounding).
    pub fn bytes_in_flight(&self) -> f64 {
        self.groups.iter().flat_map(|g| g.left.iter()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn t(s: f64) -> SimTime {
        SimTime::from_nanos((s * 1e9) as u64)
    }

    /// A one-group link: a plain fair-share channel of `bps`.
    fn channel(bps: f64) -> GroupedLink<u32> {
        GroupedLink::new(bps, 1, bps)
    }

    /// The owners `harvest` hands back at `now`.
    fn harvest(link: &mut GroupedLink<u32>, now: SimTime) -> Vec<u32> {
        let mut done = Vec::new();
        link.harvest(now, &mut done);
        done
    }

    #[test]
    fn single_flow_runs_at_capacity() {
        let mut link = channel(100.0); // 100 B/s
        link.start(t(0.0), 0, 200.0, 0);
        let done_at = link.next_completion(t(0.0)).unwrap();
        assert!((done_at.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(harvest(&mut link, done_at), vec![0]);
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_capacity_equally() {
        let mut link = channel(100.0);
        link.start(t(0.0), 0, 100.0, 0);
        link.start(t(0.0), 0, 100.0, 1);
        // Each gets 50 B/s -> both finish at t = 2 s.
        let done_at = link.next_completion(t(0.0)).unwrap();
        assert!((done_at.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(harvest(&mut link, done_at), vec![0, 1]);
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut link = channel(100.0);
        link.start(t(0.0), 0, 100.0, 0); // alone it would finish at 1 s
        link.start(t(0.5), 0, 1000.0, 1); // joins halfway
                                          // First flow: 50 B drained by 0.5 s, then 50 B at 50 B/s -> 1.5 s.
        let done_at = link.next_completion(t(0.5)).unwrap();
        assert!((done_at.as_secs_f64() - 1.5).abs() < 1e-6);
        assert_eq!(harvest(&mut link, done_at), vec![0]);
        // Second flow speeds back up to 100 B/s afterwards.
        let done2 = link.next_completion(done_at).unwrap();
        // It drained 50 B/s * 1.0 s = 50 B so far; 950 B left at 100 B/s.
        assert!((done2.as_secs_f64() - 11.0).abs() < 1e-5);
    }

    #[test]
    fn harvest_before_any_completion_appends_nothing() {
        let mut link = channel(100.0);
        link.start(t(0.0), 0, 100.0, 7);
        let mut done = vec![3];
        link.harvest(t(0.2), &mut done);
        assert_eq!(done, vec![3], "the caller's entries stay, none added");
        assert_eq!(link.active_flows(), 1);
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut link = channel(100.0);
        link.start(t(1.0), 0, 0.0, 0);
        assert_eq!(link.next_completion(t(1.0)), Some(t(1.0)));
        assert_eq!(harvest(&mut link, t(1.0)), vec![0]);
    }

    #[test]
    fn idle_link_has_no_completion() {
        assert_eq!(channel(10.0).next_completion(t(0.0)), None);
        let grouped: GroupedLink<u32> = GroupedLink::new(10.0, 4, 5.0);
        assert_eq!(grouped.next_completion(t(0.0)), None);
    }

    #[test]
    fn byte_conservation_within_rounding() {
        let mut link = channel(1e9);
        link.start(t(0.0), 0, 5e8, 0);
        link.start(t(0.1), 0, 3e8, 1);
        let mut now = t(0.0);
        let mut delivered = 0u64;
        for _ in 0..10 {
            match link.next_completion(now) {
                Some(tc) => {
                    now = tc.max(now);
                    delivered += harvest(&mut link, now).len() as u64;
                }
                None => break,
            }
        }
        assert_eq!(delivered, 2);
        assert!(link.bytes_in_flight() < 64.0);
    }

    #[test]
    fn lone_flow_limited_by_group_cap() {
        // Backend 8 GB/s, NIC 1 GB/s: a single flow gets the NIC rate.
        let mut link: GroupedLink<u32> = GroupedLink::new(8e9, 4, 1e9);
        link.start(t(0.0), 0, 1e9, 0);
        let done = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn many_flows_limited_by_backend() {
        // 16 flows spread over 8 groups, backend 800 B/s, group cap
        // 200 B/s. Fair share = 50 B/s each (backend binds first).
        let mut link = GroupedLink::new(800.0, 8, 200.0);
        for g in 0..8 {
            link.start(t(0.0), g, 100.0, 2 * g as u32);
            link.start(t(0.0), g, 100.0, 2 * g as u32 + 1);
        }
        let done = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
        // All 16 finish at once and come back in start order.
        assert_eq!(harvest(&mut link, done), (0..16).collect::<Vec<u32>>());
    }

    #[test]
    fn constrained_group_slack_goes_to_others() {
        // Backend 1000 B/s; group caps 200 B/s. Group 0 has 4 flows
        // (capped at 50 B/s each = 200 total), group 1 has 1 flow: it
        // gets min(cap=200, remaining 800) = 200 B/s.
        let mut link = GroupedLink::new(1000.0, 2, 200.0);
        for i in 0..4 {
            link.start(t(0.0), 0, 10000.0, i);
        }
        link.start(t(0.0), 1, 200.0, 4);
        let done = link.next_completion(t(0.0)).unwrap();
        assert!(
            (done.as_secs_f64() - 1.0).abs() < 1e-6,
            "{}",
            done.as_secs_f64()
        );
        assert_eq!(harvest(&mut link, done), vec![4]);
        // Only group-0 flows remain, pinned at their front-end cap.
        assert!((link.aggregate_rate() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_never_exceeds_backend() {
        let mut link = GroupedLink::new(800.0, 4, 300.0);
        for g in 0..4 {
            for i in 0..3 {
                link.start(t(0.0), g, 1000.0, i);
            }
        }
        assert!(link.aggregate_rate() <= 800.0 + 1e-9);
    }

    #[test]
    fn group_rate_never_exceeds_front_end() {
        let mut link = GroupedLink::new(10000.0, 2, 300.0);
        link.start(t(0.0), 0, 1000.0, 0);
        link.start(t(0.0), 0, 1000.0, 1);
        // 2 flows in group 0: cap 150 each even though backend has room.
        let done = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 1000.0 / 150.0).abs() < 1e-6);
    }

    #[test]
    fn membership_change_rescales_rates() {
        let mut link = GroupedLink::new(400.0, 2, 400.0);
        link.start(t(0.0), 0, 400.0, 0); // alone: 400 B/s
        link.start(t(0.5), 1, 10000.0, 1); // now 200 B/s each
                                           // Flow 0 has 200 B left at t=0.5, at 200 B/s -> finishes at 1.5 s.
        let done = link.next_completion(t(0.5)).unwrap();
        assert!((done.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_group() {
        let mut link = GroupedLink::new(1.0, 2, 1.0);
        link.start(t(0.0), 5, 1.0, ());
    }

    /// Max-min water-filling recomputed from the flow lists alone:
    /// count each group's flows, sort the busy groups stably by per-flow
    /// front-end cap, fill.
    fn rates_from_scratch(link: &GroupedLink<u32>) -> Vec<f64> {
        let counts: Vec<usize> = link.groups.iter().map(Group::len).collect();
        let cap = link.group_cap_bps;
        let mut order: Vec<usize> = (0..counts.len()).filter(|&g| counts[g] > 0).collect();
        order.sort_by(|&a, &b| {
            (cap / counts[a] as f64)
                .partial_cmp(&(cap / counts[b] as f64))
                .unwrap()
        });
        let mut rates = vec![0.0; counts.len()];
        let mut remaining = link.global_bps;
        let mut flows_left: usize = counts.iter().sum();
        for g in order {
            let r = (cap / counts[g] as f64).min(remaining / flows_left as f64);
            rates[g] = r;
            remaining -= r * counts[g] as f64;
            flows_left -= counts[g];
        }
        rates
    }

    #[test]
    fn stored_rates_track_every_membership_change() {
        let mut rng = StdRng::seed_from_u64(0x6C1D);
        for &(groups, global, cap) in &[(1, 1e9, 1e9), (5, 8e8, 2e8), (8, 1e9, 4e8)] {
            let mut link = GroupedLink::new(global, groups, cap);
            let mut now = SimTime::ZERO;
            let (mut started, mut harvested) = (0u32, 0);
            for _ in 0..400 {
                if rng.gen::<f64>() < 0.55 {
                    // Some empty flows, so one harvest often spans groups.
                    let bytes = if rng.gen::<f64>() < 0.2 {
                        0.0
                    } else {
                        rng.gen_range(1.0..5e6)
                    };
                    link.start(now, rng.gen_range(0..groups), bytes, started);
                    started += 1;
                } else if let Some(tc) = link.next_completion(now) {
                    now = tc.max(now);
                    let done = harvest(&mut link, now);
                    assert!(done.windows(2).all(|w| w[0] < w[1]), "start order");
                    harvested += done.len();
                }
                assert_eq!(link.rates, rates_from_scratch(&link));
                for (g, grp) in link.groups.iter().enumerate() {
                    assert_eq!(link.order.contains(&g), grp.len() > 0, "busy set");
                    if grp.len() > 0 {
                        let least = grp.left.iter().copied().fold(f64::INFINITY, f64::min);
                        assert_eq!(grp.left[grp.least], least, "least flow of {g}");
                    }
                }
                now += SimDuration::from_micros(rng.gen_range(0..200));
            }
            assert!(harvested > 0, "the sequence must remove flows");
        }
    }
}
