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
//! The link is passive. The executor:
//! 1. calls [`GroupedLink::start`] when a transfer begins,
//! 2. schedules a tick event at [`GroupedLink::next_completion`] stamped
//!    with [`GroupedLink::generation`],
//! 3. on a tick whose stamp still matches, calls [`GroupedLink::harvest`]
//!    to collect finished flows and schedules the next tick.
//!
//! Any membership change bumps the generation, invalidating stale ticks.

use crate::time::{SimDuration, SimTime};

/// Identifier of an in-flight transfer on a link.
pub type FlowId = u64;

/// Bytes of slack below which a flow counts as finished (absorbs the
/// nanosecond rounding of tick times).
const EPS_BYTES: f64 = 1.0;

/// A globally shared channel partitioned through per-group front-ends.
///
/// ```
/// use gpuflow_sim::{GroupedLink, SimTime};
///
/// let mut link = GroupedLink::new(100.0, 1, 100.0); // one 100 B/s channel
/// link.start(SimTime::ZERO, 0, 100.0);
/// link.start(SimTime::ZERO, 0, 100.0);
/// // Two equal flows share the channel: both finish at t = 2 s.
/// let done = link.next_completion(SimTime::ZERO).unwrap();
/// assert_eq!(link.harvest(done).len(), 2);
/// assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone)]
pub struct GroupedLink {
    global_bps: f64,
    group_cap_bps: f64,
    /// Active flows of each group as `(id, remaining bytes)`, ascending
    /// by id (ids are monotonic, so pushes keep the order). The flows of
    /// a group share one rate, so the fluid sweeps take one product and
    /// one quotient per group, not per flow.
    groups: Vec<Vec<(FlowId, f64)>>,
    /// Per-flow rate of each group under the current membership (0 for
    /// an idle group). Recomputed after every membership change, so
    /// `advance` and `next_completion` only read it.
    rates: Vec<f64>,
    /// The busy groups in water-filling order (reused buffer).
    order: Vec<usize>,
    last_update: SimTime,
    generation: u64,
    next_flow_id: FlowId,
}

impl GroupedLink {
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
            groups: vec![Vec::new(); groups],
            rates: vec![0.0; groups],
            order: Vec::with_capacity(groups),
            last_update: SimTime::ZERO,
            generation: 0,
            next_flow_id: 0,
        }
    }

    /// Max-min water-filling over the current membership into `rates`.
    /// Busy groups are filled in ascending order of their per-flow
    /// front-end cap (with a uniform group cap that is `cap / count`, so
    /// the busiest groups are most constrained), ties by group index.
    fn recompute_rates(&mut self) {
        let (groups, cap) = (&self.groups, self.group_cap_bps);
        self.rates.fill(0.0);
        self.order.clear();
        self.order
            .extend((0..groups.len()).filter(|&g| !groups[g].is_empty()));
        self.order.sort_unstable_by(|&a, &b| {
            let ca = cap / groups[a].len() as f64;
            let cb = cap / groups[b].len() as f64;
            ca.partial_cmp(&cb).expect("finite caps").then(a.cmp(&b))
        });
        let mut remaining = self.global_bps;
        let mut flows_left: usize = self.order.iter().map(|&g| groups[g].len()).sum();
        for &g in &self.order {
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
                for (_, remaining) in &mut self.groups[g] {
                    *remaining = (*remaining - drained).max(0.0);
                }
            }
        }
        self.last_update = now;
    }

    /// Begins transferring `bytes` at `now` through the front-end of
    /// `group`. Returns the new flow id. Bumps the generation:
    /// previously scheduled ticks are stale.
    ///
    /// # Panics
    /// Panics on an out-of-range group or a non-finite size.
    pub fn start(&mut self, now: SimTime, group: usize, bytes: f64) -> FlowId {
        assert!(group < self.groups.len(), "group {group} out of range");
        assert!(
            bytes >= 0.0 && bytes.is_finite(),
            "flow size must be finite"
        );
        self.advance(now);
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        self.groups[group].push((id, bytes));
        self.recompute_rates();
        self.generation += 1;
        id
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
            let least = self.groups[g]
                .iter()
                .map(|&(_, remaining)| remaining)
                .fold(f64::INFINITY, f64::min);
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

    /// Advances the fluid model to `now` and removes every finished flow,
    /// returning their ids (ascending). Bumps the generation when any
    /// flow completed.
    pub fn harvest(&mut self, now: SimTime) -> Vec<FlowId> {
        self.advance(now);
        let mut done = Vec::new();
        for &g in &self.order {
            self.groups[g].retain(|&(id, remaining)| {
                let finished = remaining <= EPS_BYTES;
                if finished {
                    done.push(id);
                }
                !finished
            });
        }
        if !done.is_empty() {
            // Report across groups in start order.
            done.sort_unstable();
            self.recompute_rates();
            self.generation += 1;
        }
        done
    }

    /// Generation stamp; changes on every membership change.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Number of active flows.
    pub fn active_flows(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
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
        self.groups
            .iter()
            .flatten()
            .map(|&(_, remaining)| remaining)
            .sum()
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
    fn channel(bps: f64) -> GroupedLink {
        GroupedLink::new(bps, 1, bps)
    }

    #[test]
    fn single_flow_runs_at_capacity() {
        let mut link = channel(100.0); // 100 B/s
        link.start(t(0.0), 0, 200.0);
        let done_at = link.next_completion(t(0.0)).unwrap();
        assert!((done_at.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(link.harvest(done_at), vec![0]);
        assert_eq!(link.active_flows(), 0);
    }

    #[test]
    fn two_flows_share_capacity_equally() {
        let mut link = channel(100.0);
        link.start(t(0.0), 0, 100.0);
        link.start(t(0.0), 0, 100.0);
        // Each gets 50 B/s -> both finish at t = 2 s.
        let done_at = link.next_completion(t(0.0)).unwrap();
        assert!((done_at.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(link.harvest(done_at), vec![0, 1]);
    }

    #[test]
    fn late_joiner_slows_existing_flow() {
        let mut link = channel(100.0);
        link.start(t(0.0), 0, 100.0); // alone it would finish at 1 s
        link.start(t(0.5), 0, 1000.0); // joins halfway
                                       // First flow: 50 B drained by 0.5 s, then 50 B at 50 B/s -> 1.5 s.
        let done_at = link.next_completion(t(0.5)).unwrap();
        assert!((done_at.as_secs_f64() - 1.5).abs() < 1e-6);
        assert_eq!(link.harvest(done_at), vec![0]);
        // Second flow speeds back up to 100 B/s afterwards.
        let done2 = link.next_completion(done_at).unwrap();
        // It drained 50 B/s * 1.0 s = 50 B so far; 950 B left at 100 B/s.
        assert!((done2.as_secs_f64() - 11.0).abs() < 1e-5);
    }

    #[test]
    fn generation_bumps_invalidate_ticks() {
        let mut link = channel(100.0);
        link.start(t(0.0), 0, 100.0);
        let g1 = link.generation();
        link.start(t(0.1), 0, 100.0);
        assert_ne!(link.generation(), g1, "start must bump generation");
        let before = link.generation();
        assert!(link.harvest(t(0.2)).is_empty());
        assert_eq!(link.generation(), before, "no completion, no bump");
    }

    #[test]
    fn zero_byte_flow_completes_immediately() {
        let mut link = channel(100.0);
        link.start(t(1.0), 0, 0.0);
        assert_eq!(link.next_completion(t(1.0)), Some(t(1.0)));
        assert_eq!(link.harvest(t(1.0)), vec![0]);
    }

    #[test]
    fn idle_link_has_no_completion() {
        assert_eq!(channel(10.0).next_completion(t(0.0)), None);
        assert_eq!(GroupedLink::new(10.0, 4, 5.0).next_completion(t(0.0)), None);
    }

    #[test]
    fn byte_conservation_within_rounding() {
        let mut link = channel(1e9);
        link.start(t(0.0), 0, 5e8);
        link.start(t(0.1), 0, 3e8);
        let mut now = t(0.0);
        let mut delivered = 0u64;
        for _ in 0..10 {
            match link.next_completion(now) {
                Some(tc) => {
                    now = tc.max(now);
                    delivered += link.harvest(now).len() as u64;
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
        let mut link = GroupedLink::new(8e9, 4, 1e9);
        link.start(t(0.0), 0, 1e9);
        let done = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn many_flows_limited_by_backend() {
        // 16 flows spread over 8 groups, backend 800 B/s, group cap
        // 200 B/s. Fair share = 50 B/s each (backend binds first).
        let mut link = GroupedLink::new(800.0, 8, 200.0);
        for g in 0..8 {
            link.start(t(0.0), g, 100.0);
            link.start(t(0.0), g, 100.0);
        }
        let done = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 2.0).abs() < 1e-6);
        assert_eq!(link.harvest(done).len(), 16);
    }

    #[test]
    fn constrained_group_slack_goes_to_others() {
        // Backend 1000 B/s; group caps 200 B/s. Group 0 has 4 flows
        // (capped at 50 B/s each = 200 total), group 1 has 1 flow: it
        // gets min(cap=200, remaining 800) = 200 B/s.
        let mut link = GroupedLink::new(1000.0, 2, 200.0);
        for _ in 0..4 {
            link.start(t(0.0), 0, 10000.0);
        }
        link.start(t(0.0), 1, 200.0);
        let done = link.next_completion(t(0.0)).unwrap();
        assert!(
            (done.as_secs_f64() - 1.0).abs() < 1e-6,
            "{}",
            done.as_secs_f64()
        );
        let finished = link.harvest(done);
        assert_eq!(finished.len(), 1);
        // Only group-0 flows remain, pinned at their front-end cap.
        assert!((link.aggregate_rate() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_never_exceeds_backend() {
        let mut link = GroupedLink::new(800.0, 4, 300.0);
        for g in 0..4 {
            for _ in 0..3 {
                link.start(t(0.0), g, 1000.0);
            }
        }
        assert!(link.aggregate_rate() <= 800.0 + 1e-9);
    }

    #[test]
    fn group_rate_never_exceeds_front_end() {
        let mut link = GroupedLink::new(10000.0, 2, 300.0);
        link.start(t(0.0), 0, 1000.0);
        link.start(t(0.0), 0, 1000.0);
        // 2 flows in group 0: cap 150 each even though backend has room.
        let done = link.next_completion(t(0.0)).unwrap();
        assert!((done.as_secs_f64() - 1000.0 / 150.0).abs() < 1e-6);
    }

    #[test]
    fn membership_change_rescales_rates() {
        let mut link = GroupedLink::new(400.0, 2, 400.0);
        link.start(t(0.0), 0, 400.0); // alone: 400 B/s
        link.start(t(0.5), 1, 10000.0); // now 200 B/s each
                                        // Flow 0 has 200 B left at t=0.5, at 200 B/s -> finishes at 1.5 s.
        let done = link.next_completion(t(0.5)).unwrap();
        assert!((done.as_secs_f64() - 1.5).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_group() {
        let mut link = GroupedLink::new(1.0, 2, 1.0);
        link.start(t(0.0), 5, 1.0);
    }

    /// Max-min water-filling recomputed from the flow lists alone:
    /// count each group's flows, sort the busy groups stably by per-flow
    /// front-end cap, fill.
    fn rates_from_scratch(link: &GroupedLink) -> Vec<f64> {
        let counts: Vec<usize> = link.groups.iter().map(Vec::len).collect();
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
            let mut harvested = 0;
            for _ in 0..400 {
                if rng.gen::<f64>() < 0.55 {
                    // Some empty flows, so one harvest often spans groups.
                    let bytes = if rng.gen::<f64>() < 0.2 {
                        0.0
                    } else {
                        rng.gen_range(1.0..5e6)
                    };
                    link.start(now, rng.gen_range(0..groups), bytes);
                } else if let Some(tc) = link.next_completion(now) {
                    now = tc.max(now);
                    let done = link.harvest(now);
                    assert!(done.windows(2).all(|w| w[0] < w[1]), "start order");
                    harvested += done.len();
                }
                assert_eq!(link.rates, rates_from_scratch(&link));
                now += SimDuration::from_micros(rng.gen_range(0..200));
            }
            assert!(harvested > 0, "the sequence must remove flows");
        }
    }
}
