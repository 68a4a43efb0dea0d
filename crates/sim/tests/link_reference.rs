//! `GroupedLink` against a reference model: the earlier implementation,
//! kept here verbatim in behaviour (per-flow `(id, remaining)` lists, a
//! float-division sort of the busy groups on every membership change and
//! per-flow scans). Random start/harvest sequences must give bit-equal
//! completion instants, the same owners in the same order from every
//! harvest, and bit-equal bytes in flight and aggregate rates.

use gpuflow_sim::{GroupedLink, SimDuration, SimTime};
use proptest::prelude::*;

/// Bytes of slack below which a flow counts as finished.
const EPS_BYTES: f64 = 1.0;

struct ReferenceLink {
    global_bps: f64,
    group_cap_bps: f64,
    groups: Vec<Vec<(u64, f64)>>,
    rates: Vec<f64>,
    order: Vec<usize>,
    last_update: SimTime,
    next_flow_id: u64,
}

impl ReferenceLink {
    fn new(global_bps: f64, groups: usize, group_cap_bps: f64) -> Self {
        ReferenceLink {
            global_bps,
            group_cap_bps,
            groups: vec![Vec::new(); groups],
            rates: vec![0.0; groups],
            order: Vec::new(),
            last_update: SimTime::ZERO,
            next_flow_id: 0,
        }
    }

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

    fn start(&mut self, now: SimTime, group: usize, bytes: f64) -> u64 {
        self.advance(now);
        let id = self.next_flow_id;
        self.next_flow_id += 1;
        self.groups[group].push((id, bytes));
        self.recompute_rates();
        id
    }

    fn next_completion(&self, now: SimTime) -> Option<SimTime> {
        if self.order.is_empty() {
            return None;
        }
        let mut min_secs = f64::INFINITY;
        for &g in &self.order {
            let least = self.groups[g]
                .iter()
                .map(|&(_, remaining)| remaining)
                .fold(f64::INFINITY, f64::min);
            if least <= EPS_BYTES {
                return Some(now);
            }
            min_secs = min_secs.min(least / self.rates[g]);
        }
        let ns = (min_secs * 1e9).ceil().max(1.0) as u64;
        Some(now + SimDuration::from_nanos(ns))
    }

    fn harvest(&mut self, now: SimTime) -> Vec<u64> {
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
            done.sort_unstable();
            self.recompute_rates();
        }
        done
    }

    fn active_flows(&self) -> usize {
        self.groups.iter().map(Vec::len).sum()
    }

    fn aggregate_rate(&self) -> f64 {
        self.order
            .iter()
            .map(|&g| self.rates[g] * self.groups[g].len() as f64)
            .sum()
    }

    fn bytes_in_flight(&self) -> f64 {
        self.groups
            .iter()
            .flatten()
            .map(|&(_, remaining)| remaining)
            .sum()
    }
}

/// `(groups, backend B/s, front-end B/s)`: a PCIe bus or local disk,
/// a one-group link narrower than its backend, and shared file systems
/// behind 5, 8 (the paper's cluster) and 32 (the stencil's) NICs.
const SHAPES: [(usize, f64, f64); 5] = [
    (1, 1e9, 1e9),
    (1, 1e9, 4e8),
    (5, 8e8, 2e8),
    (8, 8e9, 1.1e9),
    (32, 8e9, 1.1e9),
];

/// Both links agree on every observable after an operation.
fn assert_same(link: &GroupedLink<u64>, reference: &ReferenceLink, now: SimTime) {
    assert_eq!(link.next_completion(now), reference.next_completion(now));
    assert_eq!(link.active_flows(), reference.active_flows());
    assert_eq!(
        link.bytes_in_flight().to_bits(),
        reference.bytes_in_flight().to_bits()
    );
    assert_eq!(
        link.aggregate_rate().to_bits(),
        reference.aggregate_rate().to_bits()
    );
}

proptest! {
    /// Random starts (zero-byte flows and repeated sizes included, so
    /// completions tie within and across groups), harvests at each next
    /// completion and early harvests that find nothing, on every shape.
    #[test]
    fn grouped_link_matches_the_reference_model(
        ops in prop::collection::vec(
            ((0u32..10, 0usize..32), (0u32..8, 1.0f64..5e6, 0u64..300)),
            1..300,
        ),
    ) {
        for &(groups, global, cap) in &SHAPES {
            let mut link = GroupedLink::new(global, groups, cap);
            let mut reference = ReferenceLink::new(global, groups, cap);
            let mut now = SimTime::ZERO;
            let mut done = Vec::new();
            for &((kind, group), (class, bytes, dt_us)) in &ops {
                match kind {
                    0..=5 => {
                        let bytes = match class {
                            0 => 0.0,
                            1 | 2 => 1e6,
                            3 => 4e6,
                            _ => bytes,
                        };
                        let id = reference.start(now, group % groups, bytes);
                        link.start(now, group % groups, bytes, id);
                    }
                    _ => {
                        // Mostly at the next completion, as the
                        // executor's tick does; sometimes early.
                        if kind < 9 {
                            if let Some(tc) = reference.next_completion(now) {
                                now = tc.max(now);
                            }
                        }
                        done.clear();
                        link.harvest(now, &mut done);
                        prop_assert_eq!(&done, &reference.harvest(now));
                    }
                }
                assert_same(&link, &reference, now);
                now += SimDuration::from_micros(dt_us);
            }
            // Drain both to idle.
            while let Some(tc) = reference.next_completion(now) {
                now = tc.max(now);
                done.clear();
                link.harvest(now, &mut done);
                prop_assert_eq!(&done, &reference.harvest(now));
                assert_same(&link, &reference, now);
            }
            prop_assert_eq!(link.next_completion(now), None);
        }
    }
}
