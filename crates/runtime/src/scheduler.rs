//! Task scheduling policies (§3.2, §4.4.2).
//!
//! PyCOMPSs offers several schedulers; the paper compares two:
//!
//! * **task generation order** — dispatch ready tasks FIFO to whichever
//!   node has the most free slots; cheap decisions;
//! * **data locality** — dispatch ready tasks FIFO, but place each on the
//!   node caching the most input bytes; each decision costs more because
//!   candidate nodes are scored.
//!
//! The decision *cost* (master-side overhead per task) comes from
//! [`ClusterSpec`](gpuflow_cluster::ClusterSpec); the policy here decides
//! placement.

use std::cmp::{Ordering, Reverse};
use std::collections::BTreeSet;

use gpuflow_sim::SimDuration;

use crate::task::TaskId;

/// The scheduling policy factor of Table 1, plus an extension policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SchedulingPolicy {
    /// Dispatch in task generation order; placement ignores data.
    GenerationOrder,
    /// Placement prefers nodes already caching the task's inputs.
    DataLocality,
    /// Extension: HEFT-style dispatch by upward rank (critical-path
    /// length to the sink), with locality-aware placement. Not part of
    /// the paper's comparison; used by the scheduler-ablation study.
    CriticalPath,
}

impl SchedulingPolicy {
    /// The paper's two policies, in its presentation order (the
    /// extension policy is deliberately excluded: Figs. 10-11 compare
    /// exactly these two).
    pub const ALL: [SchedulingPolicy; 2] = [
        SchedulingPolicy::GenerationOrder,
        SchedulingPolicy::DataLocality,
    ];

    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SchedulingPolicy::GenerationOrder => "task gen. order",
            SchedulingPolicy::DataLocality => "data locality",
            SchedulingPolicy::CriticalPath => "critical path",
        }
    }
}

/// A total-order key over an upward rank (a non-NaN `f64`).
///
/// Ordering agrees with `partial_cmp` on every non-NaN value: `-0.0` is
/// normalised to `+0.0` at construction, so `total_cmp`'s artificial
/// `-0.0 < +0.0` distinction never surfaces, and ties fall through to
/// whatever secondary key the container pairs it with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RankKey(f64);

impl RankKey {
    /// Wraps `rank`; `-0.0` collapses to `+0.0`.
    pub fn new(rank: f64) -> Self {
        debug_assert!(!rank.is_nan(), "task ranks must be comparable");
        RankKey(if rank == 0.0 { 0.0 } else { rank })
    }
}

impl Eq for RankKey {}

impl PartialOrd for RankKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for RankKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// The resource class a ready task waits for. A task's class follows
/// from its processor and cost, so it is fixed for the whole run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadyLane {
    /// A GPU slot: one device plus the host core that drives it.
    Gpu,
    /// One host core (serial tasks).
    OneCore,
    /// `cpu_threads_per_task` host cores (CPU tasks with a parallel
    /// fraction).
    Threads,
}

impl ReadyLane {
    /// Every lane, in index order.
    pub const ALL: [ReadyLane; 3] = [ReadyLane::Gpu, ReadyLane::OneCore, ReadyLane::Threads];
}

/// The executor's ready set: one ordered set per [`ReadyLane`], so a
/// scheduling decision reads only the head of each lane it can place
/// instead of walking tasks that wait for a busy resource.
///
/// Merged over the lanes, dispatch order is the order the seed executor
/// produced by sorting on each decision:
///
/// * [`SchedulingPolicy::CriticalPath`] — descending upward rank, ties
///   on ascending task id (HEFT dispatch order);
/// * the other policies ignore ranks (every task is keyed with rank 0),
///   so the order is plain ascending task id — generation order.
#[derive(Debug, Clone)]
pub struct ReadyQueue {
    use_rank: bool,
    lanes: [BTreeSet<(Reverse<RankKey>, TaskId)>; 3],
}

impl ReadyQueue {
    /// An empty queue ordered for `policy`.
    pub fn new(policy: SchedulingPolicy) -> Self {
        ReadyQueue {
            use_rank: policy == SchedulingPolicy::CriticalPath,
            lanes: Default::default(),
        }
    }

    /// Inserts `task` with its upward rank into `lane`. Re-inserting is
    /// a no-op as long as the rank and lane are unchanged (both are
    /// fixed per run).
    pub fn insert(&mut self, rank: f64, task: TaskId, lane: ReadyLane) {
        let rank = if self.use_rank { rank } else { 0.0 };
        self.lanes[lane as usize].insert((Reverse(RankKey::new(rank)), task));
    }

    /// Removes and returns the first task in dispatch order among the
    /// lanes `eligible` allows: the smallest of their heads. Reads only
    /// the first entry of each lane, so a decision costs O(lanes · log n)
    /// whether or not it finds a task.
    pub fn take_first(&mut self, eligible: impl Fn(ReadyLane) -> bool) -> Option<TaskId> {
        let lane = ReadyLane::ALL
            .into_iter()
            .filter(|&lane| eligible(lane))
            .filter_map(|lane| self.lanes[lane as usize].first().map(|head| (head, lane)))
            .min_by_key(|&(head, _)| head)?
            .1;
        self.lanes[lane as usize].pop_first().map(|(_, task)| task)
    }

    /// Number of ready tasks.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(BTreeSet::len).sum()
    }

    /// Whether no task is ready.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(BTreeSet::is_empty)
    }
}

/// A candidate node as seen by the scheduler.
#[derive(Debug, Clone, Copy)]
pub struct NodeAvail {
    /// Node index.
    pub node: usize,
    /// Free execution slots (cores, or GPU+core pairs in a GPU run).
    pub free_slots: usize,
    /// Bytes of the candidate task's inputs cached on this node.
    pub cached_bytes: u64,
}

/// Chooses the node for one task from an availability snapshot, or
/// `None` when no node has a free slot.
///
/// `rotation` is the caller's running decision counter. The
/// generation-order policy is location-oblivious: it hands the task to
/// the next free node in round-robin order, so the block-to-node mapping
/// drifts between algorithm iterations (and cached inputs are *not*
/// deliberately revisited — exactly the behaviour the data-locality
/// policy exists to fix).
pub fn place(policy: SchedulingPolicy, nodes: &[NodeAvail], rotation: usize) -> Option<usize> {
    match policy {
        SchedulingPolicy::GenerationOrder => {
            let n = nodes.len();
            (0..n)
                .map(|i| &nodes[(i + rotation) % n.max(1)])
                .find(|nd| nd.free_slots > 0)
                .map(|nd| nd.node)
        }
        SchedulingPolicy::DataLocality | SchedulingPolicy::CriticalPath => nodes
            .iter()
            .filter(|n| n.free_slots > 0)
            .max_by(|a, b| {
                a.cached_bytes
                    .cmp(&b.cached_bytes)
                    .then(a.free_slots.cmp(&b.free_slots))
                    .then(b.node.cmp(&a.node))
            })
            .map(|n| n.node),
    }
}

/// Master-side cost of one scheduling decision for `policy`.
pub fn decision_overhead(
    policy: SchedulingPolicy,
    fifo: SimDuration,
    locality: SimDuration,
) -> SimDuration {
    match policy {
        SchedulingPolicy::GenerationOrder => fifo,
        // Both informed policies score candidate nodes per decision.
        SchedulingPolicy::DataLocality | SchedulingPolicy::CriticalPath => locality,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn avail(specs: &[(usize, usize, u64)]) -> Vec<NodeAvail> {
        specs
            .iter()
            .map(|&(node, free_slots, cached_bytes)| NodeAvail {
                node,
                free_slots,
                cached_bytes,
            })
            .collect()
    }

    #[test]
    fn returns_none_when_no_free_slots() {
        let nodes = avail(&[(0, 0, 0), (1, 0, 0)]);
        for policy in [
            SchedulingPolicy::GenerationOrder,
            SchedulingPolicy::DataLocality,
            SchedulingPolicy::CriticalPath,
        ] {
            for rot in 0..3 {
                assert_eq!(place(policy, &nodes, rot), None, "{policy:?}");
            }
        }
    }

    #[test]
    fn generation_order_round_robins_over_free_nodes() {
        let nodes = avail(&[(0, 1, 999), (1, 3, 0), (2, 2, 0)]);
        assert_eq!(place(SchedulingPolicy::GenerationOrder, &nodes, 0), Some(0));
        assert_eq!(place(SchedulingPolicy::GenerationOrder, &nodes, 1), Some(1));
        assert_eq!(place(SchedulingPolicy::GenerationOrder, &nodes, 2), Some(2));
        assert_eq!(place(SchedulingPolicy::GenerationOrder, &nodes, 3), Some(0));
    }

    #[test]
    fn generation_order_skips_full_nodes_in_rotation() {
        let nodes = avail(&[(0, 0, 0), (1, 1, 0), (2, 0, 0)]);
        for rot in 0..6 {
            assert_eq!(
                place(SchedulingPolicy::GenerationOrder, &nodes, rot),
                Some(1)
            );
        }
    }

    #[test]
    fn locality_prefers_cached_bytes() {
        let nodes = avail(&[(0, 3, 10), (1, 1, 500), (2, 2, 10)]);
        assert_eq!(place(SchedulingPolicy::DataLocality, &nodes, 0), Some(1));
    }

    #[test]
    fn locality_falls_back_to_free_slots_on_tie() {
        let nodes = avail(&[(0, 1, 0), (1, 4, 0)]);
        assert_eq!(place(SchedulingPolicy::DataLocality, &nodes, 0), Some(1));
    }

    #[test]
    fn locality_skips_full_nodes_even_if_cached() {
        let nodes = avail(&[(0, 0, 10_000), (1, 1, 0)]);
        assert_eq!(place(SchedulingPolicy::DataLocality, &nodes, 0), Some(1));
    }

    #[test]
    fn generation_order_rotation_zero_takes_the_first_entry() {
        let nodes = avail(&[(2, 2, 0), (0, 2, 0), (1, 2, 0)]);
        assert_eq!(
            place(SchedulingPolicy::GenerationOrder, &nodes, 0),
            Some(2),
            "first slice entry at rotation 0"
        );
    }

    #[test]
    fn overheads_follow_policy() {
        let f = SimDuration::from_micros(800);
        let l = SimDuration::from_micros(3500);
        assert_eq!(
            decision_overhead(SchedulingPolicy::GenerationOrder, f, l),
            f
        );
        assert_eq!(decision_overhead(SchedulingPolicy::DataLocality, f, l), l);
        assert_eq!(decision_overhead(SchedulingPolicy::CriticalPath, f, l), l);
    }

    #[test]
    fn critical_path_places_like_locality() {
        let nodes = avail(&[(0, 3, 10), (1, 1, 500), (2, 2, 10)]);
        assert_eq!(place(SchedulingPolicy::CriticalPath, &nodes, 0), Some(1));
    }

    #[test]
    fn rank_key_orders_like_partial_cmp() {
        assert!(RankKey::new(1.0) < RankKey::new(2.0));
        assert!(RankKey::new(0.0) < RankKey::new(f64::INFINITY));
        assert_eq!(RankKey::new(-0.0), RankKey::new(0.0));
        assert_eq!(
            RankKey::new(-0.0).cmp(&RankKey::new(0.0)),
            std::cmp::Ordering::Equal
        );
    }

    /// Pops every task with all lanes allowed: the merged dispatch order.
    fn drain(q: &mut ReadyQueue) -> Vec<TaskId> {
        std::iter::from_fn(|| q.take_first(|_| true)).collect()
    }

    #[test]
    fn ready_queue_critical_path_orders_by_rank_then_id() {
        let mut q = ReadyQueue::new(SchedulingPolicy::CriticalPath);
        q.insert(1.0, TaskId(5), ReadyLane::OneCore);
        q.insert(3.0, TaskId(9), ReadyLane::Gpu);
        q.insert(3.0, TaskId(2), ReadyLane::Threads);
        q.insert(0.5, TaskId(0), ReadyLane::Gpu);
        assert_eq!(
            drain(&mut q),
            vec![TaskId(2), TaskId(9), TaskId(5), TaskId(0)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn ready_queue_other_policies_order_by_id() {
        for policy in [
            SchedulingPolicy::GenerationOrder,
            SchedulingPolicy::DataLocality,
        ] {
            let mut q = ReadyQueue::new(policy);
            q.insert(1.0, TaskId(5), ReadyLane::Gpu);
            q.insert(9.0, TaskId(7), ReadyLane::OneCore);
            q.insert(4.0, TaskId(1), ReadyLane::Gpu);
            assert_eq!(
                drain(&mut q),
                vec![TaskId(1), TaskId(5), TaskId(7)],
                "{policy:?}"
            );
        }
    }

    #[test]
    fn take_first_removes_the_first_match_in_dispatch_order() {
        let mut q = ReadyQueue::new(SchedulingPolicy::GenerationOrder);
        q.insert(0.0, TaskId(2), ReadyLane::Gpu);
        q.insert(0.0, TaskId(5), ReadyLane::OneCore);
        q.insert(0.0, TaskId(8), ReadyLane::Threads);
        q.insert(0.0, TaskId(9), ReadyLane::OneCore);
        // The GPU head comes first but its lane is blocked.
        let no_gpu = |lane| lane != ReadyLane::Gpu;
        assert_eq!(q.take_first(no_gpu), Some(TaskId(5)));
        assert_eq!(q.len(), 3);
        assert_eq!(
            q.take_first(|lane| lane == ReadyLane::Threads),
            Some(TaskId(8))
        );
        assert_eq!(q.take_first(|_| true), Some(TaskId(2)));
        assert_eq!(q.take_first(|lane| lane == ReadyLane::Gpu), None);
        assert_eq!(q.take_first(|_| false), None);
        assert_eq!(q.len(), 1, "no match leaves the queue untouched");
        assert!(!q.is_empty());
    }
}
