//! Property suite for the laned ready structure: merged over its lanes,
//! its dispatch order must reproduce, for every policy, exactly the order
//! the seed executor produced by collecting and sorting the ready set on
//! each scheduling decision, and `take_first` must return what a walk of
//! that one ordered list returns.

use gpuflow_runtime::{ReadyLane, ReadyQueue, SchedulingPolicy, TaskId};
use proptest::prelude::*;

const POLICIES: [SchedulingPolicy; 3] = [
    SchedulingPolicy::GenerationOrder,
    SchedulingPolicy::DataLocality,
    SchedulingPolicy::CriticalPath,
];

/// The seed executor's dispatch order: ascending task id, except under
/// CriticalPath, which sorted by descending upward rank with ties on
/// ascending task id.
fn seed_order(policy: SchedulingPolicy, tasks: &[(u32, f64)]) -> Vec<TaskId> {
    let mut ids: Vec<TaskId> = tasks.iter().map(|&(id, _)| TaskId(id)).collect();
    ids.sort();
    ids.dedup();
    if policy == SchedulingPolicy::CriticalPath {
        let rank = |t: TaskId| tasks.iter().find(|&&(id, _)| id == t.0).expect("present").1;
        ids.sort_by(|a, b| {
            rank(*b)
                .partial_cmp(&rank(*a))
                .expect("finite ranks")
                .then(a.cmp(b))
        });
    }
    ids
}

/// The single-set walk the lanes replaced: remove and return the first
/// task of `ready` (in dispatch order) that `pred` accepts.
fn reference_take_first(ready: &mut Vec<TaskId>, pred: impl Fn(TaskId) -> bool) -> Option<TaskId> {
    let pos = ready.iter().position(|&t| pred(t))?;
    Some(ready.remove(pos))
}

/// A queue holding each distinct id of `tasks` once, with its first rank,
/// in the lane `lane_of` gives it (ranks and lanes are per-task constants
/// in the executor).
fn filled_queue(
    policy: SchedulingPolicy,
    tasks: &[(u32, f64)],
    lane_of: impl Fn(u32) -> ReadyLane,
) -> ReadyQueue {
    let mut q = ReadyQueue::new(policy);
    let mut seen = std::collections::BTreeSet::new();
    for &(id, rank) in tasks {
        if seen.insert(id) {
            q.insert(rank, TaskId(id), lane_of(id));
        }
    }
    q
}

/// Pops every task with all lanes allowed.
fn drain(q: &mut ReadyQueue) -> Vec<TaskId> {
    std::iter::from_fn(|| q.take_first(|_| true)).collect()
}

proptest! {
    /// Under every policy, draining every lane yields the seed's sort
    /// order, whatever lanes the tasks sit in.
    #[test]
    fn ready_queue_matches_seed_sort(
        ids in prop::collection::vec(0u32..64, 1..40),
        ranks in prop::collection::vec(0.0f64..100.0, 40..41),
        lanes in prop::collection::vec(0usize..3, 64..65),
    ) {
        let tasks: Vec<(u32, f64)> = ids
            .iter()
            .map(|&id| (id, ranks[id as usize % ranks.len()]))
            .collect();
        for policy in POLICIES {
            let mut q = filled_queue(policy, &tasks, |id| ReadyLane::ALL[lanes[id as usize]]);
            prop_assert_eq!(
                drain(&mut q),
                seed_order(policy, &tasks),
                "policy {:?}",
                policy
            );
        }
    }

    /// Taking the front repeatedly pops tasks in dispatch order, one at
    /// a time, until the queue is empty.
    #[test]
    fn ready_queue_pops_in_dispatch_order(
        ids in prop::collection::vec(0u32..48, 1..30),
    ) {
        let tasks: Vec<(u32, f64)> = ids.iter().map(|&id| (id, (id % 7) as f64)).collect();
        for policy in [
            SchedulingPolicy::GenerationOrder,
            SchedulingPolicy::CriticalPath,
        ] {
            let mut q = filled_queue(policy, &tasks, |id| ReadyLane::ALL[id as usize % 3]);
            let expected = seed_order(policy, &tasks);
            let mut popped = Vec::new();
            while let Some(front) = q.take_first(|_| true) {
                popped.push(front);
                prop_assert_eq!(q.len(), expected.len() - popped.len());
            }
            prop_assert_eq!(popped, expected, "policy {:?}", policy);
            prop_assert!(q.is_empty());
            prop_assert_eq!(q.len(), 0);
        }
    }

    /// Under random lane masks, `take_first` returns exactly the first
    /// task in the merged seed order whose lane the mask allows; a mask
    /// that allows no non-empty lane returns `None` and removes nothing.
    #[test]
    fn take_first_matches_the_reference_walk(
        triples in prop::collection::vec((0u32..64, 0.0f64..100.0, 0usize..3), 1..60),
        masks in prop::collection::vec(0u32..8, 1..80),
    ) {
        let tasks: Vec<(u32, f64)> = triples.iter().map(|&(id, rank, _)| (id, rank)).collect();
        let lane_of = |id: u32| {
            let &(_, _, lane) = triples.iter().find(|t| t.0 == id).expect("present");
            ReadyLane::ALL[lane]
        };
        for policy in POLICIES {
            let mut q = filled_queue(policy, &tasks, lane_of);
            let mut reference = seed_order(policy, &tasks);
            for &mask in &masks {
                let allowed = |lane: ReadyLane| mask & (1 << lane as u32) != 0;
                let before = q.len();
                let expected = reference_take_first(&mut reference, |t| allowed(lane_of(t.0)));
                prop_assert_eq!(q.take_first(allowed), expected, "policy {:?} mask {}", policy, mask);
                let removed = usize::from(expected.is_some());
                prop_assert_eq!(q.len(), before - removed);
                prop_assert_eq!(q.len(), reference.len());
            }
        }
    }
}
