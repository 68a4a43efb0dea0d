//! Trace analytics — the Paraver side of the paper's methodology.
//!
//! The paper extracts its data-movement metrics from Paraver traces
//! (§4.4.3) and motivates the whole study with *resource wastage*: "a non
//! desirable situation would be to keep the CPUs busy while the GPUs stay
//! idle" (§1). This module turns a [`Trace`] plus the task records into
//! those analyses:
//!
//! * per-node busy/idle timelines and utilization profiles,
//! * state-time breakdowns (how much of the run went to deserialization
//!   vs. compute vs. transfers — the stacked story of Fig. 7's bottom
//!   charts),
//! * the resource-wastage measure (simultaneous CPU-busy/GPU-idle time),
//! * critical-path extraction (which chain of tasks determines the
//!   makespan).

use std::collections::BTreeMap;

use gpuflow_cluster::ProcessorKind;
use gpuflow_sim::SimTime;

use crate::metrics::TaskRecord;
use crate::task::TaskId;
use crate::telemetry::TelemetryLog;
use crate::trace::{Trace, TraceState};
use crate::workflow::Workflow;

/// Seconds spent in each processing state, cluster-wide.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateBreakdown {
    /// Deserialization (read + decode).
    pub deserialize: f64,
    /// Serial fraction.
    pub serial: f64,
    /// Parallel fraction (CPU compute or GPU kernel).
    pub parallel: f64,
    /// CPU-GPU communication.
    pub comm: f64,
    /// Serialization (encode + write).
    pub serialize: f64,
}

impl StateBreakdown {
    /// Total accounted seconds.
    pub fn total(&self) -> f64 {
        self.deserialize + self.serial + self.parallel + self.comm + self.serialize
    }

    /// The share of each state in `[0, 1]`, in trace-state order.
    pub fn shares(&self) -> [(TraceState, f64); 5] {
        let t = self.total().max(1e-12);
        [
            (TraceState::Deserialize, self.deserialize / t),
            (TraceState::SerialFraction, self.serial / t),
            (TraceState::ParallelFraction, self.parallel / t),
            (TraceState::CpuGpuComm, self.comm / t),
            (TraceState::Serialize, self.serialize / t),
        ]
    }
}

/// Computes the cluster-wide state breakdown of a trace.
pub fn state_breakdown(trace: &Trace) -> StateBreakdown {
    let mut out = StateBreakdown::default();
    for r in trace.records() {
        let dur = (r.t1 - r.t0).as_secs_f64();
        match r.state {
            TraceState::Deserialize => out.deserialize += dur,
            TraceState::SerialFraction => out.serial += dur,
            TraceState::ParallelFraction => out.parallel += dur,
            TraceState::CpuGpuComm => out.comm += dur,
            TraceState::Serialize => out.serialize += dur,
        }
    }
    out
}

/// A merged busy interval on one node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BusyInterval {
    /// Start.
    pub t0: SimTime,
    /// End.
    pub t1: SimTime,
}

/// Per-node busy timelines derived from task records (a task is "busy"
/// on its node from dispatch to completion, like a Paraver worker lane).
pub fn node_timelines(records: &[TaskRecord]) -> BTreeMap<usize, Vec<BusyInterval>> {
    merge_busy(
        records
            .iter()
            .map(|r| (r.node, r.start.as_nanos(), r.end.as_nanos())),
    )
}

/// Merges `(node, start_ns, end_ns)` busy windows into per-node
/// intervals: the sweep behind [`node_timelines`] and the per-node busy
/// accounting of [`crate::telemetry::RunProfile`].
pub(crate) fn merge_busy(
    windows: impl IntoIterator<Item = (usize, u64, u64)>,
) -> BTreeMap<usize, Vec<BusyInterval>> {
    // Sweep per node: +1 at start, -1 at end.
    let mut events: BTreeMap<usize, Vec<(u64, i32)>> = BTreeMap::new();
    for (node, start, end) in windows {
        let e = events.entry(node).or_default();
        e.push((start, 1));
        e.push((end, -1));
    }
    let mut out = BTreeMap::new();
    for (node, mut evs) in events {
        evs.sort();
        let mut intervals = Vec::new();
        let mut depth = 0i32;
        let mut open_at = 0u64;
        for (t, d) in evs {
            if depth == 0 && d > 0 {
                open_at = t;
            }
            depth += d;
            if depth == 0 && t > open_at {
                intervals.push(BusyInterval {
                    t0: SimTime::from_nanos(open_at),
                    t1: SimTime::from_nanos(t),
                });
            }
        }
        out.insert(node, intervals);
    }
    out
}

/// The resource-wastage measure of §1: seconds during which at least
/// `cpu_threshold` CPU cores are busy while *no* GPU kernel runs
/// ("CPUs busy while the GPUs stay idle"). Multi-threaded CPU tasks
/// count every core they hold, not just the first. Only meaningful for
/// GPU runs.
pub fn cpu_busy_gpu_idle_seconds(records: &[TaskRecord], cpu_threshold: usize) -> f64 {
    let windows = records.iter().map(|r| {
        (
            r.start.as_nanos(),
            Some(r.end.as_nanos()),
            r.cores.max(1) as i32,
            r.processor == ProcessorKind::Gpu,
        )
    });
    cpu_busy_gpu_idle_sweep(windows, cpu_threshold) as f64 / 1e9
}

/// The one wastage sweep, on the nanosecond grid, behind
/// [`cpu_busy_gpu_idle_seconds`] and the exact profile digest
/// ([`crate::telemetry::RunProfile`], which sweeps the busy windows of
/// the log's [`crate::TaskTimeline`]: each attempt of a task holds the
/// cores or GPU of its dispatch until it completes or fails). Each
/// window is `(start_ns, end_ns, cores, on_gpu)`: a GPU window holds one
/// device and no counted cores; a window without an end stays busy to
/// the end of the sweep.
pub(crate) fn cpu_busy_gpu_idle_sweep(
    windows: impl IntoIterator<Item = (u64, Option<u64>, i32, bool)>,
    cpu_threshold: usize,
) -> u64 {
    let mut events: Vec<(u64, i32, i32)> = Vec::new(); // (t, d_cpu, d_gpu)
    for (start, end, cores, on_gpu) in windows {
        let (dc, dg) = if on_gpu { (0, 1) } else { (cores, 0) };
        events.push((start, dc, dg));
        if let Some(end) = end {
            events.push((end, -dc, -dg));
        }
    }
    events.sort();
    let (mut cpu, mut gpu) = (0i32, 0i32);
    let mut wasted = 0u64;
    let mut prev = 0u64;
    for (t, dc, dg) in events {
        if cpu as usize >= cpu_threshold && gpu == 0 {
            wasted += t - prev;
        }
        cpu += dc;
        gpu += dg;
        prev = t;
    }
    wasted
}

/// One hop of the critical path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CriticalHop {
    /// The task.
    pub task: TaskId,
    /// Its completion time.
    pub end: SimTime,
}

/// Extracts the critical path of a run: walk back from the task that
/// finished last through, at each step, the latest-finishing predecessor.
/// The returned path is in execution order (first task first).
pub fn critical_path(workflow: &Workflow, records: &[TaskRecord]) -> Vec<CriticalHop> {
    let mut end_of: Vec<Option<SimTime>> = vec![None; workflow.tasks().len()];
    for r in records {
        end_of[r.task.0 as usize] = Some(r.end);
    }
    critical_path_walk(workflow, |t| end_of[t.0 as usize])
}

/// [`critical_path`] computed from a telemetry event stream: each
/// task's last completion event supplies the finish time that the
/// record-based variant reads from [`TaskRecord`]s. Both variants share
/// one walk, so they agree hop for hop on the same run.
pub fn critical_path_from_telemetry(workflow: &Workflow, log: &TelemetryLog) -> Vec<CriticalHop> {
    log.timeline().critical_path(workflow)
}

/// The one critical-path walk, over a dense per-task table of
/// completion instants (`None` for tasks that never completed): start
/// at the latest-finishing task and repeatedly hop to
/// [`latest_predecessor`]. Ties break on the higher [`TaskId`].
pub(crate) fn critical_path_walk(
    workflow: &Workflow,
    end_of: impl Fn(TaskId) -> Option<SimTime>,
) -> Vec<CriticalHop> {
    let last = (0..workflow.tasks().len() as u32)
        .map(TaskId)
        .filter_map(|t| end_of(t).map(|end| (t, end)))
        .max_by_key(|&(t, end)| (end, t));
    let Some((task, end)) = last else {
        return Vec::new();
    };
    let mut path = vec![CriticalHop { task, end }];
    let mut current = task;
    while let Some((task, end)) = latest_predecessor(workflow, current, &end_of) {
        path.push(CriticalHop { task, end });
        current = task;
    }
    path.reverse();
    path
}

/// The completed predecessor of `task` that finished last, ties to the
/// higher [`TaskId`]: the critical path's hop rule, and the causal
/// parent of a span tree.
pub(crate) fn latest_predecessor(
    workflow: &Workflow,
    task: TaskId,
    end_of: impl Fn(TaskId) -> Option<SimTime>,
) -> Option<(TaskId, SimTime)> {
    workflow
        .predecessors(task)
        .iter()
        .filter_map(|&p| end_of(p).map(|end| (p, end)))
        .max_by_key(|&(p, end)| (end, p))
}

/// Renders a utilization profile: for each node, the fraction of
/// `[0, makespan]` with at least one task running.
pub fn node_utilization(records: &[TaskRecord], makespan: f64) -> BTreeMap<usize, f64> {
    node_timelines(records)
        .into_iter()
        .map(|(node, intervals)| {
            let busy: f64 = intervals.iter().map(|i| (i.t1 - i.t0).as_secs_f64()).sum();
            (node, busy / makespan.max(1e-12))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_sim::SimDuration;

    fn rec(task: u32, node: usize, proc: ProcessorKind, start_s: f64, end_s: f64) -> TaskRecord {
        TaskRecord {
            task: TaskId(task),
            task_type: "t".into(),
            node,
            core: 0,
            cores: 1,
            processor: proc,
            level: 0,
            start: SimTime::from_nanos((start_s * 1e9) as u64),
            end: SimTime::from_nanos((end_s * 1e9) as u64),
            deser: SimDuration::ZERO,
            ser: SimDuration::ZERO,
            serial: SimDuration::ZERO,
            parallel: SimDuration::ZERO,
            comm: SimDuration::ZERO,
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    #[test]
    fn breakdown_sums_trace_intervals() {
        let mut trace = Trace::new();
        let t = |s: f64| SimTime::from_nanos((s * 1e9) as u64);
        trace.push(crate::trace::TraceRecord {
            node: 0,
            core: 0,
            task: TaskId(0),
            state: TraceState::Deserialize,
            t0: t(0.0),
            t1: t(1.0),
        });
        trace.push(crate::trace::TraceRecord {
            node: 0,
            core: 0,
            task: TaskId(0),
            state: TraceState::ParallelFraction,
            t0: t(1.0),
            t1: t(4.0),
        });
        let b = state_breakdown(&trace);
        assert_eq!(b.deserialize, 1.0);
        assert_eq!(b.parallel, 3.0);
        assert_eq!(b.total(), 4.0);
        let shares = b.shares();
        assert!((shares[2].1 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn timelines_merge_overlapping_tasks() {
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 2.0),
            rec(1, 0, ProcessorKind::Cpu, 1.0, 3.0), // overlaps task 0
            rec(2, 0, ProcessorKind::Cpu, 5.0, 6.0), // separate interval
            rec(3, 1, ProcessorKind::Cpu, 0.0, 1.0),
        ];
        let tl = node_timelines(&records);
        assert_eq!(tl[&0].len(), 2);
        assert_eq!(tl[&0][0].t1.as_secs_f64(), 3.0);
        assert_eq!(tl[&1].len(), 1);
    }

    #[test]
    fn utilization_fraction_of_makespan() {
        let records = vec![rec(0, 0, ProcessorKind::Cpu, 0.0, 2.0)];
        let u = node_utilization(&records, 4.0);
        assert!((u[&0] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn wastage_counts_cpu_busy_gpu_idle_time() {
        // CPU task runs 0..4; GPU kernel task only 1..2.
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 4.0),
            rec(1, 0, ProcessorKind::Gpu, 1.0, 2.0),
        ];
        // GPU idle while >=1 CPU busy: [0,1) and [2,4) = 3 s.
        let wasted = cpu_busy_gpu_idle_seconds(&records, 1);
        assert!((wasted - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wastage_at_threshold_zero_also_counts_idle_gaps() {
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 1.0),
            rec(1, 0, ProcessorKind::Cpu, 2.0, 3.0),
        ];
        assert!((cpu_busy_gpu_idle_seconds(&records, 1) - 2.0).abs() < 1e-9);
        assert!((cpu_busy_gpu_idle_seconds(&records, 0) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn wastage_zero_when_gpu_always_busy() {
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 2.0),
            rec(1, 0, ProcessorKind::Gpu, 0.0, 2.0),
        ];
        assert_eq!(cpu_busy_gpu_idle_seconds(&records, 1), 0.0);
    }

    #[test]
    fn critical_path_follows_latest_predecessors() {
        use crate::data::Direction;
        use crate::task::CostProfile;
        use crate::workflow::WorkflowBuilder;
        use gpuflow_cluster::KernelWork;
        // Diamond DAG: t0 -> {t1 (slow), t2 (fast)} -> t3.
        let mut b = WorkflowBuilder::new();
        let cost = CostProfile::fully_parallel(KernelWork::data_parallel(1.0, 1.0));
        let x = b.intermediate("x", 8);
        let y1 = b.intermediate("y1", 8);
        let y2 = b.intermediate("y2", 8);
        b.submit("a", cost, &[(x, Direction::Out)], false).unwrap();
        b.submit(
            "b",
            cost,
            &[(x, Direction::In), (y1, Direction::Out)],
            false,
        )
        .unwrap();
        b.submit(
            "c",
            cost,
            &[(x, Direction::In), (y2, Direction::Out)],
            false,
        )
        .unwrap();
        b.submit(
            "d",
            cost,
            &[(y1, Direction::In), (y2, Direction::In)],
            false,
        )
        .unwrap();
        let wf = b.build();
        let records = vec![
            rec(0, 0, ProcessorKind::Cpu, 0.0, 1.0),
            rec(1, 0, ProcessorKind::Cpu, 1.0, 5.0), // the slow branch
            rec(2, 0, ProcessorKind::Cpu, 1.0, 2.0),
            rec(3, 0, ProcessorKind::Cpu, 5.0, 6.0),
        ];
        let path: Vec<u32> = critical_path(&wf, &records)
            .iter()
            .map(|h| h.task.0)
            .collect();
        assert_eq!(path, vec![0, 1, 3], "path must go through the slow branch");
    }

    #[test]
    fn empty_inputs_yield_empty_analyses() {
        assert!(node_timelines(&[]).is_empty());
        assert_eq!(state_breakdown(&Trace::new()), StateBreakdown::default());
        assert_eq!(cpu_busy_gpu_idle_seconds(&[], 1), 0.0);
    }
}
