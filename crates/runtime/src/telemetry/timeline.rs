//! The per-task attempt index that every post-hoc fold reads.

use std::collections::BTreeMap;
use std::sync::OnceLock;

use gpuflow_sim::{SimDuration, SimTime};

use crate::task::{TaskId, TaskType};
use crate::trace::TraceState;
use crate::trace_analysis::{self, CriticalHop};
use crate::workflow::Workflow;

use super::event::{LinkKind, TelemetryEvent};
use super::{overhead, TelemetryLog};

/// The dispatch that opened an attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Dispatch {
    pub(crate) at: SimTime,
    /// Index of the task type in [`TaskTimeline::types`].
    pub(crate) task_type: u32,
    pub(crate) node: usize,
    /// Host cores held.
    pub(crate) cores: u16,
    /// GPU device held, if any.
    pub(crate) gpu: Option<u16>,
}

/// How an attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AttemptEnd {
    /// The log ends before the attempt does.
    Open,
    /// The attempt completed at this instant.
    Completed(SimTime),
    /// The attempt failed at this instant.
    Failed(SimTime),
}

/// One execution of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Attempt {
    pub(crate) task: TaskId,
    /// Attempt number: 0 for the first run, advanced only by failures
    /// (see [`TaskTimeline`]).
    pub(crate) number: u32,
    /// The dispatch that opened the attempt; `None` when the log shows
    /// the attempt's work but not its dispatch.
    pub(crate) dispatch: Option<Dispatch>,
    /// The latest ready instant before the dispatch that no earlier
    /// dispatch of the task claimed.
    pub(crate) ready: Option<SimTime>,
    pub(crate) end: AttemptEnd,
}

impl Attempt {
    /// Whether the attempt ended in a failure.
    pub(crate) fn failed(&self) -> bool {
        matches!(self.end, AttemptEnd::Failed(_))
    }
}

/// What an interval of an attempt was doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum IntervalKind {
    /// A processing stage of Fig. 4.
    Stage(TraceState),
    /// A transfer of the given bytes over a modelled link.
    Transfer(LinkKind, u64),
}

/// A stage or transfer interval owned by one attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interval {
    /// Index of the owning attempt in [`TaskTimeline::attempts`].
    pub(crate) attempt: u32,
    pub(crate) kind: IntervalKind,
    pub(crate) t0: SimTime,
    pub(crate) t1: SimTime,
}

/// Recovery time between two attempts of a task: a retry's backoff
/// window, or a resubmission after a node or device loss (zero length,
/// `until == at`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Recovery {
    pub(crate) task: TaskId,
    /// Attempt number: the upcoming attempt a retry reports, or the
    /// task's attempt number at a resubmission.
    pub(crate) attempt: u32,
    pub(crate) at: SimTime,
    pub(crate) until: SimTime,
}

/// The times of one scheduler decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    pub(crate) at: SimTime,
    pub(crate) sim_overhead: SimDuration,
    pub(crate) host_nanos: u64,
}

/// One task's summary, plus the state of the pass: its open attempt,
/// the ready instant no dispatch has claimed yet, and its next attempt
/// number.
#[derive(Debug, Clone, Copy, Default)]
struct TaskRow {
    first_seen: Option<SimTime>,
    completion: Option<(SimTime, usize)>,
    open: Option<u32>,
    ready: Option<SimTime>,
    number: u32,
}

/// The per-task attempt index of one telemetry log.
///
/// It pairs the log's interleaved events into attempts (see the
/// [module docs](super) for what an attempt is) in one pass, stored
/// densely by [`TaskId`]. The log builds it once, on first use, and
/// every fold reads that one index through [`TelemetryLog::timeline`].
/// It owns what it keeps: task types are interned by name into one
/// table, and decisions keep only their times. An event belongs to the
/// task's open attempt; work that shows up with none open (hand-built
/// or filtered logs) opens an attempt without a dispatch.
///
/// Attempt *numbers* follow the span tree's convention. The first run
/// is attempt 0, and only a failure advances the number, to one past
/// the number that the failure reports. A lineage re-dispatch of a
/// completed task therefore keeps its number.
#[derive(Debug, Clone, Default)]
pub struct TaskTimeline {
    tasks: Vec<TaskRow>,
    /// The dispatched task types, one entry per name, in order of first
    /// dispatch.
    pub(crate) types: Vec<TaskType>,
    /// Every attempt, in the order the attempts opened.
    pub(crate) attempts: Vec<Attempt>,
    /// Every stage and transfer interval, in log order.
    pub(crate) intervals: Vec<Interval>,
    /// Retry backoff windows, in log order.
    pub(crate) retries: Vec<Recovery>,
    /// Resubmissions, in log order.
    pub(crate) resubmits: Vec<Recovery>,
    /// Scheduler decisions, in log order.
    pub(crate) decisions: Vec<Decision>,
    /// Worker-cache lookups that hit.
    pub(crate) cache_hits: u64,
    /// Worker-cache lookups that missed.
    pub(crate) cache_misses: u64,
    /// The overhead partition's sorted sweep, built on first use.
    sweep: OnceLock<Vec<u64>>,
}

impl TaskTimeline {
    /// Indexes `log` in one pass, with its tables reserved from the
    /// log's counts per kind.
    pub(crate) fn from_log(log: &TelemetryLog) -> Self {
        let mut tl = TaskTimeline {
            attempts: Vec::with_capacity(log.count(TelemetryEvent::DISPATCH)),
            intervals: Vec::with_capacity(
                log.count(TelemetryEvent::STAGE) + log.count(TelemetryEvent::TRANSFER),
            ),
            retries: Vec::with_capacity(log.count(TelemetryEvent::RETRY)),
            resubmits: Vec::with_capacity(log.count(TelemetryEvent::RESUBMIT)),
            decisions: Vec::with_capacity(log.count(TelemetryEvent::DECISION)),
            ..TaskTimeline::default()
        };
        let mut type_index: BTreeMap<&str, u32> = BTreeMap::new();
        for ev in log.events() {
            match ev {
                TelemetryEvent::TaskReady { at, task } => {
                    let row = tl.row(*task);
                    row.ready = Some(*at);
                    row.first_seen = Some(row.first_seen.map_or(*at, |f| f.min(*at)));
                }
                TelemetryEvent::Decision(d) => tl.decisions.push(Decision {
                    at: d.at,
                    sim_overhead: d.sim_overhead,
                    host_nanos: d.host_nanos,
                }),
                TelemetryEvent::TaskDispatched {
                    at,
                    task,
                    task_type,
                    node,
                    cores,
                    gpu,
                    ..
                } => {
                    let types = &mut tl.types;
                    let task_type = *type_index.entry(task_type.as_str()).or_insert_with(|| {
                        types.push(task_type.clone());
                        types.len() as u32 - 1
                    });
                    let dispatch = Dispatch {
                        at: *at,
                        task_type,
                        node: *node as usize,
                        cores: *cores,
                        gpu: *gpu,
                    };
                    tl.open(*task, Some(dispatch));
                }
                TelemetryEvent::Stage {
                    task,
                    state,
                    t0,
                    t1,
                    ..
                } => tl.interval(*task, IntervalKind::Stage(*state), *t0, *t1),
                TelemetryEvent::Transfer {
                    task,
                    link,
                    bytes,
                    t0,
                    t1,
                    ..
                } => tl.interval(*task, IntervalKind::Transfer(*link, *bytes), *t0, *t1),
                TelemetryEvent::CacheAccess { hit: true, .. } => tl.cache_hits += 1,
                TelemetryEvent::CacheAccess { hit: false, .. } => tl.cache_misses += 1,
                TelemetryEvent::TaskCompleted { at, task, node } => {
                    tl.end(*task, AttemptEnd::Completed(*at)).completion =
                        Some((*at, *node as usize));
                }
                TelemetryEvent::TaskFailed {
                    at, task, attempt, ..
                } => tl.end(*task, AttemptEnd::Failed(*at)).number = attempt + 1,
                TelemetryEvent::TaskRetry {
                    at,
                    task,
                    attempt,
                    until,
                } => tl.retries.push(Recovery {
                    task: *task,
                    attempt: *attempt,
                    at: *at,
                    until: *until,
                }),
                TelemetryEvent::TaskResubmitted { at, task, .. } => {
                    let attempt = tl.row(*task).number;
                    tl.resubmits.push(Recovery {
                        task: *task,
                        attempt,
                        at: *at,
                        until: *at,
                    });
                }
                _ => {}
            }
        }
        tl
    }

    /// The earliest ready instant or interval start of `task`.
    pub fn first_seen(&self, task: TaskId) -> Option<SimTime> {
        self.tasks.get(task.0 as usize)?.first_seen
    }

    /// The last completion of `task`: instant and node.
    pub fn completion(&self, task: TaskId) -> Option<(SimTime, usize)> {
        self.tasks.get(task.0 as usize)?.completion
    }

    /// The attempt that owns `interval`.
    pub(crate) fn owner(&self, interval: &Interval) -> &Attempt {
        &self.attempts[interval.attempt as usize]
    }

    /// The critical path over each task's last completion, walked by
    /// [`trace_analysis::critical_path`]'s rule.
    pub fn critical_path(&self, workflow: &Workflow) -> Vec<CriticalHop> {
        trace_analysis::critical_path_walk(workflow, |t| self.completion(t).map(|(at, _)| at))
    }

    /// The sorted category-depth changes that the overhead partition
    /// scans, built once on first use: they do not depend on the
    /// makespan, so every [`super::OverheadReport`] of the log shares
    /// them.
    pub(crate) fn sweep(&self) -> &[u64] {
        self.sweep.get_or_init(|| overhead::sweep(self))
    }

    /// The busy windows of the dispatched attempts, in the form
    /// [`trace_analysis::cpu_busy_gpu_idle_sweep`] reads: an attempt
    /// holds its cores or GPU from its dispatch to its completion or
    /// failure, or to the end of the log if it never ends.
    pub(crate) fn busy_windows(&self) -> impl Iterator<Item = (u64, Option<u64>, i32, bool)> + '_ {
        self.attempts.iter().filter_map(|a| {
            let d = a.dispatch?;
            let end = match a.end {
                AttemptEnd::Completed(at) | AttemptEnd::Failed(at) => Some(at.as_nanos()),
                AttemptEnd::Open => None,
            };
            Some((d.at.as_nanos(), end, d.cores.max(1) as i32, d.gpu.is_some()))
        })
    }

    /// The row of `task`, growing the table to hold it.
    fn row(&mut self, task: TaskId) -> &mut TaskRow {
        let i = task.0 as usize;
        if i >= self.tasks.len() {
            self.tasks.resize(i + 1, TaskRow::default());
        }
        &mut self.tasks[i]
    }

    /// Opens an attempt of `task`; a dispatch claims the task's ready
    /// instant.
    fn open(&mut self, task: TaskId, dispatch: Option<Dispatch>) -> u32 {
        let index = self.attempts.len() as u32;
        let row = self.row(task);
        row.open = Some(index);
        let ready = dispatch.and(row.ready.take());
        let number = row.number;
        self.attempts.push(Attempt {
            task,
            number,
            dispatch,
            ready,
            end: AttemptEnd::Open,
        });
        index
    }

    /// The open attempt of `task`, opening one without a dispatch if
    /// none is open.
    fn current(&mut self, task: TaskId) -> u32 {
        match self.row(task).open {
            Some(attempt) => attempt,
            None => self.open(task, None),
        }
    }

    fn interval(&mut self, task: TaskId, kind: IntervalKind, t0: SimTime, t1: SimTime) {
        let attempt = self.current(task);
        let row = self.row(task);
        row.first_seen = Some(row.first_seen.map_or(t0, |f| f.min(t0)));
        self.intervals.push(Interval {
            attempt,
            kind,
            t0,
            t1,
        });
    }

    /// Ends the open attempt of `task` and returns the task's row.
    fn end(&mut self, task: TaskId, end: AttemptEnd) -> &mut TaskRow {
        let attempt = self.current(task);
        self.attempts[attempt as usize].end = end;
        let row = self.row(task);
        row.open = None;
        row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn dispatch(at: u64, task: u32, gpu: Option<u16>) -> TelemetryEvent {
        TelemetryEvent::TaskDispatched {
            at: t(at),
            task: TaskId(task),
            task_type: TaskType::new("k"),
            node: 0,
            core: 0,
            cores: 2,
            gpu,
        }
    }

    fn stage(task: u32, t0: u64, t1: u64) -> TelemetryEvent {
        TelemetryEvent::Stage {
            task: TaskId(task),
            node: 0,
            core: 0,
            gpu: None,
            state: TraceState::ParallelFraction,
            t0: t(t0),
            t1: t(t1),
        }
    }

    fn failed(at: u64, task: u32, attempt: u32) -> TelemetryEvent {
        TelemetryEvent::TaskFailed {
            at: t(at),
            task: TaskId(task),
            node: 0,
            attempt,
            started: t(0),
            reason: "transient",
        }
    }

    fn completed(at: u64, task: u32) -> TelemetryEvent {
        TelemetryEvent::TaskCompleted {
            at: t(at),
            task: TaskId(task),
            node: 0,
        }
    }

    #[test]
    fn interleaved_events_pair_with_their_own_attempts() {
        let log = TelemetryLog::from_events(vec![
            TelemetryEvent::TaskReady {
                at: t(1),
                task: TaskId(0),
            },
            dispatch(2, 0, None),
            dispatch(3, 1, Some(0)),
            stage(1, 3, 5),
            stage(0, 2, 6),
            failed(6, 0, 0),
            completed(7, 1),
            dispatch(9, 0, None),
            stage(0, 9, 10),
            completed(10, 0),
        ]);
        let tl = TaskTimeline::from_log(&log);
        let a = &tl.attempts;
        assert_eq!(a.len(), 3);
        assert_eq!((a[0].task, a[0].end), (TaskId(0), AttemptEnd::Failed(t(6))));
        assert_eq!(a[0].ready, Some(t(1)), "the ready instant is claimed once");
        assert_eq!(a[2].ready, None);
        assert_eq!((a[2].number, a[2].end), (1, AttemptEnd::Completed(t(10))));
        let owners: Vec<u32> = tl.intervals.iter().map(|iv| iv.attempt).collect();
        assert_eq!(owners, vec![1, 0, 2]);
        assert_eq!(tl.first_seen(TaskId(0)), Some(t(1)));
        assert_eq!(tl.completion(TaskId(0)), Some((t(10), 0)));
        assert_eq!(tl.completion(TaskId(7)), None);
    }

    #[test]
    fn regeneration_keeps_the_attempt_number_and_failures_advance_it() {
        let log = TelemetryLog::from_events(vec![
            dispatch(0, 0, None),
            completed(5, 0),
            // Lineage regeneration: the completed task runs again.
            dispatch(8, 0, None),
            failed(9, 0, 1),
            dispatch(12, 0, None),
            completed(15, 0),
        ]);
        let tl = TaskTimeline::from_log(&log);
        let numbers: Vec<u32> = tl.attempts.iter().map(|a| a.number).collect();
        assert_eq!(numbers, vec![0, 0, 2]);
        assert_eq!(tl.completion(TaskId(0)), Some((t(15), 0)));
    }

    #[test]
    fn work_without_a_dispatch_opens_an_attempt() {
        let log = TelemetryLog::from_events(vec![stage(3, 0, 4), failed(4, 3, 0), stage(3, 6, 8)]);
        let tl = TaskTimeline::from_log(&log);
        let a = &tl.attempts;
        assert_eq!(a.len(), 2);
        assert!(a[0].failed() && a[0].dispatch.is_none());
        assert_eq!((a[1].number, a[1].end), (1, AttemptEnd::Open));
        assert!(tl.types.is_empty());
    }
}
