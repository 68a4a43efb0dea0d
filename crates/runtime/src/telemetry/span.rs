//! Causal span trees folded from the telemetry stream.
//!
//! A [`SpanForest`] turns the flat [`TelemetryEvent`] stream into a
//! per-task-instance span tree: every task owns a root span spanning
//! ready→completion, with child phase spans for queue-wait,
//! input-fetch, deserialize, compute, serialize and writeback, plus
//! retry/resubmit spans whenever the chaos layer re-ran the task.
//! Causal parent edges point at the data-dependency producer that
//! finished last: the critical-path walk's own hop rule (ties on the
//! higher [`TaskId`]), so a walk along causal parents from the last
//! task reproduces the critical path hop for hop. Phases and attempt
//! numbers come from the [`TaskTimeline`](super::TaskTimeline) of the
//! log.
//!
//! Everything is folded in integer virtual-time nanoseconds from the
//! deterministic event stream, so the exports ([`SpanForest::to_otlp_json`]
//! and the collapsed-stack form in [`super::flame`]) are byte-identical
//! at any `--threads` setting.

use gpuflow_chaos::mix64;

use crate::task::TaskId;
use crate::trace::TraceState;
use crate::trace_analysis::latest_predecessor;
use crate::workflow::Workflow;

use super::event::LinkKind;
use super::json::JsonWriter;
use super::timeline::IntervalKind;
use super::TelemetryLog;

/// Seed folded into every deterministic span/trace identifier.
const SPAN_ID_SEED: u64 = 0x5A5A_D00D_5EED_0001;

/// The lifecycle phase a span covers, in canonical pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanPhase {
    /// Ready-to-dispatch interval (scheduler queue residency).
    QueueWait,
    /// Input transfers toward the executing node (`read` / `h2d`).
    InputFetch,
    /// Input deserialization on the worker.
    Deserialize,
    /// Kernel execution (serial + parallel fractions and CPU↔GPU
    /// coordination are aggregated under one compute span).
    Compute,
    /// Output serialization on the worker.
    Serialize,
    /// Output transfers away from the node (`write` / `d2h`).
    Writeback,
    /// Backoff window between a failed attempt and its retry.
    RetryBackoff,
    /// Zero-length marker: the task was resubmitted after a node loss.
    Resubmit,
}

impl SpanPhase {
    /// Every phase in canonical pipeline order.
    pub const ALL: [SpanPhase; 8] = [
        SpanPhase::QueueWait,
        SpanPhase::InputFetch,
        SpanPhase::Deserialize,
        SpanPhase::Compute,
        SpanPhase::Serialize,
        SpanPhase::Writeback,
        SpanPhase::RetryBackoff,
        SpanPhase::Resubmit,
    ];

    /// Stable label used in exports and flame-graph frames.
    pub fn label(self) -> &'static str {
        match self {
            SpanPhase::QueueWait => "queue-wait",
            SpanPhase::InputFetch => "input-fetch",
            SpanPhase::Deserialize => "deserialize",
            SpanPhase::Compute => "compute",
            SpanPhase::Serialize => "serialize",
            SpanPhase::Writeback => "writeback",
            SpanPhase::RetryBackoff => "retry",
            SpanPhase::Resubmit => "resubmit",
        }
    }

    /// Canonical index (position in [`SpanPhase::ALL`]).
    pub fn index(self) -> usize {
        SpanPhase::ALL.iter().position(|p| *p == self).unwrap_or(0)
    }
}

/// One phase interval inside a task instance, in virtual-time ns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseSpan {
    /// Which lifecycle phase this span covers.
    pub phase: SpanPhase,
    /// Inclusive start, virtual ns.
    pub t0_ns: u64,
    /// Exclusive end, virtual ns (`t0_ns` for zero-length markers).
    pub t1_ns: u64,
    /// Execution attempt the span belongs to (0 = first run).
    pub attempt: u32,
}

impl PhaseSpan {
    /// Span width in virtual ns.
    pub fn duration_ns(&self) -> u64 {
        self.t1_ns.saturating_sub(self.t0_ns)
    }
}

/// The span tree of one task instance.
#[derive(Debug, Clone)]
pub struct TaskSpans {
    /// The task this tree describes.
    pub task: TaskId,
    /// Task-type name (flame-graph grouping key).
    pub task_type: String,
    /// Node the final (successful) attempt ran on.
    pub node: usize,
    /// Child phase spans, sorted by `(t0_ns, phase order, t1_ns)`.
    pub phases: Vec<PhaseSpan>,
    /// Root-span start: first observable moment of the task, virtual ns.
    pub start_ns: u64,
    /// Root-span end: completion time, virtual ns.
    pub end_ns: u64,
    /// Causal parent: the latest-finishing data-dependency producer
    /// (ties to the higher task id), if the task has predecessors.
    pub causal_parent: Option<TaskId>,
    /// Whether the task lies on the run's critical path.
    pub on_critical_path: bool,
}

impl TaskSpans {
    /// Total virtual ns attributed to `phase` across all attempts.
    pub fn phase_total_ns(&self, phase: SpanPhase) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.phase == phase)
            .map(PhaseSpan::duration_ns)
            .sum()
    }

    /// End-to-end latency of the root span in virtual ns.
    pub fn latency_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Highest attempt index seen in any phase span.
    pub fn attempts(&self) -> u32 {
        self.phases.iter().map(|p| p.attempt).max().unwrap_or(0)
    }
}

/// The complete causal span forest of one run.
#[derive(Debug, Clone, Default)]
pub struct SpanForest {
    /// Per-task span trees, ordered by ascending task id.
    pub tasks: Vec<TaskSpans>,
}

impl SpanForest {
    /// Folds the forest from a workflow and its telemetry log.
    ///
    /// It reads the log's one [`TaskTimeline`](super::TaskTimeline):
    /// each attempt contributes its queue wait and its stage and
    /// transfer intervals, labelled with its attempt number, and retry
    /// windows and resubmissions join as phase spans. Causal parents and the
    /// critical-path marking come from the workflow's dependency
    /// structure. Tasks that never completed (e.g. the run was
    /// truncated) are dropped — a span tree without an end is not a
    /// span tree.
    pub fn from_telemetry(workflow: &Workflow, log: &TelemetryLog) -> SpanForest {
        let timeline = log.timeline();
        let n = workflow.tasks().len();
        let mut phases: Vec<Vec<PhaseSpan>> = vec![Vec::new(); n];
        let mut push = |task: TaskId, phase, t0_ns, t1_ns, attempt| {
            if let Some(ph) = phases.get_mut(task.0 as usize) {
                ph.push(PhaseSpan {
                    phase,
                    t0_ns,
                    t1_ns,
                    attempt,
                });
            }
        };
        for a in &timeline.attempts {
            if let (Some(d), Some(ready)) = (a.dispatch, a.ready) {
                let (t0, t1) = (ready.as_nanos(), d.at.as_nanos());
                push(a.task, SpanPhase::QueueWait, t0, t1, a.number);
            }
        }
        for iv in &timeline.intervals {
            let phase = match iv.kind {
                IntervalKind::Stage(TraceState::Deserialize) => SpanPhase::Deserialize,
                IntervalKind::Stage(TraceState::Serialize) => SpanPhase::Serialize,
                IntervalKind::Stage(_) => SpanPhase::Compute,
                IntervalKind::Transfer(LinkKind::StorageRead | LinkKind::HostToDevice, _) => {
                    SpanPhase::InputFetch
                }
                IntervalKind::Transfer(LinkKind::StorageWrite | LinkKind::DeviceToHost, _) => {
                    SpanPhase::Writeback
                }
            };
            let a = timeline.owner(iv);
            push(a.task, phase, iv.t0.as_nanos(), iv.t1.as_nanos(), a.number);
        }
        for r in &timeline.retries {
            let (t0, t1) = (r.at.as_nanos(), r.until.as_nanos());
            push(r.task, SpanPhase::RetryBackoff, t0, t1, r.attempt);
        }
        for r in &timeline.resubmits {
            let at = r.at.as_nanos();
            push(r.task, SpanPhase::Resubmit, at, at, r.attempt);
        }

        let mut critical = vec![false; n];
        for hop in timeline.critical_path(workflow) {
            critical[hop.task.0 as usize] = true;
        }

        let end_of = |t: TaskId| timeline.completion(t).map(|(at, _)| at);
        let types = workflow.task_types();
        let mut tasks: Vec<TaskSpans> = Vec::new();
        for (id, mut ph) in phases.into_iter().enumerate() {
            let task = TaskId(id as u32);
            let Some((end, node)) = timeline.completion(task) else {
                continue;
            };
            ph.sort_by_key(|p| (p.t0_ns, p.phase.index(), p.t1_ns, p.attempt));
            let end_ns = end.as_nanos();
            tasks.push(TaskSpans {
                task,
                task_type: types[workflow.type_id(task) as usize].to_string(),
                node,
                phases: ph,
                start_ns: timeline.first_seen(task).map_or(end_ns, |t| t.as_nanos()),
                end_ns,
                causal_parent: latest_predecessor(workflow, task, end_of).map(|(p, _)| p),
                on_critical_path: critical[id],
            });
        }
        SpanForest { tasks }
    }

    /// Number of task span trees in the forest.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// True when the forest holds no spans.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Total span count (roots + phase children).
    pub fn span_count(&self) -> usize {
        self.tasks.len() + self.tasks.iter().map(|t| t.phases.len()).sum::<usize>()
    }

    /// Deterministic 64-bit root-span id of `task`.
    pub fn root_span_id(task: TaskId) -> u64 {
        mix64(SPAN_ID_SEED ^ ((task.0 as u64) << 1) ^ 1)
    }

    /// The OTLP/JSON-shaped export: one resource, one scope, every span
    /// flattened with stringified integer virtual-ns timestamps and
    /// deterministic hex ids. Parent edges encode the causal structure:
    /// phase spans point at their task root, task roots point at the
    /// root of their causal-parent task.
    pub fn to_otlp_json(&self) -> String {
        // Every span opens with the same trace id.
        let mut head = JsonWriter::default();
        head.lit("{\"traceId\":\"").hex(mix64(SPAN_ID_SEED), 16);
        head.hex(mix64(SPAN_ID_SEED ^ 0xFF), 16)
            .lit("\",\"spanId\":\"");
        let head = head.finish();
        // One span up to its name's opening quote.
        let span = |w: &mut JsonWriter, id: u64, parent: Option<u64>| {
            w.item().lit(&head).hex(id, 16).lit("\"");
            if let Some(p) = parent {
                w.key("parentSpanId").lit("\"").hex(p, 16).lit("\"");
            }
            w.key("name").lit("\"");
        };
        let mut w = JsonWriter::default();
        w.lit(
            "{\"resourceSpans\":[{\"resource\":{\"attributes\":[{\"key\":\"service.name\",\
             \"value\":{\"stringValue\":\"gpuflow\"}}]},\"scopeSpans\":[{\"scope\":\
             {\"name\":\"gpuflow.telemetry.span\"},\"spans\":",
        )
        .begin("[");
        for t in &self.tasks {
            let root = Self::root_span_id(t.task);
            span(&mut w, root, t.causal_parent.map(Self::root_span_id));
            w.lit("task/").escaped(&t.task_type);
            span_end(&mut w, t.start_ns, t.end_ns);
            let (attempts, critical) = (t.attempts() + 1, t.on_critical_path);
            attr(&mut w, "gpuflow.task", |w| w.num(t.task.0.into()));
            attr(&mut w, "gpuflow.node", |w| w.num(t.node as u64));
            attr(&mut w, "gpuflow.attempts", |w| w.num(attempts.into()));
            attr(&mut w, "gpuflow.critical_path", |w| w.boolean(critical));
            w.end("]}");
            for (i, p) in t.phases.iter().enumerate() {
                span(&mut w, mix64(root ^ (i as u64 + 1)), Some(root));
                w.lit(p.phase.label());
                span_end(&mut w, p.t0_ns, p.t1_ns);
                attr(&mut w, "gpuflow.attempt", |w| w.num(p.attempt.into()));
                w.end("]}");
            }
        }
        w.end("]}]}]}\n");
        w.finish()
    }

    /// Fixed-shape integer summary for `obs summary --json`: task and
    /// span counts, critical-path size, retries, and total virtual ns
    /// per phase (every phase key always present, zero when unused).
    pub fn summary_json(&self) -> String {
        let critical = self.tasks.iter().filter(|t| t.on_critical_path).count();
        let retries: u64 = self.tasks.iter().map(|t| t.attempts() as u64).sum();
        let mut w = JsonWriter::default();
        w.begin("{")
            .field("tasks", self.tasks.len() as u64)
            .field("spans", self.span_count() as u64)
            .field("critical_path_tasks", critical as u64)
            .field("retries", retries);
        w.key("phase_ns").begin("{");
        for phase in SpanPhase::ALL {
            let total = self.tasks.iter().map(|t| t.phase_total_ns(phase)).sum();
            w.field(phase.label(), total);
        }
        w.end("}").end("}");
        w.finish()
    }
}

/// Ends a span's name, writes its kind and its start and end as
/// decimal strings, and opens its attribute list.
fn span_end(w: &mut JsonWriter, t0: u64, t1: u64) {
    w.lit("\"").field("kind", 1).key("startTimeUnixNano");
    w.lit("\"").num(t0).lit("\"").key("endTimeUnixNano");
    w.lit("\"").num(t1).lit("\"").key("attributes").begin("[");
}

/// Appends the OTLP string attribute `key`, whose text `value` writes.
fn attr(w: &mut JsonWriter, key: &str, value: impl FnOnce(&mut JsonWriter) -> &mut JsonWriter) {
    w.item().lit("{\"key\":\"").lit(key);
    value(w.lit("\",\"value\":{\"stringValue\":\"")).lit("\"}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Direction;
    use crate::task::CostProfile;
    use crate::telemetry::TelemetryEvent;
    use crate::workflow::WorkflowBuilder;
    use gpuflow_cluster::KernelWork;
    use gpuflow_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn diamond() -> Workflow {
        // 0 -> {1, 2} -> 3
        let mut b = WorkflowBuilder::new();
        let x = b.intermediate("x", 64);
        let y1 = b.intermediate("y1", 64);
        let y2 = b.intermediate("y2", 64);
        let c = CostProfile::serial_only(KernelWork::NONE);
        b.submit("src", c, &[(x, Direction::Out)], true).unwrap();
        b.submit("map", c, &[(x, Direction::In), (y1, Direction::Out)], true)
            .unwrap();
        b.submit("map", c, &[(x, Direction::In), (y2, Direction::Out)], true)
            .unwrap();
        b.submit(
            "reduce",
            c,
            &[(y1, Direction::In), (y2, Direction::In)],
            true,
        )
        .unwrap();
        b.build()
    }

    fn log_for_diamond() -> TelemetryLog {
        let ev = |v: TelemetryEvent| v;
        TelemetryLog::from_events(vec![
            ev(TelemetryEvent::TaskReady {
                at: t(0),
                task: TaskId(0),
            }),
            ev(TelemetryEvent::TaskDispatched {
                at: t(10),
                task: TaskId(0),
                task_type: "src".into(),
                node: 0,
                core: 0,
                cores: 1,
                gpu: None,
            }),
            ev(TelemetryEvent::Stage {
                task: TaskId(0),
                node: 0,
                core: 0,
                gpu: None,
                state: TraceState::ParallelFraction,
                t0: t(10),
                t1: t(100),
            }),
            ev(TelemetryEvent::TaskCompleted {
                at: t(100),
                task: TaskId(0),
                node: 0,
            }),
            ev(TelemetryEvent::TaskReady {
                at: t(100),
                task: TaskId(1),
            }),
            ev(TelemetryEvent::TaskReady {
                at: t(100),
                task: TaskId(2),
            }),
            ev(TelemetryEvent::TaskDispatched {
                at: t(110),
                task: TaskId(1),
                task_type: "map".into(),
                node: 0,
                core: 0,
                cores: 1,
                gpu: None,
            }),
            ev(TelemetryEvent::Transfer {
                task: TaskId(1),
                node: 0,
                link: LinkKind::StorageRead,
                bytes: 64,
                t0: t(110),
                t1: t(120),
            }),
            ev(TelemetryEvent::TaskCompleted {
                at: t(200),
                task: TaskId(1),
                node: 0,
            }),
            ev(TelemetryEvent::TaskDispatched {
                at: t(110),
                task: TaskId(2),
                task_type: "map".into(),
                node: 1,
                core: 0,
                cores: 1,
                gpu: None,
            }),
            ev(TelemetryEvent::TaskCompleted {
                at: t(300),
                task: TaskId(2),
                node: 1,
            }),
            ev(TelemetryEvent::TaskReady {
                at: t(300),
                task: TaskId(3),
            }),
            ev(TelemetryEvent::TaskDispatched {
                at: t(320),
                task: TaskId(3),
                task_type: "reduce".into(),
                node: 1,
                core: 0,
                cores: 1,
                gpu: None,
            }),
            ev(TelemetryEvent::TaskCompleted {
                at: t(400),
                task: TaskId(3),
                node: 1,
            }),
        ])
    }

    #[test]
    fn folds_queue_wait_and_phase_spans() {
        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        assert_eq!(forest.len(), 4);
        let t0 = &forest.tasks[0];
        assert_eq!(t0.phase_total_ns(SpanPhase::QueueWait), 10);
        assert_eq!(t0.phase_total_ns(SpanPhase::Compute), 90);
        let t1 = &forest.tasks[1];
        assert_eq!(t1.phase_total_ns(SpanPhase::InputFetch), 10);
    }

    #[test]
    fn causal_parent_is_latest_finishing_predecessor() {
        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        // Task 3's predecessors finish at 200 (task 1) and 300 (task 2).
        assert_eq!(forest.tasks[3].causal_parent, Some(TaskId(2)));
        assert_eq!(forest.tasks[0].causal_parent, None);
    }

    #[test]
    fn critical_path_marking_matches_walk_back() {
        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        let on: Vec<u32> = forest
            .tasks
            .iter()
            .filter(|t| t.on_critical_path)
            .map(|t| t.task.0)
            .collect();
        assert_eq!(on, vec![0, 2, 3]);
    }

    #[test]
    fn otlp_export_is_wellformed_and_deterministic() {
        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        let a = forest.to_otlp_json();
        let b = SpanForest::from_telemetry(&wf, &log_for_diamond()).to_otlp_json();
        assert_eq!(a, b);
        assert!(a.starts_with("{\"resourceSpans\":["));
        assert!(a.contains("\"parentSpanId\""));
        assert!(a.contains("\"name\":\"queue-wait\""));
        assert!(a.ends_with("}\n"));
    }

    #[test]
    fn summary_json_has_every_phase_key() {
        let wf = diamond();
        let forest = SpanForest::from_telemetry(&wf, &log_for_diamond());
        let s = forest.summary_json();
        for phase in SpanPhase::ALL {
            assert!(s.contains(phase.label()), "missing {}: {s}", phase.label());
        }
        assert!(s.contains("\"critical_path_tasks\":3"));
    }

    #[test]
    fn retry_spans_carry_attempt_numbers() {
        let wf = {
            let mut b = WorkflowBuilder::new();
            let x = b.intermediate("x", 8);
            b.submit(
                "solo",
                CostProfile::serial_only(KernelWork::NONE),
                &[(x, Direction::Out)],
                true,
            )
            .unwrap();
            b.build()
        };
        let log = TelemetryLog::from_events(vec![
            TelemetryEvent::TaskReady {
                at: t(0),
                task: TaskId(0),
            },
            TelemetryEvent::TaskDispatched {
                at: t(5),
                task: TaskId(0),
                task_type: "solo".into(),
                node: 0,
                core: 0,
                cores: 1,
                gpu: None,
            },
            TelemetryEvent::TaskFailed {
                at: t(50),
                task: TaskId(0),
                node: 0,
                attempt: 0,
                started: t(5),
                reason: "transient",
            },
            TelemetryEvent::TaskRetry {
                at: t(50),
                task: TaskId(0),
                attempt: 0,
                until: t(80),
            },
            TelemetryEvent::TaskReady {
                at: t(80),
                task: TaskId(0),
            },
            TelemetryEvent::TaskDispatched {
                at: t(90),
                task: TaskId(0),
                task_type: "solo".into(),
                node: 0,
                core: 0,
                cores: 1,
                gpu: None,
            },
            TelemetryEvent::TaskCompleted {
                at: t(140),
                task: TaskId(0),
                node: 0,
            },
        ]);
        let forest = SpanForest::from_telemetry(&wf, &log);
        let t0 = &forest.tasks[0];
        assert_eq!(t0.phase_total_ns(SpanPhase::RetryBackoff), 30);
        assert_eq!(t0.attempts(), 1);
        let second_wait: Vec<_> = t0
            .phases
            .iter()
            .filter(|p| p.phase == SpanPhase::QueueWait && p.attempt == 1)
            .collect();
        assert_eq!(second_wait.len(), 1);
        assert_eq!(second_wait[0].duration_ns(), 10);
    }
}
