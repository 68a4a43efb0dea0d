//! Chrome `trace_event` / Perfetto export.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) accepted
//! by Perfetto and `chrome://tracing`:
//!
//! * one *process* per cluster node plus one for the master scheduler;
//! * one *thread* (track) per host core, and one per GPU device
//!   (`tid = 1000 + gpu`);
//! * complete (`"X"`) events for every processing-stage interval and
//!   every scheduler decision;
//! * async (`"b"`/`"e"`) spans covering each task dispatch→completion;
//! * counter (`"C"`) tracks for ready-queue depth, cluster-wide busy
//!   cores/GPUs, and per-node working-set RAM, sampled at every
//!   sim-time occupancy change.
//!
//! Timestamps are microseconds with nanosecond precision (`ts`/`dur`
//! are fractional), directly comparable across exports of the same run.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Display, Write as _};

use crate::task::TaskType;
use crate::trace::TraceState;

use super::event::{JsonStr, TelemetryEvent};
use super::TelemetryLog;

/// Thread-track id of GPU device `g` within its node's process.
fn gpu_tid(g: u16) -> u32 {
    1000 + g as u32
}

/// Microseconds with nanosecond precision, rendered deterministically.
struct Us(u64);

impl Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

/// The `traceEvents` array under construction: each record is written
/// straight into the output, one per line, comma-separated.
struct Records {
    out: String,
    empty: bool,
}

impl Records {
    /// Starts the next record and returns the buffer to write it into.
    fn next(&mut self) -> &mut String {
        if !self.empty {
            self.out.push_str(",\n");
        }
        self.empty = false;
        &mut self.out
    }

    /// A metadata (`"M"`) record naming a process or thread track.
    fn meta(&mut self, pid: usize, tid: Option<u32>, kind: &str, name: &str) {
        let out = self.next();
        let _ = write!(out, "{{\"ph\":\"M\",\"pid\":{pid},");
        if let Some(tid) = tid {
            let _ = write!(out, "\"tid\":{tid},");
        }
        let _ = write!(
            out,
            "\"name\":\"{kind}\",\"args\":{{\"name\":\"{}\"}}}}",
            JsonStr(name)
        );
    }

    /// A complete (`"X"`) record on track `(pid, tid)`.
    fn complete(
        &mut self,
        name: impl Display,
        cat: &str,
        (pid, tid): (usize, u32),
        t0_ns: u64,
        dur_ns: u64,
        args: fmt::Arguments<'_>,
    ) {
        let _ = write!(
            self.next(),
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{},\"dur\":{},\"args\":{{{args}}}}}",
            Us(t0_ns),
            Us(dur_ns)
        );
    }

    /// A process-scoped instant (`"i"`) record, with `args` when given.
    fn instant(
        &mut self,
        name: impl Display,
        cat: &str,
        pid: usize,
        at_ns: u64,
        args: Option<fmt::Arguments<'_>>,
    ) {
        let out = self.next();
        let _ = write!(
            out,
            "{{\"name\":\"{name}\",\"cat\":\"{cat}\",\"ph\":\"i\",\"s\":\"p\",\"pid\":{pid},\"tid\":0,\"ts\":{}",
            Us(at_ns)
        );
        if let Some(args) = args {
            let _ = write!(out, ",\"args\":{{{args}}}");
        }
        out.push('}');
    }

    /// A counter (`"C"`) sample.
    fn counter(&mut self, name: &str, pid: usize, at_ns: u64, args: fmt::Arguments<'_>) {
        let _ = write!(
            self.next(),
            "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{{args}}}}}",
            Us(at_ns)
        );
    }

    /// The begin (`'b'`) or end (`'e'`) of a task's async span, named
    /// `"<type> t<id>"`, or `"t<id>"` for a task the log never
    /// dispatched.
    fn task_span(&mut self, ph: char, ty: Option<&TaskType>, task: u32, pid: usize, at_ns: u64) {
        let out = self.next();
        out.push_str("{\"name\":\"");
        if let Some(ty) = ty {
            let _ = write!(out, "{} ", JsonStr(ty));
        }
        let _ = write!(
            out,
            "t{task}\",\"cat\":\"task\",\"ph\":\"{ph}\",\"id\":{task},\"pid\":{pid},\"tid\":0,\"ts\":{}}}",
            Us(at_ns)
        );
    }
}

/// Exports a telemetry log as a Chrome `trace_event` JSON document.
pub fn to_chrome_trace(log: &TelemetryLog) -> String {
    // Pass 1: discover tracks and each task's type.
    let mut tracks: BTreeSet<(usize, u32)> = BTreeSet::new(); // (node, tid)
    let mut task_types: Vec<Option<&TaskType>> = Vec::new(); // by task id
    let mut max_node = 0usize;
    for ev in log.events() {
        match ev {
            TelemetryEvent::Stage {
                node, core, gpu, ..
            } => {
                max_node = max_node.max(*node);
                tracks.insert((*node, *core as u32));
                if let Some(g) = gpu {
                    tracks.insert((*node, gpu_tid(*g)));
                }
            }
            TelemetryEvent::TaskDispatched {
                task,
                task_type,
                node,
                ..
            } => {
                max_node = max_node.max(*node);
                let i = task.0 as usize;
                if i >= task_types.len() {
                    task_types.resize(i + 1, None);
                }
                task_types[i] = Some(task_type);
            }
            TelemetryEvent::NodeGauge { node, .. } => max_node = max_node.max(*node),
            TelemetryEvent::FaultInjected {
                node: Some(node), ..
            }
            | TelemetryEvent::TaskFailed { node, .. }
            | TelemetryEvent::NodeDown { node, .. }
            | TelemetryEvent::NodeUp { node, .. }
            | TelemetryEvent::BlocksInvalidated { node, .. } => max_node = max_node.max(*node),
            _ => {}
        }
    }
    let master_pid = max_node + 1;
    let type_of = |task: u32| task_types.get(task as usize).copied().flatten();

    let mut recs = Records {
        out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
        empty: true,
    };
    // Metadata: processes and named tracks, cores before GPUs.
    for node in 0..=max_node {
        recs.meta(node, None, "process_name", &format!("node {node}"));
        for &(_, tid) in tracks.range((node, 0)..(node + 1, 0)) {
            let name = match tid.checked_sub(gpu_tid(0)) {
                Some(g) => format!("gpu {g}"),
                None => format!("core {tid}"),
            };
            recs.meta(node, Some(tid), "thread_name", &name);
        }
    }
    recs.meta(master_pid, None, "process_name", "master scheduler");
    recs.meta(master_pid, Some(0), "thread_name", "decisions");

    // Pass 2: spans and counters. Cluster-wide busy counters are the
    // running sum of the latest per-node gauges.
    let mut node_busy_cores: BTreeMap<usize, usize> = BTreeMap::new();
    let mut node_busy_gpus: BTreeMap<usize, usize> = BTreeMap::new();
    for ev in log.events() {
        match ev {
            TelemetryEvent::Stage {
                task,
                node,
                core,
                gpu,
                state,
                t0,
                t1,
            } => {
                let tid = match (gpu, state) {
                    (Some(g), TraceState::ParallelFraction | TraceState::CpuGpuComm) => gpu_tid(*g),
                    _ => *core as u32,
                };
                let dur = t1.duration_since(*t0).as_nanos();
                let args = format_args!("\"task\":{}", task.0);
                recs.complete(
                    state.label(),
                    "stage",
                    (*node, tid),
                    t0.as_nanos(),
                    dur,
                    args,
                );
            }
            TelemetryEvent::Decision(d) => {
                let at = d.at.as_nanos();
                recs.complete(
                    format_args!("place t{}", d.task.0),
                    "decision",
                    (master_pid, 0),
                    at,
                    d.sim_overhead.as_nanos(),
                    format_args!(
                        "\"chosen\":{},\"queue_depth\":{},\"candidates\":{}",
                        d.chosen,
                        d.queue_depth,
                        d.candidates.len()
                    ),
                );
                let args = format_args!("\"ready\":{}", d.queue_depth);
                recs.counter("queue_depth", master_pid, at, args);
            }
            TelemetryEvent::TaskDispatched { at, task, node, .. } => {
                recs.task_span('b', type_of(task.0), task.0, *node, at.as_nanos());
            }
            TelemetryEvent::TaskCompleted { at, task, node } => {
                recs.task_span('e', type_of(task.0), task.0, *node, at.as_nanos());
            }
            TelemetryEvent::NodeGauge {
                at,
                node,
                ram_used,
                busy_cores,
                busy_gpus,
            } => {
                node_busy_cores.insert(*node, *busy_cores);
                node_busy_gpus.insert(*node, *busy_gpus);
                let at = at.as_nanos();
                recs.counter("ram_bytes", *node, at, format_args!("\"bytes\":{ram_used}"));
                let cores: usize = node_busy_cores.values().sum();
                let gpus: usize = node_busy_gpus.values().sum();
                let args = format_args!("\"cores\":{cores},\"gpus\":{gpus}");
                recs.counter("cluster_busy", master_pid, at, args);
            }
            TelemetryEvent::FaultInjected { at, node, what } => {
                let pid = node.unwrap_or(master_pid);
                recs.instant(
                    format_args!("fault: {what}"),
                    "fault",
                    pid,
                    at.as_nanos(),
                    None,
                );
            }
            TelemetryEvent::TaskFailed {
                at,
                task,
                node,
                attempt,
                reason,
                ..
            } => recs.instant(
                format_args!("failed t{} ({reason})", task.0),
                "fault",
                *node,
                at.as_nanos(),
                Some(format_args!("\"attempt\":{attempt}")),
            ),
            TelemetryEvent::TaskRetry {
                at,
                task,
                attempt,
                until,
            } => recs.complete(
                format_args!("backoff t{}", task.0),
                "recovery",
                (master_pid, 0),
                at.as_nanos(),
                until.duration_since(*at).as_nanos(),
                format_args!("\"attempt\":{attempt}"),
            ),
            TelemetryEvent::TaskResubmitted {
                at,
                task,
                from_node,
            } => recs.instant(
                format_args!("resubmit t{}", task.0),
                "recovery",
                master_pid,
                at.as_nanos(),
                Some(format_args!("\"from_node\":{from_node}")),
            ),
            TelemetryEvent::NodeDown { at, node } => {
                recs.instant("node down", "fault", *node, at.as_nanos(), None);
            }
            TelemetryEvent::NodeUp { at, node } => {
                recs.instant("node up", "fault", *node, at.as_nanos(), None);
            }
            TelemetryEvent::BlocksInvalidated {
                at,
                node,
                count,
                lost_versions,
            } => recs.instant(
                "blocks invalidated",
                "fault",
                *node,
                at.as_nanos(),
                Some(format_args!(
                    "\"count\":{count},\"lost_versions\":{lost_versions}"
                )),
            ),
            _ => {}
        }
    }

    let mut out = recs.out;
    if !recs.empty {
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use gpuflow_sim::SimTime;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    fn sample_log() -> TelemetryLog {
        TelemetryLog::from_events(vec![
            TelemetryEvent::TaskDispatched {
                at: t(0),
                task: TaskId(0),
                task_type: TaskType::new("map"),
                node: 0,
                core: 1,
                cores: 1,
                gpu: Some(0),
            },
            TelemetryEvent::Stage {
                task: TaskId(0),
                node: 0,
                core: 1,
                gpu: Some(0),
                state: TraceState::ParallelFraction,
                t0: t(1_500),
                t1: t(2_500),
            },
            TelemetryEvent::NodeGauge {
                at: t(0),
                node: 0,
                ram_used: 42,
                busy_cores: 1,
                busy_gpus: 1,
            },
            TelemetryEvent::TaskCompleted {
                at: t(3_000),
                task: TaskId(0),
                node: 0,
            },
        ])
    }

    #[test]
    fn trace_has_envelope_and_tracks() {
        let json = to_chrome_trace(&sample_log());
        assert!(json.starts_with("{\"displayTimeUnit\""));
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("gpu 0"));
        assert!(json.contains("\"ph\":\"C\""), "counter tracks required");
        assert!(json.contains("\"ph\":\"b\"") && json.contains("\"ph\":\"e\""));
    }

    #[test]
    fn kernel_stages_land_on_the_gpu_track() {
        let json = to_chrome_trace(&sample_log());
        assert!(json.contains("\"tid\":1000"), "gpu track tid: {json}");
    }

    #[test]
    fn timestamps_are_fractional_microseconds() {
        let json = to_chrome_trace(&sample_log());
        assert!(json.contains("\"ts\":1.500"), "{json}");
        assert!(json.contains("\"dur\":1.000"));
    }

    #[test]
    fn empty_log_is_still_valid() {
        let json = to_chrome_trace(&TelemetryLog::default());
        assert!(json.contains("traceEvents"));
    }

    #[test]
    fn fault_events_render_as_instants_and_spans() {
        let log = TelemetryLog::from_events(vec![
            TelemetryEvent::NodeDown {
                at: t(1_000),
                node: 2,
            },
            TelemetryEvent::TaskFailed {
                at: t(2_000),
                task: TaskId(7),
                node: 2,
                attempt: 0,
                started: t(500),
                reason: "node-crash",
            },
            TelemetryEvent::TaskRetry {
                at: t(2_000),
                task: TaskId(7),
                attempt: 1,
                until: t(4_000),
            },
            TelemetryEvent::NodeUp {
                at: t(9_000),
                node: 2,
            },
        ]);
        let json = to_chrome_trace(&log);
        assert!(json.contains("\"name\":\"node down\""), "{json}");
        assert!(json.contains("\"name\":\"failed t7 (node-crash)\""));
        assert!(json.contains("\"name\":\"backoff t7\""));
        assert!(json.contains("\"ph\":\"i\""), "instant markers required");
        // The crashed node's process exists even with no stage events.
        assert!(json.contains("node 2"), "{json}");
    }
}
