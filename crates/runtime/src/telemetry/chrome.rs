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
//!
//! A run's export has about one record per event (525k records, 55 MB
//! for the 660k-event obs replay log), so every record is written into
//! one [`JsonWriter`] buffer, sized from the log, by the record methods
//! of [`Records`]. No record goes through `core::fmt`.

use crate::task::TaskType;
use crate::trace::TraceState;

use super::event::TelemetryEvent;
use super::json::JsonWriter;
use super::TelemetryLog;

/// Thread-track id of GPU device `g` within its node's process.
fn gpu_tid(g: u16) -> u32 {
    1000 + g as u32
}

/// Output bytes reserved per log event: the obs replay log exports
/// about 83 per event.
const BYTES_PER_EVENT: usize = 96;

/// The record shapes of the `traceEvents` array, one record per line,
/// written on the JSON writer.
trait Records {
    /// Starts the next record.
    fn record(&mut self) -> &mut JsonWriter;

    /// Starts the next record with its `"name"` open: the caller
    /// appends the name, then ends the record with [`Records::complete`]
    /// or [`Records::instant`].
    fn name(&mut self) -> &mut JsonWriter;

    /// Appends `,"args":{...}`, a flat object of integers.
    fn args(&mut self, args: &[(&str, u64)]) -> &mut JsonWriter;

    /// A metadata (`"M"`) record naming a process, or the thread track
    /// `tid`: the name is `label`, followed by `index` when given.
    fn meta(&mut self, pid: u64, tid: Option<u32>, kind: &str, label: &str, index: Option<u64>);

    /// Ends a complete (`"X"`) record on track `(pid, tid)`.
    fn complete(&mut self, cat: &str, track: (u64, u32), t0: u64, dur: u64, args: &[(&str, u64)]);

    /// Ends a process-scoped instant (`"i"`) record, with `args` unless
    /// they are empty.
    fn instant(&mut self, cat: &str, pid: u64, at: u64, args: &[(&str, u64)]);

    /// A counter (`"C"`) sample.
    fn counter(&mut self, name: &str, pid: u64, at: u64, args: &[(&str, u64)]);

    /// The begin (`"b"`) or end (`"e"`) of a task's async span, named
    /// `"<type> t<id>"`, or `"t<id>"` for a task the log never
    /// dispatched.
    fn task_span(&mut self, ph: &str, ty: Option<&TaskType>, task: u32, pid: u64, at: u64);
}

impl Records for JsonWriter {
    fn record(&mut self) -> &mut JsonWriter {
        self.item().lit("\n{")
    }

    fn name(&mut self) -> &mut JsonWriter {
        self.record().lit("\"name\":\"")
    }

    fn args(&mut self, args: &[(&str, u64)]) -> &mut JsonWriter {
        // One piece: `args` always follows another member.
        self.begin(",\"args\":{");
        for (key, value) in args {
            self.field(key, *value);
        }
        self.end("}")
    }

    fn meta(&mut self, pid: u64, tid: Option<u32>, kind: &str, label: &str, index: Option<u64>) {
        self.record().lit("\"ph\":\"M\",\"pid\":").num(pid);
        if let Some(tid) = tid {
            self.lit(",\"tid\":").num(tid.into());
        }
        self.lit(",\"name\":\"")
            .lit(kind)
            .lit("\",\"args\":{\"name\":\"")
            .lit(label);
        if let Some(index) = index {
            self.num(index);
        }
        self.lit("\"}}");
    }

    fn complete(
        &mut self,
        cat: &str,
        (pid, tid): (u64, u32),
        t0: u64,
        dur: u64,
        args: &[(&str, u64)],
    ) {
        self.lit("\",\"cat\":\"")
            .lit(cat)
            .lit("\",\"ph\":\"X\",\"pid\":")
            .num(pid)
            .lit(",\"tid\":")
            .num(tid.into())
            .lit(",\"ts\":")
            .us(t0)
            .lit(",\"dur\":")
            .us(dur)
            .args(args)
            .lit("}");
    }

    fn instant(&mut self, cat: &str, pid: u64, at: u64, args: &[(&str, u64)]) {
        self.lit("\",\"cat\":\"")
            .lit(cat)
            .lit("\",\"ph\":\"i\",\"s\":\"p\",\"pid\":")
            .num(pid)
            .lit(",\"tid\":0,\"ts\":")
            .us(at);
        if !args.is_empty() {
            self.args(args);
        }
        self.lit("}");
    }

    fn counter(&mut self, name: &str, pid: u64, at: u64, args: &[(&str, u64)]) {
        self.name()
            .lit(name)
            .lit("\",\"ph\":\"C\",\"pid\":")
            .num(pid)
            .lit(",\"tid\":0,\"ts\":")
            .us(at)
            .args(args)
            .lit("}");
    }

    fn task_span(&mut self, ph: &str, ty: Option<&TaskType>, task: u32, pid: u64, at: u64) {
        self.name();
        if let Some(ty) = ty {
            self.escaped(ty).lit(" ");
        }
        self.lit("t")
            .num(task.into())
            .lit("\",\"cat\":\"task\",\"ph\":\"")
            .lit(ph)
            .lit("\",\"id\":")
            .num(task.into())
            .lit(",\"pid\":")
            .num(pid)
            .lit(",\"tid\":0,\"ts\":")
            .us(at)
            .lit("}");
    }
}

/// Records track `tid` of `node` in its node's sorted track list.
fn add_track(tracks: &mut Vec<Vec<u32>>, node: u32, tid: u32) {
    let node = node as usize;
    if node >= tracks.len() {
        tracks.resize_with(node + 1, Vec::new);
    }
    if let Err(i) = tracks[node].binary_search(&tid) {
        tracks[node].insert(i, tid);
    }
}

/// Exports a telemetry log as a Chrome `trace_event` JSON document.
pub fn to_chrome_trace(log: &TelemetryLog) -> String {
    // Pass 1: discover tracks and each task's type.
    let mut tracks: Vec<Vec<u32>> = Vec::new(); // by node, sorted tids
    let mut task_types: Vec<Option<&TaskType>> = Vec::new(); // by task id
    let mut max_node = 0u32;
    for ev in log.events() {
        match ev {
            TelemetryEvent::Stage {
                node, core, gpu, ..
            } => {
                max_node = max_node.max(*node);
                add_track(&mut tracks, *node, (*core).into());
                if let Some(g) = gpu {
                    add_track(&mut tracks, *node, gpu_tid(*g));
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
    let master_pid = u64::from(max_node) + 1;
    let type_of = |task: u32| task_types.get(task as usize).copied().flatten();

    let mut recs = JsonWriter::with_capacity(BYTES_PER_EVENT * log.len());
    recs.begin("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    // Metadata: processes and named tracks, cores before GPUs.
    for node in 0..=max_node {
        let pid = node.into();
        recs.meta(pid, None, "process_name", "node ", Some(pid));
        for &tid in tracks.get(node as usize).into_iter().flatten() {
            match tid.checked_sub(gpu_tid(0)) {
                Some(g) => recs.meta(pid, Some(tid), "thread_name", "gpu ", Some(g.into())),
                None => recs.meta(pid, Some(tid), "thread_name", "core ", Some(tid.into())),
            }
        }
    }
    recs.meta(master_pid, None, "process_name", "master scheduler", None);
    recs.meta(master_pid, Some(0), "thread_name", "decisions", None);

    // Pass 2: spans and counters. Cluster-wide busy counters are running
    // totals of each node's latest gauge.
    let mut node_busy = vec![(0u32, 0u32); max_node as usize + 1]; // (cores, gpus)
    let (mut busy_cores_total, mut busy_gpus_total) = (0u64, 0u64);
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
                    _ => (*core).into(),
                };
                let dur = t1.duration_since(*t0).as_nanos();
                recs.name().lit(state.label()).complete(
                    "stage",
                    ((*node).into(), tid),
                    t0.as_nanos(),
                    dur,
                    &[("task", task.0.into())],
                );
            }
            TelemetryEvent::Decision(d) => {
                let at = d.at.as_nanos();
                recs.name().lit("place t").num(d.task.0.into()).complete(
                    "decision",
                    (master_pid, 0),
                    at,
                    d.sim_overhead.as_nanos(),
                    &[
                        ("chosen", d.chosen.into()),
                        ("queue_depth", d.queue_depth.into()),
                        ("candidates", d.candidates.len() as u64),
                    ],
                );
                let ready = [("ready", d.queue_depth.into())];
                recs.counter("queue_depth", master_pid, at, &ready);
            }
            TelemetryEvent::TaskDispatched { at, task, node, .. } => {
                recs.task_span("b", type_of(task.0), task.0, (*node).into(), at.as_nanos());
            }
            TelemetryEvent::TaskCompleted { at, task, node } => {
                recs.task_span("e", type_of(task.0), task.0, (*node).into(), at.as_nanos());
            }
            TelemetryEvent::NodeGauge {
                at,
                node,
                ram_used,
                busy_cores,
                busy_gpus,
            } => {
                let last = &mut node_busy[*node as usize];
                busy_cores_total = busy_cores_total - u64::from(last.0) + u64::from(*busy_cores);
                busy_gpus_total = busy_gpus_total - u64::from(last.1) + u64::from(*busy_gpus);
                *last = (*busy_cores, *busy_gpus);
                let at = at.as_nanos();
                recs.counter("ram_bytes", (*node).into(), at, &[("bytes", *ram_used)]);
                let busy = [("cores", busy_cores_total), ("gpus", busy_gpus_total)];
                recs.counter("cluster_busy", master_pid, at, &busy);
            }
            TelemetryEvent::FaultInjected { at, node, what } => {
                let pid = node.map_or(master_pid, u64::from);
                recs.name()
                    .lit("fault: ")
                    .lit(what)
                    .instant("fault", pid, at.as_nanos(), &[]);
            }
            TelemetryEvent::TaskFailed {
                at,
                task,
                node,
                attempt,
                reason,
                ..
            } => recs
                .name()
                .lit("failed t")
                .num(task.0.into())
                .lit(" (")
                .lit(reason)
                .lit(")")
                .instant(
                    "fault",
                    (*node).into(),
                    at.as_nanos(),
                    &[("attempt", (*attempt).into())],
                ),
            TelemetryEvent::TaskRetry {
                at,
                task,
                attempt,
                until,
            } => recs.name().lit("backoff t").num(task.0.into()).complete(
                "recovery",
                (master_pid, 0),
                at.as_nanos(),
                until.duration_since(*at).as_nanos(),
                &[("attempt", (*attempt).into())],
            ),
            TelemetryEvent::TaskResubmitted {
                at,
                task,
                from_node,
            } => recs.name().lit("resubmit t").num(task.0.into()).instant(
                "recovery",
                master_pid,
                at.as_nanos(),
                &[("from_node", (*from_node).into())],
            ),
            TelemetryEvent::NodeDown { at, node } => {
                recs.name()
                    .lit("node down")
                    .instant("fault", (*node).into(), at.as_nanos(), &[]);
            }
            TelemetryEvent::NodeUp { at, node } => {
                recs.name()
                    .lit("node up")
                    .instant("fault", (*node).into(), at.as_nanos(), &[]);
            }
            TelemetryEvent::BlocksInvalidated {
                at,
                node,
                count,
                lost_versions,
            } => recs.name().lit("blocks invalidated").instant(
                "fault",
                (*node).into(),
                at.as_nanos(),
                &[("count", *count), ("lost_versions", *lost_versions)],
            ),
            _ => {}
        }
    }

    recs.lit("\n").end("]}\n");
    recs.finish()
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
