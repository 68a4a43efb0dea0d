//! Structured runtime telemetry — the observability substrate of the
//! reproduction.
//!
//! The paper's whole methodology is trace-driven (§4.2, §4.4.3): it
//! derives (de)serialization costs, user-code fractions, and resource
//! wastage from Paraver traces of the PyCOMPSs runtime. This module
//! gives our runtime the equivalent first-class instrumentation:
//!
//! * a zero-cost-when-disabled **event bus** ([`EventBus`]) threaded
//!   through the executor, scheduler, and worker caches, emitting typed
//!   [`TelemetryEvent`]s for task lifecycle, scheduler decisions (with
//!   scored candidate sets and per-decision master overhead), cache
//!   hit/miss/evict, link transfers, and per-node resource gauges;
//! * exporters: a Chrome `trace_event`/Perfetto document
//!   ([`to_chrome_trace`]) and a deterministic JSONL stream
//!   ([`TelemetryLog::to_jsonl`]), written like every JSON document of
//!   the workspace by the one [`JsonWriter`];
//! * an [`OverheadReport`] decomposing the makespan into compute /
//!   data-movement / recovery / master / idle buckets, after the
//!   Dask-overheads analysis style.
//!
//! Post-hoc consumers read the stream in one of two ways:
//!
//! * **By attempt.** An attempt is one execution of a task, from its
//!   dispatch to its completion or failure; a retry, a resubmission and
//!   a lineage re-execution each open a new one. [`TaskTimeline`] pairs
//!   the dispatch, stage, transfer, completion and failure events into
//!   attempts in one pass, and it is the only code that decides which
//!   attempt an event belongs to. The log builds this one index once,
//!   on first use ([`TelemetryLog::timeline`]), and the index builds the
//!   overhead partition's sorted sweep once, on first use. [`SpanForest`],
//!   [`RunProfile`] (with its CPU-busy/GPU-idle wastage),
//!   [`OverheadReport`] (at any makespan),
//!   [`crate::trace_analysis::critical_path_from_telemetry`] and
//!   gpuflowd's per-job root spans all read that index.
//! * **In stream order.** Consumers that pair nothing walk the events
//!   directly: [`crate::Trace::from_telemetry`] (the input of the
//!   Paraver export, [`crate::to_paraver_prv`]), [`to_chrome_trace`],
//!   and [`MetricsRegistry`]. The metrics fold must stay a stream fold
//!   because the live [`MetricsHub`] folds each event as the executor
//!   emits it, before a timeline of the run could exist.
//!
//! Both read the same stream, so there is exactly one source of truth
//! for what happened during a run.
//!
//! Enable collection with [`crate::RunConfig::with_telemetry`]; every
//! consumer above reads the resulting [`crate::RunReport::telemetry`]
//! log.

mod alert;
mod chrome;
mod diff;
mod event;
mod flame;
mod histogram;
mod json;
mod metrics;
mod overhead;
mod sampler;
mod span;
mod timeline;

use std::fmt::{self, Write as _};
use std::sync::OnceLock;

pub use alert::{AlertEngine, AlertRule, AlertSeverity, AlertState, AlertTransition, RuleKind};
pub use chrome::to_chrome_trace;
pub use diff::{
    BucketDelta, CriticalSegment, PathChange, PathDelta, ResourceProfile, RunDiff, RunProfile,
    TaskTypeProfile, TypeDelta,
};
pub use event::{CandidateScore, LinkKind, SchedulerDecision, TelemetryEvent};
pub use flame::to_collapsed;
pub use histogram::{Histogram, HistogramDigest};
pub use json::JsonWriter;
pub use metrics::{
    fmt_seconds, BucketHistogram, MetricsHub, MetricsRegistry, SampleRow, DEFAULT_SAMPLE_INTERVAL,
};
pub use overhead::OverheadReport;
pub use sampler::{SampleStats, SpanSampler};
pub use span::{PhaseSpan, SpanForest, SpanPhase, TaskSpans};
pub use timeline::TaskTimeline;

/// Output bytes reserved per event of the JSONL stream: `gpuflow obs
/// jsonl` writes about 110 per event for GPU matmul and kmeans runs.
const JSONL_BYTES_PER_EVENT: usize = 128;

/// The executor-side collector: a no-op unless activated, so disabled
/// runs pay a single branch per emission site.
///
/// Two independent consumers can be attached: the in-memory record
/// (trace/telemetry collection) and a live [`MetricsHub`] that folds
/// each event as it is emitted, so an HTTP scrape sees the run's
/// current state without buffering the stream.
#[derive(Debug, Clone, Default)]
pub struct EventBus {
    record: bool,
    live: Option<MetricsHub>,
    events: Vec<TelemetryEvent>,
}

impl EventBus {
    /// A bus that records events iff `record`.
    pub fn new(record: bool) -> Self {
        EventBus {
            record,
            live: None,
            events: Vec::new(),
        }
    }

    /// Attaches a live metrics hub; every emitted event is folded into
    /// it immediately.
    pub fn with_live(mut self, hub: MetricsHub) -> Self {
        self.live = Some(hub);
        self
    }

    /// Whether emissions are consumed by anything. Emission sites guard
    /// event construction on this, so a bus with no consumer allocates
    /// nothing.
    #[inline]
    pub fn active(&self) -> bool {
        self.record || self.live.is_some()
    }

    /// Emits one event: forwards to the live hub if attached, then
    /// records it (dropped when no consumer is attached).
    #[inline]
    pub fn push(&mut self, ev: TelemetryEvent) {
        if let Some(hub) = &self.live {
            hub.observe(&ev);
        }
        if self.record {
            self.events.push(ev);
        }
    }

    /// Events recorded so far.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// Seals the live hub's series, if one is attached (call at end of
    /// run, before the bus is consumed).
    pub fn finish_live(&self) {
        if let Some(hub) = &self.live {
            hub.finish();
        }
    }

    /// Consumes the bus into an immutable log.
    pub fn into_log(self) -> TelemetryLog {
        TelemetryLog::from_events(self.events)
    }
}

/// An immutable, replayable event stream from one run, with its
/// attempt index.
///
/// The index ([`TelemetryLog::timeline`]) is a function of the events,
/// built on first use and kept: two logs are equal when their events
/// are, whether or not either has built it.
#[derive(Clone, Default)]
pub struct TelemetryLog {
    events: Vec<TelemetryEvent>,
    timeline: OnceLock<TaskTimeline>,
}

impl PartialEq for TelemetryLog {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events
    }
}

impl fmt::Debug for TelemetryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryLog")
            .field("events", &self.events)
            .finish()
    }
}

impl TelemetryLog {
    /// Wraps a pre-built event sequence.
    pub fn from_events(events: Vec<TelemetryEvent>) -> Self {
        TelemetryLog {
            events,
            timeline: OnceLock::new(),
        }
    }

    /// The events, in emission order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// The log's attempt index, built on the first call and shared by
    /// every later one.
    pub fn timeline(&self) -> &TaskTimeline {
        self.timeline.get_or_init(|| TaskTimeline::from_log(self))
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the log holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The deterministic JSONL serialization of the stream: one
    /// [`TelemetryEvent::to_json`] object per line, in one buffer.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::with_capacity(JSONL_BYTES_PER_EVENT * self.len());
        for ev in &self.events {
            ev.write_json(&mut w);
            w.lit("\n");
        }
        w.finish()
    }

    /// The scheduler decisions, in dispatch order.
    pub fn decisions(&self) -> impl Iterator<Item = &SchedulerDecision> {
        self.events.iter().filter_map(|e| match e {
            TelemetryEvent::Decision(d) => Some(d),
            _ => None,
        })
    }

    /// Renders the scheduler decision log as a text table: one line per
    /// decision with the scored candidate set and the chosen node.
    pub fn render_decisions(&self) -> String {
        let mut out = String::from(
            "time_s       task   node  queue  overhead_us  host_us  candidates (node:slots/cached)\n",
        );
        for d in self.decisions() {
            let mut cands = String::new();
            for (i, c) in d.candidates.iter().enumerate() {
                if i > 0 {
                    cands.push(' ');
                }
                let _ = write!(cands, "{}:{}/{}", c.node, c.free_slots, c.cached_bytes);
            }
            let _ = writeln!(
                out,
                "{:<12.6} {:<6} {:<5} {:<6} {:<12.1} {:<8.1} {}",
                d.at.as_secs_f64(),
                d.task.0,
                d.chosen,
                d.queue_depth,
                d.sim_overhead.as_nanos() as f64 / 1e3,
                d.host_nanos as f64 / 1e3,
                cands
            );
        }
        out
    }

    /// Event counts per kind, `(kind, count)` in a fixed report order,
    /// counted in one pass over the log.
    pub fn summary_counts(&self) -> Vec<(&'static str, usize)> {
        let mut counts = [0usize; TelemetryEvent::KINDS.len()];
        for e in &self.events {
            counts[e.kind_index()] += 1;
        }
        TelemetryEvent::KINDS.into_iter().zip(counts).collect()
    }

    /// Event counts per kind, in a fixed report order.
    pub fn summary(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "telemetry events: {}", self.len());
        for (kind, n) in self.summary_counts() {
            let _ = writeln!(out, "  {kind:<10} {n}");
        }
        out
    }

    /// Machine-readable counterpart of [`TelemetryLog::summary`]: a
    /// single deterministic JSON object, `{"events": N, "kinds":
    /// {"ready": N, ...}}` with kinds in the fixed report order.
    pub fn summary_json(&self) -> String {
        let mut w = JsonWriter::default();
        w.begin("{").field("events", self.len() as u64);
        w.key("kinds").begin("{");
        for (kind, n) in self.summary_counts() {
            w.field(kind, n as u64);
        }
        w.end("}").end("}");
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskId;
    use gpuflow_sim::SimTime;

    fn ready(task: u32) -> TelemetryEvent {
        TelemetryEvent::TaskReady {
            at: SimTime::ZERO,
            task: TaskId(task),
        }
    }

    #[test]
    fn inactive_bus_drops_events() {
        let mut bus = EventBus::new(false);
        assert!(!bus.active());
        bus.push(ready(0));
        assert!(bus.into_log().is_empty());
    }

    #[test]
    fn active_bus_preserves_order() {
        let mut bus = EventBus::new(true);
        bus.push(ready(2));
        bus.push(ready(1));
        let log = bus.into_log();
        assert_eq!(log.len(), 2);
        assert!(matches!(
            log.events()[0],
            TelemetryEvent::TaskReady {
                task: TaskId(2),
                ..
            }
        ));
    }

    #[test]
    fn jsonl_replay_round_trips_counts() {
        let mut bus = EventBus::new(true);
        bus.push(ready(0));
        bus.push(ready(1));
        let log = bus.into_log();
        assert_eq!(log.to_jsonl().lines().count(), log.len());
    }

    #[test]
    fn summary_counts_kinds() {
        let log = TelemetryLog::from_events(vec![ready(0), ready(1)]);
        let s = log.summary();
        assert!(s.contains("telemetry events: 2"));
        assert!(s.contains("ready      2"));
        assert!(s.contains("failed     0"), "fault kinds listed: {s}");
    }

    #[test]
    fn summary_json_matches_text_counts() {
        let log = TelemetryLog::from_events(vec![ready(0), ready(1)]);
        let json = log.summary_json();
        assert!(json.starts_with("{\"events\":2,\"kinds\":{"));
        assert!(json.contains("\"ready\":2"));
        assert!(json.contains("\"invalidate\":0"));
        assert!(json.ends_with("}}"));
        // Every kind in the text summary appears in the JSON.
        for (kind, _) in log.summary_counts() {
            assert!(json.contains(&format!("\"{kind}\":")));
        }
    }

    #[test]
    fn the_log_builds_its_timeline_once() {
        let log = TelemetryLog::from_events(vec![ready(0), ready(1)]);
        assert!(std::ptr::eq(log.timeline(), log.timeline()));
        assert_eq!(log.timeline().first_seen(TaskId(1)), Some(SimTime::ZERO));
    }

    #[test]
    fn equality_ignores_whether_the_timeline_is_built() {
        let log = TelemetryLog::from_events(vec![ready(0), ready(1)]);
        let copy = log.clone();
        assert_eq!(copy, log);
        log.timeline();
        assert_eq!(copy, log, "built on one side only");
        assert_eq!(log.clone(), log, "built on both sides");
        assert_ne!(TelemetryLog::from_events(vec![ready(0)]), log);
        assert_eq!(format!("{log:?}"), format!("{copy:?}"));
    }

    #[test]
    fn decision_log_renders_header_even_when_empty() {
        let log = TelemetryLog::default();
        assert!(log.render_decisions().starts_with("time_s"));
        assert_eq!(log.decisions().count(), 0);
    }
}
