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
pub use event::{CandidateScore, Candidates, LinkKind, SchedulerDecision, TelemetryEvent};
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
    candidates: Vec<CandidateScore>,
    kinds: [usize; TelemetryEvent::KINDS.len()],
}

impl EventBus {
    /// A bus that records events iff `record`.
    pub fn new(record: bool) -> Self {
        EventBus {
            record,
            ..EventBus::default()
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
    /// records it (dropped when no consumer is attached). A decision
    /// pushed here is recorded with no candidates; see
    /// [`EventBus::decide`].
    #[inline]
    pub fn push(&mut self, mut ev: TelemetryEvent) {
        if let TelemetryEvent::Decision(d) = &mut ev {
            d.candidates = Candidates::default();
        }
        self.emit(ev);
    }

    /// Emits a decision with its scored candidates: the scores are
    /// appended to the log's candidate arena (when recording) and
    /// `decision.candidates` is set to count them, so a decision
    /// allocates nothing of its own.
    pub fn decide(
        &mut self,
        mut decision: SchedulerDecision,
        candidates: impl IntoIterator<Item = CandidateScore>,
    ) {
        let start = self.candidates.len();
        if self.record {
            self.candidates.extend(candidates);
        }
        decision.candidates = Candidates::new(self.candidates.len() - start);
        self.emit(TelemetryEvent::Decision(decision));
    }

    #[inline]
    fn emit(&mut self, ev: TelemetryEvent) {
        if let Some(hub) = &self.live {
            hub.observe(&ev);
        }
        if self.record {
            self.kinds[ev.kind_index()] += 1;
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
        TelemetryLog {
            events: self.events,
            candidates: self.candidates,
            kinds: self.kinds,
            timeline: OnceLock::new(),
        }
    }
}

/// An immutable, replayable event stream from one run, with its
/// scored candidates, its per-kind counts and its attempt index.
///
/// Every decision's candidate scores sit in one arena, decision after
/// decision in log order; a decision's [`Candidates`] handle holds only
/// their count, so [`TelemetryLog::scored`] and
/// [`TelemetryLog::decisions`] pair each decision with its slice by
/// walking the log. The counts per kind are kept as events are
/// recorded. The index ([`TelemetryLog::timeline`]) is a function of
/// the events, built on first use and kept: two logs are equal when
/// their events and candidates are, whether or not either has built it.
#[derive(Clone, Default)]
pub struct TelemetryLog {
    events: Vec<TelemetryEvent>,
    candidates: Vec<CandidateScore>,
    /// Events per kind, in [`TelemetryEvent::KINDS`] order.
    kinds: [usize; TelemetryEvent::KINDS.len()],
    timeline: OnceLock<TaskTimeline>,
}

impl PartialEq for TelemetryLog {
    fn eq(&self, other: &Self) -> bool {
        self.events == other.events && self.candidates == other.candidates
    }
}

impl fmt::Debug for TelemetryLog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TelemetryLog")
            .field("events", &self.events)
            .field("candidates", &self.candidates)
            .finish()
    }
}

impl TelemetryLog {
    /// Wraps a pre-built event sequence. The log's candidate arena is
    /// empty, so every decision is kept with its count set to none
    /// (record decisions with their scores through
    /// [`EventBus::decide`]).
    pub fn from_events(mut events: Vec<TelemetryEvent>) -> Self {
        let mut kinds = [0; TelemetryEvent::KINDS.len()];
        for ev in &mut events {
            if let TelemetryEvent::Decision(d) = ev {
                d.candidates = Candidates::default();
            }
            kinds[ev.kind_index()] += 1;
        }
        TelemetryLog {
            events,
            kinds,
            ..TelemetryLog::default()
        }
    }

    /// The events, in emission order.
    pub fn events(&self) -> &[TelemetryEvent] {
        &self.events
    }

    /// The events in emission order, each with its scored candidates:
    /// a decision's slice of the arena, and an empty slice for every
    /// other event.
    pub fn scored(&self) -> impl Iterator<Item = (&TelemetryEvent, &[CandidateScore])> {
        let mut rest = self.candidates.as_slice();
        self.events.iter().map(move |ev| {
            let n = match ev {
                TelemetryEvent::Decision(d) => d.candidates.len(),
                _ => 0,
            };
            let (mine, after) = rest.split_at(n);
            rest = after;
            (ev, mine)
        })
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

    /// Number of events of the kind at `kind` in
    /// [`TelemetryEvent::KINDS`] (see its named indices).
    pub(crate) fn count(&self, kind: usize) -> usize {
        self.kinds[kind]
    }

    /// The deterministic JSONL serialization of the stream: one
    /// [`TelemetryEvent::to_json`] object per line, in one buffer.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::with_capacity(JSONL_BYTES_PER_EVENT * self.len());
        for (ev, candidates) in self.scored() {
            ev.write_json(candidates, &mut w);
            w.lit("\n");
        }
        w.finish()
    }

    /// The scheduler decisions, in dispatch order, each with its scored
    /// candidates.
    pub fn decisions(&self) -> impl Iterator<Item = (&SchedulerDecision, &[CandidateScore])> {
        self.scored().filter_map(|(ev, candidates)| match ev {
            TelemetryEvent::Decision(d) => Some((d, candidates)),
            _ => None,
        })
    }

    /// Renders the scheduler decision log as a text table: one line per
    /// decision with the scored candidate set and the chosen node.
    pub fn render_decisions(&self) -> String {
        let mut out = String::from(
            "time_s       task   node  queue  overhead_us  host_us  candidates (node:slots/cached)\n",
        );
        for (d, candidates) in self.decisions() {
            let mut cands = String::new();
            for (i, c) in candidates.iter().enumerate() {
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
    /// as counted while the events were recorded.
    pub fn summary_counts(&self) -> Vec<(&'static str, usize)> {
        TelemetryEvent::KINDS.into_iter().zip(self.kinds).collect()
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

    /// A log of one decision over two nodes whose second candidate
    /// caches `cached` bytes.
    fn one_decision(cached: u64) -> TelemetryLog {
        let mut bus = EventBus::new(true);
        bus.push(ready(0));
        let decision = SchedulerDecision {
            at: SimTime::ZERO,
            task: TaskId(0),
            chosen: 1,
            queue_depth: 1,
            sim_overhead: gpuflow_sim::SimDuration::from_nanos(5),
            host_nanos: 7,
            candidates: Candidates::default(),
        };
        let score = |node, cached_bytes| CandidateScore {
            node,
            free_slots: 1,
            cached_bytes,
        };
        bus.decide(decision, [score(0, 0), score(1, cached)]);
        bus.push(ready(1));
        bus.into_log()
    }

    #[test]
    fn logs_differing_in_one_candidate_are_unequal() {
        let (a, b) = (one_decision(64), one_decision(65));
        assert_eq!(a.events(), b.events(), "the events carry only the count");
        assert_ne!(a, b);
        assert_ne!(a.to_jsonl(), b.to_jsonl());
        assert_ne!(format!("{a:?}"), format!("{b:?}"));
        assert_eq!(a, one_decision(64));
    }

    #[test]
    fn decisions_pair_with_their_own_candidates() {
        let mut bus = EventBus::new(true);
        let decision = |task| SchedulerDecision {
            at: SimTime::ZERO,
            task: TaskId(task),
            chosen: 0,
            queue_depth: 1,
            sim_overhead: gpuflow_sim::SimDuration::ZERO,
            host_nanos: 0,
            candidates: Candidates::default(),
        };
        let score = |node| CandidateScore {
            node,
            free_slots: 0,
            cached_bytes: u64::from(node),
        };
        bus.decide(decision(0), [score(0), score(1)]);
        bus.push(ready(0));
        // Pushed without candidates: recorded with none.
        bus.push(TelemetryEvent::Decision(decision(1)));
        bus.decide(decision(2), [score(2)]);
        let log = bus.into_log();
        let paired: Vec<(u32, Vec<u32>)> = log
            .decisions()
            .map(|(d, c)| (d.task.0, c.iter().map(|s| s.node).collect()))
            .collect();
        assert_eq!(paired, vec![(0, vec![0, 1]), (1, vec![]), (2, vec![2])]);
        let counts: Vec<usize> = log.decisions().map(|(d, _)| d.candidates.len()).collect();
        assert_eq!(counts, vec![2, 0, 1]);
        assert_eq!(log.scored().map(|(_, c)| c.len()).sum::<usize>(), 3);
        let table = log.render_decisions();
        let first = table.lines().nth(1).expect("a row per decision");
        assert!(first.ends_with("0:0/0 1:0/1"), "{table}");
    }

    #[test]
    fn a_log_of_copied_events_keeps_no_candidates() {
        let copy = TelemetryLog::from_events(one_decision(64).events().to_vec());
        let (d, candidates) = copy.decisions().next().expect("one decision");
        assert!(d.candidates.is_empty() && candidates.is_empty());
        assert_eq!(copy.to_jsonl().lines().count(), 3);
    }

    #[test]
    fn counts_per_kind_follow_the_recorded_events() {
        let log = one_decision(0);
        let scanned = |kind: &str| log.events().iter().filter(|e| e.kind() == kind).count();
        for (kind, n) in log.summary_counts() {
            assert_eq!(n, scanned(kind), "{kind}");
        }
        assert_eq!(log.count(TelemetryEvent::DECISION), 1);
        let copy = TelemetryLog::from_events(log.events().to_vec());
        assert_eq!(copy.summary_counts(), log.summary_counts());
    }

    #[test]
    fn decision_log_renders_header_even_when_empty() {
        let log = TelemetryLog::default();
        assert!(log.render_decisions().starts_with("time_s"));
        assert_eq!(log.decisions().count(), 0);
    }
}
