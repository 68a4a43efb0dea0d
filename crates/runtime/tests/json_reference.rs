//! Byte identity of the runtime's JSON emitters against `core::fmt`
//! references.
//!
//! This file keeps the formatter-based bodies of the JSONL event
//! stream, the log summary, the OTLP span export, the span summary and
//! the run diff, as they were before the emitters moved onto the byte
//! writer. Each emitter must render the same bytes as its reference on
//! random inputs (the logs of `chrome_reference.rs`, whose task types
//! need JSON escapes, and random span forests and diffs) and on two
//! real runs, one of them faulted.

mod support;

use std::fmt::{self, Write as _};

use gpuflow_chaos::mix64;
use gpuflow_runtime::{
    BucketDelta, CandidateScore, PathChange, PathDelta, PhaseSpan, RunDiff, RunProfile, SpanForest,
    SpanPhase, TaskId, TaskSpans, TelemetryEvent, TelemetryLog, TypeDelta,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use support::{extreme, instant, pick, JsonStr, Logs, TASK_TYPES};

// ---------------------------------------------------------------------
// The references: the formatter-based emitters the byte writer replaced.
// ---------------------------------------------------------------------

struct OptNum(Option<u16>);

impl fmt::Display for OptNum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v}"),
            None => write!(f, "null"),
        }
    }
}

struct OptUsize(Option<usize>);

impl fmt::Display for OptUsize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Some(v) => write!(f, "{v}"),
            None => write!(f, "null"),
        }
    }
}

fn reference_event_json(ev: &TelemetryEvent, candidates: &[CandidateScore]) -> String {
    let mut s = String::with_capacity(96);
    match ev {
        TelemetryEvent::TaskReady { at, task } => {
            let _ = write!(
                s,
                "{{\"ev\":\"ready\",\"t\":{},\"task\":{}}}",
                at.as_nanos(),
                task.0
            );
        }
        TelemetryEvent::Decision(d) => {
            let _ = write!(
                s,
                "{{\"ev\":\"decision\",\"t\":{},\"task\":{},\"node\":{},\"queue_depth\":{},\"overhead_ns\":{},\"candidates\":[",
                d.at.as_nanos(),
                d.task.0,
                d.chosen,
                d.queue_depth,
                d.sim_overhead.as_nanos()
            );
            for (i, c) in candidates.iter().enumerate() {
                let sep = if i == 0 { "" } else { "," };
                let _ = write!(
                    s,
                    "{sep}{{\"node\":{},\"free_slots\":{},\"cached_bytes\":{}}}",
                    c.node, c.free_slots, c.cached_bytes
                );
            }
            s.push_str("]}");
        }
        TelemetryEvent::TaskDispatched {
            at,
            task,
            task_type,
            node,
            core,
            cores,
            gpu,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"dispatch\",\"t\":{},\"task\":{},\"type\":\"{}\",\"node\":{},\"core\":{},\"cores\":{},\"gpu\":{}}}",
                at.as_nanos(),
                task.0,
                JsonStr(task_type),
                node,
                core,
                cores,
                OptNum(*gpu)
            );
        }
        TelemetryEvent::Stage {
            task,
            node,
            core,
            gpu,
            state,
            t0,
            t1,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"stage\",\"task\":{},\"node\":{},\"core\":{},\"gpu\":{},\"state\":\"{}\",\"t0\":{},\"t1\":{}}}",
                task.0,
                node,
                core,
                OptNum(*gpu),
                state.label(),
                t0.as_nanos(),
                t1.as_nanos()
            );
        }
        TelemetryEvent::Transfer {
            task,
            node,
            link,
            bytes,
            t0,
            t1,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"transfer\",\"task\":{},\"node\":{},\"link\":\"{}\",\"bytes\":{},\"t0\":{},\"t1\":{}}}",
                task.0,
                node,
                link.label(),
                bytes,
                t0.as_nanos(),
                t1.as_nanos()
            );
        }
        TelemetryEvent::CacheAccess {
            at,
            node,
            task,
            key,
            hit,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"cache\",\"t\":{},\"node\":{},\"task\":{},\"data\":{},\"version\":{},\"hit\":{}}}",
                at.as_nanos(),
                node,
                task.0,
                key.id.0,
                key.version,
                hit
            );
        }
        TelemetryEvent::CacheEvicted { at, node, count } => {
            let _ = write!(
                s,
                "{{\"ev\":\"evict\",\"t\":{},\"node\":{},\"count\":{}}}",
                at.as_nanos(),
                node,
                count
            );
        }
        TelemetryEvent::NodeGauge {
            at,
            node,
            ram_used,
            busy_cores,
            busy_gpus,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"gauge\",\"t\":{},\"node\":{},\"ram\":{},\"busy_cores\":{},\"busy_gpus\":{}}}",
                at.as_nanos(),
                node,
                ram_used,
                busy_cores,
                busy_gpus
            );
        }
        TelemetryEvent::TaskCompleted { at, task, node } => {
            let _ = write!(
                s,
                "{{\"ev\":\"complete\",\"t\":{},\"task\":{},\"node\":{}}}",
                at.as_nanos(),
                task.0,
                node
            );
        }
        TelemetryEvent::FaultInjected { at, node, what } => {
            let _ = write!(
                s,
                "{{\"ev\":\"fault\",\"t\":{},\"node\":{},\"what\":\"{}\"}}",
                at.as_nanos(),
                OptUsize(node.map(|n| n as usize)),
                what
            );
        }
        TelemetryEvent::TaskFailed {
            at,
            task,
            node,
            attempt,
            started,
            reason,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"failed\",\"t\":{},\"task\":{},\"node\":{},\"attempt\":{},\"started\":{},\"reason\":\"{}\"}}",
                at.as_nanos(),
                task.0,
                node,
                attempt,
                started.as_nanos(),
                reason
            );
        }
        TelemetryEvent::TaskRetry {
            at,
            task,
            attempt,
            until,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"retry\",\"t\":{},\"task\":{},\"attempt\":{},\"until\":{}}}",
                at.as_nanos(),
                task.0,
                attempt,
                until.as_nanos()
            );
        }
        TelemetryEvent::TaskResubmitted {
            at,
            task,
            from_node,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"resubmit\",\"t\":{},\"task\":{},\"from_node\":{}}}",
                at.as_nanos(),
                task.0,
                from_node
            );
        }
        TelemetryEvent::NodeDown { at, node } => {
            let _ = write!(
                s,
                "{{\"ev\":\"node-down\",\"t\":{},\"node\":{}}}",
                at.as_nanos(),
                node
            );
        }
        TelemetryEvent::NodeUp { at, node } => {
            let _ = write!(
                s,
                "{{\"ev\":\"node-up\",\"t\":{},\"node\":{}}}",
                at.as_nanos(),
                node
            );
        }
        TelemetryEvent::BlocksInvalidated {
            at,
            node,
            count,
            lost_versions,
        } => {
            let _ = write!(
                s,
                "{{\"ev\":\"invalidate\",\"t\":{},\"node\":{},\"count\":{},\"lost_versions\":{}}}",
                at.as_nanos(),
                node,
                count,
                lost_versions
            );
        }
    }
    s
}

fn reference_jsonl(log: &TelemetryLog) -> String {
    let mut out = String::new();
    for (ev, candidates) in log.scored() {
        out.push_str(&reference_event_json(ev, candidates));
        out.push('\n');
    }
    out
}

fn reference_log_summary_json(log: &TelemetryLog) -> String {
    let mut out = String::from("{\"events\":");
    let _ = write!(out, "{}", log.len());
    out.push_str(",\"kinds\":{");
    for (i, (kind, n)) in log.summary_counts().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\"{kind}\":{n}");
    }
    out.push_str("}}");
    out
}

const SPAN_ID_SEED: u64 = 0x5A5A_D00D_5EED_0001;

struct Attr<T>(&'static str, T);

impl<T: fmt::Display> fmt::Display for Attr<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Attr(key, value) = self;
        write!(
            f,
            "{{\"key\":\"{key}\",\"value\":{{\"stringValue\":\"{value}\"}}}}"
        )
    }
}

fn reference_otlp_json(forest: &SpanForest) -> String {
    let trace_id = {
        let a = mix64(SPAN_ID_SEED);
        let b = mix64(SPAN_ID_SEED ^ 0xFF);
        format!("{a:016x}{b:016x}")
    };
    let mut spans = String::new();
    let mut span = |id: u64,
                    parent: Option<u64>,
                    name: fmt::Arguments<'_>,
                    (t0, t1): (u64, u64),
                    attrs: fmt::Arguments<'_>| {
        if !spans.is_empty() {
            spans.push(',');
        }
        let _ = write!(
            spans,
            "{{\"traceId\":\"{trace_id}\",\"spanId\":\"{id:016x}\","
        );
        if let Some(p) = parent {
            let _ = write!(spans, "\"parentSpanId\":\"{p:016x}\",");
        }
        let _ = write!(
            spans,
            "\"name\":\"{name}\",\"kind\":1,\"startTimeUnixNano\":\"{t0}\",\
             \"endTimeUnixNano\":\"{t1}\",\"attributes\":[{attrs}]}}"
        );
    };
    for t in &forest.tasks {
        let root = SpanForest::root_span_id(t.task);
        span(
            root,
            t.causal_parent.map(SpanForest::root_span_id),
            format_args!("task/{}", JsonStr(&t.task_type)),
            (t.start_ns, t.end_ns),
            format_args!(
                "{},{},{},{}",
                Attr("gpuflow.task", t.task.0),
                Attr("gpuflow.node", t.node),
                Attr("gpuflow.attempts", t.attempts() + 1),
                Attr("gpuflow.critical_path", t.on_critical_path)
            ),
        );
        for (i, p) in t.phases.iter().enumerate() {
            span(
                mix64(root ^ (i as u64 + 1)),
                Some(root),
                format_args!("{}", p.phase.label()),
                (p.t0_ns, p.t1_ns),
                format_args!("{}", Attr("gpuflow.attempt", p.attempt)),
            );
        }
    }
    format!(
        "{{\"resourceSpans\":[{{\"resource\":{{\"attributes\":[{{\"key\":\"service.name\",\
         \"value\":{{\"stringValue\":\"gpuflow\"}}}}]}},\"scopeSpans\":[{{\"scope\":\
         {{\"name\":\"gpuflow.telemetry.span\"}},\"spans\":[{spans}]}}]}}]}}\n"
    )
}

fn reference_span_summary_json(forest: &SpanForest) -> String {
    let critical = forest.tasks.iter().filter(|t| t.on_critical_path).count();
    let retries: u64 = forest.tasks.iter().map(|t| t.attempts() as u64).sum();
    let mut o = String::from("{");
    let _ = write!(
        o,
        "\"tasks\":{},\"spans\":{},\"critical_path_tasks\":{critical},\"retries\":{retries}",
        forest.tasks.len(),
        forest.span_count()
    );
    o.push_str(",\"phase_ns\":{");
    for (i, phase) in SpanPhase::ALL.iter().enumerate() {
        let total: u64 = forest.tasks.iter().map(|t| t.phase_total_ns(*phase)).sum();
        if i > 0 {
            o.push(',');
        }
        let _ = write!(o, "\"{}\":{total}", phase.label());
    }
    o.push_str("}}");
    o
}

fn reference_diff_json(d: &RunDiff) -> String {
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "{{\"a\":\"{}\",\"b\":\"{}\",\"a_makespan_ns\":{},\"b_makespan_ns\":{},\"delta_ns\":{},\"conservative\":{},\"blame\":[",
        JsonStr(&d.a_label),
        JsonStr(&d.b_label),
        d.a_makespan_ns,
        d.b_makespan_ns,
        d.makespan_delta_ns(),
        d.is_conservative(),
    );
    for (i, b) in d.blame.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}{{\"bucket\":\"{}\",\"a_ns\":{},\"b_ns\":{},\"delta_ns\":{}}}",
            b.name,
            b.a_ns,
            b.b_ns,
            b.delta_ns()
        );
    }
    s.push_str("],\"types\":[");
    for (i, t) in d.types.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}{{\"type\":\"{}\",\"a_count\":{},\"b_count\":{},\"a_sum_ns\":{},\"b_sum_ns\":{},\"delta_ns\":{}}}",
            JsonStr(&t.name),
            t.a_count,
            t.b_count,
            t.a_sum_ns,
            t.b_sum_ns,
            t.delta_ns()
        );
    }
    s.push_str("],\"path\":[");
    for (i, p) in d.path.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}{{\"type\":\"{}\",\"a_hops\":{},\"b_hops\":{},\"a_span_ns\":{},\"b_span_ns\":{},\"change\":\"{}\"}}",
            JsonStr(&p.task_type),
            p.a_hops,
            p.b_hops,
            p.a_span_ns,
            p.b_span_ns,
            p.change.label()
        );
    }
    s.push_str("],\"factor_changes\":[");
    for (i, (k, a, b)) in d.factor_changes.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            s,
            "{sep}{{\"factor\":\"{}\",\"a\":\"{}\",\"b\":\"{}\"}}",
            JsonStr(k),
            JsonStr(a),
            JsonStr(b)
        );
    }
    s.push_str("]}");
    s
}

// ---------------------------------------------------------------------
// Random span forests and diffs.
// ---------------------------------------------------------------------

/// A forest of up to 8 task trees with escape-needing type names,
/// extreme ids, nodes and parents, and up to 6 phases each.
struct Forests;

impl Strategy for Forests {
    type Value = SpanForest;

    fn sample(&self, rng: &mut StdRng) -> SpanForest {
        let tasks = (0..rng.gen_range(0..8usize))
            .map(|_| {
                let phases = (0..rng.gen_range(0..6usize))
                    .map(|_| {
                        let (a, b) = (instant(rng).as_nanos(), instant(rng).as_nanos());
                        PhaseSpan {
                            phase: pick(rng, &SpanPhase::ALL),
                            t0_ns: a.min(b),
                            t1_ns: a.max(b),
                            attempt: rng.gen_range(0..4u32),
                        }
                    })
                    .collect();
                TaskSpans {
                    task: TaskId(extreme(rng) as u32),
                    task_type: pick(rng, &TASK_TYPES).to_string(),
                    node: extreme(rng) as usize,
                    phases,
                    start_ns: extreme(rng),
                    end_ns: extreme(rng),
                    causal_parent: rng.gen::<bool>().then(|| TaskId(extreme(rng) as u32)),
                    on_critical_path: rng.gen(),
                }
            })
            .collect();
        SpanForest { tasks }
    }
}

const BUCKETS: [&str; 5] = ["compute", "data_movement", "recovery", "master", "idle"];
const CHANGES: [PathChange; 5] = [
    PathChange::Appeared,
    PathChange::Disappeared,
    PathChange::Stretched,
    PathChange::Shrunk,
    PathChange::Steady,
];

/// A diff with escape-needing labels, type names and factors, and
/// extreme counts, sums and buckets.
struct Diffs;

impl Strategy for Diffs {
    type Value = RunDiff;

    fn sample(&self, rng: &mut StdRng) -> RunDiff {
        let text = |rng: &mut StdRng| pick(rng, &TASK_TYPES).to_string();
        RunDiff {
            a_label: text(rng),
            b_label: text(rng),
            a_makespan_ns: extreme(rng),
            b_makespan_ns: extreme(rng),
            blame: (0..rng.gen_range(0..6usize))
                .map(|_| BucketDelta {
                    name: pick(rng, &BUCKETS),
                    a_ns: extreme(rng),
                    b_ns: extreme(rng),
                })
                .collect(),
            types: (0..rng.gen_range(0..4usize))
                .map(|_| TypeDelta {
                    name: text(rng),
                    a_count: extreme(rng),
                    b_count: extreme(rng),
                    a_sum_ns: extreme(rng),
                    b_sum_ns: extreme(rng),
                    a_p50_ns: extreme(rng),
                    b_p50_ns: extreme(rng),
                    stages: Vec::new(),
                })
                .collect(),
            path: (0..rng.gen_range(0..4usize))
                .map(|_| PathDelta {
                    task_type: text(rng),
                    a_hops: extreme(rng),
                    a_span_ns: extreme(rng),
                    b_hops: extreme(rng),
                    b_span_ns: extreme(rng),
                    change: pick(rng, &CHANGES),
                })
                .collect(),
            factor_changes: (0..rng.gen_range(0..4usize))
                .map(|_| (text(rng), text(rng), text(rng)))
                .collect(),
        }
    }
}

// ---------------------------------------------------------------------
// The comparisons.
// ---------------------------------------------------------------------

fn assert_same(what: &str, actual: &str, expected: &str) {
    assert!(
        actual == expected,
        "{what} differs from its reference\n--- actual ---\n{actual}\n--- reference ---\n{expected}"
    );
}

fn assert_log_matches(log: &TelemetryLog) {
    for (ev, candidates) in log.scored() {
        assert_same(
            "event JSON",
            &ev.to_json(candidates),
            &reference_event_json(ev, candidates),
        );
    }
    assert_same("JSONL", &log.to_jsonl(), &reference_jsonl(log));
    assert_same(
        "log summary JSON",
        &log.summary_json(),
        &reference_log_summary_json(log),
    );
}

fn assert_forest_matches(forest: &SpanForest) {
    assert_same(
        "OTLP JSON",
        &forest.to_otlp_json(),
        &reference_otlp_json(forest),
    );
    assert_same(
        "span summary JSON",
        &forest.summary_json(),
        &reference_span_summary_json(forest),
    );
}

proptest! {
    #[test]
    fn event_stream_matches_the_fmt_reference(log in Logs) {
        assert_log_matches(&log);
    }

    #[test]
    fn span_exports_match_the_fmt_reference(forest in Forests) {
        assert_forest_matches(&forest);
    }

    #[test]
    fn diff_json_matches_the_fmt_reference(diff in Diffs) {
        assert_same("diff JSON", &diff.to_json(), &reference_diff_json(&diff));
    }
}

#[test]
fn every_variant_and_extreme_matches_the_reference() {
    assert_log_matches(&TelemetryLog::default());
    assert_log_matches(&support::every_variant());
    assert_forest_matches(&SpanForest::default());
}

/// The fault-free and the faulted run: their event streams, span
/// forests and the diffs between their profiles, both ways.
#[test]
fn real_runs_match_the_reference() {
    let (wf, runs) = support::real_runs();
    let mut profiles = Vec::new();
    for (label, report) in ["plain", "faulted"].into_iter().zip(&runs) {
        let log = &report.telemetry;
        assert_log_matches(log);
        assert_forest_matches(&SpanForest::from_telemetry(&wf, log));
        let profile = RunProfile::from_telemetry(label, &wf, log, report.makespan());
        profiles.push(profile.expect("profile folds"));
    }
    for (a, b) in [(0, 1), (1, 0), (0, 0)] {
        let diff = RunDiff::compare(&profiles[a], &profiles[b]);
        assert_same("diff JSON", &diff.to_json(), &reference_diff_json(&diff));
    }
}
