//! Byte identity of the Chrome export against a `core::fmt` reference.
//!
//! `to_chrome_trace` writes its records through a byte writer of its
//! own. This file keeps the formatter-based exporter it replaced, and a
//! property requires both to render the same bytes for random logs that
//! cover every event variant, task types that need JSON escapes, instants
//! on every nanosecond-remainder edge, several nodes and GPUs, and tasks
//! completed without a dispatch.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::{self, Display, Write as _};

use gpuflow_runtime::{
    to_chrome_trace, CandidateScore, Candidates, DataId, DataVersion, EventBus, LinkKind,
    SchedulerDecision, TaskId, TaskType, TelemetryEvent, TelemetryLog, TraceState,
};
use gpuflow_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

// ---------------------------------------------------------------------
// The reference: the formatter-based exporter the byte writer replaced.
// ---------------------------------------------------------------------

/// JSON string content with `"`, `\` and control characters escaped.
struct JsonStr<'a>(&'a str);

impl Display for JsonStr<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for c in self.0.chars() {
            match c {
                '"' => f.write_str("\\\"")?,
                '\\' => f.write_str("\\\\")?,
                '\n' => f.write_str("\\n")?,
                '\r' => f.write_str("\\r")?,
                '\t' => f.write_str("\\t")?,
                c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                c => f.write_char(c)?,
            }
        }
        Ok(())
    }
}

fn gpu_tid(g: u16) -> u32 {
    1000 + g as u32
}

struct Us(u64);

impl Display for Us {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{:03}", self.0 / 1000, self.0 % 1000)
    }
}

struct Records {
    out: String,
    empty: bool,
}

impl Records {
    fn next(&mut self) -> &mut String {
        if !self.empty {
            self.out.push_str(",\n");
        }
        self.empty = false;
        &mut self.out
    }

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

    fn counter(&mut self, name: &str, pid: usize, at_ns: u64, args: fmt::Arguments<'_>) {
        let _ = write!(
            self.next(),
            "{{\"name\":\"{name}\",\"ph\":\"C\",\"pid\":{pid},\"tid\":0,\"ts\":{},\"args\":{{{args}}}}}",
            Us(at_ns)
        );
    }

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

fn reference_chrome_trace(log: &TelemetryLog) -> String {
    let mut tracks: BTreeSet<(usize, u32)> = BTreeSet::new();
    let mut task_types: Vec<Option<&TaskType>> = Vec::new();
    let mut max_node = 0usize;
    for ev in log.events() {
        match ev {
            TelemetryEvent::Stage {
                node, core, gpu, ..
            } => {
                max_node = max_node.max(*node as usize);
                tracks.insert((*node as usize, *core as u32));
                if let Some(g) = gpu {
                    tracks.insert((*node as usize, gpu_tid(*g)));
                }
            }
            TelemetryEvent::TaskDispatched {
                task,
                task_type,
                node,
                ..
            } => {
                max_node = max_node.max(*node as usize);
                let i = task.0 as usize;
                if i >= task_types.len() {
                    task_types.resize(i + 1, None);
                }
                task_types[i] = Some(task_type);
            }
            TelemetryEvent::NodeGauge { node, .. } => max_node = max_node.max(*node as usize),
            TelemetryEvent::FaultInjected {
                node: Some(node), ..
            }
            | TelemetryEvent::TaskFailed { node, .. }
            | TelemetryEvent::NodeDown { node, .. }
            | TelemetryEvent::NodeUp { node, .. }
            | TelemetryEvent::BlocksInvalidated { node, .. } => {
                max_node = max_node.max(*node as usize)
            }
            _ => {}
        }
    }
    let master_pid = max_node + 1;
    let type_of = |task: u32| task_types.get(task as usize).copied().flatten();

    let mut recs = Records {
        out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
        empty: true,
    };
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
                    (*node as usize, tid),
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
                recs.task_span('b', type_of(task.0), task.0, *node as usize, at.as_nanos());
            }
            TelemetryEvent::TaskCompleted { at, task, node } => {
                recs.task_span('e', type_of(task.0), task.0, *node as usize, at.as_nanos());
            }
            TelemetryEvent::NodeGauge {
                at,
                node,
                ram_used,
                busy_cores,
                busy_gpus,
            } => {
                node_busy_cores.insert(*node as usize, *busy_cores as usize);
                node_busy_gpus.insert(*node as usize, *busy_gpus as usize);
                let at = at.as_nanos();
                recs.counter(
                    "ram_bytes",
                    *node as usize,
                    at,
                    format_args!("\"bytes\":{ram_used}"),
                );
                let cores: usize = node_busy_cores.values().sum();
                let gpus: usize = node_busy_gpus.values().sum();
                let args = format_args!("\"cores\":{cores},\"gpus\":{gpus}");
                recs.counter("cluster_busy", master_pid, at, args);
            }
            TelemetryEvent::FaultInjected { at, node, what } => {
                let pid = node.map_or(master_pid, |n| n as usize);
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
                *node as usize,
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
                recs.instant("node down", "fault", *node as usize, at.as_nanos(), None);
            }
            TelemetryEvent::NodeUp { at, node } => {
                recs.instant("node up", "fault", *node as usize, at.as_nanos(), None);
            }
            TelemetryEvent::BlocksInvalidated {
                at,
                node,
                count,
                lost_versions,
            } => recs.instant(
                "blocks invalidated",
                "fault",
                *node as usize,
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

// ---------------------------------------------------------------------
// Random logs.
// ---------------------------------------------------------------------

/// Task types: plain, every escape `JsonStr` applies, and non-ASCII.
const TASK_TYPES: [&str; 8] = [
    "map",
    "say \"hi\"",
    "back\\slash",
    "two\nlines",
    "cr\r tab\t",
    "ctl\u{1}\u{1f}",
    "κ-means ✓",
    "",
];

const FAULTS: [&str; 3] = ["node-crash", "node-rejoin", "gpu-failure"];
const REASONS: [&str; 3] = ["transient", "node-crash", "gpu-failure"];
const STATES: [TraceState; 5] = [
    TraceState::Deserialize,
    TraceState::SerialFraction,
    TraceState::ParallelFraction,
    TraceState::CpuGpuComm,
    TraceState::Serialize,
];
const LINKS: [LinkKind; 4] = [
    LinkKind::StorageRead,
    LinkKind::StorageWrite,
    LinkKind::HostToDevice,
    LinkKind::DeviceToHost,
];

/// A log of up to 40 events drawn from every variant over four nodes,
/// three GPUs and 12 task ids (dispatch and completion drawn
/// independently, so some tasks complete without a dispatch), recorded
/// through an [`EventBus`] so decisions keep their candidates.
struct Logs;

impl Strategy for Logs {
    type Value = TelemetryLog;

    fn sample(&self, rng: &mut StdRng) -> TelemetryLog {
        let len = rng.gen_range(0..40usize);
        let mut bus = EventBus::new(true);
        for _ in 0..len {
            record(rng, &mut bus);
        }
        bus.into_log()
    }
}

/// An instant whose nanosecond remainder is often 0, 1 or 999.
fn instant(rng: &mut StdRng) -> SimTime {
    let us = rng.gen_range(0..5_000_000u64);
    let rem = match rng.gen_range(0..4u32) {
        0 => 0,
        1 => 1,
        2 => 999,
        _ => rng.gen_range(0..1000u64),
    };
    SimTime::from_nanos(us * 1000 + rem)
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// Records one event of a random variant on `bus`.
fn record(rng: &mut StdRng, bus: &mut EventBus) {
    let at = instant(rng);
    let task = TaskId(rng.gen_range(0..12u32));
    let node = rng.gen_range(0..4u32);
    let gpu = |rng: &mut StdRng| rng.gen::<bool>().then(|| rng.gen_range(0..3u32) as u16);
    let ev = match rng.gen_range(0..16u32) {
        0 => TelemetryEvent::TaskReady { at, task },
        1 => {
            let n = rng.gen_range(0..4u32);
            let decision = SchedulerDecision {
                at,
                task,
                chosen: node,
                queue_depth: rng.gen_range(0..100_000u32),
                sim_overhead: SimDuration::from_nanos(rng.gen_range(0..2_000_000u64)),
                host_nanos: rng.gen(),
                candidates: Candidates::default(),
            };
            let candidates: Vec<CandidateScore> = (0..n)
                .map(|node| CandidateScore {
                    node,
                    free_slots: rng.gen_range(0..8u32),
                    cached_bytes: rng.gen(),
                })
                .collect();
            bus.decide(decision, candidates);
            return;
        }
        2 => TelemetryEvent::TaskDispatched {
            at,
            task,
            task_type: TaskType::new(pick(rng, &TASK_TYPES)),
            node,
            core: rng.gen_range(0..8u32) as u16,
            cores: rng.gen_range(1..4u32) as u16,
            gpu: gpu(rng),
        },
        3 => {
            let t1 = instant(rng);
            TelemetryEvent::Stage {
                task,
                node,
                core: rng.gen_range(0..8u32) as u16,
                gpu: gpu(rng),
                state: pick(rng, &STATES),
                t0: at.min(t1),
                t1: at.max(t1),
            }
        }
        4 => TelemetryEvent::Transfer {
            task,
            node,
            link: pick(rng, &LINKS),
            bytes: rng.gen(),
            t0: at,
            t1: instant(rng),
        },
        5 => TelemetryEvent::CacheAccess {
            at,
            node,
            task,
            key: DataVersion {
                id: DataId(rng.gen_range(0..10u32)),
                version: rng.gen_range(0..3u32),
            },
            hit: rng.gen(),
        },
        6 => TelemetryEvent::CacheEvicted {
            at,
            node,
            count: rng.gen_range(1..10u64),
        },
        7 => TelemetryEvent::NodeGauge {
            at,
            node,
            ram_used: rng.gen(),
            busy_cores: rng.gen_range(0..48u32),
            busy_gpus: rng.gen_range(0..4u32),
        },
        8 => TelemetryEvent::TaskCompleted { at, task, node },
        9 => TelemetryEvent::FaultInjected {
            at,
            node: rng.gen::<bool>().then_some(node),
            what: pick(rng, &FAULTS),
        },
        10 => TelemetryEvent::TaskFailed {
            at,
            task,
            node,
            attempt: rng.gen_range(0..5u32),
            started: SimTime::ZERO,
            reason: pick(rng, &REASONS),
        },
        11 => TelemetryEvent::TaskRetry {
            at,
            task,
            attempt: rng.gen_range(1..5u32),
            // Sometimes before `at`, where the span saturates to 0.
            until: instant(rng),
        },
        12 => TelemetryEvent::TaskResubmitted {
            at,
            task,
            from_node: node,
        },
        13 => TelemetryEvent::NodeDown { at, node },
        14 => TelemetryEvent::NodeUp { at, node },
        _ => TelemetryEvent::BlocksInvalidated {
            at,
            node,
            count: rng.gen(),
            lost_versions: rng.gen(),
        },
    };
    bus.push(ev);
}

fn assert_same_export(log: TelemetryLog) {
    let expected = reference_chrome_trace(&log);
    let actual = to_chrome_trace(&log);
    assert!(
        actual == expected,
        "export differs from the reference for {:?}\n--- actual ---\n{actual}\n--- reference ---\n{expected}",
        log.events()
    );
}

proptest! {
    #[test]
    fn export_matches_the_fmt_reference(log in Logs) {
        assert_same_export(log);
    }
}

#[test]
fn empty_log_matches_the_reference() {
    assert_same_export(TelemetryLog::default());
}

/// Every variant at least once, with the extreme integers, the
/// escape-needing task types and one holding every ASCII character, in
/// one log.
#[test]
fn every_variant_and_extreme_matches_the_reference() {
    let mut bus = EventBus::new(true);
    for (i, ty) in TASK_TYPES.iter().enumerate() {
        let task = TaskId(i as u32);
        bus.push(TelemetryEvent::TaskDispatched {
            at: SimTime::from_nanos(999),
            task,
            task_type: TaskType::new(*ty),
            node: i as u32 % 3,
            core: i as u16,
            cores: 1,
            gpu: Some(i as u16),
        });
        bus.push(TelemetryEvent::TaskCompleted {
            at: SimTime::MAX,
            task,
            node: i as u32 % 3,
        });
    }
    let every_ascii: String = (0u8..0x80).map(char::from).collect();
    bus.push(TelemetryEvent::TaskDispatched {
        at: SimTime::ZERO,
        task: TaskId(40),
        task_type: TaskType::new(every_ascii),
        node: 0,
        core: 0,
        cores: 1,
        gpu: None,
    });
    bus.push(TelemetryEvent::TaskCompleted {
        at: SimTime::from_nanos(1),
        task: TaskId(u32::MAX),
        node: 5,
    });
    bus.push(TelemetryEvent::NodeGauge {
        at: SimTime::from_nanos(1_000),
        node: 5,
        ram_used: u64::MAX,
        busy_cores: 7,
        busy_gpus: 2,
    });
    bus.push(TelemetryEvent::BlocksInvalidated {
        at: SimTime::MAX,
        node: 1,
        count: u64::MAX,
        lost_versions: 0,
    });
    let mut rng = proptest::test_runner::deterministic_rng();
    for _ in 0..200 {
        record(&mut rng, &mut bus);
    }
    let log = bus.into_log();
    let kinds: BTreeSet<&str> = log.events().iter().map(TelemetryEvent::kind).collect();
    assert_eq!(kinds.len(), 16, "every variant drawn: {kinds:?}");
    assert_same_export(log);
}
