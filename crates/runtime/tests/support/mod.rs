//! Inputs and helpers shared by the byte-identity reference tests.
//!
//! * Random telemetry logs that cover every event variant, task types
//!   that need JSON escapes, instants on every nanosecond-remainder
//!   edge, several nodes and GPUs, and tasks completed without a
//!   dispatch (the generator of `chrome_reference.rs`).
//! * Real runs of the job templates: one fault-free, one with a node
//!   crash, a GPU failure and transient task failures.
//! * The `core::fmt` JSON string escaper the exporters used before the
//!   byte writer, for the test-only reference emitters.

#![allow(dead_code)]

use std::fmt::{self, Display, Write as _};

use gpuflow_cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};
use gpuflow_runtime::jobs::build;
use gpuflow_runtime::{
    run, CandidateScore, Candidates, DataId, DataVersion, EventBus, FaultPlan, JobShape, JobSpec,
    LinkKind, RecoveryPolicy, RunConfig, RunReport, SchedulerDecision, SchedulingPolicy, TaskId,
    TaskType, TelemetryEvent, TelemetryLog, TraceState, Workflow,
};
use gpuflow_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// JSON string content with `"`, `\` and control characters escaped.
pub struct JsonStr<'a>(pub &'a str);

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

/// Strings: plain, every escape `JsonStr` applies, non-ASCII, and empty.
pub const TASK_TYPES: [&str; 8] = [
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
pub struct Logs;

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
pub fn instant(rng: &mut StdRng) -> SimTime {
    let us = rng.gen_range(0..5_000_000u64);
    let rem = match rng.gen_range(0..4u32) {
        0 => 0,
        1 => 1,
        2 => 999,
        _ => rng.gen_range(0..1000u64),
    };
    SimTime::from_nanos(us * 1000 + rem)
}

pub fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> T {
    items[rng.gen_range(0..items.len())]
}

/// A u64 that is often 0, 1 or `u64::MAX`.
pub fn extreme(rng: &mut StdRng) -> u64 {
    match rng.gen_range(0..4u32) {
        0 => 0,
        1 => 1,
        2 => u64::MAX,
        _ => rng.gen(),
    }
}

/// Records one event of a random variant on `bus`.
pub fn record(rng: &mut StdRng, bus: &mut EventBus) {
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

/// Every variant with the extreme integers and the escape-needing task
/// types, plus 200 random events, in one log.
pub fn every_variant() -> TelemetryLog {
    let mut bus = EventBus::new(true);
    for (i, ty) in TASK_TYPES.iter().enumerate() {
        bus.push(TelemetryEvent::TaskDispatched {
            at: SimTime::from_nanos(999),
            task: TaskId(i as u32),
            task_type: TaskType::new(*ty),
            node: i as u32 % 3,
            core: u16::MAX,
            cores: 1,
            gpu: Some(i as u16),
        });
    }
    let every_ascii: String = (0u8..0x80).map(char::from).collect();
    bus.push(TelemetryEvent::TaskDispatched {
        at: SimTime::MAX,
        task: TaskId(u32::MAX),
        task_type: TaskType::new(every_ascii),
        node: u32::MAX,
        core: 0,
        cores: u16::MAX,
        gpu: Some(u16::MAX),
    });
    bus.push(TelemetryEvent::NodeGauge {
        at: SimTime::from_nanos(1_000),
        node: 5,
        ram_used: u64::MAX,
        busy_cores: u32::MAX,
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
    bus.into_log()
}

/// The jobs of the real runs: every template, three tenants, arrivals
/// over 0.11 virtual seconds.
fn jobs() -> Vec<JobSpec> {
    (0..12)
        .map(|id| JobSpec {
            id,
            tenant: id % 3,
            shape: JobShape::ALL[(id * 7 / 3) % 3],
            tasks: 8 + (id * 5) % 16,
            arrival_secs: id as f64 * 0.01,
            priority: 0,
        })
        .collect()
}

/// Two real GPU shared-disk runs of the same jobs with telemetry: the
/// fault-free run, then one with a node crash and rejoin, a GPU failure
/// and transient failures on one template (retries and resubmits).
pub fn real_runs() -> (Workflow, [RunReport; 2]) {
    let (wf, arrivals) = build(&jobs());
    let mut cfg = RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Gpu)
        .with_storage(StorageArchitecture::SharedDisk)
        .with_policy(SchedulingPolicy::GenerationOrder)
        .with_seed(0xF01D)
        .with_arrivals(arrivals)
        .with_telemetry();
    cfg.jitter_sigma = 0.0;
    let plain = run(&wf, &cfg).expect("fault-free run completes");
    let plan = FaultPlan::new(0xF01D)
        .with_node_crash(1, 0.05, Some(0.1))
        .with_gpu_failure(3, 0.06)
        .with_task_failures(Some("wide_t0"), 0.2);
    let cfg = cfg.with_faults(plan).with_recovery(RecoveryPolicy {
        max_retries: 8,
        ..RecoveryPolicy::default()
    });
    let faulted = run(&wf, &cfg).expect("recoverable plan completes");
    assert!(faulted.recovery.retries > 0, "needs retries");
    assert!(faulted.recovery.resubmissions > 0, "needs a resubmit");
    (wf, [plain, faulted])
}
