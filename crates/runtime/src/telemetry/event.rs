//! Typed runtime events.
//!
//! Every observable action of the runtime — task lifecycle transitions,
//! scheduler decisions, processing-stage intervals, link transfers,
//! cache activity, and resource gauges — is one variant of
//! [`TelemetryEvent`]. Events are emitted in simulation order, so a
//! replayed stream reconstructs the run exactly.

use gpuflow_sim::{SimDuration, SimTime};

use crate::data::DataVersion;
use crate::task::{TaskId, TaskType};
use crate::trace::TraceState;

use super::json::JsonWriter;

/// One candidate node as the scheduler scored it for a decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CandidateScore {
    /// Node index.
    pub node: u32,
    /// Free execution slots at decision time.
    pub free_slots: u32,
    /// Bytes of the task's inputs cached on this node (0 for policies
    /// that do not score the cache).
    pub cached_bytes: u64,
}

/// A decision's scored candidates as its log holds them: their count.
///
/// The scores themselves sit in one arena per log, decision after
/// decision in log order, so a decision's candidates start where the
/// previous decision's end ([`super::TelemetryLog::decisions`] pairs
/// them). Only [`super::EventBus::decide`] records a non-empty set; a
/// handle built here ([`Candidates::default`]) counts none.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Candidates {
    len: u32,
}

impl Candidates {
    /// A handle counting `len` scores.
    pub(crate) fn new(len: usize) -> Self {
        Candidates {
            len: u32::try_from(len).expect("a decision scores at most u32::MAX nodes"),
        }
    }

    /// Number of scored candidates.
    pub fn len(self) -> usize {
        self.len as usize
    }

    /// Whether the decision scored no candidate.
    pub fn is_empty(self) -> bool {
        self.len == 0
    }
}

/// One master scheduling decision: the candidate set considered, the
/// chosen placement, and what the decision cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerDecision {
    /// Simulation instant of the decision.
    pub at: SimTime,
    /// The task being placed.
    pub task: TaskId,
    /// The chosen node.
    pub chosen: u32,
    /// Ready-queue depth at decision time (including this task).
    pub queue_depth: u32,
    /// Modelled master-side overhead of the decision, in simulation
    /// time.
    pub sim_overhead: SimDuration,
    /// Wall-clock nanoseconds the host spent making this decision, from
    /// the ready-queue search through placement. Nondeterministic;
    /// excluded from the JSONL export so event streams stay
    /// byte-identical across runs.
    pub host_nanos: u64,
    /// The scored candidate set, one entry per cluster node, held in
    /// the log's arena.
    pub candidates: Candidates,
}

/// Which modelled link carried a data transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkKind {
    /// Storage read (shared filesystem or a node-local disk).
    StorageRead,
    /// Storage write.
    StorageWrite,
    /// Host-to-device over the PCIe bus.
    HostToDevice,
    /// Device-to-host over the PCIe bus.
    DeviceToHost,
}

impl LinkKind {
    /// Short label used in exports.
    pub fn label(self) -> &'static str {
        match self {
            LinkKind::StorageRead => "read",
            LinkKind::StorageWrite => "write",
            LinkKind::HostToDevice => "h2d",
            LinkKind::DeviceToHost => "d2h",
        }
    }
}

/// A structured runtime event.
#[derive(Debug, Clone, PartialEq)]
pub enum TelemetryEvent {
    /// A task's dependencies are satisfied; it entered the ready queue.
    TaskReady {
        /// Instant the task became ready.
        at: SimTime,
        /// The task.
        task: TaskId,
    },
    /// The master placed a task (see [`SchedulerDecision`]).
    Decision(SchedulerDecision),
    /// A task acquired its resources and started executing.
    TaskDispatched {
        /// Dispatch instant.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// Task type.
        task_type: TaskType,
        /// Executing node.
        node: u32,
        /// First host core held.
        core: u16,
        /// Number of host cores held.
        cores: u16,
        /// GPU device held, if any.
        gpu: Option<u16>,
    },
    /// A task finished one processing stage of Fig. 4.
    Stage {
        /// The task.
        task: TaskId,
        /// Executing node.
        node: u32,
        /// Host core driving the stage.
        core: u16,
        /// GPU device, for kernel and CPU-GPU transfer stages.
        gpu: Option<u16>,
        /// The stage.
        state: TraceState,
        /// Interval start.
        t0: SimTime,
        /// Interval end.
        t1: SimTime,
    },
    /// Bytes moved over a modelled link on behalf of a task.
    Transfer {
        /// The task.
        task: TaskId,
        /// Node that issued the transfer.
        node: u32,
        /// The link.
        link: LinkKind,
        /// Payload bytes.
        bytes: u64,
        /// Flow start (after protocol latency).
        t0: SimTime,
        /// Flow completion.
        t1: SimTime,
    },
    /// A worker cache lookup.
    CacheAccess {
        /// Lookup instant.
        at: SimTime,
        /// Node whose cache was consulted.
        node: u32,
        /// The task reading its input.
        task: TaskId,
        /// The data version looked up.
        key: DataVersion,
        /// Whether the lookup hit.
        hit: bool,
    },
    /// A worker cache insert evicted least-recently-used entries.
    CacheEvicted {
        /// Insert instant.
        at: SimTime,
        /// Node whose cache evicted.
        node: u32,
        /// Entries evicted by this insert.
        count: u64,
    },
    /// Sampled per-node resource occupancy (emitted on every dispatch,
    /// completion, abort, cache eviction, node crash, and node rejoin —
    /// every instant the occupancy changes or is invalidated).
    NodeGauge {
        /// Sample instant.
        at: SimTime,
        /// The node.
        node: u32,
        /// Working-set bytes resident on the node.
        ram_used: u64,
        /// Host cores currently held by tasks.
        busy_cores: u32,
        /// GPU devices currently held by tasks.
        busy_gpus: u32,
    },
    /// A task released its resources with outputs on storage.
    TaskCompleted {
        /// Completion instant.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// Node that executed it.
        node: u32,
    },
    /// A fault from the configured plan fired.
    FaultInjected {
        /// Injection instant.
        at: SimTime,
        /// Affected node (cluster-wide faults carry `None`).
        node: Option<u32>,
        /// What was injected (`node-crash`, `node-rejoin`,
        /// `gpu-failure`).
        what: &'static str,
    },
    /// A running task attempt was lost.
    TaskFailed {
        /// Failure instant.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// Node the attempt ran on.
        node: u32,
        /// The attempt that failed (first execution is attempt 0).
        attempt: u32,
        /// Dispatch instant of the lost attempt (its work in
        /// `[started, at]` is wasted and attributed to recovery).
        started: SimTime,
        /// Failure cause (`transient`, `node-crash`, `gpu-failure`).
        reason: &'static str,
    },
    /// A failed task entered its virtual-time retry backoff.
    TaskRetry {
        /// Backoff start.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// The upcoming attempt number.
        attempt: u32,
        /// Backoff end: the task re-enters the ready queue here.
        until: SimTime,
    },
    /// A task lost with its node re-entered the ready queue for
    /// placement elsewhere.
    TaskResubmitted {
        /// Resubmission instant.
        at: SimTime,
        /// The task.
        task: TaskId,
        /// The node the previous attempt was lost on.
        from_node: u32,
    },
    /// A node left the cluster (quarantined until rejoin, if any).
    NodeDown {
        /// Quarantine instant.
        at: SimTime,
        /// The node.
        node: u32,
    },
    /// A quarantined node rejoined with cold caches and empty local
    /// storage.
    NodeUp {
        /// Rejoin instant.
        at: SimTime,
        /// The node.
        node: u32,
    },
    /// Blocks resident on a crashed node were invalidated (their
    /// producers re-run via lineage).
    BlocksInvalidated {
        /// Invalidation instant.
        at: SimTime,
        /// The crashed node.
        node: u32,
        /// Cache entries dropped.
        count: u64,
        /// Local-storage data versions lost (regenerated via lineage).
        lost_versions: u64,
    },
}

impl TelemetryEvent {
    /// Every kind tag, in variant order: the report order of
    /// [`super::TelemetryLog::summary`].
    pub(crate) const KINDS: [&'static str; 16] = [
        "ready",
        "decision",
        "dispatch",
        "stage",
        "transfer",
        "cache",
        "evict",
        "gauge",
        "complete",
        "fault",
        "failed",
        "retry",
        "resubmit",
        "node-down",
        "node-up",
        "invalidate",
    ];

    /// The [`TelemetryEvent::KINDS`] index of a decision.
    pub(crate) const DECISION: usize = 1;
    /// The [`TelemetryEvent::KINDS`] index of a dispatch.
    pub(crate) const DISPATCH: usize = 2;
    /// The [`TelemetryEvent::KINDS`] index of a stage.
    pub(crate) const STAGE: usize = 3;
    /// The [`TelemetryEvent::KINDS`] index of a transfer.
    pub(crate) const TRANSFER: usize = 4;
    /// The [`TelemetryEvent::KINDS`] index of a retry.
    pub(crate) const RETRY: usize = 11;
    /// The [`TelemetryEvent::KINDS`] index of a resubmission.
    pub(crate) const RESUBMIT: usize = 12;

    /// Index of this event's kind tag in [`TelemetryEvent::KINDS`].
    pub(crate) fn kind_index(&self) -> usize {
        match self {
            TelemetryEvent::TaskReady { .. } => 0,
            TelemetryEvent::Decision(_) => Self::DECISION,
            TelemetryEvent::TaskDispatched { .. } => Self::DISPATCH,
            TelemetryEvent::Stage { .. } => Self::STAGE,
            TelemetryEvent::Transfer { .. } => Self::TRANSFER,
            TelemetryEvent::CacheAccess { .. } => 5,
            TelemetryEvent::CacheEvicted { .. } => 6,
            TelemetryEvent::NodeGauge { .. } => 7,
            TelemetryEvent::TaskCompleted { .. } => 8,
            TelemetryEvent::FaultInjected { .. } => 9,
            TelemetryEvent::TaskFailed { .. } => 10,
            TelemetryEvent::TaskRetry { .. } => Self::RETRY,
            TelemetryEvent::TaskResubmitted { .. } => Self::RESUBMIT,
            TelemetryEvent::NodeDown { .. } => 13,
            TelemetryEvent::NodeUp { .. } => 14,
            TelemetryEvent::BlocksInvalidated { .. } => 15,
        }
    }

    /// Short kind tag used by exports and summaries.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// One deterministic JSON object (no trailing newline). Times are
    /// integer nanoseconds; the nondeterministic `host_nanos` of
    /// decisions is deliberately omitted so streams from identical runs
    /// are byte-identical. A decision lists `candidates`, its scores
    /// from the log's arena (see [`super::TelemetryLog::scored`]); every
    /// other event ignores them.
    pub fn to_json(&self, candidates: &[CandidateScore]) -> String {
        let mut w = JsonWriter::with_capacity(96);
        self.write_json(candidates, &mut w);
        w.finish()
    }

    /// Appends [`TelemetryEvent::to_json`]'s object to `w`.
    pub(crate) fn write_json(&self, candidates: &[CandidateScore], w: &mut JsonWriter) {
        w.begin("{").key("ev").string(self.kind());
        match self {
            TelemetryEvent::TaskReady { at, task } => {
                w.field("t", at.as_nanos()).field("task", task.0.into());
            }
            TelemetryEvent::Decision(d) => {
                w.field("t", d.at.as_nanos())
                    .field("task", d.task.0.into())
                    .field("node", d.chosen.into())
                    .field("queue_depth", d.queue_depth.into())
                    .field("overhead_ns", d.sim_overhead.as_nanos())
                    .key("candidates")
                    .array(candidates, |w, c| {
                        w.begin("{")
                            .field("node", c.node.into())
                            .field("free_slots", c.free_slots.into())
                            .field("cached_bytes", c.cached_bytes)
                            .end("}");
                    });
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
                w.field("t", at.as_nanos())
                    .field("task", task.0.into())
                    .key("type")
                    .string(task_type)
                    .field("node", (*node).into())
                    .field("core", (*core).into())
                    .field("cores", (*cores).into())
                    .key("gpu")
                    .opt(gpu.map(u64::from));
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
                w.field("task", task.0.into())
                    .field("node", (*node).into())
                    .field("core", (*core).into())
                    .key("gpu")
                    .opt(gpu.map(u64::from))
                    .key("state")
                    .string(state.label())
                    .field("t0", t0.as_nanos())
                    .field("t1", t1.as_nanos());
            }
            TelemetryEvent::Transfer {
                task,
                node,
                link,
                bytes,
                t0,
                t1,
            } => {
                w.field("task", task.0.into())
                    .field("node", (*node).into())
                    .key("link")
                    .string(link.label())
                    .field("bytes", *bytes)
                    .field("t0", t0.as_nanos())
                    .field("t1", t1.as_nanos());
            }
            TelemetryEvent::CacheAccess {
                at,
                node,
                task,
                key,
                hit,
            } => {
                w.field("t", at.as_nanos())
                    .field("node", (*node).into())
                    .field("task", task.0.into())
                    .field("data", key.id.0.into())
                    .field("version", key.version.into())
                    .key("hit")
                    .boolean(*hit);
            }
            TelemetryEvent::CacheEvicted { at, node, count } => {
                w.field("t", at.as_nanos())
                    .field("node", (*node).into())
                    .field("count", *count);
            }
            TelemetryEvent::NodeGauge {
                at,
                node,
                ram_used,
                busy_cores,
                busy_gpus,
            } => {
                w.field("t", at.as_nanos())
                    .field("node", (*node).into())
                    .field("ram", *ram_used)
                    .field("busy_cores", (*busy_cores).into())
                    .field("busy_gpus", (*busy_gpus).into());
            }
            TelemetryEvent::TaskCompleted { at, task, node } => {
                w.field("t", at.as_nanos())
                    .field("task", task.0.into())
                    .field("node", (*node).into());
            }
            TelemetryEvent::FaultInjected { at, node, what } => {
                w.field("t", at.as_nanos())
                    .key("node")
                    .opt(node.map(u64::from))
                    .key("what")
                    .string(what);
            }
            TelemetryEvent::TaskFailed {
                at,
                task,
                node,
                attempt,
                started,
                reason,
            } => {
                w.field("t", at.as_nanos())
                    .field("task", task.0.into())
                    .field("node", (*node).into())
                    .field("attempt", (*attempt).into())
                    .field("started", started.as_nanos())
                    .key("reason")
                    .string(reason);
            }
            TelemetryEvent::TaskRetry {
                at,
                task,
                attempt,
                until,
            } => {
                w.field("t", at.as_nanos())
                    .field("task", task.0.into())
                    .field("attempt", (*attempt).into())
                    .field("until", until.as_nanos());
            }
            TelemetryEvent::TaskResubmitted {
                at,
                task,
                from_node,
            } => {
                w.field("t", at.as_nanos())
                    .field("task", task.0.into())
                    .field("from_node", (*from_node).into());
            }
            TelemetryEvent::NodeDown { at, node } | TelemetryEvent::NodeUp { at, node } => {
                w.field("t", at.as_nanos()).field("node", (*node).into());
            }
            TelemetryEvent::BlocksInvalidated {
                at,
                node,
                count,
                lost_versions,
            } => {
                w.field("t", at.as_nanos())
                    .field("node", (*node).into())
                    .field("count", *count)
                    .field("lost_versions", *lost_versions);
            }
        }
        w.end("}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_lines_are_compact_objects() {
        let ev = TelemetryEvent::TaskReady {
            at: SimTime::from_nanos(5),
            task: TaskId(3),
        };
        assert_eq!(ev.to_json(&[]), "{\"ev\":\"ready\",\"t\":5,\"task\":3}");
    }

    #[test]
    fn decision_serializes_candidates_in_order() {
        let ev = TelemetryEvent::Decision(SchedulerDecision {
            at: SimTime::from_nanos(10),
            task: TaskId(1),
            chosen: 2,
            queue_depth: 4,
            sim_overhead: SimDuration::from_micros(800),
            host_nanos: 123, // must not appear in the JSON
            candidates: Candidates::new(2),
        });
        let json = ev.to_json(&[
            CandidateScore {
                node: 0,
                free_slots: 1,
                cached_bytes: 0,
            },
            CandidateScore {
                node: 1,
                free_slots: 0,
                cached_bytes: 7,
            },
        ]);
        assert!(json.contains("\"queue_depth\":4"));
        assert!(json.contains("\"overhead_ns\":800000"));
        assert!(json.contains("{\"node\":0,\"free_slots\":1,\"cached_bytes\":0}"));
        assert!(!json.contains("123"), "host time must stay out: {json}");
    }

    #[test]
    fn an_event_is_48_bytes_and_a_score_16() {
        assert!(std::mem::size_of::<TelemetryEvent>() <= 48);
        assert_eq!(std::mem::size_of::<CandidateScore>(), 16);
    }

    #[test]
    fn named_kind_indices_name_their_kinds() {
        let k = TelemetryEvent::KINDS;
        let named = [
            (TelemetryEvent::DECISION, "decision"),
            (TelemetryEvent::DISPATCH, "dispatch"),
            (TelemetryEvent::STAGE, "stage"),
            (TelemetryEvent::TRANSFER, "transfer"),
            (TelemetryEvent::RETRY, "retry"),
            (TelemetryEvent::RESUBMIT, "resubmit"),
        ];
        for (index, kind) in named {
            assert_eq!(k[index], kind);
        }
    }

    #[test]
    fn gpu_is_null_or_number() {
        let mk = |gpu| TelemetryEvent::Stage {
            task: TaskId(0),
            node: 0,
            core: 1,
            gpu,
            state: TraceState::ParallelFraction,
            t0: SimTime::from_nanos(0),
            t1: SimTime::from_nanos(1),
        };
        assert!(mk(None).to_json(&[]).contains("\"gpu\":null"));
        assert!(mk(Some(2)).to_json(&[]).contains("\"gpu\":2"));
    }

    #[test]
    fn kinds_are_distinct() {
        let evs = [
            TelemetryEvent::TaskReady {
                at: SimTime::ZERO,
                task: TaskId(0),
            },
            TelemetryEvent::CacheEvicted {
                at: SimTime::ZERO,
                node: 0,
                count: 1,
            },
            TelemetryEvent::TaskCompleted {
                at: SimTime::ZERO,
                task: TaskId(0),
                node: 0,
            },
        ];
        let kinds: Vec<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["ready", "evict", "complete"]);
    }

    #[test]
    fn fault_events_serialize_deterministically() {
        let failed = TelemetryEvent::TaskFailed {
            at: SimTime::from_nanos(20),
            task: TaskId(4),
            node: 1,
            attempt: 0,
            started: SimTime::from_nanos(5),
            reason: "transient",
        };
        assert_eq!(
            failed.to_json(&[]),
            "{\"ev\":\"failed\",\"t\":20,\"task\":4,\"node\":1,\"attempt\":0,\"started\":5,\"reason\":\"transient\"}"
        );
        let fault = TelemetryEvent::FaultInjected {
            at: SimTime::from_nanos(7),
            node: None,
            what: "node-crash",
        };
        assert!(fault.to_json(&[]).contains("\"node\":null"));
        let retry = TelemetryEvent::TaskRetry {
            at: SimTime::from_nanos(20),
            task: TaskId(4),
            attempt: 1,
            until: SimTime::from_nanos(30),
        };
        assert!(retry.to_json(&[]).contains("\"until\":30"));
        let inval = TelemetryEvent::BlocksInvalidated {
            at: SimTime::from_nanos(9),
            node: 2,
            count: 3,
            lost_versions: 1,
        };
        assert!(inval.to_json(&[]).contains("\"lost_versions\":1"));
    }

    #[test]
    fn fault_kinds_are_distinct_tags() {
        let evs = [
            TelemetryEvent::FaultInjected {
                at: SimTime::ZERO,
                node: Some(0),
                what: "gpu-failure",
            },
            TelemetryEvent::TaskResubmitted {
                at: SimTime::ZERO,
                task: TaskId(0),
                from_node: 0,
            },
            TelemetryEvent::NodeDown {
                at: SimTime::ZERO,
                node: 0,
            },
            TelemetryEvent::NodeUp {
                at: SimTime::ZERO,
                node: 0,
            },
        ];
        let kinds: Vec<_> = evs.iter().map(|e| e.kind()).collect();
        assert_eq!(kinds, vec!["fault", "resubmit", "node-down", "node-up"]);
    }
}
