//! Fault recovery: the armed fault timeline, straggler and link
//! perturbations, transient-failure retries, node crashes and GPU
//! failures, and lineage regeneration of lost data.

use gpuflow_chaos::FaultPlan;
use gpuflow_cluster::StorageArchitecture;
use gpuflow_sim::{SimDuration, SimTime};

use crate::data::DataVersion;
use crate::scheduler::ReadyQueue;
use crate::task::TaskId;
use crate::telemetry::TelemetryEvent;

use super::{Ev, Exec, RunError};

/// A discrete fault materialised from the plan at a fixed virtual time.
#[derive(Debug, Clone, Copy)]
pub(super) enum FaultAction {
    Crash { node: usize },
    Rejoin { node: usize },
    GpuFail { node: usize },
}

/// The plan's discrete faults in firing order. (time, class, node)
/// gives a total deterministic order; same-time events then fire in
/// schedule order (FIFO).
pub(super) fn fault_timeline(plan: &FaultPlan) -> Vec<(SimTime, FaultAction)> {
    let mut timed: Vec<(f64, u8, usize, FaultAction)> = Vec::new();
    for cr in &plan.node_crashes {
        timed.push((cr.at_secs, 0, cr.node, FaultAction::Crash { node: cr.node }));
        if let Some(rejoin) = cr.rejoin_after_secs {
            timed.push((
                cr.at_secs + rejoin,
                2,
                cr.node,
                FaultAction::Rejoin { node: cr.node },
            ));
        }
    }
    for g in &plan.gpu_failures {
        timed.push((g.at_secs, 1, g.node, FaultAction::GpuFail { node: g.node }));
    }
    timed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    timed
        .into_iter()
        .map(|(at, _, _, action)| (SimTime::ZERO + SimDuration::from_secs_f64(at), action))
        .collect()
}

impl Exec<'_> {
    /// Arms the discrete fault timeline and announces every plan entry
    /// to the telemetry stream (continuous perturbations — stragglers,
    /// link degradation, transient rates — need no engine events; they
    /// are pure functions of the virtual clock).
    pub(super) fn schedule_faults(&mut self) {
        for (idx, &(at, _)) in self.fault_timeline.iter().enumerate() {
            self.engine.schedule_at(at, Ev::Fault(idx));
        }
        let Some(plan) = self.faults else { return };
        self.stats.faults_injected = plan.node_crashes.len()
            + plan.gpu_failures.len()
            + plan.stragglers.len()
            + plan.link_degradations.len()
            + plan.task_failures.len();
        if self.bus.active() {
            for s in &plan.stragglers {
                self.bus.push(TelemetryEvent::FaultInjected {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(s.at_secs),
                    node: Some(s.node as u32),
                    what: "straggler",
                });
            }
            for l in &plan.link_degradations {
                self.bus.push(TelemetryEvent::FaultInjected {
                    at: SimTime::ZERO + SimDuration::from_secs_f64(l.at_secs),
                    node: None,
                    what: "link-degradation",
                });
            }
            for _ in &plan.task_failures {
                self.bus.push(TelemetryEvent::FaultInjected {
                    at: SimTime::ZERO,
                    node: None,
                    what: "transient-rate",
                });
            }
        }
    }

    /// A discrete fault of the timeline fires.
    pub(super) fn on_fault(&mut self, idx: usize) {
        match self.fault_timeline[idx].1 {
            FaultAction::Crash { node } => self.on_node_crash(node),
            FaultAction::Rejoin { node } => self.on_node_rejoin(node),
            FaultAction::GpuFail { node } => self.on_gpu_failure(node),
        }
    }

    /// Applies the active straggler slowdown of `node` to a stage
    /// duration. A factor of exactly 1.0 (or no plan) returns `d`
    /// untouched, keeping fault-free runs byte-identical.
    pub(super) fn stretch(&self, node: usize, d: SimDuration) -> SimDuration {
        if let Some(plan) = self.faults {
            let f = plan.straggle_factor(node, self.now().as_secs_f64());
            if f != 1.0 {
                return d.mul_f64(f);
            }
        }
        d
    }

    /// Effective bytes of a link flow under the active link-degradation
    /// window (degradation inflates the transferred volume).
    pub(super) fn flow_bytes(&self, bytes: u64) -> f64 {
        let b = bytes as f64;
        if let Some(plan) = self.faults {
            let f = plan.link_factor(self.now().as_secs_f64());
            if f != 1.0 {
                return b * f;
            }
        }
        b
    }

    /// Tears down a live attempt: releases its resources, remembers its
    /// node for alternate-node resubmission, and reports the failure.
    /// Pending stage delays and in-flight link flows become stale via
    /// the attempt tag: an orphaned flow still drains at its full share,
    /// and its completion is dropped. Returns the node the attempt ran
    /// on.
    fn abort_attempt(&mut self, tid: TaskId, reason: &'static str, release_gpu: bool) -> usize {
        let now = self.now();
        let i = tid.0 as usize;
        let run = self.release(tid, release_gpu);
        let (node, started) = (run.node, run.rec.start);
        if self.cfg.recovery.resubmit_alternate {
            self.last_failed_node[i] = node as u32;
        }
        if self.bus.active() {
            self.bus.push(TelemetryEvent::TaskFailed {
                at: now,
                task: tid,
                node: node as u32,
                attempt: self.attempts[i].saturating_sub(1),
                started,
                reason,
            });
            self.push_gauge(node, now);
        }
        node
    }

    /// Kills `tid`'s attempt because its node crashed or, when
    /// `gpu_failed`, its GPU died with it (the device is not returned),
    /// and reports the task resubmitted.
    fn resubmit(&mut self, tid: TaskId, gpu_failed: bool) {
        let (reason, release_gpu) = if gpu_failed {
            ("gpu-failure", false)
        } else {
            ("node-crash", true)
        };
        let node = self.abort_attempt(tid, reason, release_gpu);
        self.stats.crash_failures += 1;
        self.stats.resubmissions += 1;
        if self.bus.active() {
            let at = self.now();
            self.bus.push(TelemetryEvent::TaskResubmitted {
                at,
                task: tid,
                from_node: node as u32,
            });
        }
    }

    /// Kills the current attempt with a sampled transient failure and
    /// either schedules a backed-off retry or, with the budget spent,
    /// raises the fatal [`RunError::TaskFailed`].
    pub(super) fn fail_transient(&mut self, tid: TaskId) {
        let i = tid.0 as usize;
        let now = self.now();
        self.stats.transient_failures += 1;
        self.transient_fails[i] += 1;
        self.abort_attempt(tid, "transient", true);
        if self.transient_fails[i] > self.cfg.recovery.max_retries {
            self.fatal = Some(RunError::TaskFailed {
                task_type: self.wf.task(tid).task_type.to_string(),
                attempts: self.attempts[i],
            });
            return;
        }
        self.stats.retries += 1;
        let backoff =
            SimDuration::from_secs_f64(self.cfg.recovery.backoff_secs(self.transient_fails[i]));
        self.in_backoff[i] = true;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::TaskRetry {
                at: now,
                task: tid,
                attempt: self.attempts[i],
                until: now + backoff,
            });
        }
        self.engine.schedule_after(backoff, Ev::Retry(tid));
    }

    /// End of a backoff window: the task re-enters the ready queue if
    /// its dependencies still hold (a crash may have invalidated them;
    /// dependency tracking re-admits it later in that case).
    pub(super) fn on_retry(&mut self, tid: TaskId) {
        let i = tid.0 as usize;
        if !self.in_backoff[i] {
            return;
        }
        self.in_backoff[i] = false;
        self.requeue(tid);
        self.try_start_master();
    }

    /// Re-inserts a task whose attempt was torn down, if it is runnable
    /// right now (dependencies met, not completed/running/pending).
    fn requeue(&mut self, tid: TaskId) {
        let i = tid.0 as usize;
        if self.completed[i]
            || self.live.is_live(tid)
            || self.in_backoff[i]
            || self.deps_left[i] > 0
            || self.unarrived[i]
            || self.pending_assign.map(|(t, _)| t) == Some(tid)
        {
            return;
        }
        // A crash may have destroyed produced input versions while this
        // attempt ran on a surviving node or sat in backoff — it was
        // live then, so no crash-time sweep chased its inputs. Re-read
        // lineage now: a missing produced version forces regeneration of
        // its producer before this task may run again.
        let lost_input = self
            .wf
            .task(tid)
            .reads()
            .any(|(id, version)| self.versions.lost(id, version));
        if lost_input {
            self.mark_regeneration(&[]);
            self.rebuild_dependencies();
            return;
        }
        self.admit(tid);
    }

    /// A node dies: every attempt on it is killed and resubmitted, its
    /// worker cache is wiped, and (with local disks) every block version
    /// written to its disk is lost — forcing lineage regeneration of the
    /// producers. Initial dataset blocks are durable and are re-homed
    /// onto surviving nodes.
    fn on_node_crash(&mut self, node: usize) {
        if !self.node_up[node] {
            return;
        }
        let now = self.now();
        self.node_up[node] = false;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::FaultInjected {
                at: now,
                node: Some(node as u32),
                what: "node-crash",
            });
            self.bus.push(TelemetryEvent::NodeDown {
                at: now,
                node: node as u32,
            });
        }
        let mut victims: Vec<TaskId> = self
            .live
            .iter()
            .filter(|r| r.node == node)
            .map(|r| r.rec.task)
            .collect();
        victims.sort_unstable();
        for tid in victims {
            self.resubmit(tid, false);
        }
        let dropped = self.caches[node].clear();
        let mut lost: Vec<DataVersion> = Vec::new();
        if self.cfg.storage == StorageArchitecture::LocalDisk {
            self.versions.lose_homed_on(node as u32, &mut lost);
            for &v in &lost {
                // Cached copies elsewhere are invalidated too: a lost
                // version must be regenerated before anyone consumes it
                // again, which is what makes fingerprint equality prove
                // lineage recovery.
                for cache in &mut self.caches {
                    cache.invalidate(v);
                }
            }
            // Durable initial blocks move to surviving disks. The dense
            // table is already in ascending-id order, matching the old
            // map's collect-and-sort.
            let ids: Vec<usize> = self
                .home
                .iter()
                .enumerate()
                .filter(|&(_, &h)| h == node as u32)
                .map(|(id, _)| id)
                .collect();
            let alive: Vec<u32> = (0..self.cfg.cluster.nodes)
                .filter(|&n| self.node_up[n])
                .map(|n| n as u32)
                .collect();
            if !alive.is_empty() {
                for (k, id) in ids.into_iter().enumerate() {
                    self.home[id] = alive[k % alive.len()];
                }
            }
        }
        self.stats.blocks_invalidated += dropped + lost.len() as u64;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::BlocksInvalidated {
                at: now,
                node: node as u32,
                count: dropped,
                lost_versions: lost.len() as u64,
            });
            // The crash released every resource on the node; gauge the
            // new (empty) occupancy so down intervals read as idle.
            self.push_gauge(node, now);
        }
        self.mark_regeneration(&lost);
        self.rebuild_dependencies();
        self.try_start_master();
    }

    /// A transiently crashed node comes back: empty cache, full core
    /// complement (permanently failed GPUs stay dead).
    fn on_node_rejoin(&mut self, node: usize) {
        if self.node_up[node] {
            return;
        }
        let now = self.now();
        self.node_up[node] = true;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::NodeUp {
                at: now,
                node: node as u32,
            });
            // A rejoined node restarts cold: gauge the empty occupancy.
            self.push_gauge(node, now);
        }
        self.try_start_master();
    }

    /// One GPU device on `node` fails permanently. An idle device is
    /// simply removed from the pool; otherwise the lowest-id running
    /// GPU attempt on the node dies with its device and is resubmitted.
    fn on_gpu_failure(&mut self, node: usize) {
        if self.gpus_dead[node] >= self.cfg.cluster.gpus_of(node) {
            return;
        }
        let now = self.now();
        self.gpus_dead[node] += 1;
        if self.bus.active() {
            self.bus.push(TelemetryEvent::FaultInjected {
                at: now,
                node: Some(node as u32),
                what: "gpu-failure",
            });
        }
        if self.free_gpus[node] > 0 {
            self.free_gpus[node] -= 1;
            self.gpu_stacks[node].pop();
        } else if let Some(tid) = self
            .live
            .iter()
            .filter(|r| r.node == node && r.gpu_id.is_some())
            .map(|r| r.rec.task)
            .min()
        {
            self.resubmit(tid, true);
            self.requeue(tid);
        }
        self.try_start_master();
    }

    /// Marks every task whose (transitive) inputs were lost for
    /// re-execution. Seeds are all pending tasks (they may need lost
    /// inputs) plus the producers of lost *terminal* versions, which
    /// must regenerate even with no pending consumer — the run's output
    /// set itself was damaged.
    fn mark_regeneration(&mut self, lost: &[DataVersion]) {
        let n = self.wf.tasks().len();
        let mut work: Vec<TaskId> = (0..n)
            .map(|i| TaskId(i as u32))
            .filter(|&t| !self.completed[t.0 as usize] && !self.live.is_live(t))
            .collect();
        for v in lost {
            let slot = self.versions.slot(v.id, v.version);
            if self.versions.terminal.binary_search(&(slot as u32)).is_ok() {
                work.push(TaskId(self.versions.producer[slot]));
            }
        }
        let mut visited = vec![false; n];
        while let Some(t) = work.pop() {
            let i = t.0 as usize;
            if visited[i] {
                continue;
            }
            visited[i] = true;
            if self.completed[i] {
                self.completed[i] = false;
                self.stats.regenerated_tasks += 1;
            }
            // Chase lost inputs upstream: a produced version missing
            // from the lineage table forces its producer to re-run
            // (initial versions have no producer — they are durable).
            for (id, version) in self.wf.task(t).reads() {
                if self.versions.lost(id, version) {
                    let p = self.versions.producer[self.versions.slot(id, version)];
                    if !visited[p as usize] {
                        work.push(TaskId(p));
                    }
                }
            }
        }
    }

    /// Recomputes `deps_left` and rebuilds the ready queue from scratch
    /// after regeneration changed the completion frontier.
    fn rebuild_dependencies(&mut self) {
        self.ready = ReadyQueue::new(self.cfg.policy);
        for i in 0..self.wf.tasks().len() {
            let tid = TaskId(i as u32);
            if self.completed[i] || self.live.is_live(tid) {
                continue;
            }
            let deps = self
                .wf
                .predecessors(tid)
                .iter()
                .filter(|p| !self.completed[p.0 as usize])
                .count();
            self.deps_left[i] = deps as u32;
            let pending = self.pending_assign.map(|(t, _)| t) == Some(tid);
            if deps == 0 && !self.in_backoff[i] && !pending && !self.unarrived[i] {
                self.admit(tid);
            }
        }
    }
}

#[cfg(test)]
mod chaos_tests {
    use super::*;
    use crate::data::Direction;
    use crate::executor::{run, RecoveryStats, RunConfig};
    use crate::task::CostProfile;
    use crate::workflow::Workflow;
    use crate::workflow::WorkflowBuilder;
    use gpuflow_chaos::{FaultPlan, RecoveryPolicy};
    use gpuflow_cluster::KernelWork;
    use gpuflow_cluster::{ClusterSpec, ProcessorKind};

    const MB: u64 = 1 << 20;

    fn compute_cost(flops: f64) -> CostProfile {
        CostProfile::fully_parallel(KernelWork {
            flops,
            bytes: flops / 10.0,
            parallelism: 1e9,
        })
    }

    /// A three-stage pipeline over `width` independent chains; plenty of
    /// intermediates to lose in a crash.
    fn pipeline(width: usize) -> Workflow {
        let mut b = WorkflowBuilder::new();
        for i in 0..width {
            let x = b.input(format!("x{i}"), MB);
            let a = b.intermediate(format!("a{i}"), MB);
            let c = b.intermediate(format!("c{i}"), MB);
            b.submit(
                "stage0",
                compute_cost(1e9),
                &[(x, Direction::In), (a, Direction::Out)],
                false,
            )
            .unwrap();
            b.submit(
                "stage1",
                compute_cost(1e9),
                &[(a, Direction::In), (c, Direction::Out)],
                false,
            )
            .unwrap();
        }
        b.build()
    }

    fn base_cfg() -> RunConfig {
        let mut c = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu);
        c.jitter_sigma = 0.0;
        c.storage = StorageArchitecture::LocalDisk;
        c
    }

    #[test]
    fn empty_plan_is_a_pure_observer() {
        let wf = pipeline(6);
        let plain = run(&wf, &base_cfg().with_telemetry()).unwrap();
        let observed = run(
            &wf,
            &base_cfg().with_telemetry().with_faults(FaultPlan::new(7)),
        )
        .unwrap();
        assert_eq!(plain.telemetry.to_jsonl(), observed.telemetry.to_jsonl());
        assert_eq!(plain.makespan(), observed.makespan());
        assert_eq!(plain.output_fingerprint, observed.output_fingerprint);
        assert_eq!(observed.recovery, RecoveryStats::default());
    }

    #[test]
    fn transient_failures_retry_and_converge() {
        let wf = pipeline(6);
        let baseline = run(&wf, &base_cfg()).unwrap();
        let plan = FaultPlan::new(42).with_task_failures(None, 0.3);
        let faulted = run(&wf, &base_cfg().with_faults(plan)).unwrap();
        assert!(faulted.recovery.transient_failures > 0, "p=0.3 must bite");
        assert_eq!(
            faulted.recovery.retries,
            faulted.recovery.transient_failures
        );
        assert_eq!(faulted.output_fingerprint, baseline.output_fingerprint);
        assert!(faulted.makespan() > baseline.makespan());
        faulted.check_invariants(&wf, &ClusterSpec::tiny()).unwrap();
    }

    #[test]
    fn retry_budget_exhaustion_is_a_typed_error() {
        let wf = pipeline(2);
        let plan = FaultPlan::new(1).with_task_failures(Some("stage0"), 0.9999);
        match run(&wf, &base_cfg().with_faults(plan)) {
            Err(RunError::TaskFailed {
                task_type,
                attempts,
            }) => {
                assert_eq!(task_type, "stage0");
                assert_eq!(attempts, RecoveryPolicy::default().max_retries + 1);
            }
            other => panic!("expected TaskFailed, got {other:?}"),
        }
    }

    #[test]
    fn transient_node_crash_recovers_with_same_fingerprint() {
        let wf = pipeline(8);
        let baseline = run(&wf, &base_cfg()).unwrap();
        // Crash node 0 mid-run, long before the fault-free makespan
        // ends, and bring it back shortly after.
        let at = baseline.makespan() * 0.4;
        let plan = FaultPlan::new(3).with_node_crash(0, at, Some(at));
        let faulted = run(&wf, &base_cfg().with_telemetry().with_faults(plan)).unwrap();
        assert_eq!(faulted.output_fingerprint, baseline.output_fingerprint);
        assert!(
            faulted.recovery.blocks_invalidated > 0,
            "the crash must cost something: {:?}",
            faulted.recovery
        );
        faulted.check_invariants(&wf, &ClusterSpec::tiny()).unwrap();
        let jsonl = faulted.telemetry.to_jsonl();
        assert!(jsonl.contains("\"ev\":\"node-down\""));
        assert!(jsonl.contains("\"ev\":\"node-up\""));
    }

    #[test]
    fn permanent_crash_of_every_node_is_unrecoverable() {
        let wf = pipeline(4);
        let plan = FaultPlan::new(5)
            .with_node_crash(0, 1e-4, None)
            .with_node_crash(1, 1e-4, None);
        match run(&wf, &base_cfg().with_faults(plan)) {
            Err(RunError::Unrecoverable { completed, total }) => {
                assert!(completed < total);
            }
            other => panic!("expected Unrecoverable, got {other:?}"),
        }
    }

    #[test]
    fn gpu_failure_degrades_to_cpu_only_when_allowed() {
        let wf = pipeline(4);
        let mut cfg = base_cfg();
        cfg.processor = ProcessorKind::Gpu;
        let baseline = run(&wf, &cfg).unwrap();
        // Kill the single GPU on both tiny-cluster nodes immediately.
        let plan = FaultPlan::new(9)
            .with_gpu_failure(0, 0.0)
            .with_gpu_failure(1, 0.0);
        let strict = run(&wf, &cfg.clone().with_faults(plan.clone()));
        assert!(
            matches!(strict, Err(RunError::Unrecoverable { .. })),
            "no fallback, no devices, no progress: {strict:?}"
        );
        let fallback = RecoveryPolicy {
            gpu_to_cpu_fallback: true,
            ..RecoveryPolicy::default()
        };
        let degraded = run(&wf, &cfg.with_faults(plan).with_recovery(fallback)).unwrap();
        assert!(degraded.recovery.gpu_fallbacks > 0);
        assert_eq!(degraded.output_fingerprint, baseline.output_fingerprint);
        assert!(
            degraded
                .records
                .iter()
                .all(|r| r.processor == ProcessorKind::Cpu),
            "every recorded attempt ran on a core"
        );
    }

    #[test]
    fn straggler_and_link_degradation_slow_the_run() {
        let wf = pipeline(6);
        let baseline = run(&wf, &base_cfg()).unwrap();
        let horizon = baseline.makespan() * 10.0;
        let slow = FaultPlan::new(11)
            .with_straggler(0, 0.0, horizon, 4.0)
            .with_straggler(1, 0.0, horizon, 4.0)
            .with_link_degradation(0.0, horizon, 3.0);
        let slowed = run(&wf, &base_cfg().with_faults(slow)).unwrap();
        assert!(
            slowed.makespan() > baseline.makespan() * 2.0,
            "4x compute + 3x links must dominate: {} vs {}",
            slowed.makespan(),
            baseline.makespan()
        );
        assert_eq!(slowed.output_fingerprint, baseline.output_fingerprint);
    }

    #[test]
    fn faulted_runs_reproduce_bit_for_bit() {
        let wf = pipeline(8);
        let plan = FaultPlan::new(21)
            .with_node_crash(1, 0.02, Some(0.05))
            .with_task_failures(None, 0.15);
        let cfg = base_cfg().with_telemetry().with_faults(plan);
        let a = run(&wf, &cfg).unwrap();
        let b = run(&wf, &cfg).unwrap();
        assert_eq!(a.telemetry.to_jsonl(), b.telemetry.to_jsonl());
        assert_eq!(a.makespan(), b.makespan());
        assert_eq!(a.recovery, b.recovery);
        assert_eq!(a.output_fingerprint, b.output_fingerprint);
    }
}
