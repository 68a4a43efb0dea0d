//! The master's decision and the dispatch of a task attempt: slot
//! pre-checks, node scoring and placement, resource acquisition and
//! the OOM checks.

use gpuflow_chaos::mix64;
use gpuflow_cluster::ProcessorKind;
use gpuflow_sim::{SimDuration, SimTime};

use crate::data::{DataId, DataVersion};
use crate::metrics::TaskRecord;
use crate::scheduler::{decision_overhead, place, NodeAvail, ReadyLane, SchedulingPolicy};
use crate::task::TaskId;
use crate::telemetry::{CandidateScore, Candidates, SchedulerDecision, TelemetryEvent};

use super::pipeline::{Stage, TaskRun};
use super::{Ev, Exec, RunError, NONE};

impl Exec<'_> {
    /// Does this task offload its parallel fraction to a GPU in this run?
    fn is_gpu_task(&self, tid: TaskId) -> bool {
        let t = self.wf.task(tid);
        self.cfg.processor == ProcessorKind::Gpu && !t.cpu_only && t.cost.parallel.flops > 0.0
    }

    /// The ready lane `tid` waits in: GPU tasks wait for a GPU slot,
    /// serial tasks for one core, CPU tasks with a parallel fraction
    /// for the configured thread count.
    pub(super) fn lane(&self, tid: TaskId) -> ReadyLane {
        if self.is_gpu_task(tid) {
            ReadyLane::Gpu
        } else if self.wf.task(tid).cost.parallel.flops <= 0.0 {
            ReadyLane::OneCore
        } else {
            ReadyLane::Threads
        }
    }

    /// Host cores a task occupies: GPU tasks and serial tasks hold one;
    /// CPU tasks with a parallel fraction hold the configured thread
    /// count.
    fn cores_needed(&self, tid: TaskId) -> usize {
        match self.lane(tid) {
            ReadyLane::Gpu | ReadyLane::OneCore => 1,
            ReadyLane::Threads => self.cfg.cpu_threads_per_task,
        }
    }

    /// Whether `node` had GPUs and every one of them has failed, so its
    /// GPU tasks must run on its cores. A node built without GPUs has
    /// lost none: it never hosts a GPU task.
    fn gpus_lost(&self, node: usize) -> bool {
        self.gpus_dead[node] > 0 && self.gpus_dead[node] == self.cfg.cluster.gpus_of(node)
    }

    /// Free cores on `node` and the GPU tasks it can take now. A down
    /// node offers nothing; once its devices are lost, GPU tasks get its
    /// cores if the fallback policy allows it, and nothing otherwise.
    fn offer(&self, node: usize) -> (usize, usize) {
        if !self.node_up[node] {
            return (0, 0);
        }
        let cores = self.free_cores[node];
        let gpu_slots = if !self.gpus_lost(node) {
            cores.min(self.free_gpus[node])
        } else if self.cfg.recovery.gpu_to_cpu_fallback {
            cores
        } else {
            0
        };
        (cores, gpu_slots)
    }

    /// Lineage hash of a version nobody produces (initial datasets, and
    /// their durable re-fetched copies).
    fn source_hash(v: DataVersion) -> u64 {
        mix64(0x9E37_79B9_7F4A_7C15 ^ ((v.id.0 as u64) << 32) ^ v.version as u64)
    }

    /// Fills `out` with each `(data, version)` access resolved to
    /// `(version, bytes)`, reusing its allocation.
    fn resolve(
        &self,
        accesses: impl Iterator<Item = (DataId, u32)>,
        out: &mut Vec<(DataVersion, u64)>,
    ) {
        let reg = self.wf.registry();
        out.clear();
        out.extend(
            accesses.map(|(id, version)| (DataVersion { id, version }, reg.object(id).bytes)),
        );
    }

    /// Free execution slots on `node` for `tid`.
    fn free_slots(&self, node: usize, tid: TaskId) -> usize {
        let (cores, gpu_slots) = self.offer(node);
        if self.is_gpu_task(tid) {
            gpu_slots
        } else {
            cores / self.cores_needed(tid)
        }
    }

    /// The master's decision is done: dispatch the pending assignment,
    /// then start the next decision.
    pub(super) fn on_master_done(&mut self) -> Result<(), RunError> {
        let (tid, node) = self.pending_assign.take().expect("assignment pending");
        self.master_busy = false;
        if self.faults.is_some() {
            // A fault may have invalidated the assignment while the
            // master was deciding.
            let i = tid.0 as usize;
            if self.completed[i] || self.live.is_live(tid) {
                self.try_start_master();
                return Ok(());
            }
            if self.deps_left[i] > 0 {
                // Inputs were lost mid-decision; the task will re-enter
                // through dependency tracking.
                self.try_start_master();
                return Ok(());
            }
            if self.free_slots(node, tid) == 0 {
                if !self.in_backoff[i] {
                    self.ready.insert(self.rank(tid), tid, self.lane(tid));
                }
                self.try_start_master();
                return Ok(());
            }
        }
        self.dispatch(tid, node)?;
        self.try_start_master();
        Ok(())
    }

    pub(super) fn try_start_master(&mut self) {
        if self.master_busy || self.ready.is_empty() {
            return;
        }
        // O(nodes) pre-aggregates. `place` succeeds exactly when some
        // node has a free slot for the task's resource kind, i.e. when
        // the matching aggregate below is non-zero — so the first ready
        // task (in dispatch order) in a lane these O(1) tests allow is
        // the one the seed implementation placed after scoring every
        // candidate.
        let (mut max_free_cores, mut total_free_gpu_slots) = (0, 0);
        for node in 0..self.cfg.cluster.nodes {
            let (cores, gpu_slots) = self.offer(node);
            max_free_cores = max_free_cores.max(cores);
            total_free_gpu_slots += gpu_slots;
        }
        if max_free_cores == 0 {
            return;
        }
        // Host-side decision timing, only when someone will consume it.
        let host_t0 = if self.cfg.collect_telemetry {
            // lint: allow(D2, host overhead probe; host_nanos is excluded from artifact serialization)
            Some(std::time::Instant::now())
        } else {
            None
        };
        // `queue_depth` is sampled first so telemetry still counts the
        // chosen task (the seed removed it only after scoring).
        let queue_depth = self.ready.len();
        let chosen = self.ready.take_first(|lane| match lane {
            ReadyLane::Gpu => total_free_gpu_slots > 0,
            ReadyLane::OneCore => max_free_cores >= 1,
            ReadyLane::Threads => max_free_cores >= self.cfg.cpu_threads_per_task,
        });
        let Some(tid) = chosen else { return };

        // Score the nodes exactly once, for the task that will be
        // placed. The task's reads are resolved to `(version, bytes)`
        // once, then each node only pays a cache peek per read; without
        // cache scoring (fixed per run) `reads` stays empty.
        let score_cache = matches!(
            self.cfg.policy,
            SchedulingPolicy::DataLocality | SchedulingPolicy::CriticalPath
        );
        let mut avail = std::mem::take(&mut self.avail_scratch);
        let mut reads = std::mem::take(&mut self.reads_scratch);
        avail.clear();
        if score_cache {
            self.resolve(self.wf.task(tid).reads(), &mut reads);
        }
        for node in 0..self.cfg.cluster.nodes {
            let free_slots = self.free_slots(node, tid);
            let cached_bytes = if score_cache && free_slots > 0 {
                reads
                    .iter()
                    .filter(|&&(key, _)| self.caches[node].peek(key))
                    .map(|&(_, bytes)| bytes)
                    .sum()
            } else {
                0
            };
            avail.push(NodeAvail {
                node,
                free_slots,
                cached_bytes,
            });
        }
        // Resubmission steers a previously failed task away from the
        // node that killed it, when any alternative has capacity.
        if self.faults.is_some() && self.cfg.recovery.resubmit_alternate {
            let bad = self.last_failed_node[tid.0 as usize];
            if bad != NONE
                && avail
                    .iter()
                    .any(|a| a.node != bad as usize && a.free_slots > 0)
            {
                if let Some(slot) = avail.iter_mut().find(|a| a.node == bad as usize) {
                    slot.free_slots = 0;
                }
            }
        }
        let placed = place(self.cfg.policy, &avail, self.rr_cursor);
        let node = placed.expect("a ready task passing the slot pre-checks is placeable");
        self.rr_cursor = self.rr_cursor.wrapping_add(1);
        self.master_busy = true;
        self.pending_assign = Some((tid, node));
        let overhead = decision_overhead(
            self.cfg.policy,
            self.cfg.cluster.sched_overhead_fifo,
            self.cfg.cluster.sched_overhead_locality,
        );
        self.sched_overhead += overhead.as_secs_f64();
        if self.bus.active() {
            // Node indices, slot counts and the ready queue's depth (at
            // most the task count, whose ids are `u32`) fit the events'
            // `u32` fields.
            let decision = SchedulerDecision {
                at: self.now(),
                task: tid,
                chosen: node as u32,
                queue_depth: queue_depth as u32,
                sim_overhead: overhead,
                host_nanos: host_t0.map_or(0, |t| {
                    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
                }),
                candidates: Candidates::default(),
            };
            self.bus.decide(
                decision,
                avail.iter().map(|a| CandidateScore {
                    node: a.node as u32,
                    free_slots: a.free_slots as u32,
                    cached_bytes: a.cached_bytes,
                }),
            );
        }
        self.avail_scratch = avail;
        self.reads_scratch = reads;
        self.engine.schedule_after(overhead, Ev::MasterDone);
    }

    fn dispatch(&mut self, tid: TaskId, node: usize) -> Result<(), RunError> {
        let spec = self.wf.task(tid);
        let gpu_capable = self.is_gpu_task(tid);
        // Graceful degradation: a GPU task lands on its core when every
        // device on the node has failed (the scheduler only offers such
        // a node when the fallback policy is on).
        let on_gpu = gpu_capable && !self.gpus_lost(node);
        if gpu_capable && !on_gpu {
            self.stats.gpu_fallbacks += 1;
        }
        self.attempts[tid.0 as usize] += 1;
        // Reuse the buffers of a finished attempt; steady-state dispatch
        // then allocates nothing.
        let (mut inputs, mut outputs, mut core_ids) = self.live.take_buffers();
        self.resolve(spec.reads(), &mut inputs);
        self.resolve(spec.writes(), &mut outputs);
        let in_bytes: u64 = inputs.iter().map(|(_, b)| b).sum();
        let out_bytes: u64 = outputs.iter().map(|(_, b)| b).sum();

        // OOM checks — these abort the run, as on the real cluster.
        if on_gpu {
            let required = in_bytes + out_bytes + spec.cost.gpu_extra_bytes;
            let capacity = self.cfg.cluster.node.gpu.memory_bytes;
            if required > capacity {
                return Err(RunError::GpuOom {
                    task_type: spec.task_type.to_string(),
                    required,
                    capacity,
                });
            }
        }
        let host_footprint = in_bytes + out_bytes + spec.cost.host_extra_bytes;
        let ram = self.cfg.cluster.node.ram_bytes;
        if self.ram_used[node] + host_footprint > ram {
            return Err(RunError::HostOom {
                task_type: spec.task_type.to_string(),
                required: self.ram_used[node] + host_footprint,
                capacity: ram,
            });
        }

        // Acquire resources (the scheduler guaranteed availability).
        let cores = self.cores_needed(tid);
        assert!(
            self.free_cores[node] >= cores,
            "dispatch without free cores"
        );
        self.free_cores[node] -= cores;
        core_ids.extend((0..cores).map(|_| {
            self.core_stacks[node]
                .pop()
                .expect("core identity available")
        }));
        let gpu_id = if on_gpu {
            assert!(self.free_gpus[node] > 0, "dispatch without a free GPU");
            self.free_gpus[node] -= 1;
            Some(self.gpu_stacks[node].pop().expect("GPU identity available"))
        } else {
            None
        };
        let in_use = self.cfg.cluster.cores_of(node) - self.free_cores[node];
        self.peak_cores[node] = self.peak_cores[node].max(in_use);
        self.ram_used[node] += host_footprint;
        self.peak_ram = self.peak_ram.max(self.ram_used[node]);

        let now = self.now();
        // Fold the attempt's input lineage now: every input version is
        // available at dispatch (dependency tracking guarantees it).
        let mut in_hash = mix64(0x517C_C1B7_2722_0A95 ^ tid.0 as u64);
        for &(v, _) in &inputs {
            let hv = self
                .versions
                .committed(self.versions.slot(v.id, v.version))
                .unwrap_or_else(|| Self::source_hash(v));
            in_hash = mix64(in_hash ^ hv);
        }
        inputs.reverse();
        outputs.reverse();
        let core = core_ids[0];
        self.live.insert(TaskRun {
            node,
            stage: Stage::SerialFrac, // placeholder; set by enter_inputs
            cores_held: cores,
            core_ids,
            gpu_id,
            inputs,
            outputs,
            in_bytes,
            out_bytes,
            host_footprint,
            anchor: now,
            flow_start: now,
            in_hash,
            rec: TaskRecord {
                task: tid,
                task_type: spec.task_type.clone(),
                node,
                core,
                cores: cores as u16,
                processor: if on_gpu {
                    ProcessorKind::Gpu
                } else {
                    ProcessorKind::Cpu
                },
                level: self.wf.level(tid),
                start: now,
                end: now,
                deser: SimDuration::ZERO,
                ser: SimDuration::ZERO,
                serial: SimDuration::ZERO,
                parallel: SimDuration::ZERO,
                comm: SimDuration::ZERO,
                cache_hits: 0,
                cache_misses: 0,
            },
        });
        debug_assert!(
            self.live.len() <= self.cfg.cluster.total_cpu_cores(),
            "every live attempt holds a core"
        );
        if self.bus.active() {
            self.bus.push(TelemetryEvent::TaskDispatched {
                at: now,
                task: tid,
                task_type: spec.task_type.clone(),
                node: node as u32,
                core,
                cores: cores as u16,
                gpu: gpu_id,
            });
            self.push_gauge(node, now);
        }
        self.enter_inputs(tid);
        Ok(())
    }

    /// Ends `tid`'s live attempt: gives its cores, RAM and — unless the
    /// device itself failed — its GPU back to the node, and charges the
    /// time they were held. Returns the ended attempt.
    pub(super) fn release(&mut self, tid: TaskId, release_gpu: bool) -> &mut TaskRun {
        let now = self.now();
        let run = self.live.release(tid);
        let (node, held) = (run.node, (now - run.rec.start).as_secs_f64());
        self.free_cores[node] += run.cores_held;
        self.core_stacks[node].extend(run.core_ids.iter().copied());
        self.core_held_seconds += run.cores_held as f64 * held;
        if let Some(gpu) = run.gpu_id {
            self.gpu_held_seconds += held;
            if release_gpu {
                self.free_gpus[node] += 1;
                self.gpu_stacks[node].push(gpu);
            }
        }
        self.ram_used[node] -= run.host_footprint;
        run
    }

    /// Emits a [`TelemetryEvent::NodeGauge`] sample for `node` (callers
    /// guard on `bus.active()`).
    pub(super) fn push_gauge(&mut self, node: usize, at: SimTime) {
        let c = &self.cfg.cluster;
        self.bus.push(TelemetryEvent::NodeGauge {
            at,
            node: node as u32,
            ram_used: self.ram_used[node],
            busy_cores: (c.cores_of(node) - self.free_cores[node]) as u32,
            busy_gpus: (c.gpus_of(node) - self.free_gpus[node]) as u32,
        });
    }
}

#[cfg(test)]
mod critical_path_tests {
    use super::*;
    use crate::data::Direction;
    use crate::executor::{run, RunConfig};
    use crate::task::CostProfile;
    use crate::workflow::{Workflow, WorkflowBuilder};
    use gpuflow_cluster::ClusterSpec;
    use gpuflow_cluster::KernelWork;

    /// A 3-task heavy chain competes with light filler tasks on two
    /// cores. Generation order starts the fillers (lower ids) and delays
    /// the chain — which is the critical path — while the CP policy
    /// starts the chain immediately and hides the fillers behind it.
    fn contended_workflow() -> Workflow {
        let mut b = WorkflowBuilder::new();
        let heavy = CostProfile::fully_parallel(KernelWork {
            flops: 3e10,
            bytes: 1e6,
            parallelism: 1e9,
        });
        let light = CostProfile::fully_parallel(KernelWork {
            flops: 1e10,
            bytes: 1e6,
            parallelism: 1e9,
        });
        // Fillers submitted FIRST (generation-order bait).
        for i in 0..3 {
            let s = b.input(format!("s{i}"), 1 << 20);
            b.submit("filler", light, &[(s, Direction::In)], false)
                .unwrap();
        }
        // The chain.
        let x = b.input("x", 1 << 20);
        let mut prev = x;
        for i in 0..3 {
            let out = b.intermediate(format!("c{i}"), 1 << 20);
            b.submit(
                "chain",
                heavy,
                &[(prev, Direction::In), (out, Direction::Out)],
                false,
            )
            .unwrap();
            prev = out;
        }
        b.build()
    }

    fn two_core_cluster() -> ClusterSpec {
        let mut c = ClusterSpec::tiny();
        c.nodes = 1;
        c.node.cpu_cores = 2;
        c.node.gpus = 1;
        c
    }

    #[test]
    fn upward_rank_prioritises_the_chain() {
        let wf = contended_workflow();
        let mut cfg = RunConfig::new(two_core_cluster(), ProcessorKind::Cpu)
            .with_policy(SchedulingPolicy::CriticalPath);
        cfg.jitter_sigma = 0.0;
        let cp = run(&wf, &cfg).unwrap();
        let fifo_cfg = {
            let mut c = cfg.clone();
            c.policy = SchedulingPolicy::GenerationOrder;
            c
        };
        let fifo = run(&wf, &fifo_cfg).unwrap();
        // FIFO fills both cores with fillers before the chain can start;
        // CP starts the critical path at t=0 and hides the fillers on the
        // second core.
        assert!(
            cp.makespan() < fifo.makespan() * 0.95,
            "critical-path should beat FIFO here: {} vs {}",
            cp.makespan(),
            fifo.makespan()
        );
        // First dispatched task under CP is the chain head, not a filler.
        let first_cp = cp.records.iter().min_by_key(|r| r.start).unwrap();
        assert_eq!(first_cp.task_type, "chain");
    }

    #[test]
    fn critical_path_completes_all_workload_shapes() {
        let wf = contended_workflow();
        for proc in ProcessorKind::ALL {
            let cfg = RunConfig::new(ClusterSpec::tiny(), proc)
                .with_policy(SchedulingPolicy::CriticalPath);
            let report = run(&wf, &cfg).unwrap();
            assert_eq!(report.records.len(), wf.tasks().len());
        }
    }
}

#[cfg(test)]
mod heterogeneous_tests {
    use super::*;
    use crate::data::Direction;
    use crate::executor::{run, RunConfig};
    use crate::task::CostProfile;
    use crate::workflow::{Workflow, WorkflowBuilder};
    use gpuflow_chaos::{FaultPlan, RecoveryPolicy};
    use gpuflow_cluster::ClusterSpec;
    use gpuflow_cluster::{KernelWork, NodeResources};

    fn gpu_heavy_workflow(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let cost = CostProfile::fully_parallel(KernelWork {
            flops: 1e11,
            bytes: 1e8,
            parallelism: 1e9,
        });
        for i in 0..n {
            let x = b.input(format!("x{i}"), 1 << 20);
            b.submit("work", cost, &[(x, Direction::In)], false)
                .unwrap();
        }
        b.build()
    }

    #[test]
    fn gpu_tasks_avoid_gpu_less_nodes() {
        // Node 0 has no GPUs; every GPU task must land on node 1, also
        // under a fault plan with the GPU-to-CPU fallback on: a node
        // that never had a device has not lost one.
        let cluster = ClusterSpec::tiny().with_overrides(vec![
            NodeResources {
                cpu_cores: 4,
                gpus: 0,
            },
            NodeResources {
                cpu_cores: 4,
                gpus: 2,
            },
        ]);
        let wf = gpu_heavy_workflow(6);
        let cfg =
            RunConfig::new(cluster.clone(), ProcessorKind::Gpu).with_recovery(RecoveryPolicy {
                gpu_to_cpu_fallback: true,
                ..RecoveryPolicy::default()
            });
        let clean = run(&wf, &cfg).unwrap();
        // A straggler window that opens long after the run has ended.
        let idle_plan = FaultPlan::new(1).with_straggler(0, 1e6, 2e6, 2.0);
        let faulted = run(&wf, &cfg.with_faults(idle_plan)).unwrap();
        for report in [&clean, &faulted] {
            assert!(report.records.iter().all(|r| r.node == 1));
            assert_eq!(report.recovery.gpu_fallbacks, 0);
            report.check_invariants(&wf, &cluster).unwrap();
        }
        assert_eq!(faulted.makespan(), clean.makespan());
    }

    #[test]
    fn cpu_runs_use_all_heterogeneous_cores() {
        let cluster = ClusterSpec::tiny().with_overrides(vec![
            NodeResources {
                cpu_cores: 6,
                gpus: 0,
            },
            NodeResources {
                cpu_cores: 2,
                gpus: 2,
            },
        ]);
        let wf = gpu_heavy_workflow(8);
        let report = run(&wf, &RunConfig::new(cluster.clone(), ProcessorKind::Cpu)).unwrap();
        report.check_invariants(&wf, &cluster).unwrap();
        // Both nodes participated and node 0 hosted more tasks.
        let on_node = |n: usize| report.records.iter().filter(|r| r.node == n).count();
        assert!(on_node(0) > on_node(1), "{} vs {}", on_node(0), on_node(1));
        assert!(on_node(1) > 0);
    }

    #[test]
    fn denser_gpu_nodes_pay_more_pcie_contention() {
        // Same 8 GPUs total: spread over 8 nodes (1 per bus) vs packed
        // into 2 nodes (4 per bus). Transfer-heavy tasks finish sooner
        // when every device has its own PCIe bus.
        let mut spread = ClusterSpec::minotauro();
        spread.node.gpus = 1;
        let packed = ClusterSpec::minotauro().with_overrides(
            (0..8)
                .map(|n| NodeResources {
                    cpu_cores: 16,
                    gpus: if n < 2 { 4 } else { 0 },
                })
                .collect(),
        );
        // Transfer-dominated GPU tasks: big bytes, modest flops.
        let mut b = WorkflowBuilder::new();
        let cost = CostProfile::fully_parallel(KernelWork {
            flops: 1e9,
            bytes: 1e9,
            parallelism: 1e9,
        });
        for i in 0..8 {
            let x = b.input(format!("x{i}"), 1 << 30);
            b.submit("xfer", cost, &[(x, Direction::In)], false)
                .unwrap();
        }
        let wf = b.build();
        let t_spread = run(&wf, &RunConfig::new(spread, ProcessorKind::Gpu))
            .unwrap()
            .makespan();
        let t_packed = run(&wf, &RunConfig::new(packed, ProcessorKind::Gpu))
            .unwrap()
            .makespan();
        assert!(
            t_spread < t_packed,
            "dedicated buses must win: spread {t_spread} vs packed {t_packed}"
        );
    }
}
