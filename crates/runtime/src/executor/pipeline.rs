//! The stage/flow pipeline of Fig. 4: reads and decodes, the serial
//! fraction, H2D / kernel / D2H or the CPU parallel fraction, encodes
//! and writes, driven by stage delays and link-flow completions.

use gpuflow_chaos::mix64;
use gpuflow_cluster::StorageArchitecture;
use gpuflow_sim::{GroupedLink, SimDuration, SimTime};

use crate::data::{DataId, DataVersion};
use crate::metrics::TaskRecord;
use crate::task::TaskId;
use crate::telemetry::{LinkKind, TelemetryEvent};
use crate::trace::TraceState;

use super::{Ev, Exec, RunConfig, NONE};

/// A [`TaskRun`]'s buffers — `(inputs, outputs, core_ids)` — handed from
/// a released entry to the next dispatch, so dispatch reuses their
/// capacity instead of allocating three fresh vectors per task.
type RunBuffers = (Vec<(DataVersion, u64)>, Vec<(DataVersion, u64)>, Vec<u16>);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum LinkKey {
    Pcie(usize),
    Disk(usize),
    Shared,
}

/// A link of the cluster: its flows, each owned by the attempt
/// `(task, attempt)` that started it, and the `(time, seq)` of its armed
/// tick while one is pending.
pub(super) struct Link {
    flows: GroupedLink<(TaskId, u32)>,
    tick: Option<(SimTime, u64)>,
}

impl Link {
    pub(super) fn new(global_bps: f64, groups: usize, group_cap_bps: f64) -> Self {
        Link {
            flows: GroupedLink::new(global_bps, groups, group_cap_bps),
            tick: None,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub(super) enum Stage {
    ReadLatency { key: DataVersion, bytes: u64 },
    ReadFlow { key: DataVersion, bytes: u64 },
    Decode { key: DataVersion, bytes: u64 },
    SerialFrac,
    H2dLatency,
    H2dFlow,
    Kernel,
    D2hLatency,
    D2hFlow,
    CpuCompute,
    Encode { key: DataVersion, bytes: u64 },
    WriteLatency { key: DataVersion, bytes: u64 },
    WriteFlow { key: DataVersion, bytes: u64 },
}

pub(super) struct TaskRun {
    pub(super) node: usize,
    pub(super) stage: Stage,
    pub(super) cores_held: usize,
    pub(super) core_ids: Vec<u16>,
    /// GPU device identity held for the task's lifetime; `Some` exactly
    /// when the parallel fraction runs on a GPU.
    pub(super) gpu_id: Option<u16>,
    pub(super) inputs: Vec<(DataVersion, u64)>, // pending, reversed (pop from back)
    pub(super) outputs: Vec<(DataVersion, u64)>, // pending, reversed
    pub(super) in_bytes: u64,
    pub(super) out_bytes: u64,
    pub(super) host_footprint: u64,
    pub(super) anchor: SimTime,
    /// Start of the in-flight link flow (for transfer telemetry).
    pub(super) flow_start: SimTime,
    /// Lineage hash folded over this attempt's input versions at
    /// dispatch time (inputs are guaranteed available then, even if a
    /// later crash invalidates them mid-run).
    pub(super) in_hash: u64,
    /// The attempt's record; `rec.task` names the attempt's task.
    pub(super) rec: TaskRecord,
}

/// The live attempts: a slab of [`TaskRun`]s and, per task, the index
/// of its live entry. Every live attempt holds a core, so the slab never
/// outgrows the cluster's cores. A released entry keeps its buffers and
/// the next dispatch reuses it in place, so steady-state dispatch
/// allocates nothing.
pub(super) struct LiveRuns {
    /// Slab index of each task's live attempt, `NONE` without one.
    index: Vec<u32>,
    runs: Vec<TaskRun>,
    /// Released entries; the last one is reused first.
    free: Vec<u32>,
}

impl LiveRuns {
    pub(super) fn new(tasks: usize, cores: usize) -> Self {
        LiveRuns {
            index: vec![NONE; tasks],
            runs: Vec::with_capacity(cores.min(tasks)),
            free: Vec::new(),
        }
    }

    pub(super) fn is_live(&self, tid: TaskId) -> bool {
        self.index[tid.0 as usize] != NONE
    }

    /// `tid`'s live attempt.
    ///
    /// # Panics
    /// Panics when `tid` has no live attempt.
    pub(super) fn run(&mut self, tid: TaskId) -> &mut TaskRun {
        let k = self.index[tid.0 as usize];
        assert!(k != NONE, "{tid} has no live attempt");
        &mut self.runs[k as usize]
    }

    /// Number of live attempts.
    pub(super) fn len(&self) -> usize {
        self.runs.len() - self.free.len()
    }

    /// Empty `(inputs, outputs, core_ids)` buffers for the next
    /// dispatch, with the capacity of the entry it will reuse.
    pub(super) fn take_buffers(&mut self) -> RunBuffers {
        let Some(&k) = self.free.last() else {
            return Default::default();
        };
        let run = &mut self.runs[k as usize];
        let mut bufs = (
            std::mem::take(&mut run.inputs),
            std::mem::take(&mut run.outputs),
            std::mem::take(&mut run.core_ids),
        );
        bufs.0.clear();
        bufs.1.clear();
        bufs.2.clear();
        bufs
    }

    /// Makes `run` the live attempt of its task, in the last released
    /// entry if there is one.
    pub(super) fn insert(&mut self, run: TaskRun) {
        let i = run.rec.task.0 as usize;
        debug_assert!(self.index[i] == NONE, "{} is already running", run.rec.task);
        self.index[i] = match self.free.pop() {
            Some(k) => {
                self.runs[k as usize] = run;
                k
            }
            None => {
                self.runs.push(run);
                (self.runs.len() - 1) as u32
            }
        };
    }

    /// Ends `tid`'s live attempt. Its entry stays readable until the
    /// next [`LiveRuns::insert`] reuses it.
    ///
    /// # Panics
    /// Panics when `tid` has no live attempt.
    pub(super) fn release(&mut self, tid: TaskId) -> &mut TaskRun {
        let k = std::mem::replace(&mut self.index[tid.0 as usize], NONE);
        assert!(k != NONE, "releasing {tid} without a live attempt");
        self.free.push(k);
        &mut self.runs[k as usize]
    }

    /// The live attempts, in slab order.
    pub(super) fn iter(&self) -> impl Iterator<Item = &TaskRun> {
        // A released entry is no longer its task's index entry (the task
        // has none, or a newer one).
        self.runs
            .iter()
            .enumerate()
            .filter(|&(k, r)| self.index[r.rec.task.0 as usize] == k as u32)
            .map(|(_, r)| r)
    }
}

impl Exec<'_> {
    /// Schedules a stage delay tagged with the task's current attempt,
    /// so delays outliving an aborted attempt are dropped as stale.
    fn delay(&mut self, d: SimDuration, tid: TaskId) {
        let att = self.attempts[tid.0 as usize];
        self.engine.schedule_after(d, Ev::TaskDelay(tid, att));
    }

    /// Schedules a stage of `d` nominal work (compute or (de)serialization)
    /// for `tid`: jittered, then stretched by a straggler window on its
    /// node. Latencies are fixed and go through [`Exec::delay`] directly.
    fn work_delay(&mut self, tid: TaskId, d: SimDuration) {
        let d = self.jitter.apply(d);
        let node = self.live.run(tid).node;
        let d = self.stretch(node, d);
        self.delay(d, tid);
    }

    /// Disk home of `data`, if it has one (dense-table lookup).
    fn home_of(&self, data: DataId) -> Option<usize> {
        match self.home[data.0 as usize] {
            NONE => None,
            h => Some(h as usize),
        }
    }

    /// The link behind `key`.
    fn link(&mut self, key: LinkKey) -> &mut Link {
        match key {
            LinkKey::Pcie(n) => &mut self.pcie[n],
            LinkKey::Disk(n) => &mut self.disks[n],
            LinkKey::Shared => &mut self.shared,
        }
    }

    /// Moves `tid` into the flow stage `stage` and starts its transfer
    /// of `bytes` on `key`.
    fn start_flow(&mut self, tid: TaskId, stage: Stage, key: LinkKey, bytes: u64) {
        let now = self.now();
        let run = self.live.run(tid);
        run.stage = stage;
        run.flow_start = now;
        // The shared file system has one front-end (NIC) per node; a
        // PCIe bus or a local disk has a single group.
        let group = if key == LinkKey::Shared { run.node } else { 0 };
        let eff = self.flow_bytes(bytes);
        let owner = (tid, self.attempts[tid.0 as usize]);
        self.link(key).flows.start(now, group, eff, owner);
        self.reschedule_link(key);
    }

    /// Re-arms `key`'s tick after a membership change: cancels the
    /// pending tick the change superseded and schedules one at the
    /// link's next completion.
    fn reschedule_link(&mut self, key: LinkKey) {
        let now = self.now();
        let link = self.link(key);
        let (armed, next) = (link.tick.take(), link.flows.next_completion(now));
        if let Some((t, seq)) = armed {
            let cancelled = self.engine.cancel(t, seq);
            debug_assert!(cancelled, "an armed tick is pending");
        }
        if let Some(t) = next {
            let t = t.max(now);
            let seq = self.engine.schedule_at(t, Ev::LinkTick(key));
            self.link(key).tick = Some((t, seq));
        }
    }

    /// `key`'s armed tick popped: hands each finished flow to its
    /// attempt, unless that attempt was aborted since (the orphaned flow
    /// drained at its full share), and re-arms the link.
    pub(super) fn on_link_tick(&mut self, key: LinkKey) {
        let now = self.now();
        let mut done = std::mem::take(&mut self.harvested);
        let link = self.link(key);
        link.tick = None;
        link.flows.harvest(now, &mut done);
        for &(tid, att) in &done {
            let i = tid.0 as usize;
            if self.live.is_live(tid) && att == self.attempts[i] {
                self.on_flow_done(tid);
            }
        }
        done.clear();
        self.harvested = done;
        self.reschedule_link(key);
    }

    /// The link a storage access from `node` travels on and the latency
    /// before its flow starts: the shared file system, or the local disk
    /// homing `block` (a write, `None`, goes to `node`'s own disk).
    fn storage(&self, node: usize, block: Option<DataId>) -> (LinkKey, SimDuration) {
        let c = &self.cfg.cluster;
        match self.cfg.storage {
            StorageArchitecture::SharedDisk => {
                (LinkKey::Shared, c.network.latency + c.shared_disk.latency)
            }
            StorageArchitecture::LocalDisk => {
                let home = block.and_then(|b| self.home_of(b)).unwrap_or(node);
                let latency = if home == node {
                    c.node.local_disk.latency
                } else {
                    // Remote block: disk seek plus a network round trip.
                    c.node.local_disk.latency + c.network.latency + c.network.latency
                };
                (LinkKey::Disk(home), latency)
            }
        }
    }

    /// Consumes pending inputs: cache hits cost nothing; the first miss
    /// starts a read. When inputs are exhausted, moves on to compute.
    pub(super) fn enter_inputs(&mut self, tid: TaskId) {
        loop {
            let run = self.live.run(tid);
            let node = run.node;
            match run.inputs.pop() {
                Some((key, bytes)) => {
                    let hit = self.caches[node].lookup(key);
                    if self.bus.active() {
                        self.bus.push(TelemetryEvent::CacheAccess {
                            at: self.engine.now(),
                            node: node as u32,
                            task: tid,
                            key,
                            hit,
                        });
                    }
                    if hit {
                        self.live.run(tid).rec.cache_hits += 1;
                        continue;
                    }
                    {
                        let run = self.live.run(tid);
                        run.rec.cache_misses += 1;
                        run.anchor = self.engine.now();
                        run.stage = Stage::ReadLatency { key, bytes };
                    }
                    let (_, latency) = self.storage(node, Some(key.id));
                    self.delay(latency, tid);
                    return;
                }
                None => {
                    self.enter_compute(tid);
                    return;
                }
            }
        }
    }

    fn enter_compute(&mut self, tid: TaskId) {
        let cost = self.wf.task(tid).cost;
        let serial_time = self.cfg.cluster.node.cpu.time(&cost.serial);
        if !serial_time.is_zero() {
            let now = self.now();
            let run = self.live.run(tid);
            run.stage = Stage::SerialFrac;
            run.anchor = now;
            self.work_delay(tid, serial_time);
        } else {
            self.enter_parallel(tid);
        }
    }

    fn enter_parallel(&mut self, tid: TaskId) {
        let cost = self.wf.task(tid).cost;
        if cost.parallel.flops <= 0.0 && cost.parallel.bytes <= 0.0 {
            self.enter_outputs(tid);
            return;
        }
        let now = self.now();
        let on_gpu = self.live.run(tid).gpu_id.is_some();
        if on_gpu {
            let run = self.live.run(tid);
            run.stage = Stage::H2dLatency;
            run.anchor = now;
            let latency = self.cfg.cluster.node.pcie.latency;
            self.delay(latency, tid);
        } else {
            let run = self.live.run(tid);
            run.stage = Stage::CpuCompute;
            run.anchor = now;
            let speedup = RunConfig::thread_speedup(run.cores_held);
            let single = self.cfg.cluster.node.cpu.time(&cost.parallel);
            self.work_delay(tid, single.mul_f64(1.0 / speedup));
        }
    }

    fn enter_outputs(&mut self, tid: TaskId) {
        let now = self.now();
        let next = self.live.run(tid).outputs.pop();
        match next {
            Some((key, bytes)) => {
                let run = self.live.run(tid);
                run.stage = Stage::Encode { key, bytes };
                run.anchor = now;
                self.work_delay(tid, self.cfg.cluster.serde.serialize_time(bytes as f64));
            }
            None => self.finalize(tid),
        }
    }

    /// A stage delay of `tid`'s attempt `att` elapsed: move the task to
    /// its next stage, unless the attempt died or was superseded since.
    pub(super) fn on_delay_done(&mut self, tid: TaskId, att: u32) {
        let i = tid.0 as usize;
        if !self.live.is_live(tid) || att != self.attempts[i] {
            return;
        }
        let now = self.now();
        let run = self.live.run(tid);
        let (stage, node, anchor) = (run.stage, run.node, run.anchor);
        match stage {
            Stage::ReadLatency { key, bytes } => {
                let (link, _) = self.storage(node, Some(key.id));
                self.start_flow(tid, Stage::ReadFlow { key, bytes }, link, bytes);
            }
            Stage::Decode { key, bytes } => {
                self.cache_insert(node, key, bytes, now);
                self.close_stage(tid, TraceState::Deserialize);
                self.enter_inputs(tid);
            }
            Stage::SerialFrac => {
                self.close_stage(tid, TraceState::SerialFraction);
                self.enter_parallel(tid);
            }
            Stage::H2dLatency => {
                let bytes = run.in_bytes;
                self.start_flow(tid, Stage::H2dFlow, LinkKey::Pcie(node), bytes);
            }
            Stage::Kernel => {
                run.stage = Stage::D2hLatency;
                self.gpu_kernel_seconds += (now - anchor).as_secs_f64();
                self.close_stage(tid, TraceState::ParallelFraction);
                self.delay(self.cfg.cluster.node.pcie.latency, tid);
            }
            Stage::D2hLatency => {
                let bytes = run.out_bytes;
                self.start_flow(tid, Stage::D2hFlow, LinkKey::Pcie(node), bytes);
            }
            Stage::CpuCompute => {
                self.close_stage(tid, TraceState::ParallelFraction);
                self.enter_outputs(tid);
            }
            Stage::Encode { key, bytes } => {
                run.stage = Stage::WriteLatency { key, bytes };
                let (_, latency) = self.storage(node, None);
                self.delay(latency, tid);
            }
            Stage::WriteLatency { key, bytes } => {
                let (link, _) = self.storage(node, None);
                self.start_flow(tid, Stage::WriteFlow { key, bytes }, link, bytes);
            }
            Stage::ReadFlow { .. } | Stage::H2dFlow | Stage::D2hFlow | Stage::WriteFlow { .. } => {
                unreachable!("flow stages complete via link ticks, not delays")
            }
        }
    }

    /// Emits a [`TelemetryEvent::Transfer`] for a completed link flow
    /// of `tid` (callers guard on `bus.active()`).
    fn push_transfer(&mut self, tid: TaskId, link: LinkKind, bytes: u64, t1: SimTime) {
        let run = self.live.run(tid);
        let (node, t0) = (run.node, run.flow_start);
        self.bus.push(TelemetryEvent::Transfer {
            task: tid,
            node: node as u32,
            link,
            bytes,
            t0,
            t1,
        });
    }

    fn on_flow_done(&mut self, tid: TaskId) {
        let now = self.now();
        let run = self.live.run(tid);
        let (stage, node) = (run.stage, run.node);
        match stage {
            Stage::ReadFlow { key, bytes } => {
                // Storage read finished; decode on the held core.
                run.stage = Stage::Decode { key, bytes };
                if self.bus.active() {
                    self.push_transfer(tid, LinkKind::StorageRead, bytes, now);
                }
                self.work_delay(tid, self.cfg.cluster.serde.deserialize_time(bytes as f64));
            }
            Stage::H2dFlow => {
                run.stage = Stage::Kernel;
                let bytes = run.in_bytes;
                if self.bus.active() {
                    self.push_transfer(tid, LinkKind::HostToDevice, bytes, now);
                }
                self.close_stage(tid, TraceState::CpuGpuComm);
                let cost = self.wf.task(tid).cost;
                self.work_delay(tid, self.cfg.cluster.node.gpu.time(&cost.parallel));
            }
            Stage::D2hFlow => {
                let bytes = run.out_bytes;
                if self.bus.active() {
                    self.push_transfer(tid, LinkKind::DeviceToHost, bytes, now);
                }
                self.close_stage(tid, TraceState::CpuGpuComm);
                self.enter_outputs(tid);
            }
            Stage::WriteFlow { key, bytes } => {
                if self.bus.active() {
                    self.push_transfer(tid, LinkKind::StorageWrite, bytes, now);
                }
                // Output object stays in the worker's memory cache and,
                // with local disks, now lives on this node's disk.
                self.cache_insert(node, key, bytes, now);
                if self.cfg.storage == StorageArchitecture::LocalDisk {
                    self.home[key.id.0 as usize] = node as u32;
                    if self.faults.is_some() {
                        // Written versions on a local disk die with the
                        // node; shared-disk writes are durable.
                        let slot = self.versions.slot(key.id, key.version);
                        self.versions.home[slot] = node as u32;
                    }
                }
                self.close_stage(tid, TraceState::Serialize);
                self.enter_outputs(tid);
            }
            other => unreachable!("unexpected flow completion in stage {other:?}"),
        }
    }

    fn finalize(&mut self, tid: TaskId) {
        let i = tid.0 as usize;
        // A chaos plan may kill this attempt at its commit point; the
        // sampler is a stateless hash of (plan seed, task, attempt), so
        // the verdict is identical at any thread count and the jitter
        // stream is never touched.
        if let Some(plan) = self.faults {
            let p = plan.failure_probability(self.wf.task(tid).task_type.as_str());
            if p > 0.0
                && gpuflow_chaos::transient_failure(
                    plan.seed,
                    tid.0,
                    self.attempts[i].saturating_sub(1),
                    p,
                )
            {
                self.fail_transient(tid);
                self.try_start_master();
                return;
            }
        }
        let now = self.now();
        let run = self.release(tid, true);
        run.rec.end = now;
        let (node, in_hash, rec) = (run.node, run.in_hash, run.rec.clone());
        // Commit the outputs' lineage hashes: pure functions of the task
        // and its input lineage, so a regenerated producer recommits the
        // exact value a crash destroyed.
        for (id, version) in self.wf.task(tid).writes() {
            let h = mix64(in_hash ^ (((id.0 as u64) << 32) | version as u64));
            let slot = self.versions.slot(id, version);
            self.versions.commit(slot, h);
        }
        debug_assert!(!self.completed[i], "double completion of {tid}");
        self.completed[i] = true;
        if !self.recorded[i] {
            // Only the first successful attempt is recorded; lineage
            // re-executions keep the books at one record per task.
            self.recorded[i] = true;
            self.records.push(rec);
            self.done += 1;
            self.job_task_done(tid);
        }
        if self.bus.active() {
            self.bus.push(TelemetryEvent::TaskCompleted {
                at: now,
                task: tid,
                node: node as u32,
            });
            self.push_gauge(node, now);
        }
        for &succ in self.wf.successors(tid) {
            let si = succ.0 as usize;
            if self.completed[si] || self.live.is_live(succ) {
                // A lineage re-execution's successor may already be
                // done or running; never feed it back into the queue.
                continue;
            }
            let d = &mut self.deps_left[si];
            *d = d.saturating_sub(1);
            if *d == 0 {
                let pending = self.pending_assign.map(|(t, _)| t) == Some(succ);
                if !self.in_backoff[si] && !pending {
                    self.admit(succ);
                }
            }
        }
        self.try_start_master();
    }

    /// Closes `tid`'s processing stage `state`, open since the run's
    /// anchor: adds its length to the record field `state` books, emits
    /// the interval to the bus (the source of the Paraver trace derived
    /// from the telemetry stream) and re-anchors the run at now, where
    /// its next stage opens.
    fn close_stage(&mut self, tid: TaskId, state: TraceState) {
        let now = self.now();
        let run = self.live.run(tid);
        let anchor = std::mem::replace(&mut run.anchor, now);
        let rec = &mut run.rec;
        let field = match state {
            TraceState::Deserialize => &mut rec.deser,
            TraceState::SerialFraction => &mut rec.serial,
            TraceState::ParallelFraction => &mut rec.parallel,
            TraceState::CpuGpuComm => &mut rec.comm,
            TraceState::Serialize => &mut rec.ser,
        };
        *field += now - anchor;
        if self.bus.active() {
            // Only device-side stages run on the GPU; host-side stages
            // of a GPU task still belong to the held core's lane.
            let gpu = match state {
                TraceState::ParallelFraction | TraceState::CpuGpuComm => run.gpu_id,
                _ => None,
            };
            self.bus.push(TelemetryEvent::Stage {
                task: tid,
                node: run.node as u32,
                core: run.core_ids[0],
                gpu,
                state,
                t0: anchor,
                t1: now,
            });
        }
    }

    /// Inserts into a node cache, reporting LRU evictions to the bus.
    fn cache_insert(&mut self, node: usize, key: DataVersion, bytes: u64, at: SimTime) {
        let before = self.caches[node].evictions();
        self.caches[node].insert(key, bytes);
        if self.bus.active() {
            let evicted = self.caches[node].evictions() - before;
            if evicted > 0 {
                self.bus.push(TelemetryEvent::CacheEvicted {
                    at,
                    node: node as u32,
                    count: evicted,
                });
                // Eviction instants are occupancy-relevant sample points
                // too (the metrics series reads RAM between dispatches).
                self.push_gauge(node, at);
            }
        }
    }
}
