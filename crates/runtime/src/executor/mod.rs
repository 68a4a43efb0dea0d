//! The workflow executor: a discrete-event simulation of PyCOMPSs-style
//! task execution on a heterogeneous CPU-GPU cluster.
//!
//! Each task moves through the processing stages of Fig. 4:
//!
//! ```text
//! dispatch -> deserialize inputs -> serial fraction ->
//!   CPU run:   parallel fraction on the held core
//!   GPU run:   H2D transfer -> GPU kernel -> D2H transfer
//! -> serialize outputs -> release resources
//! ```
//!
//! Resource contention is modelled with counted slots per node for CPU
//! cores and GPU devices, and with `gpuflow-sim`'s one flow solver,
//! [`GroupedLink`](gpuflow_sim::GroupedLink), for bandwidth: a one-group
//! link per PCIe bus and per node-local disk, and the shared file system
//! as per-node NICs in front of the GPFS backend. Each link keeps at most
//! one armed `LinkTick` at its next flow completion: a flow start or a
//! tick's harvest cancels the armed tick and schedules one at the new
//! next completion, and a harvested flow whose attempt was aborted is
//! dropped by its `(task, attempt)` owner tag. A per-node object cache
//! lets well-placed tasks skip deserialization, which is the mechanism
//! coupling scheduling policy and storage architecture.
//!
//! This module holds [`run`], the run state and its event loop; each
//! concern lives in its own submodule: `api` (configuration, errors,
//! report, validation), `admission` (ready-queue admission, arrivals,
//! the job gate), `dispatch` (the master's decision and dispatch),
//! `pipeline` (the stage/flow pipeline) and `recovery` (fault handling).
//! A fault-free run never enters `recovery` beyond its no-op checks.

mod admission;
mod api;
mod dispatch;
mod pipeline;
mod recovery;

use gpuflow_chaos::{mix64, FaultPlan};
use gpuflow_cluster::{CpuModel, ProcessorKind, StorageArchitecture};
use gpuflow_sim::{Engine, Jitter, SimTime};

use crate::cache::BlockCache;
use crate::data::{DataId, DataVersion};
use crate::metrics::{RunMetrics, TaskRecord};
use crate::scheduler::{NodeAvail, ReadyQueue, SchedulingPolicy};
use crate::task::TaskId;
use crate::telemetry::EventBus;
use crate::workflow::Workflow;

use admission::JobGate;
use pipeline::{Link, LinkKey, LiveRuns};
use recovery::{fault_timeline, FaultAction};

use api::validate;
pub use api::{RecoveryStats, RunConfig, RunError, RunReport};

/// Runs `workflow` under `config`.
///
/// # Errors
/// Fails on OOM (the paper's charts mark these configurations) or on an
/// invalid cluster spec.
pub fn run(workflow: &Workflow, config: &RunConfig) -> Result<RunReport, RunError> {
    validate(workflow, config)?;
    let mut exec = Exec::new(workflow, config);
    exec.schedule_faults();
    exec.seed_ready();
    exec.try_start_master();
    while let Some(ev) = exec.engine.pop() {
        let payload = ev.payload;
        exec.handle(payload)?;
        if let Some(e) = exec.fatal.take() {
            return Err(e);
        }
    }
    exec.finish()
}

// ---------------------------------------------------------------------
// Internal machinery
// ---------------------------------------------------------------------

/// Sentinel of the dense `u32` tables: no node, task or slab entry.
const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
enum Ev {
    MasterDone,
    /// Stage delay for a task attempt; the attempt tag lets delays from
    /// an aborted attempt be recognised as stale and dropped.
    TaskDelay(TaskId, u32),
    /// The armed tick of a link: its next flow completion. A link has
    /// at most one pending tick (a superseded one is cancelled).
    LinkTick(LinkKey),
    /// A discrete fault from the plan (index into the fault timeline).
    Fault(usize),
    /// End of a transient-failure backoff window.
    Retry(TaskId),
    /// Submission instant of a root task with a configured arrival time
    /// (see [`RunConfig::arrivals`]): the task enters the ready queue.
    Release(TaskId),
    /// Eligibility instant of a gated job (index into
    /// [`JobSchedule::jobs`]): the job may now be released into the
    /// fair-share window when a slot frees up.
    JobArrive(usize),
}

struct Exec<'a> {
    wf: &'a Workflow,
    cfg: &'a RunConfig,
    engine: Engine<Ev>,
    // Resources.
    free_cores: Vec<usize>,
    /// Free core identities per node (for trace lanes).
    core_stacks: Vec<Vec<u16>>,
    free_gpus: Vec<usize>,
    /// Free GPU device identities per node (for telemetry lanes).
    gpu_stacks: Vec<Vec<u16>>,
    peak_cores: Vec<usize>,
    ram_used: Vec<u64>,
    peak_ram: u64,
    pcie: Vec<Link>,
    disks: Vec<Link>,
    shared: Link,
    /// Owners of the flows a link tick harvested (reused buffer).
    harvested: Vec<(TaskId, u32)>,
    // Scheduling.
    /// HEFT-style upward rank per task (estimated seconds on the
    /// critical path to the sink); computed only under the CriticalPath
    /// policy, the one [`ReadyQueue`] order that reads ranks.
    upward_rank: Vec<f64>,
    rr_cursor: usize,
    master_busy: bool,
    pending_assign: Option<(TaskId, usize)>,
    sched_overhead: f64,
    ready: ReadyQueue,
    deps_left: Vec<u32>,
    /// Scratch for node scoring, reused across decisions.
    avail_scratch: Vec<NodeAvail>,
    /// Scratch for the chosen task's resolved reads `(version, bytes)`,
    /// reused across decisions.
    reads_scratch: Vec<(DataVersion, u64)>,
    // Task state.
    /// The live attempts, at most one per held core.
    live: LiveRuns,
    records: Vec<TaskRecord>,
    done: usize,
    // Data placement & caching.
    caches: Vec<BlockCache>,
    /// Home node per `DataId` (dense, indexed by id), `NONE` where a
    /// block has no disk home yet. Only meaningful under local disks.
    home: Vec<u32>,
    jitter: Jitter,
    /// The telemetry bus; it records only when telemetry is collected.
    bus: EventBus,
    gpu_kernel_seconds: f64,
    core_held_seconds: f64,
    gpu_held_seconds: f64,
    // Fault injection & recovery. `faults` is `None` when the config has
    // no plan *or* an empty one, so an empty plan is a pure observer.
    faults: Option<&'a FaultPlan>,
    /// Discrete faults in deterministic firing order.
    fault_timeline: Vec<(SimTime, FaultAction)>,
    /// Dispatch count per task (1-based after first dispatch).
    attempts: Vec<u32>,
    /// Transient failures per task, charged against the retry budget.
    transient_fails: Vec<u32>,
    /// Node of the task's last failed attempt, `NONE` before any
    /// (alternate-node resubmission steers away from it when possible).
    last_failed_node: Vec<u32>,
    /// Task sits out a backoff window and must not be scheduled.
    in_backoff: Vec<bool>,
    /// Root task with a future submission time: invisible to the
    /// scheduler (and to recovery re-admission) until released.
    unarrived: Vec<bool>,
    /// The job gate, when [`RunConfig::jobs`] is set.
    gate: Option<JobGate>,
    /// Task currently has a valid completed output.
    completed: Vec<bool>,
    /// Task's first successful attempt has been recorded.
    recorded: Vec<bool>,
    node_up: Vec<bool>,
    /// Permanently failed GPU devices per node.
    gpus_dead: Vec<usize>,
    /// Lineage state of every (object, version) pair.
    versions: VersionSlots,
    stats: RecoveryStats,
    /// Fatal error raised deep inside the stage machinery; the run loop
    /// surfaces it after the current event.
    fatal: Option<RunError>,
}

impl<'a> Exec<'a> {
    fn new(wf: &'a Workflow, cfg: &'a RunConfig) -> Self {
        let c = &cfg.cluster;
        let nodes = c.nodes;
        let cache_bytes = (c.node.ram_bytes as f64 * cfg.cache_fraction) as u64;
        let mut home = vec![NONE; wf.registry().len()];
        // Initial dataset blocks round-robin over node disks (local-disk
        // architecture); with shared disk the home node is irrelevant.
        let mut rr = 0usize;
        for obj in wf.registry().iter() {
            if obj.initial {
                home[obj.id.0 as usize] = (rr % nodes) as u32;
                rr += 1;
            }
        }
        let upward_rank = if cfg.policy == SchedulingPolicy::CriticalPath {
            upward_ranks(wf, &c.node.cpu)
        } else {
            Vec::new()
        };
        // An empty plan must be indistinguishable from no plan.
        let faults = cfg.faults.as_ref().filter(|p| !p.is_empty());
        let fault_timeline = faults.map(fault_timeline).unwrap_or_default();
        let versions = VersionSlots::new(
            wf,
            faults.is_some(),
            faults.is_some() && cfg.storage == StorageArchitecture::LocalDisk,
        );
        let n_tasks = wf.tasks().len();
        // The event population is bounded by resources, not tasks: one
        // delay per running attempt (≤ cores), one tick per link, the
        // master, and the armed fault timeline.
        let pending_bound =
            c.total_cpu_cores() + c.total_gpus() + 2 * nodes + fault_timeline.len() + 8;
        // A PCIe bus or a local disk: one front-end as wide as its backend.
        let channel = |bps| Link::new(bps, 1, bps);
        Exec {
            wf,
            cfg,
            engine: Engine::with_capacity(pending_bound),
            free_cores: (0..nodes).map(|n| c.cores_of(n)).collect(),
            core_stacks: (0..nodes)
                .map(|n| (0..c.cores_of(n) as u16).rev().collect())
                .collect(),
            free_gpus: (0..nodes).map(|n| c.gpus_of(n)).collect(),
            gpu_stacks: (0..nodes)
                .map(|n| (0..c.gpus_of(n) as u16).rev().collect())
                .collect(),
            peak_cores: vec![0; nodes],
            ram_used: vec![0; nodes],
            peak_ram: 0,
            pcie: (0..nodes)
                .map(|_| channel(c.node.pcie.bandwidth_bps))
                .collect(),
            disks: (0..nodes)
                .map(|_| channel(c.node.local_disk.bandwidth_bps))
                .collect(),
            shared: Link::new(c.shared_disk.bandwidth_bps, nodes, c.network.nic_bps),
            harvested: Vec::new(),
            upward_rank,
            rr_cursor: 0,
            master_busy: false,
            pending_assign: None,
            sched_overhead: 0.0,
            ready: ReadyQueue::new(cfg.policy),
            deps_left: wf
                .tasks()
                .iter()
                .map(|t| wf.predecessors(t.id).len() as u32)
                .collect(),
            avail_scratch: Vec::with_capacity(nodes),
            reads_scratch: Vec::new(),
            live: LiveRuns::new(n_tasks, c.total_cpu_cores()),
            records: Vec::with_capacity(wf.tasks().len()),
            done: 0,
            caches: (0..nodes).map(|_| BlockCache::new(cache_bytes)).collect(),
            home,
            jitter: Jitter::new(cfg.seed, cfg.jitter_sigma),
            bus: {
                let bus = EventBus::new(cfg.collect_telemetry);
                match &cfg.live_metrics {
                    Some(hub) => bus.with_live(hub.clone()),
                    None => bus,
                }
            },
            gpu_kernel_seconds: 0.0,
            core_held_seconds: 0.0,
            gpu_held_seconds: 0.0,
            faults,
            fault_timeline,
            attempts: vec![0; n_tasks],
            transient_fails: vec![0; n_tasks],
            last_failed_node: vec![NONE; n_tasks],
            in_backoff: vec![false; n_tasks],
            unarrived: vec![false; n_tasks],
            gate: cfg.jobs.as_ref().map(JobGate::new),
            completed: vec![false; n_tasks],
            recorded: vec![false; n_tasks],
            node_up: vec![true; nodes],
            gpus_dead: vec![0; nodes],
            versions,
            stats: RecoveryStats::default(),
            fatal: None,
        }
    }

    fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// `tid`'s upward rank; 0 under the policies that ignore ranks.
    fn rank(&self, tid: TaskId) -> f64 {
        self.upward_rank.get(tid.0 as usize).copied().unwrap_or(0.0)
    }

    fn handle(&mut self, ev: Ev) -> Result<(), RunError> {
        match ev {
            Ev::MasterDone => self.on_master_done()?,
            Ev::TaskDelay(tid, att) => self.on_delay_done(tid, att),
            Ev::LinkTick(key) => self.on_link_tick(key),
            Ev::Fault(idx) => self.on_fault(idx),
            Ev::Retry(tid) => self.on_retry(tid),
            Ev::Release(tid) => self.on_release(tid),
            Ev::JobArrive(j) => self.on_job_arrive(j),
        }
        Ok(())
    }

    fn finish(self) -> Result<RunReport, RunError> {
        let total = self.wf.tasks().len();
        let completed_now = self.completed.iter().filter(|&&c| c).count();
        if self.done < total || completed_now < total {
            // With a fault plan the stall is the plan's doing (e.g. a
            // permanent crash of the only capable node); without one it
            // is an internal invariant violation.
            if self.faults.is_some() {
                return Err(RunError::Unrecoverable {
                    completed: completed_now,
                    total,
                });
            }
            return Err(RunError::Deadlock {
                completed: self.done,
                total,
            });
        }
        let makespan = self.now().as_secs_f64();
        let cores_used: usize = self.peak_cores.iter().sum();
        let c = &self.cfg.cluster;
        let denom = makespan.max(1e-12);
        let cpu_util = self.core_held_seconds / (c.total_cpu_cores() as f64 * denom);
        let gpu_util = if self.cfg.processor == ProcessorKind::Gpu {
            self.gpu_kernel_seconds / (c.total_gpus() as f64 * denom)
        } else {
            0.0
        };
        let metrics = RunMetrics::aggregate(
            &self.records,
            makespan,
            cores_used,
            self.sched_overhead,
            cpu_util,
            gpu_util,
            self.peak_ram,
        );
        self.bus.finish_live();
        // Fold the lineage hashes of the terminal outputs, in (id,
        // version) order — the run's output fingerprint.
        let mut fingerprint = 0xCBF2_9CE4_8422_2325u64;
        for &slot in &self.versions.terminal {
            fingerprint = mix64(fingerprint ^ self.versions.committed(slot as usize).unwrap_or(0));
        }
        Ok(RunReport {
            metrics,
            records: self.records,
            telemetry: self.bus.into_log(),
            shape: self.wf.shape(),
            processor: self.cfg.processor,
            storage: self.cfg.storage,
            policy: self.cfg.policy,
            recovery: self.stats,
            output_fingerprint: fingerprint,
        })
    }
}

/// HEFT-style upward ranks: each task's estimated user-code seconds on
/// `cpu` plus the largest rank among its successors (one reverse pass;
/// tasks are indexed in topological order by construction).
fn upward_ranks(wf: &Workflow, cpu: &CpuModel) -> Vec<f64> {
    let mut rank = vec![0.0f64; wf.tasks().len()];
    for idx in (0..wf.tasks().len()).rev() {
        let t = &wf.tasks()[idx];
        let est = cpu.time(&t.cost.serial).as_secs_f64() + cpu.time(&t.cost.parallel).as_secs_f64();
        let succ_max = wf
            .successors(t.id)
            .iter()
            .map(|s| rank[s.0 as usize])
            .fold(0.0, f64::max);
        rank[idx] = est + succ_max;
    }
    rank
}

/// The run's lineage state, one dense slot per (object, version) pair:
/// `slot = base[id] + version`, so ascending slots are ascending
/// `(id, version)` pairs and every per-version table is a vector.
struct VersionSlots {
    /// First slot of each object, then the slot count (length
    /// `objects + 1`).
    base: Vec<u32>,
    /// Lineage hash of each produced version, valid while `available`.
    hash: Vec<u64>,
    /// The version was produced and not lost since.
    available: Vec<bool>,
    /// Producing task of each written version (`NONE` for version 0).
    /// Only a fault plan regenerates lineage, so only it builds this.
    producer: Vec<u32>,
    /// Node whose local disk holds each written version (`NONE` where
    /// none does). Only kept under a fault plan with local disks: a
    /// crash loses these versions; shared-disk writes are durable.
    home: Vec<u32>,
    /// Versions written but never read by any task, as ascending slots:
    /// the fingerprint domain.
    terminal: Vec<u32>,
}

impl VersionSlots {
    fn new(wf: &Workflow, producers: bool, homes: bool) -> Self {
        let objects = wf.registry().len();
        // One pass over the params. Tasks are in generation order, where
        // a read sees its object's current version, so this finds each
        // object's last version, whether anyone read it, and the versions
        // a write replaced before anyone read them.
        let mut last = vec![0u32; objects + 1];
        let mut read = vec![false; objects];
        let mut replaced_unread = Vec::new();
        for t in wf.tasks() {
            for p in &t.params {
                let i = p.data.0 as usize;
                read[i] |= p.dir.reads();
                if p.dir.writes() {
                    if last[i] > 0 && !read[i] {
                        replaced_unread.push((i, last[i]));
                    }
                    (last[i], read[i]) = (p.version, false);
                }
            }
        }
        // Each object's versions run from 0 to its last one.
        let mut base = last;
        let mut next = 0u32;
        for b in &mut base {
            let versions = *b + 1;
            *b = next;
            next += versions;
        }
        let slots = base[objects] as usize;
        // Terminal versions: written and never read. Marking them per
        // slot lists them in (id, version) order without a sort.
        let mut unread = vec![false; slots];
        for (i, version) in replaced_unread {
            unread[(base[i] + version) as usize] = true;
        }
        for i in 0..objects {
            if base[i + 1] - base[i] > 1 && !read[i] {
                unread[base[i + 1] as usize - 1] = true;
            }
        }
        let terminal = (0..slots as u32).filter(|&s| unread[s as usize]).collect();
        let mut versions = VersionSlots {
            hash: vec![0; slots],
            available: vec![false; slots],
            producer: Vec::new(),
            home: if homes { vec![NONE; slots] } else { Vec::new() },
            terminal,
            base,
        };
        if producers {
            versions.producer = vec![NONE; slots];
            for t in wf.tasks() {
                for (id, version) in t.writes() {
                    let slot = versions.slot(id, version);
                    versions.producer[slot] = t.id.0;
                }
            }
        }
        versions
    }

    fn slot(&self, id: DataId, version: u32) -> usize {
        (self.base[id.0 as usize] + version) as usize
    }

    /// The lineage hash of `slot`, if its version is available.
    fn committed(&self, slot: usize) -> Option<u64> {
        self.available[slot].then(|| self.hash[slot])
    }

    /// Makes `slot`'s version available with lineage hash `hash`.
    fn commit(&mut self, slot: usize, hash: u64) {
        self.hash[slot] = hash;
        self.available[slot] = true;
    }

    /// Whether `(id, version)` was produced by a task and is lost: it
    /// must be regenerated before anyone reads it.
    fn lost(&self, id: DataId, version: u32) -> bool {
        version > 0 && !self.available[self.slot(id, version)]
    }

    /// Forgets every version homed on `node`'s disk and appends each to
    /// `lost` in ascending (id, version) order.
    fn lose_homed_on(&mut self, node: u32, lost: &mut Vec<DataVersion>) {
        for id in 0..self.base.len() - 1 {
            let first = self.base[id];
            for slot in first..self.base[id + 1] {
                let s = slot as usize;
                if self.home[s] == node {
                    self.home[s] = NONE;
                    self.available[s] = false;
                    lost.push(DataVersion {
                        id: DataId(id as u32),
                        version: slot - first,
                    });
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Direction;
    use crate::scheduler::SchedulingPolicy;
    use crate::task::CostProfile;
    use crate::workflow::WorkflowBuilder;
    use gpuflow_cluster::KernelWork;
    use gpuflow_cluster::{ClusterSpec, StorageArchitecture};

    const MB: u64 = 1 << 20;

    fn cluster() -> ClusterSpec {
        ClusterSpec::tiny()
    }

    fn compute_cost(flops: f64) -> CostProfile {
        CostProfile::fully_parallel(KernelWork {
            flops,
            bytes: flops / 10.0,
            parallelism: 1e9,
        })
    }

    /// A flat map workflow: n independent tasks, each reading one block.
    fn map_workflow(n: usize, block_bytes: u64, flops: f64) -> Workflow {
        let mut b = WorkflowBuilder::new();
        for i in 0..n {
            let x = b.input(format!("x{i}"), block_bytes);
            let y = b.intermediate(format!("y{i}"), block_bytes);
            b.submit(
                "map",
                compute_cost(flops),
                &[(x, Direction::In), (y, Direction::Out)],
                false,
            )
            .unwrap();
        }
        b.build()
    }

    fn cfg(processor: ProcessorKind) -> RunConfig {
        let mut c = RunConfig::new(cluster(), processor);
        c.jitter_sigma = 0.0;
        c
    }

    #[test]
    fn all_tasks_complete_and_metrics_cover_them() {
        let wf = map_workflow(10, MB, 1e9);
        let report = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        assert_eq!(report.records.len(), 10);
        assert!(report.makespan() > 0.0);
        let stats = report.metrics.task_type("map").unwrap();
        assert_eq!(stats.count, 10);
        assert!(stats.parallel > 0.0);
        assert_eq!(stats.comm, 0.0, "CPU run has no CPU-GPU communication");
    }

    #[test]
    fn gpu_run_records_comm_and_kernel_time() {
        let wf = map_workflow(4, MB, 1e9);
        let report = run(&wf, &cfg(ProcessorKind::Gpu)).unwrap();
        let stats = report.metrics.task_type("map").unwrap();
        assert!(stats.comm > 0.0, "H2D/D2H must be accounted");
        assert!(stats.parallel > 0.0);
        assert!(report.metrics.gpu_utilization > 0.0);
        assert!(report
            .records
            .iter()
            .all(|r| r.processor == ProcessorKind::Gpu));
    }

    #[test]
    fn gpu_parallel_fraction_beats_cpu_for_big_parallel_work() {
        let wf = map_workflow(1, MB, 1e11);
        let cpu = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let gpu = run(&wf, &cfg(ProcessorKind::Gpu)).unwrap();
        let sp = cpu.metrics.mean_parallel() / gpu.metrics.mean_parallel();
        assert!(sp > 3.0, "expected a clear device speedup, got {sp}");
    }

    #[test]
    fn dependent_tasks_run_sequentially() {
        let mut b = WorkflowBuilder::new();
        let x = b.input("x", MB);
        let y = b.intermediate("y", MB);
        let z = b.intermediate("z", MB);
        b.submit(
            "first",
            compute_cost(1e9),
            &[(x, Direction::In), (y, Direction::Out)],
            false,
        )
        .unwrap();
        b.submit(
            "second",
            compute_cost(1e9),
            &[(y, Direction::In), (z, Direction::Out)],
            false,
        )
        .unwrap();
        let wf = b.build();
        let report = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let first = &report.records[0];
        let second = &report.records[1];
        assert_eq!(first.task_type, "first");
        assert!(second.start >= first.end, "RAW dependency must serialise");
    }

    #[test]
    fn second_read_of_same_version_hits_cache() {
        // r2 depends on r1 and re-reads x; with one node the re-read is a
        // cache hit (the dependency keeps the reads from racing).
        let mut spec = cluster();
        spec.nodes = 1;
        let mut b = WorkflowBuilder::new();
        let x = b.input("x", MB);
        let y = b.intermediate("y", MB);
        b.submit(
            "r1",
            compute_cost(1e9),
            &[(x, Direction::In), (y, Direction::Out)],
            false,
        )
        .unwrap();
        b.submit(
            "r2",
            compute_cost(1e9),
            &[(x, Direction::In), (y, Direction::In)],
            false,
        )
        .unwrap();
        let wf = b.build();
        let mut c = cfg(ProcessorKind::Cpu);
        c.cluster = spec;
        let report = run(&wf, &c).unwrap();
        let hits: u32 = report.records.iter().map(|r| r.cache_hits).sum();
        let misses: u32 = report.records.iter().map(|r| r.cache_misses).sum();
        // r1 misses x; r2 hits both x (decoded by r1) and y (written here).
        assert_eq!((hits, misses), (2, 1));
        // The all-hits task has zero deser time.
        assert!(report.records.iter().any(|r| r.deser.is_zero()));
    }

    #[test]
    fn gpu_oom_for_oversized_block() {
        let big = 13 * (1u64 << 30); // > 12 GB device memory
        let wf = map_workflow(1, big, 1e9);
        let mut c = cfg(ProcessorKind::Gpu);
        c.cluster.node.ram_bytes = 512 * (1 << 30); // keep host out of the way
        let err = run(&wf, &c).unwrap_err();
        assert!(matches!(err, RunError::GpuOom { .. }), "{err}");
        // The same workflow runs fine on CPUs.
        let mut c2 = cfg(ProcessorKind::Cpu);
        c2.cluster.node.ram_bytes = 512 * (1 << 30);
        assert!(run(&wf, &c2).is_ok());
    }

    #[test]
    fn host_oom_for_oversized_working_set() {
        let wf = map_workflow(1, MB, 1e9);
        let mut c = cfg(ProcessorKind::Cpu);
        c.cluster.node.ram_bytes = MB; // 1 MB of RAM cannot host 2 MB
        let err = run(&wf, &c).unwrap_err();
        assert!(matches!(err, RunError::HostOom { .. }), "{err}");
    }

    #[test]
    fn local_disk_faster_than_shared_for_data_heavy_run() {
        let wf = map_workflow(8, 256 * MB, 1e6);
        let shared = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let local = run(
            &wf,
            &cfg(ProcessorKind::Cpu).with_storage(StorageArchitecture::LocalDisk),
        )
        .unwrap();
        // The nodes' local disks in parallel beat the NIC-constrained
        // GPFS path for this layout (round-robin block homes).
        assert!(
            local.makespan() < shared.makespan(),
            "local {} vs shared {}",
            local.makespan(),
            shared.makespan()
        );
    }

    #[test]
    fn locality_policy_accumulates_more_sched_overhead() {
        let wf = map_workflow(16, MB, 1e8);
        let fifo = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let loc = run(
            &wf,
            &cfg(ProcessorKind::Cpu).with_policy(SchedulingPolicy::DataLocality),
        )
        .unwrap();
        assert!(loc.metrics.sched_overhead > fifo.metrics.sched_overhead);
    }

    #[test]
    fn task_parallelism_bounded_by_gpu_count() {
        // tiny(): 2 nodes x 1 GPU. 8 GPU tasks must run in >= 4 waves,
        // while the CPU run (2x4 cores) finishes in one wave.
        let wf = map_workflow(8, MB, 1e10);
        let cpu = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        let gpu = run(&wf, &cfg(ProcessorKind::Gpu)).unwrap();
        let cpu_span = cpu.metrics.levels[0].span;
        let gpu_span = gpu.metrics.levels[0].span;
        // Per-task GPU compute is ~14x faster, but 4 forced waves eat it.
        let per_task_cpu = cpu.metrics.mean_parallel();
        let per_task_gpu = gpu.metrics.mean_parallel();
        assert!(per_task_gpu < per_task_cpu);
        assert!(
            gpu_span > per_task_gpu * 3.9,
            "waves must serialise GPU tasks"
        );
        assert!(
            cpu_span < per_task_cpu * 3.0,
            "CPU run is one wave (plus skew)"
        );
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let wf = map_workflow(12, MB, 1e9);
        let mut c = cfg(ProcessorKind::Cpu);
        c.jitter_sigma = 0.02;
        let a = run(&wf, &c).unwrap();
        let b = run(&wf, &c).unwrap();
        assert_eq!(a.makespan(), b.makespan());
        let c2 = c.clone().with_seed(999);
        let d = run(&wf, &c2).unwrap();
        assert_ne!(
            a.makespan(),
            d.makespan(),
            "different seed, different noise"
        );
    }

    #[test]
    fn sched_overhead_scales_with_task_count() {
        let few = run(&map_workflow(4, MB, 1e8), &cfg(ProcessorKind::Cpu)).unwrap();
        let many = run(&map_workflow(32, MB, 1e8), &cfg(ProcessorKind::Cpu)).unwrap();
        let ratio = many.metrics.sched_overhead / few.metrics.sched_overhead;
        assert!(
            (ratio - 8.0).abs() < 1e-6,
            "one decision per task, got {ratio}"
        );
    }

    #[test]
    fn empty_workflow_completes_immediately() {
        let wf = WorkflowBuilder::new().build();
        let report = run(&wf, &cfg(ProcessorKind::Cpu)).unwrap();
        assert_eq!(report.makespan(), 0.0);
        assert!(report.records.is_empty());
    }
}
