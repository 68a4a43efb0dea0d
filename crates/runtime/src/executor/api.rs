//! The executor's public surface: the run configuration, the error and
//! recovery types, the report with its invariant check, and the
//! validation of a job schedule against its workflow.

use std::collections::BTreeMap;
use std::fmt;

use fxhash::{FxHashMap, FxHashSet};

use gpuflow_chaos::{FaultPlan, RecoveryPolicy};
use gpuflow_cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};

use crate::jobs::JobSchedule;
use crate::metrics::{RunMetrics, TaskRecord};
use crate::scheduler::SchedulingPolicy;
use crate::task::TaskId;
use crate::telemetry::{MetricsHub, TelemetryLog};
use crate::workflow::{DagShape, Workflow};

/// Configuration of one run — the factor combination of Table 1.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The cluster.
    pub cluster: ClusterSpec,
    /// Processor type factor: where parallel fractions execute.
    pub processor: ProcessorKind,
    /// Storage architecture factor.
    pub storage: StorageArchitecture,
    /// Scheduling policy factor.
    pub policy: SchedulingPolicy,
    /// Seed for execution jitter.
    pub seed: u64,
    /// Relative amplitude of run-to-run noise on compute/(de)ser stages.
    pub jitter_sigma: f64,
    /// Collect the full structured telemetry stream (task lifecycle,
    /// processing stages, scheduler decisions, cache activity,
    /// transfers, gauges) into [`RunReport::telemetry`], from which
    /// [`Trace::from_telemetry`](crate::Trace::from_telemetry) derives
    /// the Paraver-like trace. Costs memory on big runs; when off (and
    /// no live hub is attached) the event bus is inert and the run pays
    /// one branch per emission site.
    pub collect_telemetry: bool,
    /// Fraction of node RAM used as the worker object cache.
    pub cache_fraction: f64,
    /// CPU cores assigned to each CPU task's parallel fraction. The
    /// paper's frameworks recommend 1 (no oversubscription, §3.3) and
    /// leave multi-threaded CPU tasks as future work; values > 1 trade
    /// task-level parallelism for intra-task thread parallelism with
    /// sub-linear scaling (see [`RunConfig::with_cpu_threads`]).
    pub cpu_threads_per_task: usize,
    /// Deterministic fault plan injected into the run. `None` (or an
    /// empty plan) leaves the executor byte-identical to a fault-free
    /// run; any non-empty plan turns on the recovery machinery.
    pub faults: Option<FaultPlan>,
    /// Recovery policy applied when `faults` is active: retry budget,
    /// virtual-time backoff, alternate-node resubmission, GPU-to-CPU
    /// fallback.
    pub recovery: RecoveryPolicy,
    /// Live metrics hub: when set, every telemetry event is folded into
    /// this shared [`MetricsHub`] as it is emitted, so another thread
    /// (e.g. `gpuflow serve`) can scrape a current snapshot while the
    /// run executes. Independent of `collect_telemetry`.
    pub live_metrics: Option<MetricsHub>,
    /// Submission times, virtual seconds, for root tasks (tasks with no
    /// dependencies): `(task, at_secs)`. Listed tasks enter the ready
    /// queue at their submission instant instead of time zero —
    /// the replay frontend's arrival process. Empty = all roots at 0.
    pub arrivals: Vec<(TaskId, f64)>,
    /// Multi-tenant job gate (see [`JobSchedule`]): jobs become
    /// *eligible* at their arrival instants but are released into a
    /// bounded in-flight window under stride fair-share + priority —
    /// the `gpuflowd` admission path. Mutually exclusive with
    /// [`RunConfig::arrivals`].
    pub jobs: Option<JobSchedule>,
}

impl RunConfig {
    /// A config with the defaults used throughout the paper's experiments:
    /// shared disk, generation-order scheduling, ±2 % jitter.
    pub fn new(cluster: ClusterSpec, processor: ProcessorKind) -> Self {
        RunConfig {
            cluster,
            processor,
            storage: StorageArchitecture::SharedDisk,
            policy: SchedulingPolicy::GenerationOrder,
            seed: 0xC0FFEE,
            jitter_sigma: 0.02,
            collect_telemetry: false,
            cache_fraction: 0.5,
            cpu_threads_per_task: 1,
            faults: None,
            recovery: RecoveryPolicy::default(),
            live_metrics: None,
            arrivals: Vec::new(),
            jobs: None,
        }
    }

    /// Marginal efficiency of each extra CPU thread inside a task
    /// (synchronisation and memory-bandwidth sharing eat into scaling).
    pub const THREAD_MARGINAL_EFFICIENCY: f64 = 0.85;

    /// Sets the CPU threads per task (the §3.3 future-work experiment).
    ///
    /// # Panics
    /// Panics when `threads` is zero.
    pub fn with_cpu_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "tasks need at least one thread");
        self.cpu_threads_per_task = threads;
        self
    }

    /// Speedup of a `threads`-way parallel fraction over one thread.
    pub fn thread_speedup(threads: usize) -> f64 {
        1.0 + Self::THREAD_MARGINAL_EFFICIENCY * (threads.saturating_sub(1)) as f64
    }

    /// Sets the storage architecture.
    pub fn with_storage(mut self, storage: StorageArchitecture) -> Self {
        self.storage = storage;
        self
    }

    /// Sets the scheduling policy.
    pub fn with_policy(mut self, policy: SchedulingPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the jitter seed (repeat runs with different seeds).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables structured telemetry collection (see
    /// [`RunReport::telemetry`]).
    pub fn with_telemetry(mut self) -> Self {
        self.collect_telemetry = true;
        self
    }

    /// Injects a deterministic fault plan (see [`FaultPlan`]).
    pub fn with_faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Sets the recovery policy applied under fault injection.
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Attaches a live metrics hub (see [`RunConfig::live_metrics`]).
    pub fn with_live_metrics(mut self, hub: MetricsHub) -> Self {
        self.live_metrics = Some(hub);
        self
    }

    /// Sets submission times for root tasks (see
    /// [`RunConfig::arrivals`]).
    pub fn with_arrivals(mut self, arrivals: Vec<(TaskId, f64)>) -> Self {
        self.arrivals = arrivals;
        self
    }

    /// Gates whole jobs behind a fair-share in-flight window (see
    /// [`RunConfig::jobs`]).
    pub fn with_jobs(mut self, jobs: JobSchedule) -> Self {
        self.jobs = Some(jobs);
        self
    }
}

/// Why a run failed — the failure modes the paper reports in its charts.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// A task footprint exceeded GPU device memory ("GPU OOM" in
    /// Figs. 7-10).
    GpuOom {
        /// Task type that overflowed.
        task_type: String,
        /// Bytes required on the device.
        required: u64,
        /// Device capacity.
        capacity: u64,
    },
    /// A task's working set exceeded node RAM ("CPU OOM" in Fig. 9a).
    HostOom {
        /// Task type that overflowed.
        task_type: String,
        /// Bytes required on the host.
        required: u64,
        /// Node RAM.
        capacity: u64,
    },
    /// The executor stalled with tasks pending (an internal invariant
    /// violation, never expected).
    Deadlock {
        /// Tasks completed before the stall.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// A task exhausted its retry budget under fault injection.
    TaskFailed {
        /// Task type that kept failing.
        task_type: String,
        /// Attempts made (initial dispatch plus retries).
        attempts: u32,
    },
    /// The injected faults left the workflow unable to finish (e.g. all
    /// nodes holding a required resource are permanently down).
    Unrecoverable {
        /// Tasks in a completed state when the run stalled.
        completed: usize,
        /// Total tasks.
        total: usize,
    },
    /// The cluster specification is inconsistent.
    InvalidConfig(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::GpuOom {
                task_type,
                required,
                capacity,
            } => write!(
                f,
                "GPU OOM: task '{task_type}' needs {required} B on a {capacity} B device"
            ),
            RunError::HostOom {
                task_type,
                required,
                capacity,
            } => write!(
                f,
                "host OOM: task '{task_type}' needs {required} B on a {capacity} B node"
            ),
            RunError::Deadlock { completed, total } => {
                write!(f, "executor deadlock after {completed}/{total} tasks")
            }
            RunError::TaskFailed {
                task_type,
                attempts,
            } => write!(
                f,
                "task '{task_type}' failed permanently after {attempts} attempts"
            ),
            RunError::Unrecoverable { completed, total } => {
                write!(
                    f,
                    "injected faults are unrecoverable: stalled at {completed}/{total} tasks"
                )
            }
            RunError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Counters of fault-injection and recovery activity during one run.
/// All zero when the run had no fault plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Fault-plan entries armed for this run (crashes, GPU failures,
    /// stragglers, link degradations, transient-rate rules).
    pub faults_injected: usize,
    /// Task attempts killed by sampled transient failures.
    pub transient_failures: usize,
    /// Task attempts killed by node crashes or GPU failures.
    pub crash_failures: usize,
    /// Retries scheduled after transient failures (backoff waits).
    pub retries: usize,
    /// Attempts resubmitted after losing their node or device.
    pub resubmissions: usize,
    /// Completed tasks re-executed to regenerate lost data (lineage
    /// recovery).
    pub regenerated_tasks: usize,
    /// GPU-capable tasks degraded to CPU execution.
    pub gpu_fallbacks: usize,
    /// Cache entries and local-disk block versions destroyed by crashes.
    pub blocks_invalidated: u64,
}

/// The outcome of a successful run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Aggregated metrics (§4.2).
    pub metrics: RunMetrics,
    /// Raw per-task records.
    pub records: Vec<TaskRecord>,
    /// Structured telemetry stream (empty unless
    /// [`RunConfig::collect_telemetry`] is set).
    pub telemetry: TelemetryLog,
    /// DAG shape of the executed workflow.
    pub shape: DagShape,
    /// Processor factor of the run.
    pub processor: ProcessorKind,
    /// Storage factor of the run.
    pub storage: StorageArchitecture,
    /// Policy factor of the run.
    pub policy: SchedulingPolicy,
    /// Fault-injection and recovery activity (all zero without a plan).
    pub recovery: RecoveryStats,
    /// Deterministic lineage fingerprint of the workflow's terminal
    /// outputs (versions written but never consumed). A faulted run
    /// that recovered correctly produces the same fingerprint as a
    /// fault-free run of the same workflow.
    pub output_fingerprint: u64,
}

impl RunReport {
    /// Wall-clock makespan in seconds.
    pub fn makespan(&self) -> f64 {
        self.metrics.makespan
    }

    /// Validates the executor's bookkeeping against the workflow and the
    /// cluster: record completeness, dependency ordering, per-node
    /// concurrency caps, metric decomposition, and cache accounting.
    /// Intended for tests (property suites call this after every run).
    ///
    /// Under fault injection each record describes a task's *first
    /// successful* attempt (failed attempts and lineage re-executions
    /// are not recorded), so there is still exactly one record per task,
    /// dependency ordering holds between recorded attempts, and the
    /// concurrency sweep bounds only successfully recorded work.
    ///
    /// # Errors
    /// Returns a description of the first violated invariant.
    pub fn check_invariants(
        &self,
        workflow: &Workflow,
        cluster: &ClusterSpec,
    ) -> Result<(), String> {
        if self.records.len() != workflow.tasks().len() {
            return Err(format!(
                "{} records for {} tasks",
                self.records.len(),
                workflow.tasks().len()
            ));
        }
        let mut seen = vec![false; workflow.tasks().len()];
        let by_task: FxHashMap<TaskId, &TaskRecord> =
            self.records.iter().map(|r| (r.task, r)).collect();
        for r in &self.records {
            let idx = r.task.0 as usize;
            if idx >= seen.len() || seen[idx] {
                return Err(format!("duplicate or unknown record for {}", r.task));
            }
            seen[idx] = true;
            if r.end < r.start {
                return Err(format!("{} ends before it starts", r.task));
            }
            // User code decomposes exactly into its fractions.
            if r.user_code() != r.serial + r.parallel + r.comm {
                return Err(format!("{}: user code does not decompose", r.task));
            }
            // Cache lookups cover exactly the declared reads.
            let reads = workflow.task(r.task).reads().count() as u32;
            if r.cache_hits + r.cache_misses != reads {
                return Err(format!(
                    "{}: {} cache lookups for {} reads",
                    r.task,
                    r.cache_hits + r.cache_misses,
                    reads
                ));
            }
            // Dependencies finished before this task started.
            for p in workflow.predecessors(r.task) {
                let pred = by_task
                    .get(p)
                    .ok_or_else(|| format!("missing record {p}"))?;
                if pred.end > r.start {
                    return Err(format!("{p} overlaps its dependent {}", r.task));
                }
            }
            // The makespan covers everything.
            if r.end.as_secs_f64() > self.makespan() + 1e-9 {
                return Err(format!("{} ends after the makespan", r.task));
            }
        }
        // Concurrency sweep per node: held cores <= cores, GPU
        // records <= devices. Multi-threaded CPU tasks weigh in with
        // every core they hold.
        // BTreeMap so a violation is always attributed to the lowest
        // offending node, independent of hash order.
        let mut events: BTreeMap<usize, Vec<(u64, i32, i32)>> = BTreeMap::new();
        for r in &self.records {
            let (dc, dg) = match r.processor {
                ProcessorKind::Cpu => (r.cores.max(1) as i32, 0),
                ProcessorKind::Gpu => (1, 1), // GPU task holds a core too
            };
            let e = events.entry(r.node).or_default();
            e.push((r.start.as_nanos(), dc, dg));
            e.push((r.end.as_nanos(), -dc, -dg));
        }
        for (node, mut evs) in events {
            evs.sort();
            let (mut cpu, mut gpu) = (0i32, 0i32);
            for (_, dc, dg) in evs {
                cpu += dc;
                gpu += dg;
                if cpu as usize > cluster.cores_of(node) {
                    return Err(format!("node {node}: core concurrency exceeded"));
                }
                if gpu as usize > cluster.gpus_of(node) {
                    return Err(format!("node {node}: GPU concurrency exceeded"));
                }
            }
        }
        // Recovery accounting: every retry follows a transient failure.
        if self.recovery.retries > self.recovery.transient_failures {
            return Err(format!(
                "{} retries for {} transient failures",
                self.recovery.retries, self.recovery.transient_failures
            ));
        }
        Ok(())
    }
}

/// Checks `config` against the cluster it names and `workflow`.
pub(super) fn validate(workflow: &Workflow, config: &RunConfig) -> Result<(), RunError> {
    config
        .cluster
        .validate()
        .map_err(|errs| RunError::InvalidConfig(errs.join("; ")))?;
    // A task needing more threads than any node has cores could never be
    // placed; fail fast instead of deadlocking.
    let max_cores = (0..config.cluster.nodes)
        .map(|n| config.cluster.cores_of(n))
        .max()
        .unwrap_or(0);
    if config.cpu_threads_per_task > max_cores {
        return Err(RunError::InvalidConfig(format!(
            "cpu_threads_per_task ({}) exceeds the largest node's {} cores",
            config.cpu_threads_per_task, max_cores
        )));
    }
    if !(0.0..1.0).contains(&config.jitter_sigma) {
        return Err(RunError::InvalidConfig(format!(
            "jitter_sigma must be in [0, 1), got {}",
            config.jitter_sigma
        )));
    }
    if !(0.0..=1.0).contains(&config.cache_fraction) {
        return Err(RunError::InvalidConfig(format!(
            "cache_fraction must be in [0, 1], got {}",
            config.cache_fraction
        )));
    }
    if let Some(plan) = &config.faults {
        plan.validate(config.cluster.nodes)
            .map_err(|errs| RunError::InvalidConfig(errs.join("; ")))?;
    }
    for &(tid, at_secs) in &config.arrivals {
        let idx = tid.0 as usize;
        if idx >= workflow.tasks().len() {
            return Err(RunError::InvalidConfig(format!(
                "arrival for unknown task {}",
                tid.0
            )));
        }
        if !workflow.predecessors(tid).is_empty() {
            return Err(RunError::InvalidConfig(format!(
                "arrival for task {} which has dependencies; only root tasks can have submission times",
                tid.0
            )));
        }
        if !at_secs.is_finite() || at_secs < 0.0 {
            return Err(RunError::InvalidConfig(format!(
                "arrival time for task {} must be finite and non-negative, got {at_secs}",
                tid.0
            )));
        }
    }
    if let Some(sched) = &config.jobs {
        validate_job_schedule(workflow, config, sched)?;
    }
    Ok(())
}

/// Checks a [`JobSchedule`] against the workflow: sane window and
/// weights, in-range non-overlapping task ranges, no cross-job
/// dependencies, and every dependency-free task of a job's range listed
/// among its roots (an unlisted one would enter the ready queue at time
/// zero and bypass the gate, corrupting the window accounting).
fn validate_job_schedule(
    workflow: &Workflow,
    config: &RunConfig,
    sched: &JobSchedule,
) -> Result<(), RunError> {
    let bad = |msg: String| Err(RunError::InvalidConfig(msg));
    if !config.arrivals.is_empty() {
        return bad("arrivals and a job schedule are mutually exclusive".into());
    }
    if sched.max_inflight == 0 {
        return bad("job schedule needs max_inflight >= 1".into());
    }
    if sched.tenants.is_empty() {
        return bad("job schedule needs at least one tenant".into());
    }
    if let Some(t) = sched.tenants.iter().find(|t| t.weight == 0) {
        return bad(format!("tenant {} has zero fair-share weight", t.name));
    }
    let n_tasks = workflow.tasks().len() as u32;
    for (j, job) in sched.jobs.iter().enumerate() {
        if job.tenant >= sched.tenants.len() {
            return bad(format!("job {j} names unknown tenant {}", job.tenant));
        }
        if job.task_lo > job.task_hi || job.task_hi >= n_tasks {
            return bad(format!(
                "job {j} has task range {}..={} outside the workflow's {n_tasks} tasks",
                job.task_lo, job.task_hi
            ));
        }
        if !job.arrival_secs.is_finite() || job.arrival_secs < 0.0 {
            return bad(format!(
                "job {j} arrival must be finite and non-negative, got {}",
                job.arrival_secs
            ));
        }
        let roots: FxHashSet<u32> = job.roots.iter().map(|t| t.0).collect();
        for &r in &job.roots {
            if !(job.task_lo..=job.task_hi).contains(&r.0) {
                return bad(format!("job {j} root {} outside its task range", r.0));
            }
        }
        for tid in job.task_lo..=job.task_hi {
            let preds = workflow.predecessors(TaskId(tid));
            if preds.is_empty() && !roots.contains(&tid) {
                return bad(format!(
                    "job {j}: dependency-free task {tid} is not listed as a root"
                ));
            }
            if let Some(p) = preds
                .iter()
                .find(|p| !(job.task_lo..=job.task_hi).contains(&p.0))
            {
                return bad(format!(
                    "job {j}: task {tid} depends on task {} of another job",
                    p.0
                ));
            }
        }
    }
    let mut ranges: Vec<(u32, u32)> = sched.jobs.iter().map(|j| (j.task_lo, j.task_hi)).collect();
    ranges.sort_unstable();
    if let Some(w) = ranges.windows(2).find(|w| w[1].0 <= w[0].1) {
        return bad(format!(
            "job task ranges {}..={} and {}..={} overlap",
            w[0].0, w[0].1, w[1].0, w[1].1
        ));
    }
    Ok(())
}

#[cfg(test)]
mod thread_tests {
    use super::*;
    use crate::data::Direction;
    use crate::executor::run;
    use crate::task::CostProfile;
    use crate::workflow::{Workflow, WorkflowBuilder};
    use gpuflow_cluster::KernelWork;

    const MB: u64 = 1 << 20;

    fn map_workflow(n: usize) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let cost = CostProfile::fully_parallel(KernelWork {
            flops: 1e10,
            bytes: 1e8,
            parallelism: 1e9,
        });
        for i in 0..n {
            let x = b.input(format!("x{i}"), MB);
            b.submit("map", cost, &[(x, Direction::In)], false).unwrap();
        }
        b.build()
    }

    fn cfg(threads: usize) -> RunConfig {
        let mut c =
            RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Cpu).with_cpu_threads(threads);
        c.jitter_sigma = 0.0;
        c
    }

    #[test]
    fn thread_speedup_model_is_sublinear() {
        assert_eq!(RunConfig::thread_speedup(1), 1.0);
        assert!(RunConfig::thread_speedup(4) < 4.0);
        assert!(RunConfig::thread_speedup(4) > RunConfig::thread_speedup(2));
    }

    #[test]
    fn single_task_benefits_from_threads() {
        // One task on an idle cluster: intra-task threads are free wins.
        let wf = map_workflow(1);
        let t1 = run(&wf, &cfg(1)).unwrap().makespan();
        let t4 = run(&wf, &cfg(4)).unwrap().makespan();
        assert!(t4 < t1, "threads must accelerate a lone task: {t1} vs {t4}");
    }

    #[test]
    fn saturated_cluster_prefers_one_thread_per_task() {
        // 16 tasks on 8 cores (tiny cluster): oversubscribing threads
        // costs task parallelism and loses overall — the practice the
        // paper's frameworks recommend (§3.3).
        let wf = map_workflow(16);
        let t1 = run(&wf, &cfg(1)).unwrap().makespan();
        let t4 = run(&wf, &cfg(4)).unwrap().makespan();
        assert!(
            t1 < t4,
            "under task abundance one core per task must win: {t1} vs {t4}"
        );
    }

    #[test]
    fn bad_noise_and_cache_configs_fail_fast() {
        let wf = map_workflow(1);
        let mut c = cfg(1);
        c.jitter_sigma = 1.5;
        assert!(matches!(run(&wf, &c), Err(RunError::InvalidConfig(_))));
        let mut c = cfg(1);
        c.cache_fraction = -0.1;
        assert!(matches!(run(&wf, &c), Err(RunError::InvalidConfig(_))));
    }

    #[test]
    fn oversized_thread_counts_fail_fast() {
        let wf = map_workflow(1);
        // tiny() nodes have 4 cores; 8 threads per task cannot ever fit.
        let err = run(&wf, &cfg(8)).unwrap_err();
        assert!(matches!(err, RunError::InvalidConfig(_)), "{err}");
    }

    #[test]
    fn threads_never_used_by_gpu_or_serial_tasks() {
        let mut b = WorkflowBuilder::new();
        let x = b.input("x", MB);
        let serial = CostProfile::serial_only(KernelWork {
            flops: 1e8,
            bytes: 1e6,
            parallelism: 1.0,
        });
        b.submit("serial", serial, &[(x, Direction::In)], false)
            .unwrap();
        let wf = b.build();
        // With 4-thread config a serial task still holds one core: eight
        // such workflows' worth of slots remain on a 4-core node.
        let mut c = cfg(4);
        c.cluster.nodes = 1;
        let report = run(&wf, &c).unwrap();
        assert_eq!(report.records.len(), 1);
        // GPU mode: device tasks keep one host core regardless of config.
        let wfg = map_workflow(2);
        let cg = RunConfig::new(ClusterSpec::tiny(), ProcessorKind::Gpu).with_cpu_threads(4);
        assert!(run(&wfg, &cg).is_ok());
    }
}
