//! Production-trace replay scenarios (`repro replay`).
//!
//! The paper's experiments run one workflow at a time from a cold
//! start; production GPU clusters look nothing like that. System-wide
//! telemetry studies of real fleets (see PAPERS.md) report three robust
//! shapes: a **diurnal arrival curve** (submissions follow the working
//! day), **heavy-tailed job sizes** (most jobs are small, a few are
//! enormous), and **mixed tenancy** (concurrent users with different
//! workload mixes). This module turns those shapes into *deterministic*
//! scenarios, in the Task Bench spirit of parameterized, regenerable
//! workloads: every sample is drawn with the stateless `mix64` hash
//! keyed by `(seed, job, salt)`, so the same seed regenerates the same
//! submission log, the same DAG, and — through the executor's virtual
//! clock — the same metrics series at any `--threads` count.
//!
//! A scenario is a set of jobs, each a small DAG (wide fan-out, a
//! stencil sweep, or a reduction tree — the shapes of
//! [`crate::stress`], scaled down), whose root tasks are released into
//! the executor at the job's sampled arrival instant via
//! [`RunConfig::with_arrivals`]. The run is folded into a
//! [`MetricsRegistry`], and the artifact golden-pins the submission
//! log, the metrics-over-time series, and the final Prometheus
//! exposition snapshot. `--chaos` adds a seeded [`FaultPlan`] for a
//! production-shaped *bad day*.

use std::fmt::Write as _;

use gpuflow_chaos::{mix64, FaultPlan};
use gpuflow_cluster::{ClusterSpec, ProcessorKind, StorageArchitecture};
use gpuflow_runtime::jobs::{arrivals, build_jobs};
use gpuflow_runtime::{
    BuiltJob, MetricsRegistry, RunConfig, RunError, RunReport, SchedulingPolicy, Workflow,
};
use gpuflow_sim::SimDuration;

pub use gpuflow_runtime::jobs::build;
pub use gpuflow_runtime::{JobShape, JobSpec};

/// Weight of each of the 24 "hours" of the diurnal arrival curve. The
/// scenario horizon is mapped onto this day: a deep overnight trough, a
/// morning ramp, a midday plateau, and an evening tail — the canonical
/// shape of production submission logs.
const DIURNAL_WEIGHTS: [u32; 24] = [
    2, 1, 1, 1, 1, 2, 4, 8, 14, 18, 20, 20, 18, 19, 20, 19, 16, 12, 9, 7, 5, 4, 3, 2,
];

/// Parameters of one replay scenario.
#[derive(Debug, Clone)]
pub struct ReplaySpec {
    /// Master seed: every sampled quantity is a pure function of it.
    pub seed: u64,
    /// Number of tenants in the mix.
    pub tenants: usize,
    /// Number of jobs submitted over the horizon.
    pub jobs: usize,
    /// Scenario horizon, virtual seconds, onto which the diurnal day is
    /// mapped.
    pub horizon_secs: f64,
    /// Inject the scenario's seeded fault plan.
    pub chaos: bool,
    /// Metrics sampling interval, virtual seconds.
    pub interval_secs: f64,
}

impl Default for ReplaySpec {
    fn default() -> Self {
        ReplaySpec {
            seed: 0xD1A1,
            tenants: 3,
            jobs: 24,
            horizon_secs: 4.0,
            chaos: false,
            interval_secs: 0.25,
        }
    }
}

/// Picks an index from integer `weights` with hash `h` (cumulative
/// categorical sampling; no floats).
fn weighted_index(weights: &[u32], h: u64) -> usize {
    let total: u64 = weights.iter().map(|&w| w as u64).sum();
    let mut x = h % total.max(1);
    for (i, &w) in weights.iter().enumerate() {
        if x < w as u64 {
            return i;
        }
        x -= w as u64;
    }
    weights.len() - 1
}

/// Samples the scenario's job set. Deterministic: every field of every
/// job is a pure function of `(spec.seed, job index)`. Jobs are
/// returned in submission order (arrival, then id).
pub fn generate(spec: &ReplaySpec) -> Vec<JobSpec> {
    let mut jobs = Vec::with_capacity(spec.jobs);
    for j in 0..spec.jobs {
        let key = |salt: u64| mix64(spec.seed ^ (j as u64).wrapping_mul(0x9E37) ^ salt);
        // Diurnal arrival: pick an hour bucket by weight, then a
        // uniform offset inside it, mapped onto the horizon.
        let hour = weighted_index(&DIURNAL_WEIGHTS, key(0xA1));
        let frac_millionths = key(0xB2) % 1_000_000;
        let day_pos = (hour as f64 + frac_millionths as f64 / 1e6) / 24.0;
        let arrival_secs = spec.horizon_secs * day_pos;
        // Tenant mix: earlier tenants submit more (weights T, T-1, .., 1).
        let tenant_weights: Vec<u32> = (0..spec.tenants.max(1))
            .map(|t| (spec.tenants.max(1) - t) as u32)
            .collect();
        let tenant = weighted_index(&tenant_weights, key(0xC3));
        // Shape: each tenant has a preferred template (tenant % 3) it
        // submits half the time; the rest is uniform.
        let h_shape = key(0xD4);
        let shape_idx = if h_shape % 2 == 0 {
            tenant % JobShape::ALL.len()
        } else {
            ((h_shape >> 1) % JobShape::ALL.len() as u64) as usize
        };
        let shape = JobShape::ALL[shape_idx];
        // Heavy-tailed size: a geometric number of doublings (trailing
        // zeros of a uniform hash) over a small base — most jobs are
        // tiny, a few are 2^5 bigger.
        let h_size = key(0xE5);
        let k = (h_size.trailing_zeros() as u64).min(5);
        let base = 8u64 << k;
        let tasks = (base + (h_size >> 8) % base) as usize;
        jobs.push(JobSpec {
            id: j,
            tenant,
            shape,
            tasks,
            arrival_secs,
            priority: 0,
        });
    }
    jobs.sort_by(|a, b| {
        a.arrival_secs
            .total_cmp(&b.arrival_secs)
            .then(a.id.cmp(&b.id))
    });
    jobs
}

/// The scenario's seeded fault plan (used with `--chaos`): a mid-run
/// node crash with rejoin, a straggler window, and a transient failure
/// rate on the dominant tenant's wide tasks — a production-shaped bad
/// day, fully determined by the spec seed.
pub fn fault_plan(spec: &ReplaySpec) -> FaultPlan {
    let h = mix64(spec.seed ^ 0xFA);
    let crash_node = (h % 8) as usize;
    let straggler_node = ((h >> 8) % 8) as usize;
    let t = spec.horizon_secs;
    FaultPlan::new(spec.seed)
        .with_node_crash(crash_node, 0.35 * t, Some(0.25 * t))
        .with_straggler(straggler_node, 0.5 * t, 0.8 * t, 2.5)
        .with_task_failures(Some("wide_t0"), 0.05)
}

/// The submission log: one line per job, in submission order.
pub fn submission_log(jobs: &[JobSpec]) -> String {
    let mut out = String::new();
    for j in jobs {
        let _ = writeln!(
            out,
            "submit t={:.6} tenant={} job={} shape={} tasks={}",
            j.arrival_secs,
            j.tenant,
            j.id,
            j.shape.label(),
            j.tasks
        );
    }
    out
}

/// Everything one replay run produces.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// The scenario parameters.
    pub spec: ReplaySpec,
    /// The sampled jobs, in submission order.
    pub jobs: Vec<JobSpec>,
    /// Total tasks in the built workflow.
    pub tasks: usize,
    /// Virtual makespan, seconds.
    pub makespan: f64,
    /// The folded metrics registry (series + exposition source).
    pub metrics: MetricsRegistry,
    /// Output fingerprint of the run (lineage hash).
    pub fingerprint: u64,
}

/// One executed scenario: the sampled jobs, their shared workflow with
/// each job's roots and task range, and the run.
pub(crate) struct Executed {
    pub(crate) jobs: Vec<JobSpec>,
    pub(crate) workflow: Workflow,
    pub(crate) built: Vec<BuiltJob>,
    pub(crate) report: RunReport,
}

/// Samples a scenario's jobs, builds their workflow and runs it with
/// telemetry and per-job arrivals (plus the fault plan under chaos):
/// the one assembly behind [`run`] and [`crate::spans::run`].
pub(crate) fn execute(spec: &ReplaySpec) -> Result<Executed, RunError> {
    let jobs = generate(spec);
    let (workflow, built) = build_jobs(&jobs);
    let mut cfg = RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Gpu)
        .with_storage(StorageArchitecture::SharedDisk)
        .with_policy(SchedulingPolicy::GenerationOrder)
        .with_seed(spec.seed)
        .with_arrivals(arrivals(&jobs, &built))
        .with_telemetry();
    cfg.jitter_sigma = 0.0;
    if spec.chaos {
        cfg = cfg.with_faults(fault_plan(spec));
    }
    let report = gpuflow_runtime::run(&workflow, &cfg)?;
    Ok(Executed {
        jobs,
        workflow,
        built,
        report,
    })
}

/// Runs a replay scenario end to end: sample jobs, build the workflow,
/// execute with telemetry and per-job arrivals, fold the metrics.
///
/// # Errors
/// The run's [`RunError`], e.g. when the chaos plan exhausts a task's
/// retry budget.
pub fn run(spec: &ReplaySpec) -> Result<ReplayReport, RunError> {
    let run = execute(spec)?;
    let interval = SimDuration::from_secs_f64(spec.interval_secs);
    Ok(ReplayReport {
        spec: spec.clone(),
        tasks: run.workflow.tasks().len(),
        makespan: run.report.makespan(),
        metrics: MetricsRegistry::from_log(&run.report.telemetry, interval),
        fingerprint: run.report.output_fingerprint,
        jobs: run.jobs,
    })
}

impl ReplayReport {
    /// The golden-pinned artifact: scenario header, submission log,
    /// fault plan (under chaos), metrics-over-time series, and the
    /// final Prometheus exposition snapshot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "replay scenario: seed {:#x}, {} jobs, {} tenants, horizon {:.2} s, chaos {}",
            self.spec.seed,
            self.spec.jobs,
            self.spec.tenants,
            self.spec.horizon_secs,
            if self.spec.chaos { "on" } else { "off" },
        );
        let _ = writeln!(
            out,
            "workflow: {} tasks   makespan: {:.9} s   fingerprint: {:#018x}",
            self.tasks, self.makespan, self.fingerprint
        );
        out.push_str("\n-- submission log --\n");
        out.push_str(&submission_log(&self.jobs));
        if self.spec.chaos {
            out.push_str("\n-- fault plan --\n");
            out.push_str(&fault_plan(&self.spec).render());
            out.push('\n');
        }
        out.push_str("\n-- metrics series --\n");
        out.push_str(&self.metrics.render_series());
        out.push_str("\n-- exposition --\n");
        out.push_str(&self.metrics.expose());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let spec = ReplaySpec::default();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].arrival_secs <= w[1].arrival_secs));
        assert_eq!(a.len(), spec.jobs);
        // All arrivals inside the horizon.
        assert!(a
            .iter()
            .all(|j| (0.0..spec.horizon_secs).contains(&j.arrival_secs)));
    }

    #[test]
    fn different_seeds_sample_different_scenarios() {
        let a = generate(&ReplaySpec::default());
        let b = generate(&ReplaySpec {
            seed: 0xBEEF,
            ..ReplaySpec::default()
        });
        assert_ne!(a, b);
    }

    #[test]
    fn job_sizes_are_heavy_tailed_not_constant() {
        let spec = ReplaySpec {
            jobs: 200,
            ..ReplaySpec::default()
        };
        let jobs = generate(&spec);
        let min = jobs.iter().map(|j| j.tasks).min().unwrap();
        let max = jobs.iter().map(|j| j.tasks).max().unwrap();
        assert!(min >= 8);
        assert!(max >= 4 * min, "tail missing: min {min}, max {max}");
        // The tenant mix is skewed toward tenant 0.
        let t0 = jobs.iter().filter(|j| j.tenant == 0).count();
        let t_last = jobs.iter().filter(|j| j.tenant == spec.tenants - 1).count();
        assert!(t0 > t_last, "tenant skew missing: {t0} vs {t_last}");
    }

    #[test]
    fn build_releases_only_root_tasks() {
        let spec = ReplaySpec {
            jobs: 6,
            ..ReplaySpec::default()
        };
        let jobs = generate(&spec);
        let (wf, arrivals) = build(&jobs);
        assert!(!arrivals.is_empty());
        for (tid, at) in &arrivals {
            assert!(wf.predecessors(*tid).is_empty(), "arrival for non-root");
            assert!((0.0..spec.horizon_secs).contains(at));
        }
    }

    #[test]
    fn replay_run_is_bit_reproducible() {
        let spec = ReplaySpec {
            jobs: 6,
            ..ReplaySpec::default()
        };
        let a = run(&spec).expect("replay runs");
        let b = run(&spec).expect("replay runs");
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.render(), b.render());
        // The makespan extends past the last arrival: jobs really are
        // held back until their submission instants.
        let last = a.jobs.last().unwrap().arrival_secs;
        assert!(
            a.makespan > last,
            "makespan {} vs last arrival {last}",
            a.makespan
        );
    }

    #[test]
    fn chaos_scenario_completes_and_differs() {
        let base = ReplaySpec {
            jobs: 6,
            ..ReplaySpec::default()
        };
        let chaos = ReplaySpec {
            chaos: true,
            ..base.clone()
        };
        let a = run(&base).expect("replay runs");
        let b = run(&chaos).expect("chaos replay recovers");
        assert!(
            b.makespan >= a.makespan,
            "this chaos plan slows this replay down"
        );
        assert!(b.render().contains("-- fault plan --"));
    }

    /// A chaos plan that exhausts a task's retry budget is the run's
    /// typed error, not a panic.
    #[test]
    fn exhausted_retry_budget_is_an_error() {
        let spec = ReplaySpec {
            seed: 5,
            jobs: 60,
            horizon_secs: 10.0,
            chaos: true,
            ..ReplaySpec::default()
        };
        let err = run(&spec).expect_err("seed 5 exhausts the default retry budget");
        assert!(
            matches!(err, RunError::TaskFailed { attempts: 4, .. }),
            "{err}"
        );
    }
}
