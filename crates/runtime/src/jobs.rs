//! Multi-tenant job model: the wide/stencil/tree DAG templates and the
//! fair-share gate the executor applies between whole jobs.
//!
//! [`JobShape::stamp`] is the one builder of the three template shapes.
//! A *job* is one tenant's workflow submission — a small template DAG
//! (16-cell stencil rows) stamped into a shared [`Workflow`] so
//! thousands of concurrent jobs share one cluster model; the stress
//! suite (`repro perf`) stamps the same templates at 10⁵–10⁶ tasks with
//! 1000-cell stencil rows. Two layers consume the jobs:
//!
//! * the replay frontend (`repro replay`) samples seeded [`JobSpec`]s
//!   and releases each job's roots at its arrival instant via
//!   [`crate::RunConfig::with_arrivals`];
//! * the `gpuflowd` daemon admits recorded submissions and hands the
//!   executor a [`JobSchedule`] — the fair-share + priority gate that
//!   releases whole jobs into a bounded in-flight window as capacity
//!   frees up, instead of releasing every root at its arrival time.
//!
//! The gate is *stride* fair-share over integer accounting: each
//! tenant accrues weighted consumption as its jobs are released, and
//! the next free window slot goes to the eligible job whose tenant has
//! the smallest consumption-to-weight ratio (compared exactly by
//! cross-multiplication — no floats touch the pick). Ties break by
//! priority (higher first), then submission order. Everything is a
//! pure function of the schedule, so runs are bit-identical at any
//! `--threads` count.

use gpuflow_cluster::KernelWork;

use crate::data::Direction;
use crate::task::{CostProfile, TaskId};
use crate::workflow::{Merge, Workflow, WorkflowBuilder};

/// DAG templates of the jobs and of the stress suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobShape {
    /// Independent fan-out: every task is a root.
    Wide,
    /// A stencil sweep: rows of cells, each reading its own and its left
    /// neighbour's cell of the previous row.
    Stencil,
    /// A binary reduction tree.
    Tree,
}

impl JobShape {
    /// Every shape, in sampling order.
    pub const ALL: [JobShape; 3] = [JobShape::Wide, JobShape::Stencil, JobShape::Tree];

    /// Lower-case label used in the submission log and task types.
    pub fn label(self) -> &'static str {
        match self {
            JobShape::Wide => "wide",
            JobShape::Stencil => "stencil",
            JobShape::Tree => "tree",
        }
    }

    /// Parses a [`JobShape::label`] back to the shape.
    pub fn parse(s: &str) -> Option<JobShape> {
        JobShape::ALL.into_iter().find(|sh| sh.label() == s)
    }

    /// Stamps this template with about `tasks` tasks into `b`: exact for
    /// wide; the stencil rounds down to whole rows of `width` cells (at
    /// least one row); the tree reduces `⌈tasks/2⌉` leaves in
    /// `2·⌈tasks/2⌉ − 1` tasks. Every object is 1 MiB and named after
    /// `prefix`; root tasks take the `root` type, the others `inner`.
    /// Returns the roots in construction order.
    pub fn stamp(
        self,
        b: &mut WorkflowBuilder,
        tasks: usize,
        width: usize,
        prefix: &str,
        root: &str,
        inner: &str,
    ) -> Vec<TaskId> {
        const MB: u64 = 1 << 20;
        let cost = CostProfile::fully_parallel(KernelWork::data_parallel(1e7, 1e6));
        let mut roots: Vec<TaskId> = Vec::new();
        match self {
            JobShape::Wide => {
                for i in 0..tasks {
                    let x = b.input(format!("{prefix}x{i}"), MB);
                    let t = b
                        .submit(root, cost, &[(x, Direction::In)], false)
                        .expect("valid template task");
                    roots.push(t);
                }
            }
            JobShape::Stencil => {
                let rows = (tasks / width).max(1);
                let mut prev: Vec<_> = (0..width)
                    .map(|i| b.input(format!("{prefix}x{i}"), MB))
                    .collect();
                for r in 0..rows {
                    let ty = if r == 0 { root } else { inner };
                    let mut cur = Vec::with_capacity(width);
                    for i in 0..width {
                        let out = b.intermediate(format!("{prefix}c{r}_{i}"), MB);
                        let left = prev[i.saturating_sub(1)];
                        let t = b
                            .submit(
                                ty,
                                cost,
                                &[
                                    (prev[i], Direction::In),
                                    (left, Direction::In),
                                    (out, Direction::Out),
                                ],
                                false,
                            )
                            .expect("valid template task");
                        if r == 0 {
                            roots.push(t);
                        }
                        cur.push(out);
                    }
                    prev = cur;
                }
            }
            JobShape::Tree => {
                let leaves = tasks.div_ceil(2).max(1);
                let frontier: Vec<_> = (0..leaves)
                    .map(|i| {
                        let x = b.input(format!("{prefix}x{i}"), MB);
                        let o = b.intermediate(format!("{prefix}l{i}"), MB);
                        let t = b
                            .submit(
                                root,
                                cost,
                                &[(x, Direction::In), (o, Direction::Out)],
                                false,
                            )
                            .expect("valid template task");
                        roots.push(t);
                        o
                    })
                    .collect();
                b.reduce(frontier, 2, |lvl, q, _| Merge {
                    name: format!("{prefix}m{lvl}_{q}"),
                    bytes: MB,
                    task_type: inner,
                    cost,
                    cpu_only: false,
                });
            }
        }
        roots
    }
}

/// Row width of the job stencil (the stress suite uses 1000, so replay
/// jobs stay small).
const JOB_STENCIL_WIDTH: usize = 16;

/// One job of a scenario: a tenant's submission of a DAG template.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Job index (sampling key / daemon-assigned id).
    pub id: usize,
    /// Owning tenant.
    pub tenant: usize,
    /// DAG template.
    pub shape: JobShape,
    /// Requested task count (the built DAG may round by shape).
    pub tasks: usize,
    /// Submission instant, virtual seconds.
    pub arrival_secs: f64,
    /// Scheduling priority within the fair-share pick (higher first;
    /// the seeded replay frontend submits everything at 0).
    pub priority: u32,
}

/// Where one job landed in the shared workflow after [`build_jobs`].
#[derive(Debug, Clone, PartialEq)]
pub struct BuiltJob {
    /// The job's root tasks (no predecessors), in construction order.
    pub roots: Vec<TaskId>,
    /// First task id of the job's contiguous range.
    pub task_lo: u32,
    /// Last task id of the job's contiguous range (inclusive).
    pub task_hi: u32,
}

/// Builds every job's DAG into one shared workflow (data names
/// prefixed `j<id>_`, task types `<shape>_t<tenant>`), returning each
/// job's root set and contiguous task-id range.
pub fn build_jobs(jobs: &[JobSpec]) -> (Workflow, Vec<BuiltJob>) {
    let mut b = WorkflowBuilder::new();
    let mut built: Vec<BuiltJob> = Vec::with_capacity(jobs.len());
    let mut next_task = 0u32;
    for job in jobs {
        let ty = format!("{}_t{}", job.shape.label(), job.tenant);
        let prefix = format!("j{}_", job.id);
        let roots = job
            .shape
            .stamp(&mut b, job.tasks, JOB_STENCIL_WIDTH, &prefix, &ty, &ty);
        let wf_tasks = b.task_count() as u32;
        built.push(BuiltJob {
            roots,
            task_lo: next_task,
            task_hi: wf_tasks - 1,
        });
        next_task = wf_tasks;
    }
    (b.build(), built)
}

/// Builds the scenario workflow plus the arrival list releasing each
/// job's root tasks at its submission instant — the ungated replay
/// frontend (see [`crate::RunConfig::with_arrivals`]).
pub fn build(jobs: &[JobSpec]) -> (Workflow, Vec<(TaskId, f64)>) {
    let (wf, built) = build_jobs(jobs);
    (wf, arrivals(jobs, &built))
}

/// The arrival list releasing each built job's root tasks at its
/// submission instant.
pub fn arrivals(jobs: &[JobSpec], built: &[BuiltJob]) -> Vec<(TaskId, f64)> {
    jobs.iter()
        .zip(built)
        .flat_map(|(job, b)| b.roots.iter().map(|&t| (t, job.arrival_secs)))
        .collect()
}

/// One tenant of a [`JobSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Tenant name (Prometheus label value).
    pub name: String,
    /// Fair-share weight (>= 1): under saturation a tenant's released
    /// work converges to `weight / sum(weights)` of the cluster.
    pub weight: u32,
}

/// One gated job of a [`JobSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct JobEntry {
    /// Submission id (journal key; reporting only).
    pub id: usize,
    /// Index into [`JobSchedule::tenants`].
    pub tenant: usize,
    /// Priority within the fair-share pick (higher first).
    pub priority: u32,
    /// Instant the job becomes *eligible*, virtual seconds. Actual
    /// release waits for a window slot.
    pub arrival_secs: f64,
    /// The job's root tasks.
    pub roots: Vec<TaskId>,
    /// First task id of the job's contiguous range.
    pub task_lo: u32,
    /// Last task id of the job's contiguous range (inclusive).
    pub task_hi: u32,
}

impl JobEntry {
    /// Tasks in the job.
    pub fn task_count(&self) -> u64 {
        (self.task_hi - self.task_lo + 1) as u64
    }
}

/// The executor's job gate: tenants with fair-share weights, the gated
/// jobs, and the in-flight window bounds (see the module docs for the
/// pick rule).
#[derive(Debug, Clone, PartialEq)]
pub struct JobSchedule {
    /// The tenants, in declaration order.
    pub tenants: Vec<TenantSpec>,
    /// The gated jobs, in submission order (earlier entries win
    /// fair-share ties).
    pub jobs: Vec<JobEntry>,
    /// Jobs allowed in flight at once (>= 1).
    pub max_inflight: usize,
    /// Per-tenant cap on in-flight jobs (0 = no cap).
    pub max_inflight_per_tenant: usize,
}

impl JobSchedule {
    /// Assembles a schedule from sampled specs and their built
    /// placements (parallel slices), with every tenant at the given
    /// weights.
    pub fn assemble(
        tenants: Vec<TenantSpec>,
        specs: &[JobSpec],
        built: &[BuiltJob],
        max_inflight: usize,
    ) -> Self {
        let jobs = specs
            .iter()
            .zip(built)
            .map(|(s, b)| JobEntry {
                id: s.id,
                tenant: s.tenant,
                priority: s.priority,
                arrival_secs: s.arrival_secs,
                roots: b.roots.clone(),
                task_lo: b.task_lo,
                task_hi: b.task_hi,
            })
            .collect();
        JobSchedule {
            tenants,
            jobs,
            max_inflight,
            max_inflight_per_tenant: 0,
        }
    }

    /// The task-id ranges annotated with tenant indices, for per-tenant
    /// metrics attribution (see `MetricsRegistry::begin_epoch`).
    pub fn tenant_ranges(&self) -> Vec<(u32, u32, usize)> {
        let mut ranges: Vec<(u32, u32, usize)> = self
            .jobs
            .iter()
            .map(|j| (j.task_lo, j.task_hi, j.tenant))
            .collect();
        ranges.sort();
        ranges
    }
}

/// The owner (a job, or a tenant) of each contiguous task-id range: the
/// one task-to-owner lookup of the job gate and the per-tenant metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct TaskOwners {
    /// `(task_lo, task_hi, owner)`, inclusive, sorted, non-overlapping.
    ranges: Vec<(u32, u32, usize)>,
}

impl TaskOwners {
    /// The lookup over `(task_lo, task_hi, owner)` ranges, which must
    /// not overlap.
    pub(crate) fn new(mut ranges: Vec<(u32, u32, usize)>) -> Self {
        ranges.sort_unstable();
        TaskOwners { ranges }
    }

    /// The owner of the range holding task `tid`, if any.
    pub(crate) fn owner(&self, tid: u32) -> Option<usize> {
        let i = self.ranges.partition_point(|&(_, hi, _)| hi < tid);
        let &(lo, _, owner) = self.ranges.get(i)?;
        (lo <= tid).then_some(owner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(id: usize, tenant: usize, shape: JobShape, tasks: usize) -> JobSpec {
        JobSpec {
            id,
            tenant,
            shape,
            tasks,
            arrival_secs: 0.0,
            priority: 0,
        }
    }

    #[test]
    fn built_ranges_are_contiguous_and_cover_the_workflow() {
        let specs = vec![
            spec(0, 0, JobShape::Wide, 5),
            spec(1, 1, JobShape::Tree, 9),
            spec(2, 2, JobShape::Stencil, 32),
        ];
        let (wf, built) = build_jobs(&specs);
        assert_eq!(built.len(), 3);
        assert_eq!(built[0].task_lo, 0);
        for w in built.windows(2) {
            assert_eq!(w[1].task_lo, w[0].task_hi + 1);
        }
        assert_eq!(built.last().unwrap().task_hi as usize + 1, wf.tasks().len());
        // Every root really is a root, inside its own job's range.
        for b in &built {
            assert!(!b.roots.is_empty());
            for &r in &b.roots {
                assert!(wf.predecessors(r).is_empty());
                assert!((b.task_lo..=b.task_hi).contains(&r.0));
            }
        }
    }

    #[test]
    fn build_wrapper_releases_only_roots_at_the_job_arrival() {
        let mut specs = vec![spec(0, 0, JobShape::Tree, 8), spec(1, 1, JobShape::Wide, 4)];
        specs[0].arrival_secs = 0.5;
        specs[1].arrival_secs = 1.25;
        let (wf, arrivals) = build(&specs);
        assert!(!arrivals.is_empty());
        for (tid, at) in &arrivals {
            assert!(wf.predecessors(*tid).is_empty());
            assert!(*at == 0.5 || *at == 1.25);
        }
    }

    #[test]
    fn shape_labels_round_trip() {
        for s in JobShape::ALL {
            assert_eq!(JobShape::parse(s.label()), Some(s));
        }
        assert_eq!(JobShape::parse("ring"), None);
    }

    #[test]
    fn schedule_assembles_parallel_slices() {
        let specs = vec![spec(0, 0, JobShape::Wide, 3), spec(1, 1, JobShape::Wide, 3)];
        let (_, built) = build_jobs(&specs);
        let sched = JobSchedule::assemble(
            vec![
                TenantSpec {
                    name: "a".into(),
                    weight: 2,
                },
                TenantSpec {
                    name: "b".into(),
                    weight: 1,
                },
            ],
            &specs,
            &built,
            2,
        );
        assert_eq!(sched.jobs.len(), 2);
        assert_eq!(sched.jobs[1].tenant, 1);
        assert_eq!(sched.tenant_ranges(), vec![(0, 2, 0), (3, 5, 1)]);
    }

    #[test]
    fn task_owners_find_the_range_holding_a_task() {
        let owners = TaskOwners::new(vec![(10, 19, 2), (0, 4, 7), (5, 5, 1)]);
        let tids = [0, 4, 5, 6, 9, 10, 19, 20];
        let (a, b, c) = (Some(7), Some(1), Some(2));
        assert_eq!(
            tids.map(|t| owners.owner(t)),
            [a, a, b, None, None, c, c, None]
        );
        assert_eq!(TaskOwners::default().owner(0), None);
    }
}
