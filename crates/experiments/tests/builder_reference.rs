//! Every DAG builder against the copy it replaced. The algorithm configs,
//! `Session`, the stress suite and the job templates once carried their
//! own task loops; `reference` keeps the former ones (the five
//! `*Config::build_workflow` bodies, `stress::build` and
//! `jobs::build_jobs`) and the shared builders must produce equal
//! workflows on a parameter grid.
//!
//! Equal means the same tasks in the same order (type, cost, `cpu_only`,
//! access directions, and the bytes and `initial` flag of each accessed
//! object, objects numbered by first access) and the same sequence of
//! initial objects. Data names are debug-only and may differ, and
//! intermediates may be renumbered; the stress and job templates keep
//! their names, so those are compared too.

use gpuflow_algorithms::{
    CholeskyConfig, FmaConfig, KmeansConfig, KnnConfig, MatmulConfig, Session,
};
use gpuflow_data::{BlockCoord, DatasetSpec, GridDim};
use gpuflow_experiments::stress::{self, Shape};
use gpuflow_runtime::jobs::build_jobs;
use gpuflow_runtime::{CostProfile, Direction, JobShape, JobSpec, Workflow};

/// One access as the comparison sees it: direction, the object's bytes
/// and `initial` flag, and its index in order of first access.
type Access = (Direction, u64, bool, usize);

/// One task as the comparison sees it.
#[derive(Debug, PartialEq)]
struct Task {
    ty: String,
    cost: CostProfile,
    cpu_only: bool,
    accesses: Vec<Access>,
}

/// The tasks in submission order, and every initial object in
/// registration order as its bytes and first-access index (`usize::MAX`
/// when no task touches it).
fn view(wf: &Workflow) -> (Vec<Task>, Vec<(u64, usize)>) {
    let reg = wf.registry();
    let mut first = vec![usize::MAX; reg.len()];
    let mut seen = 0;
    let tasks = wf
        .tasks()
        .iter()
        .map(|t| Task {
            ty: t.task_type.as_str().to_owned(),
            cost: t.cost,
            cpu_only: t.cpu_only,
            accesses: t
                .params
                .iter()
                .map(|p| {
                    let o = reg.object(p.data);
                    let slot = &mut first[p.data.0 as usize];
                    if *slot == usize::MAX {
                        *slot = seen;
                        seen += 1;
                    }
                    (p.dir, o.bytes, o.initial, *slot)
                })
                .collect(),
        })
        .collect();
    let inputs = reg
        .iter()
        .filter(|o| o.initial)
        .map(|o| (o.bytes, first[o.id.0 as usize]))
        .collect();
    (tasks, inputs)
}

fn assert_same_tasks(got: &[Task], want: &[Task], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: task count");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert_eq!(g, w, "{what}: task {i}");
    }
}

/// Same tasks and same sequence of initial objects.
fn assert_equal(got: &Workflow, want: &Workflow, what: &str) {
    let (got_tasks, got_inputs) = view(got);
    let (want_tasks, want_inputs) = view(want);
    assert_same_tasks(&got_tasks, &want_tasks, what);
    assert_eq!(got_inputs, want_inputs, "{what}: initial objects");
}

/// Same data names, in registration order.
fn assert_same_names(got: &Workflow, want: &Workflow, what: &str) {
    let names =
        |wf: &Workflow| -> Vec<String> { wf.registry().iter().map(|o| o.name.clone()).collect() };
    assert_eq!(names(got), names(want), "{what}: data names");
}

/// Square `(n, g)` datasets and grids; `(10, 3)`, `(100, 7)` and
/// `(31, 4)` leave a ragged last block-row and block-column.
const SQUARE: [(u64, u64); 8] = [
    (8, 1),
    (64, 1),
    (64, 2),
    (10, 3),
    (64, 4),
    (30, 5),
    (100, 7),
    (31, 4),
];

/// Row-wise `(rows, cols, g)`; all but the divisible ones leave a ragged
/// last block.
const ROW_WISE: [(u64, u64, u64); 6] = [
    (64, 4, 1),
    (64, 4, 8),
    (1000, 5, 7),
    (1000, 5, 17),
    (8000, 10, 8),
    (333, 3, 21),
];

/// The paper's 10 GB K-means dataset at 256 blocks: 12.5 M rows give
/// nominal 48,829-row blocks and a 48,605-row last block.
fn kmeans_10gb_ragged() -> DatasetSpec {
    let ds = gpuflow_data::paper::kmeans_10gb();
    let spec = gpuflow_data::DsArraySpec::partition(ds.clone(), GridDim::row_wise(256)).unwrap();
    assert_eq!(spec.block.rows, 48_829);
    let last = spec.block_dim_at(BlockCoord { row: 255, col: 0 });
    assert_eq!(last.rows, 48_605);
    ds
}

fn row_wise(rows: u64, cols: u64) -> DatasetSpec {
    DatasetSpec::uniform("x", rows, cols, 1)
}

#[test]
fn square_configs_match_their_references() {
    for (n, g) in SQUARE {
        let ds = DatasetSpec::uniform("m", n, n, 1);
        let what = format!("{n}x{n} grid {g}");
        let mm = MatmulConfig::new(ds.clone(), g).unwrap();
        assert_equal(
            &mm.build_workflow(),
            &reference::matmul(&mm),
            &format!("matmul {what}"),
        );
        let fma = FmaConfig::new(ds.clone(), g).unwrap();
        assert_equal(
            &fma.build_workflow(),
            &reference::fma(&fma),
            &format!("fma {what}"),
        );
        let chol = CholeskyConfig::new(ds, g).unwrap();
        assert_equal(
            &chol.build_workflow(),
            &reference::cholesky(&chol),
            &format!("cholesky {what}"),
        );
    }
}

#[test]
fn row_wise_configs_match_their_references_on_ragged_blocks() {
    for (rows, cols, g) in ROW_WISE {
        let what = format!("{rows}x{cols} grid {g}");
        for (clusters, iterations) in [(1, 1), (3, 2), (10, 3)] {
            let km = KmeansConfig::new(row_wise(rows, cols), g, clusters, iterations).unwrap();
            assert_equal(
                &km.build_workflow(),
                &reference::kmeans(&km),
                &format!("kmeans {what} k={clusters} iters={iterations}"),
            );
        }
        for (queries, k) in [(1, 1), (100, 5), (7, 3)] {
            let knn = KnnConfig::new(row_wise(rows, cols), g, queries, k).unwrap();
            assert_equal(
                &knn.build_workflow(),
                &reference::knn(&knn),
                &format!("knn {what} q={queries} k={k}"),
            );
        }
    }
    let km = KmeansConfig::new(kmeans_10gb_ragged(), 256, 10, 2).unwrap();
    assert_equal(
        &km.build_workflow(),
        &reference::kmeans(&km),
        "kmeans_10gb at 256",
    );
    let knn = KnnConfig::new(kmeans_10gb_ragged(), 256, 512, 10).unwrap();
    assert_equal(
        &knn.build_workflow(),
        &reference::knn(&knn),
        "knn on kmeans_10gb at 256",
    );
}

#[test]
fn stress_shapes_match_the_reference() {
    for shape in Shape::ALL {
        for tasks in [1, 2, 3, 999, 1000, 1001, 2500] {
            let what = format!("stress {} {tasks}", shape.label());
            let got = stress::build(shape, tasks);
            let want = reference::stress(shape, tasks);
            assert_equal(&got, &want, &what);
            assert_same_names(&got, &want, &what);
        }
    }
}

#[test]
fn job_templates_match_the_reference() {
    let sizes = [1, 2, 5, 15, 16, 17, 33, 64];
    let mut specs = Vec::new();
    for (i, (shape, tasks)) in JobShape::ALL
        .into_iter()
        .flat_map(|s| sizes.map(|n| (s, n)))
        .enumerate()
    {
        specs.push(JobSpec {
            id: 100 + i,
            tenant: i % 3,
            shape,
            tasks,
            arrival_secs: 0.0,
            priority: 0,
        });
    }
    // One job per shape alone, then every job in one shared workflow.
    let singles = JobShape::ALL.map(|s| specs.iter().find(|j| j.shape == s).unwrap().clone());
    for jobs in [&singles[..], &specs[..]] {
        let (got, got_built) = build_jobs(jobs);
        let (want, want_built) = reference::jobs(jobs);
        let what = format!("{} jobs", jobs.len());
        assert_equal(&got, &want, &what);
        assert_same_names(&got, &want, &what);
        assert_eq!(got_built, want_built, "{what}: roots and task ranges");
    }
}

/// Builds the workflow of one `Session`.
fn session(stages: impl FnOnce(&mut Session)) -> Workflow {
    let mut s = Session::new();
    stages(&mut s);
    s.build()
}

#[test]
fn one_stage_session_matches_its_config() {
    // The Session loads whole arrays, so only the tasks are compared:
    // Cholesky's config registers just the lower triangle, and KNN's
    // registers the queries ahead of the blocks.
    let same_tasks = |got: &Workflow, want: &Workflow, what: &str| {
        assert_same_tasks(&view(got).0, &view(want).0, what);
    };
    // Ragged square grids included: the Session sizes a square layout's
    // blocks at the nominal block, as the square configs do.
    for (n, g) in SQUARE {
        let ds = DatasetSpec::uniform("m", n, n, 1);
        let grid = GridDim::square(g);
        let what = format!("{n}x{n} grid {g}");
        let wf = session(|s| {
            let a = s.load(ds.clone(), grid).unwrap();
            let b = s.load(ds.clone(), grid).unwrap();
            s.matmul(&a, &b).unwrap();
        });
        let config = MatmulConfig::new(ds.clone(), g).unwrap().build_workflow();
        same_tasks(&wf, &config, &format!("matmul {what}"));
        let wf = session(|s| {
            let [a, b, c] = ["a", "b", "c"].map(|_| s.load(ds.clone(), grid).unwrap());
            s.fma_matmul(&a, &b, &c).unwrap();
        });
        let config = FmaConfig::new(ds.clone(), g).unwrap().build_workflow();
        same_tasks(&wf, &config, &format!("fma {what}"));
        let wf = session(|s| {
            let a = s.load(ds.clone(), grid).unwrap();
            s.cholesky(&a).unwrap();
        });
        let config = CholeskyConfig::new(ds.clone(), g).unwrap().build_workflow();
        same_tasks(&wf, &config, &format!("cholesky {what}"));
    }
    let mut datasets: Vec<(DatasetSpec, u64)> = ROW_WISE
        .into_iter()
        .map(|(rows, cols, g)| (row_wise(rows, cols), g))
        .collect();
    datasets.push((kmeans_10gb_ragged(), 256));
    for (ds, g) in datasets {
        let what = format!("{}x{} grid {g}", ds.dim.rows, ds.dim.cols);
        let wf = session(|s| {
            let x = s.load(ds.clone(), GridDim::row_wise(g)).unwrap();
            s.kmeans_fit(&x, 10, 2).unwrap();
        });
        let config = KmeansConfig::new(ds.clone(), g, 10, 2)
            .unwrap()
            .build_workflow();
        same_tasks(&wf, &config, &format!("kmeans {what}"));
        let wf = session(|s| {
            let x = s.load(ds.clone(), GridDim::row_wise(g)).unwrap();
            s.knn(&x, 64, 5).unwrap();
        });
        let config = KnnConfig::new(ds.clone(), g, 64, 5)
            .unwrap()
            .build_workflow();
        same_tasks(&wf, &config, &format!("knn {what}"));
    }
}

/// The builders as they were before each DAG shape had one emitter.
mod reference {
    use gpuflow_algorithms::calibration::{
        add_func_cost, fma_func_cost, kmeans_merge_cost, kmeans_update_cost, matmul_func_cost,
        partial_sum_cost,
    };
    use gpuflow_algorithms::{
        gemm_cost, knn_merge_cost, knn_partial_cost, potrf_cost, syrk_cost, trsm_cost,
        CholeskyConfig, FmaConfig, KmeansConfig, KnnConfig, MatmulConfig,
    };
    use gpuflow_cluster::KernelWork;
    use gpuflow_runtime::{
        BuiltJob, CostProfile, DataId, Direction, JobShape, JobSpec, TaskId, Workflow,
        WorkflowBuilder,
    };

    /// The merge-tree fan-in both K-means and KNN defaulted to.
    const MERGE_ARITY: usize = 4;

    pub fn matmul(c: &MatmulConfig) -> Workflow {
        let g = c.grid();
        let mut b = WorkflowBuilder::new();
        let block_bytes = c.spec.block_bytes();
        let order = c.spec.block.rows;
        let a: Vec<Vec<DataId>> = (0..g)
            .map(|i| {
                (0..g)
                    .map(|k| b.input(format!("A[{i},{k}]"), block_bytes))
                    .collect()
            })
            .collect();
        let bb: Vec<Vec<DataId>> = (0..g)
            .map(|k| {
                (0..g)
                    .map(|j| b.input(format!("B[{k},{j}]"), block_bytes))
                    .collect()
            })
            .collect();
        for i in 0..g {
            for j in 0..g {
                let mut partials: Vec<DataId> = (0..g)
                    .map(|k| {
                        let p = b.intermediate(format!("P[{i},{j},{k}]"), block_bytes);
                        b.submit(
                            "matmul_func",
                            matmul_func_cost(order, order, order),
                            &[
                                (a[i as usize][k as usize], Direction::In),
                                (bb[k as usize][j as usize], Direction::In),
                                (p, Direction::Out),
                            ],
                            false,
                        )
                        .expect("valid matmul task");
                        p
                    })
                    .collect();
                let mut round = 0u32;
                while partials.len() > 1 {
                    let mut next = Vec::with_capacity(partials.len().div_ceil(2));
                    for pair in partials.chunks(2) {
                        if let [x, y] = pair {
                            let s = b.intermediate(
                                format!("S[{i},{j}]r{round}n{}", next.len()),
                                block_bytes,
                            );
                            b.submit(
                                "add_func",
                                add_func_cost(order, order),
                                &[
                                    (*x, Direction::In),
                                    (*y, Direction::In),
                                    (s, Direction::Out),
                                ],
                                false,
                            )
                            .expect("valid add task");
                            next.push(s);
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    partials = next;
                    round += 1;
                }
            }
        }
        b.build()
    }

    pub fn fma(c: &FmaConfig) -> Workflow {
        let g = c.grid();
        let mut b = WorkflowBuilder::new();
        let block_bytes = c.spec.block_bytes();
        let order = c.spec.block.rows;
        let a: Vec<Vec<_>> = (0..g)
            .map(|i| {
                (0..g)
                    .map(|k| b.input(format!("A[{i},{k}]"), block_bytes))
                    .collect()
            })
            .collect();
        let bb: Vec<Vec<_>> = (0..g)
            .map(|k| {
                (0..g)
                    .map(|j| b.input(format!("B[{k},{j}]"), block_bytes))
                    .collect()
            })
            .collect();
        let cc: Vec<Vec<_>> = (0..g)
            .map(|i| {
                (0..g)
                    .map(|j| b.input(format!("C[{i},{j}]"), block_bytes))
                    .collect()
            })
            .collect();
        for i in 0..g {
            for j in 0..g {
                for k in 0..g {
                    b.submit(
                        "fma_func",
                        fma_func_cost(order, order, order),
                        &[
                            (a[i as usize][k as usize], Direction::In),
                            (bb[k as usize][j as usize], Direction::In),
                            (cc[i as usize][j as usize], Direction::InOut),
                        ],
                        false,
                    )
                    .expect("valid fma task");
                }
            }
        }
        b.build()
    }

    pub fn kmeans(c: &KmeansConfig) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let n = c.features();
        let partial_bytes = c.clusters * (n + 1) * 8;
        let blocks: Vec<(DataId, u64)> = c
            .spec
            .coords()
            .map(|co| {
                let dim = c.spec.block_dim_at(co);
                let bytes = dim.bytes(c.spec.dataset.elem_bytes);
                (b.input(format!("X[{}]", co.row), bytes), dim.rows)
            })
            .collect();
        let centers = b.input("centers", c.clusters * n * 8);
        for iter in 0..c.iterations {
            let mut partials: Vec<DataId> = blocks
                .iter()
                .enumerate()
                .map(|(i, &(block, rows))| {
                    let p = b.intermediate(format!("psum[{iter},{i}]"), partial_bytes);
                    b.submit(
                        "partial_sum",
                        partial_sum_cost(rows, n, c.clusters),
                        &[
                            (block, Direction::In),
                            (centers, Direction::In),
                            (p, Direction::Out),
                        ],
                        false,
                    )
                    .expect("valid partial_sum task");
                    p
                })
                .collect();
            let mut round = 0;
            while partials.len() > 1 {
                let mut next = Vec::with_capacity(partials.len().div_ceil(MERGE_ARITY));
                for group in partials.chunks(MERGE_ARITY) {
                    if group.len() == 1 {
                        next.push(group[0]);
                        continue;
                    }
                    let merged = b.intermediate(
                        format!("merge[{iter},{round},{}]", next.len()),
                        partial_bytes,
                    );
                    let mut accesses: Vec<(DataId, Direction)> =
                        group.iter().map(|&p| (p, Direction::In)).collect();
                    accesses.push((merged, Direction::Out));
                    b.submit(
                        "merge",
                        kmeans_merge_cost(c.clusters, n, group.len()),
                        &accesses,
                        true,
                    )
                    .expect("valid merge task");
                    next.push(merged);
                }
                partials = next;
                round += 1;
            }
            b.submit(
                "update_centers",
                kmeans_update_cost(c.clusters, n),
                &[(partials[0], Direction::In), (centers, Direction::InOut)],
                true,
            )
            .expect("valid update task");
        }
        b.build()
    }

    pub fn knn(c: &KnnConfig) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let n = c.spec.dataset.dim.cols;
        let cand_bytes = c.queries * c.k * 16;
        let queries = b.input("queries", c.queries * n * 8);
        let mut candidates: Vec<DataId> = c
            .spec
            .coords()
            .map(|co| {
                let dim = c.spec.block_dim_at(co);
                let block = b.input(
                    format!("X[{}]", co.row),
                    dim.bytes(c.spec.dataset.elem_bytes),
                );
                let out = b.intermediate(format!("cand[{}]", co.row), cand_bytes);
                b.submit(
                    "knn_partial",
                    knn_partial_cost(dim.rows, n, c.queries, c.k),
                    &[
                        (block, Direction::In),
                        (queries, Direction::In),
                        (out, Direction::Out),
                    ],
                    false,
                )
                .expect("valid knn task");
                out
            })
            .collect();
        let mut round = 0;
        while candidates.len() > 1 {
            let mut next = Vec::with_capacity(candidates.len().div_ceil(MERGE_ARITY));
            for group in candidates.chunks(MERGE_ARITY) {
                if group.len() == 1 {
                    next.push(group[0]);
                    continue;
                }
                let merged = b.intermediate(format!("kmerge[{round},{}]", next.len()), cand_bytes);
                let mut accesses: Vec<(DataId, Direction)> =
                    group.iter().map(|&p| (p, Direction::In)).collect();
                accesses.push((merged, Direction::Out));
                b.submit(
                    "knn_merge",
                    knn_merge_cost(c.queries, c.k, group.len()),
                    &accesses,
                    true,
                )
                .expect("valid merge task");
                next.push(merged);
            }
            candidates = next;
            round += 1;
        }
        b.build()
    }

    pub fn cholesky(c: &CholeskyConfig) -> Workflow {
        let g = c.grid() as usize;
        let mut b = WorkflowBuilder::new();
        let block_bytes = c.spec.block_bytes();
        let order = c.spec.block.rows;
        let mut blocks: Vec<Vec<Option<DataId>>> = vec![vec![None; g]; g];
        for (i, row) in blocks.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate().take(i + 1) {
                *cell = Some(b.input(format!("A[{i},{j}]"), block_bytes));
            }
        }
        let at = |i: usize, j: usize| blocks[i][j].expect("lower-triangle block");
        for k in 0..g {
            b.submit(
                "potrf",
                potrf_cost(order),
                &[(at(k, k), Direction::InOut)],
                false,
            )
            .expect("valid potrf");
            for i in (k + 1)..g {
                b.submit(
                    "trsm",
                    trsm_cost(order),
                    &[(at(k, k), Direction::In), (at(i, k), Direction::InOut)],
                    false,
                )
                .expect("valid trsm");
            }
            for i in (k + 1)..g {
                b.submit(
                    "syrk",
                    syrk_cost(order),
                    &[(at(i, k), Direction::In), (at(i, i), Direction::InOut)],
                    false,
                )
                .expect("valid syrk");
                for j in (k + 1)..i {
                    b.submit(
                        "gemm",
                        gemm_cost(order),
                        &[
                            (at(i, k), Direction::In),
                            (at(j, k), Direction::In),
                            (at(i, j), Direction::InOut),
                        ],
                        false,
                    )
                    .expect("valid gemm");
                }
            }
        }
        b.build()
    }

    fn template_cost() -> CostProfile {
        CostProfile::fully_parallel(KernelWork::data_parallel(1e7, 1e6))
    }

    const MB: u64 = 1 << 20;

    pub fn stress(shape: JobShape, tasks: usize) -> Workflow {
        const STENCIL_WIDTH: usize = 1000;
        let cost = template_cost();
        let mut b = WorkflowBuilder::new();
        match shape {
            JobShape::Wide => {
                for i in 0..tasks {
                    let x = b.input(format!("x{i}"), MB);
                    b.submit("map", cost, &[(x, Direction::In)], false)
                        .expect("valid task");
                }
            }
            JobShape::Stencil => {
                let rows = (tasks / STENCIL_WIDTH).max(1);
                let mut prev: Vec<_> = (0..STENCIL_WIDTH)
                    .map(|i| b.input(format!("x{i}"), MB))
                    .collect();
                for r in 0..rows {
                    let mut cur = Vec::with_capacity(STENCIL_WIDTH);
                    for i in 0..STENCIL_WIDTH {
                        let out = b.intermediate(format!("c{r}_{i}"), MB);
                        let left = prev[i.saturating_sub(1)];
                        b.submit(
                            "st",
                            cost,
                            &[
                                (prev[i], Direction::In),
                                (left, Direction::In),
                                (out, Direction::Out),
                            ],
                            false,
                        )
                        .expect("valid task");
                        cur.push(out);
                    }
                    prev = cur;
                }
            }
            JobShape::Tree => {
                let leaves = tasks.div_ceil(2).max(1);
                let mut frontier: Vec<_> = (0..leaves)
                    .map(|i| {
                        let x = b.input(format!("x{i}"), MB);
                        let o = b.intermediate(format!("l{i}"), MB);
                        b.submit(
                            "leaf",
                            cost,
                            &[(x, Direction::In), (o, Direction::Out)],
                            false,
                        )
                        .expect("valid task");
                        o
                    })
                    .collect();
                let mut lvl = 0;
                while frontier.len() > 1 {
                    let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
                    for (j, pair) in frontier.chunks(2).enumerate() {
                        if let [a, bb] = pair {
                            let o = b.intermediate(format!("m{lvl}_{j}"), MB);
                            b.submit(
                                "merge",
                                cost,
                                &[
                                    (*a, Direction::In),
                                    (*bb, Direction::In),
                                    (o, Direction::Out),
                                ],
                                false,
                            )
                            .expect("valid task");
                            next.push(o);
                        } else {
                            next.push(pair[0]);
                        }
                    }
                    frontier = next;
                    lvl += 1;
                }
            }
        }
        b.build()
    }

    pub fn jobs(jobs: &[JobSpec]) -> (Workflow, Vec<BuiltJob>) {
        const JOB_STENCIL_WIDTH: usize = 16;
        let cost = template_cost();
        let mut b = WorkflowBuilder::new();
        let mut built: Vec<BuiltJob> = Vec::with_capacity(jobs.len());
        let mut next_task = 0u32;
        for job in jobs {
            let p = format!("j{}_", job.id);
            let ty = format!("{}_t{}", job.shape.label(), job.tenant);
            let mut roots: Vec<TaskId> = Vec::new();
            match job.shape {
                JobShape::Wide => {
                    for i in 0..job.tasks {
                        let x = b.input(format!("{p}x{i}"), MB);
                        let t = b
                            .submit(&ty, cost, &[(x, Direction::In)], false)
                            .expect("valid replay task");
                        roots.push(t);
                    }
                }
                JobShape::Stencil => {
                    let rows = (job.tasks / JOB_STENCIL_WIDTH).max(1);
                    let mut prev: Vec<_> = (0..JOB_STENCIL_WIDTH)
                        .map(|i| b.input(format!("{p}x{i}"), MB))
                        .collect();
                    for r in 0..rows {
                        let mut cur = Vec::with_capacity(JOB_STENCIL_WIDTH);
                        for i in 0..JOB_STENCIL_WIDTH {
                            let out = b.intermediate(format!("{p}c{r}_{i}"), MB);
                            let left = prev[i.saturating_sub(1)];
                            let t = b
                                .submit(
                                    &ty,
                                    cost,
                                    &[
                                        (prev[i], Direction::In),
                                        (left, Direction::In),
                                        (out, Direction::Out),
                                    ],
                                    false,
                                )
                                .expect("valid replay task");
                            if r == 0 {
                                roots.push(t);
                            }
                            cur.push(out);
                        }
                        prev = cur;
                    }
                }
                JobShape::Tree => {
                    let leaves = job.tasks.div_ceil(2).max(1);
                    let mut frontier: Vec<_> = (0..leaves)
                        .map(|i| {
                            let x = b.input(format!("{p}x{i}"), MB);
                            let o = b.intermediate(format!("{p}l{i}"), MB);
                            let t = b
                                .submit(
                                    &ty,
                                    cost,
                                    &[(x, Direction::In), (o, Direction::Out)],
                                    false,
                                )
                                .expect("valid replay task");
                            roots.push(t);
                            o
                        })
                        .collect();
                    let mut lvl = 0;
                    while frontier.len() > 1 {
                        let mut next = Vec::with_capacity(frontier.len().div_ceil(2));
                        for (q, pair) in frontier.chunks(2).enumerate() {
                            if let [a, bb] = pair {
                                let o = b.intermediate(format!("{p}m{lvl}_{q}"), MB);
                                b.submit(
                                    &ty,
                                    cost,
                                    &[
                                        (*a, Direction::In),
                                        (*bb, Direction::In),
                                        (o, Direction::Out),
                                    ],
                                    false,
                                )
                                .expect("valid replay task");
                                next.push(o);
                            } else {
                                next.push(pair[0]);
                            }
                        }
                        frontier = next;
                        lvl += 1;
                    }
                }
            }
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
}
