//! The paper's observations O1–O6 (§5) and correlation findings (a)–(e)
//! (§5.4.2), asserted against the simulator.

use gpuflow::algorithms::{KmeansConfig, MatmulConfig};
use gpuflow::analysis::signed_speedup;
use gpuflow::cluster::{ProcessorKind, StorageArchitecture};
use gpuflow::experiments::{fig11, Context};
use gpuflow::runtime::{RunReport, SchedulingPolicy, Workflow};

fn ctx() -> Context {
    Context::default()
}

/// The signed GPU speedup of `metric` on `wf`, with the paper's
/// defaults: shared disk, generation order.
fn speedup(ctx: &Context, wf: &Workflow, metric: impl Fn(&RunReport) -> f64) -> f64 {
    let (cpu, gpu) = ctx
        .pair(
            wf,
            StorageArchitecture::SharedDisk,
            SchedulingPolicy::GenerationOrder,
        )
        .both(metric)
        .expect("fits");
    signed_speedup(cpu, gpu)
}

fn user_code(task_type: &str) -> impl Fn(&RunReport) -> f64 + '_ {
    move |r| r.metrics.task_type(task_type).expect("ran").user_code
}

fn kmeans_user_speedup(ctx: &Context, grid: u64, clusters: u64) -> f64 {
    let wf = KmeansConfig::new(gpuflow::data::paper::kmeans_10gb(), grid, clusters, 1)
        .unwrap()
        .build_workflow();
    speedup(ctx, &wf, user_code("partial_sum"))
}

/// O1: user-code speedups are not affected significantly by block size
/// when serial processing and CPU-GPU communication dominate the gains.
#[test]
fn o1_kmeans_user_speedup_flat_in_block_size() {
    let ctx = ctx();
    let speedups: Vec<f64> = [256u64, 64, 16, 4]
        .iter()
        .map(|&g| kmeans_user_speedup(&ctx, g, 10))
        .collect();
    let min = speedups.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = speedups.iter().cloned().fold(0.0, f64::max);
    assert!(
        max - min < 0.5,
        "user-code speedup should stay flat across a 64x block range: {speedups:?}"
    );
    assert!(
        speedups.iter().all(|s| (1.0..2.0).contains(s)),
        "marginal wins only"
    );
}

/// O2: parallel-task speedups do not grow significantly with coarser
/// tasks — (de)serialization, which only parallelizes across cores,
/// caps them.
#[test]
fn o2_coarse_tasks_do_not_lift_parallel_task_speedup() {
    let ctx = ctx();
    let ds = gpuflow::data::paper::kmeans_10gb();
    let ptask = |grid: u64| {
        let wf = KmeansConfig::new(ds.clone(), grid, 10, 1)
            .unwrap()
            .build_workflow();
        speedup(&ctx, &wf, |r| r.metrics.parallel_task_time)
    };
    let (s32, s4, s2) = (ptask(32), ptask(4), ptask(2));
    // Coarsening 16x (32 -> 2 blocks) moves the parallel-task speedup by
    // far less than it moves the parallel-fraction speedup (which grows
    // ~8x over that range).
    for s in [s32, s4, s2] {
        assert!(
            s.abs() < 2.0,
            "parallel-task speedups stay small: {s32} {s4} {s2}"
        );
    }
}

/// O3: for tasks with low computational complexity (`add_func`),
/// increasing task granularity does not significantly increase GPU
/// speedups — the GPU keeps losing.
#[test]
fn o3_low_complexity_tasks_never_win_regardless_of_granularity() {
    let ctx = ctx();
    let ds = gpuflow::data::paper::matmul_8gb();
    let mut adds = Vec::new();
    for grid in [16u64, 2] {
        let wf = MatmulConfig::new(ds.clone(), grid)
            .unwrap()
            .build_workflow();
        adds.push(speedup(&ctx, &wf, user_code("add_func")));
    }
    assert!(
        adds.iter().all(|s| *s < 0.0),
        "add_func must lose on the GPU at every granularity: {adds:?}"
    );
}

/// O4: algorithm-specific parameters dominate: K-means speedups scale
/// with #clusters, not with block dimension.
#[test]
fn o4_cluster_count_dominates_block_dimension() {
    let ctx = ctx();
    let by_clusters = [
        kmeans_user_speedup(&ctx, 64, 10),
        kmeans_user_speedup(&ctx, 64, 1000),
    ];
    let by_blocks = [
        kmeans_user_speedup(&ctx, 256, 1000),
        kmeans_user_speedup(&ctx, 16, 1000),
    ];
    let cluster_effect = by_clusters[1] / by_clusters[0];
    let block_effect = by_blocks[1] / by_blocks[0];
    assert!(
        cluster_effect > 3.0 * block_effect,
        "clusters drive speedup ({cluster_effect:.2}x) far more than blocks ({block_effect:.2}x)"
    );
}

/// O5 and O6: with local disks the scheduling policy barely changes the
/// outcome; with the shared file system it does (for K-means' cheap,
/// iterative tasks).
#[test]
fn o5_o6_policy_storage_coupling() {
    let ctx = ctx();
    let wf = KmeansConfig::new(gpuflow::data::paper::kmeans_10gb(), 64, 10, 5)
        .unwrap()
        .build_workflow();
    let time = |storage, policy| {
        ctx.run(&wf, ProcessorKind::Cpu, storage, policy)
            .report()
            .expect("fits")
            .metrics
            .parallel_task_time
    };
    let rel_gap = |storage| {
        let fifo = time(storage, SchedulingPolicy::GenerationOrder);
        let loc = time(storage, SchedulingPolicy::DataLocality);
        (fifo - loc).abs() / fifo.max(loc)
    };
    let local = rel_gap(StorageArchitecture::LocalDisk);
    let shared = rel_gap(StorageArchitecture::SharedDisk);
    assert!(
        shared > local,
        "policy must matter more on shared disk: local {local:.3} vs shared {shared:.3}"
    );
}

/// Findings (a)-(e) of §5.4.2, on the quick correlation study.
#[test]
fn correlation_findings_hold() {
    let fig = fig11::run_quick(&Context::default());
    fig.matrix.check_invariants().unwrap();
    let g = |a: &str, b: &str| fig.matrix.get(a, b).unwrap();

    // (a) holds on the full-scale sample inventory (see EXPERIMENTS.md:
    // block size rho 0.51 vs dataset size rho 0.09); the reduced set
    // spans a 100x dataset range with a narrow block range, so here we
    // assert the related trade-off structure instead.
    // (b) block size vs grid dimension and DAG width: the parallelism
    // trade-off.
    assert!(g("block size", "grid dimension") < -0.3);
    assert!(g("grid dimension", "DAG maximum width") > 0.5);
    // (c) shared-disk runs pair with generation-order scheduling
    // (positive affinity between the one-hot columns).
    assert!(g("shared disk storage", "task gen. order scheduling") > 0.0);
    // (d) processor type vs measured parallel fraction: GPUs shrink it.
    assert!(g("GPU", "parallel fraction") < 0.0);
    assert!(g("CPU", "parallel fraction") > 0.0);
    // (e) processor type alone barely predicts execution time.
    assert!(g("parallel task exec. time", "CPU").abs() < 0.35);
}
