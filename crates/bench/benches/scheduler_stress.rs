//! Scheduler-stress benchmark: thousands of simultaneously ready tasks
//! on a wide cluster. The CPU cases run the two policies whose placement
//! decisions score the nodes (CriticalPath, DataLocality); every CPU
//! worker waits for one core, so a decision always takes the head of the
//! ready queue. The GPU case runs generation order on a Minotauro-shaped
//! cluster (32 GPUs behind 128 cores): once every GPU is busy, cores are
//! still free, so every task completion starts a decision that finds no
//! placeable GPU task among the thousands ready; the per-lane ready
//! queue answers that from the lane heads. The stress DAGs at 10^5
//! and 10^6 tasks are measured by `repro perf` (`--full` for the
//! million-task runs).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpuflow_cluster::{ClusterSpec, KernelWork, ProcessorKind, StorageArchitecture};
use gpuflow_runtime::{
    run, CostProfile, Direction, RunConfig, SchedulingPolicy, Workflow, WorkflowBuilder,
};
use std::hint::black_box;

/// A two-level DAG with `width` independent middle tasks: one seed task
/// fans out to `width` workers that are all ready the moment the seed
/// finishes, each reading the shared seed output plus a private input
/// block (so DataLocality has per-node cache state to score), then a
/// sink joins them.
fn fan_out_workflow(width: usize) -> Workflow {
    let mut b = WorkflowBuilder::new();
    let shared = b.intermediate("shared", 64 << 20);
    let work = CostProfile::fully_parallel(KernelWork::data_parallel(5e8, 1e7));
    let seed = CostProfile::fully_parallel(KernelWork::data_parallel(1e7, 1e6));
    b.submit("seed", seed, &[(shared, Direction::Out)], false)
        .expect("valid");
    let mut outs = Vec::with_capacity(width);
    for i in 0..width {
        let block = b.input(format!("block{i}"), 8 << 20);
        let out = b.intermediate(format!("out{i}"), 1 << 20);
        outs.push(out);
        b.submit(
            "worker",
            work,
            &[
                (shared, Direction::In),
                (block, Direction::In),
                (out, Direction::Out),
            ],
            false,
        )
        .expect("valid");
    }
    let mut sink_params: Vec<(gpuflow_runtime::DataId, Direction)> =
        outs.into_iter().map(|o| (o, Direction::In)).collect();
    let sink_out = b.intermediate("sink", 1 << 10);
    sink_params.push((sink_out, Direction::Out));
    b.submit("sink", seed, &sink_params, true).expect("valid");
    b.build()
}

fn wide_cluster(nodes: usize) -> ClusterSpec {
    let mut spec = ClusterSpec::minotauro();
    spec.nodes = nodes;
    spec
}

fn bench_ready_width(c: &mut Criterion) {
    let mut g = c.benchmark_group("scheduler_stress");
    g.sample_size(10);
    for &width in &[500usize, 2000, 4000] {
        let wf = fan_out_workflow(width);
        for policy in [
            SchedulingPolicy::CriticalPath,
            SchedulingPolicy::DataLocality,
        ] {
            g.bench_with_input(BenchmarkId::new(policy.label(), width), &wf, |b, wf| {
                let cfg = RunConfig::new(wide_cluster(32), ProcessorKind::Cpu)
                    .with_policy(policy)
                    .with_storage(StorageArchitecture::SharedDisk);
                b.iter(|| black_box(run(wf, &cfg).expect("fits")))
            });
        }
        let gpu = format!("gpu {}", SchedulingPolicy::GenerationOrder.label());
        g.bench_with_input(BenchmarkId::new(&gpu, width), &wf, |b, wf| {
            let cfg = RunConfig::new(wide_cluster(8), ProcessorKind::Gpu)
                .with_policy(SchedulingPolicy::GenerationOrder)
                .with_storage(StorageArchitecture::SharedDisk);
            b.iter(|| black_box(run(wf, &cfg).expect("fits")))
        });
    }
    g.finish();
}

criterion_group!(scheduler_stress, bench_ready_width);
criterion_main!(scheduler_stress);
