//! Figure 11: Spearman correlation matrix of the execution factors.
//!
//! Rebuilds the paper's 192-sample study: every combination of algorithm,
//! dataset (including the supplementary 128 MB Matmul and 100 MB K-means
//! sets), grid dimension, processor type, and — for the Fig. 10 subsets —
//! storage architecture and scheduling policy. Each completed run yields
//! one sample of 15 features; OOM combinations drop out, exactly as they
//! could not be measured on the real cluster.

use gpuflow_algorithms::{calibration, KmeansConfig, MatmulConfig};
use gpuflow_analysis::{one_hot, CorrMatrix, FeatureTable};
use gpuflow_cluster::{ProcessorKind, StorageArchitecture};
use gpuflow_data::DsArraySpec;
use gpuflow_runtime::{SchedulingPolicy, Workflow};

use crate::measure::Context;

/// Feature (column) names, in the paper's Fig. 11 order.
pub const FEATURES: [&str; 15] = [
    "parallel task exec. time",
    "block size",
    "grid dimension",
    "parallel fraction",
    "algorithm-specific param.",
    "computational complexity",
    "DAG maximum width",
    "DAG maximum height",
    "dataset size",
    "CPU",
    "GPU",
    "shared disk storage",
    "local disk storage",
    "task gen. order scheduling",
    "data locality scheduling",
];

/// The Figure 11 result: the samples and their correlation matrix.
#[derive(Debug, Clone)]
pub struct Fig11 {
    /// The raw feature table (one row per completed run).
    pub table: FeatureTable,
    /// Spearman correlation matrix over all features.
    pub matrix: CorrMatrix,
    /// Combinations that hit an OOM and were dropped.
    pub dropped_oom: usize,
}

struct SampleSpec {
    workflow: Workflow,
    array: DsArraySpec,
    algo_param: f64,
    complexity: f64,
}

fn matmul_sample(dataset: &gpuflow_data::DatasetSpec, grid: u64) -> SampleSpec {
    let cfg = MatmulConfig::new(dataset.clone(), grid).expect("valid grid");
    let order = cfg.spec.block.rows;
    SampleSpec {
        workflow: cfg.build_workflow(),
        array: cfg.spec.clone(),
        // Matmul has no algorithm-specific parameter; NaN drops these
        // samples from correlations involving the feature (pairwise-
        // complete observations, as in the paper's pandas pipeline).
        algo_param: f64::NAN,
        complexity: calibration::matmul_nominal_complexity(order),
    }
}

fn kmeans_sample(
    dataset: &gpuflow_data::DatasetSpec,
    grid: u64,
    clusters: u64,
    iterations: u32,
) -> SampleSpec {
    let cfg = KmeansConfig::new(dataset.clone(), grid, clusters, iterations).expect("valid grid");
    let spec = cfg.spec.clone();
    SampleSpec {
        workflow: cfg.build_workflow(),
        array: spec.clone(),
        algo_param: clusters as f64,
        complexity: calibration::kmeans_nominal_complexity(
            spec.block.rows,
            spec.dataset.dim.cols,
            clusters,
        ),
    }
}

/// Collects one sample row, or `None` on OOM.
fn collect(
    ctx: &Context,
    sample: &SampleSpec,
    processor: ProcessorKind,
    storage: StorageArchitecture,
    policy: SchedulingPolicy,
) -> Option<Vec<f64>> {
    let outcome = ctx.run(&sample.workflow, processor, storage, policy);
    let report = outcome.report()?;
    let shape = sample.workflow.shape();
    // Parallel fraction as *measured* on the executing processor: the
    // share of user-code time spent in the parallel part. On GPU runs the
    // parallel part shrinks, which is exactly the paper's finding (d) —
    // a negative correlation between the GPU column and this feature.
    let user = report.metrics.mean_user_code();
    let pf = if user > 0.0 {
        report.metrics.mean_parallel() / user
    } else {
        0.0
    };
    let mut row = vec![
        report.metrics.parallel_task_time,
        sample.array.block_bytes() as f64,
        sample.array.blocks() as f64,
        pf,
        sample.algo_param,
        sample.complexity,
        shape.max_width as f64,
        shape.height as f64,
        sample.array.dataset.bytes() as f64,
    ];
    row.extend(one_hot(&["CPU", "GPU"], processor.label()));
    row.extend(one_hot(&["shared disk", "local disk"], storage.label()));
    row.extend(one_hot(
        &["task gen. order", "data locality"],
        policy.label(),
    ));
    Some(row)
}

/// Runs the full correlation study with the paper's sample inventory.
pub fn run(ctx: &Context) -> Fig11 {
    use gpuflow_data::paper;
    let mut samples: Vec<(
        SampleSpec,
        ProcessorKind,
        StorageArchitecture,
        SchedulingPolicy,
    )> = Vec::new();
    let shared = StorageArchitecture::SharedDisk;
    let fifo = SchedulingPolicy::GenerationOrder;

    // End-to-end sweeps (Fig. 7 settings) + the supplementary datasets.
    for ds in [
        paper::matmul_8gb(),
        paper::matmul_32gb(),
        paper::matmul_128mb(),
    ] {
        for grid in crate::fig7::MATMUL_GRIDS {
            for proc in ProcessorKind::ALL {
                samples.push((matmul_sample(&ds, grid), proc, shared, fifo));
            }
        }
    }
    for ds in [
        paper::kmeans_10gb(),
        paper::kmeans_100gb(),
        paper::kmeans_100mb(),
    ] {
        for grid in crate::fig7::KMEANS_GRIDS {
            for proc in ProcessorKind::ALL {
                samples.push((kmeans_sample(&ds, grid, 10, 1), proc, shared, fifo));
            }
        }
    }
    // Algorithm-specific-parameter sweeps (Fig. 9a settings): the higher
    // cluster counts vary the parameter, its complexity, and the
    // parallel fraction within the K-means family.
    for clusters in [100u64, 1000] {
        for grid in crate::fig7::KMEANS_GRIDS {
            for proc in ProcessorKind::ALL {
                samples.push((
                    kmeans_sample(&paper::kmeans_10gb(), grid, clusters, 1),
                    proc,
                    shared,
                    fifo,
                ));
            }
        }
    }
    // Storage x scheduling sweeps (Fig. 10 settings).
    for combo in crate::fig10::COMBOS {
        for grid in crate::fig7::MATMUL_GRIDS {
            for proc in ProcessorKind::ALL {
                samples.push((
                    matmul_sample(&paper::matmul_8gb(), grid),
                    proc,
                    combo.storage,
                    combo.policy,
                ));
            }
        }
        for grid in crate::fig7::KMEANS_GRIDS {
            for proc in ProcessorKind::ALL {
                samples.push((
                    kmeans_sample(
                        &paper::kmeans_10gb(),
                        grid,
                        10,
                        crate::fig10::KMEANS_ITERATIONS,
                    ),
                    proc,
                    combo.storage,
                    combo.policy,
                ));
            }
        }
    }
    build(ctx, samples)
}

/// Runs a reduced sample set (for tests and quick benches).
pub fn run_quick(ctx: &Context) -> Fig11 {
    use gpuflow_data::paper;
    let shared = StorageArchitecture::SharedDisk;
    let fifo = SchedulingPolicy::GenerationOrder;
    let mut samples = Vec::new();
    for grid in [4u64, 16] {
        for proc in ProcessorKind::ALL {
            for combo in crate::fig10::COMBOS {
                samples.push((
                    matmul_sample(&paper::matmul_128mb(), grid),
                    proc,
                    combo.storage,
                    combo.policy,
                ));
                samples.push((
                    kmeans_sample(&paper::kmeans_100mb(), grid * 4, 10, 2),
                    proc,
                    combo.storage,
                    combo.policy,
                ));
            }
        }
    }
    // A second dataset size per algorithm, swept over a wide grid range,
    // so both the dataset-size and block-size features vary within each
    // family (finding (a) of §5.4.2).
    for grid in [2u64, 4, 8, 16] {
        for proc in ProcessorKind::ALL {
            samples.push((
                matmul_sample(&paper::matmul_2gb_skewed(0.0), grid),
                proc,
                shared,
                fifo,
            ));
            samples.push((
                kmeans_sample(&paper::kmeans_10gb(), grid * 16, 10, 2),
                proc,
                shared,
                fifo,
            ));
        }
    }
    build(ctx, samples)
}

fn build(
    ctx: &Context,
    samples: Vec<(
        SampleSpec,
        ProcessorKind,
        StorageArchitecture,
        SchedulingPolicy,
    )>,
) -> Fig11 {
    let mut table = FeatureTable::new(FEATURES);
    let mut dropped = 0;
    // Samples are independent runs; rows are re-assembled in sample
    // order, so the table is identical at any thread count.
    let rows = ctx.par_map(&samples, |_, (sample, proc, storage, policy)| {
        collect(ctx, sample, *proc, *storage, *policy)
    });
    for row in rows {
        match row {
            Some(row) => table.push_row(&row),
            None => dropped += 1,
        }
    }
    let matrix = table.correlation_matrix();
    Fig11 {
        table,
        matrix,
        dropped_oom: dropped,
    }
}

impl Fig11 {
    /// Renders the correlation matrix (Fig. 11 layout).
    pub fn render(&self) -> String {
        format!(
            "== Figure 11: Spearman correlation of key features ({} samples, {} OOM dropped) ==\n{}",
            self.table.rows(),
            self.dropped_oom,
            self.matrix.render(26)
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_study_reproduces_key_signs() {
        let fig = run_quick(&Context::default());
        assert!(fig.table.rows() >= 30);
        fig.matrix.check_invariants().unwrap();
        let g = |a: &str, b: &str| fig.matrix.get(a, b).unwrap();
        // One-hot complements are exactly inverse (the Fig. 11 ±1 bands).
        assert!((g("CPU", "GPU") + 1.0).abs() < 1e-12);
        assert!((g("shared disk storage", "local disk storage") + 1.0).abs() < 1e-12);
        // Block size against grid dimension: the Eq. 2 trade-off (the
        // mixed dataset sizes of the quick set soften the coefficient).
        assert!(g("block size", "grid dimension") < -0.3);
        // Grid dimension tracks DAG width (finding (b) of §5.4.2).
        assert!(g("grid dimension", "DAG maximum width") > 0.5);
        // Shared disk correlates positively with execution time (O5/O6).
        assert!(g("parallel task exec. time", "shared disk storage") > 0.0);
        assert!(g("parallel task exec. time", "local disk storage") < 0.0);
    }
}
