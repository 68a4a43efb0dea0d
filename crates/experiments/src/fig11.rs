//! Figure 11: Spearman correlation matrix of the execution factors.
//!
//! Rebuilds the paper's correlation study (§5.4) from an inventory of
//! 232 configurations: the end-to-end sweeps of every algorithm and
//! dataset over its grids (including the supplementary 128 MB Matmul
//! and 100 MB K-means sets), the Fig. 9a cluster-count sweeps, and the
//! Fig. 10 storage × scheduling sweeps, every point on CPUs and on GPUs.
//! Each completed run yields one sample of 15 features; the 17 OOM
//! combinations drop out, exactly as they could not be measured on the
//! real cluster, leaving 215 samples. The Fig. 10 shared-disk /
//! generation-order Matmul panel repeats ten end-to-end runs; each
//! counts twice as a sample but runs once.
//!
//! The inventory lists cheap descriptions of its DAGs, 69 distinct
//! ones. Each is built once, runs each of its distinct configurations
//! once, and is dropped before its worker builds the next.

use gpuflow_algorithms::{calibration, KmeansConfig, MatmulConfig};
use gpuflow_analysis::{one_hot, CorrMatrix, FeatureTable};
use gpuflow_cluster::{ProcessorKind, StorageArchitecture};
use gpuflow_data::{DatasetSpec, DsArraySpec};
use gpuflow_runtime::{DagShape, SchedulingPolicy, Workflow};

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

/// One DAG of the study, described by its parameters: cheap to list and
/// compare, and built only when its runs are due.
#[derive(Debug, Clone, PartialEq)]
enum Dag {
    /// A Matmul of the dataset on a square grid of this dimension.
    Matmul(DatasetSpec, u64),
    /// A K-means of the dataset on this many block-rows, with its
    /// cluster count and iterations.
    Kmeans(DatasetSpec, u64, u64, u32),
}

/// The processor, storage architecture and scheduling policy of a run.
type Config = (ProcessorKind, StorageArchitecture, SchedulingPolicy);

/// A built DAG and the features every run of it shares.
struct Sample {
    workflow: Workflow,
    array: DsArraySpec,
    algo_param: f64,
    complexity: f64,
    shape: DagShape,
}

impl Dag {
    /// Builds the workflow and its run-independent features.
    fn build(&self) -> Sample {
        let (workflow, array, algo_param, complexity) = match self {
            Dag::Matmul(dataset, grid) => {
                let cfg = MatmulConfig::new(dataset.clone(), *grid).expect("valid grid");
                let complexity = calibration::matmul_nominal_complexity(cfg.spec.block.rows);
                // Matmul has no algorithm-specific parameter; NaN drops
                // these samples from correlations involving the feature
                // (pairwise-complete observations, as in the paper's
                // pandas pipeline).
                (cfg.build_workflow(), cfg.spec, f64::NAN, complexity)
            }
            Dag::Kmeans(dataset, grid, clusters, iterations) => {
                let cfg = KmeansConfig::new(dataset.clone(), *grid, *clusters, *iterations)
                    .expect("valid grid");
                let complexity = calibration::kmeans_nominal_complexity(
                    cfg.spec.block.rows,
                    cfg.spec.dataset.dim.cols,
                    *clusters,
                );
                (cfg.build_workflow(), cfg.spec, *clusters as f64, complexity)
            }
        };
        let shape = workflow.shape();
        Sample {
            workflow,
            array,
            algo_param,
            complexity,
            shape,
        }
    }
}

/// Runs `sample` under `config`: one sample row, or `None` on OOM.
fn collect(ctx: &Context, sample: &Sample, config: Config) -> Option<Vec<f64>> {
    let (processor, storage, policy) = config;
    let outcome = ctx.run(&sample.workflow, processor, storage, policy);
    let report = outcome.report()?;
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
        sample.shape.max_width as f64,
        sample.shape.height as f64,
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

/// The paper study's inventory, in sample order.
fn paper_inventory() -> Vec<(Dag, Config)> {
    use gpuflow_data::paper;
    let mut entries = Vec::new();
    let mut on_each_processor = |dag: Dag, storage, policy| {
        for proc in ProcessorKind::ALL {
            entries.push((dag.clone(), (proc, storage, policy)));
        }
    };
    let shared = StorageArchitecture::SharedDisk;
    let fifo = SchedulingPolicy::GenerationOrder;

    // End-to-end sweeps (Fig. 7 settings) + the supplementary datasets.
    for ds in [
        paper::matmul_8gb(),
        paper::matmul_32gb(),
        paper::matmul_128mb(),
    ] {
        for grid in crate::fig7::MATMUL_GRIDS {
            on_each_processor(Dag::Matmul(ds.clone(), grid), shared, fifo);
        }
    }
    for ds in [
        paper::kmeans_10gb(),
        paper::kmeans_100gb(),
        paper::kmeans_100mb(),
    ] {
        for grid in crate::fig7::KMEANS_GRIDS {
            on_each_processor(Dag::Kmeans(ds.clone(), grid, 10, 1), shared, fifo);
        }
    }
    // Algorithm-specific-parameter sweeps (Fig. 9a settings): the higher
    // cluster counts vary the parameter, its complexity, and the
    // parallel fraction within the K-means family.
    for clusters in [100u64, 1000] {
        for grid in crate::fig7::KMEANS_GRIDS {
            let dag = Dag::Kmeans(paper::kmeans_10gb(), grid, clusters, 1);
            on_each_processor(dag, shared, fifo);
        }
    }
    // Storage x scheduling sweeps (Fig. 10 settings). The shared-disk /
    // generation-order Matmul panel repeats the end-to-end 8 GB runs.
    for combo in crate::fig10::COMBOS {
        for grid in crate::fig7::MATMUL_GRIDS {
            let dag = Dag::Matmul(paper::matmul_8gb(), grid);
            on_each_processor(dag, combo.storage, combo.policy);
        }
        for grid in crate::fig7::KMEANS_GRIDS {
            let iterations = crate::fig10::KMEANS_ITERATIONS;
            let dag = Dag::Kmeans(paper::kmeans_10gb(), grid, 10, iterations);
            on_each_processor(dag, combo.storage, combo.policy);
        }
    }
    entries
}

/// The reduced inventory of [`run_quick`], in sample order.
fn quick_inventory() -> Vec<(Dag, Config)> {
    use gpuflow_data::paper;
    let shared = StorageArchitecture::SharedDisk;
    let fifo = SchedulingPolicy::GenerationOrder;
    let mut entries = Vec::new();
    for grid in [4u64, 16] {
        for proc in ProcessorKind::ALL {
            for combo in crate::fig10::COMBOS {
                let config = (proc, combo.storage, combo.policy);
                entries.push((Dag::Matmul(paper::matmul_128mb(), grid), config));
                entries.push((Dag::Kmeans(paper::kmeans_100mb(), grid * 4, 10, 2), config));
            }
        }
    }
    // A second dataset size per algorithm, swept over a wide grid range,
    // so both the dataset-size and block-size features vary within each
    // family (finding (a) of §5.4.2).
    for grid in [2u64, 4, 8, 16] {
        for proc in ProcessorKind::ALL {
            let config = (proc, shared, fifo);
            entries.push((Dag::Matmul(paper::matmul_2gb_skewed(0.0), grid), config));
            entries.push((Dag::Kmeans(paper::kmeans_10gb(), grid * 16, 10, 2), config));
        }
    }
    entries
}

/// Runs the full correlation study with the paper's sample inventory.
pub fn run(ctx: &Context) -> Fig11 {
    build(ctx, paper_inventory())
}

/// Runs a reduced sample set (for tests and quick benches).
pub fn run_quick(ctx: &Context) -> Fig11 {
    build(ctx, quick_inventory())
}

/// An inventory grouped by DAG: each distinct DAG once, in order of
/// first appearance, with its distinct configurations; and for each
/// entry, in inventory order, the positions of its DAG and of its
/// configuration among that DAG's.
struct Plan {
    dags: Vec<(Dag, Vec<Config>)>,
    entries: Vec<(usize, usize)>,
}

impl Plan {
    fn new(inventory: Vec<(Dag, Config)>) -> Plan {
        let mut dags: Vec<(Dag, Vec<Config>)> = Vec::new();
        let mut entries = Vec::with_capacity(inventory.len());
        for (dag, config) in inventory {
            let d = dags.iter().position(|(d, _)| *d == dag).unwrap_or_else(|| {
                dags.push((dag, Vec::new()));
                dags.len() - 1
            });
            let configs = &mut dags[d].1;
            let c = configs
                .iter()
                .position(|c| *c == config)
                .unwrap_or_else(|| {
                    configs.push(config);
                    configs.len() - 1
                });
            entries.push((d, c));
        }
        Plan { dags, entries }
    }
}

fn build(ctx: &Context, inventory: Vec<(Dag, Config)>) -> Fig11 {
    let plan = Plan::new(inventory);
    // DAGs are independent: a worker builds one, runs each of its
    // configurations once and drops it before taking the next. Rows
    // are laid out in inventory order (a repeated configuration adds
    // its row twice), so the table is identical at any thread count.
    let runs = ctx.par_map(&plan.dags, |_, (dag, configs)| {
        let sample = dag.build();
        let rows = configs.iter().map(|&config| collect(ctx, &sample, config));
        rows.collect::<Vec<_>>()
    });
    let mut table = FeatureTable::new(FEATURES);
    let mut dropped = 0;
    for (d, c) in plan.entries {
        match &runs[d][c] {
            Some(row) => table.push_row(row),
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

    /// Each inventory's entries, distinct DAGs and distinct runs: the
    /// paper study's ten repeated Matmul 8 GB configurations run once.
    #[test]
    fn inventories_build_each_dag_and_run_each_configuration_once() {
        for (inventory, entries, dags, runs) in [
            (paper_inventory(), 232, 69, 222),
            (quick_inventory(), 48, 12, 48),
        ] {
            let plan = Plan::new(inventory);
            assert_eq!(plan.entries.len(), entries);
            assert_eq!(plan.dags.len(), dags);
            let distinct: usize = plan.dags.iter().map(|(_, configs)| configs.len()).sum();
            assert_eq!(distinct, runs);
        }
    }

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
