//! Generalizability extension (§5.5.1): populate the gap between the
//! paper's two extreme algorithm families.
//!
//! The paper proposes "devising a method to decide when it is worth
//! exploiting GPUs based on the ratio of parallel / serial code in an
//! algorithm" and says more algorithms between the extremes would enable
//! it. This experiment lines up five task types across the
//! parallel-fraction spectrum — `add_func` (parallel but trivially
//! cheap), low-K K-means, KNN, high-K K-means, `matmul_func` — and shows
//! that measured GPU user-code speedup tracks the combination of parallel
//! fraction and computational density, exactly the decision surface the
//! advisor crate searches.

use gpuflow_algorithms::{knn_partial_cost, KmeansConfig, KnnConfig, MatmulConfig};
use gpuflow_analysis::signed_speedup;
use gpuflow_cluster::{ClusterSpec, StorageArchitecture::SharedDisk};
use gpuflow_runtime::{CostProfile, SchedulingPolicy::GenerationOrder};

use crate::measure::{Context, Pair};
use crate::table::TextTable;

/// One workload's position on the parallel-fraction spectrum.
#[derive(Debug, Clone)]
pub struct SpectrumPoint {
    /// Task type measured.
    pub task_type: &'static str,
    /// Nominal parallel fraction of the dominant task (CPU model).
    pub parallel_fraction: f64,
    /// Measured GPU-over-CPU user-code speedup (signed).
    pub user_speedup: f64,
}

/// The generalizability study result.
#[derive(Debug, Clone)]
pub struct Generalizability {
    /// Points ordered by parallel fraction, ascending.
    pub points: Vec<SpectrumPoint>,
}

/// The spectrum point of `task_type`, whose nominal cost is `cost`,
/// from the CPU and GPU runs of a workflow that runs it.
fn point(pair: &Pair, task_type: &'static str, cost: CostProfile) -> SpectrumPoint {
    let (cpu, gpu) = pair
        .both(|r| r.metrics.task_type(task_type).expect("task ran").user_code)
        .expect("workload fits");
    let cpu_model = ClusterSpec::minotauro().node.cpu;
    SpectrumPoint {
        task_type,
        parallel_fraction: cost.parallel_fraction(&cpu_model),
        user_speedup: signed_speedup(cpu, gpu),
    }
}

/// Runs the spectrum study.
pub fn run(ctx: &Context) -> Generalizability {
    use gpuflow_algorithms::calibration;
    let pair = |wf| ctx.pair(&wf, SharedDisk, GenerationOrder);

    // The Matmul 8 GB / 8x8 workflow, run once for both of its task
    // types: add_func (fully parallel but memory-bound: the degenerate
    // end of the spectrum) and matmul_func (fully parallel and
    // compute-dense).
    let mm = MatmulConfig::new(gpuflow_data::paper::matmul_8gb(), 8).expect("valid grid");
    let order = mm.spec.block.rows;
    let mm = pair(mm.build_workflow());
    let km10 = KmeansConfig::new(gpuflow_data::paper::kmeans_10gb(), 64, 10, 1).expect("valid");
    let m = km10.spec.block.rows;
    let knn = KnnConfig::new(gpuflow_data::paper::kmeans_10gb(), 64, 512, 10).expect("valid");
    let km1000 = KmeansConfig::new(gpuflow_data::paper::kmeans_10gb(), 64, 1000, 1).expect("valid");
    let mut points = vec![
        point(&mm, "add_func", calibration::add_func_cost(order, order)),
        // Low-K K-means: serial-fraction-dominated.
        point(
            &pair(km10.build_workflow()),
            "partial_sum",
            calibration::partial_sum_cost(m, 100, 10),
        ),
        // KNN: the intermediate point.
        point(
            &pair(knn.build_workflow()),
            "knn_partial",
            knn_partial_cost(m, 100, 512, 10),
        ),
        // High-K K-means: the parallel fraction swings toward 1.
        point(
            &pair(km1000.build_workflow()),
            "partial_sum",
            calibration::partial_sum_cost(m, 100, 1000),
        ),
        point(
            &mm,
            "matmul_func",
            calibration::matmul_func_cost(order, order, order),
        ),
    ];
    points.sort_by(|a, b| {
        a.parallel_fraction
            .partial_cmp(&b.parallel_fraction)
            .expect("finite fractions")
    });
    Generalizability { points }
}

impl Generalizability {
    /// Renders the spectrum table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Generalizability: parallel-fraction spectrum (extension of Fig. 12)",
            ["task", "parallel fraction", "GPU user-code speedup"],
        );
        for p in &self.points {
            t.push([
                p.task_type.to_string(),
                format!("{:.3}", p.parallel_fraction),
                format!("{:+.2}x", p.user_speedup),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_tracks_the_spectrum_where_compute_is_dense() {
        let g = run(&Context::default());
        assert_eq!(g.points.len(), 5);
        let by_name = |n: &str| {
            g.points
                .iter()
                .find(|p| p.task_type == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        let add = by_name("add_func");
        let knn = by_name("knn_partial");
        let mm = by_name("matmul_func");
        // Compute-dense tasks order by parallel fraction...
        assert!(
            knn.user_speedup > 1.0,
            "knn should win on GPU: {}",
            knn.user_speedup
        );
        assert!(mm.user_speedup > knn.user_speedup);
        // ...while add_func shows a high fraction is NOT sufficient — its
        // arithmetic intensity is too low (the O3 caveat the advisor's
        // upper-bound rule captures).
        assert!(add.parallel_fraction > 0.9);
        assert!(add.user_speedup < 0.0);
        assert!(g.render().contains("knn_partial"));
    }

    #[test]
    fn kmeans_fraction_grows_with_clusters_in_the_spectrum() {
        let g = run(&Context::default());
        let fracs: Vec<f64> = g
            .points
            .iter()
            .filter(|p| p.task_type == "partial_sum")
            .map(|p| p.parallel_fraction)
            .collect();
        assert_eq!(fracs.len(), 2);
        assert!(fracs[0] < fracs[1], "sorted ascending: {fracs:?}");
    }
}
