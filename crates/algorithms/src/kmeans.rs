//! Distributed K-means (the dislib implementation studied in the paper).
//!
//! The dataset is chunked row-wise into a `k × 1` grid (§4.4.4); every
//! iteration runs one `partial_sum` task per block against the current
//! centers, merges the partial tallies in a small reduction tree, and
//! updates the centers — producing the narrow and deep DAG of Fig. 6a
//! (low task parallelism, high task dependency).

use gpuflow_data::{
    kmeans_partial_sum, kmeans_update_centers, BlockCoord, DatasetSpec, DsArray, DsArraySpec,
    GridDim, Matrix, PartitionError,
};
use gpuflow_runtime::{DataId, Direction, Merge, Workflow, WorkflowBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::calibration::{kmeans_merge_cost, kmeans_update_cost, partial_sum_cost};
use crate::operand::{ArrayHandle, ObjectHandle};

/// Fan-in of the K-means and KNN merge trees.
pub(crate) const MERGE_ARITY: usize = 4;

/// Configuration of one distributed K-means workflow.
#[derive(Debug, Clone)]
pub struct KmeansConfig {
    /// The row-wise partitioned dataset.
    pub spec: DsArraySpec,
    /// Number of clusters (the algorithm-specific parameter of Table 1).
    pub clusters: u64,
    /// Lloyd iterations to run.
    pub iterations: u32,
}

impl KmeansConfig {
    /// Partitions `dataset` into `grid_rows × 1` row-wise blocks.
    ///
    /// # Errors
    /// Propagates partitioning violations.
    pub fn new(
        dataset: DatasetSpec,
        grid_rows: u64,
        clusters: u64,
        iterations: u32,
    ) -> Result<Self, PartitionError> {
        let spec = DsArraySpec::partition(dataset, GridDim::row_wise(grid_rows))?;
        Ok(KmeansConfig {
            spec,
            clusters,
            iterations,
        })
    }

    /// Features per sample.
    pub fn features(&self) -> u64 {
        self.spec.dataset.dim.cols
    }

    /// Builds the dependency DAG; each block is sized and costed by its
    /// own rows.
    pub fn build_workflow(&self) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let x = ArrayHandle::inputs(&mut b, &self.spec, "X");
        kmeans_tasks(&mut b, &x, self.clusters, self.iterations);
        b.build()
    }
}

/// Registers the centers as a storage input, then submits `iterations`
/// Lloyd rounds over the block-rows of `x`: one `partial_sum` per
/// block-row (reading every block of the row and the centers), a merge
/// tree, and an `update_centers` that rewrites the centers in place.
/// Returns the centers.
pub(crate) fn kmeans_tasks(
    b: &mut WorkflowBuilder,
    x: &ArrayHandle,
    clusters: u64,
    iterations: u32,
) -> ObjectHandle {
    let (_, n) = x.shape();
    // One partial tally: k centers × (features + count).
    let tally_bytes = clusters * (n + 1) * 8;
    let centers_bytes = clusters * n * 8;
    let centers = b.input("centers", centers_bytes);
    for iter in 0..iterations {
        // One partial_sum per block-row (Fig. 6a's numbered nodes).
        let partials: Vec<DataId> = (0..x.grid.rows)
            .map(|r| {
                let p = b.intermediate(format!("psum[{iter},{r}]"), tally_bytes);
                let mut accesses: Vec<(DataId, Direction)> = (0..x.grid.cols)
                    .map(|c| (x.block(r, c), Direction::In))
                    .collect();
                accesses.push((centers, Direction::In));
                accesses.push((p, Direction::Out));
                b.submit(
                    "partial_sum",
                    partial_sum_cost(x.block_rows(r), n, clusters),
                    &accesses,
                    false,
                )
                .expect("valid partial_sum task");
                p
            })
            .collect();
        // Merge tree (dislib's _merge, CPU-side bookkeeping).
        let merged = b.reduce(partials, MERGE_ARITY, |round, index, len| Merge {
            name: format!("merge[{iter},{round},{index}]"),
            bytes: tally_bytes,
            task_type: "merge",
            cost: kmeans_merge_cost(clusters, n, len),
            cpu_only: true,
        });
        // Update the centers from the merged tally (the sync point of
        // Fig. 6a; the InOut access serialises iterations).
        b.submit(
            "update_centers",
            kmeans_update_cost(clusters, n),
            &[(merged, Direction::In), (centers, Direction::InOut)],
            true,
        )
        .expect("valid update task");
    }
    ObjectHandle {
        data: centers,
        bytes: centers_bytes,
    }
}

/// Deterministic initial centers: `k` points uniform in the unit cube.
pub fn initial_centers(clusters: usize, features: usize, seed: u64) -> Matrix {
    let mut rng = StdRng::seed_from_u64(seed);
    Matrix::from_fn(clusters, features, |_, _| rng.gen::<f64>())
}

/// Functional reference: runs `iterations` of blocked K-means over real
/// data, mirroring the workflow's partial-sum/merge/update structure.
pub fn reference_kmeans(data: &DsArray, centers0: &Matrix, iterations: u32) -> Matrix {
    let mut centers = centers0.clone();
    let grid = data.spec().grid;
    for _ in 0..iterations {
        let partials: Vec<_> = (0..grid.rows)
            .map(|row| kmeans_partial_sum(data.block(BlockCoord { row, col: 0 }), &centers))
            .collect();
        centers = kmeans_update_centers(&partials, &centers);
    }
    centers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config(rows: u64, grid: u64, k: u64, iters: u32) -> KmeansConfig {
        KmeansConfig::new(DatasetSpec::uniform("km", rows, 4, 1), grid, k, iters).unwrap()
    }

    #[test]
    fn task_counts_per_iteration() {
        // 8 blocks, arity 4: 8 partial_sum + 2 merge + 1 merge + 1 update.
        let wf = config(64, 8, 3, 1).build_workflow();
        let by_type = |t: &str| wf.tasks().iter().filter(|x| x.task_type == t).count();
        assert_eq!(by_type("partial_sum"), 8);
        assert_eq!(by_type("merge"), 3);
        assert_eq!(by_type("update_centers"), 1);
    }

    #[test]
    fn dag_is_narrow_and_deep() {
        let three_iters = config(64, 4, 3, 3).build_workflow();
        let shape = three_iters.shape();
        assert_eq!(shape.max_width, 4, "width = #blocks (low task parallelism)");
        // Per iteration: partial_sum -> merge -> update = 3 levels.
        assert_eq!(shape.height, 9, "iterations stack levels (deep DAG)");
        three_iters.check_invariants().unwrap();
    }

    #[test]
    fn iterations_serialise_through_centers() {
        let wf = config(64, 4, 3, 2).build_workflow();
        // The second iteration's partial_sums depend on the first update.
        let update1 = wf
            .tasks()
            .iter()
            .find(|t| t.task_type == "update_centers")
            .unwrap()
            .id;
        let second_ps = wf
            .tasks()
            .iter()
            .filter(|t| t.task_type == "partial_sum")
            .nth(4)
            .unwrap();
        assert!(wf.predecessors(second_ps.id).contains(&update1));
    }

    #[test]
    fn merge_and_update_are_cpu_only() {
        let wf = config(64, 4, 3, 1).build_workflow();
        for t in wf.tasks() {
            match t.task_type.as_str() {
                "partial_sum" => assert!(!t.cpu_only),
                _ => assert!(t.cpu_only, "{} must stay on the CPU", t.task_type),
            }
        }
    }

    #[test]
    fn reference_kmeans_converges_on_separated_clusters() {
        // Two well-separated blobs in 1-D; centers must land on them.
        let rows = 64;
        let m = Matrix::from_fn(rows, 1, |i, _| if i % 2 == 0 { 0.1 } else { 10.0 });
        let ds = DatasetSpec::uniform("sep", rows as u64, 1, 1);
        let arr = DsArray::from_matrix(ds, &m, GridDim::row_wise(4)).unwrap();
        let init = Matrix::from_vec(2, 1, vec![1.0, 8.0]);
        let centers = reference_kmeans(&arr, &init, 5);
        assert!((centers[(0, 0)] - 0.1).abs() < 1e-9);
        assert!((centers[(1, 0)] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn blocked_kmeans_matches_single_block() {
        let ds = DatasetSpec::uniform("km", 96, 5, 42);
        let m = ds.materialize().unwrap();
        let init = initial_centers(4, 5, 7);
        let single = DsArray::from_matrix(ds.clone(), &m, GridDim::row_wise(1)).unwrap();
        let blocked = DsArray::from_matrix(ds, &m, GridDim::row_wise(8)).unwrap();
        let a = reference_kmeans(&single, &init, 4);
        let b = reference_kmeans(&blocked, &init, 4);
        assert!(
            a.max_abs_diff(&b) < 1e-9,
            "chunking must not change results"
        );
    }

    #[test]
    fn initial_centers_are_deterministic() {
        assert_eq!(initial_centers(3, 4, 9), initial_centers(3, 4, 9));
        assert_ne!(initial_centers(3, 4, 9), initial_centers(3, 4, 10));
    }

    #[test]
    fn ragged_paper_grid_builds() {
        // 10 GB K-means at 256x1 (12.5M rows do not divide by 256).
        let c = KmeansConfig::new(gpuflow_data::paper::kmeans_10gb(), 256, 10, 1).unwrap();
        let wf = c.build_workflow();
        let ps = wf
            .tasks()
            .iter()
            .filter(|t| t.task_type == "partial_sum")
            .count();
        assert_eq!(ps, 256);
    }
}
