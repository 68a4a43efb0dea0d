//! Distributed blocked matrix multiplication (the dislib implementation
//! studied in the paper).
//!
//! For a square grid `G × G`, the workflow computes
//! `C[i,j] = Σ_k A[i,k] · B[k,j]` with one `matmul_func` task per
//! `(i, j, k)` triple and a binary reduction of the partial products with
//! `add_func` tasks — `G³` multiplies plus `G²·(G-1)` adds, yielding the
//! wide and shallow DAG of Fig. 6b (high task parallelism).

use gpuflow_data::{BlockCoord, DatasetSpec, DsArray, DsArraySpec, Matrix, PartitionError};
use gpuflow_runtime::{DataId, Direction, Merge, Workflow, WorkflowBuilder};

use crate::calibration::{add_func_cost, matmul_func_cost};
use crate::operand::ArrayHandle;

/// Configuration of one blocked Matmul workflow.
#[derive(Debug, Clone)]
pub struct MatmulConfig {
    /// The (square) input matrix descriptor; both operands share it.
    pub spec: DsArraySpec,
}

impl MatmulConfig {
    /// Partitions `dataset` (must be square) into a `grid × grid` layout.
    ///
    /// # Errors
    /// [`PartitionError::NotSquare`] for a rectangular dataset; otherwise
    /// propagates partitioning violations.
    pub fn new(dataset: DatasetSpec, grid: u64) -> Result<Self, PartitionError> {
        let spec = DsArraySpec::square(dataset, grid)?;
        Ok(MatmulConfig { spec })
    }

    /// Grid extent `G`.
    pub fn grid(&self) -> u64 {
        self.spec.grid.rows
    }

    /// Expected task counts: `(matmul_func, add_func)`.
    pub fn task_counts(&self) -> (u64, u64) {
        let g = self.grid();
        (g * g * g, g * g * (g - 1))
    }

    /// Builds the dependency DAG over two nominal-size operands.
    pub fn build_workflow(&self) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let [a, bb] = ["A", "B"].map(|name| ArrayHandle::inputs(&mut b, &self.spec, name));
        matmul_tasks(&mut b, &a, &bb);
        b.build()
    }
}

/// Submits `A × B` over two `G × G` grids of square blocks: per output
/// block `(i, j)`, one `matmul_func` per `k` into a fresh partial product,
/// then a pairwise `add_func` tree over the products. Returns the output
/// blocks, row-major (the lone product when `G = 1`).
pub(crate) fn matmul_tasks(
    b: &mut WorkflowBuilder,
    a: &ArrayHandle,
    bb: &ArrayHandle,
) -> Vec<DataId> {
    let g = a.grid.rows;
    let order = a.block.rows;
    let block_bytes = a.block_bytes();
    let mut out = Vec::with_capacity(a.grid.blocks() as usize);
    for i in 0..g {
        for j in 0..g {
            let partials: Vec<DataId> = (0..g)
                .map(|k| {
                    let p = b.intermediate(format!("P[{i},{j},{k}]"), block_bytes);
                    b.submit(
                        "matmul_func",
                        matmul_func_cost(order, order, order),
                        &[
                            (a.block(i, k), Direction::In),
                            (bb.block(k, j), Direction::In),
                            (p, Direction::Out),
                        ],
                        false,
                    )
                    .expect("valid matmul task");
                    p
                })
                .collect();
            out.push(b.reduce(partials, 2, |round, index, _| Merge {
                name: format!("S[{i},{j}]r{round}n{index}"),
                bytes: block_bytes,
                task_type: "add_func",
                cost: add_func_cost(order, order),
                cpu_only: false,
            }));
        }
    }
    out
}

/// Functionally computes the blocked product, mirroring the DAG the
/// workflow executes (used to validate the algorithm at test scale).
///
/// # Panics
/// Panics on grid/shape mismatches between the operands.
pub fn reference_blocked_matmul(a: &DsArray, b: &DsArray) -> Matrix {
    let ga = a.spec().grid;
    let gb = b.spec().grid;
    assert_eq!(ga, gb, "operands must share the grid");
    let g = ga.rows;
    assert_eq!(ga.cols, g, "square grids only");
    let m = a.spec().block.rows as usize;
    let n = b.spec().block.cols as usize;
    let mut out = Matrix::zeros(
        a.spec().dataset.dim.rows as usize,
        b.spec().dataset.dim.cols as usize,
    );
    for i in 0..g {
        for j in 0..g {
            let mut partials: Vec<Matrix> = (0..g)
                .map(|k| {
                    a.block(BlockCoord { row: i, col: k })
                        .matmul(b.block(BlockCoord { row: k, col: j }))
                })
                .collect();
            while partials.len() > 1 {
                let mut next = Vec::with_capacity(partials.len().div_ceil(2));
                let mut iter = partials.into_iter();
                while let Some(x) = iter.next() {
                    match iter.next() {
                        Some(y) => next.push(x.add(&y)),
                        None => next.push(x),
                    }
                }
                partials = next;
            }
            out.set_submatrix(i as usize * m, j as usize * n, &partials[0]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_data::GridDim;

    fn config(n: u64, g: u64) -> MatmulConfig {
        MatmulConfig::new(DatasetSpec::uniform("m", n, n, 1), g).unwrap()
    }

    #[test]
    fn task_counts_match_dislib_structure() {
        let c = config(64, 4);
        assert_eq!(c.task_counts(), (64, 48)); // Fig. 6b: 4x4 grid
        let wf = c.build_workflow();
        let by_type = |t: &str| wf.tasks().iter().filter(|x| x.task_type == t).count();
        assert_eq!(by_type("matmul_func"), 64);
        assert_eq!(by_type("add_func"), 48);
    }

    #[test]
    fn dag_is_wide_and_shallow() {
        let wf = config(64, 4).build_workflow();
        let shape = wf.shape();
        // All 64 multiplies are independent (level 0); adds form a
        // log2(4)=2-level reduction.
        assert_eq!(shape.max_width, 64);
        assert_eq!(shape.height, 3);
        wf.check_invariants().unwrap();
    }

    #[test]
    fn single_block_grid_needs_no_adds() {
        let c = config(8, 1);
        assert_eq!(c.task_counts(), (1, 0));
        let wf = c.build_workflow();
        assert_eq!(wf.tasks().len(), 1);
    }

    #[test]
    fn rejects_non_square_dataset() {
        let err = MatmulConfig::new(DatasetSpec::uniform("m", 8, 16, 1), 2).unwrap_err();
        assert_eq!(err, PartitionError::NotSquare { rows: 8, cols: 16 });
        let msg = err.to_string();
        assert!(msg.contains('8') && msg.contains("16"), "{msg}");
    }

    #[test]
    fn blocked_product_matches_dense() {
        let da = DatasetSpec::uniform("a", 24, 24, 7);
        let db = DatasetSpec::uniform("b", 24, 24, 8);
        let (ma, mb) = (da.materialize().unwrap(), db.materialize().unwrap());
        for g in [1u64, 2, 3, 4] {
            let arr_a = DsArray::from_matrix(da.clone(), &ma, GridDim::square(g)).unwrap();
            let arr_b = DsArray::from_matrix(db.clone(), &mb, GridDim::square(g)).unwrap();
            let blocked = reference_blocked_matmul(&arr_a, &arr_b);
            let dense = ma.matmul(&mb);
            assert!(
                blocked.max_abs_diff(&dense) < 1e-9,
                "grid {g}: blocked and dense products diverge"
            );
        }
    }

    #[test]
    fn paper_scale_grids_build() {
        // 8 GB dataset at every grid in §4.4.5 (metadata only, no data).
        let ds = gpuflow_data::paper::matmul_8gb();
        for g in [1u64, 2, 4] {
            let c = MatmulConfig::new(ds.clone(), g).unwrap();
            let wf = c.build_workflow();
            assert_eq!(wf.tasks().len() as u64, g * g * g + g * g * (g - 1));
        }
    }
}
