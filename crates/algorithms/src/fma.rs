//! Matmul FMA — the fused multiply-add variant from the COMPSs samples
//! used in the paper's generalizability study (§5.5.1, Fig. 12).
//!
//! Instead of materialising `G` partial products per output block and
//! reducing them with `add_func`, each output block is an accumulator
//! updated in place: `C[i,j] += A[i,k] · B[k,j]` for `k = 0..G`. The
//! `InOut` access chains the `G` updates of one output block, so the DAG
//! is `G²` independent chains of length `G`.

use gpuflow_data::{BlockCoord, DatasetSpec, DsArray, DsArraySpec, Matrix, PartitionError};
use gpuflow_runtime::{Direction, Workflow, WorkflowBuilder};

use crate::calibration::fma_func_cost;
use crate::operand::ArrayHandle;

/// Configuration of one Matmul-FMA workflow.
#[derive(Debug, Clone)]
pub struct FmaConfig {
    /// The (square) operand descriptor.
    pub spec: DsArraySpec,
}

impl FmaConfig {
    /// Partitions `dataset` (must be square) into a `grid × grid` layout.
    ///
    /// # Errors
    /// [`PartitionError::NotSquare`] for a rectangular dataset; otherwise
    /// propagates partitioning violations.
    pub fn new(dataset: DatasetSpec, grid: u64) -> Result<Self, PartitionError> {
        let spec = DsArraySpec::square(dataset, grid)?;
        Ok(FmaConfig { spec })
    }

    /// Grid extent `G`.
    pub fn grid(&self) -> u64 {
        self.spec.grid.rows
    }

    /// Number of `fma_func` tasks (`G³`).
    pub fn task_count(&self) -> u64 {
        self.grid().pow(3)
    }

    /// Builds the dependency DAG over nominal-size operands; the
    /// accumulator `C` starts as a zero-initialised ds_array on storage.
    pub fn build_workflow(&self) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let [a, bb, c] = ["A", "B", "C"].map(|name| ArrayHandle::inputs(&mut b, &self.spec, name));
        fma_tasks(&mut b, &a, &bb, &c);
        b.build()
    }
}

/// Submits `C += A × B` over `G × G` grids of square blocks: one
/// `fma_func` per `(i, j, k)`, whose `InOut` access on `C[i,j]` chains
/// the `G` updates of each output block.
pub(crate) fn fma_tasks(
    b: &mut WorkflowBuilder,
    a: &ArrayHandle,
    bb: &ArrayHandle,
    c: &ArrayHandle,
) {
    let g = a.grid.rows;
    let order = a.block.rows;
    for i in 0..g {
        for j in 0..g {
            for k in 0..g {
                b.submit(
                    "fma_func",
                    fma_func_cost(order, order, order),
                    &[
                        (a.block(i, k), Direction::In),
                        (bb.block(k, j), Direction::In),
                        (c.block(i, j), Direction::InOut),
                    ],
                    false,
                )
                .expect("valid fma task");
            }
        }
    }
}

/// Functional reference: accumulates `C += A·B` block-wise in the same
/// order as the workflow.
///
/// # Panics
/// Panics on grid/shape mismatches.
pub fn reference_fma_matmul(a: &DsArray, b: &DsArray) -> Matrix {
    let g = a.spec().grid.rows;
    assert_eq!(a.spec().grid, b.spec().grid, "operands must share the grid");
    let m = a.spec().block.rows as usize;
    let n = b.spec().block.cols as usize;
    let mut out = Matrix::zeros(
        a.spec().dataset.dim.rows as usize,
        b.spec().dataset.dim.cols as usize,
    );
    for i in 0..g {
        for j in 0..g {
            let mut acc = Matrix::zeros(m, n);
            for k in 0..g {
                acc.fma_accumulate(
                    a.block(BlockCoord { row: i, col: k }),
                    b.block(BlockCoord { row: k, col: j }),
                );
            }
            out.set_submatrix(i as usize * m, j as usize * n, &acc);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matmul::reference_blocked_matmul;
    use gpuflow_data::GridDim;

    #[test]
    fn task_count_is_cubic() {
        let c = FmaConfig::new(DatasetSpec::uniform("m", 64, 64, 1), 4).unwrap();
        assert_eq!(c.task_count(), 64);
        assert_eq!(c.build_workflow().tasks().len(), 64);
    }

    #[test]
    fn dag_is_chains_of_length_g() {
        let c = FmaConfig::new(DatasetSpec::uniform("m", 64, 64, 1), 4).unwrap();
        let shape = c.build_workflow().shape();
        assert_eq!(shape.height, 4, "one InOut chain per output block");
        assert_eq!(shape.max_width, 16, "G^2 chains advance in lockstep");
    }

    #[test]
    fn fma_matches_blocked_and_dense_products() {
        let da = DatasetSpec::uniform("a", 20, 20, 3);
        let db = DatasetSpec::uniform("b", 20, 20, 4);
        let (ma, mb) = (da.materialize().unwrap(), db.materialize().unwrap());
        for g in [1u64, 2, 4] {
            let arr_a = DsArray::from_matrix(da.clone(), &ma, GridDim::square(g)).unwrap();
            let arr_b = DsArray::from_matrix(db.clone(), &mb, GridDim::square(g)).unwrap();
            let fma = reference_fma_matmul(&arr_a, &arr_b);
            let blocked = reference_blocked_matmul(&arr_a, &arr_b);
            assert!(fma.max_abs_diff(&ma.matmul(&mb)) < 1e-9);
            assert!(fma.max_abs_diff(&blocked) < 1e-9);
        }
    }

    #[test]
    fn rejects_non_square_dataset() {
        let err = FmaConfig::new(DatasetSpec::uniform("m", 8, 16, 1), 2).unwrap_err();
        assert_eq!(err, PartitionError::NotSquare { rows: 8, cols: 16 });
        let msg = err.to_string();
        assert!(msg.contains('8') && msg.contains("16"), "{msg}");
    }
}
