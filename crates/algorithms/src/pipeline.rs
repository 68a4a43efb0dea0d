//! Composable data-science pipelines — the workload class that motivates
//! the paper (§1: "Data Science pipelines are composed of multiple
//! processing stages ... the relationship between these stages creates
//! complex workflows").
//!
//! [`Session`] is a deferred-execution API over the algorithms' own task
//! loops: each operation checks its operands' shapes, then calls the loop
//! the matching `*Config` calls, appending tasks to a *shared* builder,
//! and returns an [`ArrayHandle`] the next stage can consume — so
//! `kmeans(matmul(A, B))` becomes a single DAG whose stages overlap
//! wherever dependencies allow, exactly like chained dislib calls under
//! PyCOMPSs. Only `add` and `scale`, which have no config, keep a loop
//! here.
//!
//! ```
//! use gpuflow_algorithms::Session;
//! use gpuflow_data::{DatasetSpec, GridDim};
//!
//! let mut s = Session::new();
//! let a = s.load(DatasetSpec::uniform("a", 1024, 1024, 1), GridDim::square(4)).unwrap();
//! let b = s.load(DatasetSpec::uniform("b", 1024, 1024, 2), GridDim::square(4)).unwrap();
//! let c = s.matmul(&a, &b).unwrap();
//! s.kmeans_fit(&c, 8, 2).unwrap();
//! let workflow = s.build();
//! assert!(workflow.shape().height > 3, "stages chain in one DAG");
//! ```

use std::fmt;

use gpuflow_data::{DatasetSpec, DsArraySpec, GridDim, PartitionError};
use gpuflow_runtime::{CostProfile, Direction, Workflow, WorkflowBuilder};

use crate::calibration::add_func_cost;
use crate::cholesky::cholesky_tasks;
use crate::fma::fma_tasks;
use crate::kmeans::kmeans_tasks;
use crate::knn::knn_tasks;
use crate::matmul::matmul_tasks;
use crate::operand::{ArrayHandle, ObjectHandle};

/// Why a pipeline operation was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Operand grids/shapes do not line up.
    ShapeMismatch(String),
    /// Invalid partitioning of a loaded dataset.
    Partition(PartitionError),
    /// A parameter was out of range.
    BadParameter(String),
}

impl fmt::Display for PipelineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PipelineError::ShapeMismatch(msg) => write!(f, "shape mismatch: {msg}"),
            PipelineError::Partition(e) => write!(f, "partitioning: {e}"),
            PipelineError::BadParameter(msg) => write!(f, "bad parameter: {msg}"),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<PartitionError> for PipelineError {
    fn from(e: PartitionError) -> Self {
        PipelineError::Partition(e)
    }
}

/// A deferred-execution pipeline builder.
#[derive(Debug, Default)]
pub struct Session {
    builder: WorkflowBuilder,
    arrays: usize,
}

impl Session {
    /// Creates an empty session.
    pub fn new() -> Self {
        Self::default()
    }

    /// Loads a dataset from storage as a blocked array (the pipeline's
    /// sources; version 0 exists on disk).
    ///
    /// # Errors
    /// Propagates partitioning violations.
    pub fn load(
        &mut self,
        dataset: DatasetSpec,
        grid: GridDim,
    ) -> Result<ArrayHandle, PipelineError> {
        let spec = DsArraySpec::partition(dataset, grid)?;
        Ok(ArrayHandle::inputs(
            &mut self.builder,
            &spec,
            &spec.dataset.name,
        ))
    }

    /// Fresh intermediate blocks shaped like `a`'s, one per block of `a`.
    fn alloc_like(&mut self, op: &str, a: &ArrayHandle) -> ArrayHandle {
        self.arrays += 1;
        let name = format!("{op}#{}", self.arrays);
        let mut blocks = Vec::with_capacity(a.grid.blocks() as usize);
        for r in 0..a.grid.rows {
            for c in 0..a.grid.cols {
                let bytes = a.block_dim(r, c).bytes(a.elem_bytes);
                let i = blocks.len();
                blocks.push(self.builder.intermediate(format!("{name}.b{i}"), bytes));
            }
        }
        a.with_blocks(a.shape(), blocks)
    }

    fn require_square(a: &ArrayHandle, what: &str) -> Result<(), PipelineError> {
        if a.grid.rows != a.grid.cols || a.block.rows != a.block.cols {
            return Err(PipelineError::ShapeMismatch(format!(
                "{what} needs a square grid of square blocks, got grid {} block {}",
                a.grid, a.block
            )));
        }
        Ok(())
    }

    /// The logical shape of `A × B`.
    fn product_shape(
        a: &ArrayHandle,
        b: &ArrayHandle,
        what: &str,
    ) -> Result<(u64, u64), PipelineError> {
        let ((m, k), (k2, n)) = (a.shape(), b.shape());
        if k != k2 {
            return Err(PipelineError::ShapeMismatch(format!(
                "{what} of {m}x{k} by {k2}x{n}: inner extents differ"
            )));
        }
        Ok((m, n))
    }

    /// Blocked matrix product `A × B` (dislib Matmul: `matmul_func` per
    /// `(i,j,k)` plus an `add_func` reduction).
    ///
    /// # Errors
    /// Operands must share a square grid of square blocks, and `A`'s
    /// columns must match `B`'s rows.
    pub fn matmul(
        &mut self,
        a: &ArrayHandle,
        b: &ArrayHandle,
    ) -> Result<ArrayHandle, PipelineError> {
        Self::require_square(a, "matmul")?;
        if a.grid != b.grid || a.block != b.block {
            return Err(PipelineError::ShapeMismatch(
                "matmul operands must share grid and block shapes".into(),
            ));
        }
        let shape = Self::product_shape(a, b, "matmul")?;
        Ok(a.with_blocks(shape, matmul_tasks(&mut self.builder, a, b)))
    }

    /// Element-wise sum `A + B` (`add_func` per block).
    ///
    /// # Errors
    /// Operands must share grid, block and logical shapes.
    pub fn add(&mut self, a: &ArrayHandle, b: &ArrayHandle) -> Result<ArrayHandle, PipelineError> {
        if a.grid != b.grid || a.block != b.block || a.shape() != b.shape() {
            return Err(PipelineError::ShapeMismatch(
                "add operands must share grid, block and logical shapes".into(),
            ));
        }
        let out = self.alloc_like("add", a);
        for r in 0..a.grid.rows {
            for c in 0..a.grid.cols {
                let dim = a.block_dim(r, c);
                self.builder
                    .submit(
                        "add_func",
                        add_func_cost(dim.rows, dim.cols),
                        &[
                            (a.block(r, c), Direction::In),
                            (b.block(r, c), Direction::In),
                            (out.block(r, c), Direction::Out),
                        ],
                        false,
                    )
                    .expect("valid add task");
            }
        }
        Ok(out)
    }

    /// Element-wise scaling `alpha · A` — a memory-bound unary map with
    /// the same cost shape as `add_func` (one read stream instead of two).
    pub fn scale(&mut self, a: &ArrayHandle, _alpha: f64) -> ArrayHandle {
        let out = self.alloc_like("scale", a);
        for r in 0..a.grid.rows {
            for c in 0..a.grid.cols {
                let n = a.block_dim(r, c).elements() as f64;
                let cost = CostProfile::fully_parallel(gpuflow_cluster::KernelWork {
                    flops: n,
                    bytes: 2.0 * n * 8.0,
                    parallelism: n,
                });
                self.builder
                    .submit(
                        "scale_func",
                        cost,
                        &[
                            (a.block(r, c), Direction::In),
                            (out.block(r, c), Direction::Out),
                        ],
                        false,
                    )
                    .expect("valid scale task");
            }
        }
        out
    }

    /// In-place fused multiply-add accumulation `C += A × B` (Fig. 12's
    /// variant); the chain over `k` serialises through the `InOut`
    /// accesses on `c`.
    ///
    /// # Errors
    /// All three operands must share a square grid of square blocks, `A`'s
    /// columns must match `B`'s rows, and `C` must have the product's
    /// shape.
    pub fn fma_matmul(
        &mut self,
        a: &ArrayHandle,
        b: &ArrayHandle,
        c: &ArrayHandle,
    ) -> Result<(), PipelineError> {
        Self::require_square(a, "fma_matmul")?;
        if a.grid != b.grid || a.grid != c.grid || a.block != b.block || a.block != c.block {
            return Err(PipelineError::ShapeMismatch(
                "fma operands must share grid and block shapes".into(),
            ));
        }
        let (m, n) = Self::product_shape(a, b, "fma_matmul")?;
        if c.shape() != (m, n) {
            let (rows, cols) = c.shape();
            return Err(PipelineError::ShapeMismatch(format!(
                "fma_matmul accumulator is {rows}x{cols} but the product {m}x{n}"
            )));
        }
        fma_tasks(&mut self.builder, a, b, c);
        Ok(())
    }

    /// K-means over the rows of `x`: `iterations` rounds of one
    /// `partial_sum` per block-row (reading the whole row), a merge tree,
    /// and a centers update. Returns the centers handle (written once per
    /// iteration).
    ///
    /// # Errors
    /// Rejects zero clusters/iterations.
    pub fn kmeans_fit(
        &mut self,
        x: &ArrayHandle,
        clusters: u64,
        iterations: u32,
    ) -> Result<ObjectHandle, PipelineError> {
        if clusters == 0 || iterations == 0 {
            return Err(PipelineError::BadParameter(
                "clusters and iterations must be positive".into(),
            ));
        }
        Ok(kmeans_tasks(&mut self.builder, x, clusters, iterations))
    }

    /// K-nearest-neighbour query of `queries` points against the rows of
    /// `x`; returns the merged candidate set handle.
    ///
    /// # Errors
    /// Rejects zero queries/neighbours.
    pub fn knn(
        &mut self,
        x: &ArrayHandle,
        queries: u64,
        k: u64,
    ) -> Result<ObjectHandle, PipelineError> {
        if queries == 0 || k == 0 {
            return Err(PipelineError::BadParameter(
                "queries and k must be positive".into(),
            ));
        }
        let (_, n) = x.shape();
        let q = self.builder.input("queries", queries * n * 8);
        Ok(knn_tasks(&mut self.builder, x, q, queries, k))
    }

    /// In-place blocked Cholesky factorization of (the lower triangle of)
    /// `a`; subsequent stages reading `a`'s blocks see the factored
    /// versions.
    ///
    /// # Errors
    /// Needs a square matrix over a square grid of square blocks.
    pub fn cholesky(&mut self, a: &ArrayHandle) -> Result<(), PipelineError> {
        Self::require_square(a, "cholesky")?;
        let (rows, cols) = a.shape();
        if rows != cols {
            return Err(PipelineError::ShapeMismatch(format!(
                "cholesky needs a square matrix, got {rows}x{cols}"
            )));
        }
        cholesky_tasks(&mut self.builder, a);
        Ok(())
    }

    /// Finalises the pipeline into one workflow.
    pub fn build(self) -> Workflow {
        self.builder.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(name: &str, n: u64, g: u64, s: &mut Session) -> ArrayHandle {
        s.load(DatasetSpec::uniform(name, n, n, 1), GridDim::square(g))
            .unwrap()
    }

    #[test]
    fn stages_chain_into_one_dag() {
        let mut s = Session::new();
        let a = square("a", 1024, 4, &mut s);
        let b = square("b", 1024, 4, &mut s);
        let c = s.matmul(&a, &b).unwrap();
        s.kmeans_fit(&c, 8, 2).unwrap();
        let wf = s.build();
        // K-means partial_sums must depend (transitively) on matmul adds:
        // a partial_sum's level exceeds the adds' levels.
        let ps_level = wf
            .tasks()
            .iter()
            .filter(|t| t.task_type == "partial_sum")
            .map(|t| wf.level(t.id))
            .min()
            .unwrap();
        let add_level = wf
            .tasks()
            .iter()
            .filter(|t| t.task_type == "add_func")
            .map(|t| wf.level(t.id))
            .min()
            .unwrap();
        assert!(ps_level > add_level, "kmeans must wait for matmul output");
        wf.check_invariants().unwrap();
    }

    #[test]
    fn pipeline_runs_on_the_simulated_cluster() {
        use gpuflow_cluster::{ClusterSpec, ProcessorKind};
        use gpuflow_runtime::RunConfig;
        let mut s = Session::new();
        let a = square("a", 8192, 4, &mut s);
        let b = square("b", 8192, 4, &mut s);
        let c = s.matmul(&a, &b).unwrap();
        let d = s.add(&c, &a).unwrap();
        s.kmeans_fit(&d, 10, 2).unwrap();
        s.knn(&d, 64, 5).unwrap();
        let wf = s.build();
        for proc in ProcessorKind::ALL {
            let report =
                gpuflow_runtime::run(&wf, &RunConfig::new(ClusterSpec::minotauro(), proc)).unwrap();
            assert_eq!(report.records.len(), wf.tasks().len());
        }
    }

    #[test]
    fn cholesky_after_matmul_reuses_blocks_in_place() {
        let mut s = Session::new();
        let a = square("a", 1024, 2, &mut s);
        let b = square("b", 1024, 2, &mut s);
        let c = s.matmul(&a, &b).unwrap();
        s.cholesky(&c).unwrap();
        let wf = s.build();
        // potrf of block (0,0) depends on the add that wrote it.
        let potrf0 = wf.tasks().iter().find(|t| t.task_type == "potrf").unwrap();
        assert!(!wf.predecessors(potrf0.id).is_empty());
        wf.check_invariants().unwrap();
    }

    #[test]
    fn shape_mismatches_are_rejected() {
        let mut s = Session::new();
        let a = square("a", 1024, 4, &mut s);
        let b = square("b", 1024, 2, &mut s);
        assert!(matches!(
            s.matmul(&a, &b),
            Err(PipelineError::ShapeMismatch(_))
        ));
        assert!(matches!(
            s.add(&a, &b),
            Err(PipelineError::ShapeMismatch(_))
        ));
        let wide = s
            .load(
                DatasetSpec::uniform("w", 64, 128, 1),
                GridDim { rows: 2, cols: 4 },
            )
            .unwrap();
        assert!(matches!(
            s.matmul(&wide, &wide),
            Err(PipelineError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn scale_is_one_task_per_block() {
        let mut s = Session::new();
        let a = square("a", 1024, 4, &mut s);
        let b = s.scale(&a, 2.5);
        let c = s.add(&a, &b).unwrap();
        s.kmeans_fit(&c, 4, 1).unwrap();
        let wf = s.build();
        let scales = wf
            .tasks()
            .iter()
            .filter(|t| t.task_type == "scale_func")
            .count();
        assert_eq!(scales, 16);
        wf.check_invariants().unwrap();
    }

    #[test]
    fn bad_parameters_are_rejected() {
        let mut s = Session::new();
        let a = square("a", 1024, 2, &mut s);
        assert!(s.kmeans_fit(&a, 0, 3).is_err());
        assert!(s.kmeans_fit(&a, 3, 0).is_err());
        assert!(s.knn(&a, 0, 5).is_err());
    }

    #[test]
    fn fma_chains_serialise_per_output_block() {
        let mut s = Session::new();
        let a = square("a", 1024, 4, &mut s);
        let b = square("b", 1024, 4, &mut s);
        let c = square("c", 1024, 4, &mut s);
        s.fma_matmul(&a, &b, &c).unwrap();
        let wf = s.build();
        assert_eq!(wf.tasks().len(), 64);
        assert_eq!(wf.shape().height, 4, "InOut chains of length G");
    }

    #[test]
    fn ragged_blocks_follow_the_sizing_rule() {
        let mut s = Session::new();
        // 1000 rows over 7 block-rows: six of 143 rows and one of 142.
        let x = s
            .load(DatasetSpec::uniform("x", 1000, 5, 1), GridDim::row_wise(7))
            .unwrap();
        assert_eq!(x.shape(), (1000, 5));
        assert_eq!(x.block_rows(0), 143);
        assert_eq!(x.block_rows(6), 142);
        // A square layout counts its blocks of 4, 4 and 2 rows at 4.
        let a = s
            .load(DatasetSpec::uniform("a", 10, 10, 1), GridDim::square(3))
            .unwrap();
        assert_eq!(a.shape(), (10, 10));
        assert_eq!(a.block_rows(2), 4);
        let y = s.scale(&x, 2.0);
        let wf = s.build();
        let bytes = |id| wf.registry().object(id).bytes;
        assert!(bytes(x.block(6, 0)) < bytes(x.block(0, 0)));
        assert_eq!(bytes(a.block(2, 2)), bytes(a.block(0, 0)));
        // Element-wise outputs are sized like their operand's blocks.
        for r in [0, 6] {
            assert_eq!(bytes(y.block(r, 0)), bytes(x.block(r, 0)));
        }
    }

    /// Loads a `rows × cols` dataset on a square grid of `g × g` blocks.
    fn rect(s: &mut Session, name: &str, rows: u64, cols: u64, g: u64) -> ArrayHandle {
        s.load(
            DatasetSpec::uniform(name, rows, cols, 1),
            GridDim::square(g),
        )
        .unwrap()
    }

    #[test]
    fn rectangular_operands_on_a_square_grid_keep_their_shapes() {
        let mut s = Session::new();
        // Both split into 4x4 blocks on a 3x3 grid.
        let a = rect(&mut s, "a", 10, 12, 3);
        let b = rect(&mut s, "b", 12, 10, 3);
        let c = s.matmul(&a, &b).unwrap();
        assert_eq!(c.shape(), (10, 10));
        let mismatch = |r: Result<(), PipelineError>| {
            assert!(matches!(r, Err(PipelineError::ShapeMismatch(_))), "{r:?}");
        };
        mismatch(s.matmul(&a, &a).map(drop));
        mismatch(s.add(&a, &b).map(drop));
        mismatch(s.fma_matmul(&a, &b, &a));
        mismatch(s.cholesky(&a));
        s.fma_matmul(&a, &b, &c).unwrap();
        s.cholesky(&c).unwrap();
        // A later stage takes its features from the product's 10 columns.
        let centers = s.kmeans_fit(&c, 4, 1).unwrap();
        assert_eq!(centers.bytes, 4 * 10 * 8);
        s.build().check_invariants().unwrap();
    }

    #[test]
    fn kmeans_reads_every_block_of_a_row() {
        let mut s = Session::new();
        let x = s
            .load(
                DatasetSpec::uniform("x", 4096, 64, 1),
                GridDim { rows: 4, cols: 2 },
            )
            .unwrap();
        s.kmeans_fit(&x, 5, 1).unwrap();
        let wf = s.build();
        let ps = wf
            .tasks()
            .iter()
            .find(|t| t.task_type == "partial_sum")
            .unwrap();
        // 2 block columns + centers read.
        assert_eq!(ps.reads().count(), 3);
    }
}

#[cfg(test)]
mod single_block_tests {
    use super::*;

    #[test]
    fn single_block_matmul_writes_output_directly() {
        let mut s = Session::new();
        let a = s
            .load(DatasetSpec::uniform("a", 64, 64, 1), GridDim::square(1))
            .unwrap();
        let b = s
            .load(DatasetSpec::uniform("b", 64, 64, 2), GridDim::square(1))
            .unwrap();
        let c = s.matmul(&a, &b).unwrap();
        // And the result is consumable by a later stage.
        s.kmeans_fit(&c, 4, 1).unwrap();
        let wf = s.build();
        let count = |t: &str| wf.tasks().iter().filter(|x| x.task_type == t).count();
        assert_eq!(count("matmul_func"), 1);
        assert_eq!(count("add_func"), 0);
        assert_eq!(count("partial_sum"), 1);
        wf.check_invariants().unwrap();
    }
}
