//! # gpuflow-algorithms — the workloads under study
//!
//! The two algorithm families of §4.1 plus the generalizability variant:
//!
//! * [`MatmulConfig`] — blocked matrix multiplication (fully
//!   parallelizable; `matmul_func` + `add_func`),
//! * [`FmaConfig`] — the fused multiply-add Matmul of Fig. 12,
//! * [`KmeansConfig`] — K-means (partially parallelizable;
//!   `partial_sum` with a serial fraction),
//! * [`KnnConfig`] — an extension workload: distributed k-nearest
//!   neighbours, the intermediate parallel-fraction data point §5.5.1
//!   calls for,
//! * [`CholeskyConfig`] — an extension workload: blocked Cholesky, whose
//!   staircase DAG sits between the paper's wide-shallow and narrow-deep
//!   shapes.
//!
//! Each config builds a [`Workflow`](gpuflow_runtime::Workflow) with
//! calibrated cost profiles (see [`calibration`]) and has a functional
//! reference implementation over real matrices for correctness tests.
//!
//! Each algorithm submits its tasks through one function in its module:
//! the config calls it over freshly registered inputs, and [`Session`]
//! calls it over the blocks of earlier stages, composing any of these
//! into one multi-stage pipeline DAG — the data-science-pipeline workload
//! class the paper's introduction motivates. Both register their storage
//! blocks as [`ArrayHandle`]s, whose one sizing rule counts the blocks of
//! a square grid of square blocks at the nominal block and those of any
//! other layout at their own shape, so a one-stage session builds the
//! config's tasks.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod calibration;
mod cholesky;
mod fma;
mod kmeans;
mod knn;
mod matmul;
mod operand;
mod pipeline;

pub use cholesky::{
    dense_cholesky, gemm_cost, potrf_cost, reference_blocked_cholesky, spd_matrix, syrk_cost,
    trsm_cost, CholeskyConfig,
};
pub use fma::{reference_fma_matmul, FmaConfig};
pub use kmeans::{initial_centers, reference_kmeans, KmeansConfig};
pub use knn::{knn_merge, knn_merge_cost, knn_partial, knn_partial_cost, reference_knn, KnnConfig};
pub use matmul::{reference_blocked_matmul, MatmulConfig};
pub use operand::{ArrayHandle, ObjectHandle};
pub use pipeline::{PipelineError, Session};
