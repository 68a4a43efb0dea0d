//! Blocked Cholesky factorization — an extension workload with the
//! *staircase* DAG shape between the paper's wide-shallow Matmul and
//! narrow-deep K-means.
//!
//! The right-looking blocked algorithm (the classic COMPSs/StarPU demo)
//! factors an SPD matrix `A = L·Lᵀ` in place over a `G × G` grid:
//!
//! ```text
//! for k in 0..G:
//!     potrf(A[k,k])                       # panel factor, limited parallelism
//!     for i in k+1..G:  trsm(A[k,k] -> A[i,k])
//!     for i in k+1..G:
//!         syrk(A[i,k] -> A[i,i])
//!         for j in k+1..i:  gemm(A[i,k], A[j,k] -> A[i,j])
//! ```
//!
//! The `InOut` accesses on the trailing blocks let the data-versioning
//! DAG builder derive the full dependency staircase automatically — the
//! same mechanism PyCOMPSs uses (§3.1).

use gpuflow_cluster::KernelWork;
use gpuflow_data::{BlockCoord, DatasetSpec, DsArray, DsArraySpec, Matrix, PartitionError};
use gpuflow_runtime::{CostProfile, Direction, Workflow, WorkflowBuilder};

use crate::operand::ArrayHandle;

/// Cost of `potrf` on a `b × b` block: cubic work but with the limited
/// panel parallelism that keeps it CPU-friendly.
pub fn potrf_cost(b: u64) -> CostProfile {
    let bf = b as f64;
    let serial = KernelWork {
        flops: 30.0 * bf * bf.log2().max(1.0),
        bytes: bf * 8.0,
        parallelism: 1.0,
    };
    let parallel = KernelWork {
        flops: bf * bf * bf / 3.0,
        bytes: bf * bf * 8.0,
        parallelism: bf * bf / 8.0,
    };
    CostProfile::partially_parallel(serial, parallel)
}

/// Cost of `trsm` (triangular solve of one off-diagonal block).
pub fn trsm_cost(b: u64) -> CostProfile {
    let bf = b as f64;
    CostProfile::fully_parallel(KernelWork {
        flops: bf * bf * bf,
        bytes: 2.0 * bf * bf * 8.0,
        parallelism: bf * bf,
    })
}

/// Cost of `syrk` (symmetric rank-k update of a diagonal block).
pub fn syrk_cost(b: u64) -> CostProfile {
    let bf = b as f64;
    CostProfile::fully_parallel(KernelWork {
        flops: bf * bf * bf,
        bytes: 2.0 * bf * bf * 8.0,
        parallelism: bf * bf,
    })
}

/// Cost of `gemm` (general update of a trailing block).
pub fn gemm_cost(b: u64) -> CostProfile {
    let bf = b as f64;
    CostProfile::fully_parallel(KernelWork {
        flops: 2.0 * bf * bf * bf,
        bytes: 3.0 * bf * bf * 8.0,
        parallelism: bf * bf,
    })
}

/// Configuration of one blocked Cholesky workflow.
#[derive(Debug, Clone)]
pub struct CholeskyConfig {
    /// The (square, SPD) matrix descriptor.
    pub spec: DsArraySpec,
}

impl CholeskyConfig {
    /// Partitions `dataset` (must be square) into a `grid × grid` layout.
    ///
    /// # Errors
    /// [`PartitionError::NotSquare`] for a rectangular dataset; otherwise
    /// propagates partitioning violations.
    pub fn new(dataset: DatasetSpec, grid: u64) -> Result<Self, PartitionError> {
        let spec = DsArraySpec::square(dataset, grid)?;
        Ok(CholeskyConfig { spec })
    }

    /// Grid extent `G`.
    pub fn grid(&self) -> u64 {
        self.spec.grid.rows
    }

    /// Expected task counts: `(potrf, trsm, syrk, gemm)`.
    pub fn task_counts(&self) -> (u64, u64, u64, u64) {
        let g = self.grid();
        let tri = g * (g - 1) / 2; // off-diagonal blocks of the lower triangle
        let gemm: u64 = (0..g)
            .map(|k| {
                let r = g - 1 - k; // trailing rows below the panel
                r.saturating_sub(1) * r / 2
            })
            .sum();
        (g, tri, tri, gemm)
    }

    /// Builds the dependency DAG over the lower-triangular blocks, the
    /// only ones registered (as nominal-size storage inputs).
    pub fn build_workflow(&self) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let a = ArrayHandle::lower_inputs(&mut b, &self.spec, "A");
        cholesky_tasks(&mut b, &a);
        b.build()
    }
}

/// Submits the right-looking staircase over the lower triangle of `a`,
/// a `G × G` grid of square blocks: per panel `k`, a `potrf`, a `trsm`
/// per block below it, then per trailing row a `syrk` followed by that
/// row's `gemm`s.
pub(crate) fn cholesky_tasks(b: &mut WorkflowBuilder, a: &ArrayHandle) {
    let g = a.grid.rows;
    let order = a.block.rows;
    for k in 0..g {
        b.submit(
            "potrf",
            potrf_cost(order),
            &[(a.block(k, k), Direction::InOut)],
            false,
        )
        .expect("valid potrf");
        for i in (k + 1)..g {
            b.submit(
                "trsm",
                trsm_cost(order),
                &[
                    (a.block(k, k), Direction::In),
                    (a.block(i, k), Direction::InOut),
                ],
                false,
            )
            .expect("valid trsm");
        }
        for i in (k + 1)..g {
            b.submit(
                "syrk",
                syrk_cost(order),
                &[
                    (a.block(i, k), Direction::In),
                    (a.block(i, i), Direction::InOut),
                ],
                false,
            )
            .expect("valid syrk");
            for j in (k + 1)..i {
                b.submit(
                    "gemm",
                    gemm_cost(order),
                    &[
                        (a.block(i, k), Direction::In),
                        (a.block(j, k), Direction::In),
                        (a.block(i, j), Direction::InOut),
                    ],
                    false,
                )
                .expect("valid gemm");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Functional reference (dense kernels on real matrices).
// ---------------------------------------------------------------------

/// Dense Cholesky of an SPD matrix: returns lower-triangular `L` with
/// `L·Lᵀ = a`.
///
/// # Panics
/// Panics if the matrix is not square or not positive definite.
pub fn dense_cholesky(a: &Matrix) -> Matrix {
    assert_eq!(a.rows(), a.cols(), "square matrices only");
    let n = a.rows();
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                assert!(sum > 0.0, "matrix is not positive definite");
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    l
}

/// In-place dense `trsm`: given the factored diagonal block `l_kk`,
/// replaces `a_ik` with `a_ik · l_kkᵀ⁻¹` (forward substitution by rows).
fn trsm_block(l_kk: &Matrix, a_ik: &mut Matrix) {
    let b = l_kk.rows();
    for r in 0..a_ik.rows() {
        for c in 0..b {
            let mut sum = a_ik[(r, c)];
            for k in 0..c {
                sum -= a_ik[(r, k)] * l_kk[(c, k)];
            }
            a_ik[(r, c)] = sum / l_kk[(c, c)];
        }
    }
}

/// Generates a well-conditioned SPD matrix from a seeded dataset:
/// `B·Bᵀ + n·I`.
pub fn spd_matrix(n: u64, seed: u64) -> Matrix {
    let b = DatasetSpec::uniform("spd-base", n, n, seed)
        .materialize()
        .expect("test-scale matrix");
    let mut m = Matrix::zeros(n as usize, n as usize);
    for i in 0..n as usize {
        for j in 0..n as usize {
            let mut dot = 0.0;
            for k in 0..n as usize {
                dot += b[(i, k)] * b[(j, k)];
            }
            m[(i, j)] = dot + if i == j { n as f64 } else { 0.0 };
        }
    }
    m
}

/// Blocked Cholesky over a [`DsArray`], mirroring the workflow's task
/// structure; returns the dense `L`.
///
/// # Panics
/// Panics on non-square grids or non-SPD inputs.
pub fn reference_blocked_cholesky(a: &DsArray) -> Matrix {
    let g = a.spec().grid.rows;
    assert_eq!(a.spec().grid.cols, g, "square grids only");
    let bsz = a.spec().block.rows as usize;
    // Work on a mutable grid of blocks.
    let mut blocks: Vec<Vec<Matrix>> = (0..g)
        .map(|i| {
            (0..g)
                .map(|j| a.block(BlockCoord { row: i, col: j }).clone())
                .collect()
        })
        .collect();
    for k in 0..g as usize {
        let lkk = dense_cholesky(&blocks[k][k]);
        blocks[k][k] = lkk;
        for i in (k + 1)..g as usize {
            let lkk = blocks[k][k].clone();
            trsm_block(&lkk, &mut blocks[i][k]);
        }
        for i in (k + 1)..g as usize {
            for j in (k + 1)..=i {
                // A[i][j] -= L[i][k] · L[j][k]ᵀ  (syrk when i == j).
                let lik = blocks[i][k].clone();
                let ljk = blocks[j][k].clone();
                let target = &mut blocks[i][j];
                for r in 0..bsz {
                    for c in 0..bsz {
                        let mut dot = 0.0;
                        for t in 0..bsz {
                            dot += lik[(r, t)] * ljk[(c, t)];
                        }
                        target[(r, c)] -= dot;
                    }
                }
            }
        }
    }
    // Assemble dense lower-triangular L.
    let n = a.spec().dataset.dim.rows as usize;
    let mut out = Matrix::zeros(n, n);
    #[allow(clippy::needless_range_loop)] // triangular indexing reads clearer
    for i in 0..g as usize {
        for j in 0..=i {
            let blk = &blocks[i][j];
            for r in 0..bsz {
                for c in 0..bsz {
                    let (gr, gc) = (i * bsz + r, j * bsz + c);
                    if gc <= gr {
                        out[(gr, gc)] = blk[(r, c)];
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_data::GridDim;

    #[test]
    fn dense_cholesky_reconstructs_spd_matrix() {
        let a = spd_matrix(12, 3);
        let l = dense_cholesky(&a);
        // L·Lᵀ == A.
        let lt = Matrix::from_fn(12, 12, |i, j| l[(j, i)]);
        assert!(l.matmul(&lt).max_abs_diff(&a) < 1e-8);
        // L is lower triangular.
        for i in 0..12 {
            for j in (i + 1)..12 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn blocked_cholesky_matches_dense() {
        let n = 24;
        let a = spd_matrix(n, 5);
        let ds = DatasetSpec::uniform("spd", n, n, 0);
        for g in [1u64, 2, 3, 4] {
            let arr = DsArray::from_matrix(ds.clone(), &a, GridDim::square(g)).unwrap();
            let blocked = reference_blocked_cholesky(&arr);
            let dense = dense_cholesky(&a);
            assert!(
                blocked.max_abs_diff(&dense) < 1e-8,
                "grid {g}: blocked factor diverges"
            );
        }
    }

    #[test]
    fn task_counts_follow_the_staircase() {
        let cfg = CholeskyConfig::new(DatasetSpec::uniform("c", 64, 64, 1), 4).unwrap();
        let (potrf, trsm, syrk, gemm) = cfg.task_counts();
        assert_eq!((potrf, trsm, syrk, gemm), (4, 6, 6, 4));
        let wf = cfg.build_workflow();
        let count = |t: &str| wf.tasks().iter().filter(|x| x.task_type == t).count() as u64;
        assert_eq!(count("potrf"), potrf);
        assert_eq!(count("trsm"), trsm);
        assert_eq!(count("syrk"), syrk);
        assert_eq!(count("gemm"), gemm);
        wf.check_invariants().unwrap();
    }

    #[test]
    fn dag_shape_sits_between_matmul_and_kmeans() {
        // Staircase: deeper than Matmul's 3 levels, wider than K-means'
        // per-iteration width at equal block counts.
        let wf = CholeskyConfig::new(DatasetSpec::uniform("c", 64, 64, 1), 4)
            .unwrap()
            .build_workflow();
        let shape = wf.shape();
        assert!(shape.height > 4, "staircase depth, got {}", shape.height);
        assert!(
            shape.max_width >= 3,
            "trailing updates fan out, got {}",
            shape.max_width
        );
    }

    #[test]
    fn dependencies_serialise_panels() {
        let cfg = CholeskyConfig::new(DatasetSpec::uniform("c", 64, 64, 1), 2).unwrap();
        let wf = cfg.build_workflow();
        // Tasks: potrf(0) trsm(1) syrk(2) potrf(3); the second potrf must
        // transitively depend on the first.
        let potrfs: Vec<_> = wf
            .tasks()
            .iter()
            .filter(|t| t.task_type == "potrf")
            .map(|t| t.id)
            .collect();
        assert_eq!(potrfs.len(), 2);
        assert!(wf.level(potrfs[1]) > wf.level(potrfs[0]) + 1);
    }

    #[test]
    fn workflow_runs_on_the_simulated_cluster() {
        use gpuflow_cluster::{ClusterSpec, ProcessorKind};
        use gpuflow_runtime::RunConfig;
        let wf = CholeskyConfig::new(DatasetSpec::uniform("c", 16_384, 16_384, 1), 4)
            .unwrap()
            .build_workflow();
        for p in ProcessorKind::ALL {
            let report =
                gpuflow_runtime::run(&wf, &RunConfig::new(ClusterSpec::minotauro(), p)).unwrap();
            assert_eq!(report.records.len(), wf.tasks().len());
        }
    }

    #[test]
    fn rejects_non_square_dataset() {
        let err = CholeskyConfig::new(DatasetSpec::uniform("c", 8, 16, 1), 2).unwrap_err();
        assert_eq!(err, PartitionError::NotSquare { rows: 8, cols: 16 });
        let msg = err.to_string();
        assert!(msg.contains('8') && msg.contains("16"), "{msg}");
    }

    #[test]
    fn potrf_is_partially_parallel() {
        let cpu = gpuflow_cluster::ClusterSpec::minotauro().node.cpu;
        let pf = potrf_cost(2048).parallel_fraction(&cpu);
        assert!(pf > 0.5 && pf < 1.0, "potrf fraction {pf}");
        assert_eq!(trsm_cost(2048).parallel_fraction(&cpu), 1.0);
    }
}
