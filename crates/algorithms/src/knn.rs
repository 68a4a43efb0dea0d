//! Distributed k-nearest-neighbour query — an *additional* workload
//! beyond the paper's two.
//!
//! §5.5.1 argues that algorithms between the two studied extremes (fully
//! parallelizable Matmul vs. serial-heavy K-means) would "give more data
//! points ... to devise a method to decide when it is worth exploiting
//! GPUs based on the ratio of parallel / serial code". KNN is exactly
//! such a point: its distance computation is massively parallel, but the
//! per-query top-k selection is serial bookkeeping with a bigger share
//! than Matmul's zero and a smaller one than low-K K-means.
//!
//! Structure (mirroring dislib's `KNeighborsClassifier`): one
//! `knn_partial` task per row-block computes block-local top-k candidates
//! for every query; CPU-side `knn_merge` tasks fold the candidate sets.

use gpuflow_cluster::KernelWork;
use gpuflow_data::{
    squared_distance, BlockCoord, DatasetSpec, DsArray, DsArraySpec, GridDim, Matrix,
    PartitionError,
};
use gpuflow_runtime::{CostProfile, DataId, Direction, Merge, Workflow, WorkflowBuilder};

use crate::kmeans::MERGE_ARITY;
use crate::operand::{ArrayHandle, ObjectHandle};

/// Serial-selection work coefficient (equivalent flops per candidate).
const KNN_SELECT_COEFF: f64 = 40.0;

/// Cost of one `knn_partial` task: `m` block rows × `n` features against
/// `q` queries, keeping the top `k`.
pub fn knn_partial_cost(m: u64, n: u64, q: u64, k: u64) -> CostProfile {
    let (mf, nf, qf, kf) = (m as f64, n as f64, q as f64, k as f64);
    // Distance computation: fully data-parallel.
    let parallel = KernelWork {
        flops: 2.0 * mf * nf * qf,
        bytes: 4.0 * mf * nf * qf.min(64.0), // tiled query passes
        parallelism: mf * qf,
    };
    // Top-k selection per query: a serial scan with a small heap.
    let serial = KernelWork {
        flops: KNN_SELECT_COEFF * mf * qf.max(1.0) * (1.0 + kf.log2().max(0.0)),
        bytes: mf * qf * 8.0,
        parallelism: 1.0,
    };
    let dist_matrix = m * q * 8;
    CostProfile::partially_parallel(serial, parallel)
        .with_gpu_extra(dist_matrix)
        .with_host_extra((dist_matrix as f64 * 1.5) as u64)
}

/// Cost of merging `arity` candidate sets of `q × k` entries.
pub fn knn_merge_cost(q: u64, k: u64, arity: usize) -> CostProfile {
    let work = (q * k) as f64 * arity as f64;
    CostProfile::serial_only(KernelWork {
        flops: 25.0 * work,
        bytes: work * 16.0,
        parallelism: 1.0,
    })
}

/// Configuration of one distributed KNN-query workflow.
#[derive(Debug, Clone)]
pub struct KnnConfig {
    /// The row-wise partitioned reference dataset.
    pub spec: DsArraySpec,
    /// Number of query points.
    pub queries: u64,
    /// Neighbours per query.
    pub k: u64,
}

impl KnnConfig {
    /// Partitions `dataset` into `grid_rows × 1` row-wise blocks.
    ///
    /// # Errors
    /// Propagates partitioning violations.
    pub fn new(
        dataset: DatasetSpec,
        grid_rows: u64,
        queries: u64,
        k: u64,
    ) -> Result<Self, PartitionError> {
        let spec = DsArraySpec::partition(dataset, GridDim::row_wise(grid_rows))?;
        Ok(KnnConfig { spec, queries, k })
    }

    /// Builds the dependency DAG; each block is sized and costed by its
    /// own rows. The queries are the first storage input, ahead of the
    /// blocks (the input order deals blocks onto node disks).
    pub fn build_workflow(&self) -> Workflow {
        let mut b = WorkflowBuilder::new();
        let queries = b.input("queries", self.queries * self.spec.dataset.dim.cols * 8);
        let x = ArrayHandle::inputs(&mut b, &self.spec, "X");
        knn_tasks(&mut b, &x, queries, self.queries, self.k);
        b.build()
    }
}

/// Submits a query of `q` points (the `queries` object) for their `k`
/// nearest rows of `x`: one `knn_partial` per block-row (reading every
/// block of the row and the queries) into a block-local candidate set,
/// then a CPU-side `knn_merge` tree. Returns the merged candidate set.
pub(crate) fn knn_tasks(
    b: &mut WorkflowBuilder,
    x: &ArrayHandle,
    queries: DataId,
    q: u64,
    k: u64,
) -> ObjectHandle {
    let (_, n) = x.shape();
    // One candidate set: q × k (distance, index) pairs.
    let cand_bytes = q * k * 16;
    let cands: Vec<DataId> = (0..x.grid.rows)
        .map(|r| {
            let out = b.intermediate(format!("cand[{r}]"), cand_bytes);
            let mut accesses: Vec<(DataId, Direction)> = (0..x.grid.cols)
                .map(|c| (x.block(r, c), Direction::In))
                .collect();
            accesses.push((queries, Direction::In));
            accesses.push((out, Direction::Out));
            b.submit(
                "knn_partial",
                knn_partial_cost(x.block_rows(r), n, q, k),
                &accesses,
                false,
            )
            .expect("valid knn task");
            out
        })
        .collect();
    let merged = b.reduce(cands, MERGE_ARITY, |round, index, len| Merge {
        name: format!("kmerge[{round},{index}]"),
        bytes: cand_bytes,
        task_type: "knn_merge",
        cost: knn_merge_cost(q, k, len),
        cpu_only: true,
    });
    ObjectHandle {
        data: merged,
        bytes: cand_bytes,
    }
}

/// Block-local top-k candidates for every query: `(distance², global row
/// index)` pairs, ascending by distance.
pub fn knn_partial(
    block: &Matrix,
    row_offset: usize,
    queries: &Matrix,
    k: usize,
) -> Vec<Vec<(f64, usize)>> {
    assert_eq!(block.cols(), queries.cols(), "feature count mismatch");
    (0..queries.rows())
        .map(|qi| {
            let q = queries.row(qi);
            let mut cands: Vec<(f64, usize)> = (0..block.rows())
                .map(|ri| (squared_distance(block.row(ri), q), row_offset + ri))
                .collect();
            cands.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            cands.truncate(k);
            cands
        })
        .collect()
}

/// Merges per-block candidate sets into global top-k per query.
pub fn knn_merge(partials: &[Vec<Vec<(f64, usize)>>], k: usize) -> Vec<Vec<(f64, usize)>> {
    assert!(!partials.is_empty());
    let queries = partials[0].len();
    (0..queries)
        .map(|qi| {
            let mut all: Vec<(f64, usize)> = partials
                .iter()
                .flat_map(|p| p[qi].iter().copied())
                .collect();
            all.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
            all.truncate(k);
            all
        })
        .collect()
}

/// Functional reference: blocked KNN over a [`DsArray`], mirroring the
/// workflow's partial/merge structure.
pub fn reference_knn(data: &DsArray, queries: &Matrix, k: usize) -> Vec<Vec<(f64, usize)>> {
    let spec = data.spec();
    let mut offset = 0usize;
    let partials: Vec<_> = (0..spec.grid.rows)
        .map(|row| {
            let block = data.block(BlockCoord { row, col: 0 });
            let p = knn_partial(block, offset, queries, k);
            offset += block.rows();
            p
        })
        .collect();
    knn_merge(&partials, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpuflow_cluster::ClusterSpec;

    #[test]
    fn partial_finds_nearest_within_block() {
        let block = Matrix::from_vec(3, 1, vec![0.0, 5.0, 10.0]);
        let queries = Matrix::from_vec(1, 1, vec![4.0]);
        let got = knn_partial(&block, 100, &queries, 2);
        assert_eq!(got[0].len(), 2);
        assert_eq!(got[0][0].1, 101, "5.0 is nearest to 4.0");
        assert_eq!(got[0][1].1, 100);
    }

    #[test]
    fn blocked_knn_matches_single_block() {
        let ds = DatasetSpec::uniform("knn", 400, 6, 17);
        let m = ds.materialize().unwrap();
        let queries = DatasetSpec::uniform("q", 5, 6, 21).materialize().unwrap();
        let single = DsArray::from_matrix(ds.clone(), &m, GridDim::row_wise(1)).unwrap();
        let blocked = DsArray::from_matrix(ds, &m, GridDim::row_wise(8)).unwrap();
        let a = reference_knn(&single, &queries, 7);
        let b = reference_knn(&blocked, &queries, 7);
        assert_eq!(a, b, "chunking must not change neighbours");
    }

    #[test]
    fn reference_agrees_with_brute_force() {
        let ds = DatasetSpec::uniform("knn", 200, 4, 3);
        let m = ds.materialize().unwrap();
        let queries = DatasetSpec::uniform("q", 3, 4, 4).materialize().unwrap();
        let arr = DsArray::from_matrix(ds, &m, GridDim::row_wise(5)).unwrap();
        let got = reference_knn(&arr, &queries, 4);
        for (qi, cands) in got.iter().enumerate() {
            // Brute force over the whole matrix.
            let mut brute: Vec<(f64, usize)> = (0..m.rows())
                .map(|ri| (squared_distance(m.row(ri), queries.row(qi)), ri))
                .collect();
            brute.sort_by(|a, b| a.partial_cmp(b).unwrap());
            brute.truncate(4);
            assert_eq!(*cands, brute, "query {qi}");
        }
    }

    #[test]
    fn workflow_has_one_partial_per_block() {
        let cfg = KnnConfig::new(DatasetSpec::uniform("knn", 8_000, 10, 1), 8, 100, 5).unwrap();
        let wf = cfg.build_workflow();
        let partials = wf
            .tasks()
            .iter()
            .filter(|t| t.task_type == "knn_partial")
            .count();
        let merges = wf
            .tasks()
            .iter()
            .filter(|t| t.task_type == "knn_merge")
            .count();
        assert_eq!(partials, 8);
        assert_eq!(merges, 3); // 8 -> 2 -> 1 with arity 4
        wf.check_invariants().unwrap();
    }

    #[test]
    fn parallel_fraction_sits_between_the_extremes() {
        // §5.5.1: KNN is a data point between low-K K-means and Matmul.
        let cpu = ClusterSpec::minotauro().node.cpu;
        let kmeans = crate::calibration::partial_sum_cost(48_828, 100, 10).parallel_fraction(&cpu);
        let knn = knn_partial_cost(48_828, 100, 512, 10).parallel_fraction(&cpu);
        let matmul = crate::calibration::matmul_func_cost(2048, 2048, 2048).parallel_fraction(&cpu);
        assert!(
            kmeans < knn && knn < matmul,
            "expected ordering: kmeans {kmeans:.2} < knn {knn:.2} < matmul {matmul:.2}"
        );
    }
}
