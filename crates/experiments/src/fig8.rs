//! Figure 8: task computational complexity in Matmul.
//!
//! Per-task-type profiling of `matmul_func` (O(N³)) against `add_func`
//! (O(N)) over block sizes: the cubic task's GPU speedup scales with the
//! block up to ~21×, while the low-complexity `add_func` is dominated by
//! CPU-GPU communication and degrades on the GPU at every size.

use gpuflow_algorithms::MatmulConfig;
use gpuflow_analysis::signed_speedup;
use gpuflow_cluster::StorageArchitecture::SharedDisk;
use gpuflow_data::DatasetSpec;
use gpuflow_runtime::{SchedulingPolicy::GenerationOrder, UserCodeStats};

use crate::measure::Context;
use crate::table::TextTable;

/// Grids used in Fig. 8 (8192 MiB is skipped: a 1×1 grid has no
/// `add_func`, and its `matmul_func` overflows the device anyway).
pub const GRIDS: [u64; 4] = [16, 8, 4, 2];

/// Per-task-type numbers at one block size.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Block size label (MiB).
    pub block_mib: f64,
    /// Grid extent.
    pub grid: u64,
    /// `matmul_func` stats: (CPU, GPU).
    pub matmul: (UserCodeStats, UserCodeStats),
    /// `add_func` stats: (CPU, GPU).
    pub add: (UserCodeStats, UserCodeStats),
}

impl Fig8Row {
    /// User-code GPU speedup of `matmul_func`.
    pub fn matmul_speedup(&self) -> f64 {
        signed_speedup(self.matmul.0.user_code, self.matmul.1.user_code)
    }

    /// User-code GPU speedup of `add_func`.
    pub fn add_speedup(&self) -> f64 {
        signed_speedup(self.add.0.user_code, self.add.1.user_code)
    }
}

/// The Figure 8 reproduction result.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// One row per block size.
    pub rows: Vec<Fig8Row>,
}

/// Runs the Figure 8 experiment on `dataset` over `grids`.
pub fn run_with(ctx: &Context, dataset: &DatasetSpec, grids: &[u64]) -> Fig8 {
    let rows = ctx.par_map(grids, |_, &g| {
        let cfg = MatmulConfig::new(dataset.clone(), g).expect("valid grid");
        let pair = ctx.pair(&cfg.build_workflow(), SharedDisk, GenerationOrder);
        let stats = |t: &str| {
            pair.both(|r| *r.metrics.task_type(t).expect("task type ran"))
                .expect("grids in Fig. 8 fit the device")
        };
        Fig8Row {
            block_mib: cfg.spec.block_mib(),
            grid: g,
            matmul: stats("matmul_func"),
            add: stats("add_func"),
        }
    });
    Fig8 { rows }
}

/// Runs with the paper's dataset (Matmul 8 GB) and grids.
pub fn run(ctx: &Context) -> Fig8 {
    run_with(ctx, &gpuflow_data::paper::matmul_8gb(), &GRIDS)
}

impl Fig8 {
    /// Renders the two per-task-type chart panes as a table.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Figure 8: task computational complexity in Matmul (8 GB)",
            [
                "block MiB",
                "matmul x",
                "add x",
                "mm pfrac CPU s",
                "mm pfrac GPU s",
                "mm comm s",
                "add pfrac GPU s",
                "add comm s",
            ],
        );
        for r in &self.rows {
            t.push([
                format!("{:.0}", r.block_mib),
                format!("{:+.2}", r.matmul_speedup()),
                format!("{:+.2}", r.add_speedup()),
                format!("{:.3}", r.matmul.0.parallel),
                format!("{:.3}", r.matmul.1.parallel),
                format!("{:.4}", r.matmul.1.comm),
                format!("{:.4}", r.add.1.parallel),
                format!("{:.4}", r.add.1.comm),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn complexity_split_reproduces() {
        // Quick subset of the sweep.
        let fig = run_with(
            &Context::default(),
            &gpuflow_data::paper::matmul_8gb(),
            &[16, 4],
        );
        let fine = &fig.rows[0];
        let coarse = &fig.rows[1];
        // matmul_func scales with block size; add_func never wins.
        assert!(coarse.matmul_speedup() > fine.matmul_speedup() * 1.5);
        assert!(fine.add_speedup() < 0.0, "signed speedup: GPU slower");
        assert!(coarse.add_speedup() < 0.0);
        // Communication dominates add_func's GPU time (the §5.2.1 cause).
        assert!(coarse.add.1.comm > coarse.add.1.parallel);
        // But computation dominates communication for coarse matmul_func.
        assert!(coarse.matmul.1.parallel > coarse.matmul.1.comm);
        assert!(fig.render().contains("Figure 8"));
    }
}
