//! Memory-robustness study (extension).
//!
//! The paper credits distributed chunking with providing "memory
//! robustness to GPUs by breaking the input dataset into chunks" (§1).
//! This experiment quantifies that: for the 100 GB K-means dataset it
//! sweeps the grid dimension and reports the peak per-node working set
//! and the GPU feasibility of each point — the host-side complement of
//! the device OOM walls in Figs. 7/9.

use gpuflow_algorithms::KmeansConfig;
use gpuflow_cluster::StorageArchitecture::SharedDisk;
use gpuflow_runtime::SchedulingPolicy::GenerationOrder;

use crate::measure::{Context, Outcome};
use crate::table::TextTable;

/// One grid point of the memory sweep.
#[derive(Debug, Clone)]
pub struct MemoryRow {
    /// Grid rows.
    pub grid: u64,
    /// Block size, decimal MB.
    pub block_mb: f64,
    /// Peak per-node working set of the CPU run, bytes (`None` on OOM).
    pub cpu_peak_ram: Option<u64>,
    /// Whether the GPU run fits device memory.
    pub gpu_feasible: bool,
}

/// The memory-robustness result.
#[derive(Debug, Clone)]
pub struct MemoryStudy {
    /// Rows in decreasing task-parallelism order.
    pub rows: Vec<MemoryRow>,
}

/// Runs the sweep on the 100 GB K-means dataset.
pub fn run(ctx: &Context) -> MemoryStudy {
    run_with(ctx, &[256, 64, 16, 4, 1])
}

/// Runs the sweep over the given grids.
pub fn run_with(ctx: &Context, grids: &[u64]) -> MemoryStudy {
    let ds = gpuflow_data::paper::kmeans_100gb();
    let rows = ctx.par_map(grids, |_, &g| {
        let cfg = KmeansConfig::new(ds.clone(), g, 10, 1).expect("valid grid");
        let pair = ctx.pair(&cfg.build_workflow(), SharedDisk, GenerationOrder);
        MemoryRow {
            grid: g,
            block_mb: cfg.spec.block_mb(),
            cpu_peak_ram: pair.cpu.map(|r| r.metrics.peak_node_ram),
            gpu_feasible: !matches!(pair.gpu, Outcome::GpuOom),
        }
    });
    MemoryStudy { rows }
}

impl MemoryStudy {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Memory robustness: K-means 100GB, peak node working set vs grid",
            ["grid", "block MB", "peak node RAM GB", "GPU feasible"],
        );
        for r in &self.rows {
            t.push([
                format!("{}x1", r.grid),
                format!("{:.0}", r.block_mb),
                r.cpu_peak_ram
                    .map_or("OOM".into(), |b| format!("{:.1}", b as f64 / 1e9)),
                if r.gpu_feasible { "yes" } else { "no (OOM)" }.to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finer_chunking_caps_the_working_set() {
        let study = run_with(&Context::default(), &[256, 16, 1]);
        let peaks: Vec<u64> = study.rows.iter().filter_map(|r| r.cpu_peak_ram).collect();
        assert_eq!(peaks.len(), 3, "100 GB fits the 128 GB nodes at all grids");
        // Peak working set shrinks as chunks get finer... but not below
        // what concurrent tasks hold together.
        assert!(
            peaks[0] < peaks[2] / 4,
            "fine chunking must cap memory: {peaks:?}"
        );
        // GPU feasibility flips once blocks outgrow the 12 GB device.
        assert!(study.rows[0].gpu_feasible, "391 MB blocks fit");
        assert!(!study.rows[2].gpu_feasible, "100 GB block cannot fit");
        assert!(study.render().contains("Memory robustness"));
    }
}
