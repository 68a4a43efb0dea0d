//! Figure 10: the effects of storage architecture and scheduling policy
//! on parallel task execution time, for Matmul (10a) and K-means (10b).
//!
//! Four configurations per algorithm: {local, shared} × {generation
//! order, data locality}, swept over the block-size grid with both
//! processor types. The expected shapes (§5.3): local disk is faster and
//! insensitive to the policy (O5); shared disk is slower and
//! policy-sensitive, especially for low-complexity K-means tasks (O6);
//! times rise for coarse grains (lost task parallelism) and drop at the
//! single-task maximum block size; Matmul's 8192 MiB point is a GPU OOM.

use gpuflow_cluster::StorageArchitecture;
use gpuflow_runtime::SchedulingPolicy;

use crate::fig7::{kmeans_points, matmul_points, Point};
use crate::measure::Context;
use crate::table::TextTable;

/// K-means iterations for Fig. 10b (iterations are what make the
/// cache/policy coupling visible).
pub const KMEANS_ITERATIONS: u32 = 5;

/// One (storage, policy) configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Combo {
    /// Storage architecture.
    pub storage: StorageArchitecture,
    /// Scheduling policy.
    pub policy: SchedulingPolicy,
}

/// All four combinations in the paper's panel order.
pub const COMBOS: [Combo; 4] = [
    Combo {
        storage: StorageArchitecture::LocalDisk,
        policy: SchedulingPolicy::GenerationOrder,
    },
    Combo {
        storage: StorageArchitecture::LocalDisk,
        policy: SchedulingPolicy::DataLocality,
    },
    Combo {
        storage: StorageArchitecture::SharedDisk,
        policy: SchedulingPolicy::GenerationOrder,
    },
    Combo {
        storage: StorageArchitecture::SharedDisk,
        policy: SchedulingPolicy::DataLocality,
    },
];

/// Parallel-tasks average time for one grid under one combo.
#[derive(Debug, Clone)]
pub struct Fig10Cell {
    /// Grid extent.
    pub grid: u64,
    /// Block label as on the x-axis.
    pub block_label: String,
    /// Configuration.
    pub combo: Combo,
    /// CPU parallel-task time (mean level span), or `None` on OOM.
    pub cpu: Option<f64>,
    /// GPU parallel-task time, or `None` on OOM.
    pub gpu: Option<f64>,
    /// OOM annotation.
    pub note: Option<&'static str>,
}

/// A full Fig. 10 panel for one algorithm.
#[derive(Debug, Clone)]
pub struct Fig10 {
    /// Panel label.
    pub label: String,
    /// All (combo × grid) cells.
    pub cells: Vec<Fig10Cell>,
}

fn sweep(ctx: &Context, label: &str, points: &[Point]) -> Fig10 {
    let jobs: Vec<(Combo, &Point)> = COMBOS
        .iter()
        .flat_map(|&combo| points.iter().map(move |p| (combo, p)))
        .collect();
    let cells = ctx.par_map(&jobs, |_, &(combo, (grid, block_label, wf))| {
        let pair = ctx.pair(wf, combo.storage, combo.policy);
        let (cpu, gpu) = pair.map(|r| r.metrics.parallel_task_time);
        Fig10Cell {
            grid: *grid,
            block_label: block_label.clone(),
            combo,
            cpu,
            gpu,
            note: pair.note(),
        }
    });
    Fig10 {
        label: label.to_string(),
        cells,
    }
}

/// Runs the Matmul panel (Fig. 10a) over `grids`.
pub fn run_matmul_with(ctx: &Context, grids: &[u64]) -> Fig10 {
    let points = matmul_points(&gpuflow_data::paper::matmul_8gb(), grids);
    sweep(ctx, "Matmul 8GB", &points)
}

/// Runs the K-means panel (Fig. 10b) over `grids`.
pub fn run_kmeans_with(ctx: &Context, grids: &[u64]) -> Fig10 {
    let ds = gpuflow_data::paper::kmeans_10gb();
    let points = kmeans_points(&ds, grids, 10, KMEANS_ITERATIONS);
    sweep(ctx, "K-means 10GB, 10 clusters", &points)
}

/// Runs Fig. 10a with the paper's grids.
pub fn run_matmul(ctx: &Context) -> Fig10 {
    run_matmul_with(ctx, &crate::fig7::MATMUL_GRIDS)
}

/// Runs Fig. 10b with the paper's grids.
pub fn run_kmeans(ctx: &Context) -> Fig10 {
    run_kmeans_with(ctx, &crate::fig7::KMEANS_GRIDS)
}

impl Fig10 {
    /// Cells of one configuration, in grid order.
    pub fn panel(&self, combo: Combo) -> Vec<&Fig10Cell> {
        self.cells.iter().filter(|c| c.combo == combo).collect()
    }

    /// Renders all four panels.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            &format!("Figure 10: storage x scheduling, {}", self.label),
            [
                "storage",
                "policy",
                "block (grid)",
                "CPU P.Tasks s",
                "GPU P.Tasks s",
                "note",
            ],
        );
        for c in &self.cells {
            t.push([
                c.combo.storage.label().to_string(),
                c.combo.policy.label().to_string(),
                c.block_label.clone(),
                c.cpu.map_or("-".into(), |v| format!("{v:.2}")),
                c.gpu.map_or("-".into(), |v| format!("{v:.2}")),
                c.note.unwrap_or("").to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mean_cpu(panel: &[&Fig10Cell]) -> f64 {
        let vals: Vec<f64> = panel.iter().filter_map(|c| c.cpu).collect();
        vals.iter().sum::<f64>() / vals.len() as f64
    }

    #[test]
    fn local_disk_beats_shared_disk() {
        let fig = run_kmeans_with(&Context::default(), &[64, 16]);
        let local = mean_cpu(&fig.panel(COMBOS[0]));
        let shared = mean_cpu(&fig.panel(COMBOS[2]));
        assert!(local < shared, "local {local} vs shared {shared}");
    }

    #[test]
    fn policy_matters_more_on_shared_disk_for_kmeans() {
        let fig = run_kmeans_with(&Context::default(), &[64]);
        let gap = |a: Combo, b: Combo| {
            let x = mean_cpu(&fig.panel(a));
            let y = mean_cpu(&fig.panel(b));
            (x - y).abs() / x.max(y)
        };
        let local_gap = gap(COMBOS[0], COMBOS[1]);
        let shared_gap = gap(COMBOS[2], COMBOS[3]);
        assert!(
            shared_gap > local_gap,
            "shared-disk policy gap {shared_gap} should exceed local {local_gap}"
        );
    }

    #[test]
    fn matmul_largest_block_is_gpu_oom() {
        let fig = run_matmul_with(&Context::default(), &[1]);
        assert!(fig.cells.iter().all(|c| c.note == Some("GPU OOM")));
        assert!(fig.cells.iter().all(|c| c.cpu.is_some()));
        assert!(fig.render().contains("GPU OOM"));
    }
}
