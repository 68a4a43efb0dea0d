//! Figure 7: end-to-end performance analysis of Matmul (7a) and K-means
//! (7b) across block sizes, for the small and large datasets.
//!
//! For every grid dimension the experiment reports the three GPU-over-CPU
//! speedups (parallel fraction, user code, parallel tasks) and the stage
//! times behind them — with the GPU OOM walls the paper draws at large
//! block sizes.

use gpuflow_algorithms::{KmeansConfig, MatmulConfig};
use gpuflow_analysis::signed_speedup;
use gpuflow_cluster::StorageArchitecture::SharedDisk;
use gpuflow_data::DatasetSpec;
use gpuflow_runtime::{RunReport, SchedulingPolicy::GenerationOrder, Workflow};

use crate::measure::Context;
use crate::table::TextTable;

/// The paper's Matmul grid sweep (§4.4.5).
pub const MATMUL_GRIDS: [u64; 5] = [16, 8, 4, 2, 1];
/// The paper's K-means grid sweep (§4.4.5).
pub const KMEANS_GRIDS: [u64; 9] = [256, 128, 64, 32, 16, 8, 4, 2, 1];
/// Iterations used for the end-to-end K-means runs.
pub const KMEANS_ITERATIONS: u32 = 3;

/// Stage times of one run (seconds, per-task means except `ptask`).
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    /// Mean parallel-fraction time per task.
    pub pfrac: f64,
    /// Mean serial fraction + CPU-GPU communication per task.
    pub serial_comm: f64,
    /// Mean (de)serialization time per core.
    pub deser_ser: f64,
    /// Parallel task execution time (mean DAG-level span).
    pub ptask: f64,
    /// Whole-workflow makespan.
    pub makespan: f64,
}

impl StageTimes {
    fn from_report(r: &RunReport) -> Self {
        StageTimes {
            pfrac: r.metrics.mean_parallel(),
            serial_comm: r.metrics.mean_user_code() - r.metrics.mean_parallel(),
            deser_ser: r.metrics.deser_per_core + r.metrics.ser_per_core,
            ptask: r.metrics.parallel_task_time,
            makespan: r.metrics.makespan,
        }
    }
}

/// One grid point of the sweep.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Grid extent (G for G×G Matmul grids, k for k×1 K-means grids).
    pub grid: u64,
    /// Block size label as on the paper's x-axes.
    pub block_label: String,
    /// CPU stage times.
    pub cpu: StageTimes,
    /// GPU outcome (times or an OOM wall).
    pub gpu: Option<StageTimes>,
    /// `"GPU OOM"` / `"CPU OOM"` when a side failed.
    pub note: Option<&'static str>,
}

impl Fig7Row {
    /// GPU-over-CPU speedup of the parallel fraction.
    pub fn pfrac_speedup(&self) -> Option<f64> {
        self.gpu.map(|g| signed_speedup(self.cpu.pfrac, g.pfrac))
    }

    /// GPU-over-CPU speedup of the user code.
    pub fn user_speedup(&self) -> Option<f64> {
        self.gpu.map(|g| {
            signed_speedup(
                self.cpu.pfrac + self.cpu.serial_comm,
                g.pfrac + g.serial_comm,
            )
        })
    }

    /// GPU-over-CPU speedup of the parallel-tasks stage.
    pub fn ptask_speedup(&self) -> Option<f64> {
        self.gpu.map(|g| signed_speedup(self.cpu.ptask, g.ptask))
    }
}

/// A full sweep for one algorithm × dataset.
#[derive(Debug, Clone)]
pub struct Fig7Sweep {
    /// Sweep label (e.g. "Matmul 8GB").
    pub label: String,
    /// One row per grid dimension.
    pub rows: Vec<Fig7Row>,
}

/// One point of a block-size sweep: the grid extent, its block label
/// as on the paper's x-axes, and its workflow.
pub(crate) type Point = (u64, String, Workflow);

/// The Matmul points of `grids` on `dataset`, labelled "MiB (GxG)"
/// (Figs. 7a and 10a).
pub(crate) fn matmul_points(dataset: &DatasetSpec, grids: &[u64]) -> Vec<Point> {
    let point = |g| {
        let cfg = MatmulConfig::new(dataset.clone(), g).expect("valid paper grid");
        let label = format!("{:.0} ({g}x{g})", cfg.spec.block_mib());
        (g, label, cfg.build_workflow())
    };
    grids.iter().map(|&g| point(g)).collect()
}

/// The K-means points of `grids` on `dataset`, labelled "MB (kx1)"
/// (Figs. 7b and 10b).
pub(crate) fn kmeans_points(
    dataset: &DatasetSpec,
    grids: &[u64],
    clusters: u64,
    iterations: u32,
) -> Vec<Point> {
    let point = |g| {
        let cfg =
            KmeansConfig::new(dataset.clone(), g, clusters, iterations).expect("valid paper grid");
        let label = format!("{:.0} ({g}x1)", cfg.spec.block_mb());
        (g, label, cfg.build_workflow())
    };
    grids.iter().map(|&g| point(g)).collect()
}

/// Runs the Matmul sweep of Fig. 7a over `grids`.
pub fn run_matmul(ctx: &Context, dataset: &DatasetSpec, grids: &[u64]) -> Fig7Sweep {
    let label = format!("Matmul {}", dataset.name);
    sweep(ctx, label, &matmul_points(dataset, grids))
}

/// Runs the K-means sweep of Fig. 7b over `grids`.
pub fn run_kmeans(
    ctx: &Context,
    dataset: &DatasetSpec,
    grids: &[u64],
    clusters: u64,
    iterations: u32,
) -> Fig7Sweep {
    let label = format!("K-means {}", dataset.name);
    sweep(
        ctx,
        label,
        &kmeans_points(dataset, grids, clusters, iterations),
    )
}

fn sweep(ctx: &Context, label: String, points: &[Point]) -> Fig7Sweep {
    let rows = ctx.par_map(points, |_, (grid, block_label, wf)| {
        let pair = ctx.pair(wf, SharedDisk, GenerationOrder);
        let (cpu, gpu) = pair.map(StageTimes::from_report);
        Fig7Row {
            grid: *grid,
            block_label: block_label.clone(),
            // A CPU OOM (Fig. 9a's right edge) leaves empty stage times.
            cpu: cpu.unwrap_or_default(),
            gpu,
            note: pair.note(),
        }
    });
    Fig7Sweep { label, rows }
}

impl Fig7Sweep {
    /// Renders the sweep as the paper's two stacked charts (speedups and
    /// stage times) in tabular form.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            &format!("Figure 7: end-to-end analysis, {}", self.label),
            [
                "block MB (grid)",
                "P.Frac x",
                "Usr.Code x",
                "P.Tasks x",
                "CPU pfrac s",
                "GPU pfrac s",
                "ser+comm s",
                "de/ser s",
                "note",
            ],
        );
        for r in &self.rows {
            let f = |v: Option<f64>| v.map_or("-".to_string(), |x| format!("{x:+.2}"));
            t.push([
                r.block_label.clone(),
                f(r.pfrac_speedup()),
                f(r.user_speedup()),
                f(r.ptask_speedup()),
                format!("{:.3}", r.cpu.pfrac),
                r.gpu.map_or("-".into(), |g| format!("{:.3}", g.pfrac)),
                r.gpu
                    .map_or("-".into(), |g| format!("{:.3}", g.serial_comm)),
                format!("{:.3}", r.cpu.deser_ser),
                r.note.unwrap_or("").to_string(),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_small_dataset_shape() {
        // Quick subset: fine and coarse grids plus the OOM point.
        let ctx = Context::default();
        let sweep = run_matmul(&ctx, &gpuflow_data::paper::matmul_8gb(), &[16, 4, 1]);
        assert_eq!(sweep.rows.len(), 3);
        // Speedups grow from fine to coarse...
        let s16 = sweep.rows[0].user_speedup().unwrap();
        let s4 = sweep.rows[1].user_speedup().unwrap();
        assert!(s4 > s16, "coarse blocks must speed up more: {s16} vs {s4}");
        // ...until the 8192 MiB block overflows the 12 GB device (3x8 GB).
        assert_eq!(sweep.rows[2].note, Some("GPU OOM"));
        assert!(sweep.render().contains("GPU OOM"));
    }

    #[test]
    fn kmeans_user_speedup_insensitive_to_block_size() {
        // Observation O1: serial fraction + comm dominate at every block
        // size, so user-code speedups barely move.
        let ctx = Context::default();
        let sweep = run_kmeans(&ctx, &gpuflow_data::paper::kmeans_10gb(), &[256, 16], 10, 1);
        let a = sweep.rows[0].user_speedup().unwrap();
        let b = sweep.rows[1].user_speedup().unwrap();
        assert!(
            (a - b).abs() < 0.5,
            "user speedups {a} vs {b} should be close"
        );
    }

    #[test]
    fn kmeans_parallel_tasks_favor_cpu_at_fine_grain() {
        let ctx = Context::default();
        let sweep = run_kmeans(&ctx, &gpuflow_data::paper::kmeans_10gb(), &[256], 10, 1);
        let pt = sweep.rows[0].ptask_speedup().unwrap();
        assert!(pt < 0.0, "fine-grained K-means favors CPUs, got {pt}");
    }
}
