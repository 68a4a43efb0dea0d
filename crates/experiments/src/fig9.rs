//! Figure 9: (a) the algorithm-specific parameter (#clusters in K-means)
//! and (b) data skew.
//!
//! 9a sweeps the cluster count over {10, 100, 1000} and the K-means grid
//! sizes: higher cluster counts shift work into the parallel fraction and
//! multiply the GPU speedup — until the distance matrix overflows device
//! (and eventually host) memory.
//!
//! 9b compares uniform against 50 %-skewed datasets: the studied kernels
//! are value-oblivious, so execution times must not move.

use gpuflow_algorithms::{KmeansConfig, MatmulConfig};
use gpuflow_analysis::signed_speedup;
use gpuflow_cluster::StorageArchitecture::SharedDisk;
use gpuflow_runtime::{RunReport, SchedulingPolicy::GenerationOrder, UserCodeStats, Workflow};

use crate::measure::Context;
use crate::table::TextTable;

/// Cluster counts studied in Fig. 9a.
pub const CLUSTER_COUNTS: [u64; 3] = [10, 100, 1000];
/// Grid sweep of Fig. 9a (same as Fig. 7b).
pub const GRIDS: [u64; 9] = [256, 128, 64, 32, 16, 8, 4, 2, 1];

/// One (clusters, grid) cell of Fig. 9a.
#[derive(Debug, Clone)]
pub struct Fig9aCell {
    /// Cluster count.
    pub clusters: u64,
    /// Grid rows.
    pub grid: u64,
    /// Block size label (MB).
    pub block_mb: f64,
    /// CPU stats for `partial_sum`, if the host fit.
    pub cpu: Option<UserCodeStats>,
    /// GPU stats for `partial_sum`, if the device fit.
    pub gpu: Option<UserCodeStats>,
    /// OOM annotation.
    pub note: Option<&'static str>,
}

impl Fig9aCell {
    /// User-code GPU speedup when both sides completed.
    pub fn user_speedup(&self) -> Option<f64> {
        match (&self.cpu, &self.gpu) {
            (Some(c), Some(g)) => Some(signed_speedup(c.user_code, g.user_code)),
            _ => None,
        }
    }
}

/// The Fig. 9a result grid.
#[derive(Debug, Clone)]
pub struct Fig9a {
    /// All sampled cells.
    pub cells: Vec<Fig9aCell>,
}

/// Runs Fig. 9a over the given cluster counts and grids.
pub fn run_9a_with(ctx: &Context, clusters: &[u64], grids: &[u64]) -> Fig9a {
    let ds = gpuflow_data::paper::kmeans_10gb();
    let points: Vec<(u64, u64)> = clusters
        .iter()
        .flat_map(|&k| grids.iter().map(move |&g| (k, g)))
        .collect();
    let cells = ctx.par_map(&points, |_, &(k, g)| {
        let cfg = KmeansConfig::new(ds.clone(), g, k, 1).expect("valid grid");
        let pair = ctx.pair(&cfg.build_workflow(), SharedDisk, GenerationOrder);
        let (cpu, gpu) = pair.map(|r| *r.metrics.task_type("partial_sum").expect("ran"));
        Fig9aCell {
            clusters: k,
            grid: g,
            block_mb: cfg.spec.block_mb(),
            cpu,
            gpu,
            note: pair.note(),
        }
    });
    Fig9a { cells }
}

/// Runs Fig. 9a with the paper's parameters.
pub fn run_9a(ctx: &Context) -> Fig9a {
    run_9a_with(ctx, &CLUSTER_COUNTS, &GRIDS)
}

impl Fig9a {
    /// Renders the three chart columns (one per cluster count).
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Figure 9a: #clusters in K-means (10 GB)",
            [
                "clusters",
                "block MB",
                "Usr.Code x",
                "S.Frac s",
                "P.Frac CPU s",
                "P.Frac GPU s",
                "comm s",
                "note",
            ],
        );
        for c in &self.cells {
            t.push([
                c.clusters.to_string(),
                format!("{:.0}", c.block_mb),
                c.user_speedup().map_or("-".into(), |s| format!("{s:+.2}")),
                c.cpu.map_or("-".into(), |s| format!("{:.3}", s.serial)),
                c.cpu.map_or("-".into(), |s| format!("{:.3}", s.parallel)),
                c.gpu.map_or("-".into(), |s| format!("{:.3}", s.parallel)),
                c.gpu.map_or("-".into(), |s| format!("{:.4}", s.comm)),
                c.note.unwrap_or("").to_string(),
            ]);
        }
        t.render()
    }
}

/// One algorithm's skew comparison in Fig. 9b.
#[derive(Debug, Clone)]
pub struct Fig9bRow {
    /// Algorithm label.
    pub algorithm: &'static str,
    /// CPU user-code time with uniform data.
    pub cpu_uniform: f64,
    /// CPU user-code time with 50 % skew.
    pub cpu_skewed: f64,
    /// GPU user-code time with uniform data.
    pub gpu_uniform: f64,
    /// GPU user-code time with 50 % skew.
    pub gpu_skewed: f64,
}

/// The Fig. 9b result.
#[derive(Debug, Clone)]
pub struct Fig9b {
    /// Matmul and K-means rows.
    pub rows: Vec<Fig9bRow>,
}

/// Runs Fig. 9b: Matmul 2 GB and K-means 1 GB, 0 % vs 50 % skew.
pub fn run_9b(ctx: &Context) -> Fig9b {
    let row = |algorithm, build: &dyn Fn(f64) -> Workflow, user: fn(&RunReport) -> f64| {
        let [(cpu_uniform, gpu_uniform), (cpu_skewed, gpu_skewed)] = [0.0, 0.5].map(|skew| {
            let pair = ctx.pair(&build(skew), SharedDisk, GenerationOrder);
            pair.both(user).expect("fits")
        });
        Fig9bRow {
            algorithm,
            cpu_uniform,
            cpu_skewed,
            gpu_uniform,
            gpu_skewed,
        }
    };
    let rows = vec![
        // Matmul 2 GB at a 4x4 grid (128 MiB blocks).
        row(
            "Matmul 2GB",
            &|skew| {
                MatmulConfig::new(gpuflow_data::paper::matmul_2gb_skewed(skew), 4)
                    .expect("valid grid")
                    .build_workflow()
            },
            |r| r.metrics.mean_user_code(),
        ),
        // K-means 1 GB at a 16x1 grid, 10 clusters.
        row(
            "K-means 1GB",
            &|skew| {
                KmeansConfig::new(gpuflow_data::paper::kmeans_1gb_skewed(skew), 16, 10, 1)
                    .expect("valid grid")
                    .build_workflow()
            },
            |r| r.metrics.task_type("partial_sum").expect("ran").user_code,
        ),
    ];
    Fig9b { rows }
}

impl Fig9b {
    /// Renders the skew comparison.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Figure 9b: data skew (0% vs 50%)",
            [
                "algorithm",
                "CPU 0% s",
                "CPU 50% s",
                "GPU 0% s",
                "GPU 50% s",
            ],
        );
        for r in &self.rows {
            t.push([
                r.algorithm.to_string(),
                format!("{:.4}", r.cpu_uniform),
                format!("{:.4}", r.cpu_skewed),
                format!("{:.4}", r.gpu_uniform),
                format!("{:.4}", r.gpu_skewed),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_count_multiplies_gpu_speedup() {
        let fig = run_9a_with(&Context::default(), &[10, 1000], &[64]);
        let s10 = fig.cells[0].user_speedup().unwrap();
        let s1000 = fig.cells[1].user_speedup().unwrap();
        assert!(s10 < 2.0, "marginal at 10 clusters: {s10}");
        assert!(s1000 > s10 * 4.0, "large at 1000 clusters: {s1000}");
    }

    #[test]
    fn distance_matrix_ooms_big_blocks_at_1000_clusters() {
        let fig = run_9a_with(&Context::default(), &[1000], &[16, 8, 1]);
        assert_eq!(fig.cells[0].note, None, "625 MB block fits");
        assert_eq!(
            fig.cells[1].note,
            Some("GPU OOM"),
            "1250 MB block overflows"
        );
        assert_eq!(
            fig.cells[2].note,
            Some("CPU+GPU OOM"),
            "10 GB block overflows both"
        );
        assert!(fig.render().contains("OOM"));
    }

    #[test]
    fn skew_does_not_change_execution_times() {
        // §5.2.3: the kernels are value-oblivious.
        let fig = run_9b(&Context::default());
        for r in &fig.rows {
            assert!(
                (r.cpu_uniform - r.cpu_skewed).abs() / r.cpu_uniform < 1e-9,
                "{}: CPU time moved with skew",
                r.algorithm
            );
            assert!(
                (r.gpu_uniform - r.gpu_skewed).abs() / r.gpu_uniform < 1e-9,
                "{}: GPU time moved with skew",
                r.algorithm
            );
        }
        assert!(fig.render().contains("Figure 9b"));
    }
}
