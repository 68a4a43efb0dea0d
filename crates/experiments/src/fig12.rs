//! Figure 12: generalizability — the Fused Multiply Add Matmul.
//!
//! Runs the FMA implementation with the same parameters as the dislib
//! Matmul experiment (Fig. 8) and checks that the trends carry over:
//! user-code speedup scaling with block size, parallel fraction
//! dominating CPU-GPU communication for coarse grains.

use gpuflow_algorithms::FmaConfig;
use gpuflow_analysis::signed_speedup;
use gpuflow_cluster::StorageArchitecture::SharedDisk;
use gpuflow_runtime::{SchedulingPolicy::GenerationOrder, UserCodeStats};

use crate::measure::Context;
use crate::table::TextTable;

/// Grid sweep: same block sizes as Fig. 8, plus the 1×1 point the FMA
/// variant *can* run (paper Fig. 12 includes 8192 MB).
pub const GRIDS: [u64; 5] = [16, 8, 4, 2, 1];

/// One block-size point.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Block size (MiB).
    pub block_mib: f64,
    /// Grid extent.
    pub grid: u64,
    /// `fma_func` stats: (CPU, GPU) when both completed.
    pub stats: Option<(UserCodeStats, UserCodeStats)>,
    /// OOM annotation.
    pub note: Option<&'static str>,
}

impl Fig12Row {
    /// User-code GPU speedup.
    pub fn user_speedup(&self) -> Option<f64> {
        self.stats
            .map(|(c, g)| signed_speedup(c.user_code, g.user_code))
    }
}

/// The Figure 12 result.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// One row per block size.
    pub rows: Vec<Fig12Row>,
}

/// Runs the FMA sweep on the Matmul 8 GB dataset over `grids`.
pub fn run_with(ctx: &Context, grids: &[u64]) -> Fig12 {
    let ds = gpuflow_data::paper::matmul_8gb();
    let rows = ctx.par_map(grids, |_, &g| {
        let cfg = FmaConfig::new(ds.clone(), g).expect("valid grid");
        let pair = ctx.pair(&cfg.build_workflow(), SharedDisk, GenerationOrder);
        Fig12Row {
            block_mib: cfg.spec.block_mib(),
            grid: g,
            stats: pair.both(|r| *r.metrics.task_type("fma_func").expect("ran")),
            note: pair.note(),
        }
    });
    Fig12 { rows }
}

/// Runs with the paper's grids.
pub fn run(ctx: &Context) -> Fig12 {
    run_with(ctx, &GRIDS)
}

impl Fig12 {
    /// Renders the sweep.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Figure 12: Matmul FMA task user code",
            [
                "block MiB",
                "Usr.Code x",
                "P.Frac CPU s",
                "P.Frac GPU s",
                "comm s",
                "note",
            ],
        );
        for r in &self.rows {
            t.push([
                format!("{:.0}", r.block_mib),
                r.user_speedup().map_or("-".into(), |s| format!("{s:+.2}")),
                r.stats
                    .map_or("-".into(), |(c, _)| format!("{:.3}", c.parallel)),
                r.stats
                    .map_or("-".into(), |(_, g)| format!("{:.3}", g.parallel)),
                r.stats
                    .map_or("-".into(), |(_, g)| format!("{:.4}", g.comm)),
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
    fn fma_follows_the_matmul_trends() {
        let fig = run_with(&Context::default(), &[16, 4]);
        let fine = fig.rows[0].user_speedup().unwrap();
        let coarse = fig.rows[1].user_speedup().unwrap();
        // Same shape as Fig. 8's matmul_func: speedup scales with block.
        assert!(coarse > fine * 1.5, "fine {fine} vs coarse {coarse}");
        assert!(coarse > 8.0, "coarse FMA should be >8x, got {coarse}");
        // Computation dominates communication for coarse blocks.
        let (_, gpu) = fig.rows[1].stats.unwrap();
        assert!(gpu.parallel > gpu.comm);
        assert!(fig.render().contains("Figure 12"));
    }
}
