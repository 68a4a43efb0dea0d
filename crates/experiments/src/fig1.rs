//! Figure 1: performance of distributed K-means at different processing
//! stages on CPUs and GPUs.
//!
//! The motivating experiment: 10 GB dataset, 256 tasks, 128 CPU cores /
//! 32 GPU devices. Three stages are compared: (i) the parallel fraction
//! of a single task, (ii) a single task's whole user code, and (iii) the
//! fully distributed parallel-tasks execution. The paper measures 5.69×,
//! 1.24× and -1.20× respectively.

use gpuflow_algorithms::KmeansConfig;
use gpuflow_analysis::signed_speedup;
use gpuflow_cluster::StorageArchitecture::SharedDisk;
use gpuflow_runtime::SchedulingPolicy::GenerationOrder;

use crate::measure::Context;
use crate::table::TextTable;

/// One stage's CPU/GPU times and speedup.
#[derive(Debug, Clone, Copy)]
pub struct StageRow {
    /// Stage name.
    pub stage: &'static str,
    /// CPU time, seconds.
    pub cpu: f64,
    /// GPU time, seconds.
    pub gpu: f64,
    /// Signed speedup (the Fig. 1 convention: negative = GPU slower).
    pub speedup: f64,
}

/// The Figure 1 reproduction result.
#[derive(Debug, Clone)]
pub struct Fig1 {
    /// Rows for the three stages.
    pub stages: Vec<StageRow>,
}

/// Paper reference values for the three stages.
pub const PAPER_SPEEDUPS: [(&str, f64); 3] = [
    ("parallel fraction", 5.69),
    ("task user code", 1.24),
    ("parallel tasks", -1.20),
];

/// Runs the Figure 1 experiment.
pub fn run(ctx: &Context) -> Fig1 {
    let wf = KmeansConfig::new(gpuflow_data::paper::kmeans_10gb(), 256, 10, 1)
        .expect("paper configuration is valid")
        .build_workflow();
    let ((cpu_ps, cpu_makespan), (gpu_ps, gpu_makespan)) = ctx
        .pair(&wf, SharedDisk, GenerationOrder)
        .both(|r| {
            let ps = *r.metrics.task_type("partial_sum").expect("partial_sum ran");
            (ps, r.makespan())
        })
        .expect("both runs fit");
    let row = |stage, cpu: f64, gpu: f64| StageRow {
        stage,
        cpu,
        gpu,
        speedup: signed_speedup(cpu, gpu),
    };
    let stages = vec![
        row("parallel fraction", cpu_ps.parallel, gpu_ps.parallel),
        row("task user code", cpu_ps.user_code, gpu_ps.user_code),
        row("parallel tasks", cpu_makespan, gpu_makespan),
    ];
    Fig1 { stages }
}

impl Fig1 {
    /// Renders the comparison with the paper's reference numbers.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            "Figure 1: K-means processing stages, CPU vs GPU",
            ["stage", "CPU (s)", "GPU (s)", "speedup", "paper"],
        );
        for (row, (_, paper)) in self.stages.iter().zip(PAPER_SPEEDUPS) {
            t.push([
                row.stage.to_string(),
                format!("{:.3}", row.cpu),
                format!("{:.3}", row.gpu),
                format!("{:+.2}x", row.speedup),
                format!("{paper:+.2}x"),
            ]);
        }
        t.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproduces_the_three_stage_shape() {
        let fig = run(&Context::default());
        assert_eq!(fig.stages.len(), 3);
        let [pfrac, user, ptasks] = [&fig.stages[0], &fig.stages[1], &fig.stages[2]];
        // Stage (i): clear GPU win on the parallel fraction.
        assert!(pfrac.speedup > 3.0, "got {}", pfrac.speedup);
        // Stage (ii): marginal win once serial + comm are counted.
        assert!(user.speedup > 1.0 && user.speedup < pfrac.speedup);
        // Stage (iii): GPUs lose end-to-end (negative signed speedup).
        assert!(ptasks.speedup < -1.0, "got {}", ptasks.speedup);
        let rendered = fig.render();
        assert!(rendered.contains("parallel tasks"));
    }
}
