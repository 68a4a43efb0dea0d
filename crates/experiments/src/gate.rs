//! Perf-regression gate — guarding the simulator's performance
//! trajectory the way production stacks gate theirs.
//!
//! The gate profiles a small benchmark suite (fast canonical
//! configurations spanning both workloads, both processors, both
//! storage architectures, and both scheduling policies). Each case's
//! [`RunProfile`] is a committed artifact,
//! `artifacts/baselines/<case>.profile`, held to the rule every
//! committed output meets: runs are pure functions of (seed, config),
//! so a fresh render must equal the committed file byte for byte, and
//! any difference is a behaviour change, never measurement noise. On a
//! mismatch `repro check` prints the [`RunDiff`](gpuflow_runtime::RunDiff)
//! of the committed profile against the fresh one, so the blame table
//! points at the bucket that moved.
//!
//! Drive it through the `repro` binary:
//!
//! ```text
//! repro check                  # byte-compare each case with its baseline
//! repro all --out artifacts    # re-bless: also writes baselines/<case>.profile
//! ```

use std::path::{Path, PathBuf};

use gpuflow_algorithms::{KmeansConfig, MatmulConfig};
use gpuflow_cluster::{ProcessorKind, StorageArchitecture};
use gpuflow_runtime::{RunConfig, RunProfile, SchedulingPolicy, Workflow};

use crate::measure::Context;

/// One benchmark configuration of the gate suite.
struct GateCase {
    name: &'static str,
    processor: ProcessorKind,
    storage: StorageArchitecture,
    policy: SchedulingPolicy,
    workload: &'static str,
    grid: u64,
}

/// The suite: fast canonical runs covering both workloads, both
/// processors, both storage architectures, and both policies.
const SUITE: [GateCase; 4] = [
    GateCase {
        name: "matmul_cpu_shared_fifo",
        processor: ProcessorKind::Cpu,
        storage: StorageArchitecture::SharedDisk,
        policy: SchedulingPolicy::GenerationOrder,
        workload: "matmul",
        grid: 4,
    },
    GateCase {
        name: "matmul_gpu_shared_fifo",
        processor: ProcessorKind::Gpu,
        storage: StorageArchitecture::SharedDisk,
        policy: SchedulingPolicy::GenerationOrder,
        workload: "matmul",
        grid: 4,
    },
    GateCase {
        name: "kmeans_cpu_shared_fifo",
        processor: ProcessorKind::Cpu,
        storage: StorageArchitecture::SharedDisk,
        policy: SchedulingPolicy::GenerationOrder,
        workload: "kmeans",
        grid: 8,
    },
    GateCase {
        name: "kmeans_gpu_local_locality",
        processor: ProcessorKind::Gpu,
        storage: StorageArchitecture::LocalDisk,
        policy: SchedulingPolicy::DataLocality,
        workload: "kmeans",
        grid: 8,
    },
];

impl GateCase {
    fn workflow(&self) -> Workflow {
        match self.workload {
            "matmul" => MatmulConfig::new(gpuflow_data::paper::matmul_128mb(), self.grid)
                .expect("valid gate grid")
                .build_workflow(),
            "kmeans" => KmeansConfig::new(gpuflow_data::paper::kmeans_100mb(), self.grid, 10, 2)
                .expect("valid gate grid")
                .build_workflow(),
            other => unreachable!("unknown gate workload {other}"),
        }
    }

    fn profile(&self, ctx: &Context) -> RunProfile {
        let workflow = self.workflow();
        let cfg = RunConfig::new(ctx.cluster.clone(), self.processor)
            .with_storage(self.storage)
            .with_policy(self.policy)
            .with_seed(ctx.base_seed)
            .with_telemetry();
        let report = gpuflow_runtime::run(&workflow, &cfg).expect("gate case must run");
        RunProfile::from_telemetry(self.name, &workflow, &report.telemetry, report.makespan())
            .expect("telemetry enabled")
            .with_factor("workload", self.workload)
            .with_factor("grid", &self.grid.to_string())
            .with_factor("processor", self.processor.label())
            .with_factor("storage", self.storage.label())
            .with_factor("policy", self.policy.label())
    }
}

/// Profiles the whole suite (sweep-parallel; byte-identical at every
/// thread count).
pub fn suite_profiles(ctx: &Context) -> Vec<(&'static str, RunProfile)> {
    ctx.par_map(&SUITE, |_, case| (case.name, case.profile(ctx)))
}

/// The baseline file of one suite case.
pub fn baseline_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.profile"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_profiles_are_deterministic_across_threads() {
        let base = Context::default();
        let render = |threads| {
            suite_profiles(&base.clone().with_threads(threads))
                .into_iter()
                .map(|(_, p)| p.render())
                .collect::<Vec<_>>()
        };
        let one = render(1);
        assert_eq!(one, render(4));
        assert_eq!(one, render(8));
    }
}
