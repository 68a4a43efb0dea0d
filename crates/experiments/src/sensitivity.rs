//! Resource-parameter sensitivity analysis — the factors Table 1 defers
//! to future work (§4.3: "#GPU devices, RAM and GPU memory size, CPU-GPU
//! bus throughput, and disk throughput"), plus the §3.3 CPU
//! thread-parallelism question.
//!
//! Each sweep varies one resource around the Minotauro baseline and
//! re-runs a fixed workload, showing which paper findings are artifacts
//! of the 2013 testbed and which are structural:
//!
//! * faster CPU-GPU buses (NVLink/CXL-class) rescue `add_func`;
//! * more device memory moves the OOM walls, it does not change winners;
//! * more GPUs per node attack exactly the task-parallelism gap behind
//!   Fig. 1's stage (iii);
//! * disk throughput scales the (de)serialization wall of O2;
//! * intra-task CPU threads only pay off when tasks are scarce.

use gpuflow_algorithms::{KmeansConfig, MatmulConfig};
use gpuflow_analysis::signed_speedup;
use gpuflow_cluster::{ClusterSpec, ProcessorKind};
use gpuflow_runtime::{RunConfig, RunError, Workflow};

use crate::measure::Context;
use crate::table::TextTable;

/// One sweep point: the varied value and the measured outcomes.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Human-readable value of the varied parameter.
    pub value: String,
    /// Measured metric (meaning depends on the sweep), `None` on OOM.
    pub metric: Option<f64>,
}

/// A one-parameter sensitivity sweep.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Parameter name.
    pub parameter: &'static str,
    /// Metric name.
    pub metric: &'static str,
    /// The sweep points in increasing parameter order.
    pub points: Vec<SweepPoint>,
}

impl Sweep {
    /// Renders one sweep as a table section.
    pub fn render(&self) -> String {
        let mut t = TextTable::new(
            &format!("Sensitivity: {} -> {}", self.parameter, self.metric),
            [self.parameter, self.metric],
        );
        for p in &self.points {
            t.push([
                p.value.clone(),
                p.metric.map_or("OOM".into(), |v| format!("{v:.3}")),
            ]);
        }
        t.render()
    }

    /// The metric values of points that completed.
    pub fn completed(&self) -> Vec<f64> {
        self.points.iter().filter_map(|p| p.metric).collect()
    }
}

fn run_metric(
    wf: &Workflow,
    cfg: &RunConfig,
    metric: impl Fn(&gpuflow_runtime::RunReport) -> f64,
) -> Option<f64> {
    match gpuflow_runtime::run(wf, cfg) {
        Ok(r) => Some(metric(&r)),
        Err(RunError::GpuOom { .. }) | Err(RunError::HostOom { .. }) => None,
        Err(e) => panic!("unexpected failure: {e}"),
    }
}

/// PCIe/NVLink bus throughput vs `add_func` user-code speedup: the
/// memory-bound task the paper shows losing on GPUs (Fig. 8) becomes
/// competitive once transfers stop dominating.
pub fn bus_bandwidth_vs_add_func() -> Sweep {
    let wf = MatmulConfig::new(gpuflow_data::paper::matmul_8gb(), 8)
        .expect("valid grid")
        .build_workflow();
    let points = [4.0e9, 12.0e9, 50.0e9, 200.0e9]
        .into_iter()
        .map(|bw| {
            let mut cluster = ClusterSpec::minotauro();
            cluster.node.pcie.bandwidth_bps = bw;
            let user = |p: ProcessorKind| {
                let cfg = RunConfig::new(cluster.clone(), p);
                run_metric(&wf, &cfg, |r| {
                    r.metrics.task_type("add_func").expect("ran").user_code
                })
            };
            let metric = match (user(ProcessorKind::Cpu), user(ProcessorKind::Gpu)) {
                (Some(c), Some(g)) => Some(signed_speedup(c, g)),
                _ => None,
            };
            SweepPoint {
                value: format!("{:.0} GB/s", bw / 1e9),
                metric,
            }
        })
        .collect();
    Sweep {
        parameter: "CPU-GPU bus bandwidth",
        metric: "add_func user-code speedup (signed)",
        points,
    }
}

/// GPU memory capacity vs the largest Matmul grid that fits: the OOM
/// wall of Figs. 7/10 moves with capacity and with nothing else.
pub fn gpu_memory_vs_oom_wall() -> Sweep {
    let ds = gpuflow_data::paper::matmul_8gb();
    let points = [6u64, 12, 24, 48]
        .into_iter()
        .map(|gib| {
            let mut cluster = ClusterSpec::minotauro();
            cluster.node.gpu.memory_bytes = gib * (1 << 30);
            cluster.node.ram_bytes = 512 * (1 << 30); // isolate the device wall
                                                      // Largest block (smallest grid) that still fits.
            let mut largest_block_mib = None;
            for grid in [16u64, 8, 4, 2, 1] {
                let cfg = MatmulConfig::new(ds.clone(), grid).expect("valid grid");
                let wf = cfg.build_workflow();
                let run_cfg = RunConfig::new(cluster.clone(), ProcessorKind::Gpu);
                if run_metric(&wf, &run_cfg, |r| r.makespan()).is_some() {
                    largest_block_mib = Some(cfg.spec.block_mib());
                }
            }
            SweepPoint {
                value: format!("{gib} GiB"),
                metric: largest_block_mib,
            }
        })
        .collect();
    Sweep {
        parameter: "GPU memory capacity",
        metric: "largest feasible Matmul block (MiB)",
        points,
    }
}

/// GPUs per node vs the Fig. 1 parallel-tasks ratio: more devices close
/// the task-parallelism gap that makes GPUs lose end-to-end.
pub fn gpus_per_node_vs_parallel_tasks() -> Sweep {
    let wf = KmeansConfig::new(gpuflow_data::paper::kmeans_10gb(), 256, 10, 1)
        .expect("valid grid")
        .build_workflow();
    let cpu_makespan = {
        let cfg = RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Cpu);
        run_metric(&wf, &cfg, |r| r.makespan()).expect("CPU fits")
    };
    let points = [2usize, 4, 8, 16]
        .into_iter()
        .map(|gpus| {
            let mut cluster = ClusterSpec::minotauro();
            cluster.node.gpus = gpus;
            let cfg = RunConfig::new(cluster, ProcessorKind::Gpu);
            let metric =
                run_metric(&wf, &cfg, |r| r.makespan()).map(|g| signed_speedup(cpu_makespan, g));
            SweepPoint {
                value: format!("{gpus}/node"),
                metric,
            }
        })
        .collect();
    Sweep {
        parameter: "GPU devices per node",
        metric: "K-means parallel-tasks speedup vs CPU (signed)",
        points,
    }
}

/// Shared-disk (GPFS) bandwidth vs per-core deserialization time — the
/// storage I/O wall behind O2.
pub fn shared_disk_bandwidth_vs_deser() -> Sweep {
    let wf = KmeansConfig::new(gpuflow_data::paper::kmeans_10gb(), 128, 10, 1)
        .expect("valid grid")
        .build_workflow();
    let points = [2.0e9, 8.0e9, 32.0e9]
        .into_iter()
        .map(|bw| {
            let mut cluster = ClusterSpec::minotauro();
            cluster.shared_disk.bandwidth_bps = bw;
            // Keep NICs from capping the sweep at the top end.
            cluster.network.nic_bps = bw;
            let cfg = RunConfig::new(cluster, ProcessorKind::Cpu);
            let metric = run_metric(&wf, &cfg, |r| r.metrics.deser_per_core);
            SweepPoint {
                value: format!("{:.0} GB/s", bw / 1e9),
                metric,
            }
        })
        .collect();
    Sweep {
        parameter: "shared file system bandwidth",
        metric: "deserialization time per core (s)",
        points,
    }
}

/// CPU threads per task under task scarcity vs abundance (§3.3): one
/// core per task wins when tasks outnumber cores; intra-task threads win
/// when they do not.
pub fn cpu_threads_vs_makespan(grid: u64) -> Sweep {
    let wf = KmeansConfig::new(gpuflow_data::paper::kmeans_10gb(), grid, 100, 1)
        .expect("valid grid")
        .build_workflow();
    let points = [1usize, 2, 4, 8]
        .into_iter()
        .map(|threads| {
            let cfg = RunConfig::new(ClusterSpec::minotauro(), ProcessorKind::Cpu)
                .with_cpu_threads(threads);
            let metric = run_metric(&wf, &cfg, |r| r.makespan());
            SweepPoint {
                value: format!("{threads} threads"),
                metric,
            }
        })
        .collect();
    Sweep {
        parameter: "CPU threads per task",
        metric: "K-means makespan (s)",
        points,
    }
}

/// Runs every sweep. The sweeps are independent and run on `ctx`'s
/// threads; the result order (and content) is fixed regardless of
/// thread count.
pub fn run_all(ctx: &Context) -> Vec<Sweep> {
    type Job = fn() -> Sweep;
    let jobs: [Job; 6] = [
        bus_bandwidth_vs_add_func,
        gpu_memory_vs_oom_wall,
        gpus_per_node_vs_parallel_tasks,
        shared_disk_bandwidth_vs_deser,
        || cpu_threads_vs_makespan(256),
        || cpu_threads_vs_makespan(8),
    ];
    ctx.par_map(&jobs, |_, job| job())
}

/// Renders all sweeps.
pub fn render_all(ctx: &Context) -> String {
    run_all(ctx)
        .iter()
        .map(Sweep::render)
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faster_bus_rescues_add_func() {
        let sweep = bus_bandwidth_vs_add_func();
        let v = sweep.completed();
        assert_eq!(v.len(), 4);
        assert!(v[0] < 0.0, "PCIe-era: add_func loses ({})", v[0]);
        assert!(v[3] > 0.0, "NVLink-class bus: add_func wins ({})", v[3]);
        assert!(
            v.windows(2).all(|w| w[0] <= w[1]),
            "monotone in bandwidth: {v:?}"
        );
    }

    #[test]
    fn more_device_memory_moves_the_oom_wall() {
        let sweep = gpu_memory_vs_oom_wall();
        let v = sweep.completed();
        assert!(
            v.windows(2).all(|w| w[0] <= w[1]),
            "wall moves outward: {v:?}"
        );
        // 24 GiB fits the paper's 3 x 8 GiB single-task footprint.
        assert_eq!(v[2], 8192.0);
        assert!(sweep.render().contains("GPU memory"));
    }

    #[test]
    fn more_gpus_close_the_parallel_task_gap() {
        let sweep = gpus_per_node_vs_parallel_tasks();
        let v = sweep.completed();
        assert!(v[0] < 0.0, "2 GPUs/node: GPUs lose ({})", v[0]);
        assert!(v[3] > v[0], "16 GPUs/node must improve on 2: {v:?}");
    }

    #[test]
    fn storage_bandwidth_scales_the_deser_wall() {
        let sweep = shared_disk_bandwidth_vs_deser();
        let v = sweep.completed();
        assert!(
            v.windows(2).all(|w| w[0] >= w[1]),
            "deser falls with bandwidth: {v:?}"
        );
        assert!(v[0] > 2.0 * v[2]);
    }

    #[test]
    fn cpu_threads_tradeoff_flips_with_task_abundance() {
        // 256 tasks on 128 cores: 1 thread/task wins.
        let abundant = cpu_threads_vs_makespan(256).completed();
        assert!(
            abundant[0] < abundant[2],
            "abundance favours 1 thread: {abundant:?}"
        );
        // 8 tasks on 128 cores: threads accelerate the scarce tasks.
        let scarce = cpu_threads_vs_makespan(8).completed();
        assert!(
            scarce[2] < scarce[0],
            "scarcity favours threads: {scarce:?}"
        );
    }
}
