//! Quickstart: build a small distributed K-means workflow, run it on the
//! simulated Minotauro cluster with CPUs and with GPUs, and inspect the
//! paper's metrics.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gpuflow::algorithms::KmeansConfig;
use gpuflow::cluster::{ClusterSpec, ProcessorKind};
use gpuflow::data::DatasetSpec;
use gpuflow::runtime::{run, RunConfig, Trace};

fn main() {
    // A 256 MB synthetic dataset: 320k samples x 100 features, split into
    // 16 row-blocks; 10 clusters, 3 Lloyd iterations.
    let dataset = DatasetSpec::uniform("quickstart", 320_000, 100, 42);
    let workflow = KmeansConfig::new(dataset, 16, 10, 3)
        .expect("valid partitioning")
        .build_workflow();

    let shape = workflow.shape();
    println!(
        "workflow: {} tasks, DAG width {}, height {}",
        shape.tasks, shape.max_width, shape.height
    );

    let cluster = ClusterSpec::minotauro();
    println!(
        "cluster:  {} nodes, {} CPU cores, {} GPU devices\n",
        cluster.nodes,
        cluster.total_cpu_cores(),
        cluster.total_gpus()
    );

    for processor in ProcessorKind::ALL {
        let config = RunConfig::new(cluster.clone(), processor).with_telemetry();
        let report = run(&workflow, &config).expect("run succeeds");
        let ps = report
            .metrics
            .task_type("partial_sum")
            .expect("partial_sum executed");
        println!("--- {} run ---", processor.label());
        println!("makespan:            {:>8.3} s", report.makespan());
        println!("partial_sum user code: {:>6.4} s/task", ps.user_code);
        println!("  serial fraction:     {:>6.4} s", ps.serial);
        println!("  parallel fraction:   {:>6.4} s", ps.parallel);
        println!("  CPU-GPU comm:        {:>6.4} s", ps.comm);
        println!(
            "deser per core:      {:>8.4} s",
            report.metrics.deser_per_core
        );
        println!(
            "CPU utilization:     {:>8.1} %",
            report.metrics.cpu_utilization * 100.0
        );
        println!(
            "GPU kernel util:     {:>8.1} %",
            report.metrics.gpu_utilization * 100.0
        );
        println!(
            "cache hits/misses:   {:>5} / {}",
            report.metrics.cache_hits, report.metrics.cache_misses
        );
        println!("\nfirst tasks (d=deser s=serial #=parallel ~=comm w=ser):");
        let trace = Trace::from_telemetry(&report.telemetry);
        println!("{}", trace.to_ascii_gantt(72, 6));
    }
}
