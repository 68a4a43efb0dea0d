//! Storage architecture × scheduling policy (Fig. 10).
//!
//! Runs iterative K-means under the four {local, shared} × {generation
//! order, data locality} configurations and shows the coupling the paper
//! reports: on local disks the policy barely matters (O5), on the shared
//! file system locality-aware placement converts expensive GPFS re-reads
//! into cache hits (O6).
//!
//! ```sh
//! cargo run --release --example storage_scheduling
//! ```

use gpuflow::algorithms::KmeansConfig;
use gpuflow::cluster::{ProcessorKind, StorageArchitecture};
use gpuflow::experiments::Context;
use gpuflow::runtime::SchedulingPolicy;

fn main() {
    let ctx = Context::default();
    let wf = KmeansConfig::new(gpuflow::data::paper::kmeans_10gb(), 64, 10, 5)
        .expect("valid partitioning")
        .build_workflow();

    println!("K-means 10 GB, 64 blocks, 5 iterations, CPU run:\n");
    println!(
        "{:>12} {:>17} {:>10} {:>12} {:>12}",
        "storage", "policy", "makespan", "cache hits", "sched ovh"
    );
    let mut results = Vec::new();
    for storage in StorageArchitecture::ALL {
        for policy in SchedulingPolicy::ALL {
            let outcome = ctx.run(&wf, ProcessorKind::Cpu, storage, policy);
            let report = outcome.report().expect("fits");
            println!(
                "{:>12} {:>17} {:>9.2}s {:>12} {:>11.2}s",
                storage.label(),
                policy.label(),
                report.makespan(),
                report.metrics.cache_hits,
                report.metrics.sched_overhead,
            );
            results.push((storage, policy, report.makespan()));
        }
    }

    let gap = |s: StorageArchitecture| {
        let times: Vec<f64> = results
            .iter()
            .filter(|(st, _, _)| *st == s)
            .map(|(_, _, t)| *t)
            .collect();
        (times[0] - times[1]).abs() / times[0].max(times[1]) * 100.0
    };
    println!(
        "\npolicy sensitivity: local disk {:.1}% vs shared disk {:.1}%",
        gap(StorageArchitecture::LocalDisk),
        gap(StorageArchitecture::SharedDisk)
    );
    println!("(O5: local disks hide placement mistakes — re-reads are cheap;");
    println!(" O6: on the shared file system placement decides whether warm");
    println!(" iterations re-read blocks over the network or hit node caches.)");
}
