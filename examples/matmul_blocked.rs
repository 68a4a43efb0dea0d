//! Blocked matrix multiplication: task-granularity sweep.
//!
//! Walks the paper's Matmul 8 GB grid sweep (Fig. 7a / Fig. 8): fine
//! blocks maximise task parallelism but starve GPU occupancy; coarse
//! blocks saturate the device until the 3-blocks-per-task footprint
//! overflows its 12 GB memory. Also validates the blocked algorithm
//! against a dense product at a small scale first.
//!
//! ```sh
//! cargo run --release --example matmul_blocked
//! ```

use gpuflow::algorithms::{reference_blocked_matmul, MatmulConfig};
use gpuflow::analysis::signed_speedup;
use gpuflow::cluster::StorageArchitecture;
use gpuflow::data::{DatasetSpec, DsArray, GridDim};
use gpuflow::experiments::Context;
use gpuflow::runtime::SchedulingPolicy;

fn main() {
    // Functional sanity check with real numbers at test scale.
    let da = DatasetSpec::uniform("a", 64, 64, 1);
    let db = DatasetSpec::uniform("b", 64, 64, 2);
    let (ma, mb) = (da.materialize().unwrap(), db.materialize().unwrap());
    let arr_a = DsArray::from_matrix(da, &ma, GridDim::square(4)).unwrap();
    let arr_b = DsArray::from_matrix(db, &mb, GridDim::square(4)).unwrap();
    let err = reference_blocked_matmul(&arr_a, &arr_b).max_abs_diff(&ma.matmul(&mb));
    println!("blocked vs dense product, max |diff| = {err:.2e}  (functional check)\n");

    // Performance sweep at paper scale (simulated).
    let ctx = Context::default();
    let ds = gpuflow::data::paper::matmul_8gb();
    println!("Matmul 8 GB on simulated Minotauro:");
    println!(
        "{:>18} {:>10} {:>12} {:>12} {:>10}",
        "block (grid)", "tasks", "CPU mkspan", "GPU mkspan", "speedup"
    );
    for grid in [16u64, 8, 4, 2, 1] {
        let cfg = MatmulConfig::new(ds.clone(), grid).unwrap();
        let (mm, add) = cfg.task_counts();
        let wf = cfg.build_workflow();
        let label = format!("{:.0}MiB ({}x{})", cfg.spec.block_mib(), grid, grid);
        let pair = ctx.pair(
            &wf,
            StorageArchitecture::SharedDisk,
            SchedulingPolicy::GenerationOrder,
        );
        let (cpu, gpu) = pair.map(|r| r.makespan());
        let speedup = match pair.both(|r| r.makespan()) {
            Some((c, g)) => format!("{:+.2}x", signed_speedup(c, g)),
            None => pair.note().unwrap_or_default().to_string(),
        };
        println!(
            "{label:>18} {:>10} {:>11.1}s {:>12} {:>10}",
            mm + add,
            cpu.unwrap_or(f64::NAN),
            gpu.map_or("-".to_string(), |g| format!("{g:.1}s")),
            speedup
        );
    }
    println!("\nNote the trade-off: 16x16 yields 7936 fine tasks (high task");
    println!("parallelism, low GPU occupancy); 1x1 yields a single 8 GiB-block");
    println!("task whose 3-block footprint (24 GiB) cannot fit a 12 GiB device.");
}
