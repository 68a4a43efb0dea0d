//! Pins the heap one `run()` holds per simulated task.
//!
//! A counting global allocator records live bytes, their peak and the
//! number of allocations. This file holds one test, so no other test's
//! allocations are counted. The DAG and config are those of the
//! `repro perf` stress suite (`gpuflow_experiments::stress`): a 10⁴-task
//! stencil of 1000-cell rows on 32 Minotauro-style CPU nodes, shared
//! disk, generation order, no jitter, telemetry off.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use gpuflow_cluster::{ClusterSpec, ProcessorKind};
use gpuflow_runtime::{run, JobShape, RunConfig, SchedulingPolicy, WorkflowBuilder};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_stencil_run_holds_at_most_450_bytes_and_half_an_allocation_per_task() {
    let mut b = WorkflowBuilder::new();
    JobShape::Stencil.stamp(&mut b, 10_000, 1000, "", "st", "st");
    let wf = b.build();
    let mut spec = ClusterSpec::minotauro();
    spec.nodes = 32;
    let mut cfg =
        RunConfig::new(spec, ProcessorKind::Cpu).with_policy(SchedulingPolicy::GenerationOrder);
    cfg.jitter_sigma = 0.0;

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let allocs_before = ALLOCS.load(Relaxed);
    let report = run(&wf, &cfg).expect("the stencil completes");
    let peak = PEAK.load(Relaxed) - before;
    let allocs = ALLOCS.load(Relaxed) - allocs_before;

    let tasks = wf.tasks().len();
    assert_eq!(report.records.len(), tasks);
    let bytes_per_task = peak as f64 / tasks as f64;
    let allocs_per_task = allocs as f64 / tasks as f64;
    eprintln!(
        "run(): {bytes_per_task:.1} B/task peak live heap, {allocs_per_task:.3} allocations/task"
    );
    assert!(
        bytes_per_task <= 450.0,
        "peak live heap {bytes_per_task:.1} B/task exceeds 450"
    );
    assert!(
        allocs_per_task <= 0.5,
        "{allocs_per_task:.3} allocations/task exceed 0.5"
    );
}
