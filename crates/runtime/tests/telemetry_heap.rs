//! Pins what recording the telemetry log allocates.
//!
//! A counting global allocator counts allocations (reallocations
//! included). This file holds one test, so no other test's allocations
//! are counted. It runs the 10⁴-task stencil of the `repro perf` stress
//! suite (`gpuflow_experiments::stress`: 1000-cell rows on 32
//! Minotauro-style CPU nodes, shared disk, generation order, no jitter)
//! with telemetry off, then on. The events and every decision's scored
//! candidates go into two growing vectors of the log, so the extra
//! allocations with telemetry on are a constant plus the vectors'
//! doublings, O(log events), and none is made per decision.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use gpuflow_cluster::{ClusterSpec, ProcessorKind};
use gpuflow_runtime::{run, JobShape, RunConfig, RunReport, SchedulingPolicy, WorkflowBuilder};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's layout; the
// counter only observes calls.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `cfg` and returns the report with the allocations it made.
fn counted(wf: &gpuflow_runtime::Workflow, cfg: &RunConfig) -> (RunReport, usize) {
    let before = ALLOCS.load(Relaxed);
    let report = run(wf, cfg).expect("the stencil completes");
    (report, ALLOCS.load(Relaxed) - before)
}

#[test]
fn recording_telemetry_allocates_nothing_per_decision() {
    let mut b = WorkflowBuilder::new();
    JobShape::Stencil.stamp(&mut b, 10_000, 1000, "", "st", "st");
    let wf = b.build();
    let mut spec = ClusterSpec::minotauro();
    spec.nodes = 32;
    let mut cfg =
        RunConfig::new(spec, ProcessorKind::Cpu).with_policy(SchedulingPolicy::GenerationOrder);
    cfg.jitter_sigma = 0.0;

    let (_, off) = counted(&wf, &cfg);
    let (report, on) = counted(&wf, &cfg.clone().with_telemetry());

    let log = &report.telemetry;
    let decisions = log
        .summary_counts()
        .into_iter()
        .find(|(kind, _)| *kind == "decision")
        .map_or(0, |(_, n)| n);
    assert!(decisions >= wf.tasks().len(), "every task is placed");
    let extra = on.saturating_sub(off);
    let log_events = (log.len() as f64).log2().ceil() as usize;
    let bound = 64 + 4 * log_events;
    eprintln!(
        "telemetry on: {extra} extra allocations for {} events and {decisions} decisions \
         (bound {bound})",
        log.len()
    );
    assert!(
        extra <= bound,
        "{extra} extra allocations with telemetry on exceed 64 + 4 log2(events) = {bound} \
         ({decisions} decisions)"
    );
}
