//! Pins the heap the Fig. 11 correlation study holds.
//!
//! A counting global allocator records live bytes and their peak. This
//! file holds one test, so no other test's allocations are counted. The
//! study lists its inventory as descriptions and builds each distinct
//! DAG only when its runs are due, so on one worker thread it holds one
//! DAG and one run at a time instead of every DAG of the inventory.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use gpuflow_experiments::{fig11, Context};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call forwards to `System` with the caller's layout; the
// counters only observe sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size(), Relaxed);
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn the_quick_study_on_one_thread_peaks_at_8_mb_of_live_heap() {
    let ctx = Context::default().with_threads(1);

    let before = LIVE.load(Relaxed);
    PEAK.store(before, Relaxed);
    let fig = fig11::run_quick(&ctx);
    let peak = PEAK.load(Relaxed) - before;

    assert_eq!(fig.table.rows() + fig.dropped_oom, 48);
    let mb = peak as f64 / 1e6;
    eprintln!("fig11::run_quick: {mb:.1} MB peak live heap");
    assert!(mb <= 8.0, "peak live heap {mb:.1} MB exceeds 8 MB");
}
