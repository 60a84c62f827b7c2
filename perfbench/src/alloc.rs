//! Heap-allocation counter for the per-call `allocs` metrics.
//!
//! One process-wide counter of allocation entry points (`alloc`,
//! `alloc_zeroed`, `realloc`); frees are not counted. Process-wide is what
//! makes pool-worker allocations count: a parallel call issued by the
//! driving thread runs some of its chunks on rayon workers. It is exact
//! only because the benchmark runs nothing concurrently with a counted
//! call: there is one driving thread, and the pool's workers only execute
//! chunks of the call that thread is inside. (The unit tests of this crate
//! run on parallel threads, so they never assert exact counts.)

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: every method defers to `System` with the caller's arguments; the
// counter never touches the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made by the process so far.
pub fn count() -> u64 {
    ALLOC_CALLS.load(Ordering::Relaxed)
}
