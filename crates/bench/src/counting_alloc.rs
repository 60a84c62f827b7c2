//! A counting global allocator for the zero-allocation claims.
//!
//! The arena workspaces promise that steady-state batches perform no heap
//! allocation once the slabs are warm. Benchmarks can't prove a negative
//! from timings alone, so the bench binary installs this wrapper around the
//! system allocator and reports the allocation-count delta across a warmed
//! hot-path run (`steady_allocs` in `BENCH_wallclock.json`).
//!
//! Counts are kept per thread, so a region measured on one thread is not
//! disturbed by other threads allocating concurrently (the test harness
//! runs tests in parallel). A region that hands work to pool workers must
//! show it dispatched nothing (`rayon::local_pool_stats`) for its count to
//! cover everything it did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// Count one allocation entry point on the calling thread. `try_with`:
/// the allocator can run while the thread's locals are being torn down.
fn count() {
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

/// [`System`] plus a per-thread counter of allocation entry points
/// (`alloc`, `alloc_zeroed`, `realloc`). Frees are not counted: the claim
/// under test is "no new memory requested per batch".
pub struct CountingAlloc;

// SAFETY: defers entirely to `System`; the counter has no effect on the
// returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocation calls made by the calling thread so far. Subtract two
/// readings to count the thread's allocations across a region.
pub fn alloc_count() -> u64 {
    ALLOC_CALLS.try_with(Cell::get).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_observes_allocation() {
        let before = alloc_count();
        let v: Vec<u64> = Vec::with_capacity(1024);
        assert!(alloc_count() > before);
        drop(v);
    }

    #[test]
    fn capacity_reuse_is_free() {
        let mut v: Vec<u64> = Vec::with_capacity(64);
        let before = alloc_count();
        for i in 0..64 {
            v.push(i);
        }
        v.clear();
        for i in 0..64 {
            v.push(i);
        }
        assert_eq!(
            alloc_count(),
            before,
            "pushes within capacity never allocate"
        );
    }
}
