//! A counting global allocator.
//!
//! Every allocation bumps a per-thread counter (a plain add, no shared
//! cache line), which gives the single-threaded replay exact per-call
//! allocation counts. The process-wide counter costs a contended atomic
//! per allocation, so it only runs while a traced live phase has turned
//! it on; end-to-end runs never pay for it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

static PROCESS_ON: AtomicBool = AtomicBool::new(false);
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);

#[inline]
fn note() {
    // `try_with`: the allocator also runs while a thread is torn down.
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
    // Relaxed: both values are statistics and publish no other data.
    if PROCESS_ON.load(Ordering::Relaxed) {
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
    }
}

pub struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches no
// allocator state and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's layout contract passes through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by `System` through this allocator
        // for the same layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's layout contract passes through unchanged.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` describe a live `System` block and the
        // caller guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(Cell::get)
}

/// Turns process-wide counting on or off.
pub fn count_process(on: bool) {
    PROCESS_ON.store(on, Ordering::Relaxed);
}

/// Allocations made by every thread while process-wide counting was on.
pub fn process_allocs() -> u64 {
    PROCESS_ALLOCS.load(Ordering::Relaxed)
}
