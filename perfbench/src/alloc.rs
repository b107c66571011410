//! A counting global allocator: every allocation is counted process-wide
//! and on the allocating thread.
//!
//! The per-thread count is exact for a span that runs on one thread (two
//! runs of the same work on the same inputs read the same number); the
//! process-wide count also sees every worker thread, and other threads'
//! allocations that happen to overlap the span, so spans that fan out over
//! a pool report it labelled as process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

pub struct CountingAlloc;

static PROCESS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn count() {
    PROCESS.fetch_add(1, Ordering::Relaxed);
    // `try_with` fails only while the thread's locals are being torn down.
    let _ = THREAD.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; counting touches
// only an atomic and a const-initialised thread-local `Cell`, neither of
// which allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Allocations (including reallocations) made by the whole process so far.
pub fn process_allocs() -> u64 {
    PROCESS.load(Ordering::Relaxed)
}

/// Allocations (including reallocations) made by the calling thread so far.
pub fn thread_allocs() -> u64 {
    THREAD.with(|n| n.get())
}
