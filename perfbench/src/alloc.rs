//! A counting global allocator for this binary only. Disarmed it adds
//! one relaxed load per allocation; armed it counts allocations made
//! by client threads apart from all others, so the server's share of a
//! request can be read without the benchmark's own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

pub struct Counting;

static ARMED: AtomicBool = AtomicBool::new(false);
static CLIENT_ALLOCS: AtomicU64 = AtomicU64::new(0);
static OTHER_ALLOCS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    // Const-initialised and without a destructor, so reading it from
    // inside the allocator can neither allocate nor outlive the thread.
    static IS_CLIENT: Cell<bool> = const { Cell::new(false) };
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the bookkeeping only touches atomics and a
// const-initialised thread-local, neither of which allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract,
        // which is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` and `layout` come from this allocator, which
        // hands out `System` blocks unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[inline]
fn note() {
    if !ARMED.load(Ordering::Relaxed) {
        return;
    }
    let client = IS_CLIENT.try_with(Cell::get).unwrap_or(false);
    let counter = if client {
        &CLIENT_ALLOCS
    } else {
        &OTHER_ALLOCS
    };
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Start or stop counting.
pub fn arm(on: bool) {
    ARMED.store(on, Ordering::SeqCst);
}

/// Mark the calling thread as a benchmark client thread.
pub fn mark_client_thread() {
    IS_CLIENT.with(|c| c.set(true));
}

/// Allocations counted so far, `(client threads, all other threads)`.
pub fn counts() -> (u64, u64) {
    (
        CLIENT_ALLOCS.load(Ordering::SeqCst),
        OTHER_ALLOCS.load(Ordering::SeqCst),
    )
}
