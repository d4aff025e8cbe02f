//! A global allocator that counts, per thread, the allocations made while a
//! closure runs. Shared by the allocation tests (each includes this file by
//! path, so each test binary installs it once).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread while it counts, else `None`.
    /// Const-initialized and without a destructor, so the allocator may
    /// touch it at any point of a thread's life.
    static COUNTED: Cell<Option<u64>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: never panic inside the allocator.
    let _ = COUNTED.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter never touches
// the returned memory and does not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from this allocator with this `layout`, i.e. from
        // `System`, and the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns with it the allocations (a `realloc` is one) this
/// thread made meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNTED.set(Some(0));
    let out = f();
    (out, COUNTED.replace(None).unwrap_or(0))
}
