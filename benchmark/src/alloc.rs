//! A counting global allocator, so the traced run can report what a layer
//! allocates (bytes cloned per certification, certifier state held at the
//! end) without any hook inside the program. Counting is per thread and off
//! outside the replays: an untraced run pays one thread-local read per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// `(allocated, freed)` bytes while this thread counts, else `None`.
    /// Const-initialized and without a destructor, so the allocator may
    /// touch it at any point of a thread's life.
    static COUNTED: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
}

fn note(allocated: usize, freed: usize) {
    // `try_with`: never panic inside the allocator.
    let _ = COUNTED.try_with(|c| {
        if let Some((a, f)) = c.get() {
            c.set(Some((a + allocated as u64, f + freed as u64)));
        }
    });
}

pub struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters never touch
// the returned memory and do not allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(0, layout.size());
        // SAFETY: `ptr` came from this allocator with this `layout`, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // `alloc_zeroed` and `realloc` are forwarded too: the trait's defaults
    // (alloc + memset, alloc + copy + dealloc) would make the measured
    // program slower than it is under the system allocator.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size(), 0);
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size, layout.size());
        // SAFETY: `ptr` came from this allocator with this `layout`, i.e. from
        // `System`, and the caller upholds `realloc`'s contract for `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Runs `f` and returns with it the bytes this thread allocated and freed
/// meanwhile.
pub fn counted<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    COUNTED.set(Some((0, 0)));
    let out = f();
    let (allocated, freed) = COUNTED.replace(None).unwrap_or((0, 0));
    (out, allocated, freed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_only_inside_counted_and_only_this_thread() {
        let (kept, allocated, freed) = counted(|| {
            drop(std::hint::black_box(vec![0u8; 1000]));
            std::hint::black_box(vec![0u8; 4096])
        });
        assert!(allocated >= 5096 && freed >= 1000 && allocated - freed >= 4096);
        drop(kept);
        let (_, allocated, _) = counted(|| {
            std::thread::spawn(|| drop(std::hint::black_box(vec![0u8; 1 << 20])))
                .join()
                .unwrap()
        });
        assert!(allocated < 1 << 20);
    }
}
