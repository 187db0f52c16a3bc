//! Counting global allocator for allocation-tracking benchmarks.
//!
//! [`CountingAlloc`] wraps the system allocator and bumps a thread-local
//! counter on every `alloc`/`realloc`/`alloc_zeroed`. It is installed only
//! in harness binaries — the `repro` bench driver and the `alloc_free`
//! integration test put it in *their* binaries via `#[global_allocator]` —
//! so no library consumer ever pays for it; library code merely reads the
//! counter through [`thread_allocs`], which reports monotonically-zero
//! deltas when the plain system allocator is in charge.
//!
//! The counter is thread-local on purpose: the kernels under test measure
//! their zero-allocation claim at one effective thread (per-call scoped
//! workers would each need their own ledger, and their spawns themselves
//! allocate), and a process-global atomic would let an unrelated thread
//! pollute the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialized Cell: no lazy-init allocation and no destructor
    // registration, both of which would recurse into the allocator
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// A `#[global_allocator]` that counts allocation events per thread.
///
/// Deallocations are intentionally not counted: the benchmarks gate on
/// "the warm path requests no new memory", and frees of warm-up-era
/// buffers would only blur that signal.
pub struct CountingAlloc;

impl CountingAlloc {
    #[inline]
    fn bump() {
        ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation events recorded on the calling thread since it started (0
/// forever when [`CountingAlloc`] is not the process allocator).
pub fn thread_allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Allocation events `f` performs on the calling thread.
pub fn count_allocs(f: impl FnOnce()) -> u64 {
    let before = thread_allocs();
    f();
    thread_allocs() - before
}

/// Whether [`CountingAlloc`] is actually installed in this process, probed
/// by performing one heap allocation and checking that the counter moved.
/// Lets shared code (the bench suites run both under `repro`,
/// where the allocator is installed, and under `cargo test`, where it is
/// not) report `None` instead of a bogus zero.
pub fn counting_allocator_active() -> bool {
    count_allocs(|| {
        std::hint::black_box(Box::new(0u64));
    }) > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_allocs_is_zero_for_allocation_free_work() {
        // whether or not the counting allocator is installed, code that
        // never touches the heap must count zero
        let mut acc = 0.0f64;
        let n = count_allocs(|| {
            for i in 0..1000 {
                acc += (i as f64).sqrt();
            }
        });
        std::hint::black_box(acc);
        assert_eq!(n, 0);
    }

    #[test]
    fn active_probe_is_consistent() {
        // in the library test binary the system allocator is in charge, so
        // the probe and a direct count must agree with each other
        let active = counting_allocator_active();
        let counted = count_allocs(|| {
            std::hint::black_box(vec![1u8; 128]);
        }) > 0;
        assert_eq!(active, counted);
    }
}
