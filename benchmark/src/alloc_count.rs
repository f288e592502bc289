//! The benchmark binary's counting global allocator. Counters are per
//! thread, so on the smp conduit (rank = thread) a rank's allocations are
//! attributed to it; the target side of an op is read on the target thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // const-initialised, no destructor: safe to touch from inside the
    // allocator at any point of a thread's life.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

/// Counts every allocation (and reallocation) of the calling thread, then
/// defers to the system allocator.
pub struct Counting;

#[inline]
fn note(size: usize) {
    let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
    let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition is
// bumping two thread-local integers that own no heap memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `(allocations, bytes requested)` by the calling thread so far.
pub fn snapshot() -> (u64, u64) {
    (ALLOCS.with(Cell::get), BYTES.with(Cell::get))
}

/// An exact per-op count measured over two consecutive windows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PerOp {
    /// Allocations per op (first window).
    pub allocs: f64,
    /// Bytes requested per op (first window).
    pub bytes: f64,
    /// Whether the second window agreed exactly; if not the metric is
    /// flagged `inexact` in the output.
    pub exact: bool,
}

/// Run `window(ops)` twice on the calling thread and report allocations and
/// bytes per op, flagged exact only if both windows agree to the last count.
pub fn per_op(ops: u64, mut window: impl FnMut(u64)) -> PerOp {
    let mut measure = || {
        let (a0, b0) = snapshot();
        window(ops);
        let (a1, b1) = snapshot();
        (a1 - a0, b1 - b0)
    };
    let first = measure();
    let second = measure();
    PerOp {
        allocs: first.0 as f64 / ops as f64,
        bytes: first.1 as f64 / ops as f64,
        exact: first == second,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_exactly() {
        let r = per_op(100, |n| {
            for i in 0..n {
                std::hint::black_box(vec![0u8; 32 + (i % 2) as usize * 32]);
            }
        });
        assert_eq!(r.allocs, 1.0);
        assert_eq!(r.bytes, 48.0);
        assert!(r.exact);
    }

    #[test]
    fn disagreeing_windows_are_flagged() {
        let mut call = 0;
        let r = per_op(10, |n| {
            call += 1;
            for _ in 0..n * call {
                std::hint::black_box(Box::new(0u64));
            }
        });
        assert!(!r.exact);
    }

    #[test]
    fn other_threads_do_not_leak_in() {
        let before = snapshot();
        std::thread::spawn(|| {
            std::hint::black_box(vec![1u8; 4096]);
        })
        .join()
        .unwrap();
        // Spawning allocates on *this* thread; the 4096-byte buffer does not.
        let after = snapshot();
        assert!(
            after.1 - before.1 < 4096,
            "child allocation attributed to parent"
        );
    }
}
