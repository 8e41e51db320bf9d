//! The one counting global allocator of the workspace's allocation tests.
//! A test file includes it as a module, for example
//!
//! ```text
//! #[path = "../../../tests/support/counting_alloc.rs"]
//! mod counting_alloc;
//! ```
//!
//! and it becomes that test binary's `#[global_allocator]`. Every call
//! goes to the system allocator unchanged; beside it the allocator keeps
//!
//! * per thread: its allocations (each `alloc` and each `realloc`), the
//!   bytes of the blocks it handed to `realloc` (what its growing
//!   containers re-copied), its live bytes (allocated and not yet freed)
//!   and the largest single block it asked for;
//! * per process: allocations and bytes allocated (a `realloc` counting
//!   its new size), on every thread that has not called
//!   [`suppress_here`].
//!
//! A test reads the counts of its scope: its own thread's, untouched by
//! whatever other threads of the binary do, or the whole process's.
//! Nothing here allocates, and a thread being torn down still counts.

// Each test file uses its own subset.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

/// What one thread has done with the allocator.
struct Tally {
    allocs: Cell<u64>,
    reallocated: Cell<u64>,
    live: Cell<i64>,
    peak: Cell<usize>,
    /// Left out of the process-wide counts ([`suppress_here`]).
    suppressed: Cell<bool>,
}

thread_local! {
    static THREAD: Tally = const {
        Tally {
            allocs: Cell::new(0),
            reallocated: Cell::new(0),
            live: Cell::new(0),
            peak: Cell::new(0),
            suppressed: Cell::new(false),
        }
    };
}

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// Count one allocation of `size` bytes that grows the live set by
/// `grown` and, for a `realloc`, re-copies `old` bytes.
fn count(size: usize, grown: i64, old: usize) {
    let suppressed = THREAD
        .try_with(|t| {
            t.allocs.set(t.allocs.get() + 1);
            t.reallocated.set(t.reallocated.get() + old as u64);
            t.live.set(t.live.get() + grown);
            t.peak.set(t.peak.get().max(size));
            t.suppressed.get()
        })
        .unwrap_or(false);
    if !suppressed {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(size as u64, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// counters are thread-local `Cell`s and atomics, which allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size(), layout.size() as i64, 0);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = THREAD.try_with(|t| t.live.set(t.live.get() - layout.size() as i64));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let grown = new_size as i64 - layout.size() as i64;
        count(new_size, grown, layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations the calling thread makes while `f` runs.
pub fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = THREAD.with(|t| t.allocs.get());
    f();
    THREAD.with(|t| t.allocs.get()) - before
}

/// Bytes of the blocks the calling thread reallocates while `f` runs.
pub fn reallocated_during(f: impl FnOnce()) -> u64 {
    let before = THREAD.with(|t| t.reallocated.get());
    f();
    THREAD.with(|t| t.reallocated.get()) - before
}

/// Bytes the calling thread has allocated and not freed since it started.
/// Freeing a block another thread allocated makes this smaller.
pub fn live_bytes() -> i64 {
    THREAD.with(|t| t.live.get())
}

/// Forget the largest block the calling thread has asked for so far.
pub fn reset_peak() {
    THREAD.with(|t| t.peak.set(0));
}

/// The largest single block the calling thread has asked for since its
/// last [`reset_peak`].
pub fn peak() -> usize {
    THREAD.with(|t| t.peak.get())
}

/// Leave the calling thread out of the process-wide counts from now on.
pub fn suppress_here() {
    THREAD.with(|t| t.suppressed.set(true));
}

/// Allocations made so far by every thread not suppressed.
pub fn allocations() -> u64 {
    ALLOCS.load(Ordering::SeqCst)
}

/// Bytes allocated so far by every thread not suppressed.
pub fn bytes_allocated() -> u64 {
    BYTES.load(Ordering::SeqCst)
}
