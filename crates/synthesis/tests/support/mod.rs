//! A counting global allocator (std only) for the budget tests: each
//! test binary that includes this module with `mod support;` counts its
//! own heap traffic. The counters are process-wide, so a binary keeps
//! one test function.

// Each budget test reads a different subset of the counters.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static LIVE_BLOCKS: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its caller's pointer, layout and size to
// `System` unchanged and returns what `System` returned, so `System`'s
// contract is exactly the caller's; the counters are statistics only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            LIVE_BLOCKS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            LIVE_BLOCKS.fetch_add(1, Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
            match new_size.checked_sub(layout.size()) {
                Some(more) => grew(more),
                None => _ = LIVE.fetch_sub(layout.size() - new_size, Relaxed),
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BLOCKS.fetch_sub(1, Relaxed);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made and peak live bytes above the starting level while
/// `f` runs, beside its result.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let allocations = ALLOCATIONS.load(Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Relaxed) - allocations, PEAK.load(Relaxed) - start)
}

/// Live bytes and live heap blocks that `f` leaves behind, beside its
/// result (which holds them): what `f` built, transients excluded.
pub fn held<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (bytes, blocks) = (LIVE.load(Relaxed), LIVE_BLOCKS.load(Relaxed));
    let out = f();
    (out, LIVE.load(Relaxed) - bytes, LIVE_BLOCKS.load(Relaxed) - blocks)
}
