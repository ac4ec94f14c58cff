//! The offline learner's memory, asserted. A counting global allocator
//! (this binary's own; std only) watches one `learn_from_index` call over
//! a fixed world's pre-built feature index and checks two budgets:
//!
//! * fewer heap allocations (fresh blocks and reallocations) than the
//!   call scores candidates: no per-candidate allocation is left;
//! * peak live heap above what was live before the call (the world and
//!   its index) under [`PEAK_BYTES_PER_CANDIDATE`]: the candidate table is
//!   held once, beside one copy of the classifier inputs.
//!
//! The budgets are numbers in the test, edited on purpose with a
//! CHANGES.md line. One test function: the counters are process-wide.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

use pse_core::Offer;
use pse_datagen::{World, WorldConfig};
use pse_synthesis::offline::bags::FeatureIndex;
use pse_synthesis::offline::features::NUM_FEATURES;
use pse_synthesis::{FnProvider, OfflineLearner, ScoredCandidate};

/// Peak live bytes above the index, per scored candidate: the candidate
/// itself, its row of six features, and 24 B for everything else live at
/// the peak (category tables, group names, the model).
const PEAK_BYTES_PER_CANDIDATE: usize =
    size_of::<ScoredCandidate>() + size_of::<[f64; NUM_FEATURES]>() + 24;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static LIVE: AtomicUsize = AtomicUsize::new(0);
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
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            ALLOCATIONS.fetch_add(1, Relaxed);
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
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations made and peak live bytes above the starting level while
/// `f` runs, beside its result.
fn measure<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let start = LIVE.load(Relaxed);
    PEAK.store(start, Relaxed);
    let allocations = ALLOCATIONS.load(Relaxed);
    let out = f();
    (out, ALLOCATIONS.load(Relaxed) - allocations, PEAK.load(Relaxed) - start)
}

#[test]
fn learner_allocates_less_than_once_per_candidate_within_its_peak_budget() {
    let world = World::generate(WorldConfig {
        num_offers: 3_000,
        num_merchants: 30,
        match_error_rate: 0.08,
        ..WorldConfig::default()
    });
    let provider = FnProvider(|o: &Offer| world.page_spec(o.id));
    let index =
        FeatureIndex::build_matched(&world.catalog, &world.offers, &world.historical, &provider);
    let learner = OfflineLearner::new();
    for threads in [1, 4] {
        let (outcome, allocations, peak) = pse_par::with_threads(threads, || {
            measure(|| learner.learn_from_index(&world.catalog, &index, 0))
        });
        let candidates = outcome.stats.candidates;
        assert!(candidates > 20_000, "world too small: {candidates} candidates");
        assert!(outcome.model.is_some(), "the world must train a classifier");
        println!(
            "{threads} threads: {candidates} candidates, {allocations} allocations ({:.3} per \
             candidate), peak {peak} B above the index ({:.1} B per candidate)",
            allocations as f64 / candidates as f64,
            peak as f64 / candidates as f64,
        );
        assert!(
            allocations < candidates,
            "{threads} threads: {allocations} allocations for {candidates} candidates"
        );
        assert!(
            peak <= PEAK_BYTES_PER_CANDIDATE * candidates,
            "{threads} threads: peak {peak} B above the index for {candidates} candidates \
             (budget {PEAK_BYTES_PER_CANDIDATE} B each)"
        );
    }
}
