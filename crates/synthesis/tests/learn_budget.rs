//! The offline learner's memory, asserted. A counting global allocator
//! (`support/`, std only) watches one `learn_from_index` call over
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

mod support;

use pse_core::Offer;
use pse_datagen::{World, WorldConfig};
use pse_synthesis::offline::bags::FeatureIndex;
use pse_synthesis::offline::features::NUM_FEATURES;
use pse_synthesis::{FnProvider, OfflineLearner, ScoredCandidate};
use support::measure;

/// Peak live bytes above the index, per scored candidate: the candidate
/// itself, its row of six features, and 24 B for everything else live at
/// the peak (category tables, group names, the model).
const PEAK_BYTES_PER_CANDIDATE: usize =
    size_of::<ScoredCandidate>() + size_of::<[f64; NUM_FEATURES]>() + 24;

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
