//! The fusion state's memory, asserted. `pse-store` keeps one
//! `ClusterFusionCache` per held cluster, so its bytes scale with the
//! catalog. On the offline-golden default world (3,000 offers), one cache
//! per cluster is advanced over its members, sharing one `FusionSchema`
//! per category as the store does, and the live heap those caches hold
//! is checked against per-cluster budgets. Then a single accumulator
//! takes 20,000 distinct surfaces, and separately 20,000 distinct terms,
//! to show a push stays linear past the small-state probe.
//!
//! The budgets are numbers in the test, edited on purpose with a
//! CHANGES.md line. One test function: the counters are process-wide.

mod support;

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use pse_core::Offer;
use pse_datagen::{World, WorldConfig};
use pse_synthesis::offline::bags::FeatureIndex;
use pse_synthesis::runtime::{advance_cluster_fusion, cluster_by_key, reconcile_batch};
use pse_synthesis::{
    ClusterFusionCache, FnProvider, FusionAccumulator, FusionSchema, FusionStrategy,
    OfflineLearner, RuntimeConfig,
};
use support::held;

/// Live heap bytes per cluster's cache. The layout before the compact
/// one (two `HashMap`s, `String`s and `usize` vectors per attribute,
/// schema names per cluster) held 10,241 B here; this one holds 2,696.
const BYTES_PER_CLUSTER: usize = 3_072;
/// Live heap blocks per cluster's cache (before: 146.8; now 32.1).
const BLOCKS_PER_CLUSTER: usize = 40;

#[test]
fn fusion_caches_fit_their_budget_and_pushes_stay_linear() {
    let world = World::generate(WorldConfig {
        num_offers: 3_000,
        num_merchants: 30,
        match_error_rate: 0.08,
        ..WorldConfig::default()
    });
    let provider = FnProvider(|o: &Offer| world.page_spec(o.id));
    let index =
        FeatureIndex::build_matched(&world.catalog, &world.offers, &world.historical, &provider);
    let learned = OfflineLearner::new().learn_from_index(&world.catalog, &index, 0);
    let config = RuntimeConfig::default();
    let reconciled = reconcile_batch(&world.offers, &learned.correspondences, &provider);
    let clusters = cluster_by_key(reconciled, &config.key_attributes);
    assert!(clusters.len() > 300, "world too small: {} clusters", clusters.len());

    let ((caches, schemas), bytes, blocks) = held(|| {
        let mut schemas = BTreeMap::new();
        let caches: Vec<ClusterFusionCache> = clusters
            .iter()
            .map(|c| {
                let schema = schemas.entry(c.category).or_insert_with(|| {
                    FusionSchema::resolve(&world.catalog, c.category, &config)
                        .expect("world categories are in its catalog")
                });
                let mut cache = ClusterFusionCache::new(Arc::clone(schema));
                assert!(advance_cluster_fusion(
                    &world.catalog,
                    c.category,
                    &c.members,
                    &config,
                    &mut cache
                ));
                cache
            })
            .collect();
        (caches, schemas)
    });
    let n = caches.len();
    println!(
        "{n} clusters in {} categories: {bytes} B in {blocks} blocks held ({:.0} B, {:.1} blocks \
         per cluster)",
        schemas.len(),
        bytes as f64 / n as f64,
        blocks as f64 / n as f64,
    );
    assert!(bytes <= BYTES_PER_CLUSTER * n, "{bytes} B held for {n} clusters");
    assert!(blocks <= BLOCKS_PER_CLUSTER * n, "{blocks} blocks held for {n} clusters");

    // 20,000 distinct surfaces of one term: case variants of one word.
    let started = Instant::now();
    let mut accum = FusionAccumulator::default();
    let surfaces: Vec<String> = (0..20_000u32)
        .map(|i| (0..16).map(|b| if i >> b & 1 == 1 { 'A' } else { 'a' }).collect())
        .collect();
    for s in &surfaces {
        accum.push(s);
    }
    let fused = accum.finish(FusionStrategy::CentroidVote).expect("pushed");
    let elapsed = started.elapsed();
    assert_eq!((accum.len(), fused.distance), (20_000, 0.0));
    assert_eq!(Some(&fused.value), surfaces.iter().min(), "ties break lexicographically");
    assert!(elapsed < Duration::from_secs(2), "20,000 surfaces took {elapsed:?}");

    // 20,000 distinct terms, in one value and then once more.
    let started = Instant::now();
    let mut accum = FusionAccumulator::default();
    let letters = |i: u32| (0..4).map(move |k| char::from(b'a' + (i / 26u32.pow(k) % 26) as u8));
    let value: String = (0..20_000).flat_map(|i| letters(i).chain([' '])).collect();
    accum.push(&value);
    accum.push(&value);
    let fused = accum.finish(FusionStrategy::CentroidVote).expect("pushed");
    let elapsed = started.elapsed();
    assert_eq!((fused.value.len(), fused.support, fused.distance), (value.len(), 2, 0.0));
    assert!(elapsed < Duration::from_secs(2), "20,000 terms took {elapsed:?}");
}
