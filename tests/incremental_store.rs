//! Batch-equivalence of the incremental product store (ISSUE 3 tentpole):
//! ingesting any partition of an offer stream, in any batch sizes, with a
//! snapshot/restore cycle anywhere in between, yields byte-identical
//! products to one `RuntimePipeline::process` call over the concatenation
//! — at 1 and at 4 worker threads.
//!
//! The corpus is the same "Table-2" set the experiment drivers use: the
//! offers of a generated world that match no historical product.

use std::collections::HashMap;
use std::sync::OnceLock;

use product_synthesis::core::{CorrespondenceSet, Offer, OfferId, Spec};
use product_synthesis::datagen::{World, WorldConfig};
use product_synthesis::store::ProductStore;
use product_synthesis::synthesis::{
    ExtractingProvider, FnProvider, FusionStrategy, OfflineLearner, RuntimeConfig, RuntimePipeline,
    SpecProvider,
};
use proptest::prelude::*;

/// World + learned correspondences + unmatched corpus, built once. Specs
/// are pre-extracted so every test sees the same pure provider without
/// re-parsing landing pages per proptest case.
struct Fixture {
    world: World,
    correspondences: CorrespondenceSet,
    corpus: Vec<Offer>,
    specs: HashMap<u64, Spec>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let world = World::generate(WorldConfig::tiny());
        let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
        let offline = OfflineLearner::new().learn(
            &world.catalog,
            &world.offers,
            &world.historical,
            &provider,
        );
        let corpus: Vec<Offer> = world
            .offers
            .iter()
            .filter(|o| world.historical.product_of(o.id).is_none())
            .cloned()
            .collect();
        assert!(corpus.len() >= 20, "tiny world must leave a usable unmatched corpus");
        let specs = corpus.iter().map(|o| (o.id.0, provider.spec(o))).collect();
        Fixture { world, correspondences: offline.correspondences, corpus, specs }
    })
}

fn provider(f: &Fixture) -> FnProvider<impl Fn(&Offer) -> Spec + Sync + '_> {
    FnProvider(move |o: &Offer| f.specs[&o.id.0].clone())
}

fn products_json(products: &[product_synthesis::synthesis::SynthesizedProduct]) -> String {
    serde_json::to_string_pretty(&products.to_vec()).expect("products serialize")
}

/// One-shot batch pipeline over the whole corpus, with a given config.
fn one_shot(f: &Fixture, config: RuntimeConfig) -> String {
    let pipeline = RuntimePipeline::with_config(f.correspondences.clone(), config);
    let result = pipeline.process(&f.world.catalog, &f.corpus, &provider(f));
    assert!(!result.products.is_empty());
    products_json(&result.products)
}

/// The default-config baseline, computed once.
fn baseline(f: &Fixture) -> &'static str {
    static BASELINE: OnceLock<String> = OnceLock::new();
    BASELINE.get_or_init(|| one_shot(f, RuntimeConfig::default()))
}

/// Ingest the corpus in the batches delimited by sorted `cuts`.
fn ingest_partition(f: &Fixture, store: &mut ProductStore, cuts: &[usize]) {
    let mut start = 0;
    for &cut in cuts {
        store.ingest(&f.world.catalog, &f.corpus[start..cut], &provider(f));
        start = cut;
    }
    store.ingest(&f.world.catalog, &f.corpus[start..], &provider(f));
}

proptest! {
    #[test]
    fn arbitrary_batch_partition_matches_one_shot(
        raw_cuts in prop::collection::vec(0usize..10_000, 0..6),
    ) {
        let f = fixture();
        let n = f.corpus.len();
        let mut cuts: Vec<usize> = raw_cuts.into_iter().map(|c| c % (n + 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        for threads in [1, 4] {
            let got = pse_par::with_threads(threads, || {
                let mut store = ProductStore::new(f.correspondences.clone());
                ingest_partition(f, &mut store, &cuts);
                products_json(&store.products())
            });
            prop_assert_eq!(&got, baseline(f), "partition {:?} at {} threads", cuts, threads);
        }
    }

    #[test]
    fn snapshot_restore_midstream_matches_one_shot(
        raw_cut in 0usize..10_000,
        raw_snap in 0usize..10_000,
    ) {
        let f = fixture();
        let n = f.corpus.len();
        // Two batches split at `cut`; snapshot/restore happens after batch
        // one, then again after batch two (`snap` picks which to compare).
        let cut = raw_cut % (n + 1);
        let verify_final_roundtrip = raw_snap % 2 == 0;
        let mut store = ProductStore::new(f.correspondences.clone());
        store.ingest(&f.world.catalog, &f.corpus[..cut], &provider(f));
        let mut store = ProductStore::restore_json(&store.snapshot_json())
            .expect("mid-stream snapshot restores");
        store.ingest(&f.world.catalog, &f.corpus[cut..], &provider(f));
        prop_assert_eq!(&products_json(&store.products()), baseline(f), "cut {}", cut);
        if verify_final_roundtrip {
            let snap = store.snapshot_json();
            let restored = ProductStore::restore_json(&snap).expect("final snapshot restores");
            prop_assert_eq!(restored.snapshot_json(), snap, "round-trip bytes");
        }
    }
}

#[test]
fn retraction_matches_never_ingested() {
    let f = fixture();
    let n = f.corpus.len();
    let (keep, extra) = f.corpus.split_at(n / 2);
    let mut reference = ProductStore::new(f.correspondences.clone());
    reference.ingest(&f.world.catalog, keep, &provider(f));

    let mut store = ProductStore::new(f.correspondences.clone());
    store.ingest(&f.world.catalog, &f.corpus, &provider(f));
    let ids: Vec<OfferId> = extra.iter().map(|o| o.id).collect();
    store.retract(&f.world.catalog, &ids);

    assert_eq!(
        products_json(&store.products()),
        products_json(&reference.products()),
        "retracting the second half must equal never ingesting it"
    );
}

#[test]
fn all_fusion_strategies_are_batch_equivalent_end_to_end() {
    // The non-default strategies were previously only unit-tested in
    // fusion.rs; drive each through the full pipeline and the store.
    let f = fixture();
    let mut distinct = Vec::new();
    for strategy in [
        FusionStrategy::CentroidVote,
        FusionStrategy::MajorityExact,
        FusionStrategy::LongestValue,
        FusionStrategy::FirstSeen,
    ] {
        let config = RuntimeConfig { fusion: strategy, ..RuntimeConfig::default() };
        let expected = one_shot(f, config.clone());
        let mut store = ProductStore::with_config(f.correspondences.clone(), config);
        ingest_partition(f, &mut store, &[f.corpus.len() / 3, 2 * f.corpus.len() / 3]);
        assert_eq!(products_json(&store.products()), expected, "{strategy:?}");
        distinct.push(expected);
    }
    distinct.dedup();
    assert!(distinct.len() > 1, "strategies must actually disagree somewhere on this corpus");
}
