//! The persistent store's observability contract: the spans and
//! counters one ingest / snapshot / retract sequence emits.
//!
//! `pse-obs` records into one process-global sink, so this test lives in
//! a file — hence a test binary and a process — of its own: a sibling
//! test ingesting concurrently would be counted into the same report.
//! Keep it the only test here.

use product_synthesis::core::Offer;
use product_synthesis::datagen::{World, WorldConfig};
use product_synthesis::store::ProductStore;
use product_synthesis::synthesis::{ExtractingProvider, OfflineLearner};

#[test]
fn store_emits_observability() {
    // The "Table-2" corpus: offers that match no historical product.
    let world = World::generate(WorldConfig::tiny());
    let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let corpus: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();

    pse_obs::set_enabled(true);
    pse_obs::reset();
    let mut store = ProductStore::new(offline.correspondences);
    let mid = corpus.len() / 2;
    store.ingest(&world.catalog, &corpus[..mid], &provider);
    let store2 = ProductStore::restore_json(&store.snapshot_json()).unwrap();
    drop(store2);
    store.ingest(&world.catalog, &corpus[mid..], &provider);
    // Retract an offer that certainly routed to a cluster.
    let retractable = store.products()[0].offers[0];
    store.retract(&world.catalog, &[retractable]);
    let report = pse_obs::report();
    pse_obs::set_enabled(false);
    pse_obs::reset();

    assert_eq!(report.validate(), Ok(()));
    for span in ["store.ingest", "store.ingest.store.refuse", "store.snapshot", "store.retract"] {
        assert!(report.span(span).is_some(), "missing span {span}");
    }
    assert_eq!(report.counter("store.ingest"), Some(corpus.len() as u64));
    assert!(report.counter("store.clusters_dirty").unwrap_or(0) > 0);
    assert!(report.counter("store.refused").unwrap_or(0) > 0);
    assert_eq!(report.counter("store.snapshot"), Some(1));
    assert_eq!(report.counter("store.retracted"), Some(1));
}
