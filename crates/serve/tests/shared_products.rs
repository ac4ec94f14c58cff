//! One copy of each product: the published read model is the writer
//! store's own visible-products map, each category and each product
//! shared by `Arc`, and a commit copies only the categories it touches.

mod common;

use std::sync::Arc;

use common::{fixture, spec_provider};
use pse_serve::ShardedStore;

#[test]
fn a_published_product_is_the_stores_own_copy() {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 4);
    // Two batches, so the second publish carries some entries forward and
    // rebuilds others from re-fused clusters.
    let (first, rest) = f.corpus.split_at(f.corpus.len() / 2);
    store.ingest(&f.world.catalog, first, &spec_provider());
    store.ingest(&f.world.catalog, rest, &spec_provider());
    // A clone of the writer store shares its products' `Arc`s.
    let writer = store.to_store();
    let snapshot = store.snapshot();
    let mut shared = 0;
    for (key, entry) in snapshot.shards.categories.values().flat_map(|c| c.iter()) {
        let held = writer.product_for(key).expect("every published product is held");
        assert!(Arc::ptr_eq(&entry.product, held), "{key:?} was copied");
        shared += 1;
    }
    assert!(shared > 0);
    assert_eq!(shared, writer.products_keyed().count());
}

/// Every category the snapshot publishes is the writer store's own
/// category map, shared by `Arc`, not a copy of it.
fn assert_snapshot_shares_the_stores_map(store: &ShardedStore) {
    let writer = store.to_store();
    let snapshot = store.snapshot();
    let (held, published) = (&writer.visible().categories, &snapshot.shards.categories);
    assert_eq!(held.keys().collect::<Vec<_>>(), published.keys().collect::<Vec<_>>());
    for (category, clusters) in published {
        assert!(Arc::ptr_eq(clusters, &held[category]), "{category:?} was copied");
    }
}

#[test]
fn a_commit_copies_only_the_category_it_touches() {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 4);
    // Hold back one offer that lands in a visible product.
    let mut reference = pse_store::ProductStore::new(f.correspondences.clone());
    reference.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    let last = reference.products().into_iter().find_map(|p| p.offers.last().copied());
    let held_back = last.expect("a visible product");
    let (rest, late): (Vec<_>, Vec<_>) = f.corpus.iter().cloned().partition(|o| o.id != held_back);
    store.ingest(&f.world.catalog, &rest, &spec_provider());
    assert_snapshot_shares_the_stores_map(&store);

    let before = store.snapshot();
    store.ingest(&f.world.catalog, &late, &spec_provider());
    let after = store.snapshot();
    assert_snapshot_shares_the_stores_map(&store);
    let touched = late[0].category.expect("a routed offer has a category");
    assert!(!Arc::ptr_eq(&before.shards.categories[&touched], &after.shards.categories[&touched]));
    for (category, clusters) in &after.shards.categories {
        if *category != touched {
            let same = Arc::ptr_eq(clusters, &before.shards.categories[category]);
            assert!(same, "{category:?} was copied by a commit to {touched:?}");
        }
    }
}

#[test]
fn a_retract_that_empties_a_category_removes_it_from_both_maps() {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 4);
    store.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    let snapshot = store.snapshot();
    let (&category, clusters) = snapshot.shards.categories.iter().next().expect("a category");
    let ids: Vec<_> = clusters.values().flat_map(|e| e.product.offers.iter().copied()).collect();
    store.retract(&f.world.catalog, &ids);
    assert!(!store.snapshot().shards.categories.contains_key(&category));
    assert!(!store.to_store().visible().categories.contains_key(&category));
    assert_eq!(&store.products_response(category)[..], b"[]");
    assert_snapshot_shares_the_stores_map(&store);
}
