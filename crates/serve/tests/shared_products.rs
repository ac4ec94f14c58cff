//! One copy of each product: the published read model shares the fused
//! products the writer store holds, by `Arc`, instead of cloning each
//! changed product into every publish.

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
