//! The read side of the MVCC serving path.
//!
//! The visible products are the writer store's own [`Products`] map
//! (defined in `pse-store`, re-exported here): category → `Arc` of that
//! category's cluster-key-ordered [`ProductEntry`] values, each the fused
//! product and its JSON, serialized once when it was fused. A
//! [`StoreSnapshot`] freezes it by cloning the outer map, one refcount per
//! category; the store's next commit copies a category on write only if
//! it touches it, so a published snapshot never changes under a reader.
//!
//! A [`StoreSnapshot`] is the whole store frozen at one instant: the
//! products plus per-category response-body and search-index slots.
//! Readers obtain it from a [`SnapshotCell`] with a single refcount
//! increment and then see a fully consistent state — either all of a
//! published batch or none of it.
//!
//! A publish replaces the slots of exactly the categories the commit
//! changed; every other slot carries forward, built or not. Because the
//! vendored `serde_json` serializes a `Vec<T>` as the compact `[` +
//! `,`-joined elements + `]`, joining the cached per-product JSON strings
//! reproduces `serde_json::to_string(&products_in_category(c))` byte for
//! byte.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use pse_core::{CategoryId, CorrespondenceSet};
use pse_query::CategoryIndex;
pub use pse_store::{CategoryClusters, ProductEntry, Products};
use pse_synthesis::SynthesizedProduct;

/// One category's `GET /products/{category}` response body, assembled
/// lazily: a publish that changes the category installs an empty slot,
/// and the first reader pays the assembly (subsequent readers share the
/// built body). Keeps response assembly — O(category size) of JSON
/// joining — off the commit path entirely, where it taxed every ingest
/// whether or not anything ever read the category.
#[derive(Debug, Default)]
pub struct ResponseSlot {
    cell: OnceLock<Arc<[u8]>>,
}

impl ResponseSlot {
    /// The built body, if a reader already assembled it.
    pub fn built(&self) -> Option<&Arc<[u8]>> {
        self.cell.get()
    }

    /// The body, assembling (and caching) it on first call.
    pub fn get_or_build(&self, products: &Products, category: CategoryId) -> Arc<[u8]> {
        Arc::clone(self.cell.get_or_init(|| category_response(products, category)))
    }
}

/// One category's `GET /search` index, assembled lazily exactly like
/// [`ResponseSlot`]: publish installs an empty slot for each changed
/// category (every other category carries its built index forward by
/// `Arc`), and the first search after that pays the build. The index is
/// built from the category's entries in cluster-key order, and it swaps
/// atomically with the store snapshot it lives in — a search never sees
/// an index newer or older than the products it ranks.
#[derive(Debug, Default)]
pub struct SearchSlot {
    cell: OnceLock<Arc<CategoryIndex>>,
}

impl SearchSlot {
    /// The index, building (and caching) it on first call.
    pub fn get_or_build(
        &self,
        products: &Products,
        category: CategoryId,
        correspondences: &CorrespondenceSet,
    ) -> Arc<CategoryIndex> {
        Arc::clone(self.cell.get_or_init(|| {
            let products: Vec<&SynthesizedProduct> =
                products.category(category).map(|e| &*e.product).collect();
            Arc::new(CategoryIndex::build(category, &products, correspondences))
        }))
    }
}

/// The whole store frozen at one instant: its visible products plus the
/// per-category response-body and search-index caches.
#[derive(Debug, Default)]
pub struct StoreSnapshot {
    /// Every visible product. The name is older than the type: it keeps
    /// the field's name from when the read model was split into shards
    /// until the next change to the benchmark, which compiles against it.
    pub shards: Products,
    /// Category → response-body slot (the body is the compact JSON
    /// array of the category's products in cluster-key order).
    /// Categories that never had a visible product are absent; readers
    /// serve [`empty_response`] for them. Slots for categories
    /// untouched by a publish carry forward already built.
    pub responses: BTreeMap<CategoryId, Arc<ResponseSlot>>,
    /// Category → search-index slot, invalidated in lockstep with
    /// `responses` (same changed categories, same lazy build).
    pub search: BTreeMap<CategoryId, Arc<SearchSlot>>,
}

/// The shared `[]` body served for categories with no cached response.
pub fn empty_response() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from(&b"[]"[..])))
}

/// Assemble one category's response body: join its entries' cached
/// JSON in cluster-key order — byte-identical to serializing the
/// product vector.
pub fn category_response(products: &Products, category: CategoryId) -> Arc<[u8]> {
    let len = products.category(category).map(|e| e.json.len() + 1).sum::<usize>();
    let mut body = Vec::with_capacity(len + 2);
    body.push(b'[');
    for (i, e) in products.category(category).enumerate() {
        if i > 0 {
            body.push(b',');
        }
        body.extend_from_slice(e.json.as_bytes());
    }
    body.push(b']');
    body.into()
}

/// The swap cell readers load the current [`StoreSnapshot`] from.
///
/// Zero-dependency stand-in for `ArcSwap`: the read-side critical
/// section is a single refcount increment under a shared lock, and the
/// only exclusive hold is the pointer store in [`SnapshotCell::swap`] —
/// readers never wait on snapshot *construction*, which happens entirely
/// off to the side.
#[derive(Debug)]
pub struct SnapshotCell {
    cell: RwLock<Arc<StoreSnapshot>>,
}

impl SnapshotCell {
    /// A cell holding `initial`.
    pub fn new(initial: Arc<StoreSnapshot>) -> Self {
        Self { cell: RwLock::new(initial) }
    }

    /// The current snapshot (one refcount increment).
    pub fn load(&self) -> Arc<StoreSnapshot> {
        Arc::clone(&self.cell.read().expect("snapshot cell lock"))
    }

    /// Publish `next` (one pointer store under the exclusive lock).
    pub fn swap(&self, next: Arc<StoreSnapshot>) {
        *self.cell.write().expect("snapshot cell lock") = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_store::ClusterKey;

    fn entry(cat: u32, key: &str, json: &str) -> (ClusterKey, Arc<ProductEntry>) {
        let product = SynthesizedProduct {
            category: CategoryId(cat),
            key_attribute: "MPN".into(),
            key_value: key.into(),
            spec: pse_core::Spec::default(),
            offers: Vec::new(),
        };
        (
            (CategoryId(cat), "MPN".into(), key.into()),
            Arc::new(ProductEntry { product: Arc::new(product), json: json.into() }),
        )
    }

    #[test]
    fn category_response_joins_entries_in_key_order() {
        let mut products = Products::default();
        for (k, e) in [
            entry(1, "bbb", "{\"b\":2}"),
            entry(2, "ccc", "{\"c\":3}"),
            entry(1, "aaa", "{\"a\":1}"),
        ] {
            Arc::make_mut(products.categories.entry(k.0).or_default()).insert(Arc::new(k), e);
        }
        assert_eq!(&category_response(&products, CategoryId(1))[..], b"[{\"a\":1},{\"b\":2}]");
        assert_eq!(&category_response(&products, CategoryId(2))[..], b"[{\"c\":3}]");
        assert_eq!(&category_response(&products, CategoryId(9))[..], b"[]");
        assert_eq!(&empty_response()[..], b"[]");
    }

    #[test]
    fn snapshot_cell_swaps_atomically() {
        let cell = SnapshotCell::new(Arc::new(StoreSnapshot::default()));
        let first = cell.load();
        assert!(Arc::ptr_eq(&first, &cell.load()));
        cell.swap(Arc::new(StoreSnapshot::default()));
        assert!(!Arc::ptr_eq(&first, &cell.load()));
    }
}
