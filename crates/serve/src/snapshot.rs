//! Immutable read-model types for the MVCC serving path.
//!
//! [`Products`] is every visible product frozen at one publish: a
//! category → cluster-key-ordered map of [`ProductEntry`] values, each
//! carrying the product *and* its pre-serialized JSON. It is never
//! mutated — a write builds a successor by re-resolving exactly the
//! cluster keys its delta names, so untouched categories keep their
//! `Arc` identity across publishes, and the rebuild reports which
//! categories it changed.
//!
//! A [`StoreSnapshot`] is the whole store frozen at one instant: the
//! products plus per-category response-body and search-index slots.
//! Readers obtain it from a [`SnapshotCell`] with a single refcount
//! increment and then see a fully consistent state — either all of a
//! published batch or none of it.
//!
//! A publish replaces the slots of exactly the categories the rebuild
//! changed; every other slot carries forward, built or not. Because the
//! vendored `serde_json` serializes a `Vec<T>` as the compact `[` +
//! `,`-joined elements + `]`, joining the cached per-product JSON strings
//! reproduces `serde_json::to_string(&products_in_category(c))` byte for
//! byte.

use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock, RwLock};

use pse_core::{CategoryId, CorrespondenceSet};
use pse_query::CategoryIndex;
use pse_store::{ClusterKey, ProductStore};
use pse_synthesis::SynthesizedProduct;

/// One visible product with its serialization cached.
#[derive(Debug)]
pub struct ProductEntry {
    /// The synthesized product.
    pub product: SynthesizedProduct,
    /// `serde_json::to_string(&product)`, serialized once at publish.
    pub json: Arc<str>,
}

impl ProductEntry {
    fn new(product: SynthesizedProduct) -> Arc<Self> {
        let json =
            serde_json::to_string(&product).expect("product serialization is infallible").into();
        Arc::new(Self { product, json })
    }
}

/// One category's visible clusters, in key order. The full
/// [`ClusterKey`] stays the map key (the category component is redundant
/// with the outer level), so a point lookup takes a `&ClusterKey`. It
/// sits behind an `Arc` so that the copy-on-write clone of a category a
/// commit touches bumps one refcount per cluster instead of copying two
/// strings (with copied keys, an 8-offer apply on a 2,584-product store
/// read a p50 of ~170 us against ~128 us with shared ones, 2-CPU host).
pub type CategoryClusters = BTreeMap<Arc<ClusterKey>, Arc<ProductEntry>>;

/// Every visible product, frozen at one publish.
///
/// Two-level layout: category → `Arc` of that category's cluster map,
/// the unit every read-side cache is keyed by. A successor clones the
/// outer map (a handful of refcounts) and deep-clones only the
/// categories its delta touches, so per-commit publish cost is bounded
/// by category size, not store size — with one flat map, every commit
/// re-cloned every key in the store, which at paper scale cost more
/// than the fsync it rode behind.
#[derive(Debug, Default, Clone)]
pub struct Products {
    /// Visible products (fused, at or above `min_cluster_size`),
    /// grouped by category, each category in cluster-key order.
    /// Categories with no visible product are absent.
    pub categories: BTreeMap<CategoryId, Arc<CategoryClusters>>,
}

impl Products {
    /// Build the successor: re-resolve the `dirty` keys (sorted, so each
    /// category's keys are adjacent) against the store — re-serializing
    /// a changed product, dropping a vanished one — and carry every other
    /// category forward by `Arc` clone. Categories are rebuilt on
    /// `pse-par` workers when `parallel`, inline otherwise. Returns the
    /// successor and the categories whose entries changed: a dirty key
    /// that was absent and stays absent changes nothing.
    pub fn rebuilt(
        &self,
        store: &ProductStore,
        dirty: &[ClusterKey],
        parallel: bool,
    ) -> (Self, Vec<CategoryId>) {
        let by_category: Vec<&[ClusterKey]> = dirty.chunk_by(|a, b| a.0 == b.0).collect();
        let min_chunk = if parallel { 1 } else { by_category.len() };
        let rebuilt = pse_par::par_map_chunked(&by_category, min_chunk, |keys| {
            let mut clusters = self.categories.get(&keys[0].0).cloned().unwrap_or_default();
            let mut changed = false;
            for key in keys.iter() {
                if let Some(p) = store.product_for(key) {
                    Arc::make_mut(&mut clusters)
                        .insert(Arc::new(key.clone()), ProductEntry::new(p.clone()));
                    changed = true;
                } else if clusters.contains_key(key) {
                    Arc::make_mut(&mut clusters).remove(key);
                    changed = true;
                }
            }
            changed.then_some((keys[0].0, clusters))
        });
        let mut next = self.clone();
        let mut changed = Vec::new();
        for (category, clusters) in rebuilt.into_iter().flatten() {
            changed.push(category);
            if clusters.is_empty() {
                next.categories.remove(&category);
            } else {
                next.categories.insert(category, clusters);
            }
        }
        (next, changed)
    }

    /// One category's entries, in cluster-key order.
    pub fn category(&self, category: CategoryId) -> impl Iterator<Item = &Arc<ProductEntry>> {
        self.categories.get(&category).into_iter().flat_map(|m| m.values())
    }

    /// Every entry, in cluster-key order.
    pub fn entries(&self) -> impl Iterator<Item = &Arc<ProductEntry>> {
        self.categories.values().flat_map(|m| m.values())
    }

    /// The entry for `key`, if visible.
    pub fn entry(&self, key: &ClusterKey) -> Option<&Arc<ProductEntry>> {
        self.categories.get(&key.0)?.get(key)
    }
}

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
                products.category(category).map(|e| &e.product).collect();
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
            Arc::new(ProductEntry { product, json: json.into() }),
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
