//! Immutable read-model types for the MVCC serving path.
//!
//! A [`ShardSnapshot`] is one shard's visible products frozen at one
//! publish: a cluster-key-ordered map of [`ProductEntry`] values, each
//! carrying the product *and* its pre-serialized JSON. Snapshots are
//! never mutated — an ingest/retract builds a successor by cloning the
//! map and replacing only the entries its dirty-cluster delta names, so
//! untouched entries keep their `Arc` identity across publishes.
//!
//! A [`StoreSnapshot`] is the whole store frozen at one instant: the
//! per-shard snapshots plus a category → pre-assembled response-body
//! cache. Readers obtain it from a [`SnapshotCell`] with a single
//! refcount increment and then see a fully consistent state — either all
//! of a published batch or none of it — which is what closes the torn
//! cross-shard read the per-shard-lock read path allowed.
//!
//! Entry `Arc` identity doubles as the invalidation signal: the
//! publisher diffs the old and new shard snapshots pointer-by-pointer
//! ([`changed_categories`]) and rebuilds exactly the category bodies
//! whose entries changed. Because the vendored `serde_json` serializes a
//! `Vec<T>` as the compact `[` + `,`-joined elements + `]`, joining the
//! cached per-product JSON strings reproduces
//! `serde_json::to_string(&products_in_category(c))` byte for byte.

use std::collections::{BTreeMap, BTreeSet};
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

/// One category's visible clusters within a shard, in key order. The
/// full [`ClusterKey`] stays the map key (the category component is
/// redundant with the outer level) so point lookups and iterators hand
/// out the same types as a flat map would.
pub type CategoryClusters = BTreeMap<ClusterKey, Arc<ProductEntry>>;

/// One shard's visible products, frozen at one publish.
///
/// Two-level layout: category → `Arc` of that category's cluster map.
/// A successor snapshot clones the outer map (a handful of refcounts)
/// and deep-clones only the categories its delta touches, so per-commit
/// publish cost is bounded by category size, not store size — with one
/// flat map, every commit re-cloned every key in the shard, which at
/// paper scale cost more than the fsync it rode behind.
#[derive(Debug, Default)]
pub struct ShardSnapshot {
    /// Visible products (fused, at or above `min_cluster_size`),
    /// grouped by category, each category in cluster-key order.
    /// Categories with no visible product are absent.
    pub categories: BTreeMap<CategoryId, Arc<CategoryClusters>>,
}

impl ShardSnapshot {
    /// Build the successor snapshot: carry categories forward by `Arc`
    /// clone, deep-clone only the ones named by `dirty`, and re-resolve
    /// the dirty keys against the store — re-serializing a changed
    /// product, dropping a vanished one.
    pub fn rebuilt(&self, store: &ProductStore, dirty: &[ClusterKey]) -> Self {
        let mut categories = self.categories.clone();
        for key in dirty {
            match store.product_for(key) {
                Some(p) => {
                    Arc::make_mut(categories.entry(key.0).or_default())
                        .insert(key.clone(), ProductEntry::new(p.clone()));
                }
                None => {
                    if let Some(cat) = categories.get_mut(&key.0) {
                        Arc::make_mut(cat).remove(key);
                        if cat.is_empty() {
                            categories.remove(&key.0);
                        }
                    }
                }
            }
        }
        Self { categories }
    }

    /// This shard's entries for one category, in cluster-key order.
    pub fn category_entries(
        &self,
        category: CategoryId,
    ) -> impl Iterator<Item = (&ClusterKey, &Arc<ProductEntry>)> {
        self.categories.get(&category).into_iter().flat_map(|m| m.iter())
    }

    /// Every entry in the shard, in cluster-key order.
    pub fn entries(&self) -> impl Iterator<Item = (&ClusterKey, &Arc<ProductEntry>)> {
        self.categories.values().flat_map(|m| m.iter())
    }

    /// The entry for `key`, if visible.
    pub fn entry(&self, key: &ClusterKey) -> Option<&Arc<ProductEntry>> {
        self.categories.get(&key.0)?.get(key)
    }
}

/// One category's `GET /products/{category}` response body, assembled
/// lazily: a publish that touches the category installs an empty slot,
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
    pub fn get_or_build(&self, shards: &[Arc<ShardSnapshot>], category: CategoryId) -> Arc<[u8]> {
        Arc::clone(self.cell.get_or_init(|| category_response(shards, category)))
    }
}

/// One category's `GET /search` index, assembled lazily exactly like
/// [`ResponseSlot`]: publish installs an empty slot for each dirty
/// category (untouched categories carry their built index forward by
/// `Arc`), and the first search after that pays the build. The index is
/// built from the merged shard entries in cluster-key order, so it is
/// identical at any shard count, and it swaps atomically with the store
/// snapshot it lives in — a search never sees an index newer or older
/// than the products it ranks.
#[derive(Debug, Default)]
pub struct SearchSlot {
    cell: OnceLock<Arc<CategoryIndex>>,
}

impl SearchSlot {
    /// The index, building (and caching) it on first call.
    pub fn get_or_build(
        &self,
        shards: &[Arc<ShardSnapshot>],
        category: CategoryId,
        correspondences: &CorrespondenceSet,
    ) -> Arc<CategoryIndex> {
        Arc::clone(self.cell.get_or_init(|| {
            let mut entries: Vec<(&ClusterKey, &Arc<ProductEntry>)> =
                shards.iter().flat_map(|s| s.category_entries(category)).collect();
            entries.sort_by(|a, b| a.0.cmp(b.0));
            let products: Vec<&SynthesizedProduct> =
                entries.iter().map(|(_, e)| &e.product).collect();
            Arc::new(CategoryIndex::build(category, &products, correspondences))
        }))
    }
}

/// The whole store frozen at one instant: per-shard snapshots plus the
/// `GET /products/{category}` response-body cache.
#[derive(Debug, Default)]
pub struct StoreSnapshot {
    /// One snapshot per shard, index-aligned with the shard vector.
    pub shards: Vec<Arc<ShardSnapshot>>,
    /// Category → response-body slot (the body is the compact JSON
    /// array of the category's products in cluster-key order).
    /// Categories that never had a visible product are absent; readers
    /// serve [`empty_response`] for them. Slots for categories
    /// untouched by a publish carry forward already built.
    pub responses: BTreeMap<CategoryId, Arc<ResponseSlot>>,
    /// Category → search-index slot, invalidated in lockstep with
    /// `responses` (same dirty-category diff, same lazy build).
    pub search: BTreeMap<CategoryId, Arc<SearchSlot>>,
}

/// The shared `[]` body served for categories with no cached response.
pub fn empty_response() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::from(&b"[]"[..])))
}

/// Assemble one category's response body from the shard snapshots:
/// merge the (disjoint) per-shard entries into cluster-key order and
/// join their cached JSON — byte-identical to serializing the product
/// vector.
pub fn category_response(shards: &[Arc<ShardSnapshot>], category: CategoryId) -> Arc<[u8]> {
    let mut entries: Vec<(&ClusterKey, &Arc<ProductEntry>)> =
        shards.iter().flat_map(|s| s.category_entries(category)).collect();
    entries.sort_by(|a, b| a.0.cmp(b.0));
    let mut body = Vec::with_capacity(
        2 + entries.iter().map(|(_, e)| e.json.len() + 1).sum::<usize>().saturating_sub(1),
    );
    body.push(b'[');
    for (i, (_, e)) in entries.iter().enumerate() {
        if i > 0 {
            body.push(b',');
        }
        body.extend_from_slice(e.json.as_bytes());
    }
    body.push(b']');
    body.into()
}

/// Collect into `out` every category whose entries differ between two
/// snapshots of the same shard. Carry-forward preserves `Arc` identity
/// for untouched categories, so one pointer comparison per category
/// finds exactly the changed, added, and removed ones — no per-cluster
/// walk.
pub fn changed_categories(
    old: &ShardSnapshot,
    new: &ShardSnapshot,
    out: &mut BTreeSet<CategoryId>,
) {
    let mut a = old.categories.iter().peekable();
    let mut b = new.categories.iter().peekable();
    loop {
        match (a.peek(), b.peek()) {
            (Some((ka, ea)), Some((kb, eb))) => match ka.cmp(kb) {
                std::cmp::Ordering::Less => {
                    out.insert(**ka);
                    a.next();
                }
                std::cmp::Ordering::Greater => {
                    out.insert(**kb);
                    b.next();
                }
                std::cmp::Ordering::Equal => {
                    if !Arc::ptr_eq(ea, eb) {
                        out.insert(**ka);
                    }
                    a.next();
                    b.next();
                }
            },
            (Some((ka, _)), None) => {
                out.insert(**ka);
                a.next();
            }
            (None, Some((kb, _))) => {
                out.insert(**kb);
                b.next();
            }
            (None, None) => break,
        }
    }
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

    fn snap(entries: Vec<(ClusterKey, Arc<ProductEntry>)>) -> ShardSnapshot {
        let mut categories: BTreeMap<CategoryId, Arc<CategoryClusters>> = BTreeMap::new();
        for (k, e) in entries {
            Arc::make_mut(categories.entry(k.0).or_default()).insert(k, e);
        }
        ShardSnapshot { categories }
    }

    #[test]
    fn category_response_merges_shards_in_key_order() {
        let (k1, e1) = entry(1, "aaa", "{\"a\":1}");
        let (k2, e2) = entry(1, "bbb", "{\"b\":2}");
        let (k3, e3) = entry(2, "ccc", "{\"c\":3}");
        let shards = vec![Arc::new(snap(vec![(k2, e2), (k3, e3)])), Arc::new(snap(vec![(k1, e1)]))];
        assert_eq!(&category_response(&shards, CategoryId(1))[..], b"[{\"a\":1},{\"b\":2}]");
        assert_eq!(&category_response(&shards, CategoryId(2))[..], b"[{\"c\":3}]");
        assert_eq!(&category_response(&shards, CategoryId(9))[..], b"[]");
        assert_eq!(&empty_response()[..], b"[]");
    }

    #[test]
    fn changed_categories_walks_pointer_identity() {
        let (k1, e1) = entry(1, "aaa", "{}");
        let (k2, e2) = entry(2, "bbb", "{}");
        let (k3, e3) = entry(3, "ccc", "{}");
        let old = snap(vec![(k1, e1), (k2.clone(), e2)]);
        // Successor built the way `rebuilt` does: category 1 carried
        // forward (same Arc), category 2 replaced, category 3 added.
        let (_, e2b) = entry(2, "bbb", "{}");
        let mut categories = old.categories.clone();
        categories.insert(CategoryId(2), Arc::new(CategoryClusters::from([(k2, e2b)])));
        Arc::make_mut(categories.entry(CategoryId(3)).or_default()).insert(k3, e3);
        let new = ShardSnapshot { categories };
        let mut out = BTreeSet::new();
        changed_categories(&old, &new, &mut out);
        assert_eq!(out, BTreeSet::from([CategoryId(2), CategoryId(3)]));
        // Removal is also a change.
        let mut out = BTreeSet::new();
        changed_categories(&new, &old, &mut out);
        assert_eq!(out, BTreeSet::from([CategoryId(2), CategoryId(3)]));
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
