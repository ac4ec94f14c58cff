//! One writer, one published read model: a [`ProductStore`] behind one
//! writer lock, with readers served from immutable published snapshots
//! ([`StoreSnapshot`]). Shards only partition the snapshot segments on
//! disk: FNV-1a hash of the cluster key ([`shard_of`]).
//!
//! # Write path: one routine, publish with one swap
//!
//! Every mutation — a volatile ingest or retract, or a durable apply
//! pass's batch of logged records — goes through `ShardedStore::apply`.
//! Under the writer lock it runs the records through the store in order.
//! The store re-fuses the clusters each record touched and updates its
//! own visible-products map ([`Products`](crate::snapshot::Products)) as
//! it goes, serializing each re-fused product once; each record's delta
//! names the categories whose entries changed. The publish then clones
//! the store's outer map (one refcount per category), replaces the
//! response and search slots of the changed categories, and installs the
//! whole thing with a single pointer swap. Every write is therefore
//! atomic and serializable, whichever thread issues it. Re-fusion fans
//! out to `pse-par` workers only from
//! [`PAR_APPLY_MIN_BATCH`](pse_store::PAR_APPLY_MIN_BATCH) offers or ids
//! up. The delta's dirty cluster keys, hashed by [`shard_of`], name the
//! segments the next fold rewrites ([`ShardedStore::shard_clusters_value`]).
//!
//! # Read path: no locks held, no serializer run
//!
//! Readers load the published snapshot (one refcount increment via
//! [`SnapshotCell`]) and then operate on immutable data: `products()`,
//! `products_in_category()`, and `product_for()` see one consistent
//! point in time, and [`ShardedStore::products_response`] answers the
//! hot `GET /products/{category}` with pre-serialized shared bytes. A
//! multi-category batch becomes visible all at once or not at all
//! (pinned by `concurrent_reader_never_observes_partial_batch`).
//!
//! # Equivalence to the single store
//!
//! Every observable output is byte-identical to one [`ProductStore`] fed
//! the same stream: the writer *is* one store, so the shard count cannot
//! change cluster contents or member order; the read model keeps the
//! store's cluster-key order, and cached response bodies join
//! per-product JSON exactly as the serializer would. Resharding is
//! [`ShardedStore::from_store`] over [`ShardedStore::to_store`]. Pinned
//! by proptests in `tests/sharded_equivalence.rs` over arbitrary
//! ingest/retract interleavings at 1/2/4/8 shards.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

use pse_core::{Catalog, CategoryId, CorrespondenceSet, Offer, OfferId};
use pse_store::{ClusterKey, IngestStats, ProductStore};
use pse_synthesis::runtime::reconcile_batch;
use pse_synthesis::{ReconciledOffer, RuntimeConfig, SpecProvider, SynthesizedProduct};
use pse_wal::codec::{fnv1a_extend, FNV_OFFSET};
use pse_wal::WalRecord;

use crate::metrics;
use crate::snapshot::{empty_response, ResponseSlot, SearchSlot, SnapshotCell, StoreSnapshot};

/// Which of `n_shards` shards a cluster key lives in: FNV-1a over
/// `(category, key attribute, normalized key value)` with `0xff`
/// separators (no field concatenation can collide across boundaries,
/// since the hashed strings never contain `0xff` after normalization).
pub fn shard_of(key: &ClusterKey, n_shards: usize) -> usize {
    let mut h = fnv1a_extend(FNV_OFFSET, &key.0 .0.to_le_bytes());
    h = fnv1a_extend(h, &[0xff]);
    h = fnv1a_extend(h, key.1.as_bytes());
    h = fnv1a_extend(h, &[0xff]);
    h = fnv1a_extend(h, key.2.as_bytes());
    (h % n_shards.max(1) as u64) as usize
}

/// A completed write of already-reconciled offers.
pub struct ShardedWrite {
    /// The write's ingest/retract stats.
    pub stats: IngestStats,
}

/// One answered search: the ranked result plus, index-aligned with
/// `result.hits`, each hit's pre-serialized product JSON from the same
/// snapshot the index was built on.
pub struct SearchOutcome {
    /// The engine's ranked result (constraints echoed, hits ordered).
    pub result: pse_query::SearchResult,
    /// `hits[i]`'s cached product JSON.
    pub hit_json: Vec<Arc<str>>,
}

/// A product store with a lock-free read path and shard-partitioned
/// snapshot segments, safe to share across server worker threads
/// (`&self` ingest/retract/read). See the module docs for the snapshot
/// protocol and the equivalence guarantee.
pub struct ShardedStore {
    correspondences: CorrespondenceSet,
    config: RuntimeConfig,
    n_shards: usize,
    /// The one writer. [`ShardedStore::apply`] holds it from the first
    /// mutation through the publish, so snapshots publish in mutation
    /// order. Taken after the snapshot gate and the durability mutex.
    writer: Mutex<ProductStore>,
    /// The snapshot readers load; replaced wholesale on publish.
    published: SnapshotCell,
}

impl ShardedStore {
    /// Empty sharded store with the default pipeline configuration.
    pub fn new(correspondences: CorrespondenceSet, n_shards: usize) -> Self {
        Self::from_store(ProductStore::new(correspondences), n_shards)
    }

    /// Wrap an existing single store, its snapshot segments split across
    /// `n_shards` shards.
    pub fn from_store(store: ProductStore, n_shards: usize) -> Self {
        let visible: BTreeSet<CategoryId> = store.visible().categories.keys().copied().collect();
        let this = Self {
            correspondences: store.correspondences().clone(),
            config: store.config().clone(),
            n_shards: n_shards.max(1),
            published: SnapshotCell::new(Arc::default()),
            writer: Mutex::new(store),
        };
        this.publish(&this.writer(), &visible);
        this
    }

    fn writer(&self) -> MutexGuard<'_, ProductStore> {
        self.writer.lock().expect("writer lock")
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.n_shards
    }

    /// The pipeline configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The correspondence set in use.
    pub fn correspondences(&self) -> &CorrespondenceSet {
        &self.correspondences
    }

    /// Offers currently held (writer-side view).
    pub fn offer_count(&self) -> usize {
        self.writer().offer_count()
    }

    /// The currently published read snapshot. Every read made through
    /// one snapshot is consistent with every other; requests should load
    /// it once and answer entirely from it.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        self.published.load()
    }

    /// Ingest a batch: reconcile once (in parallel, order-preserving),
    /// then apply and publish with one swap.
    pub fn ingest<P: SpecProvider>(
        &self,
        catalog: &Catalog,
        offers: &[Offer],
        provider: &P,
    ) -> IngestStats {
        let _span = pse_obs::span("store.ingest");
        pse_obs::add(pse_store::metrics::INGEST, offers.len() as u64);
        let reconciled = self.reconcile(offers, provider);
        let mut write = self.ingest_reconciled(catalog, reconciled);
        write.stats.offers_in = offers.len();
        write.stats
    }

    /// Reconcile a raw batch against this store's correspondence set
    /// (the first half of [`ShardedStore::ingest`]). The durable write
    /// path reconciles once, logs the reconciled offers to the WAL, and
    /// then applies them — so replay never needs the `SpecProvider`.
    pub fn reconcile<P: SpecProvider>(
        &self,
        offers: &[Offer],
        provider: &P,
    ) -> Vec<ReconciledOffer> {
        reconcile_batch(offers, &self.correspondences, provider)
    }

    /// Apply already-reconciled offers (the second half of
    /// [`ShardedStore::ingest`]) and publish with one swap.
    pub fn ingest_reconciled(
        &self,
        catalog: &Catalog,
        reconciled: Vec<ReconciledOffer>,
    ) -> ShardedWrite {
        let (stats, _) = self.apply(catalog, vec![WalRecord::Ingest(reconciled)]);
        ShardedWrite { stats: stats[0] }
    }

    /// Remove offers by id, re-fusing affected clusters. Categories
    /// holding none of the ids keep their published entries
    /// pointer-identical.
    pub fn retract(&self, catalog: &Catalog, ids: &[OfferId]) -> IngestStats {
        self.apply(catalog, vec![WalRecord::Retract(ids.to_vec())]).0[0]
    }

    /// The one place a [`WalRecord`] mutates the store: under the writer
    /// lock, run `records` through the store in order and publish once.
    /// Returns each record's stats and the shards whose cluster state
    /// changed.
    pub(crate) fn apply(
        &self,
        catalog: &Catalog,
        records: Vec<WalRecord>,
    ) -> (Vec<IngestStats>, BTreeSet<usize>) {
        let mut store = self.writer();
        let mut dirty_shards = BTreeSet::new();
        let mut changed = BTreeSet::new();
        let stats: Vec<IngestStats> = records
            .into_iter()
            .map(|record| {
                let delta = record.apply_to(&mut store, catalog);
                dirty_shards.extend(delta.dirty.iter().map(|key| shard_of(key, self.n_shards)));
                changed.extend(delta.changed);
                delta.stats
            })
            .collect();
        let invalidated = self.publish(&store, &changed);
        pse_obs::add(metrics::CACHE_INVALIDATED, invalidated as u64);
        (stats, dirty_shards)
    }

    /// Publish `store`'s visible products: clone its outer map, give the
    /// `changed` categories fresh response and search slots, and swap the
    /// successor in; returns how many categories changed. Nothing is
    /// published when none did. Called with the writer lock held, so each
    /// publish builds on the last.
    fn publish(&self, store: &ProductStore, changed: &BTreeSet<CategoryId>) -> usize {
        if changed.is_empty() {
            return 0;
        }
        let current = self.published.load();
        let mut responses = current.responses.clone();
        let mut search = current.search.clone();
        for &category in changed {
            // A fresh slot: the next reader of the category assembles
            // the body; untouched categories keep their built slots.
            // The search index invalidates in lockstep.
            responses.insert(category, Arc::new(ResponseSlot::default()));
            search.insert(category, Arc::new(SearchSlot::default()));
        }
        let shards = store.visible().clone();
        self.published.swap(Arc::new(StoreSnapshot { shards, responses, search }));
        changed.len()
    }

    /// Current products in cluster-key order — the exact sequence the
    /// single store (and `RuntimePipeline::process`) would emit. Reads
    /// one published snapshot; no locks are held.
    pub fn products(&self) -> Vec<SynthesizedProduct> {
        self.published
            .load()
            .shards
            .entries()
            .map(|e| SynthesizedProduct::clone(&e.product))
            .collect()
    }

    /// Products of one category, in cluster-key order, from one
    /// published snapshot.
    pub fn products_in_category(&self, category: CategoryId) -> Vec<SynthesizedProduct> {
        let snap = self.published.load();
        snap.shards.category(category).map(|e| SynthesizedProduct::clone(&e.product)).collect()
    }

    /// The `GET /products/{category}` body: an atomic snapshot load
    /// plus a map lookup when the body is already assembled; the first
    /// read after a publish touched the category assembles it (counted
    /// as a miss). Byte-identical to
    /// `serde_json::to_string(&products_in_category)`.
    pub fn products_response(&self, category: CategoryId) -> Arc<[u8]> {
        let snap = self.published.load();
        match snap.responses.get(&category) {
            Some(slot) => match slot.built() {
                Some(body) => {
                    pse_obs::incr(metrics::CACHE_HIT);
                    Arc::clone(body)
                }
                None => {
                    pse_obs::incr(metrics::CACHE_MISS);
                    slot.get_or_build(&snap.shards, category)
                }
            },
            None => {
                pse_obs::incr(metrics::CACHE_MISS);
                empty_response()
            }
        }
    }

    /// The product for one cluster key, from one published snapshot.
    pub fn product_for(&self, key: &ClusterKey) -> Option<SynthesizedProduct> {
        self.published.load().shards.entry(key).map(|e| SynthesizedProduct::clone(&e.product))
    }

    /// The pre-serialized `GET /product?...` body for one cluster key:
    /// the snapshot's cached per-product JSON — no lock, no serializer.
    /// Byte-identical to `serde_json::to_string(&product_for(key))`.
    pub fn product_response(&self, key: &ClusterKey) -> Option<Arc<str>> {
        self.published.load().shards.entry(key).map(|e| Arc::clone(&e.json))
    }

    /// Answer a free-text query from one published snapshot: resolve it
    /// into constraints with `pse-query`, retrieve and rank through the
    /// snapshot's per-category indexes (built lazily, cached until the
    /// category's next publish), and attach each hit's cached product
    /// JSON. No lock, no serializer.
    pub fn search(&self, query: &str, k: usize) -> SearchOutcome {
        let snap = self.published.load();
        let index: pse_query::SearchIndex = snap
            .search
            .iter()
            .map(|(&c, slot)| (c, slot.get_or_build(&snap.shards, c, &self.correspondences)))
            .collect();
        let result = pse_query::search(&index, query, k);
        let hit_json = result
            .hits
            .iter()
            .map(|h| {
                let key = (h.category, h.key_attribute.clone(), h.key_value.clone());
                // Hits come from the same snapshot, so the entry exists;
                // "null" keeps the response well-formed regardless.
                let entry = snap.shards.entry(&key);
                entry.map(|e| Arc::clone(&e.json)).unwrap_or_else(|| Arc::from("null"))
            })
            .collect();
        SearchOutcome { result, hit_json }
    }

    /// The store's snapshot — byte-identical to the snapshot of a single
    /// [`ProductStore`] fed the same stream, whatever the shard count.
    pub fn snapshot_json(&self) -> String {
        self.writer().snapshot_json()
    }

    /// A copy of the store (cluster state and fusion caches, no
    /// re-fusion), taken under the writer lock.
    pub fn to_store(&self) -> ProductStore {
        self.writer().clone()
    }

    /// One shard's clusters as a serialization-ready [`Value`] — the
    /// payload of that shard's binary snapshot segment: the store's
    /// cluster map filtered by [`shard_of`], under the writer lock.
    ///
    /// [`Value`]: serde::Value
    pub fn shard_clusters_value(&self, shard: usize) -> serde::Value {
        self.writer().clusters_value_where(|key| shard_of(key, self.n_shards) == shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let key = (CategoryId(3), "MPN".to_string(), "abc123".to_string());
        for n in 1..=8 {
            let s = shard_of(&key, n);
            assert!(s < n);
            assert_eq!(s, shard_of(&key, n), "deterministic");
        }
        assert_eq!(shard_of(&key, 1), 0);
    }

    #[test]
    fn shard_of_separates_field_boundaries() {
        // ("ab", "c") and ("a", "bc") must not collide by construction.
        let a = (CategoryId(0), "ab".to_string(), "c".to_string());
        let b = (CategoryId(0), "a".to_string(), "bc".to_string());
        let ha = (0..64).map(|n| shard_of(&a, n + 1)).collect::<Vec<_>>();
        let hb = (0..64).map(|n| shard_of(&b, n + 1)).collect::<Vec<_>>();
        assert_ne!(ha, hb);
    }

    /// Segment contents depend on where each key lands, so the router's
    /// output for fixed keys is part of the on-disk format.
    #[test]
    fn shard_of_is_pinned_at_1_2_4_and_8_shards() {
        let pinned = [
            ((0, "MPN", "abc123"), [0, 0, 0, 0]),
            ((3, "UPC", "0123456789012"), [0, 0, 2, 6]),
            ((17, "Model", "xr 500"), [0, 0, 2, 2]),
            ((42, "", ""), [0, 1, 1, 5]),
            ((1, "MPN", "z"), [0, 1, 3, 3]),
        ];
        for ((category, attribute, value), want) in pinned {
            let key = (CategoryId(category), attribute.to_string(), value.to_string());
            let got = [1, 2, 4, 8].map(|n| shard_of(&key, n));
            assert_eq!(got, want, "{key:?}");
        }
    }
}
