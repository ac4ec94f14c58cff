//! One writer, sharded reads: a [`ProductStore`] behind one writer lock,
//! with an MVCC read path partitioned by FNV-1a hash of the cluster key
//! — readers are served from immutable published snapshots
//! ([`StoreSnapshot`]).
//!
//! # Write path: one routine, publish with one swap
//!
//! Every mutation — a volatile ingest or retract, or a durable apply
//! pass's batch of logged records — goes through `ShardedStore::apply`.
//! Under the writer lock it runs the records through the store in order,
//! groups the delta's dirty cluster keys by [`shard_of`], builds the
//! successor [`ShardSnapshot`](crate::snapshot::ShardSnapshot) of each
//! touched shard from the published
//! one — carrying untouched entries forward by `Arc` clone and
//! re-serializing exactly the dirty clusters — replaces the response and
//! search slots of exactly the categories whose entries changed (pointer
//! diff), and installs the whole thing with a single pointer swap. Every
//! write is therefore atomic and serializable, whichever thread issues
//! it. Re-fusion and the snapshot rebuild fan out to `pse-par` workers
//! only from [`PAR_APPLY_MIN_BATCH`] offers or ids up.
//!
//! Shards keep two jobs: they partition the read model (a commit clones
//! only the shards it touches) and the snapshot segments on disk
//! ([`ShardedStore::shard_clusters_value`]).
//!
//! # Read path: no locks held, no serializer run
//!
//! Readers load the published snapshot (one refcount increment via
//! [`SnapshotCell`]) and then operate on immutable data: `products()`,
//! `products_in_category()`, and `product_for()` see one consistent
//! point in time, and [`ShardedStore::products_response`] answers the
//! hot `GET /products/{category}` with pre-serialized shared bytes. A
//! multi-shard batch becomes visible all at once or not at all (pinned
//! by `concurrent_reader_never_observes_partial_batch`).
//!
//! # Equivalence to the single store
//!
//! Every observable output is byte-identical to one [`ProductStore`] fed
//! the same stream: the writer *is* one store, so the shard count cannot
//! change cluster contents or member order; reads merge shard outputs
//! back into cluster-key order, which is the store's `BTreeMap` order,
//! and cached response bodies join per-product JSON exactly as the
//! serializer would. Resharding is [`ShardedStore::from_store`] over
//! [`ShardedStore::to_store`]. Pinned by proptests in
//! `tests/sharded_equivalence.rs` over arbitrary ingest/retract
//! interleavings at 1/2/4/8 shards.

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex, MutexGuard};

use pse_core::{Catalog, CategoryId, CorrespondenceSet, Offer, OfferId};
use pse_store::{ClusterKey, IngestStats, ProductStore, PAR_APPLY_MIN_BATCH};
use pse_synthesis::runtime::reconcile_batch;
use pse_synthesis::{ReconciledOffer, RuntimeConfig, SpecProvider, SynthesizedProduct};
use pse_wal::WalRecord;

use crate::metrics;
use crate::snapshot::{
    changed_categories, empty_response, ResponseSlot, SearchSlot, SnapshotCell, StoreSnapshot,
};

/// 64-bit FNV-1a over a byte stream.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME))
}

/// Which of `n_shards` shards a cluster key lives in: FNV-1a over
/// `(category, key attribute, normalized key value)` with `0xff`
/// separators (no field concatenation can collide across boundaries,
/// since the hashed strings never contain `0xff` after normalization).
pub fn shard_of(key: &ClusterKey, n_shards: usize) -> usize {
    let mut h = fnv1a(FNV_OFFSET, &key.0 .0.to_le_bytes());
    h = fnv1a(h, &[0xff]);
    h = fnv1a(h, key.1.as_bytes());
    h = fnv1a(h, &[0xff]);
    h = fnv1a(h, key.2.as_bytes());
    (h % n_shards.max(1) as u64) as usize
}

/// A completed write: its stats plus the indices of the shards whose
/// cluster state it changed — the incremental-snapshot layer (`pse-wal`)
/// marks exactly these segments dirty.
pub struct ShardedWrite {
    /// The write's ingest/retract stats.
    pub stats: IngestStats,
    /// Shards whose cluster state changed (sorted, deduplicated).
    pub dirty_shards: Vec<usize>,
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

/// A product store with a shard-partitioned read path, safe to share
/// across server worker threads (`&self` ingest/retract/read). See the
/// module docs for the snapshot protocol and the equivalence guarantee.
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

    /// Wrap an existing single store, its read model split across
    /// `n_shards` shards.
    pub fn from_store(store: ProductStore, n_shards: usize) -> Self {
        let n = n_shards.max(1);
        let shards = vec![Arc::default(); n];
        let visible: Vec<ClusterKey> = store.products_keyed().map(|(k, _)| k.clone()).collect();
        let this = Self {
            correspondences: store.correspondences().clone(),
            config: store.config().clone(),
            n_shards: n,
            published: SnapshotCell::new(Arc::new(StoreSnapshot { shards, ..Default::default() })),
            writer: Mutex::new(store),
        };
        let batch = visible.len();
        this.publish(&this.writer(), this.by_shard(visible), batch);
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
        let (stats, dirty_shards) = self.apply(catalog, vec![WalRecord::Ingest(reconciled)]);
        ShardedWrite { stats: stats[0], dirty_shards }
    }

    /// Remove offers by id, re-fusing affected clusters. Shards holding
    /// none of the ids keep their published snapshot pointer-identical.
    pub fn retract(&self, catalog: &Catalog, ids: &[OfferId]) -> IngestStats {
        self.apply(catalog, vec![WalRecord::Retract(ids.to_vec())]).0[0]
    }

    /// The one place a [`WalRecord`] mutates the store: under the writer
    /// lock, run `records` through the store in order, rebuild the
    /// snapshots of the shards their dirty clusters hash to, and publish
    /// once. Returns each record's stats and the shards whose cluster
    /// state changed (sorted).
    pub(crate) fn apply(
        &self,
        catalog: &Catalog,
        records: Vec<WalRecord>,
    ) -> (Vec<IngestStats>, Vec<usize>) {
        let mut store = self.writer();
        let mut dirty: BTreeSet<ClusterKey> = BTreeSet::new();
        let stats: Vec<IngestStats> = records
            .into_iter()
            .map(|record| {
                let delta = match record {
                    WalRecord::Ingest(reconciled) => {
                        store.ingest_reconciled_delta(catalog, reconciled)
                    }
                    WalRecord::Retract(ids) => store.retract_delta(catalog, &ids),
                };
                dirty.extend(delta.dirty);
                delta.stats
            })
            .collect();
        let by_shard = self.by_shard(dirty);
        let dirty_shards = (0..self.n_shards).filter(|&i| !by_shard[i].is_empty()).collect();
        let batch = stats.iter().map(|s| s.offers_in).sum();
        let invalidated = self.publish(&store, by_shard, batch);
        pse_obs::add(metrics::CACHE_INVALIDATED, invalidated as u64);
        (stats, dirty_shards)
    }

    /// `keys` grouped by shard, index-aligned with the shards.
    fn by_shard(&self, keys: impl IntoIterator<Item = ClusterKey>) -> Vec<Vec<ClusterKey>> {
        let mut by_shard = vec![Vec::new(); self.n_shards];
        for key in keys {
            by_shard[shard_of(&key, self.n_shards)].push(key);
        }
        by_shard
    }

    /// Rebuild each shard's snapshot from the published one, re-resolving
    /// its `dirty` keys against `store` (concurrently across shards for a
    /// `batch` of [`PAR_APPLY_MIN_BATCH`] or more), and swap in the
    /// successor. Response and search slots are replaced for exactly the
    /// categories whose entries changed, found by pointer diff; returns
    /// how many. Called with the writer lock held, so each publish builds
    /// on the last.
    fn publish(&self, store: &ProductStore, dirty: Vec<Vec<ClusterKey>>, batch: usize) -> usize {
        let touched: Vec<(usize, Vec<ClusterKey>)> =
            dirty.into_iter().enumerate().filter(|(_, keys)| !keys.is_empty()).collect();
        let current = self.published.load();
        let min_chunk = if batch < PAR_APPLY_MIN_BATCH { touched.len() } else { 1 };
        let rebuilt = pse_par::par_map_chunked(&touched, min_chunk, |(i, keys)| {
            current.shards[*i].rebuilt(store, keys)
        });
        let mut shards = current.shards.clone();
        let mut dirty_categories = BTreeSet::new();
        for ((i, _), snap) in touched.iter().zip(rebuilt) {
            changed_categories(&shards[*i], &snap, &mut dirty_categories);
            shards[*i] = Arc::new(snap);
        }
        if dirty_categories.is_empty() {
            return 0;
        }
        let mut responses = current.responses.clone();
        let mut search = current.search.clone();
        for &category in &dirty_categories {
            // A fresh slot: the next reader of the category assembles
            // the body; untouched categories keep their built slots.
            // The search index invalidates in lockstep.
            responses.insert(category, Arc::new(ResponseSlot::default()));
            search.insert(category, Arc::new(SearchSlot::default()));
        }
        self.published.swap(Arc::new(StoreSnapshot { shards, responses, search }));
        dirty_categories.len()
    }

    /// Current products in cluster-key order — the exact sequence the
    /// single store (and `RuntimePipeline::process`) would emit. Reads
    /// one published snapshot; no locks are held while merging.
    pub fn products(&self) -> Vec<SynthesizedProduct> {
        let snap = self.published.load();
        let mut keyed: Vec<(&ClusterKey, &SynthesizedProduct)> =
            snap.shards.iter().flat_map(|s| s.entries().map(|(k, e)| (k, &e.product))).collect();
        keyed.sort_by(|a, b| a.0.cmp(b.0));
        keyed.into_iter().map(|(_, p)| p.clone()).collect()
    }

    /// Products of one category, in cluster-key order, from one
    /// published snapshot.
    pub fn products_in_category(&self, category: CategoryId) -> Vec<SynthesizedProduct> {
        let snap = self.published.load();
        let mut keyed: Vec<(&ClusterKey, &SynthesizedProduct)> = snap
            .shards
            .iter()
            .flat_map(|s| s.category_entries(category).map(|(k, e)| (k, &e.product)))
            .collect();
        keyed.sort_by(|a, b| a.0.cmp(b.0));
        keyed.into_iter().map(|(_, p)| p.clone()).collect()
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
        let snap = self.published.load();
        let shard = &snap.shards[shard_of(key, snap.shards.len())];
        shard.entry(key).map(|e| e.product.clone())
    }

    /// The pre-serialized `GET /product?...` body for one cluster key:
    /// the snapshot's cached per-product JSON — no lock, no serializer.
    /// Byte-identical to `serde_json::to_string(&product_for(key))`.
    pub fn product_response(&self, key: &ClusterKey) -> Option<Arc<str>> {
        let snap = self.published.load();
        let shard = &snap.shards[shard_of(key, snap.shards.len())];
        shard.entry(key).map(|e| Arc::clone(&e.json))
    }

    /// Answer a free-text query from one published snapshot: resolve it
    /// into constraints with `pse-query`, retrieve and rank through the
    /// snapshot's per-category indexes (built lazily, cached until the
    /// category's next publish), and attach each hit's cached product
    /// JSON. No lock, no serializer — and because every index is
    /// built from the merged entries in cluster-key order, the outcome
    /// is byte-identical at any shard count.
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
                let shard = &snap.shards[shard_of(&key, snap.shards.len())];
                // Hits come from the same snapshot, so the entry exists;
                // "null" keeps the response well-formed regardless.
                shard.entry(&key).map(|e| Arc::clone(&e.json)).unwrap_or_else(|| Arc::from("null"))
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
}
