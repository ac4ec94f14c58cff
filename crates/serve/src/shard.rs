//! A sharded front over [`ProductStore`] with an MVCC read path: the
//! cluster map partitioned by FNV-1a hash of the cluster key, writers
//! serialized per shard, readers served from immutable published
//! snapshots ([`StoreSnapshot`]).
//!
//! # Write path: build aside, publish with one swap
//!
//! An ingest batch is reconciled once, partitioned by cluster key, and
//! applied to the touched shards — in parallel (`pse-par`) when the batch
//! is large enough to pay for the spawns, else inline. Each shard
//! task, under that shard's writer lock, applies the store mutation,
//! takes a fresh version number, and builds the successor
//! [`ShardSnapshot`] from the previous one — carrying untouched entries
//! forward by `Arc` clone and re-serializing exactly the dirty-cluster
//! delta the store reports. When every task is done, one publish step
//! (serialized by a publish lock) splices the new shard snapshots into
//! the published [`StoreSnapshot`], rebuilds the response bodies of
//! exactly the categories whose entries changed (pointer diff), and
//! installs the whole thing with a single pointer swap.
//!
//! # Read path: no locks held, no serializer run
//!
//! Readers load the published snapshot (one refcount increment via
//! [`SnapshotCell`]) and then operate on immutable data: `products()`,
//! `products_in_category()`, and `product_for()` see one consistent
//! point in time, and [`ShardedStore::products_response`] answers the
//! hot `GET /products/{category}` with pre-serialized shared bytes. A
//! multi-shard batch becomes visible all at once or not at all — the
//! torn cross-shard read the old sequential-lock read path allowed is
//! impossible by construction (pinned by
//! `concurrent_reader_never_observes_partial_batch`).
//!
//! # Equivalence to the single store
//!
//! Every observable output is byte-identical to one [`ProductStore`] fed
//! the same stream:
//!
//! - an offer's cluster key is a pure function of the offer (shared
//!   [`KeyAttributes::route`]), and the shard is a pure function of the
//!   key, so sharding never changes cluster contents or member order;
//! - reads merge shard outputs back into cluster-key order, which is the
//!   single store's `BTreeMap` iteration order, and cached response
//!   bodies join per-product JSON exactly as the serializer would;
//! - [`ShardedStore::snapshot_json`] merges the disjoint shards into one
//!   `ProductStore` before serializing, so the snapshot is the *same
//!   bytes* regardless of shard count — the oracle every equivalence
//!   test compares against. Resharding goes through the same merge:
//!   [`ShardedStore::from_store`] over [`ShardedStore::to_store`].
//!
//! The property is pinned by proptests in `tests/sharded_equivalence.rs`
//! over arbitrary ingest/retract interleavings at 1/2/4/8 shards.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use pse_core::{Catalog, CategoryId, CorrespondenceSet, Offer, OfferId};
use pse_store::{ClusterKey, IngestStats, ProductStore};
use pse_synthesis::runtime::{reconcile_batch, KeyAttributes};
use pse_synthesis::{ReconciledOffer, RuntimeConfig, SpecProvider, SynthesizedProduct};
use pse_wal::WalRecord;

use crate::metrics;
use crate::snapshot::{
    changed_categories, empty_response, ResponseSlot, SearchSlot, ShardSnapshot, SnapshotCell,
    StoreSnapshot,
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

/// One shard's write result: its delta stats plus, when the shard's
/// snapshot changed, the replacement to publish as `(shard index, snapshot)`.
type ShardWrite = (IngestStats, Option<ShardUpdate>);

/// A replacement snapshot for one shard, ready to publish.
pub(crate) type ShardUpdate = (usize, Arc<ShardSnapshot>);

/// A completed sharded write: the merged batch stats plus the indices of
/// the shards the batch actually changed — the incremental-snapshot
/// layer (`pse-wal`) marks exactly these segments dirty.
pub struct ShardedWrite {
    /// Merged per-shard ingest/retract stats.
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

/// One shard's writer state: the mutable store plus the latest snapshot
/// *built* for this shard (which may be newer than the published one
/// while a publish is pending). Successors are always built from
/// `latest`, never from the published snapshot, so concurrent same-shard
/// writers each carry the other's changes forward.
struct ShardWriter {
    store: ProductStore,
    latest: Arc<ShardSnapshot>,
}

/// A shard-partitioned product store safe to share across server worker
/// threads (`&self` ingest/retract/read). See the module docs for the
/// snapshot protocol and the equivalence guarantee.
pub struct ShardedStore {
    correspondences: CorrespondenceSet,
    config: RuntimeConfig,
    /// Routing table derived from `config.key_attributes`.
    keys: KeyAttributes,
    /// One writer lock per shard. Without a WAL they serialize
    /// concurrent same-shard writers. With one, the commit queue never
    /// runs two apply passes at once, so the locks are uncontended
    /// among writers: they lend `&mut` to the `pse-par` shard tasks and
    /// order a pass against the writer-side readers (`offer_count`,
    /// `to_store`, `shard_clusters_value`).
    shards: Vec<RwLock<ShardWriter>>,
    /// The snapshot readers load; replaced wholesale on publish.
    published: SnapshotCell,
    /// Serializes publishers (snapshot *construction* stays parallel).
    publish_lock: Mutex<()>,
    /// Source of per-shard snapshot versions, taken under the shard's
    /// writer lock so versions order consistently with mutations.
    versions: AtomicU64,
}

impl ShardedStore {
    /// Empty sharded store with the default pipeline configuration.
    pub fn new(correspondences: CorrespondenceSet, n_shards: usize) -> Self {
        Self::with_config(correspondences, RuntimeConfig::default(), n_shards)
    }

    /// Empty sharded store with a custom pipeline configuration.
    pub fn with_config(
        correspondences: CorrespondenceSet,
        config: RuntimeConfig,
        n_shards: usize,
    ) -> Self {
        let n = n_shards.max(1);
        let stores = (0..n)
            .map(|_| ProductStore::with_config(correspondences.clone(), config.clone()))
            .collect();
        Self::from_shard_stores(correspondences, config, stores)
    }

    /// Wrap an existing single store, splitting its clusters across
    /// `n_shards` shards.
    pub fn from_store(store: ProductStore, n_shards: usize) -> Self {
        let n = n_shards.max(1);
        let correspondences = store.correspondences().clone();
        let config = store.config().clone();
        let stores = store.split_by(n, |key| shard_of(key, n));
        Self::from_shard_stores(correspondences, config, stores)
    }

    fn from_shard_stores(
        correspondences: CorrespondenceSet,
        config: RuntimeConfig,
        stores: Vec<ProductStore>,
    ) -> Self {
        let keys = KeyAttributes::new(&config.key_attributes);
        let snapshots: Vec<Arc<ShardSnapshot>> = stores
            .iter()
            .enumerate()
            .map(|(i, s)| Arc::new(ShardSnapshot::from_store(i as u64 + 1, s)))
            .collect();
        let categories: BTreeSet<CategoryId> =
            snapshots.iter().flat_map(|s| s.categories.keys().copied()).collect();
        let responses = categories
            .iter()
            .map(|&c| (c, Arc::new(ResponseSlot::default())))
            .collect::<BTreeMap<_, _>>();
        let search = categories.into_iter().map(|c| (c, Arc::new(SearchSlot::default()))).collect();
        let versions = AtomicU64::new(snapshots.len() as u64);
        let shards = stores
            .into_iter()
            .zip(&snapshots)
            .map(|(store, snap)| RwLock::new(ShardWriter { store, latest: Arc::clone(snap) }))
            .collect();
        let published =
            SnapshotCell::new(Arc::new(StoreSnapshot { shards: snapshots, responses, search }));
        Self {
            correspondences,
            config,
            keys,
            shards,
            published,
            publish_lock: Mutex::new(()),
            versions,
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The pipeline configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The correspondence set in use.
    pub fn correspondences(&self) -> &CorrespondenceSet {
        &self.correspondences
    }

    /// Offers currently held, summed over shards (writer-side view).
    pub fn offer_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("shard lock").store.offer_count()).sum()
    }

    /// Clusters currently held, summed over shards (writer-side view).
    pub fn cluster_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().expect("shard lock").store.cluster_count()).sum()
    }

    /// The currently published read snapshot. Every read made through
    /// one snapshot is consistent with every other; requests should load
    /// it once and answer entirely from it.
    pub fn snapshot(&self) -> Arc<StoreSnapshot> {
        self.published.load()
    }

    /// Ingest a batch: reconcile once (in parallel, order-preserving),
    /// partition the reconciled offers by target shard, apply and build
    /// successor snapshots on the touched shards (concurrently for a
    /// large batch), then publish everything with one pointer swap.
    /// Takes `&self`; only the shards the batch actually hashes to take
    /// their writer lock.
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
    /// then applies them via [`ShardedStore::ingest_reconciled`] — so
    /// replay never needs the `SpecProvider`.
    pub fn reconcile<P: SpecProvider>(
        &self,
        offers: &[Offer],
        provider: &P,
    ) -> Vec<ReconciledOffer> {
        reconcile_batch(offers, &self.correspondences, provider)
    }

    /// Apply already-reconciled offers (the second half of
    /// [`ShardedStore::ingest`]): partition by target shard, apply and
    /// build successor snapshots (concurrently for a large batch),
    /// publish with one swap.
    /// `stats.offers_in` counts only the offers that routed to a shard;
    /// the offer-level wrapper overwrites it with the raw batch size.
    pub fn ingest_reconciled(
        &self,
        catalog: &Catalog,
        reconciled: Vec<ReconciledOffer>,
    ) -> ShardedWrite {
        let (write, updates) = self.ingest_reconciled_unpublished(catalog, reconciled);
        self.publish(updates);
        write
    }

    /// Apply one logged mutation minus the publish step: the shard
    /// stores mutate and successor snapshots are built, but nothing
    /// becomes visible to readers until the returned updates go through
    /// [`ShardedStore::publish`]. The durable write path's apply pass
    /// runs a whole batch of commits this way and publishes once.
    pub(crate) fn apply_unpublished(
        &self,
        catalog: &Catalog,
        record: WalRecord,
    ) -> (ShardedWrite, Vec<ShardUpdate>) {
        match record {
            WalRecord::Ingest(reconciled) => {
                self.ingest_reconciled_unpublished(catalog, reconciled)
            }
            WalRecord::Retract(ids) => self.retract_unpublished(catalog, &ids),
        }
    }

    /// [`ShardedStore::ingest_reconciled`] minus the publish step.
    fn ingest_reconciled_unpublished(
        &self,
        catalog: &Catalog,
        reconciled: Vec<ReconciledOffer>,
    ) -> (ShardedWrite, Vec<ShardUpdate>) {
        let n = self.shards.len();
        // Route once, count, then drain into exactly-sized buckets — no
        // per-shard Vec growth and no allocation for shards the batch
        // never touches. Offers the router drops here would be dropped
        // identically by any shard; routing again inside the shard is
        // cheap and keeps `ProductStore::ingest_reconciled` the single
        // source of truth.
        let routes: Vec<Option<usize>> = reconciled
            .iter()
            .map(|r| {
                self.keys.route(r).map(|(attr, value)| shard_of(&(r.category, attr, value), n))
            })
            .collect();
        let mut counts = vec![0usize; n];
        for &shard in routes.iter().flatten() {
            counts[shard] += 1;
        }
        let mut parts: Vec<Vec<ReconciledOffer>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (r, route) in reconciled.into_iter().zip(&routes) {
            if let Some(i) = route {
                parts[*i].push(r);
            }
        }
        let work: Vec<(usize, Mutex<Option<Vec<ReconciledOffer>>>)> = parts
            .into_iter()
            .enumerate()
            .filter(|(_, batch)| !batch.is_empty())
            .map(|(i, batch)| (i, Mutex::new(Some(batch))))
            .collect();
        let results: Vec<ShardWrite> = shard_tasks(&work, routes.len(), |(i, slot)| {
            let batch = slot.lock().expect("batch slot").take().unwrap_or_default();
            let mut writer = self.shards[*i].write().expect("shard lock");
            let delta = writer.store.ingest_reconciled_delta(catalog, batch);
            let update = self.rebuild_snapshot(&mut writer, &delta.dirty).map(|s| (*i, s));
            (delta.stats, update)
        });
        self.collect_write(results)
    }

    /// Remove offers by id, re-fusing affected clusters. Each shard owns
    /// the index for its own offers, so every shard is *probed* — but
    /// only under its cheap reader lock; a shard owning none of the ids
    /// takes no writer lock, mutates nothing, and keeps its published
    /// snapshot pointer-identical.
    pub fn retract(&self, catalog: &Catalog, ids: &[OfferId]) -> IngestStats {
        let (mut write, updates) = self.retract_unpublished(catalog, ids);
        self.publish(updates);
        write.stats.offers_in = ids.len();
        write.stats
    }

    /// [`ShardedStore::retract`] minus the publish step
    /// (`stats.offers_in` is left at 0; the caller sets it).
    fn retract_unpublished(
        &self,
        catalog: &Catalog,
        ids: &[OfferId],
    ) -> (ShardedWrite, Vec<ShardUpdate>) {
        let idx: Vec<usize> = (0..self.shards.len()).collect();
        let results: Vec<ShardWrite> = shard_tasks(&idx, ids.len(), |&i| {
            if !self.shards[i].read().expect("shard lock").store.owns_any(ids) {
                return (IngestStats::default(), None);
            }
            let mut writer = self.shards[i].write().expect("shard lock");
            let delta = writer.store.retract_delta(catalog, ids);
            let update = self.rebuild_snapshot(&mut writer, &delta.dirty).map(|s| (i, s));
            (delta.stats, update)
        });
        self.collect_write(results)
    }

    /// Merge per-shard results and report which shards changed, leaving
    /// the successor snapshots unpublished for the caller to batch.
    fn collect_write(&self, results: Vec<ShardWrite>) -> (ShardedWrite, Vec<ShardUpdate>) {
        let mut updates = Vec::new();
        let mut total = IngestStats::default();
        for (stats, update) in results {
            total = merge_stats(total, stats);
            updates.extend(update);
        }
        let dirty_shards: Vec<usize> = updates.iter().map(|(i, _)| *i).collect();
        (ShardedWrite { stats: total, dirty_shards }, updates)
    }

    /// Build the successor snapshot for one shard under its held writer
    /// lock. Returns `None` when the operation touched nothing (the
    /// snapshot stays pointer-stable).
    fn rebuild_snapshot(
        &self,
        writer: &mut ShardWriter,
        dirty: &[ClusterKey],
    ) -> Option<Arc<ShardSnapshot>> {
        if dirty.is_empty() {
            return None;
        }
        let version = self.versions.fetch_add(1, Ordering::SeqCst) + 1;
        let snap = Arc::new(writer.latest.rebuilt(version, &writer.store, dirty));
        writer.latest = Arc::clone(&snap);
        Some(snap)
    }

    /// Splice `updates` into the published snapshot and swap it in.
    /// Serialized by the publish lock; a snapshot older than what is
    /// already live (a concurrent same-shard writer published past us)
    /// is skipped — its changes are already included in the newer one.
    /// Response bodies are rebuilt for exactly the categories whose
    /// entries changed, found by pointer diff, and counted as
    /// `serve.cache.invalidated`.
    pub(crate) fn publish(&self, updates: Vec<ShardUpdate>) {
        if updates.is_empty() {
            return;
        }
        let _guard = self.publish_lock.lock().expect("publish lock");
        let current = self.published.load();
        let mut shards = current.shards.clone();
        let mut dirty_categories: BTreeSet<CategoryId> = BTreeSet::new();
        for (i, snap) in updates {
            if snap.version <= shards[i].version {
                continue;
            }
            changed_categories(&shards[i], &snap, &mut dirty_categories);
            shards[i] = snap;
        }
        if dirty_categories.is_empty() {
            return;
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
        pse_obs::add(metrics::CACHE_INVALIDATED, dirty_categories.len() as u64);
        self.published.swap(Arc::new(StoreSnapshot { shards, responses, search }));
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
    /// JSON. No shard lock, no serializer — and because every index is
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

    /// Merge the shards into one store and snapshot it — byte-identical
    /// to the snapshot of a single [`ProductStore`] fed the same stream,
    /// whatever the shard count.
    pub fn snapshot_json(&self) -> String {
        self.to_store().snapshot_json()
    }

    /// Collapse into one single-threaded store (cluster state moves, no
    /// re-fusion). Reads the writer-side stores shard by shard; callers
    /// should quiesce writers first.
    pub fn to_store(&self) -> ProductStore {
        let mut merged =
            ProductStore::with_config(self.correspondences.clone(), self.config.clone());
        for shard in &self.shards {
            merged.absorb(shard.read().expect("shard lock").store.clone());
        }
        merged
    }

    /// One shard's cluster map as a serialization-ready [`Value`] — the
    /// payload of that shard's binary snapshot segment. Reads the
    /// writer-side store under the shard's reader lock.
    pub fn shard_clusters_value(&self, shard: usize) -> serde::Value {
        self.shards[shard].read().expect("shard lock").store.clusters_value()
    }
}

/// Batches of fewer offers (or retracted ids) than this run their shard
/// tasks inline on the calling thread. Measured on a 2-CPU host against
/// a store preloaded like the benchmark's: one scoped spawn + join costs
/// ~30 µs, about two offers' apply (12–15 µs per offer), and
/// `ingest_reconciled` at two threads loses to one below ~256 offers (8
/// offers: 100–113 → 222–240 µs; 128: 1.5–1.7 → 1.7–2.2 ms), breaks even
/// at 256 and wins from 512 (1,000: 9.9–14.5 → 9.0–11.7 ms). So an
/// 8-offer commit or a retract of a few ids never spawns, and a
/// 1,000-offer preload batch still fans out.
const PAR_APPLY_MIN_BATCH: usize = 256;

/// Run one write's shard tasks, order-preserving: on `pse-par` workers
/// when its batch of `batch` offers or ids is large enough to pay for
/// the spawns, else inline on the caller's thread.
fn shard_tasks<T: Sync, U: Send>(
    work: &[T],
    batch: usize,
    task: impl Fn(&T) -> U + Sync,
) -> Vec<U> {
    let min_chunk = if batch < PAR_APPLY_MIN_BATCH { work.len() } else { 1 };
    pse_par::par_map_chunked(work, min_chunk, task)
}

fn merge_stats(mut acc: IngestStats, s: IngestStats) -> IngestStats {
    acc.offers_in += s.offers_in;
    acc.offers_routed += s.offers_routed;
    acc.clusters_dirty += s.clusters_dirty;
    acc.refused += s.refused;
    acc
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
