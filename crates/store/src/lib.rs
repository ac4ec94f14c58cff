//! A persistent, incrementally maintained product store.
//!
//! [`RuntimePipeline::process`](pse_synthesis::RuntimePipeline) is
//! batch-only: every call re-reconciles, re-clusters, and re-fuses the
//! entire offer set. A PSE that continuously receives merchant feeds needs
//! the catalog to be a live structure instead — [`ProductStore`] holds
//! reconciled cluster state keyed by `(category, key_attribute, normalized
//! key_value)` and, on [`ProductStore::ingest`], re-fuses only the clusters
//! a batch actually touched. Steady-state cost is proportional to the
//! batch, not the corpus.
//!
//! # Batch equivalence
//!
//! Ingesting any partition of an offer stream, in any batch sizes, yields
//! **byte-identical** products to one `RuntimePipeline::process` call over
//! the concatenation, for streams in which an offer id keeps its cluster
//! key. (An offer re-ingested under a new key *moves*: it leaves its old
//! cluster as a retraction would, where the batch pipeline would count it
//! in both.) The guarantee holds by construction:
//!
//! - per-offer reconciliation and key routing are pure functions of the
//!   offer (shared with the batch path via
//!   [`pse_synthesis::reconcile_batch`] and [`KeyAttributes::route`]),
//!   so batch boundaries cannot change where an offer lands;
//! - cluster members are appended in stream order, which equals the order
//!   `cluster_by_key` would see over the concatenation;
//! - fusion ([`pse_synthesis::fuse_cluster`]) is a deterministic function
//!   of the member sequence, re-run whenever a cluster is dirty;
//! - products are emitted in `BTreeMap` key order — the same
//!   `(category, key_attribute, key_value)` order the batch pipeline sorts
//!   its clusters into.
//!
//! The property is enforced by proptests (`tests/incremental_store.rs` at
//! the workspace root) at 1 and 4 threads; `experiments incremental`
//! replays the Table-2 corpus the same way and fails on any divergence.

use std::collections::{BTreeMap, BTreeSet};

use pse_core::{Catalog, CategoryId, CorrespondenceSet, Offer, OfferId};
use pse_synthesis::runtime::{
    advance_cluster_fusion, fuse_cluster_cached, reconcile_batch, Cluster, ClusterFusionCache,
    KeyAttributes,
};
use pse_synthesis::{ReconciledOffer, RuntimeConfig, SpecProvider, SynthesizedProduct};
use serde::{Deserialize, Serialize};

/// Snapshot format version; bumped on incompatible layout changes.
pub const SNAPSHOT_VERSION: u32 = 1;

/// Applies of fewer offers (or retracted ids) than this run on the
/// calling thread: the re-fusion here and the read-snapshot rebuild in
/// `pse-serve`. Measured on a 2-CPU host against a store preloaded like
/// the benchmark's: one scoped spawn + join costs ~30 µs, about two
/// offers' apply (12–15 µs per offer), and `ingest_reconciled` at two
/// threads loses to one below ~256 offers (8 offers: 100–113 → 222–240
/// µs; 128: 1.5–1.7 → 1.7–2.2 ms), breaks even at 256 and wins from 512
/// (1,000: 9.9–14.5 → 9.0–11.7 ms). So an 8-offer commit or a retract of
/// a few ids never spawns, and a 1,000-offer preload batch still fans out.
pub const PAR_APPLY_MIN_BATCH: usize = 256;

/// The store's metric names, each written once.
pub mod metrics {
    pse_obs::metric_set! {
        /// Every `store.*` counter. Each span-emitting entry point seeds
        /// the set, so any run that touched the store reports all of it,
        /// even when it never snapshots, retracts or refuses an offer.
        METRICS {
            counters {
                INGEST = "store.ingest",
                CLUSTERS_DIRTY = "store.clusters_dirty",
                REFUSED = "store.refused",
                RETRACTED = "store.retracted",
                SNAPSHOT = "store.snapshot",
            }
            histograms {}
        }
    }
}
pub use metrics::METRICS;

/// Why a store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The snapshot was not valid JSON for the expected layout.
    Json(String),
    /// The snapshot was written by an incompatible store version.
    UnsupportedVersion {
        /// Version found in the snapshot.
        found: u32,
        /// Version this build reads ([`SNAPSHOT_VERSION`]).
        expected: u32,
    },
    /// The snapshot parsed but describes an impossible store — e.g. one
    /// offer claimed by two different clusters. Restoring it silently
    /// would let corruption masquerade as a healthy catalog.
    CorruptSnapshot(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Json(msg) => write!(f, "snapshot parse error: {msg}"),
            Self::UnsupportedVersion { found, expected } => {
                write!(f, "snapshot version {found} unsupported (expected {expected})")
            }
            Self::CorruptSnapshot(msg) => write!(f, "corrupt snapshot: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Identity of a cluster: `(category, key attribute, normalized key value)`.
/// `BTreeMap` iteration over this key reproduces the batch pipeline's
/// cluster output order exactly.
pub type ClusterKey = (CategoryId, String, String);

/// One cluster's persistent state.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct ClusterState {
    /// Members in stream (ingestion) order.
    members: Vec<ReconciledOffer>,
    /// Cached fusion result; `None` when the cluster is below
    /// `min_cluster_size` or its category is unknown to the catalog.
    fused: Option<SynthesizedProduct>,
    /// Whether membership changed since the last fusion.
    dirty: bool,
}

/// What one [`ProductStore::ingest`] (or [`ProductStore::retract`]) did —
/// the numbers the incremental experiment reports per batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestStats {
    /// Offers in the batch.
    pub offers_in: usize,
    /// Offers that reconciled and routed to a cluster.
    pub offers_routed: usize,
    /// Clusters whose membership changed.
    pub clusters_dirty: usize,
    /// Dirty clusters actually re-fused (≥ `min_cluster_size`).
    pub refused: usize,
}

/// One ingest/retract's outcome with the precise set of clusters it
/// touched — what an MVCC front (`pse-serve`) needs to rebuild only the
/// affected entries of an immutable read snapshot.
#[derive(Debug, Clone, Default)]
pub struct IngestDelta {
    /// The batch-level numbers ([`IngestStats`] semantics unchanged).
    pub stats: IngestStats,
    /// Every cluster whose visible product may have changed, in key
    /// order: clusters that gained or lost members, including clusters
    /// that vanished entirely (their last member retracted or re-keyed
    /// away). This is a superset of `stats.clusters_dirty`, which counts
    /// only clusters that still exist.
    pub dirty: Vec<ClusterKey>,
}

/// The serialized form of a store (see [`ProductStore::snapshot_json`]).
#[derive(Serialize, Deserialize)]
struct Snapshot {
    schema_version: u32,
    config: RuntimeConfig,
    correspondences: CorrespondenceSet,
    clusters: BTreeMap<ClusterKey, ClusterState>,
}

/// A persistent product catalog maintained incrementally from offer
/// batches. See the crate docs for the batch-equivalence guarantee.
#[derive(Debug, Clone)]
pub struct ProductStore {
    correspondences: CorrespondenceSet,
    config: RuntimeConfig,
    /// Routing table derived from `config.key_attributes` (not persisted).
    keys: KeyAttributes,
    clusters: BTreeMap<ClusterKey, ClusterState>,
    /// Reverse index for `retract`: which cluster holds each offer.
    offer_index: BTreeMap<OfferId, ClusterKey>,
    /// Per-cluster incremental fusion state. Purely an accelerator: never
    /// serialized (snapshots stay byte-identical and restored stores
    /// rebuild entries lazily on first re-fusion), dropped for a cluster
    /// whenever its member list mutates non-monotonically (retraction).
    fusion: BTreeMap<ClusterKey, ClusterFusionCache>,
}

impl ProductStore {
    /// Empty store with the default pipeline configuration.
    pub fn new(correspondences: CorrespondenceSet) -> Self {
        Self::with_config(correspondences, RuntimeConfig::default())
    }

    /// Empty store with a custom pipeline configuration.
    pub fn with_config(correspondences: CorrespondenceSet, config: RuntimeConfig) -> Self {
        let keys = KeyAttributes::new(&config.key_attributes);
        Self {
            correspondences,
            config,
            keys,
            clusters: BTreeMap::new(),
            offer_index: BTreeMap::new(),
            fusion: BTreeMap::new(),
        }
    }

    /// The correspondence set in use.
    pub fn correspondences(&self) -> &CorrespondenceSet {
        &self.correspondences
    }

    /// The pipeline configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// Number of clusters currently held (including below-minimum ones).
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Number of offers currently held across all clusters.
    pub fn offer_count(&self) -> usize {
        self.clusters.values().map(|s| s.members.len()).sum()
    }

    /// Ingest a batch: reconcile (in parallel, order-preserving), route
    /// each offer to its cluster, and re-fuse only the clusters this batch
    /// touched. Offers without a category, with no mapped pairs, or with no
    /// usable key are dropped exactly as the batch pipeline drops them.
    pub fn ingest<P: SpecProvider>(
        &mut self,
        catalog: &Catalog,
        offers: &[Offer],
        provider: &P,
    ) -> IngestStats {
        let _span = pse_obs::span("store.ingest");
        pse_obs::add(metrics::INGEST, offers.len() as u64);
        let reconciled = reconcile_batch(offers, &self.correspondences, provider);
        let mut stats = self.ingest_reconciled(catalog, reconciled);
        stats.offers_in = offers.len();
        stats
    }

    /// Ingest offers that are already reconciled (the second half of
    /// [`ProductStore::ingest`]): route each to its cluster and re-fuse
    /// only the touched clusters. This is the entry point for logged
    /// batches: reconciled once, they replay without the `SpecProvider`.
    ///
    /// `offers_in` in the returned stats equals the reconciled count; the
    /// offer-level wrapper overwrites it with the raw batch size.
    pub fn ingest_reconciled(
        &mut self,
        catalog: &Catalog,
        reconciled: Vec<ReconciledOffer>,
    ) -> IngestStats {
        self.ingest_reconciled_delta(catalog, reconciled).stats
    }

    /// [`ProductStore::ingest_reconciled`] with the exact dirty-cluster
    /// set attached — the invalidation signal the serving layer's
    /// snapshot/response cache consumes.
    pub fn ingest_reconciled_delta(
        &mut self,
        catalog: &Catalog,
        reconciled: Vec<ReconciledOffer>,
    ) -> IngestDelta {
        METRICS.seed();
        let offers_in = reconciled.len();
        let mut dirty: BTreeSet<ClusterKey> = BTreeSet::new();
        let mut vanished: BTreeSet<ClusterKey> = BTreeSet::new();
        let mut offers_routed = 0;
        let mut clusters_formed = 0u64;
        for r in reconciled {
            let Some((attr, value)) = self.keys.route(&r) else { continue };
            let key = (r.category, attr, value);
            // An offer re-ingested under a new key moves: it leaves its
            // old cluster exactly as a retraction would. Under the same
            // key it becomes a duplicate member.
            if let Some(old) = self.offer_index.insert(r.offer, key.clone()) {
                if old != key {
                    self.remove_member(old, r.offer, &mut dirty, &mut vanished);
                }
            }
            let state = match self.clusters.entry(key.clone()) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    clusters_formed += 1;
                    slot.insert(ClusterState::default())
                }
                std::collections::btree_map::Entry::Occupied(slot) => slot.into_mut(),
            };
            state.members.push(r);
            state.dirty = true;
            dirty.insert(key);
            offers_routed += 1;
        }
        pse_obs::add("runtime.clusters_formed", clusters_formed);
        self.finish_delta(catalog, dirty, vanished, offers_in, offers_routed)
    }

    /// Remove offers by id, re-fusing the affected clusters. Unknown ids
    /// are ignored. A cluster whose last member is retracted disappears.
    pub fn retract(&mut self, catalog: &Catalog, ids: &[OfferId]) -> IngestStats {
        self.retract_delta(catalog, ids).stats
    }

    /// [`ProductStore::retract`] with the exact dirty-cluster set
    /// attached. Unlike `stats.clusters_dirty`, the delta also lists
    /// clusters that vanished (last member retracted), because their
    /// disappearance invalidates cached reads just as surely.
    pub fn retract_delta(&mut self, catalog: &Catalog, ids: &[OfferId]) -> IngestDelta {
        let _span = pse_obs::span("store.retract");
        METRICS.seed();
        let mut dirty: BTreeSet<ClusterKey> = BTreeSet::new();
        let mut vanished: BTreeSet<ClusterKey> = BTreeSet::new();
        let mut removed = 0;
        for id in ids {
            let Some(key) = self.offer_index.remove(id) else { continue };
            removed += usize::from(self.remove_member(key, *id, &mut dirty, &mut vanished));
        }
        pse_obs::add(metrics::RETRACTED, removed as u64);
        self.finish_delta(catalog, dirty, vanished, ids.len(), removed)
    }

    /// Take offer `id` out of cluster `key`: the cluster is marked dirty,
    /// or vanishes when `id` was its last member. A removal is not an
    /// append, so the cluster's incremental fusion state no longer
    /// describes its members: it is dropped, and the next re-fusion
    /// rebuilds from the retained members. Returns whether the cluster
    /// existed.
    fn remove_member(
        &mut self,
        key: ClusterKey,
        id: OfferId,
        dirty: &mut BTreeSet<ClusterKey>,
        vanished: &mut BTreeSet<ClusterKey>,
    ) -> bool {
        let Some(state) = self.clusters.get_mut(&key) else { return false };
        state.members.retain(|m| m.offer != id);
        self.fusion.remove(&key);
        if state.members.is_empty() {
            self.clusters.remove(&key);
            vanished.insert(key);
        } else {
            state.dirty = true;
            dirty.insert(key);
        }
        true
    }

    /// Re-fuse `dirty` and report the delta: `dirty` counts in the stats,
    /// and the vanished clusters join it in the key list, because their
    /// disappearance invalidates cached reads just as surely.
    fn finish_delta(
        &mut self,
        catalog: &Catalog,
        mut dirty: BTreeSet<ClusterKey>,
        mut vanished: BTreeSet<ClusterKey>,
        offers_in: usize,
        offers_routed: usize,
    ) -> IngestDelta {
        pse_obs::add(metrics::CLUSTERS_DIRTY, dirty.len() as u64);
        let refused = self.refuse(catalog, &dirty, offers_in);
        let stats = IngestStats { offers_in, offers_routed, clusters_dirty: dirty.len(), refused };
        dirty.append(&mut vanished);
        IngestDelta { stats, dirty: dirty.into_iter().collect() }
    }

    /// Whether any of `ids` is currently held by this store.
    pub fn owns_any(&self, ids: &[OfferId]) -> bool {
        ids.iter().any(|id| self.offer_index.contains_key(id))
    }

    /// Re-fuse the given dirty clusters (in parallel, order-preserving,
    /// for a `batch` of at least [`PAR_APPLY_MIN_BATCH`] offers or ids);
    /// clusters below `min_cluster_size` just drop their cached product.
    fn refuse(&mut self, catalog: &Catalog, dirty: &BTreeSet<ClusterKey>, batch: usize) -> usize {
        let mut work: Vec<(ClusterKey, Cluster, ClusterFusionCache)> = Vec::new();
        for key in dirty {
            let Some(state) = self.clusters.get_mut(key) else { continue };
            if state.members.len() < self.config.min_cluster_size {
                state.fused = None;
                state.dirty = false;
                continue;
            }
            // Fold the members appended since the last re-fusion into the
            // cluster's incremental fusion state (building it from scratch
            // after a restore or a retraction), then move both members and
            // cache out so fusion borrows no `&mut self` state; they are
            // put back below.
            let cache = self.fusion.entry(key.clone()).or_default();
            advance_cluster_fusion(catalog, key.0, &state.members, &self.config, cache);
            let cache = std::mem::take(cache);
            let members = std::mem::take(&mut state.members);
            let cluster = Cluster {
                category: key.0,
                key_attribute: key.1.clone(),
                key_value: key.2.clone(),
                members,
            };
            work.push((key.clone(), cluster, cache));
        }
        let refuse_span = pse_obs::span("store.refuse");
        let min_chunk = if batch < PAR_APPLY_MIN_BATCH { work.len() } else { 4 };
        let fused: Vec<Option<SynthesizedProduct>> =
            pse_par::par_map_chunked(&work, min_chunk, |(_, cluster, cache)| {
                fuse_cluster_cached(cluster, &self.config, cache)
            });
        drop(refuse_span);
        let refused = work.len();
        pse_obs::add(metrics::REFUSED, refused as u64);
        pse_obs::add(
            "runtime.values_fused",
            fused.iter().flatten().map(|p| p.spec.len() as u64).sum::<u64>(),
        );
        for ((key, cluster, cache), product) in work.into_iter().zip(fused) {
            let state = self.clusters.get_mut(&key).expect("cluster vanished during refuse");
            state.members = cluster.members;
            state.fused = product;
            state.dirty = false;
            self.fusion.insert(key, cache);
        }
        refused
    }

    /// Current products, in the exact order `RuntimePipeline::process`
    /// would emit them for the concatenated stream.
    pub fn products(&self) -> Vec<SynthesizedProduct> {
        self.products_keyed().map(|(_, p)| p.clone()).collect()
    }

    /// Current products with their cluster keys, in key order. The
    /// borrowing primitive behind [`ProductStore::products`] and the
    /// per-category / per-key lookups.
    pub fn products_keyed(&self) -> impl Iterator<Item = (&ClusterKey, &SynthesizedProduct)> {
        self.clusters
            .iter()
            .filter(|(_, s)| s.members.len() >= self.config.min_cluster_size)
            .filter_map(|(k, s)| s.fused.as_ref().map(|p| (k, p)))
    }

    /// The product synthesized for one cluster key, if any.
    pub fn product_for(&self, key: &ClusterKey) -> Option<&SynthesizedProduct> {
        let state = self.clusters.get(key)?;
        if state.members.len() < self.config.min_cluster_size {
            return None;
        }
        state.fused.as_ref()
    }

    /// Products of one category, in cluster-key order.
    pub fn products_in_category(&self, category: CategoryId) -> Vec<SynthesizedProduct> {
        self.products_keyed().filter(|(k, _)| k.0 == category).map(|(_, p)| p.clone()).collect()
    }

    /// Serialize the store to JSON. Restoring the snapshot and snapshotting
    /// again yields byte-identical JSON (all collection orders are
    /// deterministic).
    pub fn snapshot_json(&self) -> String {
        let _span = pse_obs::span("store.snapshot");
        METRICS.seed();
        pse_obs::incr(metrics::SNAPSHOT);
        let snapshot = Snapshot {
            schema_version: SNAPSHOT_VERSION,
            config: self.config.clone(),
            correspondences: self.correspondences.clone(),
            clusters: self.clusters.clone(),
        };
        serde_json::to_string_pretty(&snapshot).expect("snapshot serialization is infallible")
    }

    /// Rebuild a store from a [`ProductStore::snapshot_json`] string.
    /// A snapshot that parses but lists one offer in two different
    /// clusters is rejected as [`StoreError::CorruptSnapshot`] — an
    /// impossible state for a store maintained through `ingest`/`retract`.
    pub fn restore_json(json: &str) -> Result<Self, StoreError> {
        let _span = pse_obs::span("store.restore");
        METRICS.seed();
        let snapshot: Snapshot = serde_json::from_str(json).map_err(|e| StoreError::Json(e.0))?;
        if snapshot.schema_version != SNAPSHOT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                found: snapshot.schema_version,
                expected: SNAPSHOT_VERSION,
            });
        }
        let keys = KeyAttributes::new(&snapshot.config.key_attributes);
        let offer_index = Self::index_clusters(&snapshot.clusters)?;
        Ok(Self {
            correspondences: snapshot.correspondences,
            config: snapshot.config,
            keys,
            clusters: snapshot.clusters,
            offer_index,
            fusion: BTreeMap::new(),
        })
    }

    /// Build the offer → cluster reverse index, rejecting any offer that
    /// appears in two *different* clusters (the same offer listed twice
    /// in one cluster is a legitimate re-ingest, not corruption).
    fn index_clusters(
        clusters: &BTreeMap<ClusterKey, ClusterState>,
    ) -> Result<BTreeMap<OfferId, ClusterKey>, StoreError> {
        let mut index = BTreeMap::new();
        for (key, state) in clusters {
            for m in &state.members {
                if let Some(previous) = index.insert(m.offer, key.clone()) {
                    if previous != *key {
                        return Err(StoreError::CorruptSnapshot(format!(
                            "offer {} is claimed by two clusters: {previous:?} and {key:?}",
                            m.offer.0
                        )));
                    }
                }
            }
        }
        Ok(index)
    }

    /// Re-run the [`StoreError::CorruptSnapshot`] screen over the
    /// current cluster state — applied after a WAL replay lands on a
    /// restored store, where segment corruption could otherwise hide.
    pub fn validate_offer_index(&self) -> Result<(), StoreError> {
        Self::index_clusters(&self.clusters).map(|_| ())
    }

    /// Export the clusters whose key `keep` accepts as a serde `Value`
    /// tree — what a segmented binary snapshot persists per shard. The
    /// inverse is [`ProductStore::from_cluster_parts`].
    pub fn clusters_value_where(&self, keep: impl Fn(&ClusterKey) -> bool) -> serde::Value {
        self.clusters.iter().filter(|(k, _)| keep(k)).collect::<BTreeMap<_, _>>().to_value()
    }

    /// Rebuild a store from disjoint cluster-map parts (one per shard,
    /// each a [`ProductStore::clusters_value_where`] tree) plus the
    /// config and correspondences a snapshot's meta blob carries. Rejects
    /// a cluster key present in two parts, and the same
    /// offer-in-two-clusters corruption `restore_json` screens for.
    pub fn from_cluster_parts(
        config: RuntimeConfig,
        correspondences: CorrespondenceSet,
        parts: impl IntoIterator<Item = serde::Value>,
    ) -> Result<Self, StoreError> {
        let mut clusters: BTreeMap<ClusterKey, ClusterState> = BTreeMap::new();
        for part in parts {
            let map: BTreeMap<ClusterKey, ClusterState> =
                serde::Deserialize::from_value(&part).map_err(|e| StoreError::Json(e.0))?;
            for (key, state) in map {
                if clusters.insert(key.clone(), state).is_some() {
                    return Err(StoreError::CorruptSnapshot(format!(
                        "cluster {key:?} appears in two segments"
                    )));
                }
            }
        }
        let keys = KeyAttributes::new(&config.key_attributes);
        let offer_index = Self::index_clusters(&clusters)?;
        Ok(Self { correspondences, config, keys, clusters, offer_index, fusion: BTreeMap::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_core::{
        AttributeCorrespondence, AttributeDef, AttributeKind, CategorySchema, MerchantId, Spec,
        Taxonomy,
    };
    use pse_synthesis::{FnProvider, Pipeline};

    fn setup() -> (Catalog, CorrespondenceSet, Vec<Offer>) {
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Hard Drives",
            CategorySchema::from_attributes([
                AttributeDef::key("MPN", AttributeKind::Identifier),
                AttributeDef::key("UPC", AttributeKind::Identifier),
                AttributeDef::new("Speed", AttributeKind::Numeric),
                AttributeDef::new("Capacity", AttributeKind::Numeric),
            ]),
        );
        let catalog = Catalog::new(tax);
        let corr = |ap: &str, ao: &str, m: u32| AttributeCorrespondence {
            catalog_attribute: ap.into(),
            merchant_attribute: ao.into(),
            merchant: MerchantId(m),
            category: cat,
            score: 0.9,
        };
        let set = CorrespondenceSet::from_correspondences([
            corr("MPN", "mpn", 0),
            corr("UPC", "upc", 0),
            corr("Speed", "rpm", 0),
            corr("Capacity", "capacity", 0),
            corr("MPN", "mfr part", 1),
            corr("UPC", "upc", 1),
            corr("Speed", "speed", 1),
            corr("Capacity", "hard disk size", 1),
        ]);
        let offers = vec![
            mk(0, 0, cat, &[("MPN", "ABC123"), ("RPM", "7200 rpm"), ("Capacity", "500 GB")]),
            mk(
                1,
                1,
                cat,
                &[("Mfr. Part #", "abc-123"), ("Speed", "7200"), ("Hard Disk Size", "500")],
            ),
            mk(2, 1, cat, &[("Mfr. Part #", "XYZ999"), ("Speed", "5400")]),
            mk(3, 0, cat, &[("John D.", "nice drive")]), // noise only
            mk(4, 0, cat, &[("MPN", "—"), ("UPC", "0001112223334"), ("RPM", "5400 rpm")]),
        ];
        (catalog, set, offers)
    }

    fn mk(id: u64, merchant: u32, cat: CategoryId, pairs: &[(&str, &str)]) -> Offer {
        Offer {
            id: OfferId(id),
            merchant: MerchantId(merchant),
            price_cents: 100,
            image_url: None,
            category: Some(cat),
            url: String::new(),
            title: String::new(),
            spec: Spec::from_pairs(pairs.iter().copied()),
        }
    }

    fn provider() -> FnProvider<impl Fn(&Offer) -> Spec + Sync> {
        FnProvider(|o: &Offer| o.spec.clone())
    }

    fn products_json(products: &[SynthesizedProduct]) -> String {
        serde_json::to_string_pretty(&products.to_vec()).unwrap()
    }

    #[test]
    fn single_batch_matches_process() {
        let (catalog, set, offers) = setup();
        let one_shot = Pipeline::builder()
            .catalog(catalog.clone())
            .correspondences(set.clone())
            .build()
            .unwrap()
            .process(&offers, &provider());
        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers, &provider());
        assert_eq!(products_json(&store.products()), products_json(&one_shot.products));
    }

    #[test]
    fn split_batches_match_process() {
        let (catalog, set, offers) = setup();
        let one_shot = Pipeline::builder()
            .catalog(catalog.clone())
            .correspondences(set.clone())
            .build()
            .unwrap()
            .process(&offers, &provider());
        for split in 0..=offers.len() {
            let mut store = ProductStore::new(set.clone());
            store.ingest(&catalog, &offers[..split], &provider());
            store.ingest(&catalog, &offers[split..], &provider());
            assert_eq!(
                products_json(&store.products()),
                products_json(&one_shot.products),
                "split at {split}"
            );
        }
    }

    #[test]
    fn second_batch_refuses_only_touched_clusters() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set);
        let first = store.ingest(&catalog, &offers, &provider());
        assert_eq!(first.clusters_dirty, 3, "abc123, xyz999, and the UPC fallthrough");
        // A new offer for the existing abc123 cluster touches exactly one.
        let more =
            vec![mk(10, 0, offers[0].category.unwrap(), &[("MPN", "abc123"), ("RPM", "7200 rpm")])];
        let second = store.ingest(&catalog, &more, &provider());
        assert_eq!(second.clusters_dirty, 1);
        assert_eq!(second.refused, 1);
        assert_eq!(store.cluster_count(), 3);
    }

    #[test]
    fn empty_key_offer_falls_through_to_upc_cluster() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers, &provider());
        let products = store.products();
        let upc = products.iter().find(|p| p.key_attribute == "UPC").expect("UPC cluster");
        assert_eq!(upc.offers, vec![OfferId(4)]);
    }

    #[test]
    fn retract_restores_previous_products() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set.clone());
        store.ingest(&catalog, &offers, &provider());
        let before = products_json(&store.products());
        let extra = vec![mk(
            10,
            0,
            offers[0].category.unwrap(),
            &[("MPN", "abc123"), ("RPM", "10000 rpm")],
        )];
        store.ingest(&catalog, &extra, &provider());
        assert_ne!(products_json(&store.products()), before, "extra offer visible");
        let stats = store.retract(&catalog, &[OfferId(10)]);
        assert_eq!(stats.offers_routed, 1);
        assert_eq!(products_json(&store.products()), before, "retraction undoes the ingest");
    }

    #[test]
    fn retract_last_member_removes_cluster() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers, &provider());
        let n = store.cluster_count();
        store.retract(&catalog, &[OfferId(2)]); // xyz999 singleton
        assert_eq!(store.cluster_count(), n - 1);
        assert!(store.products().iter().all(|p| p.key_value != "xyz999"));
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers, &provider());
        let snap = store.snapshot_json();
        let restored = ProductStore::restore_json(&snap).unwrap();
        assert_eq!(restored.snapshot_json(), snap);
        assert_eq!(products_json(&restored.products()), products_json(&store.products()));
    }

    #[test]
    fn snapshot_restore_then_ingest_matches_uninterrupted() {
        let (catalog, set, offers) = setup();
        let mut uninterrupted = ProductStore::new(set.clone());
        uninterrupted.ingest(&catalog, &offers[..2], &provider());
        uninterrupted.ingest(&catalog, &offers[2..], &provider());

        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers[..2], &provider());
        let mut restored = ProductStore::restore_json(&store.snapshot_json()).unwrap();
        restored.ingest(&catalog, &offers[2..], &provider());
        assert_eq!(products_json(&restored.products()), products_json(&uninterrupted.products()));
    }

    #[test]
    fn bad_snapshot_version_rejected() {
        let (_, set, _) = setup();
        let store = ProductStore::new(set);
        let snap = store.snapshot_json().replace("\"schema_version\": 1", "\"schema_version\": 99");
        assert_eq!(
            ProductStore::restore_json(&snap).err(),
            Some(StoreError::UnsupportedVersion { found: 99, expected: SNAPSHOT_VERSION })
        );
    }

    #[test]
    fn garbage_snapshot_is_a_json_error() {
        let err = ProductStore::restore_json("not json").unwrap_err();
        assert!(matches!(err, StoreError::Json(_)));
        assert!(err.to_string().contains("snapshot parse error"));
    }

    #[test]
    fn duplicate_offer_across_clusters_is_corrupt() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers, &provider());
        let mut snap: Snapshot = serde_json::from_str(&store.snapshot_json()).unwrap();
        let keys: Vec<ClusterKey> = snap.clusters.keys().cloned().collect();
        assert!(keys.len() >= 2);
        // Corruption: the first cluster's first member also claimed by
        // the second cluster.
        let stray = snap.clusters[&keys[0]].members[0].clone();
        snap.clusters.get_mut(&keys[1]).unwrap().members.push(stray);
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let err = ProductStore::restore_json(&json).unwrap_err();
        assert!(matches!(err, StoreError::CorruptSnapshot(_)), "got {err:?}");
        assert!(err.to_string().contains("claimed by two clusters"));
    }

    #[test]
    fn duplicate_offer_within_one_cluster_is_a_legitimate_reingest() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers, &provider());
        let mut snap: Snapshot = serde_json::from_str(&store.snapshot_json()).unwrap();
        let key = snap.clusters.keys().next().unwrap().clone();
        let dup = snap.clusters[&key].members[0].clone();
        snap.clusters.get_mut(&key).unwrap().members.push(dup);
        let json = serde_json::to_string_pretty(&snap).unwrap();
        assert!(
            ProductStore::restore_json(&json).is_ok(),
            "same-cluster duplicate is not corruption"
        );
    }

    #[test]
    fn cluster_parts_roundtrip_matches_the_json_oracle() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set.clone());
        store.ingest(&catalog, &offers, &provider());
        let rebuilt = ProductStore::from_cluster_parts(
            store.config().clone(),
            set.clone(),
            [store.clusters_value_where(|_| true)],
        )
        .unwrap();
        assert_eq!(rebuilt.snapshot_json(), store.snapshot_json());
        rebuilt.validate_offer_index().unwrap();
        // Filtered parts (as per-shard segments are) rebuild identically.
        let parts = (0..3).map(|i| store.clusters_value_where(|key| key.2.len() % 3 == i));
        let merged = ProductStore::from_cluster_parts(store.config().clone(), set, parts).unwrap();
        assert_eq!(merged.snapshot_json(), store.snapshot_json());
    }

    #[test]
    fn overlapping_cluster_parts_are_corrupt() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set.clone());
        store.ingest(&catalog, &offers, &provider());
        let part = store.clusters_value_where(|_| true);
        let err =
            ProductStore::from_cluster_parts(store.config().clone(), set, [part.clone(), part])
                .unwrap_err();
        assert!(matches!(err, StoreError::CorruptSnapshot(_)), "got {err:?}");
        assert!(err.to_string().contains("two segments"));
    }

    #[test]
    fn reingest_under_a_new_key_moves_the_offer() {
        let (catalog, set, offers) = setup();
        let cat = offers[0].category.unwrap();
        let offer_7 =
            |mpn: &str| reconcile_batch(&[mk(7, 0, cat, &[("MPN", mpn)])], &set, &provider());
        let holding = |store: &ProductStore| {
            let products = store.products();
            products.into_iter().filter(|p| p.offers.contains(&OfferId(7))).collect::<Vec<_>>()
        };
        let mut store = ProductStore::new(set.clone());
        store.ingest(&catalog, &offers, &provider());
        store.ingest_reconciled(&catalog, offer_7("AAA111"));
        let delta = store.ingest_reconciled_delta(&catalog, offer_7("BBB222"));
        assert_eq!(holding(&store).len(), 1, "the offer left its old cluster");
        let keys: Vec<&str> = delta.dirty.iter().map(|k| k.2.as_str()).collect();
        assert_eq!(keys, ["aaa111", "bbb222"], "the vanished old cluster is listed dirty");
        let restored = ProductStore::restore_json(&store.snapshot_json()).unwrap();
        assert_eq!(restored.snapshot_json(), store.snapshot_json());
        // Under the same key again: a duplicate member, as before.
        store.ingest_reconciled(&catalog, offer_7("BBB222"));
        assert_eq!(holding(&store)[0].offers, [OfferId(7), OfferId(7)]);
        store.retract(&catalog, &[OfferId(7)]);
        assert!(holding(&store).is_empty(), "a retract leaves no product holding the offer");
    }

    #[test]
    fn keyed_lookups_agree_with_products() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers, &provider());
        let products = store.products();
        assert!(!products.is_empty());
        let keys: Vec<ClusterKey> = store.products_keyed().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys.len(), products.len());
        for (key, product) in keys.iter().zip(&products) {
            assert_eq!(
                serde_json::to_string(store.product_for(key).unwrap()).unwrap(),
                serde_json::to_string(product).unwrap()
            );
        }
        let cat = offers[0].category.unwrap();
        assert_eq!(store.products_in_category(cat).len(), products.len());
        assert!(store.products_in_category(CategoryId(4242)).is_empty());
        assert!(store.product_for(&(CategoryId(4242), "MPN".into(), "zzz".into())).is_none());
    }

    #[test]
    fn ingest_delta_lists_exactly_the_touched_clusters() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set.clone());
        let reconciled = reconcile_batch(&offers, &set, &provider());
        let delta = store.ingest_reconciled_delta(&catalog, reconciled);
        assert_eq!(delta.stats.clusters_dirty, 3);
        assert_eq!(delta.dirty.len(), 3, "one key per touched cluster");
        let keys: Vec<ClusterKey> = store.products_keyed().map(|(k, _)| k.clone()).collect();
        assert_eq!(delta.dirty, keys, "dirty keys come back in cluster-key order");
        // A second batch touching one existing cluster reports only it.
        let more =
            vec![mk(10, 0, offers[0].category.unwrap(), &[("MPN", "abc123"), ("RPM", "7200 rpm")])];
        let reconciled = reconcile_batch(&more, &set, &provider());
        let delta = store.ingest_reconciled_delta(&catalog, reconciled);
        assert_eq!(delta.dirty.len(), 1);
        assert_eq!(delta.dirty[0].2, "abc123");
    }

    #[test]
    fn retract_delta_includes_vanished_clusters() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers, &provider());
        // OfferId(2) is the xyz999 singleton: retracting it removes the
        // cluster, which must still show up in the delta (the cached
        // response for its category is stale) even though the stats count
        // only clusters that survive.
        let delta = store.retract_delta(&catalog, &[OfferId(2)]);
        assert_eq!(delta.stats.clusters_dirty, 0);
        assert_eq!(delta.dirty.len(), 1);
        assert_eq!(delta.dirty[0].2, "xyz999");
        assert!(store.product_for(&delta.dirty[0]).is_none());
    }

    #[test]
    fn owns_any_probes_the_offer_index() {
        let (catalog, set, offers) = setup();
        let mut store = ProductStore::new(set);
        store.ingest(&catalog, &offers, &provider());
        assert!(store.owns_any(&[OfferId(999), OfferId(0)]));
        assert!(!store.owns_any(&[OfferId(999), OfferId(3)]), "noise-only offer never routed");
        assert!(!store.owns_any(&[]));
        store.retract(&catalog, &[OfferId(0)]);
        assert!(!store.owns_any(&[OfferId(0)]));
    }

    #[test]
    fn min_cluster_size_applies_at_read_time() {
        let (catalog, set, offers) = setup();
        let config = RuntimeConfig { min_cluster_size: 2, ..RuntimeConfig::default() };
        let one_shot = Pipeline::builder()
            .catalog(catalog.clone())
            .correspondences(set.clone())
            .runtime_config(config.clone())
            .build()
            .unwrap()
            .process(&offers, &provider());
        let mut store = ProductStore::with_config(set, config);
        // One offer at a time: the abc123 cluster only crosses the
        // threshold on the second batch.
        for o in &offers {
            store.ingest(&catalog, std::slice::from_ref(o), &provider());
        }
        assert_eq!(products_json(&store.products()), products_json(&one_shot.products));
        assert_eq!(store.products().len(), 1);
    }
}
