//! The Run-Time Offer Processing Pipeline (Section 4, Figure 4):
//! extraction → schema reconciliation → clustering → value fusion.

pub mod cluster;
pub mod fusion;
pub mod reconcile;

use std::sync::Arc;

use pse_core::{Catalog, CategoryId, CorrespondenceSet, Offer, OfferId, Spec};
use pse_text::normalize::normalize_attribute_name;
use serde::{Deserialize, Serialize};

use crate::provider::SpecProvider;
pub use cluster::{cluster_by_key, normalize_key, Cluster, KeyAttributes};
pub use fusion::{FusedValue, FusionAccumulator, FusionStrategy};
pub use reconcile::{reconcile, ReconciledOffer};

/// Configuration of the run-time pipeline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeConfig {
    /// Key attributes used for clustering, in preference order.
    pub key_attributes: Vec<String>,
    /// Minimum cluster size for a product to be synthesized (1 = every
    /// cluster becomes a product, the paper's setting).
    pub min_cluster_size: usize,
    /// Do not emit the key attribute used for clustering as part of the
    /// fused specification when `false`. The paper keeps keys; so do we.
    pub include_keys_in_spec: bool,
    /// Value-fusion rule (the paper's centroid voting by default).
    pub fusion: FusionStrategy,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            key_attributes: vec!["MPN".to_string(), "UPC".to_string()],
            min_cluster_size: 1,
            include_keys_in_spec: true,
            fusion: FusionStrategy::default(),
        }
    }
}

/// One synthesized product instance, compatible with the catalog schema of
/// its category.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SynthesizedProduct {
    /// Category of the product.
    pub category: CategoryId,
    /// Key attribute that identified the cluster.
    pub key_attribute: String,
    /// Normalized key value.
    pub key_value: String,
    /// The fused specification (attribute names from the catalog schema).
    pub spec: Spec,
    /// The offers fused into this product.
    pub offers: Vec<OfferId>,
}

/// Output of a pipeline run.
#[derive(Debug, Clone, Default)]
pub struct SynthesisResult {
    /// The synthesized products.
    pub products: Vec<SynthesizedProduct>,
    /// Offers processed.
    pub offers_in: usize,
    /// Offers that survived reconciliation with at least one pair.
    pub offers_reconciled: usize,
    /// Offers that carried a usable key and joined a cluster.
    pub offers_clustered: usize,
}

impl SynthesisResult {
    /// Total synthesized attribute–value pairs across all products.
    pub fn total_attributes(&self) -> usize {
        self.products.iter().map(|p| p.spec.len()).sum()
    }
}

/// Extract and reconcile a batch of offers in parallel, preserving offer
/// order. Shared by [`RuntimePipeline::process`] and the incremental
/// `pse-store` ingest path, so both produce identical [`ReconciledOffer`]
/// sequences (and therefore identical products) for the same input.
///
/// Emits the `runtime.offers_in` / `runtime.drop.*` / `runtime.pairs_*` /
/// `runtime.offers_reconciled` counters and opens a `runtime.reconcile`
/// span nested under whatever span the caller holds (so the pipeline path
/// stays `runtime.process.runtime.reconcile` while the store ingest path
/// reports `store.ingest.runtime.reconcile`).
pub fn reconcile_batch<P: SpecProvider>(
    offers: &[Offer],
    correspondences: &CorrespondenceSet,
    provider: &P,
) -> Vec<ReconciledOffer> {
    let _span = pse_obs::span("runtime.reconcile");
    pse_obs::add("runtime.offers_in", offers.len() as u64);
    let reconciled: Vec<ReconciledOffer> = pse_par::par_map_chunked(offers, 16, |offer| {
        let Some(category) = offer.category else {
            pse_obs::incr("runtime.drop.no_category");
            return None;
        };
        let spec = provider.spec(offer);
        let r = reconcile(offer.id, offer.merchant, category, &spec, correspondences);
        pse_obs::add(
            "runtime.pairs_discarded_unmapped",
            spec.len().saturating_sub(r.pairs().len()) as u64,
        );
        if r.pairs().is_empty() {
            pse_obs::incr("runtime.drop.all_unmapped");
            return None;
        }
        pse_obs::add("runtime.pairs_kept", r.pairs().len() as u64);
        Some(r)
    })
    .into_iter()
    .flatten()
    .collect();
    pse_obs::add("runtime.offers_reconciled", reconciled.len() as u64);
    reconciled
}

/// Fuse one cluster into a synthesized product, attribute by attribute in
/// the category's schema order (so the output is catalog-compatible by
/// construction): a fresh [`ClusterFusionCache`] advanced over every
/// member, then read off with [`fuse_cluster_cached`] — the same kernel
/// the incremental `pse-store` re-fusion path runs.
///
/// Returns `None` when the catalog does not know the cluster's category
/// (offer classified against another taxonomy, stale id) — a counted drop,
/// not a panic.
pub fn fuse_cluster(
    catalog: &Catalog,
    cluster: &Cluster,
    config: &RuntimeConfig,
) -> Option<SynthesizedProduct> {
    let mut cache = ClusterFusionCache::default();
    if !advance_cluster_fusion(catalog, cluster.category, &cluster.members, config, &mut cache) {
        return None;
    }
    fuse_cluster_cached(cluster, config, &cache)
}

/// The attributes one category's fusion emits, in schema order: each
/// one's schema surface name (the fused spec's key) and the normalized
/// name members are probed with. Resolved once per category and shared
/// by `Arc` among its clusters' [`ClusterFusionCache`]s (`pse-store`
/// keeps one per category), so a held cluster carries no names of its
/// own.
#[derive(Debug)]
pub struct FusionSchema {
    names: Vec<(String, String)>,
}

impl FusionSchema {
    /// `category`'s fused attributes under `config`, or `None` when the
    /// catalog does not know the category.
    pub fn resolve(
        catalog: &Catalog,
        category: CategoryId,
        config: &RuntimeConfig,
    ) -> Option<Arc<Self>> {
        let schema = catalog.taxonomy().try_schema(category)?;
        let names = schema
            .iter()
            .filter(|attr| config.include_keys_in_spec || !attr.is_key)
            .map(|attr| (attr.name.clone(), normalize_attribute_name(&attr.name)))
            .collect();
        Some(Arc::new(Self { names }))
    }
}

/// Incrementally maintained fusion state for one cluster: a
/// [`FusionAccumulator`] per fused schema attribute, fed members in
/// stream order.
///
/// `pse-store` keeps one per cluster so re-fusing after an ingest batch
/// costs the *new* members' tokens instead of re-tokenizing the whole
/// cluster — the difference between O(batch) and O(corpus) steady-state
/// ingest. The cache is valid only while the member list grows by
/// appending; after any other mutation (retraction) the store drops it,
/// and a fresh one advanced over the full member list takes its place.
/// Never persisted: snapshots carry members only, and a restored store
/// rebuilds caches lazily on first re-fusion.
#[derive(Debug, Clone, Default)]
pub struct ClusterFusionCache {
    /// How many members have been folded in.
    consumed: usize,
    /// The category's fused attributes and one accumulator for each, in
    /// the same order; `None` until the first advance resolves the
    /// schema (and forever for categories the catalog does not know).
    attrs: Option<(Arc<FusionSchema>, Box<[FusionAccumulator]>)>,
}

impl ClusterFusionCache {
    /// An empty cache over a category's resolved attributes.
    pub fn new(schema: Arc<FusionSchema>) -> Self {
        let accums = schema.names.iter().map(|_| FusionAccumulator::default()).collect();
        Self { consumed: 0, attrs: Some((schema, accums)) }
    }

    /// Members folded in so far.
    pub fn consumed(&self) -> usize {
        self.consumed
    }
}

/// Fold `members[cache.consumed()..]` into the cache, resolving the
/// category's [`FusionSchema`] on first use unless the cache was built
/// over one ([`ClusterFusionCache::new`]). Returns `false` — leaving the
/// cache unusable — when the catalog does not know the category,
/// counting one `runtime.drop.unknown_category` per such call.
pub fn advance_cluster_fusion(
    catalog: &Catalog,
    category: CategoryId,
    members: &[ReconciledOffer],
    config: &RuntimeConfig,
    cache: &mut ClusterFusionCache,
) -> bool {
    if cache.attrs.is_none() {
        let Some(schema) = FusionSchema::resolve(catalog, category, config) else {
            pse_obs::incr("runtime.drop.unknown_category");
            return false;
        };
        *cache = ClusterFusionCache::new(schema);
    }
    let (schema, accums) = cache.attrs.as_mut().expect("attrs built above");
    for m in &members[cache.consumed..] {
        // Members store pre-normalized names, probed with the schema's
        // normalized ones.
        for ((_, target), accum) in schema.names.iter().zip(accums.iter_mut()) {
            if let Some(v) = m.value_of_normalized(target) {
                accum.push(v);
            }
        }
    }
    cache.consumed = members.len();
    true
}

/// [`fuse_cluster`] from a fully advanced cache — `O(Σ distinct × terms)`
/// plus the offer-id list, independent of how many members the cluster
/// has accumulated. The cache must have been advanced over exactly
/// `cluster.members` (debug-asserted); returns `None` for unknown
/// categories, where [`advance_cluster_fusion`] could never build the
/// accumulators.
pub fn fuse_cluster_cached(
    cluster: &Cluster,
    config: &RuntimeConfig,
    cache: &ClusterFusionCache,
) -> Option<SynthesizedProduct> {
    let (schema, accums) = cache.attrs.as_ref()?;
    debug_assert_eq!(
        cache.consumed,
        cluster.members.len(),
        "fusion cache not advanced to the cluster's member list"
    );
    let mut spec = Spec::new();
    for ((name, _), accum) in schema.names.iter().zip(accums.iter()) {
        if let Some(fused) = accum.finish(config.fusion) {
            spec.push(name.clone(), fused.value);
        }
    }
    Some(SynthesizedProduct {
        category: cluster.category,
        key_attribute: cluster.key_attribute.clone(),
        key_value: cluster.key_value.clone(),
        spec,
        offers: cluster.members.iter().map(|m| m.offer).collect(),
    })
}

/// The run-time pipeline: applies learned correspondences to incoming
/// offers and synthesizes new products.
pub struct RuntimePipeline {
    correspondences: pse_core::CorrespondenceSet,
    config: RuntimeConfig,
}

impl RuntimePipeline {
    /// A runtime pipeline with the default configuration.
    pub fn new(correspondences: pse_core::CorrespondenceSet) -> Self {
        Self::with_config(correspondences, RuntimeConfig::default())
    }

    /// A runtime pipeline with a custom configuration.
    pub fn with_config(
        correspondences: pse_core::CorrespondenceSet,
        config: RuntimeConfig,
    ) -> Self {
        Self { correspondences, config }
    }

    /// The correspondence set in use.
    pub fn correspondences(&self) -> &pse_core::CorrespondenceSet {
        &self.correspondences
    }

    /// Process a batch of offers into synthesized products.
    ///
    /// Offers without a category are skipped (classify them first with
    /// [`crate::category::TitleClassifier`]). `catalog` supplies the
    /// category schemas used to order fused specifications.
    pub fn process<P: SpecProvider>(
        &self,
        catalog: &Catalog,
        offers: &[Offer],
        provider: &P,
    ) -> SynthesisResult {
        let _obs = pse_obs::span("runtime.process");
        // Extraction + reconciliation is per-offer work; fan it out and
        // keep offer order, so clustering sees the same sequence at any
        // thread count.
        let reconciled = reconcile_batch(offers, &self.correspondences, provider);
        let offers_reconciled = reconciled.len();

        let cluster_span = pse_obs::span("runtime.cluster");
        let clusters = cluster_by_key(reconciled, &self.config.key_attributes);
        let offers_clustered = clusters.iter().map(|c| c.members.len()).sum();
        pse_obs::add(
            "runtime.drop.no_key",
            offers_reconciled.saturating_sub(offers_clustered) as u64,
        );
        pse_obs::add("runtime.clusters_formed", clusters.len() as u64);
        for cluster in &clusters {
            pse_obs::observe("runtime.cluster_size", cluster.members.len() as u64);
        }
        drop(cluster_span);

        // Clusters fuse independently; output order follows cluster order.
        let clusters_formed = clusters.len();
        let kept: Vec<Cluster> = clusters
            .into_iter()
            .filter(|c| c.members.len() >= self.config.min_cluster_size)
            .collect();
        pse_obs::add(
            "runtime.drop.small_cluster",
            clusters_formed.saturating_sub(kept.len()) as u64,
        );
        let fuse_span = pse_obs::span("runtime.fuse");
        let products: Vec<SynthesizedProduct> = pse_par::par_map_chunked(&kept, 4, |cluster| {
            fuse_cluster(catalog, cluster, &self.config)
        })
        .into_iter()
        .flatten()
        .collect();
        drop(fuse_span);
        pse_obs::add("runtime.products", products.len() as u64);
        pse_obs::add(
            "runtime.values_fused",
            products.iter().map(|p| p.spec.len() as u64).sum::<u64>(),
        );

        SynthesisResult { products, offers_in: offers.len(), offers_reconciled, offers_clustered }
    }

    /// The pipeline configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FnProvider;
    use pse_core::{
        AttributeCorrespondence, AttributeDef, AttributeKind, CategorySchema, CorrespondenceSet,
        MerchantId, Taxonomy,
    };

    fn setup() -> (Catalog, CorrespondenceSet, Vec<Offer>) {
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Hard Drives",
            CategorySchema::from_attributes([
                AttributeDef::key("MPN", AttributeKind::Identifier),
                AttributeDef::new("Speed", AttributeKind::Numeric),
                AttributeDef::new("Capacity", AttributeKind::Numeric),
            ]),
        );
        let catalog = Catalog::new(tax);
        let set = CorrespondenceSet::from_correspondences([
            corr("MPN", "mpn", 0, cat),
            corr("Speed", "rpm", 0, cat),
            corr("Capacity", "capacity", 0, cat),
            corr("MPN", "mfr part", 1, cat),
            corr("Speed", "speed", 1, cat),
            corr("Capacity", "hard disk size", 1, cat),
        ]);
        let offers = vec![
            mk_offer(0, 0, cat, &[("MPN", "ABC123"), ("RPM", "7200 rpm"), ("Capacity", "500 GB")]),
            mk_offer(
                1,
                1,
                cat,
                &[("Mfr. Part #", "abc-123"), ("Speed", "7200"), ("Hard Disk Size", "500")],
            ),
            mk_offer(2, 1, cat, &[("Mfr. Part #", "XYZ999"), ("Speed", "5400")]),
            mk_offer(3, 0, cat, &[("John D.", "nice drive")]), // noise only
        ];
        (catalog, set, offers)
    }

    fn corr(ap: &str, ao: &str, m: u32, c: CategoryId) -> AttributeCorrespondence {
        AttributeCorrespondence {
            catalog_attribute: ap.into(),
            merchant_attribute: ao.into(),
            merchant: MerchantId(m),
            category: c,
            score: 0.9,
        }
    }

    fn mk_offer(id: u64, merchant: u32, cat: CategoryId, pairs: &[(&str, &str)]) -> Offer {
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

    #[test]
    fn end_to_end_synthesis() {
        let (catalog, set, offers) = setup();
        let pipeline = RuntimePipeline::new(set);
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let result = pipeline.process(&catalog, &offers, &provider);

        assert_eq!(result.offers_in, 4);
        assert_eq!(result.offers_reconciled, 3, "noise-only offer dropped");
        assert_eq!(result.offers_clustered, 3);
        assert_eq!(result.products.len(), 2);

        let abc = result.products.iter().find(|p| p.key_value == "abc123").unwrap();
        assert_eq!(abc.offers.len(), 2, "merchants 0 and 1 fused");
        // "7200 rpm" vs "7200" is a centroid tie; the lexicographic
        // tie-break picks "7200" deterministically.
        assert_eq!(abc.spec.get("Speed"), Some("7200"));
        assert!(abc.spec.get("Capacity").is_some());
        assert!(abc.spec.get("MPN").is_some());

        let xyz = result.products.iter().find(|p| p.key_value == "xyz999").unwrap();
        assert_eq!(xyz.offers.len(), 1);
        assert_eq!(xyz.spec.get("Capacity"), None, "missing attribute not invented");
    }

    #[test]
    fn synthesized_specs_conform_to_schema() {
        let (catalog, set, offers) = setup();
        let pipeline = RuntimePipeline::new(set);
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let result = pipeline.process(&catalog, &offers, &provider);
        for p in &result.products {
            let schema = catalog.taxonomy().schema(p.category);
            for pair in p.spec.iter() {
                assert!(schema.contains(&pair.name), "{} not in schema", pair.name);
            }
        }
    }

    #[test]
    fn min_cluster_size_filters_singletons() {
        let (catalog, set, offers) = setup();
        let pipeline = RuntimePipeline::with_config(
            set,
            RuntimeConfig { min_cluster_size: 2, ..RuntimeConfig::default() },
        );
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let result = pipeline.process(&catalog, &offers, &provider);
        assert_eq!(result.products.len(), 1);
        assert_eq!(result.products[0].offers.len(), 2);
    }

    #[test]
    fn keys_can_be_excluded_from_specs() {
        let (catalog, set, offers) = setup();
        let pipeline = RuntimePipeline::with_config(
            set,
            RuntimeConfig { include_keys_in_spec: false, ..RuntimeConfig::default() },
        );
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let result = pipeline.process(&catalog, &offers, &provider);
        for p in &result.products {
            assert_eq!(p.spec.get("MPN"), None);
        }
    }

    #[test]
    fn offers_without_category_are_skipped() {
        let (catalog, set, mut offers) = setup();
        for o in &mut offers {
            o.category = None;
        }
        let pipeline = RuntimePipeline::new(set);
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let result = pipeline.process(&catalog, &offers, &provider);
        assert!(result.products.is_empty());
        assert_eq!(result.offers_reconciled, 0);
    }

    #[test]
    fn unknown_category_cluster_is_dropped_not_fatal() {
        // An offer classified against a category id the catalog has never
        // heard of must become a counted drop, not a panic.
        let (catalog, _, _) = setup();
        let bogus = CategoryId(999);
        let set = CorrespondenceSet::from_correspondences([corr("MPN", "mpn", 0, bogus)]);
        let offers = vec![mk_offer(0, 0, bogus, &[("MPN", "GHOST1")])];
        let pipeline = RuntimePipeline::new(set);
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let obs = pse_obs::Obs::new();
        let result = {
            let _on = obs.install();
            pipeline.process(&catalog, &offers, &provider)
        };
        assert!(result.products.is_empty());
        assert_eq!(result.offers_reconciled, 1);
        assert_eq!(result.offers_clustered, 1);
        assert_eq!(
            obs.report().counter("runtime.drop.unknown_category"),
            Some(1),
            "one unknown-category cluster, one counted drop"
        );
    }

    #[test]
    fn total_attributes_counts_pairs() {
        let (catalog, set, offers) = setup();
        let pipeline = RuntimePipeline::new(set);
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let result = pipeline.process(&catalog, &offers, &provider);
        let manual: usize = result.products.iter().map(|p| p.spec.len()).sum();
        assert_eq!(result.total_attributes(), manual);
        assert!(manual >= 5);
    }
}
