//! COMA++-style matchers (Do & Rahm, VLDB 2002; Engmann & Maßmann, BTW
//! 2007): a library of name and instance matchers with combination and the
//! `δ` (maxDelta) candidate-selection strategy — the configurations the
//! paper compares against in Figures 8 and 9.
//!
//! * **Name matchers**: normalized edit-distance similarity and trigram
//!   (Dice) similarity over attribute names, averaged.
//! * **Instance matcher**: TF-IDF cosine between the token bags of the
//!   catalog attribute's values (over all products of the category) and the
//!   merchant attribute's values (over all offers of the merchant in the
//!   category). COMA++ has no notion of historical instance matches.
//! * **Combined**: the average of name and instance scores.
//! * **δ selection**: for every merchant attribute, keep the candidates
//!   whose score is within `δ` of that attribute's best candidate
//!   (`δ = 0.01` is COMA++'s default; `δ = ∞` keeps every pair, Figure 9).
//!
//! Scoring is split into [`ComaIndex::build`] — tokenize + intern every
//! value once per category, weight each attribute bag once per group, cache
//! name scores per (Ap, Ao) — and the cheap, strategy-dependent
//! [`ComaMatcher::score_with_index`]. One index serves every strategy/δ
//! configuration (the Figure 8/9 sweeps score the same index several
//! times), and scores are bit-identical to the historical per-pair
//! recomputation: weight vectors accumulate in sorted-token order and
//! cosine is the same merge-join sum (see `pse_text::sparse`).

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use pse_core::{Catalog, CategoryId, MerchantId, Offer};
use pse_synthesis::{ScoredCandidate, SpecProvider};
use pse_text::normalize::normalize_attribute_name;
use pse_text::sparse::{cosine_sparse, SparseCounts, SparseVec};
use pse_text::strsim::{levenshtein_similarity, trigram_dice};
use pse_text::tfidf::InternedCorpus;
use pse_text::tokenize::for_each_token;
use pse_text::{Interner, InternerBuilder};

/// Which matcher combination to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComaStrategy {
    /// Name matchers only (edit distance + trigram, averaged).
    Name,
    /// Instance matcher only (TF-IDF cosine of value bags).
    Instance,
    /// Average of name and instance scores.
    Combined,
}

/// Matcher configuration.
#[derive(Debug, Clone, Copy)]
pub struct ComaConfig {
    /// The matcher combination.
    pub strategy: ComaStrategy,
    /// maxDelta selection: keep candidates within `delta` of the best
    /// candidate per merchant attribute. `f64::INFINITY` keeps all pairs.
    pub delta: f64,
}

impl ComaConfig {
    /// COMA++'s default δ = 0.01.
    pub fn new(strategy: ComaStrategy) -> Self {
        Self { strategy, delta: 0.01 }
    }

    /// Keep every candidate pair (δ = ∞), ranked by score.
    pub fn with_unbounded_delta(strategy: ComaStrategy) -> Self {
        Self { strategy, delta: f64::INFINITY }
    }
}

/// Precomputed scoring inputs for every (merchant, category) group: all the
/// strategy-independent work of COMA++ scoring.
#[derive(Debug)]
pub struct ComaIndex {
    groups: Vec<GroupIndex>,
}

#[derive(Debug)]
struct GroupIndex {
    merchant: MerchantId,
    category: CategoryId,
    /// Merchant attribute names (normalized), sorted; allocated once and
    /// shared by every candidate scored from the index.
    merchant_attrs: Vec<Arc<str>>,
    /// Per-group TF-IDF weight vector of each merchant attribute's value
    /// bag, aligned with `merchant_attrs`.
    offer_vecs: Vec<SparseVec>,
    /// Catalog schema attributes in schema order.
    catalog_attrs: Vec<CatalogAttr>,
}

#[derive(Debug)]
struct CatalogAttr {
    /// Surface name from the schema, shared like `merchant_attrs`.
    name: Arc<str>,
    /// Normalized name.
    norm: String,
    /// `0.5·levenshtein + 0.5·trigram` per merchant attribute, aligned with
    /// `merchant_attrs`.
    name_scores: Vec<f64>,
    /// Weight vector of the catalog attribute's value bag; `None` when no
    /// product of the category carries the attribute.
    vec: Option<SparseVec>,
}

impl ComaIndex {
    /// Build the index: intern every value of the categories seen in
    /// `offers`, weight every attribute bag once per (merchant, category)
    /// group, and cache the name scores.
    pub fn build<P: SpecProvider>(catalog: &Catalog, offers: &[Offer], provider: &P) -> Self {
        let _span = pse_obs::span("baselines.coma_index");
        // Offer value bags per (merchant, category, attr), as provisional-id
        // counts under one interner per category.
        let mut builders: HashMap<CategoryId, InternerBuilder> = HashMap::new();
        let mut offer_raw: HashMap<(MerchantId, CategoryId), HashMap<String, HashMap<u32, u64>>> =
            HashMap::new();
        for offer in offers {
            let Some(category) = offer.category else { continue };
            let spec = provider.spec(offer);
            let builder = builders.entry(category).or_default();
            let slot = offer_raw.entry((offer.merchant, category)).or_default();
            for p in spec.iter() {
                let n = normalize_attribute_name(&p.name);
                if n.is_empty() {
                    continue;
                }
                let bag = slot.entry(n).or_default();
                for_each_token(&p.value, |t| *bag.entry(builder.intern(t)).or_insert(0) += 1);
            }
        }

        // Catalog value bags per category (note: the catalog side keeps
        // empty normalized names, matching the historical implementation).
        let categories: HashSet<CategoryId> = offer_raw.keys().map(|&(_, c)| c).collect();
        let mut cat_raw: HashMap<CategoryId, HashMap<String, HashMap<u32, u64>>> = HashMap::new();
        for &category in &categories {
            let builder = builders.entry(category).or_default();
            let bags = cat_raw.entry(category).or_default();
            for product in catalog.products_in(category) {
                for pair in product.spec.iter() {
                    let bag = bags.entry(normalize_attribute_name(&pair.name)).or_default();
                    for_each_token(&pair.value, |t| {
                        *bag.entry(builder.intern(t)).or_insert(0) += 1
                    });
                }
            }
        }

        let interners: HashMap<CategoryId, Interner> =
            builders.into_iter().map(|(c, b)| (c, b.finalize())).collect();
        let to_counts = |interner: &Interner, m: HashMap<String, HashMap<u32, u64>>| {
            m.into_iter()
                .map(|(name, bag)| {
                    let pairs = bag.into_iter().map(|(p, c)| (interner.sym(p), c)).collect();
                    (name, SparseCounts::from_unsorted(pairs))
                })
                .collect::<HashMap<String, SparseCounts>>()
        };
        let cat_counts: HashMap<CategoryId, HashMap<String, SparseCounts>> = cat_raw
            .into_iter()
            .map(|(c, m)| {
                let counts = to_counts(&interners[&c], m);
                (c, counts)
            })
            .collect();

        let mut keys: Vec<_> = offer_raw.keys().copied().collect();
        keys.sort();
        // Name scores depend only on the two attribute names, and merchants
        // within a category share most attribute names — cache across groups
        // so each distinct (catalog, merchant) name pair is scored once.
        let mut name_score_cache: HashMap<String, HashMap<String, f64>> = HashMap::new();
        let mut groups = Vec::new();
        for (merchant, category) in keys {
            let interner = &interners[&category];
            let cats = &cat_counts[&category];
            let offer_counts =
                to_counts(interner, offer_raw.remove(&(merchant, category)).expect("key"));

            // Per-group corpus: one document per attribute value bag
            // (catalog attributes of the category + this merchant's
            // attributes), like the historical `TfIdfCorpus` build.
            let mut doc_freq = vec![0u32; interner.len()];
            let mut num_docs = 0u32;
            for counts in cats.values().chain(offer_counts.values()) {
                num_docs += 1;
                for &(s, _) in counts.entries() {
                    doc_freq[s.0 as usize] += 1;
                }
            }
            let corpus = InternedCorpus::from_doc_freq(doc_freq, num_docs);

            let mut merchant_attrs: Vec<Arc<str>> =
                offer_counts.keys().map(|ao| Arc::from(ao.as_str())).collect();
            merchant_attrs.sort();
            let offer_vecs: Vec<SparseVec> = merchant_attrs
                .iter()
                .map(|ao| corpus.weight_counts(&offer_counts[&**ao]))
                .collect();

            let schema = catalog.taxonomy().schema(category);
            let catalog_attrs: Vec<CatalogAttr> = schema
                .iter()
                .map(|ap| {
                    let norm = ap.normalized_name();
                    let per_norm = name_score_cache.entry(norm.clone()).or_default();
                    let name_scores = merchant_attrs
                        .iter()
                        .map(|ao| match per_norm.get(&**ao) {
                            Some(&s) => s,
                            None => {
                                let s = 0.5 * levenshtein_similarity(&norm, ao)
                                    + 0.5 * trigram_dice(&norm, ao);
                                per_norm.insert(ao.to_string(), s);
                                s
                            }
                        })
                        .collect();
                    let vec = cats.get(&norm).map(|counts| corpus.weight_counts(counts));
                    CatalogAttr { name: Arc::from(ap.name.as_str()), norm, name_scores, vec }
                })
                .collect();

            groups.push(GroupIndex {
                merchant,
                category,
                merchant_attrs,
                offer_vecs,
                catalog_attrs,
            });
        }
        Self { groups }
    }
}

/// The COMA++-style matcher.
#[derive(Debug, Clone, Copy)]
pub struct ComaMatcher {
    config: ComaConfig,
}

impl ComaMatcher {
    /// A matcher with the given configuration.
    pub fn new(config: ComaConfig) -> Self {
        Self { config }
    }

    /// Score candidates for all (merchant, category) pairs present in
    /// `offers`.
    pub fn score_candidates<P: SpecProvider>(
        &self,
        catalog: &Catalog,
        offers: &[Offer],
        provider: &P,
    ) -> Vec<ScoredCandidate> {
        let index = ComaIndex::build(catalog, offers, provider);
        self.score_with_index(&index)
    }

    /// Score candidates over a pre-built index (the index is
    /// strategy-independent, so sweeps over strategies/δ share one build).
    pub fn score_with_index(&self, index: &ComaIndex) -> Vec<ScoredCandidate> {
        let mut out = Vec::new();
        for g in &index.groups {
            for (j, ao) in g.merchant_attrs.iter().enumerate() {
                let mut candidates: Vec<ScoredCandidate> = Vec::new();
                for ca in &g.catalog_attrs {
                    let name_score = ca.name_scores[j];
                    let instance_score = match &ca.vec {
                        Some(pv) => cosine_sparse(pv, &g.offer_vecs[j]),
                        None => 0.0,
                    };
                    let score = match self.config.strategy {
                        ComaStrategy::Name => name_score,
                        ComaStrategy::Instance => instance_score,
                        ComaStrategy::Combined => 0.5 * (name_score + instance_score),
                    };
                    candidates.push(ScoredCandidate {
                        catalog_attribute: Arc::clone(&ca.name),
                        merchant_attribute: Arc::clone(ao),
                        merchant: g.merchant,
                        category: g.category,
                        score,
                        is_name_identity: *ca.norm == **ao,
                    });
                }
                // δ selection per merchant attribute.
                let best = candidates.iter().map(|c| c.score).fold(f64::NEG_INFINITY, f64::max);
                out.extend(
                    candidates
                        .into_iter()
                        .filter(|c| c.score > 0.0 && best - c.score <= self.config.delta),
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_core::{AttributeDef, AttributeKind, CategorySchema, OfferId, Spec, Taxonomy};
    use pse_synthesis::FnProvider;
    use pse_text::tfidf::TfIdfCorpus;
    use pse_text::BagOfWords;

    fn scenario() -> (Catalog, Vec<Offer>) {
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Hard Drives",
            CategorySchema::from_attributes([
                AttributeDef::new("Interface Type", AttributeKind::Text),
                AttributeDef::new("Speed", AttributeKind::Numeric),
            ]),
        );
        let mut catalog = Catalog::new(tax);
        for (iface, speed) in [("SATA 300", "7200"), ("IDE 133", "5400"), ("SCSI 320", "10000")] {
            catalog.add_product(
                cat,
                "p",
                Spec::from_pairs([("Interface Type", iface), ("Speed", speed)]),
            );
        }
        let offers = vec![Offer {
            id: OfferId(0),
            merchant: MerchantId(0),
            price_cents: 1,
            image_url: None,
            category: Some(cat),
            url: String::new(),
            title: String::new(),
            spec: Spec::from_pairs([("Int. Type", "SATA 300"), ("RPM", "7200")]),
        }];
        (catalog, offers)
    }

    fn run(cfg: ComaConfig) -> Vec<ScoredCandidate> {
        let (catalog, offers) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        ComaMatcher::new(cfg).score_candidates(&catalog, &offers, &provider)
    }

    #[test]
    fn name_matcher_favors_similar_names() {
        let scored = run(ComaConfig::with_unbounded_delta(ComaStrategy::Name));
        let get = |ap: &str, ao: &str| {
            scored
                .iter()
                .find(|c| &*c.catalog_attribute == ap && &*c.merchant_attribute == ao)
                .map(|c| c.score)
                .unwrap_or(0.0)
        };
        assert!(get("Interface Type", "int type") > get("Speed", "int type"));
    }

    #[test]
    fn instance_matcher_favors_shared_values() {
        let scored = run(ComaConfig::with_unbounded_delta(ComaStrategy::Instance));
        let get = |ap: &str, ao: &str| {
            scored
                .iter()
                .find(|c| &*c.catalog_attribute == ap && &*c.merchant_attribute == ao)
                .map(|c| c.score)
                .unwrap_or(0.0)
        };
        assert!(get("Speed", "rpm") > get("Interface Type", "rpm"));
        assert!(get("Interface Type", "int type") > get("Speed", "int type"));
    }

    #[test]
    fn default_delta_keeps_fewer_candidates_than_unbounded() {
        let tight = run(ComaConfig::new(ComaStrategy::Combined));
        let loose = run(ComaConfig::with_unbounded_delta(ComaStrategy::Combined));
        assert!(tight.len() <= loose.len());
        assert!(!tight.is_empty());
    }

    #[test]
    fn combined_is_average_of_parts() {
        let name = run(ComaConfig::with_unbounded_delta(ComaStrategy::Name));
        let inst = run(ComaConfig::with_unbounded_delta(ComaStrategy::Instance));
        let comb = run(ComaConfig::with_unbounded_delta(ComaStrategy::Combined));
        for c in &comb {
            let n = name
                .iter()
                .find(|x| {
                    x.catalog_attribute == c.catalog_attribute
                        && x.merchant_attribute == c.merchant_attribute
                })
                .map(|x| x.score)
                .unwrap_or(0.0);
            let i = inst
                .iter()
                .find(|x| {
                    x.catalog_attribute == c.catalog_attribute
                        && x.merchant_attribute == c.merchant_attribute
                })
                .map(|x| x.score)
                .unwrap_or(0.0);
            assert!((c.score - 0.5 * (n + i)).abs() < 1e-9);
        }
    }

    /// The interned index must reproduce the historical per-pair TF-IDF
    /// recomputation bit-for-bit. The reference below is a transliteration
    /// of the pre-index implementation (string bags, one `TfIdfCorpus` per
    /// group, `corpus.cosine` per cell).
    #[test]
    fn indexed_scores_match_string_reference() {
        let (catalog, offers) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        for cfg in [
            ComaConfig::with_unbounded_delta(ComaStrategy::Name),
            ComaConfig::with_unbounded_delta(ComaStrategy::Instance),
            ComaConfig::with_unbounded_delta(ComaStrategy::Combined),
            ComaConfig::new(ComaStrategy::Combined),
        ] {
            let fast = ComaMatcher::new(cfg).score_candidates(&catalog, &offers, &provider);
            let slow = reference_score(cfg, &catalog, &offers, &provider);
            assert_eq!(fast.len(), slow.len(), "{cfg:?}");
            for (f, s) in fast.iter().zip(&slow) {
                assert_eq!(f.catalog_attribute, s.catalog_attribute, "{cfg:?}");
                assert_eq!(f.merchant_attribute, s.merchant_attribute, "{cfg:?}");
                assert_eq!(
                    f.score.to_bits(),
                    s.score.to_bits(),
                    "{cfg:?} {}/{}: {} vs {}",
                    f.catalog_attribute,
                    f.merchant_attribute,
                    f.score,
                    s.score
                );
                assert_eq!(f.is_name_identity, s.is_name_identity, "{cfg:?}");
            }
        }
    }

    fn reference_score<P: SpecProvider>(
        config: ComaConfig,
        catalog: &Catalog,
        offers: &[Offer],
        provider: &P,
    ) -> Vec<ScoredCandidate> {
        let mut offer_bags: HashMap<(MerchantId, CategoryId), HashMap<String, BagOfWords>> =
            HashMap::new();
        for offer in offers {
            let Some(category) = offer.category else { continue };
            let spec = provider.spec(offer);
            let slot = offer_bags.entry((offer.merchant, category)).or_default();
            for p in spec.iter() {
                let n = normalize_attribute_name(&p.name);
                if !n.is_empty() {
                    slot.entry(n).or_default().add_value(&p.value);
                }
            }
        }
        let mut catalog_bags: HashMap<CategoryId, HashMap<String, BagOfWords>> = HashMap::new();
        let mut keys: Vec<_> = offer_bags.keys().copied().collect();
        keys.sort();
        let mut out = Vec::new();
        for (merchant, category) in keys {
            let cat_bags = catalog_bags.entry(category).or_insert_with(|| {
                let mut bags: HashMap<String, BagOfWords> = HashMap::new();
                for product in catalog.products_in(category) {
                    for pair in product.spec.iter() {
                        bags.entry(normalize_attribute_name(&pair.name))
                            .or_default()
                            .add_value(&pair.value);
                    }
                }
                bags
            });
            let schema = catalog.taxonomy().schema(category);
            let merchant_attrs = &offer_bags[&(merchant, category)];
            let mut sorted_aos: Vec<&String> = merchant_attrs.keys().collect();
            sorted_aos.sort();
            let mut corpus = TfIdfCorpus::new();
            for bag in cat_bags.values() {
                corpus.add_document(bag);
            }
            for bag in merchant_attrs.values() {
                corpus.add_document(bag);
            }
            for ao in sorted_aos {
                let mut candidates: Vec<ScoredCandidate> = Vec::new();
                for ap in schema.iter() {
                    let ap_norm = ap.normalized_name();
                    let name_score = 0.5 * levenshtein_similarity(&ap_norm, ao)
                        + 0.5 * trigram_dice(&ap_norm, ao);
                    let instance_score = match cat_bags.get(&ap_norm) {
                        Some(pb) => corpus.cosine(pb, &merchant_attrs[ao]),
                        None => 0.0,
                    };
                    let score = match config.strategy {
                        ComaStrategy::Name => name_score,
                        ComaStrategy::Instance => instance_score,
                        ComaStrategy::Combined => 0.5 * (name_score + instance_score),
                    };
                    candidates.push(ScoredCandidate {
                        catalog_attribute: ap.name.as_str().into(),
                        merchant_attribute: ao.as_str().into(),
                        merchant,
                        category,
                        score,
                        is_name_identity: ap_norm == *ao,
                    });
                }
                let best = candidates.iter().map(|c| c.score).fold(f64::NEG_INFINITY, f64::max);
                out.extend(
                    candidates
                        .into_iter()
                        .filter(|c| c.score > 0.0 && best - c.score <= config.delta),
                );
            }
        }
        out
    }
}
