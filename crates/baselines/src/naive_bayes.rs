//! The LSD-style instance-based Naive Bayes matcher, per Appendix C.
//!
//! For each category, a multi-class Naive Bayes classifier is trained on
//! the *entire catalog content*: classes are the catalog attributes, and
//! the features are the terms of their values. At match time, every value
//! `v` of a merchant attribute `B` is classified; the candidate score is
//! `score(⟨A, B, M, C⟩) = (Σ_{v ∈ V} P(A | v)) / |V|`, and a correspondence
//! is proposed when `B` is the best-scoring merchant attribute for `A`.

use std::collections::HashMap;
use std::sync::Arc;

use pse_core::{Catalog, CategoryId, MerchantId, Offer};
use pse_ml::MultinomialNaiveBayes;
use pse_synthesis::{ScoredCandidate, SpecProvider};
use pse_text::normalize::normalize_attribute_name;
use pse_text::tokenize::tokens;

/// The Naive Bayes instance matcher.
#[derive(Debug, Clone, Default)]
pub struct NaiveBayesMatcher;

impl NaiveBayesMatcher {
    /// A matcher.
    pub fn new() -> Self {
        Self
    }

    /// Score candidates. Note: unlike our approach and DUMAS, no historical
    /// matches are used — the classifier is trained on catalog content and
    /// executed over all offers (per Appendix C).
    pub fn score_candidates<P: SpecProvider>(
        &self,
        catalog: &Catalog,
        offers: &[Offer],
        provider: &P,
    ) -> Vec<ScoredCandidate> {
        // Collect offer values per (merchant, category, merchant attr).
        let mut values: HashMap<(MerchantId, CategoryId), HashMap<String, Vec<String>>> =
            HashMap::new();
        for offer in offers {
            let Some(category) = offer.category else { continue };
            let spec = provider.spec(offer);
            let slot = values.entry((offer.merchant, category)).or_default();
            for p in spec.iter() {
                let n = normalize_attribute_name(&p.name);
                if !n.is_empty() {
                    slot.entry(n).or_default().push(p.value.clone());
                }
            }
        }

        // Per-category classifiers over catalog content.
        let mut classifiers: HashMap<CategoryId, (Vec<Arc<str>>, MultinomialNaiveBayes)> =
            HashMap::new();
        let mut out = Vec::new();
        let mut keys: Vec<_> = values.keys().copied().collect();
        keys.sort();

        for (merchant, category) in keys {
            let (attr_names, nb) = classifiers
                .entry(category)
                .or_insert_with(|| train_category_classifier(catalog, category));
            if attr_names.is_empty() {
                continue;
            }
            let merchant_attrs = &values[&(merchant, category)];
            let mut sorted_attrs: Vec<&String> = merchant_attrs.keys().collect();
            sorted_attrs.sort();
            // Each name allocated once per group, shared by its candidates
            // (catalog attribute names once per category, with the model).
            let merchant_names: Vec<Arc<str>> =
                sorted_attrs.iter().map(|ao| Arc::from(ao.as_str())).collect();

            // score[A][B] = mean posterior P(A | v) over values v of B.
            let mut scores: Vec<Vec<f64>> = vec![vec![0.0; sorted_attrs.len()]; attr_names.len()];
            for (j, ao) in sorted_attrs.iter().enumerate() {
                let vals = &merchant_attrs[*ao];
                for v in vals {
                    let toks = tokens(v);
                    let refs: Vec<&str> = toks.iter().map(String::as_str).collect();
                    let posterior = nb.posterior(&refs);
                    for (i, p) in posterior.iter().enumerate() {
                        scores[i][j] += p;
                    }
                }
                for row in scores.iter_mut() {
                    row[j] /= vals.len().max(1) as f64;
                }
            }

            // "A correspondence ⟨A, B⟩ is created if score(A, B) >
            // score(A, B′) for every other B′": per catalog attribute, keep
            // the argmax merchant attribute.
            for (i, ap) in attr_names.iter().enumerate() {
                let Some((j, &s)) = scores[i].iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1))
                else {
                    continue;
                };
                if s <= 0.0 {
                    continue;
                }
                let ao = &merchant_names[j];
                out.push(ScoredCandidate {
                    catalog_attribute: Arc::clone(ap),
                    merchant_attribute: Arc::clone(ao),
                    merchant,
                    category,
                    score: s,
                    is_name_identity: *normalize_attribute_name(ap) == **ao,
                });
            }
        }
        out
    }
}

/// Train the per-category classifier: classes = catalog attributes,
/// documents = product attribute values.
fn train_category_classifier(
    catalog: &Catalog,
    category: CategoryId,
) -> (Vec<Arc<str>>, MultinomialNaiveBayes) {
    let schema = catalog.taxonomy().schema(category);
    let attr_names: Vec<Arc<str>> = schema.attribute_names().map(Arc::from).collect();
    let mut nb = MultinomialNaiveBayes::new(attr_names.len());
    for product in catalog.products_in(category) {
        for (i, ap) in attr_names.iter().enumerate() {
            if let Some(v) = product.spec.get(ap) {
                nb.observe(i, tokens(v));
            }
        }
    }
    (attr_names, nb)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_core::{AttributeDef, AttributeKind, CategorySchema, OfferId, Spec, Taxonomy};
    use pse_synthesis::FnProvider;

    fn scenario() -> (Catalog, Vec<Offer>) {
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Hard Drives",
            CategorySchema::from_attributes([
                AttributeDef::new("Brand", AttributeKind::Text),
                AttributeDef::new("Interface", AttributeKind::Text),
            ]),
        );
        let mut catalog = Catalog::new(tax);
        for (brand, iface) in
            [("Seagate", "SATA"), ("Hitachi", "IDE"), ("Samsung", "SCSI"), ("Seagate", "SATA")]
        {
            catalog.add_product(
                cat,
                brand,
                Spec::from_pairs([("Brand", brand), ("Interface", iface)]),
            );
        }
        let offers = vec![
            Offer {
                id: OfferId(0),
                merchant: MerchantId(0),
                price_cents: 1,
                image_url: None,
                category: Some(cat),
                url: String::new(),
                title: String::new(),
                spec: Spec::from_pairs([("Make", "Seagate"), ("Connection", "SATA")]),
            },
            Offer {
                id: OfferId(1),
                merchant: MerchantId(0),
                price_cents: 1,
                image_url: None,
                category: Some(cat),
                url: String::new(),
                title: String::new(),
                spec: Spec::from_pairs([("Make", "Hitachi"), ("Connection", "IDE")]),
            },
        ];
        (catalog, offers)
    }

    #[test]
    fn classifies_merchant_attributes_by_value_evidence() {
        let (catalog, offers) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let scored = NaiveBayesMatcher::new().score_candidates(&catalog, &offers, &provider);
        let find = |ap: &str| scored.iter().find(|c| &*c.catalog_attribute == ap).unwrap();
        assert_eq!(&*find("Brand").merchant_attribute, "make");
        assert_eq!(&*find("Interface").merchant_attribute, "connection");
        assert!(find("Brand").score > 0.5);
    }

    #[test]
    fn one_candidate_per_catalog_attribute() {
        let (catalog, offers) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let scored = NaiveBayesMatcher::new().score_candidates(&catalog, &offers, &provider);
        assert_eq!(scored.len(), 2);
    }

    #[test]
    fn empty_offers_produce_nothing() {
        let (catalog, _) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let scored = NaiveBayesMatcher::new().score_candidates(&catalog, &[], &provider);
        assert!(scored.is_empty());
    }
}
