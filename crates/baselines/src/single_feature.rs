//! Single-feature baselines for Figure 6: rank candidates by one
//! distributional-similarity measure on the merchant+category grouping,
//! with no classifier combining the groupings.
//!
//! Besides the paper's two measures (JS divergence and Jaccard), the
//! alternative measures from Lee (COLING '99) — L1 distance and cosine —
//! are provided for the measure-choice ablation that validates the
//! paper's §3.1 selection.

use std::sync::Arc;

use pse_core::{Catalog, HistoricalMatches, Offer};
use pse_synthesis::offline::bags::FeatureIndex;
use pse_synthesis::offline::features::Grouping;
use pse_synthesis::{ScoredCandidate, SpecProvider};
use pse_text::divergence::MAX_JS;
use pse_text::sparse::{cosine_counts, l1_counts};

/// Which single feature to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SingleFeature {
    /// Jensen–Shannon divergence on the merchant+category grouping,
    /// flipped into a similarity (`1 - JS / ln 2`).
    JsMc,
    /// Jaccard coefficient on the merchant+category grouping.
    JaccardMc,
    /// L1 distance on the merchant+category grouping, flipped into a
    /// similarity (`1 - L1 / 2`); Lee '99 alternative.
    L1Mc,
    /// Cosine similarity of the probability vectors on the
    /// merchant+category grouping; Lee '99 alternative.
    CosineMc,
}

/// The scorer.
#[derive(Debug, Clone, Copy)]
pub struct SingleFeatureScorer {
    feature: SingleFeature,
}

impl SingleFeatureScorer {
    /// A scorer for the given feature.
    pub fn new(feature: SingleFeature) -> Self {
        Self { feature }
    }

    /// Score all candidate tuples from historical matches, exactly like the
    /// classifier path but with a single-feature score.
    pub fn score_candidates<P: SpecProvider>(
        &self,
        catalog: &Catalog,
        offers: &[Offer],
        historical: &HistoricalMatches,
        provider: &P,
    ) -> Vec<ScoredCandidate> {
        let index = FeatureIndex::build_matched(catalog, offers, historical, provider);
        self.score_from_index(catalog, &index)
    }

    /// Score candidates over a pre-built index: the merchant+category
    /// grouping of each group, through the learner's own group-level code.
    pub fn score_from_index(
        &self,
        catalog: &Catalog,
        index: &FeatureIndex,
    ) -> Vec<ScoredCandidate> {
        let mut out = Vec::new();
        for (merchant, category) in index.merchant_category_groups() {
            let group = Grouping::merchant_category(catalog, index, merchant, category);
            let scores: Vec<f64> = match self.feature {
                SingleFeature::JsMc => {
                    group.pairs().iter().map(|p| 1.0 - (p[0] / MAX_JS).clamp(0.0, 1.0)).collect()
                }
                SingleFeature::JaccardMc => group.pairs().iter().map(|p| p[1]).collect(),
                SingleFeature::L1Mc => {
                    group.map(|pb, ob| 1.0 - (l1_counts(pb, ob) / 2.0).clamp(0.0, 1.0))
                }
                SingleFeature::CosineMc => group.map(cosine_counts),
            };
            // Each name allocated once per group, shared by its candidates.
            let merchant_names: Vec<Arc<str>> =
                group.attrs.iter().map(|&ao| Arc::from(ao)).collect();
            let named = catalog.taxonomy().schema(category).iter().flat_map(|ap| {
                let ap_name: Arc<str> = Arc::from(ap.name.as_str());
                let ap_norm = ap.normalized_name();
                merchant_names
                    .iter()
                    .map(move |ao| (Arc::clone(&ap_name), Arc::clone(ao), **ao == *ap_norm))
            });
            for ((catalog_attribute, merchant_attribute, is_name_identity), score) in
                named.zip(scores)
            {
                out.push(ScoredCandidate {
                    catalog_attribute,
                    merchant_attribute,
                    merchant,
                    category,
                    score,
                    is_name_identity,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_core::{
        AttributeDef, AttributeKind, CategorySchema, MerchantId, OfferId, Spec, Taxonomy,
    };
    use pse_synthesis::FnProvider;

    fn scenario() -> (Catalog, Vec<Offer>, HistoricalMatches) {
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Hard Drives",
            CategorySchema::from_attributes([
                AttributeDef::new("Speed", AttributeKind::Numeric),
                AttributeDef::new("Interface", AttributeKind::Text),
            ]),
        );
        let mut catalog = Catalog::new(tax);
        let mut offers = Vec::new();
        let mut hist = HistoricalMatches::new();
        for (i, (speed, iface)) in
            [("5400", "ATA"), ("7200", "IDE"), ("5400", "IDE"), ("7200", "SCSI")].iter().enumerate()
        {
            let pid = catalog.add_product(
                cat,
                format!("p{i}"),
                Spec::from_pairs([("Speed", *speed), ("Interface", *iface)]),
            );
            let oid = OfferId(i as u64);
            offers.push(Offer {
                id: oid,
                merchant: MerchantId(0),
                price_cents: 1,
                image_url: None,
                category: Some(cat),
                url: String::new(),
                title: String::new(),
                spec: Spec::from_pairs([("RPM", *speed), ("Int Type", *iface)]),
            });
            hist.insert(oid, pid);
        }
        (catalog, offers, hist)
    }

    #[test]
    fn js_mc_ranks_true_pairs_first() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let scored = SingleFeatureScorer::new(SingleFeature::JsMc)
            .score_candidates(&catalog, &offers, &hist, &provider);
        assert_eq!(scored.len(), 4, "2 catalog × 2 merchant attrs");
        let get = |ap: &str, ao: &str| {
            scored
                .iter()
                .find(|c| &*c.catalog_attribute == ap && &*c.merchant_attribute == ao)
                .unwrap()
                .score
        };
        assert!(get("Speed", "rpm") > get("Speed", "int type"));
        assert!(get("Interface", "int type") > get("Interface", "rpm"));
        assert!((get("Speed", "rpm") - 1.0).abs() < 1e-9, "identical distributions");
    }

    #[test]
    fn lee_alternative_measures_rank_true_pairs_first() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        for feature in [SingleFeature::L1Mc, SingleFeature::CosineMc] {
            let scored = SingleFeatureScorer::new(feature)
                .score_candidates(&catalog, &offers, &hist, &provider);
            assert_eq!(scored.len(), 4);
            let get = |ap: &str, ao: &str| {
                scored
                    .iter()
                    .find(|c| &*c.catalog_attribute == ap && &*c.merchant_attribute == ao)
                    .unwrap()
                    .score
            };
            assert!(
                get("Speed", "rpm") > get("Speed", "int type"),
                "{feature:?}: {} vs {}",
                get("Speed", "rpm"),
                get("Speed", "int type")
            );
            for c in &scored {
                assert!((0.0..=1.0).contains(&c.score), "{feature:?} score {}", c.score);
            }
        }
    }

    #[test]
    fn jaccard_mc_agrees_on_this_scenario() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let scored = SingleFeatureScorer::new(SingleFeature::JaccardMc)
            .score_candidates(&catalog, &offers, &hist, &provider);
        let get = |ap: &str, ao: &str| {
            scored
                .iter()
                .find(|c| &*c.catalog_attribute == ap && &*c.merchant_attribute == ao)
                .unwrap()
                .score
        };
        assert!(get("Speed", "rpm") > get("Speed", "int type"));
        assert!((get("Interface", "int type") - 1.0).abs() < 1e-9);
    }
}
