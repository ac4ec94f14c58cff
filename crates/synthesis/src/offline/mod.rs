//! Offline Learning (Section 3): attribute-correspondence creation.
//!
//! The driver enumerates candidate tuples `⟨Ap, Ao, M, C⟩` from the
//! historical data, computes the six distributional-similarity features for
//! each, builds a training set *automatically* from name-identity candidates
//! (Section 3.2), trains a logistic-regression classifier, and scores every
//! candidate. Accepted correspondences (name identities plus candidates
//! scoring above the decision threshold) feed the run-time Schema
//! Reconciliation component.

pub mod bags;
pub mod features;

use std::sync::Arc;

use pse_core::{
    AttributeCorrespondence, Catalog, CategoryId, CorrespondenceSet, HistoricalMatches, MerchantId,
    Offer,
};
use pse_ml::{Dataset, LogisticRegression, TrainConfig};
use pse_text::normalize::normalize_attribute_name;
use serde::{Deserialize, Serialize};

use crate::provider::SpecProvider;
use bags::FeatureIndex;
use features::{CatalogAttr, FeatureTables, Group, MerchantFeatures, NUM_FEATURES};

/// Probability threshold at or above which a candidate is predicted valid.
pub const DECISION_THRESHOLD: f64 = 0.5;

/// Configuration of the offline phase. Name-identity candidates are always
/// accepted as correspondences (score 1.0), per the paper's first
/// training-set assumption.
#[derive(Debug, Clone)]
pub struct OfflineConfig {
    /// Classifier training hyperparameters.
    pub train: TrainConfig,
    /// Use historical matches to condition the bags (the paper's approach);
    /// `false` reproduces the "No matching" baseline of Figure 7.
    pub match_conditioning: bool,
    /// Which of the six features (Table 1 order: JS-MC, Jaccard-MC, JS-C,
    /// Jaccard-C, JS-M, Jaccard-M) the classifier may use. Masked-off
    /// features are replaced by their worst-case constants, so the
    /// classifier cannot extract signal from them — the grouping-ablation
    /// knob.
    pub feature_mask: [bool; features::NUM_FEATURES],
    /// Add two *name-similarity* features (normalized edit distance and
    /// trigram Dice between `Ap` and `Ao`) to the instance features. The
    /// paper leaves this as future work ("we would also like to integrate
    /// other matchers with our framework, notably, name matchers");
    /// `false` reproduces the paper's instance-only configuration.
    pub use_name_features: bool,
}

impl Default for OfflineConfig {
    fn default() -> Self {
        Self {
            train: TrainConfig::default(),
            match_conditioning: true,
            feature_mask: [true; features::NUM_FEATURES],
            use_name_features: false,
        }
    }
}

impl OfflineConfig {
    /// A config that only uses the merchant+category grouping features.
    pub fn mc_only() -> Self {
        Self { feature_mask: [true, true, false, false, false, false], ..Self::default() }
    }

    /// Drop one grouping (0 = MC, 1 = C, 2 = M) from the default config.
    pub fn without_grouping(g: usize) -> Self {
        let mut mask = [true; features::NUM_FEATURES];
        mask[2 * g] = false;
        mask[2 * g + 1] = false;
        Self { feature_mask: mask, ..Self::default() }
    }

    /// The paper's future-work configuration: instance features + name
    /// features.
    pub fn with_name_features() -> Self {
        Self { use_name_features: true, ..Self::default() }
    }

    /// Classifier inputs per candidate: the six features, then the two
    /// name features when they are on.
    fn input_dim(&self) -> usize {
        NUM_FEATURES + if self.use_name_features { 2 } else { 0 }
    }
}

/// One scored candidate tuple `⟨Ap, Ao, M, C⟩`.
#[derive(Debug, Clone, Serialize)]
pub struct ScoredCandidate {
    /// Catalog attribute (surface form from the schema). Matchers allocate
    /// each name once per (merchant, category) group and share it among
    /// the group's candidates.
    pub catalog_attribute: Arc<str>,
    /// Merchant attribute (normalized form), shared the same way.
    pub merchant_attribute: Arc<str>,
    /// The merchant.
    pub merchant: MerchantId,
    /// The category.
    pub category: CategoryId,
    /// Classifier probability.
    pub score: f64,
    /// Whether the candidate is a name identity (`Ap` = `Ao` after
    /// normalization); such candidates are training data and are excluded
    /// from the evaluation samples, as in Section 5.2.
    pub is_name_identity: bool,
}

/// Statistics reported by the offline phase (the paper reports the same
/// numbers for its Bing Shopping run in Section 5.1).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OfflineStats {
    /// Historical offers whose specifications fed the bags.
    pub historical_offers: usize,
    /// Candidate tuples enumerated.
    pub candidates: usize,
    /// Automatically labeled training examples.
    pub training_examples: usize,
    /// Positive training examples (name identities).
    pub training_positives: usize,
    /// Candidates predicted valid at [`DECISION_THRESHOLD`].
    pub predicted_valid: usize,
}

/// Everything the offline phase produces.
pub struct OfflineOutcome {
    /// The correspondences handed to run-time schema reconciliation.
    pub correspondences: CorrespondenceSet,
    /// All scored candidates (for precision-at-coverage evaluation).
    pub scored: Vec<ScoredCandidate>,
    /// The trained classifier (`None` when the training set was degenerate
    /// and the heuristic fallback scorer was used).
    pub model: Option<LogisticRegression>,
    /// Run statistics.
    pub stats: OfflineStats,
}

/// The offline learner.
#[derive(Debug, Clone, Default)]
pub struct OfflineLearner {
    config: OfflineConfig,
}

impl OfflineLearner {
    /// Learner with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Learner with custom configuration.
    pub fn with_config(config: OfflineConfig) -> Self {
        Self { config }
    }

    /// Run the offline phase.
    ///
    /// `offers` should contain the historical offers (offers present in
    /// `historical`); other offers are ignored under match conditioning and
    /// contribute bags under the unconditioned baseline.
    pub fn learn<P: SpecProvider>(
        &self,
        catalog: &Catalog,
        offers: &[Offer],
        historical: &HistoricalMatches,
        provider: &P,
    ) -> OfflineOutcome {
        let _obs = pse_obs::span("offline.learn");
        let index = if self.config.match_conditioning {
            FeatureIndex::build_matched(catalog, offers, historical, provider)
        } else {
            FeatureIndex::build_unconditioned(catalog, offers, provider)
        };
        let historical_offers = if self.config.match_conditioning {
            offers.iter().filter(|o| historical.product_of(o.id).is_some()).count()
        } else {
            offers.len()
        };
        self.learn_from_index(catalog, &index, historical_offers)
    }

    /// Run the offline phase over a pre-built feature index (used by
    /// baselines and ablations that share the bag-building step).
    pub fn learn_from_index(
        &self,
        catalog: &Catalog,
        index: &FeatureIndex,
        historical_offers: usize,
    ) -> OfflineOutcome {
        // 1. Enumerate candidates and compute features (see `features`):
        //    the category tables first, then one task per merchant, which
        //    returns the merchant's `RowBlock`: the only copy of its
        //    candidates' classifier inputs, in enumeration order. Blocks
        //    are identical at any thread count.
        let features_span = pse_obs::span("offline.features");
        let tables = FeatureTables::new(catalog, index);
        let dim = self.config.input_dim();
        let blocks = pse_par::par_map(&tables.merchants(), |&merchant| {
            RowBlock::new(tables.merchant(merchant), &self.config)
        });
        drop(features_span);
        let candidates = blocks.iter().map(|block| block.rows.len() / dim).sum();
        pse_obs::add("offline.candidates", candidates as u64);

        // 2. Automated training-set construction (Section 3.2): for every
        //    (M, C) where the merchant uses some catalog attribute name
        //    verbatim, that candidate is positive and all ⟨A, B≠A, M, C⟩
        //    candidates for the same catalog attribute are negative. The
        //    candidates of one ⟨M, C, A⟩ are a contiguous run in
        //    enumeration order, one per merchant attribute of the group.
        let mut train = Dataset::new();
        for block in &blocks {
            block.for_each_run(dim, |group, _, ap, run| {
                if group.merchant_attrs.contains(&ap.normalized.as_str()) {
                    for (&ao, row) in group.merchant_attrs.iter().zip(run.chunks_exact(dim)) {
                        train.push(row, ao == ap.normalized);
                    }
                }
            });
        }

        // 3. Train; degenerate training sets fall back to a heuristic
        //    scorer so the pipeline still functions on tiny inputs.
        let training_examples = train.len();
        let positives = train.positives();
        let trainable = training_examples > 0 && positives > 0 && positives < training_examples;
        let model = {
            let _obs = pse_obs::span("offline.train");
            trainable.then(|| {
                // One gradient pass per example per epoch.
                pse_obs::add("offline.train_iterations", self.config.train.epochs as u64);
                pse_obs::add("offline.training_examples", training_examples as u64);
                pse_obs::add("offline.training_positives", positives as u64);
                LogisticRegression::train(&train, &self.config.train)
            })
        };
        drop(train);

        // 4. Name and score every candidate, block by block, each block's
        //    rows freed once its candidates are scored. A catalog attribute
        //    name is allocated once per run and shared, like the group's
        //    merchant attribute names.
        let score_span = pse_obs::span("offline.score");
        let mut scored: Vec<ScoredCandidate> = Vec::with_capacity(candidates);
        for block in blocks {
            block.for_each_run(dim, |group, merchant_names, ap, run| {
                let catalog_name: Arc<str> = Arc::from(ap.name);
                for (merchant_name, f) in merchant_names.iter().zip(run.chunks_exact(dim)) {
                    scored.push(ScoredCandidate {
                        catalog_attribute: Arc::clone(&catalog_name),
                        merchant_attribute: Arc::clone(merchant_name),
                        merchant: group.merchant,
                        category: group.category,
                        score: match &model {
                            Some(m) => m.predict_proba(f),
                            None => heuristic_score(f),
                        },
                        is_name_identity: **merchant_name == *ap.normalized,
                    });
                }
            });
        }
        drop(score_span);

        // 5. Assemble the correspondence set.
        let mut set = CorrespondenceSet::new();
        let mut predicted_valid = 0usize;
        for c in &scored {
            let predicted = c.score >= DECISION_THRESHOLD;
            predicted_valid += usize::from(predicted);
            if c.is_name_identity || predicted {
                set.insert(AttributeCorrespondence {
                    catalog_attribute: c.catalog_attribute.to_string(),
                    merchant_attribute: c.merchant_attribute.to_string(),
                    merchant: c.merchant,
                    category: c.category,
                    score: if c.is_name_identity { 1.0 } else { c.score },
                });
            }
        }

        pse_obs::add("offline.predicted_valid", predicted_valid as u64);
        pse_obs::add("offline.correspondences_accepted", set.len() as u64);
        let stats = OfflineStats {
            historical_offers,
            candidates: scored.len(),
            training_examples,
            training_positives: positives,
            predicted_valid,
        };
        OfflineOutcome { correspondences: set, scored, model, stats }
    }
}

/// One merchant's candidates as the learner holds them: its groups, each
/// with its merchant attribute names allocated once, and the classifier
/// inputs of its candidates — the six features under the mask, then any
/// name features — `dim` per candidate in enumeration order.
struct RowBlock<'t> {
    groups: Vec<(Group<'t>, Vec<Arc<str>>)>,
    rows: Vec<f64>,
}

impl<'t> RowBlock<'t> {
    /// Mask the merchant's features in place (masked-off features take
    /// their worst-case constants: max divergence / zero overlap) and add
    /// any name features.
    fn new(features: MerchantFeatures<'t>, config: &OfflineConfig) -> Self {
        let MerchantFeatures { groups, mut rows } = features;
        for row in &mut rows {
            for (i, (x, &keep)) in row.iter_mut().zip(&config.feature_mask).enumerate() {
                if !keep {
                    *x = if i % 2 == 0 { pse_text::divergence::MAX_JS } else { 0.0 };
                }
            }
        }
        let rows = if config.use_name_features {
            let mut named = Vec::with_capacity(rows.len() * config.input_dim());
            for ((ap, ao), f) in groups.iter().flat_map(Group::candidates).zip(&rows) {
                named.extend_from_slice(f);
                named.push(pse_text::strsim::levenshtein_similarity(&ap.normalized, ao));
                named.push(pse_text::strsim::trigram_dice(&ap.normalized, ao));
            }
            named
        } else {
            rows.into_flattened()
        };
        let groups = groups
            .into_iter()
            .map(|group| {
                let names = group.merchant_attrs.iter().map(|&ao| Arc::from(ao)).collect();
                (group, names)
            })
            .collect();
        Self { groups, rows }
    }

    /// `visit(group, its merchant attribute names, Ap, rows)` for every
    /// ⟨M, C, Ap⟩ run in enumeration order: `rows` holds the run's
    /// candidates, one per merchant attribute of the group.
    fn for_each_run(
        &self,
        dim: usize,
        mut visit: impl FnMut(&Group<'t>, &[Arc<str>], &CatalogAttr<'t>, &[f64]),
    ) {
        let mut rows = self.rows.as_slice();
        for (group, merchant_names) in &self.groups {
            for ap in group.catalog_attrs {
                let (run, rest) = rows.split_at(group.merchant_attrs.len() * dim);
                visit(group, merchant_names, ap, run);
                rows = rest;
            }
        }
    }
}

/// Fallback scorer when no classifier can be trained: the mean of the six
/// instance similarities (plus any name features, which are already
/// similarities), with divergences flipped into similarities.
fn heuristic_score(f: &[f64]) -> f64 {
    use pse_text::divergence::MAX_JS;
    let js_sim = |d: f64| 1.0 - (d / MAX_JS).clamp(0.0, 1.0);
    let mut sum = js_sim(f[0]) + f[1] + js_sim(f[2]) + f[3] + js_sim(f[4]) + f[5];
    for extra in &f[NUM_FEATURES..] {
        sum += extra;
    }
    sum / f.len() as f64
}

/// Convenience: is this candidate a name identity?
pub fn is_name_identity(catalog_attr: &str, merchant_attr_norm: &str) -> bool {
    normalize_attribute_name(catalog_attr) == merchant_attr_norm
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FnProvider;
    use pse_core::{AttributeDef, AttributeKind, CategorySchema, OfferId, Spec, Taxonomy};

    /// Two merchants in one category. Merchant 0 uses name identities for
    /// Speed and Interface; merchant 1 uses RPM / Int. Type. The classifier
    /// must learn from merchant 0's identities to map merchant 1's names.
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
        let data = [
            ("5400", "ATA 100"),
            ("7200", "IDE 133"),
            ("5400", "IDE 133"),
            ("7200", "ATA 133"),
            ("10000", "SCSI 320"),
            ("7200", "SATA 300"),
        ];
        let mut offers = Vec::new();
        let mut hist = HistoricalMatches::new();
        let mut oid = 0u64;
        for (i, (speed, iface)) in data.iter().enumerate() {
            let pid = catalog.add_product(
                cat,
                format!("drive {i}"),
                Spec::from_pairs([("Speed", *speed), ("Interface", *iface)]),
            );
            // Merchant 0: identity names.
            offers.push(mk_offer(oid, 0, cat, &[("Speed", speed), ("Interface", iface)]));
            hist.insert(OfferId(oid), pid);
            oid += 1;
            // Merchant 1: renamed attributes, reformatted values.
            offers.push(mk_offer(
                oid,
                1,
                cat,
                &[("RPM", speed), ("Int. Type", &format!("{iface} mb/s"))],
            ));
            hist.insert(OfferId(oid), pid);
            oid += 1;
        }
        (catalog, offers, hist)
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
    fn learns_cross_merchant_correspondences() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let outcome = OfflineLearner::new().learn(&catalog, &offers, &hist, &provider);
        let cat = offers[0].category.unwrap();

        // Merchant 1's RPM must map to Speed, Int. Type to Interface.
        assert_eq!(outcome.correspondences.translate(MerchantId(1), cat, "rpm"), Some("Speed"),);
        assert_eq!(
            outcome.correspondences.translate(MerchantId(1), cat, "int type"),
            Some("Interface"),
        );
        // Merchant 0's identities are present with score 1.0.
        assert_eq!(outcome.correspondences.score(MerchantId(0), cat, "speed"), Some(1.0));
        assert!(outcome.model.is_some(), "classifier trained");
        assert!(outcome.stats.training_positives > 0);
        assert!(outcome.stats.candidates >= outcome.stats.training_examples);
    }

    #[test]
    fn correct_candidates_outscore_wrong_ones() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let outcome = OfflineLearner::new().learn(&catalog, &offers, &hist, &provider);
        let score_of = |ap: &str, ao: &str| {
            outcome
                .scored
                .iter()
                .find(|c| {
                    c.merchant == MerchantId(1)
                        && &*c.catalog_attribute == ap
                        && &*c.merchant_attribute == ao
                })
                .map(|c| c.score)
                .unwrap()
        };
        assert!(score_of("Speed", "rpm") > score_of("Speed", "int type"));
        assert!(score_of("Interface", "int type") > score_of("Interface", "rpm"));
    }

    #[test]
    fn name_identities_are_flagged_and_excluded_from_eval_sample() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let outcome = OfflineLearner::new().learn(&catalog, &offers, &hist, &provider);
        let identities: Vec<_> = outcome.scored.iter().filter(|c| c.is_name_identity).collect();
        assert!(!identities.is_empty());
        for c in identities {
            assert_eq!(c.merchant, MerchantId(0), "only merchant 0 uses identity names");
        }
    }

    #[test]
    fn empty_history_falls_back_to_heuristic() {
        let (catalog, offers, _) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let outcome =
            OfflineLearner::new().learn(&catalog, &offers, &HistoricalMatches::new(), &provider);
        assert!(outcome.model.is_none());
        assert!(outcome.scored.is_empty());
        assert!(outcome.correspondences.is_empty());
    }

    #[test]
    fn unconditioned_mode_builds_different_bags() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let conditioned = OfflineLearner::new().learn(&catalog, &offers, &hist, &provider);
        let unconditioned = OfflineLearner::with_config(OfflineConfig {
            match_conditioning: false,
            ..OfflineConfig::default()
        })
        .learn(&catalog, &offers, &hist, &provider);
        // Both should produce candidates; the unconditioned run sees the
        // same offers here (all are historical) so candidate counts match.
        assert_eq!(conditioned.stats.candidates, unconditioned.stats.candidates);
    }

    #[test]
    fn stats_are_consistent() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let outcome = OfflineLearner::new().learn(&catalog, &offers, &hist, &provider);
        assert_eq!(outcome.stats.historical_offers, offers.len());
        assert_eq!(outcome.scored.len(), outcome.stats.candidates);
        let above = outcome.scored.iter().filter(|c| c.score >= 0.5).count();
        assert_eq!(above, outcome.stats.predicted_valid);
    }

    #[test]
    fn feature_mask_changes_scores() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let full = OfflineLearner::new().learn(&catalog, &offers, &hist, &provider);
        let masked = OfflineLearner::with_config(OfflineConfig::mc_only())
            .learn(&catalog, &offers, &hist, &provider);
        assert_eq!(full.scored.len(), masked.scored.len());
        // The MC-only variant still ranks the true pairs first in this
        // clean scenario.
        let score_of = |out: &OfflineOutcome, ap: &str, ao: &str| {
            out.scored
                .iter()
                .find(|c| {
                    c.merchant == MerchantId(1)
                        && &*c.catalog_attribute == ap
                        && &*c.merchant_attribute == ao
                })
                .map(|c| c.score)
                .unwrap()
        };
        assert!(score_of(&masked, "Speed", "rpm") > score_of(&masked, "Speed", "int type"));
    }

    #[test]
    fn without_grouping_masks_the_right_features() {
        let cfg = OfflineConfig::without_grouping(1);
        assert_eq!(cfg.feature_mask, [true, true, false, false, true, true]);
        let cfg = OfflineConfig::without_grouping(2);
        assert_eq!(cfg.feature_mask, [true, true, true, true, false, false]);
    }

    #[test]
    fn name_features_extend_the_model() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let with_names = OfflineLearner::with_config(OfflineConfig::with_name_features())
            .learn(&catalog, &offers, &hist, &provider);
        let cat = offers[0].category.unwrap();
        // The extended model still learns the cross-merchant mappings.
        assert_eq!(with_names.correspondences.translate(MerchantId(1), cat, "rpm"), Some("Speed"),);
        // Its weight vector has eight entries (six instance + two name).
        assert_eq!(with_names.model.unwrap().weights().len(), 8);
    }

    #[test]
    fn heuristic_score_bounds() {
        use pse_text::divergence::MAX_JS;
        assert!((heuristic_score(&[0.0, 1.0, 0.0, 1.0, 0.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!(heuristic_score(&[MAX_JS, 0.0, MAX_JS, 0.0, MAX_JS, 0.0]).abs() < 1e-12);
    }
}
