//! Regression test for the `KL(p ‖ q)` hazard at q(t)=0: JS-based
//! feature extraction must never feed non-finite values to
//! `LogisticRegression::train`, even for merchant attributes whose value
//! vocabularies are completely disjoint from (or empty against) the
//! catalog side — the cases where a naive `KL(p ‖ q)` would be infinite.

use pse_core::{
    AttributeDef, AttributeKind, Catalog, CategorySchema, HistoricalMatches, MerchantId, Offer,
    OfferId, Spec, Taxonomy,
};
use pse_ml::{Dataset, LogisticRegression, TrainConfig};
use pse_synthesis::offline::bags::FeatureIndex;
use pse_synthesis::offline::features::{FeatureTables, NUM_FEATURES};
use pse_synthesis::{FnProvider, OfflineLearner};

/// A worst-case scenario for divergence features: merchant 0 shares values
/// with the catalog, merchant 1's vocabulary is fully disjoint, and one
/// merchant attribute ("empty") never carries a value the extractor keeps.
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
    let mut oid = 0u64;
    for (i, (speed, iface)) in
        [("5400", "ATA 100"), ("7200", "IDE 133"), ("10000", "SCSI 320")].iter().enumerate()
    {
        let pid = catalog.add_product(
            cat,
            format!("drive {i}"),
            Spec::from_pairs([("Speed", *speed), ("Interface", *iface)]),
        );
        // Merchant 0: identity names, shared vocabulary.
        offers.push(offer(oid, 0, cat, &[("Speed", speed), ("Interface", iface)]));
        hist.insert(OfferId(oid), pid);
        oid += 1;
        // Merchant 1: renamed attributes, *disjoint* value vocabulary — the
        // q(t)=0 case for every token.
        offers.push(offer(
            oid,
            1,
            cat,
            &[("velocity", "blazing quick"), ("plug", "weird connector")],
        ));
        hist.insert(OfferId(oid), pid);
        oid += 1;
    }
    (catalog, offers, hist)
}

fn offer(id: u64, merchant: u32, cat: pse_core::CategoryId, pairs: &[(&str, &str)]) -> Offer {
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
fn all_candidate_features_are_finite_even_with_disjoint_vocabularies() {
    let (catalog, offers, hist) = scenario();
    let provider = FnProvider(|o: &Offer| o.spec.clone());
    let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider);
    let tables = FeatureTables::new(&catalog, &index);

    let mut rows: Vec<Vec<f64>> = Vec::new();
    for merchant in tables.merchants() {
        for (group, ap, ao, f) in tables.merchant(merchant).candidates() {
            for (i, v) in f.iter().enumerate() {
                assert!(
                    v.is_finite(),
                    "non-finite feature {i} = {v} for ({:?}, {:?}, {}, {ao})",
                    group.merchant,
                    group.category,
                    ap.name,
                );
            }
            assert_eq!(f.len(), NUM_FEATURES);
            rows.push(f.to_vec());
        }
    }
    assert!(rows.len() >= 8, "scenario produced too few candidates: {}", rows.len());

    // Feed the extreme rows to the trainer directly: the model must come
    // out finite and usable.
    let mut train = Dataset::new();
    for (i, f) in rows.iter().enumerate() {
        train.push(f, i % 2 == 0);
    }
    let model = LogisticRegression::train(&train, &TrainConfig::default());
    assert!(model.weights().iter().all(|w| w.is_finite()), "non-finite weight");
    for f in &rows {
        let p = model.predict_proba(f);
        assert!(p.is_finite() && (0.0..=1.0).contains(&p), "bad probability {p}");
    }
}

#[test]
fn offline_learner_stays_finite_end_to_end_on_adversarial_input() {
    let (catalog, offers, hist) = scenario();
    let provider = FnProvider(|o: &Offer| o.spec.clone());
    let outcome = OfflineLearner::new().learn(&catalog, &offers, &hist, &provider);
    assert!(!outcome.scored.is_empty());
    for c in &outcome.scored {
        assert!(
            c.score.is_finite() && (0.0..=1.0).contains(&c.score),
            "candidate score {} out of range",
            c.score
        );
    }
}
