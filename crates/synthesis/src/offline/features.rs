//! The six classifier features of Table 1: {JS divergence, Jaccard} ×
//! {merchant+category, category, merchant} groupings.
//!
//! Product-side bags (values of a catalog attribute over the matched product
//! set of a grouping) are materialized lazily and cached: per current
//! (merchant, category) for the MC grouping, and persistently per category /
//! per merchant for the coarser groupings, which are reused across many
//! candidates.

use std::collections::HashMap;

use pse_core::{Catalog, CategoryId, MerchantId};
use pse_text::divergence::MAX_JS;
use pse_text::sparse::{jaccard_counts, jensen_shannon_counts, SparseCounts};

use super::bags::FeatureIndex;

/// Number of classifier features.
pub const NUM_FEATURES: usize = 6;

/// Human-readable names, aligned with the feature vector layout.
pub const FEATURE_NAMES: [&str; NUM_FEATURES] =
    ["JS-MC", "Jaccard-MC", "JS-C", "Jaccard-C", "JS-M", "Jaccard-M"];

/// Index of the JS-MC feature within the vector.
pub const F_JS_MC: usize = 0;
/// Index of the Jaccard-MC feature within the vector.
pub const F_JACCARD_MC: usize = 1;

/// Computes feature vectors for candidate tuples.
pub struct FeatureComputer<'a> {
    catalog: &'a Catalog,
    index: &'a FeatureIndex,
    /// Product bags for the *current* (merchant, category) group.
    mc_group: Option<(MerchantId, CategoryId)>,
    mc_bags: HashMap<String, SparseCounts>,
    /// Persistent per-category product bags: category → Ap → bag.
    c_bags: HashMap<CategoryId, HashMap<String, SparseCounts>>,
    /// Persistent per-merchant product bags: merchant → Ap → bag.
    m_bags: HashMap<MerchantId, HashMap<String, SparseCounts>>,
}

impl<'a> FeatureComputer<'a> {
    /// A computer over the given catalog and index.
    pub fn new(catalog: &'a Catalog, index: &'a FeatureIndex) -> Self {
        Self {
            catalog,
            index,
            mc_group: None,
            mc_bags: HashMap::new(),
            c_bags: HashMap::new(),
            m_bags: HashMap::new(),
        }
    }

    /// Feature vector for candidate `⟨Ap, Ao, M, C⟩`.
    ///
    /// `catalog_attr` is the catalog attribute name (surface form from the
    /// schema); `merchant_attr` is the normalized merchant attribute name.
    pub fn features(
        &mut self,
        merchant: MerchantId,
        category: CategoryId,
        catalog_attr: &str,
        merchant_attr: &str,
    ) -> [f64; NUM_FEATURES] {
        let mut out = [MAX_JS, 0.0, MAX_JS, 0.0, MAX_JS, 0.0];

        // MC grouping.
        if let Some(offer_bag) =
            self.index.offer_mc.get(&(merchant, category)).and_then(|m| m.get(merchant_attr))
        {
            self.ensure_mc_group(merchant, category);
            if let Some(product_counts) = self.mc_bags.get(catalog_attr) {
                out[0] = jensen_shannon_counts(product_counts, offer_bag);
                out[1] = jaccard_counts(product_counts, offer_bag);
            }
        }

        // C grouping.
        if let Some(offer_bag) =
            self.index.offer_c.get(&category).and_then(|m| m.get(merchant_attr))
        {
            let index = self.index;
            let products = self.index.products_c.get(&category);
            let bags = self.c_bags.entry(category).or_default();
            if let Some(products) = products {
                let bag = bags
                    .entry(catalog_attr.to_string())
                    .or_insert_with(|| index.product_counts(products, catalog_attr));
                out[2] = jensen_shannon_counts(bag, offer_bag);
                out[3] = jaccard_counts(bag, offer_bag);
            }
        }

        // M grouping.
        if let Some(offer_bag) =
            self.index.offer_m.get(&merchant).and_then(|m| m.get(merchant_attr))
        {
            let index = self.index;
            let products = self.index.products_m.get(&merchant);
            let bags = self.m_bags.entry(merchant).or_default();
            if let Some(products) = products {
                let bag = bags
                    .entry(catalog_attr.to_string())
                    .or_insert_with(|| index.product_counts(products, catalog_attr));
                out[4] = jensen_shannon_counts(bag, offer_bag);
                out[5] = jaccard_counts(bag, offer_bag);
            }
        }

        out
    }

    fn ensure_mc_group(&mut self, merchant: MerchantId, category: CategoryId) {
        if self.mc_group == Some((merchant, category)) {
            return;
        }
        self.mc_group = Some((merchant, category));
        self.mc_bags.clear();
        if let Some(products) = self.index.products_mc.get(&(merchant, category)) {
            for attr in self.catalog.taxonomy().schema(category).iter() {
                self.mc_bags
                    .insert(attr.name.clone(), self.index.product_counts(products, &attr.name));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FnProvider;
    use pse_core::{
        AttributeDef, AttributeKind, CategorySchema, HistoricalMatches, Offer, OfferId, Spec,
        Taxonomy,
    };

    /// The paper's Figure 5 scenario: Speed/RPM identical distributions,
    /// Interface/Int. Type similar, Speed/Int. Type disjoint.
    fn figure5() -> (Catalog, Vec<Offer>, HistoricalMatches) {
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
            ("Seagate Barracuda", "5400", "ATA 100"),
            ("Western Digital Raptor", "7200", "IDE 133"),
            ("Seagate Momentus", "5400", "IDE 133"),
            ("Hitachi 39T2525", "7200", "ATA 133"),
        ];
        let mut offers = Vec::new();
        let mut hist = HistoricalMatches::new();
        for (i, (title, speed, iface)) in data.iter().enumerate() {
            let pid = catalog.add_product(
                cat,
                *title,
                Spec::from_pairs([("Speed", *speed), ("Interface", *iface)]),
            );
            let oid = OfferId(i as u64);
            offers.push(Offer {
                id: oid,
                merchant: MerchantId(0),
                price_cents: 100,
                image_url: None,
                category: Some(cat),
                url: String::new(),
                title: title.to_string(),
                spec: Spec::from_pairs([
                    ("RPM", speed.to_string()),
                    ("Int. Type", format!("{iface} mb/s")),
                ]),
            });
            hist.insert(oid, pid);
        }
        (catalog, offers, hist)
    }

    #[test]
    fn figure5_feature_ordering() {
        let (catalog, offers, hist) = figure5();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider);
        let mut fc = FeatureComputer::new(&catalog, &index);
        let cat = offers[0].category.unwrap();

        let speed_rpm = fc.features(MerchantId(0), cat, "Speed", "rpm");
        let iface_int = fc.features(MerchantId(0), cat, "Interface", "int type");
        let speed_int = fc.features(MerchantId(0), cat, "Speed", "int type");
        let iface_rpm = fc.features(MerchantId(0), cat, "Interface", "rpm");

        // Speed↔RPM distributions are identical: JS = 0, Jaccard = 1.
        assert!(speed_rpm[F_JS_MC] < 1e-9, "{speed_rpm:?}");
        assert!((speed_rpm[F_JACCARD_MC] - 1.0).abs() < 1e-9);
        // Interface↔Int.Type close but not identical (mb/s tokens added).
        assert!(iface_int[F_JS_MC] > 0.0 && iface_int[F_JS_MC] < 0.3, "{iface_int:?}");
        // Wrong pairings are far.
        assert!(speed_int[F_JS_MC] > iface_int[F_JS_MC]);
        assert!(iface_rpm[F_JS_MC] > iface_int[F_JS_MC]);
        // The paper's Figure 5(d): Speed↔Int.Type and Interface↔RPM are
        // maximally divergent (disjoint supports).
        assert!((speed_int[F_JS_MC] - MAX_JS).abs() < 1e-9);
    }

    #[test]
    fn missing_groupings_use_worst_case_defaults() {
        let (catalog, offers, hist) = figure5();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider);
        let mut fc = FeatureComputer::new(&catalog, &index);
        let cat = offers[0].category.unwrap();
        let f = fc.features(MerchantId(9), cat, "Speed", "rpm");
        // Unknown merchant: MC and M groupings default; C grouping active.
        assert_eq!(f[0], MAX_JS);
        assert_eq!(f[1], 0.0);
        assert!(f[2] < 1e-9, "category grouping still works: {f:?}");
        assert_eq!(f[4], MAX_JS);
    }

    #[test]
    fn unknown_catalog_attribute_is_worst_case() {
        let (catalog, offers, hist) = figure5();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider);
        let mut fc = FeatureComputer::new(&catalog, &index);
        let cat = offers[0].category.unwrap();
        let f = fc.features(MerchantId(0), cat, "Nonexistent", "rpm");
        assert_eq!(f[F_JS_MC], MAX_JS);
        assert_eq!(f[F_JACCARD_MC], 0.0);
    }

    #[test]
    fn mc_cache_switches_groups_correctly() {
        let (catalog, offers, hist) = figure5();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider);
        let mut fc = FeatureComputer::new(&catalog, &index);
        let cat = offers[0].category.unwrap();
        let a = fc.features(MerchantId(0), cat, "Speed", "rpm");
        let _ = fc.features(MerchantId(1), cat, "Speed", "rpm");
        let b = fc.features(MerchantId(0), cat, "Speed", "rpm");
        assert_eq!(a, b, "cache invalidation must be transparent");
    }
}
