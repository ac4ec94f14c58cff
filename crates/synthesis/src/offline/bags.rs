//! Match-conditioned bags of words — the raw material of the six
//! distributional-similarity features.
//!
//! Section 3.1: "our Attribute Correspondence Creation component obtains
//! value distributions only from offers and products that match to each
//! other." For every grouping of Table 1 we collect:
//!
//! * offer-side bags: token multisets of the values of each merchant
//!   attribute, keyed by (merchant, category), category, or merchant;
//! * product-side *sets*: the catalog products matched by the offers of the
//!   group (bags over their attribute values are materialized per grouping
//!   by [`FeatureIndex::product_bags`], one walk over the set for all the
//!   catalog attributes asked for).
//!
//! The unconditioned variant (the "No matching" baseline of Figure 7) uses
//! all offers and all catalog products of the category instead.
//!
//! All bags are interned: every token (offer values and the spec values of
//! every referenced product) goes through one [`Interner`], each value is
//! tokenized exactly once, and bags are [`SparseCounts`] over the frozen
//! symbol table. Because final symbols are assigned in sorted string order,
//! downstream divergence sums are bit-identical to the historical
//! `BagOfWords`-based index (see `pse_text::intern`).

use std::collections::{HashMap, HashSet};

use pse_core::{Catalog, CategoryId, HistoricalMatches, MerchantId, Offer, ProductId, Spec};
use pse_text::intern::{Interner, InternerBuilder, Sym, TokenDoc};
use pse_text::normalize::normalize_attribute_name;
use pse_text::sparse::SparseCounts;
use pse_text::tokenize::for_each_token;

use crate::provider::SpecProvider;

/// Offer-side bags and product-side match sets for all three groupings.
#[derive(Debug, Default)]
pub struct FeatureIndex {
    /// The frozen symbol table every bag in this index is expressed in.
    pub interner: Interner,
    /// (merchant, category) → merchant attribute (normalized) → value bag.
    pub offer_mc: HashMap<(MerchantId, CategoryId), HashMap<String, SparseCounts>>,
    /// category → merchant attribute (normalized) → value bag.
    pub offer_c: HashMap<CategoryId, HashMap<String, SparseCounts>>,
    /// merchant → merchant attribute (normalized) → value bag.
    pub offer_m: HashMap<MerchantId, HashMap<String, SparseCounts>>,
    /// Products matched by the offers of each (merchant, category).
    pub products_mc: HashMap<(MerchantId, CategoryId), HashSet<ProductId>>,
    /// Products matched by the offers of each category.
    pub products_c: HashMap<CategoryId, HashSet<ProductId>>,
    /// Products matched by the offers of each merchant.
    pub products_m: HashMap<MerchantId, HashSet<ProductId>>,
    /// Catalog attribute surface name → the id `product_values` knows it by.
    attr_ids: HashMap<String, u32>,
    /// Interned spec values (attribute id, token doc) of every product
    /// referenced by a product set, in spec order. A name a spec repeats
    /// keeps its first value only — the one a lookup by name returns.
    product_values: HashMap<ProductId, Vec<(u32, TokenDoc)>>,
}

/// A product's spec with names as attribute ids and values as provisional
/// token ids, pending the vocabulary freeze.
type ProvisionalSpec = Vec<(u32, Vec<u32>)>;

/// Accumulates offer bags with *provisional* token ids while the vocabulary
/// is still growing; [`IndexBuilder::finish`] interns the catalog side,
/// freezes the symbol table and remaps everything onto it.
#[derive(Default)]
struct IndexBuilder {
    interner: InternerBuilder,
    offer_mc: HashMap<(MerchantId, CategoryId), HashMap<String, HashMap<u32, u64>>>,
    offer_c: HashMap<CategoryId, HashMap<String, HashMap<u32, u64>>>,
    offer_m: HashMap<MerchantId, HashMap<String, HashMap<u32, u64>>>,
    toks: Vec<u32>,
}

impl IndexBuilder {
    fn add_spec(&mut self, offer: &Offer, category: CategoryId, spec: &Spec) {
        for pair in spec.iter() {
            let name = normalize_attribute_name(&pair.name);
            if name.is_empty() {
                continue;
            }
            // Tokenize + intern the value once, then fold the provisional
            // ids into all three groupings.
            self.toks.clear();
            let (toks, interner) = (&mut self.toks, &mut self.interner);
            for_each_token(&pair.value, |t| toks.push(interner.intern(t)));
            let bags = [
                self.offer_mc
                    .entry((offer.merchant, category))
                    .or_default()
                    .entry(name.clone())
                    .or_default(),
                self.offer_c.entry(category).or_default().entry(name.clone()).or_default(),
                self.offer_m.entry(offer.merchant).or_default().entry(name).or_default(),
            ];
            for bag in bags {
                for &t in &self.toks {
                    *bag.entry(t).or_insert(0) += 1;
                }
            }
        }
    }

    /// Intern the spec values of every product any grouping references,
    /// freeze the vocabulary and remap all provisional bags onto it.
    fn finish(
        mut self,
        catalog: &Catalog,
        products_mc: HashMap<(MerchantId, CategoryId), HashSet<ProductId>>,
        products_c: HashMap<CategoryId, HashSet<ProductId>>,
        products_m: HashMap<MerchantId, HashSet<ProductId>>,
    ) -> FeatureIndex {
        let mut referenced: HashSet<ProductId> = HashSet::new();
        for set in products_mc.values().chain(products_c.values()).chain(products_m.values()) {
            referenced.extend(set.iter().copied());
        }
        // Historical matches may reference products absent from the catalog
        // (the match source is external); those contribute empty bags.
        let by_id: HashMap<ProductId, &pse_core::Product> =
            catalog.products().map(|p| (p.id, p)).collect();
        let mut attr_ids: HashMap<String, u32> = HashMap::new();
        let mut raw_values: Vec<(ProductId, ProvisionalSpec)> = Vec::new();
        for &pid in &referenced {
            let Some(product) = by_id.get(&pid) else { continue };
            let mut pairs = ProvisionalSpec::new();
            for pair in product.spec.iter() {
                let attr = match attr_ids.get(&pair.name) {
                    Some(&id) => id,
                    None => {
                        let id = attr_ids.len() as u32;
                        attr_ids.insert(pair.name.clone(), id);
                        id
                    }
                };
                // Every value is interned, read or not: the vocabulary is
                // that of the referenced products, not of what gets asked.
                let raw = self.interner.tokenize(&pair.value);
                if pairs.iter().all(|&(seen, _)| seen != attr) {
                    pairs.push((attr, raw));
                }
            }
            raw_values.push((pid, pairs));
        }
        let interner = self.interner.finalize();
        let convert = |m: HashMap<u32, u64>| -> SparseCounts {
            SparseCounts::from_unsorted(m.into_iter().map(|(p, c)| (interner.sym(p), c)).collect())
        };
        let convert_attrs = |m: HashMap<String, HashMap<u32, u64>>| {
            m.into_iter().map(|(name, bag)| (name, convert(bag))).collect()
        };
        let offer_mc = self.offer_mc.into_iter().map(|(k, m)| (k, convert_attrs(m))).collect();
        let offer_c = self.offer_c.into_iter().map(|(k, m)| (k, convert_attrs(m))).collect();
        let offer_m = self.offer_m.into_iter().map(|(k, m)| (k, convert_attrs(m))).collect();
        let product_values = raw_values
            .into_iter()
            .map(|(pid, pairs)| {
                let docs = pairs.into_iter().map(|(n, raw)| (n, interner.doc(&raw))).collect();
                (pid, docs)
            })
            .collect();
        FeatureIndex {
            interner,
            offer_mc,
            offer_c,
            offer_m,
            products_mc,
            products_c,
            products_m,
            attr_ids,
            product_values,
        }
    }
}

impl FeatureIndex {
    /// Build the index from historical offer-to-product matches: only
    /// matched offers contribute, and product sets contain only matched
    /// products (the paper's approach).
    pub fn build_matched<P: SpecProvider>(
        catalog: &Catalog,
        offers: &[Offer],
        historical: &HistoricalMatches,
        provider: &P,
    ) -> Self {
        let _obs = pse_obs::span("offline.bags");
        let contributing: Vec<(&Offer, ProductId, CategoryId)> = offers
            .iter()
            .filter_map(|offer| {
                let product = historical.product_of(offer.id)?;
                let category = offer.category?;
                Some((offer, product, category))
            })
            .collect();
        // Extraction (page fetch + parse) dominates; run it across worker
        // threads and fold the specs into the bags in offer order, so the
        // index is identical at any thread count.
        pse_obs::add("offline.historical_offers", contributing.len() as u64);
        let specs =
            pse_par::par_map_chunked(&contributing, 16, |(offer, _, _)| provider.spec(offer));
        let mut builder = IndexBuilder::default();
        let mut products_mc: HashMap<(MerchantId, CategoryId), HashSet<ProductId>> = HashMap::new();
        let mut products_c: HashMap<CategoryId, HashSet<ProductId>> = HashMap::new();
        let mut products_m: HashMap<MerchantId, HashSet<ProductId>> = HashMap::new();
        for ((offer, product, category), spec) in contributing.iter().zip(&specs) {
            builder.add_spec(offer, *category, spec);
            products_mc.entry((offer.merchant, *category)).or_default().insert(*product);
            products_c.entry(*category).or_default().insert(*product);
            products_m.entry(offer.merchant).or_default().insert(*product);
        }
        builder.finish(catalog, products_mc, products_c, products_m)
    }

    /// Build the unconditioned index (Figure 7 baseline): every offer
    /// contributes, and the product sets are *all* catalog products of the
    /// relevant categories.
    pub fn build_unconditioned<P: SpecProvider>(
        catalog: &Catalog,
        offers: &[Offer],
        provider: &P,
    ) -> Self {
        let _obs = pse_obs::span("offline.bags");
        let contributing: Vec<(&Offer, CategoryId)> = offers
            .iter()
            .filter_map(|offer| offer.category.map(|category| (offer, category)))
            .collect();
        let specs = pse_par::par_map_chunked(&contributing, 16, |(offer, _)| provider.spec(offer));
        let mut builder = IndexBuilder::default();
        let mut merchant_categories: HashMap<MerchantId, HashSet<CategoryId>> = HashMap::new();
        let mut merchant_category_pairs: HashSet<(MerchantId, CategoryId)> = HashSet::new();
        let mut categories_seen: HashSet<CategoryId> = HashSet::new();
        for ((offer, category), spec) in contributing.iter().zip(&specs) {
            builder.add_spec(offer, *category, spec);
            merchant_categories.entry(offer.merchant).or_default().insert(*category);
            categories_seen.insert(*category);
        }
        for key in builder.offer_mc.keys() {
            merchant_category_pairs.insert(*key);
        }
        let mut products_c: HashMap<CategoryId, HashSet<ProductId>> = HashMap::new();
        for &category in &categories_seen {
            let all: HashSet<ProductId> = catalog.products_in(category).map(|p| p.id).collect();
            products_c.insert(category, all);
        }
        let mut products_mc: HashMap<(MerchantId, CategoryId), HashSet<ProductId>> = HashMap::new();
        for (merchant, category) in merchant_category_pairs {
            products_mc.insert((merchant, category), products_c[&category].clone());
        }
        let mut products_m: HashMap<MerchantId, HashSet<ProductId>> = HashMap::new();
        for (merchant, cats) in merchant_categories {
            let mut set = HashSet::new();
            for c in cats {
                set.extend(products_c[&c].iter().copied());
            }
            products_m.insert(merchant, set);
        }
        builder.finish(catalog, products_mc, products_c, products_m)
    }

    /// Bags of the values of the catalog attributes `attrs` (surface forms,
    /// distinct) over a set of products, `attrs[i]`'s at position `i` — all
    /// of them from one walk over the set. Counting commutes, so the
    /// `HashSet` iteration order is immaterial. Products the index never
    /// saw (not referenced by any product set) and attributes no product
    /// carries contribute nothing.
    pub fn product_bags(&self, products: &HashSet<ProductId>, attrs: &[&str]) -> Vec<SparseCounts> {
        let mut slot_of = vec![usize::MAX; self.attr_ids.len()];
        for (slot, attr) in attrs.iter().enumerate() {
            if let Some(&id) = self.attr_ids.get(*attr) {
                slot_of[id as usize] = slot;
            }
        }
        // Two walks over the set: the first sizes each bag, so the second
        // fills it without growing.
        let values = || products.iter().flat_map(|pid| self.product_values.get(pid)).flatten();
        let mut lens = vec![0; attrs.len()];
        for (attr, doc) in values() {
            if let Some(len) = lens.get_mut(slot_of[*attr as usize]) {
                *len += doc.syms().len();
            }
        }
        let mut syms: Vec<Vec<Sym>> = lens.into_iter().map(Vec::with_capacity).collect();
        for (attr, doc) in values() {
            if let Some(bag) = syms.get_mut(slot_of[*attr as usize]) {
                bag.extend_from_slice(doc.syms());
            }
        }
        syms.into_iter().map(SparseCounts::from_syms).collect()
    }

    /// The (merchant, category) groups with at least one offer attribute,
    /// in deterministic order.
    pub fn merchant_category_groups(&self) -> Vec<(MerchantId, CategoryId)> {
        let mut keys: Vec<_> = self.offer_mc.keys().copied().collect();
        keys.sort();
        keys
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FnProvider;
    use pse_core::{OfferId, Taxonomy};

    fn offer(id: u64, merchant: u32, category: u32, pairs: &[(&str, &str)]) -> Offer {
        Offer {
            id: OfferId(id),
            merchant: MerchantId(merchant),
            price_cents: 100,
            image_url: None,
            category: Some(CategoryId(category)),
            url: String::new(),
            title: String::new(),
            spec: Spec::from_pairs(pairs.iter().copied()),
        }
    }

    fn provider() -> FnProvider<impl Fn(&Offer) -> Spec> {
        FnProvider(|o: &Offer| o.spec.clone())
    }

    fn count(index: &FeatureIndex, bag: &SparseCounts, token: &str) -> u64 {
        index.interner.lookup(token).map_or(0, |s| bag.count(s))
    }

    #[test]
    fn matched_index_only_uses_matched_offers() {
        let catalog = Catalog::new(Taxonomy::new());
        let offers = vec![
            offer(0, 0, 0, &[("RPM", "7200")]),
            offer(1, 0, 0, &[("RPM", "5400")]),
            offer(2, 1, 0, &[("Speed", "7200")]),
        ];
        let mut hist = HistoricalMatches::new();
        hist.insert(OfferId(0), ProductId(10));
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider());
        let bag = &index.offer_mc[&(MerchantId(0), CategoryId(0))]["rpm"];
        assert_eq!(count(&index, bag, "7200"), 1);
        assert_eq!(count(&index, bag, "5400"), 0, "unmatched offer excluded");
        assert!(!index.offer_mc.contains_key(&(MerchantId(1), CategoryId(0))));
        assert_eq!(index.products_c[&CategoryId(0)], HashSet::from([ProductId(10)]));
    }

    #[test]
    fn groupings_aggregate_correctly() {
        let catalog = Catalog::new(Taxonomy::new());
        let offers = vec![
            offer(0, 0, 0, &[("RPM", "7200")]),
            offer(1, 1, 0, &[("RPM", "5400")]),
            offer(2, 0, 1, &[("RPM", "10000")]),
        ];
        let mut hist = HistoricalMatches::new();
        for i in 0..3 {
            hist.insert(OfferId(i), ProductId(i));
        }
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider());
        // Category grouping merges merchants 0 and 1 within category 0.
        let c_bag = &index.offer_c[&CategoryId(0)]["rpm"];
        assert_eq!(c_bag.total(), 2);
        // Merchant grouping merges categories 0 and 1 for merchant 0.
        let m_bag = &index.offer_m[&MerchantId(0)]["rpm"];
        assert_eq!(m_bag.total(), 2);
        assert_eq!(index.products_m[&MerchantId(0)].len(), 2);
    }

    #[test]
    fn unconditioned_index_uses_all_offers_and_products() {
        use pse_core::{AttributeDef, AttributeKind, CategorySchema};
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("T");
        let cat = tax.add_leaf(
            top,
            "C",
            CategorySchema::from_attributes([AttributeDef::new("Speed", AttributeKind::Numeric)]),
        );
        let mut catalog = Catalog::new(tax);
        for i in 0..3 {
            catalog.add_product(cat, format!("p{i}"), Spec::from_pairs([("Speed", "7200")]));
        }
        let offers =
            vec![offer(0, 0, cat.0, &[("RPM", "7200")]), offer(1, 0, cat.0, &[("RPM", "5400")])];
        let index = FeatureIndex::build_unconditioned(&catalog, &offers, &provider());
        let bag = &index.offer_mc[&(MerchantId(0), cat)]["rpm"];
        assert_eq!(bag.total(), 2, "all offers contribute");
        assert_eq!(index.products_c[&cat].len(), 3, "all products included");
        assert_eq!(index.products_mc[&(MerchantId(0), cat)].len(), 3);
        // Product values are interned for the product bags; an attribute no
        // product carries gets an empty bag at its position.
        let bags = index.product_bags(&index.products_c[&cat], &["Weight", "Speed"]);
        assert!(bags[0].is_empty());
        assert_eq!(bags[1].total(), 3);
        assert_eq!(count(&index, &bags[1], "7200"), 3);
    }

    #[test]
    fn product_bags_ignore_unknown_products() {
        let catalog = Catalog::new(Taxonomy::new());
        let offers = vec![offer(0, 0, 0, &[("RPM", "7200")])];
        let mut hist = HistoricalMatches::new();
        hist.insert(OfferId(0), ProductId(99));
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider());
        // ProductId(99) is not in the (empty) catalog: empty bag, no panic.
        let bags = index.product_bags(&HashSet::from([ProductId(99)]), &["Speed"]);
        assert!(bags[0].is_empty());
    }

    #[test]
    fn deterministic_enumeration() {
        let catalog = Catalog::new(Taxonomy::new());
        let offers = vec![offer(0, 2, 0, &[("B", "1"), ("A", "2")]), offer(1, 1, 3, &[("Z", "1")])];
        let mut hist = HistoricalMatches::new();
        hist.insert(OfferId(0), ProductId(0));
        hist.insert(OfferId(1), ProductId(1));
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider());
        assert_eq!(
            index.merchant_category_groups(),
            vec![(MerchantId(1), CategoryId(3)), (MerchantId(2), CategoryId(0))]
        );
    }
}
