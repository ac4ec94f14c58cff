//! The six classifier features of Table 1: {JS divergence, Jaccard} ×
//! {merchant+category, category, merchant} groupings — computed by table,
//! not by candidate.
//!
//! A candidate `⟨Ap, Ao, M, C⟩` reads one (JS, Jaccard) pair from each
//! grouping, and only the merchant+category pair is its own: the category
//! pair of `⟨C, Ap, Ao⟩` is the same for every merchant of `C`, the
//! merchant pair of `⟨M, Ap, Ao⟩` the same in every category where `M`
//! meets that catalog attribute name. So each grouping is a small table —
//! one product-side bag per catalog attribute ([`FeatureIndex::product_bags`],
//! one walk over the product set) against one offer-side bag per merchant
//! attribute in name order — and every bag pair goes through the kernels
//! once:
//!
//! * [`FeatureTables::new`] fills the category tables, in parallel over
//!   categories, before any candidate is looked at;
//! * [`FeatureTables::merchant`] computes all groups of one merchant: the
//!   merchant+category table per group, the category pair by column (the
//!   group's sorted attribute names are resolved against the table's by one
//!   merge-walk, so the `⟨Ap, Ao⟩` loop indexes arrays), and the merchant
//!   pairs once per distinct `⟨Ap, Ao⟩` of the merchant.
//!
//! The merchant is the unit of fan-out because it is the widest scope any
//! memo needs: whatever the thread count, a bag pair is evaluated exactly
//! once (`offline.similarity_evals`), which a per-worker cache of shared
//! tables could not promise.

use std::collections::{HashMap, HashSet};

use pse_core::{Catalog, CategoryId, MerchantId, ProductId};
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

/// The (JS, Jaccard) pair of a grouping with nothing to compare: maximal
/// divergence, no overlap. What the kernels return for an empty bag.
const WORST_PAIR: [f64; 2] = [MAX_JS, 0.0];

/// Counter: bag pairs put through JS + Jaccard, all three groupings.
const SIMILARITY_EVALS: &str = "offline.similarity_evals";

/// The two sides of one grouping: a product-side bag per catalog attribute
/// and an offer-side bag per merchant attribute.
pub struct Grouping<'a> {
    products: Vec<SparseCounts>,
    /// Merchant attribute names (normalized), ascending.
    pub attrs: Vec<&'a str>,
    offers: Vec<&'a SparseCounts>,
}

impl<'a> Grouping<'a> {
    /// A grouping absent from the index (no product set, no offer bags) is
    /// an empty one: empty bags score [`WORST_PAIR`].
    fn new(
        index: &'a FeatureIndex,
        products: Option<&HashSet<ProductId>>,
        catalog_attrs: &[&str],
        offers: Option<&'a HashMap<String, SparseCounts>>,
    ) -> Self {
        let mut named: Vec<(&str, &SparseCounts)> =
            offers.into_iter().flatten().map(|(name, bag)| (name.as_str(), bag)).collect();
        named.sort_unstable_by_key(|&(name, _)| name);
        let products = match products {
            Some(set) => index.product_bags(set, catalog_attrs),
            None => vec![SparseCounts::new(); catalog_attrs.len()],
        };
        let (attrs, offers) = named.into_iter().unzip();
        Self { products, attrs, offers }
    }

    /// The merchant+category grouping of one group: the category's schema
    /// attributes, in schema order, against the group's offer attributes.
    pub fn merchant_category(
        catalog: &'a Catalog,
        index: &'a FeatureIndex,
        merchant: MerchantId,
        category: CategoryId,
    ) -> Self {
        let catalog_attrs: Vec<&str> =
            catalog.taxonomy().schema(category).attribute_names().collect();
        let key = (merchant, category);
        Self::new(index, index.products_mc.get(&key), &catalog_attrs, index.offer_mc.get(&key))
    }

    /// `measure(product bag, offer bag)` of every `⟨Ap, Ao⟩`, catalog-
    /// attribute-major — candidate enumeration order.
    pub fn map<T>(&self, measure: impl Fn(&SparseCounts, &SparseCounts) -> T) -> Vec<T> {
        let mut out = Vec::with_capacity(self.products.len() * self.offers.len());
        for product in &self.products {
            out.extend(self.offers.iter().map(|offer| measure(product, offer)));
        }
        out
    }

    /// The (JS, Jaccard) pair of every `⟨Ap, Ao⟩`, catalog-attribute-major.
    pub fn pairs(&self) -> Vec<[f64; 2]> {
        pse_obs::add(SIMILARITY_EVALS, (self.products.len() * self.offers.len()) as u64);
        self.map(similarity)
    }
}

fn similarity(product: &SparseCounts, offer: &SparseCounts) -> [f64; 2] {
    [jensen_shannon_counts(product, offer), jaccard_counts(product, offer)]
}

/// For each of `names`, its position in `within` (both ascending), `None`
/// where `within` lacks it — one merge-walk.
fn columns(within: &[&str], names: &[&str]) -> Vec<Option<usize>> {
    let mut at = 0;
    names
        .iter()
        .map(|name| {
            while at < within.len() && within[at] < *name {
                at += 1;
            }
            (at < within.len() && within[at] == *name).then_some(at)
        })
        .collect()
}

/// One catalog attribute of a category schema.
pub struct CatalogAttr<'a> {
    /// Surface form, as the schema and the product specs spell it.
    pub name: &'a str,
    /// Normalized form — what a merchant attribute must equal to be a name
    /// identity.
    pub normalized: String,
}

/// The category grouping of one category, every pair computed.
struct CategoryTable<'a> {
    catalog_attrs: Vec<CatalogAttr<'a>>,
    /// Offer attribute names of the category, ascending.
    attrs: Vec<&'a str>,
    /// `pairs[p * attrs.len() + o]` for schema attribute `p`, offer
    /// attribute `o`.
    pairs: Vec<[f64; 2]>,
}

impl<'a> CategoryTable<'a> {
    fn new(catalog: &'a Catalog, index: &'a FeatureIndex, category: CategoryId) -> Self {
        let schema = catalog.taxonomy().schema(category);
        let names: Vec<&str> = schema.attribute_names().collect();
        let grouping = Grouping::new(
            index,
            index.products_c.get(&category),
            &names,
            index.offer_c.get(&category),
        );
        Self {
            catalog_attrs: schema
                .iter()
                .map(|a| CatalogAttr { name: &a.name, normalized: a.normalized_name() })
                .collect(),
            pairs: grouping.pairs(),
            attrs: grouping.attrs,
        }
    }
}

/// One (merchant, category) group: its candidates are `catalog_attrs` ×
/// `merchant_attrs`, catalog-attribute-major.
pub struct Group<'t> {
    /// The merchant.
    pub merchant: MerchantId,
    /// The category.
    pub category: CategoryId,
    /// The category's schema attributes, in schema order.
    pub catalog_attrs: &'t [CatalogAttr<'t>],
    /// The group's offer attribute names (normalized), ascending.
    pub merchant_attrs: Vec<&'t str>,
}

impl<'t> Group<'t> {
    /// The `⟨Ap, Ao⟩` of every candidate, in enumeration order.
    pub fn candidates(&self) -> impl Iterator<Item = (&'t CatalogAttr<'t>, &'t str)> + '_ {
        self.catalog_attrs
            .iter()
            .flat_map(move |ap| self.merchant_attrs.iter().map(move |&ao| (ap, ao)))
    }
}

/// Every candidate of one merchant with its six features.
pub struct MerchantFeatures<'t> {
    /// The merchant's groups, by category ascending.
    pub groups: Vec<Group<'t>>,
    /// One row per candidate, group after group in enumeration order.
    pub rows: Vec<[f64; NUM_FEATURES]>,
}

impl<'t> MerchantFeatures<'t> {
    /// `(group, Ap, Ao, features)` of every candidate, in enumeration order.
    pub fn candidates(
        &self,
    ) -> impl Iterator<Item = (&Group<'t>, &'t CatalogAttr<'t>, &'t str, &[f64; NUM_FEATURES])>
    {
        self.groups
            .iter()
            .flat_map(|g| g.candidates().map(move |(ap, ao)| (g, ap, ao)))
            .zip(&self.rows)
            .map(|((g, ap, ao), row)| (g, ap, ao, row))
    }
}

/// The shared tables of one feature index: the group list and the category
/// grouping of every category.
pub struct FeatureTables<'a> {
    catalog: &'a Catalog,
    index: &'a FeatureIndex,
    /// Every (merchant, category) group, ascending: a merchant's groups
    /// are one contiguous run.
    groups: Vec<(MerchantId, CategoryId)>,
    categories: HashMap<CategoryId, CategoryTable<'a>>,
}

impl<'a> FeatureTables<'a> {
    /// Enumerate the groups and compute the category grouping of every
    /// category that has one, fanned out over categories.
    pub fn new(catalog: &'a Catalog, index: &'a FeatureIndex) -> Self {
        let groups = index.merchant_category_groups();
        let mut categories: Vec<CategoryId> = groups.iter().map(|&(_, c)| c).collect();
        categories.sort_unstable();
        categories.dedup();
        let tables = pse_par::par_map(&categories, |&c| CategoryTable::new(catalog, index, c));
        Self { catalog, index, groups, categories: categories.into_iter().zip(tables).collect() }
    }

    /// The merchants with at least one group, ascending.
    pub fn merchants(&self) -> Vec<MerchantId> {
        let mut merchants: Vec<MerchantId> = self.groups.iter().map(|&(m, _)| m).collect();
        merchants.dedup();
        merchants
    }

    /// All six features of every candidate of one merchant (none for a
    /// merchant the index does not know).
    pub fn merchant(&self, merchant: MerchantId) -> MerchantFeatures<'_> {
        let first = self.groups.partition_point(|&(m, _)| m < merchant);
        let run = self.groups[first..].iter().take_while(|&&(m, _)| m == merchant);

        // One row per candidate: catalog attributes × offer attributes of
        // each group, sized up front so the rows are laid out in place.
        let candidates = run.clone().map(|&(_, category)| {
            let offer_attrs =
                self.index.offer_mc.get(&(merchant, category)).map_or(0, HashMap::len);
            self.categories[&category].catalog_attrs.len() * offer_attrs
        });
        let mut groups: Vec<Group<'_>> = Vec::new();
        let mut rows: Vec<[f64; NUM_FEATURES]> = Vec::with_capacity(candidates.sum());
        // The merchant grouping's product side: each distinct catalog
        // attribute name of the merchant's categories, with every run of
        // rows (first row, group) that holds candidates for it.
        let mut m_attr_of: HashMap<&str, usize> = HashMap::new();
        let mut m_attrs: Vec<&str> = Vec::new();
        let mut m_runs: Vec<Vec<(usize, usize)>> = Vec::new();
        for &(_, category) in run {
            let table = &self.categories[&category];
            let mc = Grouping::merchant_category(self.catalog, self.index, merchant, category);
            let mc_pairs = mc.pairs();
            let c_columns = columns(&table.attrs, &mc.attrs);
            for (p, ap) in table.catalog_attrs.iter().enumerate() {
                let m_attr = *m_attr_of.entry(ap.name).or_insert_with(|| {
                    m_attrs.push(ap.name);
                    m_runs.push(Vec::new());
                    m_attrs.len() - 1
                });
                m_runs[m_attr].push((rows.len(), groups.len()));
                let mc_row = &mc_pairs[p * mc.attrs.len()..][..mc.attrs.len()];
                let c_row = &table.pairs[p * table.attrs.len()..][..table.attrs.len()];
                for (mc_pair, c_column) in mc_row.iter().zip(&c_columns) {
                    let c_pair = c_column.map_or(WORST_PAIR, |c| c_row[c]);
                    rows.push([mc_pair[0], mc_pair[1], c_pair[0], c_pair[1], MAX_JS, 0.0]);
                }
            }
            groups.push(Group {
                merchant,
                category,
                catalog_attrs: &table.catalog_attrs,
                merchant_attrs: mc.attrs,
            });
        }

        // The merchant grouping, catalog attribute by catalog attribute, so
        // that the memo is one table row: a pair two categories share is
        // evaluated for the first and copied to the second.
        let m = Grouping::new(
            self.index,
            self.index.products_m.get(&merchant),
            &m_attrs,
            self.index.offer_m.get(&merchant),
        );
        let m_columns: Vec<_> =
            groups.iter().map(|g| columns(&m.attrs, &g.merchant_attrs)).collect();
        let mut memo: Vec<Option<[f64; 2]>> = vec![None; m.attrs.len()];
        let mut evals = 0u64;
        for (product, runs) in m.products.iter().zip(&m_runs) {
            memo.fill(None);
            for &(first_row, group) in runs {
                for (row, column) in rows[first_row..].iter_mut().zip(&m_columns[group]) {
                    let Some(column) = *column else { continue };
                    let pair = memo[column].get_or_insert_with(|| {
                        evals += 1;
                        similarity(product, m.offers[column])
                    });
                    row[4..].copy_from_slice(pair);
                }
            }
        }
        pse_obs::add(SIMILARITY_EVALS, evals);
        MerchantFeatures { groups, rows }
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
    /// Interface/Int. Type similar, Speed/Int. Type disjoint. "Weight" is
    /// in the schema and on no product.
    fn figure5() -> (Catalog, Vec<Offer>, HistoricalMatches) {
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Hard Drives",
            CategorySchema::from_attributes([
                AttributeDef::new("Speed", AttributeKind::Numeric),
                AttributeDef::new("Interface", AttributeKind::Text),
                AttributeDef::new("Weight", AttributeKind::Numeric),
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

    /// The features of `⟨ap, ao⟩` in the merchant's first group.
    fn features_of(merchant: &MerchantFeatures<'_>, ap: &str, ao: &str) -> [f64; NUM_FEATURES] {
        let found = merchant.candidates().find(|(_, a, o, _)| a.name == ap && *o == ao);
        *found.unwrap_or_else(|| panic!("no candidate ⟨{ap}, {ao}⟩")).3
    }

    #[test]
    fn figure5_feature_ordering() {
        let (catalog, offers, hist) = figure5();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider);
        let tables = FeatureTables::new(&catalog, &index);
        assert_eq!(tables.merchants(), [MerchantId(0)]);
        let merchant = tables.merchant(MerchantId(0));
        assert_eq!(merchant.groups[0].merchant_attrs, ["int type", "rpm"], "name order");

        let speed_rpm = features_of(&merchant, "Speed", "rpm");
        let iface_int = features_of(&merchant, "Interface", "int type");
        let speed_int = features_of(&merchant, "Speed", "int type");
        let iface_rpm = features_of(&merchant, "Interface", "rpm");

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
        // One merchant, one category: the three groupings coincide.
        assert_eq!(speed_rpm[..2], speed_rpm[2..4]);
        assert_eq!(speed_rpm[..2], speed_rpm[4..]);
    }

    #[test]
    fn catalog_attribute_without_values_is_worst_case() {
        let (catalog, offers, hist) = figure5();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider);
        let tables = FeatureTables::new(&catalog, &index);
        let f = features_of(&tables.merchant(MerchantId(0)), "Weight", "rpm");
        assert_eq!(f, [MAX_JS, 0.0, MAX_JS, 0.0, MAX_JS, 0.0]);
    }

    #[test]
    fn unknown_merchant_has_no_candidates() {
        let (catalog, offers, hist) = figure5();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let index = FeatureIndex::build_matched(&catalog, &offers, &hist, &provider);
        let tables = FeatureTables::new(&catalog, &index);
        let merchant = tables.merchant(MerchantId(9));
        assert!(merchant.groups.is_empty() && merchant.rows.is_empty());
    }

    #[test]
    fn merge_walk_resolves_sorted_names() {
        let within = ["a", "c", "d", "f"];
        assert_eq!(columns(&within, &["a", "b", "d", "g"]), [Some(0), None, Some(2), None]);
        assert_eq!(columns(&within, &[]), []);
        assert_eq!(columns(&[], &["a"]), [None]);
    }
}
