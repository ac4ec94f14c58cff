//! Table 1's six features, pinned end to end: for every candidate of a
//! feature index — a generated world through the honest HTML path, the
//! unconditioned index, and hand scenarios — the candidate order, the
//! name-identity flag and all six features equal **by bits** a reference
//! that builds one `BagOfWords` per grouping straight from the offers and
//! the historical matches and calls the string-path divergences. The
//! kernels are pinned in `pse-text`; this pins the bags they are fed.

use std::collections::{BTreeMap, BTreeSet};

use pse_core::{
    AttributeDef, AttributeKind, Catalog, CategoryId, CategorySchema, HistoricalMatches,
    MerchantId, Offer, OfferId, ProductId, Spec, Taxonomy,
};
use pse_datagen::{World, WorldConfig};
use pse_synthesis::offline::bags::FeatureIndex;
use pse_synthesis::offline::features::FeatureTables;
use pse_synthesis::{ExtractingProvider, FnProvider, SpecProvider};
use pse_text::divergence::{jaccard_bags, jensen_shannon};
use pse_text::normalize::normalize_attribute_name;
use pse_text::BagOfWords;

/// `⟨M, C, Ap, Ao⟩`, the name-identity flag and the (JS, Jaccard) bit
/// patterns of the merchant+category, category and merchant groupings.
type Row = (MerchantId, CategoryId, String, String, bool, [[u64; 2]; 3]);

/// The reference. `historical: None` is the unconditioned index: every
/// categorized offer contributes and brings its category's whole catalog.
fn reference<P: SpecProvider>(
    catalog: &Catalog,
    offers: &[Offer],
    historical: Option<&HistoricalMatches>,
    provider: &P,
) -> Vec<Row> {
    let contributing: Vec<(&Offer, CategoryId, Spec, Vec<ProductId>)> = offers
        .iter()
        .filter_map(|o| {
            let category = o.category?;
            let products = match historical {
                Some(h) => vec![h.product_of(o.id)?],
                None => catalog.products_in(category).map(|p| p.id).collect(),
            };
            Some((o, category, provider.spec(o), products))
        })
        .collect();
    // (JS, Jaccard) of one grouping: the offers `member` selects.
    let pair = |member: &dyn Fn(MerchantId, CategoryId) -> bool, ap: &str, ao: &str| {
        let group = || contributing.iter().filter(|(o, c, ..)| member(o.merchant, *c));
        let offer_bag = BagOfWords::from_values(group().flat_map(|(_, _, spec, _)| {
            let named = spec.iter().filter(|p| normalize_attribute_name(&p.name) == ao);
            named.map(|p| p.value.as_str())
        }));
        let matched: BTreeSet<ProductId> = group().flat_map(|g| g.3.iter().copied()).collect();
        let products = catalog.products().filter(|p| matched.contains(&p.id));
        let product_bag = BagOfWords::from_values(
            products.filter_map(|p| p.spec.iter().find(|v| v.name == ap)).map(|v| v.value.as_str()),
        );
        [jensen_shannon(&product_bag, &offer_bag), jaccard_bags(&product_bag, &offer_bag)]
            .map(f64::to_bits)
    };
    let mut groups: BTreeMap<(MerchantId, CategoryId), BTreeSet<String>> = BTreeMap::new();
    for (o, category, spec, _) in &contributing {
        let names = spec.iter().map(|p| normalize_attribute_name(&p.name));
        groups.entry((o.merchant, *category)).or_default().extend(names.filter(|n| !n.is_empty()));
    }
    let mut rows = Vec::new();
    for (&(merchant, category), attrs) in &groups {
        for ap in catalog.taxonomy().schema(category).iter() {
            for ao in attrs {
                let mc = pair(&|m, c| (m, c) == (merchant, category), &ap.name, ao);
                let c = pair(&|_, c| c == category, &ap.name, ao);
                let m = pair(&|m, _| m == merchant, &ap.name, ao);
                let identity = *ao == ap.normalized_name();
                rows.push((merchant, category, ap.name.clone(), ao.clone(), identity, [mc, c, m]));
            }
        }
    }
    rows
}

/// Every candidate of `index` as the learner enumerates it.
fn candidates(catalog: &Catalog, index: &FeatureIndex) -> Vec<Row> {
    let tables = FeatureTables::new(catalog, index);
    let per_merchant = pse_par::par_map(&tables.merchants(), |&merchant| {
        let features = tables.merchant(merchant);
        let rows = features.candidates().map(|(g, ap, ao, f)| {
            let bits =
                [[f[0], f[1]], [f[2], f[3]], [f[4], f[5]]].map(|pair| pair.map(f64::to_bits));
            (g.merchant, g.category, ap.name.to_string(), ao.to_string(), ao == ap.normalized, bits)
        });
        rows.collect::<Vec<Row>>()
    });
    per_merchant.into_iter().flatten().collect()
}

fn assert_same(got: &[Row], want: &[Row]) {
    assert_eq!(got.len(), want.len(), "candidate count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w);
    }
}

#[test]
fn generated_world_matches_the_reference() {
    let world = World::generate(WorldConfig { match_error_rate: 0.08, ..WorldConfig::tiny() });
    let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
    let index =
        FeatureIndex::build_matched(&world.catalog, &world.offers, &world.historical, &provider);
    let want = reference(&world.catalog, &world.offers, Some(&world.historical), &provider);
    assert!(want.len() > 1_000 && want.iter().any(|r| r.4), "world too small: {}", want.len());
    for threads in [1, 3] {
        let got = pse_par::with_threads(threads, || candidates(&world.catalog, &index));
        assert_same(&got, &want);
    }
}

#[test]
fn unconditioned_index_matches_the_reference() {
    let world = World::generate(WorldConfig::tiny());
    let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
    let index = FeatureIndex::build_unconditioned(&world.catalog, &world.offers, &provider);
    let want = reference(&world.catalog, &world.offers, None, &provider);
    assert!(want.len() > 1_000);
    assert_same(&candidates(&world.catalog, &index), &want);
}

/// Two categories sharing the attribute name "Brand" (so the merchant
/// grouping spans both), and offers built to hit every edge: a merchant
/// with no historical match at all, a match to a product the catalog does
/// not hold (a grouping with no products), a fully disjoint vocabulary, an
/// attribute whose only value tokenizes to nothing, a product spec that
/// repeats an attribute name, and an uncategorized offer.
#[test]
fn hand_scenarios_match_the_reference() {
    let mut tax = Taxonomy::new();
    let top = tax.add_top_level("Computing");
    let schema = |extra: &str| {
        CategorySchema::from_attributes([
            AttributeDef::new("Brand", AttributeKind::Text),
            AttributeDef::new(extra, AttributeKind::Numeric),
        ])
    };
    let drives = tax.add_leaf(top, "Hard Drives", schema("Speed"));
    let screens = tax.add_leaf(top, "Monitors", schema("Screen Size"));
    let mut catalog = Catalog::new(tax);
    let d0 = catalog.add_product(
        drives,
        "d0",
        Spec::from_pairs([("Brand", "Seagate"), ("Speed", "7200 rpm"), ("Speed", "9999")]),
    );
    let d1 = catalog.add_product(
        drives,
        "d1",
        Spec::from_pairs([("Brand", "WD"), ("Speed", "5400 rpm")]),
    );
    let s0 = catalog.add_product(
        screens,
        "s0",
        Spec::from_pairs([("Brand", "Dell Seagate"), ("Screen Size", "24 in")]),
    );
    let offer =
        |id: u64, merchant: u32, category: Option<CategoryId>, pairs: &[(&str, &str)]| Offer {
            id: OfferId(id),
            merchant: MerchantId(merchant),
            price_cents: 100,
            image_url: None,
            category,
            url: String::new(),
            title: String::new(),
            spec: Spec::from_pairs(pairs.iter().copied()),
        };
    let offers = vec![
        offer(0, 0, Some(drives), &[("Brand", "Seagate"), ("RPM", "7200"), ("Notes", "--- !!!")]),
        offer(1, 0, Some(drives), &[("brand", "WD"), ("RPM", "5400 rpm"), ("", "nameless")]),
        offer(2, 0, Some(screens), &[("Brand", "Dell"), ("Diagonal", "24 in")]),
        offer(3, 1, Some(drives), &[("velocity", "blazing quick"), ("maker", "weird corp")]),
        offer(4, 1, Some(screens), &[("Brand", "Dell"), ("Diagonal", "27")]),
        offer(5, 2, Some(drives), &[("Brand", "Seagate"), ("RPM", "7200")]),
        offer(6, 0, None, &[("Brand", "Seagate")]),
        offer(7, 3, Some(screens), &[("Diagonal", "24")]),
    ];
    let mut historical = HistoricalMatches::new();
    for (oid, pid) in [(0, d0), (1, d1), (2, s0), (3, d0), (4, ProductId(99)), (6, d0), (7, s0)] {
        historical.insert(OfferId(oid), pid);
    }
    let provider = FnProvider(|o: &Offer| o.spec.clone());

    let index = FeatureIndex::build_matched(&catalog, &offers, &historical, &provider);
    let got = candidates(&catalog, &index);
    assert_same(&got, &reference(&catalog, &offers, Some(&historical), &provider));
    // The scenario holds what it claims to: merchant 2 (never matched) has
    // no candidate, merchant 1's Monitors group has no product behind it.
    assert!(got.iter().all(|r| r.0 != MerchantId(2)));
    let worst = [f64::to_bits(pse_text::divergence::MAX_JS), 0f64.to_bits()];
    assert!(got.iter().filter(|r| (r.0, r.1) == (MerchantId(1), screens)).all(|r| r.5[0] == worst));
    assert!(got.iter().any(|r| r.3 == "notes" && r.5[0] == worst), "empty value");

    let index = FeatureIndex::build_unconditioned(&catalog, &offers, &provider);
    assert_same(&candidates(&catalog, &index), &reference(&catalog, &offers, None, &provider));
}
