//! World generation: taxonomy → catalog → merchants → offers, plus the
//! deterministic per-offer landing pages and the ground-truth oracle.

use std::collections::HashMap;

use pse_core::{
    AttributeDef, Catalog, CategoryId, CategorySchema, HistoricalMatches, Merchant, MerchantId,
    Offer, OfferId, ProductId, Spec, Taxonomy,
};
use pse_text::normalize::normalize_attribute_name;
use rand::{rngs::StdRng, Rng, RngExt, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::config::WorldConfig;
use crate::merchant_vocab::MerchantVocab;
use crate::page::{render_landing_page, PageStyle};
use crate::stream::OfferStream;
use crate::templates::{
    attribute_pool, category_names, procedural_attribute, universal_attributes, AttrTemplate,
    TopLevel,
};
use crate::truth::GroundTruth;
use crate::value::ValueGen;

/// Per-leaf-category generation data kept alongside the catalog.
#[derive(Debug, Clone)]
pub struct CategoryInfo {
    /// The category id in the taxonomy.
    pub id: CategoryId,
    /// Its top-level group.
    pub top: TopLevel,
    /// Attribute templates, aligned with the category schema order.
    pub templates: Vec<AttrTemplate>,
    /// Per-attribute category value weights (empty for identifiers).
    pub weights: Vec<Vec<f64>>,
}

/// Summary statistics of a generated world.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldStats {
    /// Leaf categories.
    pub categories: usize,
    /// Catalog products.
    pub products: usize,
    /// Merchants.
    pub merchants: usize,
    /// Offers.
    pub offers: usize,
    /// Offers with a historical match.
    pub historical_matches: usize,
    /// Mean offers per distinct (merchant, category) pair.
    pub mean_offers_per_merchant_category: f64,
}

/// A fully generated synthetic shopping world.
#[derive(Debug, Clone)]
pub struct World {
    /// The generation configuration.
    pub config: WorldConfig,
    /// The catalog (taxonomy + products).
    pub catalog: Catalog,
    /// All merchants.
    pub merchants: Vec<Merchant>,
    /// All offers (feed view: sparse specs; full specs live on the pages).
    pub offers: Vec<Offer>,
    /// Historical offer-to-product matches fed to the pipeline (may contain
    /// errors per `config.match_error_rate`).
    pub historical: HistoricalMatches,
    /// The ground-truth oracle (true associations and attribute meanings).
    pub truth: GroundTruth,
    categories: Vec<CategoryInfo>,
    category_index: HashMap<CategoryId, usize>,
    vocabs: HashMap<(MerchantId, CategoryId), MerchantVocab>,
    sloppiness: Vec<f64>,
}

/// Everything [`World::generate`] builds *before* the first offer: the
/// taxonomy, catalog, merchants, vocabularies, assortments, and the
/// sampling tables the offer loop draws from — plus the RNG state
/// captured at the exact point the offer loop would begin.
///
/// Memory is `O(categories × products + merchants)` and independent of
/// `num_offers`, which is what makes million-offer [`OfferStream`]s
/// cheap: the base is built once and each stream walks the per-offer
/// RNG forward in constant space. Streaming `config.num_offers` offers
/// from the base and materializing [`World::generate`] produce
/// byte-identical offers by construction — `generate` *is* a drained
/// stream.
#[derive(Debug, Clone)]
pub struct WorldBase {
    pub(crate) config: WorldConfig,
    pub(crate) catalog: Catalog,
    pub(crate) merchants: Vec<Merchant>,
    pub(crate) categories: Vec<CategoryInfo>,
    pub(crate) category_index: HashMap<CategoryId, usize>,
    pub(crate) vocabs: HashMap<(MerchantId, CategoryId), MerchantVocab>,
    pub(crate) sloppiness: Vec<f64>,
    pub(crate) assortments: HashMap<(MerchantId, CategoryId), Vec<ProductId>>,
    pub(crate) cat_weights: Vec<f64>,
    pub(crate) merchants_of_cat: Vec<Vec<usize>>,
    pub(crate) product_weights: Vec<f64>,
    pub(crate) cat_products: Vec<Vec<ProductId>>,
    rng: StdRng,
}

impl WorldBase {
    /// Build the world scaffold from `config`.
    ///
    /// # Panics
    /// Panics when `config.validate()` fails.
    pub fn generate(config: WorldConfig) -> Self {
        let _obs = pse_obs::span("datagen.world_base");
        config.validate().expect("invalid world configuration");
        let mut rng = StdRng::seed_from_u64(config.seed);

        // 1. Taxonomy + category templates.
        let mut taxonomy = Taxonomy::new();
        let mut categories = Vec::new();
        for (ti, top) in TopLevel::ALL.into_iter().enumerate() {
            let top_id = taxonomy.add_top_level(top.name());
            let pool = attribute_pool(top);
            let names = category_names(top);
            for li in 0..config.leaf_categories_per_top[ti] {
                let name = if li < names.len() {
                    names[li].to_string()
                } else {
                    format!("{} {}", names[li % names.len()], li / names.len() + 1)
                };
                let (info, schema) = generate_category(&mut rng, top, &pool);
                let id = taxonomy.add_leaf(top_id, name, schema);
                categories.push(CategoryInfo { id, ..info });
            }
        }
        let category_index: HashMap<CategoryId, usize> =
            categories.iter().enumerate().map(|(i, c)| (c.id, i)).collect();

        // 2. Products. A fraction of each category is "cold": catalog-only
        // products no merchant offers, drawn from *shifted* value
        // distributions (discontinued models, exotic configurations). They
        // recreate the paper's Section 3.1 confounder — "there are some
        // products in the catalog with a speed of 10,000 rpm, and none in
        // the merchant offers" — which is what makes unconditioned value
        // distributions misleading.
        let active_count = ((config.products_per_category as f64) * 0.6).ceil().max(1.0) as usize;
        let mut catalog = Catalog::new(taxonomy);
        for info in &categories {
            let leaf_name = catalog.taxonomy().category(info.id).name.clone();
            let cold_weights: Vec<Vec<f64>> =
                info.templates.iter().map(|t| t.gen.category_weights(&mut rng)).collect();
            let mut cold_info = info.clone();
            cold_info.weights = cold_weights;
            for i in 0..config.products_per_category {
                let src = if i < active_count { info } else { &cold_info };
                let (title, spec) = generate_product(&mut rng, src, &leaf_name);
                catalog.add_product(info.id, title, spec);
            }
        }

        // 3. Merchants, their category coverage, brand bias, vocabularies.
        let mut merchants = Vec::new();
        let mut merchant_cats: Vec<Vec<usize>> = Vec::new();
        let mut vocabs = HashMap::new();
        let mut sloppiness = Vec::with_capacity(config.num_merchants);
        for mi in 0..config.num_merchants {
            let id = MerchantId::from_index(mi);
            merchants.push(Merchant { id, name: merchant_name(mi) });
            // Heterogeneous feed quality: tidy (0.2) to sloppy (1.8).
            sloppiness.push(0.2 + rng.random::<f64>() * 1.6);
            let mut covered = Vec::new();
            for (ci, _) in categories.iter().enumerate() {
                let guaranteed = ci == mi % categories.len();
                if guaranteed || rng.random_bool(config.merchant_category_coverage) {
                    covered.push(ci);
                }
            }
            for &ci in &covered {
                let info = &categories[ci];
                let vocab = MerchantVocab::generate_with_sloppiness(
                    &mut rng,
                    &info.templates,
                    config.name_identity_probability,
                    config.attribute_coverage,
                    config.junk_attributes_per_merchant,
                    sloppiness[mi],
                );
                vocabs.insert((id, info.id), vocab);
            }
            merchant_cats.push(covered);
        }

        // Per-merchant brand bias: the subset of brands the merchant stocks.
        let allowed_brands: Vec<Vec<String>> = (0..config.num_merchants)
            .map(|_| {
                let mut allowed = Vec::new();
                for top in TopLevel::ALL {
                    for b in crate::templates::brand_pool(top) {
                        if rng.random_bool(config.merchant_brand_coverage) {
                            allowed.push(b);
                        }
                    }
                }
                allowed
            })
            .collect();

        // Per-(merchant, category) assortments: brand bias plus a value-
        // segment bias on one salient attribute (e.g. a merchant that only
        // stocks high-capacity drives). Two merchants of one category thus
        // sell recognizably different slices of the catalog — the reason
        // the paper conditions value distributions on historical matches
        // (Figure 7's confounder).
        let mut assortments: HashMap<(MerchantId, CategoryId), Vec<ProductId>> = HashMap::new();
        let mut vocab_keys: Vec<(MerchantId, CategoryId)> = vocabs.keys().copied().collect();
        vocab_keys.sort();
        for (merchant, cat_id) in &vocab_keys {
            let info = &categories[category_index[cat_id]];
            let products: Vec<&pse_core::Product> = catalog.products_in(*cat_id).collect();
            let brands = &allowed_brands[merchant.index()];
            // Segment: an allowed-value subset on the first non-universal
            // attribute with a finite menu.
            let segment: Option<(String, Vec<String>)> = info
                .templates
                .iter()
                .skip(3)
                .find(|t| matches!(t.gen, ValueGen::Numeric { .. } | ValueGen::Enum { .. }))
                .map(|t| {
                    let menu = canonical_menu(&t.gen);
                    let keep = ((menu.len() as f64) * 0.45).ceil() as usize;
                    let mut idx: Vec<usize> = (0..menu.len()).collect();
                    // Partial Fisher–Yates for a random `keep`-subset.
                    for i in 0..keep.min(menu.len()) {
                        let j = rng.random_range(i..menu.len());
                        idx.swap(i, j);
                    }
                    let allowed: Vec<String> =
                        idx[..keep.min(menu.len())].iter().map(|&i| menu[i].clone()).collect();
                    (t.name.clone(), allowed)
                });
            let brand_ok = |p: &pse_core::Product| {
                p.spec.get("Brand").map(|b| brands.iter().any(|a| a == b)).unwrap_or(true)
            };
            let segment_ok = |p: &pse_core::Product| match &segment {
                Some((attr, allowed)) => {
                    p.spec.get(attr).map(|v| allowed.iter().any(|a| a == v)).unwrap_or(true)
                }
                None => true,
            };
            let warm = &products[..active_count.min(products.len())];
            let mut eligible: Vec<ProductId> =
                warm.iter().filter(|p| brand_ok(p) && segment_ok(p)).map(|p| p.id).collect();
            if eligible.is_empty() {
                eligible = warm.iter().filter(|p| brand_ok(p)).map(|p| p.id).collect();
            }
            if eligible.is_empty() {
                eligible = warm.iter().map(|p| p.id).collect();
            }
            assortments.insert((*merchant, *cat_id), eligible);
        }

        // 4. Offers.
        // Category popularity: skewed random weights.
        let cat_weights: Vec<f64> = (0..categories.len())
            .map(|_| {
                let u: f64 = rng.random();
                u * u + 0.05
            })
            .collect();
        // Merchants covering each category.
        let mut merchants_of_cat: Vec<Vec<usize>> = vec![Vec::new(); categories.len()];
        for (mi, cats) in merchant_cats.iter().enumerate() {
            for &ci in cats {
                merchants_of_cat[ci].push(mi);
            }
        }
        // Product popularity within a category (zipf-ish by index).
        let product_weights: Vec<f64> = (0..config.products_per_category)
            .map(|r| 1.0 / ((r + 1) as f64).powf(config.popularity_skew))
            .collect();

        let cat_products: Vec<Vec<ProductId>> = categories
            .iter()
            .map(|info| catalog.products_in(info.id).map(|p| p.id).collect())
            .collect();

        Self {
            config,
            catalog,
            merchants,
            categories,
            category_index,
            vocabs,
            sloppiness,
            assortments,
            cat_weights,
            merchants_of_cat,
            product_weights,
            cat_products,
            rng,
        }
    }

    /// The generation configuration.
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The catalog (taxonomy + products).
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// All merchants.
    pub fn merchants(&self) -> &[Merchant] {
        &self.merchants
    }

    /// Info for one category id (leaf categories only).
    pub fn category_info(&self, id: CategoryId) -> Option<&CategoryInfo> {
        self.category_index.get(&id).map(|i| &self.categories[*i])
    }

    /// Stream `total` offers. The first `min(total, config.num_offers)`
    /// offers are byte-identical to [`World::generate`] on the same
    /// config; `total` may exceed `config.num_offers` — the stream just
    /// keeps walking the RNG.
    pub fn stream(&self, total: usize) -> OfferStream<'_> {
        OfferStream::new(self, total)
    }

    /// The RNG state at the start of the offer loop (cloned per stream).
    pub(crate) fn offer_loop_rng(&self) -> StdRng {
        self.rng.clone()
    }

    /// The merchant-formatted specification on the landing page of a
    /// streamed offer whose true product is `product`. Matches
    /// [`World::page_spec`] for the same offer — deterministic per
    /// offer id, independent of stream position or batch size.
    pub fn page_spec_for(&self, offer: &Offer, product: ProductId) -> Spec {
        let cat = offer.category.expect("generated offers always carry a category");
        let info = &self.categories[self.category_index[&cat]];
        let vocab = &self.vocabs[&(offer.merchant, cat)];
        derive_page_spec(
            &self.config,
            info,
            vocab,
            self.sloppiness[offer.merchant.index()],
            self.catalog.product(product),
            offer.id,
        )
    }
}

impl World {
    /// Generate a world from `config`: build the [`WorldBase`] scaffold,
    /// then drain an [`OfferStream`] of `config.num_offers` offers into
    /// the materialized vectors. Streaming and materializing are
    /// byte-identical by construction — this *is* the stream.
    ///
    /// # Panics
    /// Panics when `config.validate()` fails.
    pub fn generate(config: WorldConfig) -> Self {
        let _obs = pse_obs::span("datagen.generate");
        let base = WorldBase::generate(config);
        let num_offers = base.config.num_offers;

        let mut offers = Vec::with_capacity(num_offers);
        let mut historical = HistoricalMatches::new();
        let mut truth = GroundTruth::default();
        let mut stream = base.stream(num_offers);
        while let Some(batch) = stream.next_batch(1024) {
            for so in batch.offers {
                truth.offer_product.push(so.product);
                if let Some(matched) = so.historical {
                    historical.insert(so.offer.id, matched);
                }
                if so.bullet {
                    truth.bullet_offers.insert(so.offer.id);
                }
                offers.push(so.offer);
            }
        }
        let WorldBase {
            config,
            catalog,
            merchants,
            categories,
            category_index,
            vocabs,
            sloppiness,
            ..
        } = base;

        // Ground-truth attribute map from the vocabularies.
        for ((merchant, cat_id), vocab) in &vocabs {
            let info = &categories[category_index[cat_id]];
            for t in &info.templates {
                if let Some(surface) = vocab.merchant_name(&t.name) {
                    truth.attr_map.insert(
                        (*merchant, *cat_id, normalize_attribute_name(surface)),
                        Some(t.name.clone()),
                    );
                }
            }
            for (junk_name, _) in vocab.junk_attributes() {
                truth
                    .attr_map
                    .insert((*merchant, *cat_id, normalize_attribute_name(junk_name)), None);
            }
        }

        pse_obs::add("datagen.offers", offers.len() as u64);
        pse_obs::add("datagen.products", catalog.len() as u64);
        pse_obs::add("datagen.merchants", merchants.len() as u64);
        pse_obs::add("datagen.historical_matches", historical.len() as u64);
        Self {
            config,
            catalog,
            merchants,
            offers,
            historical,
            truth,
            categories,
            category_index,
            vocabs,
            sloppiness,
        }
    }

    /// The leaf-category generation data.
    pub fn categories(&self) -> &[CategoryInfo] {
        &self.categories
    }

    /// Info for one category id (leaf categories only).
    pub fn category_info(&self, id: CategoryId) -> Option<&CategoryInfo> {
        self.category_index.get(&id).map(|i| &self.categories[*i])
    }

    /// The merchant dialect for `(merchant, category)`, if the merchant
    /// covers the category.
    pub fn vocab(&self, merchant: MerchantId, category: CategoryId) -> Option<&MerchantVocab> {
        self.vocabs.get(&(merchant, category))
    }

    /// The merchant-formatted specification that appears on the offer's
    /// landing page. Deterministic per offer.
    pub fn page_spec(&self, offer: OfferId) -> Spec {
        let o = &self.offers[offer.index()];
        let cat = o.category.expect("generated offers always carry a category");
        let info = &self.categories[self.category_index[&cat]];
        let vocab = &self.vocabs[&(o.merchant, cat)];
        let product = self.catalog.product(self.truth.product_of(offer));
        derive_page_spec(
            &self.config,
            info,
            vocab,
            self.sloppiness[o.merchant.index()],
            product,
            offer,
        )
    }

    /// Derive the page specifications of many offers at once, fanning the
    /// per-offer work (vocabulary application, value formatting) across
    /// worker threads. Output `i` is `page_spec(offers[i])` at any thread
    /// count — each offer derives from its own seeded RNG, so parallelism
    /// cannot change the result.
    pub fn page_specs(&self, offers: &[OfferId]) -> Vec<Spec> {
        let _obs = pse_obs::span("datagen.page_specs");
        pse_par::par_map_chunked(offers, 32, |&o| self.page_spec(o))
    }

    /// Render many landing pages at once (see [`World::landing_page`]);
    /// order-preserving and deterministic at any thread count.
    pub fn landing_pages(&self, offers: &[OfferId]) -> Vec<String> {
        let _obs = pse_obs::span("datagen.render_pages");
        pse_par::par_map_chunked(offers, 16, |&o| self.landing_page(o))
    }

    /// Render the offer's landing page HTML. Deterministic per offer.
    pub fn landing_page(&self, offer: OfferId) -> String {
        let o = &self.offers[offer.index()];
        let spec = self.page_spec(offer);
        let mut rng = self.offer_rng(offer, 0x9A6E);
        let style = PageStyle {
            bullet_specs: self.truth.is_bullet_page(offer),
            noise_table: rng.random_bool(self.config.noise_table_probability),
            banner_row: rng.random_bool(0.5),
        };
        let merchant_name = &self.merchants[o.merchant.index()].name;
        pse_obs::incr("datagen.pages_rendered");
        render_landing_page(&o.title, merchant_name, o.price_cents, &spec, style, &mut rng)
    }

    /// Summary statistics.
    pub fn stats(&self) -> WorldStats {
        let mut mc: HashMap<(MerchantId, Option<CategoryId>), usize> = HashMap::new();
        for o in &self.offers {
            *mc.entry((o.merchant, o.category)).or_insert(0) += 1;
        }
        let mean = if mc.is_empty() { 0.0 } else { self.offers.len() as f64 / mc.len() as f64 };
        WorldStats {
            categories: self.categories.len(),
            products: self.catalog.len(),
            merchants: self.merchants.len(),
            offers: self.offers.len(),
            historical_matches: self.historical.len(),
            mean_offers_per_merchant_category: mean,
        }
    }

    fn offer_rng(&self, offer: OfferId, salt: u64) -> StdRng {
        offer_rng(self.config.seed, offer, salt)
    }
}

/// The page-spec derivation shared by [`World::page_spec`] (materialized
/// worlds) and [`WorldBase::page_spec_for`] (streamed offers): apply the
/// merchant vocabulary to the true product's spec, with per-merchant
/// sloppiness-scaled value corruption and appended junk attributes.
/// Seeded per offer id, so it is identical wherever the offer came from.
fn derive_page_spec(
    config: &WorldConfig,
    info: &CategoryInfo,
    vocab: &MerchantVocab,
    sloppiness: f64,
    product: &pse_core::Product,
    offer: OfferId,
) -> Spec {
    let mut rng = offer_rng(config.seed, offer, 0xA11CE);
    let mut spec = Spec::new();
    for (t, weights) in info.templates.iter().zip(&info.weights) {
        if !vocab.exposes(&t.name) {
            continue;
        }
        let Some(canonical) = product.spec.get(&t.name) else { continue };
        let corruption = (config.value_corruption_rate * sloppiness).clamp(0.0, 0.5);
        let canonical = if rng.random_bool(corruption) {
            vocab.corrupt_value(&t.gen, weights, &mut rng)
        } else {
            canonical.to_string()
        };
        let surface = vocab.merchant_name(&t.name).expect("exposed implies named");
        spec.push(surface, vocab.format_value(&t.name, &canonical, &t.gen));
    }
    for (junk_name, menu) in vocab.junk_attributes() {
        let v = &menu[rng.random_range(0..menu.len())];
        spec.push(junk_name.clone(), v.clone());
    }
    spec
}

fn offer_rng(seed: u64, offer: OfferId, salt: u64) -> StdRng {
    StdRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(offer.0).wrapping_add(salt),
    )
}

fn generate_category<R: Rng + ?Sized>(
    rng: &mut R,
    top: TopLevel,
    pool: &[AttrTemplate],
) -> (CategoryInfo, CategorySchema) {
    let mut templates = universal_attributes(top);
    let (lo, hi) = top.schema_width();
    let width = rng.random_range(lo..=hi);
    // Sample without replacement from the pool; procedural beyond it.
    let mut pool_idx: Vec<usize> = (0..pool.len()).collect();
    for k in 0..width {
        if pool_idx.is_empty() {
            templates.push(procedural_attribute(rng, k));
        } else {
            let j = rng.random_range(0..pool_idx.len());
            templates.push(pool[pool_idx.swap_remove(j)].clone());
        }
    }
    // Most categories also carry a confusable dimension group — attributes
    // with identical value menus that only instance alignment can tell
    // apart (see `templates::confusable_group`).
    if rng.random_bool(0.9) {
        templates.extend(crate::templates::confusable_group(top));
    }
    let weights: Vec<Vec<f64>> = templates.iter().map(|t| t.gen.category_weights(rng)).collect();
    let schema = CategorySchema::from_attributes(templates.iter().map(|t| {
        let is_key = matches!(t.gen, ValueGen::Mpn | ValueGen::Upc);
        AttributeDef { name: t.name.clone(), kind: t.kind, is_key }
    }));
    (CategoryInfo { id: CategoryId(0), top, templates, weights }, schema)
}

fn generate_product<R: Rng + ?Sized>(
    rng: &mut R,
    info: &CategoryInfo,
    leaf_name: &str,
) -> (String, Spec) {
    let mut spec = Spec::new();
    for (t, w) in info.templates.iter().zip(&info.weights) {
        spec.push(t.name.clone(), t.gen.sample(w, rng));
    }
    let brand = spec.get("Brand").unwrap_or("Generic").to_string();
    let model = spec.get("MPN").unwrap_or("X100").to_string();
    // One salient non-identifier attribute value enriches the title.
    let salient = info
        .templates
        .iter()
        .find(|t| !matches!(t.gen, ValueGen::Mpn | ValueGen::Upc | ValueGen::Brand { .. }))
        .and_then(|t| spec.get(&t.name))
        .unwrap_or("");
    let singular = leaf_name.strip_suffix('s').unwrap_or(leaf_name);
    let title = format!("{brand} {model} {singular} {salient}").trim().to_string();
    (title, spec)
}

/// The canonical value strings a generator can produce (finite menus only).
fn canonical_menu(gen: &ValueGen) -> Vec<String> {
    match gen {
        ValueGen::Numeric { values, unit, .. } => values
            .iter()
            .map(|v| {
                let n = crate::value::format_number(*v);
                if unit.is_empty() {
                    n
                } else {
                    format!("{n} {unit}")
                }
            })
            .collect(),
        ValueGen::Enum { choices } => choices.clone(),
        ValueGen::Brand { pool } => pool.clone(),
        ValueGen::Mpn | ValueGen::Upc => Vec::new(),
    }
}

pub(crate) fn offer_price<R: Rng + ?Sized>(
    product: ProductId,
    merchant: usize,
    rng: &mut R,
) -> u64 {
    // Stable base price per product, with a per-offer merchant wiggle.
    let base = 1_000 + (product.0.wrapping_mul(2_654_435_761) % 90_000);
    let factor = 0.9 + (merchant % 10) as f64 / 50.0 + rng.random::<f64>() * 0.06;
    (base as f64 * factor) as u64
}

pub(crate) fn offer_title<R: Rng + ?Sized>(product_title: &str, rng: &mut R) -> String {
    match rng.random_range(0..5u8) {
        0 => format!("{product_title} - NEW"),
        1 => format!("{product_title} with Free Shipping"),
        _ => product_title.to_string(),
    }
}

fn merchant_name(i: usize) -> String {
    const NAMES: &[&str] = &[
        "TechForLess",
        "Microwarehouse",
        "BuyMore",
        "ShopSmart",
        "GadgetHub",
        "ValueBazaar",
        "PrimeDeals",
        "MegaMart",
        "DirectSupply",
        "CircuitCity",
        "HomeStyles",
        "KitchenKing",
    ];
    if i < NAMES.len() {
        NAMES[i].to_string()
    } else {
        format!("{}{}", NAMES[i % NAMES.len()], i / NAMES.len() + 1)
    }
}

pub(crate) fn slug(name: &str) -> String {
    name.chars().filter(|c| c.is_ascii_alphanumeric()).collect::<String>().to_lowercase()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(WorldConfig::tiny())
    }

    #[test]
    fn world_has_expected_shape() {
        let w = world();
        let s = w.stats();
        assert_eq!(s.categories, 5);
        assert_eq!(s.products, 5 * 12);
        assert_eq!(s.merchants, 5);
        assert_eq!(s.offers, 300);
        assert!(s.historical_matches > 0);
        assert!(w.catalog.validate().is_empty(), "products conform to schemas");
    }

    #[test]
    fn offers_reference_valid_entities() {
        let w = world();
        for o in &w.offers {
            assert!(o.merchant.index() < w.merchants.len());
            let cat = o.category.unwrap();
            assert!(w.category_info(cat).is_some());
            let p = w.truth.product_of(o.id);
            assert_eq!(w.catalog.product(p).category, cat, "offer product in offer category");
            assert!(w.vocab(o.merchant, cat).is_some(), "merchant covers category");
        }
    }

    #[test]
    fn page_spec_is_deterministic_and_truthful() {
        let w = world();
        let offer = w.offers[0].id;
        let a = w.page_spec(offer);
        let b = w.page_spec(offer);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        // Every page attribute is either a renamed catalog attribute or junk,
        // per the ground-truth map.
        let o = &w.offers[0];
        let cat = o.category.unwrap();
        for pair in a.iter() {
            let norm = pse_text::normalize::normalize_attribute_name(&pair.name);
            assert!(
                w.truth.catalog_attribute(o.merchant, cat, &norm).is_some(),
                "unmapped page attribute {}",
                pair.name
            );
        }
    }

    #[test]
    fn landing_pages_are_deterministic_html() {
        let w = world();
        let offer = w.offers[1].id;
        let a = w.landing_page(offer);
        assert_eq!(a, w.landing_page(offer));
        assert!(a.contains("<table"));
        assert!(a.starts_with("<!DOCTYPE html>"));
    }

    #[test]
    fn historical_matches_point_to_true_products_when_error_free() {
        let w = world(); // match_error_rate = 0 in tiny config
        for (offer, product) in w.historical.iter() {
            assert_eq!(product, w.truth.product_of(offer));
        }
    }

    #[test]
    fn match_errors_appear_when_configured() {
        let cfg = WorldConfig { match_error_rate: 0.5, ..WorldConfig::tiny() };
        let w = World::generate(cfg);
        let wrong = w.historical.iter().filter(|(o, p)| *p != w.truth.product_of(*o)).count();
        assert!(wrong > 0, "expected some corrupted matches");
    }

    #[test]
    fn bullet_offers_fraction_is_plausible() {
        let w = world();
        let frac = w.truth.bullet_offers.len() as f64 / w.offers.len() as f64;
        assert!(frac > 0.02 && frac < 0.35, "frac={frac}");
    }

    #[test]
    fn same_seed_same_world() {
        let a = World::generate(WorldConfig::tiny());
        let b = World::generate(WorldConfig::tiny());
        assert_eq!(a.offers.len(), b.offers.len());
        assert_eq!(a.offers[7], b.offers[7]);
        assert_eq!(a.catalog.product(ProductId(3)).spec, b.catalog.product(ProductId(3)).spec);
    }

    #[test]
    fn different_seed_different_world() {
        let a = World::generate(WorldConfig::tiny());
        let b = World::generate(WorldConfig { seed: 999, ..WorldConfig::tiny() });
        let differs = (0..20).any(|i| a.offers[i] != b.offers[i]);
        assert!(differs);
    }

    #[test]
    fn name_identity_rate_tracks_config() {
        let w = world();
        let mut identity = 0usize;
        let mut total = 0usize;
        for ((_, cat), vocab) in w.vocabs.iter() {
            let info = w.category_info(*cat).unwrap();
            for t in &info.templates {
                if let Some(surface) = vocab.merchant_name(&t.name) {
                    total += 1;
                    if pse_text::normalize::names_equal(surface, &t.name) {
                        identity += 1;
                    }
                }
            }
        }
        let rate = identity as f64 / total as f64;
        assert!(rate > 0.2 && rate < 0.55, "identity rate {rate}");
    }
}
