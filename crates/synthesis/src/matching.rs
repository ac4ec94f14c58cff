//! Offer-to-product title matching.
//!
//! Section 3.1: historical associations "can be obtained through various
//! methods, including the use of universal identifiers (GTIN, UPC, EAN)
//! when available, manual techniques, or automated matchers that attempt to
//! match the title of the offers to structured product records." This
//! module implements such an automated matcher, which lets a deployment
//! *bootstrap* the historical matches the offline learner needs:
//!
//! 1. identifier matching — if the offer specification carries a UPC/EAN
//!    that a catalog product carries too, the match is certain;
//! 2. title matching — otherwise, compare the offer title against product
//!    titles and specifications with TF-IDF cosine, accepting the best
//!    product when it clears a confidence margin.
//!
//! Title matching runs over an *inverted index*: per category, every
//! product's L2-normalized TF-IDF vector is split into per-token posting
//! lists, and an offer's cosine numerators are accumulated by walking the
//! postings of the offer's tokens. Only products sharing at least one token
//! with the offer are touched; all others have cosine exactly `0.0` and are
//! skipped without changing any result (see [`TitleMatcher::match_offer`]).
//! [`TitleMatcher::match_offer_naive`] keeps the exhaustive scan as the
//! reference the blocked path is checked against: the tier-1 test
//! `tests/matcher_equivalence.rs::blocked_matcher_is_byte_identical_to_naive_scan`
//! asserts equal product, match kind and similarity bits over a generated
//! world — the one place that gate lives.

use std::collections::HashMap;

use pse_core::{Catalog, CategoryId, HistoricalMatches, Offer, ProductId, Spec};
use pse_text::intern::{Interner, InternerBuilder};
use pse_text::normalize::normalize_value;
use pse_text::sparse::{cosine_sparse, SparseCounts, SparseVec};
use pse_text::tfidf::{InternedCorpus, InternedCorpusBuilder, QueryTerm};
use pse_text::tokenize::for_each_token;

/// The blocking metric names, each written once.
pub mod metrics {
    pse_obs::metric_set! {
        /// What blocked candidate retrieval emits;
        /// [`TitleMatcher::bootstrap`](super::TitleMatcher::bootstrap)
        /// seeds the set.
        METRICS {
            counters {
                CANDIDATES = "match.block.candidates",
                SKIPPED = "match.block.skipped",
            }
            histograms { CANDIDATES_PER_OFFER = "match.block.candidates_per_offer" }
        }
    }
}
pub use metrics::METRICS;

/// Identifier attributes checked for exact matches, in priority order.
pub const IDENTIFIER_ATTRIBUTES: [&str; 2] = ["UPC", "MPN"];

/// Minimum cosine similarity for a title match to be accepted.
pub const MIN_SIMILARITY: f64 = 0.4;

/// Minimum margin between the best and second-best product similarity;
/// ambiguous offers stay unmatched (precision over recall, since
/// downstream learning conditions on these matches).
pub const MIN_MARGIN: f64 = 0.05;

/// How a match was established.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchKind {
    /// A shared universal identifier (exact).
    Identifier,
    /// Title similarity above threshold and margin.
    Title,
}

/// One proposed offer-to-product match.
#[derive(Debug, Clone)]
pub struct ProposedMatch {
    /// The offer.
    pub offer: pse_core::OfferId,
    /// The product it matches.
    pub product: ProductId,
    /// Cosine similarity (1.0 for identifier matches).
    pub similarity: f64,
    /// How the match was found.
    pub kind: MatchKind,
}

/// An offer-to-product matcher over one catalog.
pub struct TitleMatcher<'a> {
    catalog: &'a Catalog,
    /// Per-category interned corpus, product vectors and posting lists.
    per_category: HashMap<CategoryId, CategoryIndex>,
    /// identifier value (normalized) → product, per category.
    identifiers: HashMap<(CategoryId, String), ProductId>,
}

struct CategoryIndex {
    interner: Interner,
    corpus: InternedCorpus,
    /// Products in catalog order with their L2-normalized TF-IDF vectors.
    products: Vec<(ProductId, SparseVec)>,
    /// `postings[sym] = [(position in products, product weight), ..]`,
    /// positions ascending.
    postings: Vec<Vec<(u32, f64)>>,
}

#[derive(Default)]
struct CategoryBuild {
    builder: InternerBuilder,
    corpus: InternedCorpusBuilder,
    /// Products with their provisional token ids (title + spec values).
    products: Vec<(ProductId, Vec<u32>)>,
}

impl<'a> TitleMatcher<'a> {
    /// Build the matcher's indexes from the catalog.
    pub fn new(catalog: &'a Catalog) -> Self {
        let mut identifiers = HashMap::new();
        let mut builds: HashMap<CategoryId, CategoryBuild> = HashMap::new();
        for product in catalog.products() {
            let b = builds.entry(product.category).or_default();
            let mut raw = b.builder.tokenize(&product.title);
            for pair in product.spec.iter() {
                for_each_token(&pair.value, |t| raw.push(b.builder.intern(t)));
            }
            b.corpus.add_document(raw.iter().copied());
            b.products.push((product.id, raw));
            for id_attr in IDENTIFIER_ATTRIBUTES {
                if let Some(v) = product.spec.get(id_attr) {
                    identifiers.insert((product.category, normalize_value(v)), product.id);
                }
            }
        }
        let mut per_category = HashMap::new();
        for (category, build) in builds {
            let interner = build.builder.finalize();
            let corpus = build.corpus.finalize(&interner);
            let products: Vec<(ProductId, SparseVec)> = build
                .products
                .into_iter()
                .map(|(pid, raw)| {
                    let counts = SparseCounts::from_doc(&interner.doc(&raw));
                    (pid, corpus.weight_counts(&counts))
                })
                .collect();
            let mut postings: Vec<Vec<(u32, f64)>> = vec![Vec::new(); interner.len()];
            for (pos, (_, v)) in products.iter().enumerate() {
                for &(s, w) in v.entries() {
                    postings[s.0 as usize].push((pos as u32, w));
                }
            }
            per_category.insert(category, CategoryIndex { interner, corpus, products, postings });
        }
        Self { catalog, per_category, identifiers }
    }

    /// Try to match one offer. `spec` is the offer's (extracted)
    /// specification, used for identifier matching; pass an empty spec to
    /// match on the title alone.
    ///
    /// Scores only the products sharing at least one token with the offer,
    /// found through the category's inverted index. Equivalence with the
    /// exhaustive scan ([`Self::match_offer_naive`]): product weights are
    /// strictly positive, so non-candidates score exactly `0.0` and
    /// candidates strictly above it; the accumulator adds each candidate's
    /// shared-token products in ascending token order — the exact summation
    /// sequence of the sparse merge-join — and candidates are visited in
    /// product order, so best/second bookkeeping is unchanged. When *no*
    /// product shares a token, every similarity is `0.0`, below
    /// [`MIN_SIMILARITY`], and the offer stays unmatched.
    pub fn match_offer(&self, offer: &Offer, spec: &Spec) -> Option<ProposedMatch> {
        let category = offer.category?;
        if let Some(m) = self.identifier_match(category, offer, spec) {
            return Some(m);
        }
        let index = self.per_category.get(&category)?;
        let query = Self::query_vector(index, offer, spec);

        let n = index.products.len();
        let mut acc = vec![0.0f64; n];
        let mut seen = vec![false; n];
        let mut touched: Vec<u32> = Vec::new();
        for &(s, wq) in query.entries() {
            for &(pos, wp) in &index.postings[s.0 as usize] {
                acc[pos as usize] += wq * wp;
                if !seen[pos as usize] {
                    seen[pos as usize] = true;
                    touched.push(pos);
                }
            }
        }
        touched.sort_unstable();
        pse_obs::add(metrics::CANDIDATES, touched.len() as u64);
        pse_obs::add(metrics::SKIPPED, (n - touched.len()) as u64);
        pse_obs::observe(metrics::CANDIDATES_PER_OFFER, touched.len() as u64);

        if touched.is_empty() {
            return None;
        }
        let mut best: Option<(ProductId, f64)> = None;
        let mut second = 0.0f64;
        for &pos in &touched {
            let sim = acc[pos as usize].clamp(0.0, 1.0);
            let pid = index.products[pos as usize].0;
            match best {
                Some((_, b)) if sim <= b => second = second.max(sim),
                _ => {
                    if let Some((_, b)) = best {
                        second = second.max(b);
                    }
                    best = Some((pid, sim));
                }
            }
        }
        self.accept(offer, best, second)
    }

    /// Reference matcher: identical identifier handling, then an exhaustive
    /// cosine scan over every product of the category. Kept as the oracle
    /// for the blocked path (`tests/matcher_equivalence.rs`).
    pub fn match_offer_naive(&self, offer: &Offer, spec: &Spec) -> Option<ProposedMatch> {
        let category = offer.category?;
        if let Some(m) = self.identifier_match(category, offer, spec) {
            return Some(m);
        }
        let index = self.per_category.get(&category)?;
        let query = Self::query_vector(index, offer, spec);
        self.scan_products(index, offer, &query)
    }

    fn identifier_match(
        &self,
        category: CategoryId,
        offer: &Offer,
        spec: &Spec,
    ) -> Option<ProposedMatch> {
        for id_attr in IDENTIFIER_ATTRIBUTES {
            for v in spec.get_all(id_attr) {
                if let Some(&product) = self.identifiers.get(&(category, normalize_value(v))) {
                    return Some(ProposedMatch {
                        offer: offer.id,
                        product,
                        similarity: 1.0,
                        kind: MatchKind::Identifier,
                    });
                }
            }
        }
        None
    }

    /// The offer's L2-normalized TF-IDF vector over the category vocabulary:
    /// [`InternedCorpus::weight_query`] of the title and spec values, so
    /// out-of-vocabulary tokens take their share of the norm. Only
    /// in-vocabulary tokens are kept (an out-of-vocabulary weight multiplies
    /// a product weight of zero in every dot product).
    fn query_vector(index: &CategoryIndex, offer: &Offer, spec: &Spec) -> SparseVec {
        let texts = std::iter::once(offer.title.as_str()).chain(spec.iter().map(|p| &*p.value));
        let weights = index.corpus.weight_query(&index.interner, texts);
        SparseVec::from_sorted(
            weights
                .into_iter()
                .filter_map(|(term, w)| match term {
                    QueryTerm::Known(s) => Some((s, w)),
                    QueryTerm::Unknown(_) => None,
                })
                .collect(),
        )
    }

    fn scan_products(
        &self,
        index: &CategoryIndex,
        offer: &Offer,
        query: &SparseVec,
    ) -> Option<ProposedMatch> {
        let mut best: Option<(ProductId, f64)> = None;
        let mut second = 0.0f64;
        for (pid, pv) in &index.products {
            let sim = cosine_sparse(query, pv);
            match best {
                Some((_, b)) if sim <= b => second = second.max(sim),
                _ => {
                    if let Some((_, b)) = best {
                        second = second.max(b);
                    }
                    best = Some((*pid, sim));
                }
            }
        }
        self.accept(offer, best, second)
    }

    fn accept(
        &self,
        offer: &Offer,
        best: Option<(ProductId, f64)>,
        second: f64,
    ) -> Option<ProposedMatch> {
        let (product, similarity) = best?;
        if similarity >= MIN_SIMILARITY && similarity - second >= MIN_MARGIN {
            Some(ProposedMatch { offer: offer.id, product, similarity, kind: MatchKind::Title })
        } else {
            None
        }
    }

    /// Bootstrap a [`HistoricalMatches`] set from a batch of offers.
    /// `spec_of` supplies each offer's specification (e.g. via extraction).
    pub fn bootstrap<F>(&self, offers: &[Offer], mut spec_of: F) -> HistoricalMatches
    where
        F: FnMut(&Offer) -> Spec,
    {
        let _span = pse_obs::span("match.bootstrap");
        // The blocking metrics may legitimately end at zero (e.g. every
        // offer matched by identifier); seed them so reports always carry
        // them alongside the span.
        METRICS.seed();
        let mut matches = HistoricalMatches::new();
        for offer in offers {
            let spec = spec_of(offer);
            if let Some(m) = self.match_offer(offer, &spec) {
                matches.insert(m.offer, m.product);
            }
        }
        matches
    }

    /// The catalog this matcher indexes.
    pub fn catalog(&self) -> &Catalog {
        self.catalog
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_core::{AttributeDef, AttributeKind, CategorySchema, MerchantId, OfferId, Taxonomy};

    fn setup() -> (Catalog, Vec<ProductId>) {
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Hard Drives",
            CategorySchema::from_attributes([
                AttributeDef::key("UPC", AttributeKind::Identifier),
                AttributeDef::new("Brand", AttributeKind::Text),
                AttributeDef::new("Capacity", AttributeKind::Numeric),
            ]),
        );
        let mut catalog = Catalog::new(tax);
        let mut pids = Vec::new();
        for (title, upc, brand, cap) in [
            ("Seagate Barracuda 500GB Hard Drive", "111111111111", "Seagate", "500 GB"),
            ("Hitachi Deskstar 1TB Hard Drive", "222222222222", "Hitachi", "1000 GB"),
            ("Western Digital Caviar 250GB", "333333333333", "Western Digital", "250 GB"),
        ] {
            pids.push(catalog.add_product(
                cat,
                title,
                Spec::from_pairs([("UPC", upc), ("Brand", brand), ("Capacity", cap)]),
            ));
        }
        (catalog, pids)
    }

    fn offer(title: &str, cat: CategoryId, spec: Spec) -> Offer {
        Offer {
            id: OfferId(0),
            merchant: MerchantId(0),
            price_cents: 1,
            image_url: None,
            category: Some(cat),
            url: String::new(),
            title: title.into(),
            spec,
        }
    }

    #[test]
    fn identifier_match_is_exact() {
        let (catalog, pids) = setup();
        let matcher = TitleMatcher::new(&catalog);
        let cat = catalog.products().next().unwrap().category;
        let o = offer("totally unrelated title", cat, Spec::from_pairs([("UPC", "222222222222")]));
        let m = matcher.match_offer(&o, &o.spec).unwrap();
        assert_eq!(m.product, pids[1]);
        assert_eq!(m.kind, MatchKind::Identifier);
        assert_eq!(m.similarity, 1.0);
    }

    #[test]
    fn title_match_finds_closest_product() {
        let (catalog, pids) = setup();
        let matcher = TitleMatcher::new(&catalog);
        let cat = catalog.products().next().unwrap().category;
        let o = offer("Seagate Barracuda 500 GB SATA", cat, Spec::new());
        let m = matcher.match_offer(&o, &Spec::new()).unwrap();
        assert_eq!(m.product, pids[0]);
        assert_eq!(m.kind, MatchKind::Title);
        assert!(m.similarity > 0.4);
    }

    #[test]
    fn ambiguous_titles_stay_unmatched() {
        let (catalog, _) = setup();
        let matcher = TitleMatcher::new(&catalog);
        let cat = catalog.products().next().unwrap().category;
        // Generic words shared by every product: low similarity everywhere.
        let o = offer("Hard Drive", cat, Spec::new());
        assert!(matcher.match_offer(&o, &Spec::new()).is_none());
    }

    #[test]
    fn uncategorized_offers_are_skipped() {
        let (catalog, _) = setup();
        let matcher = TitleMatcher::new(&catalog);
        let mut o = offer("Seagate Barracuda 500GB", CategoryId(0), Spec::new());
        o.category = None;
        assert!(matcher.match_offer(&o, &Spec::new()).is_none());
    }

    #[test]
    fn bootstrap_collects_matches() {
        let (catalog, pids) = setup();
        let matcher = TitleMatcher::new(&catalog);
        let cat = catalog.products().next().unwrap().category;
        let offers: Vec<Offer> =
            ["Seagate Barracuda 500GB drive", "Hitachi Deskstar 1TB", "mystery gadget"]
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let mut o = offer(t, cat, Spec::new());
                    o.id = OfferId(i as u64);
                    o
                })
                .collect();
        let matches = matcher.bootstrap(&offers, |o| o.spec.clone());
        assert_eq!(matches.product_of(OfferId(0)), Some(pids[0]));
        assert_eq!(matches.product_of(OfferId(1)), Some(pids[1]));
        assert_eq!(matches.product_of(OfferId(2)), None);
    }

    /// The blocked matcher must agree with the exhaustive reference on every
    /// outcome, bit-for-bit on the similarity.
    #[test]
    fn blocked_agrees_with_naive_scan() {
        let (catalog, _) = setup();
        let matcher = TitleMatcher::new(&catalog);
        let cat = catalog.products().next().unwrap().category;
        for title in [
            "Seagate Barracuda 500 GB SATA",
            "Hard Drive",
            "mystery gadget with zero overlap",
            "hitachi deskstar",
            "",
            "größe écran", // out-of-vocabulary non-ASCII
        ] {
            let o = offer(title, cat, Spec::new());
            let blocked = matcher.match_offer(&o, &Spec::new());
            let naive = matcher.match_offer_naive(&o, &Spec::new());
            match (&blocked, &naive) {
                (None, None) => {}
                (Some(b), Some(n)) => {
                    assert_eq!(b.product, n.product, "title={title}");
                    assert_eq!(b.similarity.to_bits(), n.similarity.to_bits(), "title={title}");
                    assert_eq!(b.kind, n.kind, "title={title}");
                }
                _ => panic!("blocked={blocked:?} naive={naive:?} for title={title}"),
            }
        }
    }
}
