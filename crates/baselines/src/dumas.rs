//! DUMAS (Bilke & Naumann, ICDE 2005), implemented per the paper's
//! Appendix C.
//!
//! For each category `C` and each known duplicate — a product `p` matched
//! to an offer `o` of merchant `M` — build an `m × n` similarity matrix
//! `S_k` whose cells compare each product field value with each offer field
//! value under SoftTFIDF. Average the matrices of merchant `M`:
//! `S_M = (1/T) Σ S_k`, then solve maximum-weight bipartite matching on
//! `S_M`; every matched cell becomes a candidate correspondence scored by
//! its cell weight.
//!
//! [`DumasMatcher::score_candidates`] runs on the interned SoftTFIDF
//! kernel: per (merchant, category) group, each distinct field value is
//! tokenized and TF-IDF-weighted once, and Jaro–Winkler scores are memoized
//! per token pair across the whole matrix build. Scores are bit-identical
//! to [`DumasMatcher::score_candidates_reference`], the retained
//! string-based implementation.

use std::collections::HashMap;

use pse_assignment::{hungarian_max_matching, Matrix};
use pse_core::{Catalog, CategoryId, HistoricalMatches, MerchantId, Offer, ProductId};
use pse_synthesis::{ScoredCandidate, SpecProvider};
use pse_text::normalize::normalize_attribute_name;
use pse_text::tfidf::{InternedCorpusBuilder, TfIdfCorpus};
use pse_text::{BagOfWords, InternedSoftTfIdf, InternerBuilder, JwMemo, SoftTfIdf};

/// Inner-similarity threshold θ of SoftTFIDF (0.9 in the original work).
pub const THETA: f64 = 0.9;

/// The DUMAS matcher. It has no fields; braced rather than a unit struct
/// so `DumasMatcher::default()` stays a lint-clean way to build one.
#[derive(Debug, Clone, Copy, Default)]
pub struct DumasMatcher {}

/// One known duplicate: a matched product and the offer's normalized spec.
struct Dup {
    product: ProductId,
    offer_spec: Vec<(String, String)>, // (normalized attr, value)
}

/// Group duplicates by (merchant, category) in sorted key order,
/// materializing offer specs once.
fn group_duplicates<P: SpecProvider>(
    offers: &[Offer],
    historical: &HistoricalMatches,
    provider: &P,
) -> Vec<((MerchantId, CategoryId), Vec<Dup>)> {
    let mut groups: HashMap<(MerchantId, CategoryId), Vec<Dup>> = HashMap::new();
    for offer in offers {
        let Some(product) = historical.product_of(offer.id) else { continue };
        let Some(category) = offer.category else { continue };
        let spec = provider.spec(offer);
        let offer_spec: Vec<(String, String)> = spec
            .iter()
            .map(|p| (normalize_attribute_name(&p.name), p.value.clone()))
            .filter(|(n, _)| !n.is_empty())
            .collect();
        groups.entry((offer.merchant, category)).or_default().push(Dup { product, offer_spec });
    }
    let mut keys: Vec<_> = groups.keys().copied().collect();
    keys.sort();
    keys.into_iter()
        .map(|k| {
            let dups = groups.remove(&k).expect("key");
            (k, dups)
        })
        .collect()
}

impl DumasMatcher {
    /// The matcher, at [`THETA`].
    pub fn new() -> Self {
        Self {}
    }

    /// Produce scored candidate correspondences from the same historical
    /// offer-to-product matches our approach uses.
    pub fn score_candidates<P: SpecProvider>(
        &self,
        catalog: &Catalog,
        offers: &[Offer],
        historical: &HistoricalMatches,
        provider: &P,
    ) -> Vec<ScoredCandidate> {
        let _span = pse_obs::span("baselines.dumas");
        // The memo counters may stay at zero (no groups, or exact-match-only
        // cells); seed them so reports always carry them with the span.
        pse_text::softtfidf::METRICS.seed();
        let mut out = Vec::new();
        let grouped = group_duplicates(offers, historical, provider);
        for ((merchant, category), dups) in grouped {
            let schema = catalog.taxonomy().schema(category);
            let catalog_attrs: Vec<&str> = schema.attribute_names().collect();
            // Column axis: union of merchant attributes over all duplicates,
            // sorted for determinism.
            let mut merchant_attrs: Vec<String> =
                dups.iter().flat_map(|d| d.offer_spec.iter().map(|(n, _)| n.clone())).collect();
            merchant_attrs.sort();
            merchant_attrs.dedup();
            if merchant_attrs.is_empty() || catalog_attrs.is_empty() {
                continue;
            }

            // Shared IDF corpus over every field value in the group: one
            // document per value *occurrence* (like the reference), but each
            // distinct value string is tokenized only once.
            let mut builder = InternerBuilder::new();
            let mut corpus_builder = InternedCorpusBuilder::new();
            let mut raw_values: HashMap<String, Vec<u32>> = HashMap::new();
            {
                let mut add_value = |v: &str| {
                    let raw = match raw_values.get(v) {
                        Some(raw) => raw,
                        None => {
                            let raw = builder.tokenize(v);
                            raw_values.entry(v.to_string()).or_insert(raw)
                        }
                    };
                    corpus_builder.add_document(raw.iter().copied());
                };
                for d in &dups {
                    for (_, v) in &d.offer_spec {
                        add_value(v);
                    }
                    let p = catalog.product(d.product);
                    for pair in p.spec.iter() {
                        add_value(&pair.value);
                    }
                }
            }
            let interner = builder.finalize();
            let corpus = corpus_builder.finalize(&interner);
            let soft = InternedSoftTfIdf::new(&interner, &corpus, THETA);
            // Pre-weight each distinct value once (the reference recomputed
            // the TF-IDF vector of both cell values for every cell).
            let docs: HashMap<&str, pse_text::SoftDoc> =
                raw_values.iter().map(|(v, raw)| (v.as_str(), soft.doc(raw))).collect();
            // One Jaro–Winkler memo per matrix build, plus a cell memo: the
            // same (product value, offer value) string pair recurs across
            // duplicates (and across cells when merchants repeat values),
            // and SoftTFIDF similarity is a pure function of the two values
            // under the group corpus.
            let mut memo = JwMemo::new();
            let mut cell_memo: HashMap<(&str, &str), f64> = HashMap::new();

            // Average the per-duplicate similarity matrices.
            let mut sum = Matrix::zeros(catalog_attrs.len(), merchant_attrs.len());
            for d in &dups {
                let product = catalog.product(d.product);
                let offer_values: HashMap<&str, &str> =
                    d.offer_spec.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
                let mut s_k = Matrix::zeros(catalog_attrs.len(), merchant_attrs.len());
                for (i, ap) in catalog_attrs.iter().enumerate() {
                    let Some(pv) = product.spec.get(ap) else { continue };
                    for (j, ao) in merchant_attrs.iter().enumerate() {
                        if let Some(ov) = offer_values.get(ao.as_str()) {
                            s_k[(i, j)] = match cell_memo.get(&(pv, *ov)) {
                                Some(&s) => s,
                                None => {
                                    let s = soft.similarity(&docs[pv], &docs[ov], &mut memo);
                                    cell_memo.insert((pv, *ov), s);
                                    s
                                }
                            };
                        }
                    }
                }
                sum.add_assign(&s_k);
            }
            sum.scale(1.0 / dups.len() as f64);

            // Maximum-weight bipartite matching on S_M: each name is
            // matched, and so allocated, at most once per group.
            for a in hungarian_max_matching(&sum) {
                let ap = catalog_attrs[a.row];
                let ao = &merchant_attrs[a.col];
                out.push(ScoredCandidate {
                    catalog_attribute: ap.into(),
                    merchant_attribute: ao.as_str().into(),
                    merchant,
                    category,
                    score: a.weight,
                    is_name_identity: normalize_attribute_name(ap) == *ao,
                });
            }
        }
        out
    }

    /// The original string-based implementation, kept as the oracle for the
    /// interned fast path (every `S_k` cell recomputes both TF-IDF vectors
    /// and rescans token pairs). Bit-identical output to
    /// [`Self::score_candidates`].
    pub fn score_candidates_reference<P: SpecProvider>(
        &self,
        catalog: &Catalog,
        offers: &[Offer],
        historical: &HistoricalMatches,
        provider: &P,
    ) -> Vec<ScoredCandidate> {
        let mut out = Vec::new();
        for ((merchant, category), dups) in group_duplicates(offers, historical, provider) {
            let schema = catalog.taxonomy().schema(category);
            let catalog_attrs: Vec<&str> = schema.attribute_names().collect();
            let mut merchant_attrs: Vec<String> =
                dups.iter().flat_map(|d| d.offer_spec.iter().map(|(n, _)| n.clone())).collect();
            merchant_attrs.sort();
            merchant_attrs.dedup();
            if merchant_attrs.is_empty() || catalog_attrs.is_empty() {
                continue;
            }

            // Shared IDF corpus over every field value in the group.
            let mut corpus = TfIdfCorpus::new();
            for d in &dups {
                for (_, v) in &d.offer_spec {
                    corpus.add_document(&BagOfWords::from_values([v.as_str()]));
                }
                let p = catalog.product(d.product);
                for pair in p.spec.iter() {
                    corpus.add_document(&BagOfWords::from_values([pair.value.as_str()]));
                }
            }
            let soft = SoftTfIdf::with_theta(corpus, THETA);

            // Average the per-duplicate similarity matrices.
            let mut sum = Matrix::zeros(catalog_attrs.len(), merchant_attrs.len());
            for d in &dups {
                let product = catalog.product(d.product);
                let offer_values: HashMap<&str, &str> =
                    d.offer_spec.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
                let mut s_k = Matrix::zeros(catalog_attrs.len(), merchant_attrs.len());
                for (i, ap) in catalog_attrs.iter().enumerate() {
                    let Some(pv) = product.spec.get(ap) else { continue };
                    for (j, ao) in merchant_attrs.iter().enumerate() {
                        if let Some(ov) = offer_values.get(ao.as_str()) {
                            s_k[(i, j)] = soft.similarity(pv, ov);
                        }
                    }
                }
                sum.add_assign(&s_k);
            }
            sum.scale(1.0 / dups.len() as f64);

            for a in hungarian_max_matching(&sum) {
                let ap = catalog_attrs[a.row];
                let ao = &merchant_attrs[a.col];
                out.push(ScoredCandidate {
                    catalog_attribute: ap.into(),
                    merchant_attribute: ao.as_str().into(),
                    merchant,
                    category,
                    score: a.weight,
                    is_name_identity: normalize_attribute_name(ap) == *ao,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pse_core::{AttributeDef, AttributeKind, CategorySchema, OfferId, Spec, Taxonomy};
    use pse_synthesis::FnProvider;

    /// Duplicates share near-identical field values, which is exactly the
    /// situation DUMAS exploits.
    fn scenario() -> (Catalog, Vec<Offer>, HistoricalMatches) {
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Hard Drives",
            CategorySchema::from_attributes([
                AttributeDef::new("Brand", AttributeKind::Text),
                AttributeDef::new("Speed", AttributeKind::Numeric),
            ]),
        );
        let mut catalog = Catalog::new(tax);
        let mut offers = Vec::new();
        let mut hist = HistoricalMatches::new();
        for (i, (brand, speed)) in
            [("Seagate", "5400"), ("Hitachi", "7200"), ("Samsung", "10000")].iter().enumerate()
        {
            let pid = catalog.add_product(
                cat,
                format!("p{i}"),
                Spec::from_pairs([("Brand", *brand), ("Speed", *speed)]),
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
                spec: Spec::from_pairs([("Manufacturer", *brand), ("RPM", *speed)]),
            });
            hist.insert(oid, pid);
        }
        (catalog, offers, hist)
    }

    #[test]
    fn finds_correspondences_from_duplicates() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let scored = DumasMatcher::new().score_candidates(&catalog, &offers, &hist, &provider);
        assert_eq!(scored.len(), 2, "bipartite matching yields one per attr");
        let find = |ap: &str| scored.iter().find(|c| &*c.catalog_attribute == ap).unwrap();
        assert_eq!(&*find("Brand").merchant_attribute, "manufacturer");
        assert_eq!(&*find("Speed").merchant_attribute, "rpm");
        assert!(find("Brand").score > 0.9);
    }

    #[test]
    fn one_to_one_constraint_holds() {
        let (catalog, offers, hist) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let scored = DumasMatcher::new().score_candidates(&catalog, &offers, &hist, &provider);
        let mut aps: Vec<_> = scored.iter().map(|c| c.catalog_attribute.clone()).collect();
        let mut aos: Vec<_> = scored.iter().map(|c| c.merchant_attribute.clone()).collect();
        aps.sort();
        aps.dedup();
        aos.sort();
        aos.dedup();
        assert_eq!(aps.len(), scored.len());
        assert_eq!(aos.len(), scored.len());
    }

    #[test]
    fn no_history_no_output() {
        let (catalog, offers, _) = scenario();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let scored = DumasMatcher::new().score_candidates(
            &catalog,
            &offers,
            &HistoricalMatches::new(),
            &provider,
        );
        assert!(scored.is_empty());
    }

    #[test]
    fn dumas_fails_without_value_overlap() {
        // When offer values are formatted beyond SoftTFIDF's reach, DUMAS
        // produces weak or missing matches — the paper's argument for why
        // redundancy alone is insufficient in product synthesis.
        let (catalog, mut offers, hist) = scenario();
        for o in &mut offers {
            let pairs: Vec<(String, String)> = o
                .spec
                .iter()
                .map(|p| (p.name.clone(), format!("approx {} units", p.value)))
                .collect();
            o.spec = Spec::from_pairs(pairs);
        }
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let scored = DumasMatcher::new().score_candidates(&catalog, &offers, &hist, &provider);
        for c in &scored {
            assert!(c.score < 0.9, "diluted values should score lower: {c:?}");
        }
    }

    /// The interned fast path must reproduce the reference bit-for-bit,
    /// including fuzzy (θ-close) matches and non-ASCII values.
    #[test]
    fn interned_path_matches_reference() {
        let (catalog, mut offers, hist) = scenario();
        // Introduce typos and non-ASCII so soft matches and the Unicode
        // tokenizer path are exercised.
        offers[0].spec = Spec::from_pairs([("Manufacturer", "Seagaet"), ("RPM", "5400 tr/min")]);
        offers[1].spec = Spec::from_pairs([("Manufacturer", "Hitachi"), ("RPM", "7200 U/min ü")]);
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let m = DumasMatcher::new();
        let fast = m.score_candidates(&catalog, &offers, &hist, &provider);
        let slow = m.score_candidates_reference(&catalog, &offers, &hist, &provider);
        assert_eq!(fast.len(), slow.len());
        for (f, s) in fast.iter().zip(&slow) {
            assert_eq!(f.catalog_attribute, s.catalog_attribute);
            assert_eq!(f.merchant_attribute, s.merchant_attribute);
            assert_eq!(f.score.to_bits(), s.score.to_bits(), "{}", f.catalog_attribute);
        }
    }
}
