//! The per-category inverted index the query engine searches.
//!
//! A [`CategoryIndex`] freezes one category's visible products into an
//! immutable, self-contained search structure on **one** lexicographic
//! token [`Interner`]: an [`InternedCorpus`] with per-document TF-IDF
//! vectors, token → document postings, two phrase resolvers — normalized
//! attribute-name phrases (catalog names *and* the merchant surface
//! forms learned by offline correspondence learning) and normalized
//! value phrases — and, over the same symbols, a second corpus with one
//! pre-weighted [`SoftDoc`] per distinct value for the fuzzy fallback,
//! which is scored by the shared [`InternedSoftTfIdf`] kernel.
//! Everything is built from the documents in one deterministic pass
//! over an already-sorted product slice, so two builds over the same
//! products are identical regardless of how many shards or threads
//! produced them.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use pse_core::{CategoryId, CorrespondenceSet};
use pse_synthesis::SynthesizedProduct;
use pse_text::normalize::values_equivalent;
use pse_text::{
    normalize_attribute_name, normalize_value, tokens, InternedCorpus, InternedCorpusBuilder,
    InternedSoftTfIdf, Interner, InternerBuilder, JwMemo, SoftDoc, SparseCounts, SparseVec, Sym,
};

use crate::resolve::FUZZY_THETA;

/// The full searchable catalog: one immutable index per category. The
/// serving layer materializes the map from its published snapshot and
/// swaps it together with the snapshot, so a search always sees one
/// consistent state.
pub type SearchIndex = BTreeMap<CategoryId, Arc<CategoryIndex>>;

/// One indexed product.
#[derive(Debug)]
pub struct Doc {
    /// The clustering key attribute (e.g. `"MPN"`).
    pub key_attribute: String,
    /// The normalized key value — together with the category and key
    /// attribute this is the product's cluster key.
    pub key_value: String,
    /// `(normalized attribute, normalized value)` pairs of the fused
    /// specification, sorted; empty normalized values are dropped.
    pub pairs: Vec<(String, String)>,
    /// L2-normalized TF-IDF vector over the document's interned tokens.
    pub vec: SparseVec,
    /// Offers fused into the product — the evidence behind the spec.
    /// Ranking weights cosine by it, so a product many merchants carry
    /// outranks a single-offer phantom cluster (an extraction-garbled
    /// key) with a near-identical spec.
    pub support: u32,
}

/// One distinct normalized value observed in the category, with the
/// attribute it appeared under.
#[derive(Debug)]
pub struct ValueEntry {
    /// Normalized catalog attribute name.
    pub attr: String,
    /// Normalized value.
    pub value: String,
}

/// One category's products frozen into a searchable structure.
#[derive(Debug)]
pub struct CategoryIndex {
    /// The category this index covers.
    pub category: CategoryId,
    interner: Interner,
    corpus: InternedCorpus,
    docs: Vec<Doc>,
    /// `postings[sym]` = ascending doc ids containing that token.
    postings: Vec<Vec<u32>>,
    /// Exact resolver: interned token phrase → indices into `values`.
    value_phrases: HashMap<Vec<Sym>, Vec<u32>>,
    /// Agglutination resolver: separator-free token concatenation →
    /// indices into `values`, so `"7.5 cm"` in a query still resolves
    /// when every merchant wrote `"7.5cm"` (same normal form, different
    /// token boundaries).
    value_concats: HashMap<String, Vec<u32>>,
    values: Vec<ValueEntry>,
    /// Attribute-name resolver: interned token phrase → sorted
    /// normalized catalog attribute names the phrase can mean.
    attr_phrases: HashMap<Vec<Sym>, Vec<String>>,
    /// Document frequencies over the distinct values (one document per
    /// `values` entry), indexed by the same `interner` — the statistics
    /// the fuzzy fallback weighs by.
    value_corpus: InternedCorpus,
    /// `value_docs[id]` = `values[id]` pre-weighted under `value_corpus`.
    value_docs: Vec<SoftDoc>,
}

impl CategoryIndex {
    /// Build the index for `category` from its visible products, which
    /// must arrive sorted by cluster key (the serving layer's merged
    /// snapshot order) — the build is then shard-count independent.
    /// `correspondences` contributes the merchant attribute surface
    /// forms learned offline.
    pub fn build(
        category: CategoryId,
        products: &[&SynthesizedProduct],
        correspondences: &CorrespondenceSet,
    ) -> Self {
        let _span = pse_obs::span("query.index_build");
        // Pass 1: intern every document token, the attribute-name tokens
        // (catalog and merchant surface forms) so name phrases are
        // resolvable even though documents only contain values, and the
        // tokens of every distinct normalized value the resolvers key by.
        let mut builder = InternerBuilder::default();
        let mut corpus_builder = InternedCorpusBuilder::new();
        let mut provisional_docs: Vec<Vec<u32>> = Vec::with_capacity(products.len());
        let mut doc_pairs: Vec<Vec<(String, String)>> = Vec::with_capacity(products.len());
        let mut attr_names: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();
        let mut distinct_values: BTreeSet<(String, String)> = BTreeSet::new();
        for p in products {
            let mut prov = builder.tokenize(&p.key_value);
            let mut pairs = Vec::with_capacity(p.spec.len());
            for av in p.spec.iter() {
                prov.extend(builder.tokenize(&av.value));
                let norm = av.normalized_name();
                builder.tokenize(&norm);
                let value = normalize_value(&av.value);
                if !value.is_empty() {
                    pairs.push((norm.clone(), value));
                }
                attr_names.entry(norm.clone()).or_default().insert(norm);
            }
            pairs.sort();
            pairs.dedup();
            distinct_values.extend(pairs.iter().cloned());
            corpus_builder.add_document(prov.iter().copied());
            provisional_docs.push(prov);
            doc_pairs.push(pairs);
        }
        for c in correspondences.iter().filter(|c| c.category == category) {
            let merchant_surface = normalize_attribute_name(&c.merchant_attribute);
            let catalog = normalize_attribute_name(&c.catalog_attribute);
            builder.tokenize(&merchant_surface);
            attr_names.entry(merchant_surface).or_default().insert(catalog);
        }
        // One document per distinct (attr, value) entry, in id order.
        // Interned, not looked up: re-tokenizing a normalized value nearly
        // always finds the tokens pass 1 saw, but a lowercase form can
        // split differently (`İ` → `i` + combining dot).
        let mut value_corpus_builder = InternedCorpusBuilder::new();
        let value_tokens: Vec<Vec<u32>> = distinct_values
            .iter()
            .map(|(_, value)| {
                let prov = builder.tokenize(value);
                value_corpus_builder.add_document(prov.iter().copied());
                prov
            })
            .collect();
        let interner = builder.finalize();
        let corpus = corpus_builder.finalize(&interner);
        let value_corpus = value_corpus_builder.finalize(&interner);

        // Pass 2: per-document TF-IDF vectors and postings.
        let mut docs = Vec::with_capacity(products.len());
        let mut postings: Vec<Vec<u32>> = vec![Vec::new(); interner.len()];
        for (i, ((p, prov), pairs)) in
            products.iter().zip(&provisional_docs).zip(doc_pairs).enumerate()
        {
            let counts = SparseCounts::from_doc(&interner.doc(prov));
            for &(sym, _) in counts.entries() {
                postings[sym.0 as usize].push(i as u32);
            }
            docs.push(Doc {
                key_attribute: p.key_attribute.clone(),
                key_value: p.key_value.clone(),
                pairs,
                vec: corpus.weight_counts(&counts),
                support: p.offers.len().max(1) as u32,
            });
        }

        // The value resolver: every distinct (attr, value), exact phrase
        // keyed by the value's interned tokens, fuzzy scored by SoftTFIDF
        // over the same values.
        let soft = InternedSoftTfIdf::new(&interner, &value_corpus, FUZZY_THETA);
        let mut values = Vec::with_capacity(distinct_values.len());
        let mut value_docs = Vec::with_capacity(distinct_values.len());
        let mut value_phrases: HashMap<Vec<Sym>, Vec<u32>> = HashMap::new();
        let mut value_concats: HashMap<String, Vec<u32>> = HashMap::new();
        for ((attr, value), prov) in distinct_values.into_iter().zip(&value_tokens) {
            let id = values.len() as u32;
            let syms = interner.doc(prov).syms().to_vec();
            let concat: String = syms.iter().map(|&s| interner.resolve(s)).collect();
            value_phrases.entry(syms).or_default().push(id);
            value_concats.entry(concat).or_default().push(id);
            value_docs.push(soft.doc(prov));
            values.push(ValueEntry { attr, value });
        }
        let mut attr_phrases: HashMap<Vec<Sym>, Vec<String>> = HashMap::new();
        for (surface, catalog_attrs) in attr_names {
            if let Some(syms) = lookup_phrase(&interner, &surface) {
                let slot = attr_phrases.entry(syms).or_default();
                slot.extend(catalog_attrs);
                slot.sort();
                slot.dedup();
            }
        }
        Self {
            category,
            interner,
            corpus,
            docs,
            postings,
            value_phrases,
            value_concats,
            values,
            attr_phrases,
            value_corpus,
            value_docs,
        }
    }

    /// Indexed documents, in cluster-key order.
    pub fn docs(&self) -> &[Doc] {
        &self.docs
    }

    /// The interned symbol for one normalized token, if in vocabulary.
    pub fn lookup(&self, token: &str) -> Option<Sym> {
        self.interner.lookup(token)
    }

    /// The interned phrase for a token slice; `None` when any token is
    /// out of vocabulary (then no exact phrase can match either).
    pub fn phrase_syms(&self, toks: &[String]) -> Option<Vec<Sym>> {
        toks.iter().map(|t| self.interner.lookup(t)).collect()
    }

    /// Exact value resolution: the `(attr, value)` entries whose
    /// normalized value tokens equal `syms`, in (attr, value) order.
    pub fn exact_values(&self, syms: &[Sym]) -> Option<&[u32]> {
        self.value_phrases.get(syms).map(Vec::as_slice)
    }

    /// Attribute-name resolution: the normalized catalog attributes the
    /// phrase `syms` can mean (via catalog names or learned merchant
    /// surface forms), sorted.
    pub fn exact_attrs(&self, syms: &[Sym]) -> Option<&[String]> {
        self.attr_phrases.get(syms).map(Vec::as_slice)
    }

    /// Agglutination-tolerant value resolution: the entries whose
    /// normalized value concatenates (separator-free) to the same string
    /// as the query window — the same normal form the labeler-style
    /// value equivalence accepts as identical.
    pub fn concat_values(&self, window: &[String]) -> Option<&[u32]> {
        self.value_concats.get(&window.concat()).map(Vec::as_slice)
    }

    /// Hint-scoped equivalent-value resolution: entries under one of the
    /// user-named `attrs` whose value carries the same magnitudes as the
    /// digit-bearing query phrase with compatible units — the explicit
    /// attribute plus equal digit sequences pin the fact even when
    /// merchants dropped or abbreviated the unit (`"depth 30 cm"` vs a
    /// fused `"30"`, `"32.5 in"` vs `"32.5 inches"`), while `"10
    /// inches"` still refuses a `"10 cm"` entry.
    pub fn hinted_equivalent_values(&self, attrs: &[String], phrase: &[String]) -> Vec<u32> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, e)| {
                if !attrs.contains(&e.attr) {
                    return false;
                }
                let vt = tokens(&e.value);
                hinted_value_match(phrase, &vt)
                    || (!phrase.iter().any(|t| t.bytes().all(|b| b.is_ascii_digit()))
                        && values_equivalent(&phrase.join(" "), &e.value))
            })
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// One value entry by id.
    pub fn value_entry(&self, id: u32) -> &ValueEntry {
        &self.values[id as usize]
    }

    /// Fuzzy value resolution: the entry with the highest SoftTFIDF
    /// similarity to `phrase` at or above [`FUZZY_THETA`]; earlier
    /// entries win ties. `None` when nothing clears the threshold.
    ///
    /// Scores are those of the reference [`pse_text::SoftTfIdf`] over the
    /// distinct values, bit for bit (`tests/fuzzy_reference.rs`). The
    /// phrase is weighted once, entries reuse their pre-weighted
    /// documents, and Jaro–Winkler scores are memoized per token pair
    /// for the duration of the call.
    pub fn fuzzy_value(&self, phrase: &str) -> Option<(u32, f64)> {
        let soft = InternedSoftTfIdf::new(&self.interner, &self.value_corpus, FUZZY_THETA);
        let query = soft.query_doc(phrase);
        let mut memo = JwMemo::new();
        let mut best: Option<(u32, f64)> = None;
        for (id, doc) in self.value_docs.iter().enumerate() {
            let sim = soft.similarity(&query, doc, &mut memo);
            if sim >= FUZZY_THETA && best.is_none_or(|(_, b)| sim > b) {
                best = Some((id as u32, sim));
            }
        }
        best
    }

    /// Ascending doc ids containing `sym`.
    pub fn postings(&self, sym: Sym) -> &[u32] {
        &self.postings[sym.0 as usize]
    }

    /// The L2-normalized TF-IDF query vector for a bag of query tokens;
    /// out-of-vocabulary tokens contribute nothing (they cannot overlap
    /// any document).
    pub fn query_vec(&self, toks: &[String]) -> SparseVec {
        let mut counts: BTreeMap<Sym, u64> = BTreeMap::new();
        for sym in toks.iter().filter_map(|t| self.interner.lookup(t)) {
            *counts.entry(sym).or_insert(0) += 1;
        }
        self.corpus.weight_counts(&SparseCounts::from_unsorted(counts.into_iter().collect()))
    }

    /// Every value entry id whose normalized value is *equivalent* to
    /// `value` under the fused-value equivalence relation (containment,
    /// tight concatenation, digit-sequence equality). Retrieval unions
    /// these entries' token postings so equivalence matches — which can
    /// share no literal token with the query — are never missed.
    pub fn equivalent_values(&self, value: &str) -> Vec<u32> {
        self.values
            .iter()
            .enumerate()
            .filter(|(_, e)| values_equivalent(&e.value, value))
            .map(|(i, _)| i as u32)
            .collect()
    }
}

/// Whether a digit-bearing query phrase denotes the same fact as an
/// indexed value: identical non-empty digit sequences, and every
/// multi-character unit token of the phrase prefix-aligns with some unit
/// token of the value (`"in"`/`"inches"`, `"mb"`/`"mbps"`; never
/// `"inches"`/`"cm"`). Single-character leftovers of tokenization
/// (`"mb s"` from `"MB/s"`) are ignored; extra value tokens (merchant
/// junk suffixes) are allowed.
fn hinted_value_match(phrase: &[String], value: &[String]) -> bool {
    let is_digits = |t: &String| t.bytes().all(|b| b.is_ascii_digit());
    let pd: Vec<&String> = phrase.iter().filter(|t| is_digits(t)).collect();
    let vd: Vec<&String> = value.iter().filter(|t| is_digits(t)).collect();
    if pd.is_empty() || pd != vd {
        return false;
    }
    let prefix_align = |a: &str, b: &str| {
        a == b || (a.len() >= 2 && b.len() >= 2 && (a.starts_with(b) || b.starts_with(a)))
    };
    phrase
        .iter()
        .filter(|t| !is_digits(t) && t.len() >= 2)
        .all(|p| value.iter().filter(|t| !is_digits(t)).any(|v| prefix_align(p, v)))
}

/// Look up every token of `text` in the finalized interner; `None` when
/// any token is missing (cannot happen for phrases interned in pass 1,
/// but the resolver stays total either way).
fn lookup_phrase(interner: &Interner, text: &str) -> Option<Vec<Sym>> {
    let toks = tokens(text);
    if toks.is_empty() {
        return None;
    }
    toks.iter().map(|t| interner.lookup(t)).collect()
}
