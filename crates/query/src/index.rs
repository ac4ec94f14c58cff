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
//! which is scored by the shared [`InternedSoftTfIdf`] kernel on the few
//! values a [`TokenProbe`] over the value tokens and their posting lists
//! say can score above zero.
//! Everything is built from the documents in one deterministic pass
//! over an already-sorted product slice, so two builds over the same
//! products are identical regardless of how many shards or threads
//! produced them.

use std::borrow::Borrow;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use pse_core::{CategoryId, CorrespondenceSet};
use pse_synthesis::SynthesizedProduct;
use pse_text::{
    normalize_attribute_name, normalize_value, tokens, InternedCorpus, InternedCorpusBuilder,
    InternedSoftTfIdf, Interner, InternerBuilder, JwMemo, SoftDoc, SparseCounts, SparseVec, Sym,
    TokenProbe,
};

use crate::metrics;
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
    /// The value's interned tokens, in order, repeats kept.
    pub(crate) syms: Vec<Sym>,
    /// The all-digit tokens among `syms`, in order — the magnitudes the
    /// value-equivalence digit rule compares.
    digits: Vec<Sym>,
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
    /// `value_docs[id]` = `values[id]` pre-weighted under `value_corpus`;
    /// never empty.
    value_docs: Vec<SoftDoc>,
    /// `value_postings[sym]` = ascending ids of the values containing that
    /// token.
    value_postings: Vec<Vec<u32>>,
    /// Gate features of every token some value contains.
    value_probe: TokenProbe,
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
        // Tokenizing is idempotent (`İ` included), so a normalized value
        // re-tokenizes to exactly the tokens pass 1 saw in its raw form:
        // interning adds no symbol here, it only hands back their ids.
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
        let mut value_postings: Vec<Vec<u32>> = vec![Vec::new(); interner.len()];
        let mut value_phrases: HashMap<Vec<Sym>, Vec<u32>> = HashMap::new();
        let mut value_concats: HashMap<String, Vec<u32>> = HashMap::new();
        for ((attr, value), prov) in distinct_values.into_iter().zip(&value_tokens) {
            let id = values.len() as u32;
            let syms = interner.doc(prov).syms().to_vec();
            let concat: String = syms.iter().map(|&s| interner.resolve(s)).collect();
            let digits = syms.iter().copied().filter(|&s| is_digits(interner.resolve(s))).collect();
            value_phrases.entry(syms.clone()).or_default().push(id);
            value_concats.entry(concat).or_default().push(id);
            let doc = soft.doc(prov);
            // An empty value would score 1.0 against an empty phrase — the
            // one positive score no shared token explains.
            assert!(!doc.is_empty(), "indexed values are non-empty");
            for sym in doc.syms() {
                value_postings[sym.0 as usize].push(id);
            }
            value_docs.push(doc);
            values.push(ValueEntry { attr, value, syms, digits });
        }
        let value_probe = TokenProbe::new(&interner, value_docs.iter().flat_map(SoftDoc::syms));
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
            value_postings,
            value_probe,
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
        // A digit-bearing phrase matches by magnitude; any other falls back
        // to plain value equivalence, which re-tokenizes the joined phrase.
        let by_magnitude = phrase.iter().any(|t| is_digits(t));
        let query = (!by_magnitude).then(|| self.intern_phrase(&tokens(&phrase.join(" "))));
        let mut ids: Vec<u32> = Vec::new();
        for attr in attrs {
            // Entries are in (attr, value) order: one attribute, one run.
            let lo = self.values.partition_point(|e| e.attr < *attr);
            for (id, e) in
                self.values.iter().enumerate().skip(lo).take_while(|(_, e)| e.attr == *attr)
            {
                let hit = match &query {
                    None => self.hinted_value_match(phrase, e),
                    Some(q) => self.entry_equivalent(id as u32, q),
                };
                if hit {
                    ids.push(id as u32);
                }
            }
        }
        ids.sort_unstable();
        ids.dedup();
        ids
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
    /// distinct values, bit for bit (`tests/fuzzy_reference.rs`), but only
    /// the values that can score above zero are scored: those holding a
    /// token equal or θ-close to a token of the phrase, found by probing
    /// the value tokens' gate features and following their posting lists
    /// ([`InternedSoftTfIdf::close_tokens`] has the argument). The resolver
    /// runs the same function with one probe per query instead of one per
    /// window.
    pub fn fuzzy_value(&self, phrase: &str) -> Option<(u32, f64)> {
        self.fuzzy_window(&[phrase], &self.fuzzy_probe(&[phrase]))
    }

    /// One row per text: the value tokens equal or θ-close to some token
    /// of it. Rows are keyed by the text's position, so any run of them
    /// serves the window joining the same run of texts.
    pub(crate) fn fuzzy_probe<S: Borrow<str>>(&self, texts: &[S]) -> Vec<Vec<Sym>> {
        let soft = self.soft();
        texts.iter().map(|t| soft.close_tokens(&self.value_probe, t.borrow())).collect()
    }

    /// The fuzzy scorer: SoftTFIDF at [`FUZZY_THETA`] over the distinct
    /// values' statistics.
    fn soft(&self) -> InternedSoftTfIdf<'_> {
        InternedSoftTfIdf::new(&self.interner, &self.value_corpus, FUZZY_THETA)
    }

    /// [`Self::fuzzy_value`] of `window` joined by spaces, given the
    /// [`Self::fuzzy_probe`] rows of exactly those texts.
    pub(crate) fn fuzzy_window<S: Borrow<str>>(
        &self,
        window: &[S],
        rows: &[Vec<Sym>],
    ) -> Option<(u32, f64)> {
        let candidates = self.fuzzy_candidates(rows);
        if candidates.is_empty() {
            return None;
        }
        pse_obs::observe(metrics::FUZZY_CANDIDATES, candidates.len() as u64);
        let soft = self.soft();
        let query = soft.query_doc(&window.join(" "));
        let mut memo = JwMemo::new();
        let mut best: Option<(u32, f64)> = None;
        for id in candidates {
            let sim = soft.similarity(&query, &self.value_docs[id as usize], &mut memo);
            if sim >= FUZZY_THETA && best.is_none_or(|(_, b)| sim > b) {
                best = Some((id, sim));
            }
        }
        best
    }

    /// Ascending ids of the values holding any token of `rows` — every
    /// value whose similarity to the probed texts can be non-zero.
    fn fuzzy_candidates(&self, rows: &[Vec<Sym>]) -> Vec<u32> {
        let mut ids: Vec<u32> = rows
            .iter()
            .flatten()
            .flat_map(|sym| &self.value_postings[sym.0 as usize])
            .copied()
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
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
        let query = self.intern_phrase(&tokens(value));
        (0..self.values.len() as u32).filter(|&id| self.entry_equivalent(id, &query)).collect()
    }

    /// `toks` seen through the index's vocabulary.
    fn intern_phrase(&self, toks: &[String]) -> InternedPhrase<'_> {
        let lookup = |t: &String| self.interner.lookup(t);
        InternedPhrase {
            syms: toks.iter().map(lookup).collect(),
            digits: toks.iter().filter(|t| is_digits(t)).map(lookup).collect(),
            concat_ids: self.value_concats.get(&toks.concat()).map_or(&[], Vec::as_slice),
        }
    }

    /// [`pse_text::normalize::values_equivalent`] of a phrase and entry
    /// `id`, clause for clause, on interned tokens. Entries are never
    /// empty, so an empty phrase is equivalent to none.
    fn entry_equivalent(&self, id: u32, query: &InternedPhrase<'_>) -> bool {
        let same = |q: &[Option<Sym>], e: &[Sym]| q.iter().copied().eq(e.iter().map(|&s| Some(s)));
        let e = &self.values[id as usize];
        let (q, v) = (query.syms.as_slice(), e.syms.as_slice());
        !q.is_empty()
            && (query.concat_ids.binary_search(&id).is_ok()
                || (v.len() <= q.len() && q.windows(v.len()).any(|w| same(w, v)))
                || (q.len() <= v.len() && v.windows(q.len()).any(|w| same(q, w)))
                || (!e.digits.is_empty() && same(&query.digits, &e.digits)))
    }

    /// Whether a digit-bearing query phrase denotes the same fact as an
    /// indexed value: identical non-empty digit sequences, and every
    /// multi-character unit token of the phrase prefix-aligns with some unit
    /// token of the value (`"in"`/`"inches"`, `"mb"`/`"mbps"`; never
    /// `"inches"`/`"cm"`). Single-character leftovers of tokenization
    /// (`"mb s"` from `"MB/s"`) are ignored; extra value tokens (merchant
    /// junk suffixes) are allowed.
    fn hinted_value_match(&self, phrase: &[String], e: &ValueEntry) -> bool {
        let text = |s: &Sym| self.interner.resolve(*s);
        let magnitudes = phrase.iter().map(String::as_str).filter(|t| is_digits(t));
        if e.digits.is_empty() || !magnitudes.eq(e.digits.iter().map(text)) {
            return false;
        }
        let prefix_align = |a: &str, b: &str| {
            a == b || (a.len() >= 2 && b.len() >= 2 && (a.starts_with(b) || b.starts_with(a)))
        };
        phrase
            .iter()
            .filter(|t| !is_digits(t) && t.len() >= 2)
            .all(|p| e.syms.iter().map(text).filter(|v| !is_digits(v)).any(|v| prefix_align(p, v)))
    }
}

/// A value phrase on the index's vocabulary — the query side of
/// [`CategoryIndex::entry_equivalent`]. An out-of-vocabulary token is
/// `None`: it equals no indexed token.
struct InternedPhrase<'a> {
    syms: Vec<Option<Sym>>,
    /// The all-digit tokens among `syms`, in order.
    digits: Vec<Option<Sym>>,
    /// Ascending ids of the entries whose separator-free concatenation
    /// equals the phrase's.
    concat_ids: &'a [u32],
}

/// Whether `token` is an all-digit token — a magnitude.
fn is_digits(token: &str) -> bool {
    token.bytes().all(|b| b.is_ascii_digit())
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

#[cfg(test)]
mod tests {
    use pse_core::Spec;

    use super::*;

    /// The scaling guard a vocabulary scan cannot pass: what a fuzzy window
    /// scores is set by the tokens near the phrase, not by how many values
    /// the category holds.
    #[test]
    fn fuzzy_candidates_do_not_grow_with_the_vocabulary() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        // 1,500 words of 6–10 letters over `a..=p`, two to a value.
        let words: Vec<String> = (0..1500)
            .map(|_| (0..6 + next(5)).map(|_| (b'a' + next(16) as u8) as char).collect())
            .collect();
        let mut word = || words[next(1500) as usize].as_str();
        let products: Vec<SynthesizedProduct> = (0..1100)
            .map(|i| SynthesizedProduct {
                category: CategoryId(0),
                key_attribute: "MPN".into(),
                key_value: format!("{i:04}"),
                spec: Spec::from_pairs([
                    ("model", format!("{} {}", word(), word())),
                    ("series", format!("{} {}", word(), word())),
                ]),
                offers: Vec::new(),
            })
            .collect();
        let refs: Vec<&SynthesizedProduct> = products.iter().collect();
        let idx = CategoryIndex::build(CategoryId(0), &refs, &CorrespondenceSet::new());
        assert!(idx.values.len() >= 2000, "{} distinct values", idx.values.len());

        // One substitution in an indexed value's first token: it still
        // resolves, by scoring a handful of values.
        let target = &idx.values[1000];
        let misspelt: String = idx
            .interner
            .resolve(target.syms[0])
            .chars()
            .enumerate()
            .map(|(i, c)| if i == 3 { 'x' } else { c })
            .collect();
        let phrase = format!("{misspelt} {}", idx.interner.resolve(target.syms[1]));
        let scored = idx.fuzzy_candidates(&idx.fuzzy_probe(&[misspelt.as_str()]));
        assert!(scored.contains(&1000) && scored.len() <= 32, "{} values scored", scored.len());
        let (id, _) = idx.fuzzy_value(&phrase).expect("one edit stays above θ");
        assert_eq!(idx.values[id as usize].value, target.value);
        // A token near nothing scores nothing.
        assert_eq!(idx.fuzzy_candidates(&idx.fuzzy_probe(&["zzyzxq"])), Vec::<u32>::new());
        assert_eq!(idx.fuzzy_value("zzyzxq"), None);
    }
}
