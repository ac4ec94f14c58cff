//! Retrieval and ranking.
//!
//! [`search`] answers a query through the inverted index; [`search_scan`]
//! answers it by scoring every indexed document. The two are
//! byte-identical (property-pinned in `tests/`): the index candidate set
//! is a proven superset of every document a full scan could keep, and
//! the scoring and ordering code is shared.

use std::collections::BTreeSet;

use pse_core::CategoryId;
use pse_text::{cosine_sparse, tokens, SparseVec};

use crate::index::{CategoryIndex, SearchIndex};
use crate::metrics;
use crate::resolve::{Constraint, Resolution};

/// One ranked product.
#[derive(Debug, Clone, PartialEq)]
pub struct Hit {
    /// Category of the product.
    pub category: CategoryId,
    /// The cluster key attribute.
    pub key_attribute: String,
    /// The normalized cluster key value.
    pub key_value: String,
    /// How many resolved constraints the product satisfies.
    pub matched: u32,
    /// TF-IDF cosine between query and document token vectors.
    pub score: f64,
    /// Offers fused into the product — the evidence weight behind it.
    pub support: u32,
}

impl Hit {
    /// The ranking key within one `matched` tier: cosine weighted by
    /// log-evidence. A product carried by many merchants outranks a
    /// single-offer phantom cluster (extraction-garbled key, duplicated
    /// spec) whose shorter document would otherwise edge it on raw
    /// cosine.
    fn weighted_score(&self) -> f64 {
        self.score * (1.0 + f64::from(self.support).ln())
    }
}

/// A ranked answer with the interpretation that produced it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchResult {
    /// The primary elected category (the smallest-id winner of the
    /// constraint vote); `None` when no phrase resolved anywhere and
    /// retrieval fell back to global free text.
    pub category: Option<CategoryId>,
    /// The primary category's resolved constraints, in query order
    /// (empty when `category` is `None`).
    pub constraints: Vec<Constraint>,
    /// Ranked hits: constraints satisfied desc, evidence-weighted
    /// cosine desc, cluster key asc. At most `k`. Sibling categories
    /// share attribute vocabularies, so when several categories tie the
    /// election exactly ("Dell" resolves as a brand in each of them),
    /// hits are drawn from every tied category — each scored against
    /// its own category's constraints — and ranked together.
    pub hits: Vec<Hit>,
}

/// Answer `query` over the index, returning at most `k` hits.
///
/// Candidates are the union of (a) the postings of every in-vocabulary
/// query token and (b) the postings of the tokens of every indexed
/// value equivalent to a resolved constraint's value. (a) covers every
/// document with nonzero cosine; (b) covers every document that
/// satisfies a constraint through
/// [`pse_text::normalize::values_equivalent`], which can hold with no
/// shared token (`"500 gigabytes"` ≡ `"500 gb"`). Together they are a
/// superset of everything [`search_scan`] keeps, so both rank the same
/// hits in the same order.
pub fn search(index: &SearchIndex, query: &str, k: usize) -> SearchResult {
    let _span = pse_obs::span("query.search");
    pse_obs::incr(metrics::REQUESTS);
    let toks = tokens(query);
    let winners = elect_categories(index, &toks);
    let mut candidates = 0u64;
    let mut hits = Vec::new();
    if winners.is_empty() {
        pse_obs::incr(metrics::NO_CATEGORY);
        for ci in index.values() {
            let mut ids: BTreeSet<u32> = BTreeSet::new();
            for t in &toks {
                if let Some(sym) = ci.lookup(t) {
                    ids.extend(ci.postings(sym));
                }
            }
            candidates += ids.len() as u64;
            score_docs(&mut hits, ci, &ci.query_vec(&toks), &[], ids.iter().copied());
        }
    }
    for (cat, r) in &winners {
        let ci = &index[cat];
        let mut ids: BTreeSet<u32> = BTreeSet::new();
        for t in &toks {
            if let Some(sym) = ci.lookup(t) {
                ids.extend(ci.postings(sym));
            }
        }
        for c in &r.constraints {
            for (_, cv) in &c.candidates {
                for vid in ci.equivalent_values(cv) {
                    for &sym in &ci.value_entry(vid).syms {
                        ids.extend(ci.postings(sym));
                    }
                }
            }
        }
        candidates += ids.len() as u64;
        score_docs(&mut hits, ci, &ci.query_vec(&toks), &r.constraints, ids.iter().copied());
    }
    pse_obs::observe(metrics::CANDIDATES, candidates);
    rank(&mut hits, k);
    let (category, constraints) = primary(winners);
    SearchResult { category, constraints, hits }
}

/// The naive reference: identical resolution and scoring, but every
/// indexed document is a candidate. Exists to pin [`search`]'s index
/// shortcuts — any divergence is a soundness bug in the index.
pub fn search_scan(index: &SearchIndex, query: &str, k: usize) -> SearchResult {
    let toks = tokens(query);
    let winners = elect_categories(index, &toks);
    let mut hits = Vec::new();
    if winners.is_empty() {
        for ci in index.values() {
            let all = 0..ci.docs().len() as u32;
            score_docs(&mut hits, ci, &ci.query_vec(&toks), &[], all);
        }
    }
    for (cat, r) in &winners {
        let ci = &index[cat];
        let all = 0..ci.docs().len() as u32;
        score_docs(&mut hits, ci, &ci.query_vec(&toks), &r.constraints, all);
    }
    rank(&mut hits, k);
    let (category, constraints) = primary(winners);
    SearchResult { category, constraints, hits }
}

/// Resolve the query against every category and elect the winners.
///
/// The vote key is (tokens covered, constraint-score sum, constraint
/// count): an interpretation covering more of the query wins outright —
/// a category that reads "ide ata 133" as one interface value explains
/// more of the query than a sibling reading only "133" as a screen
/// size — then confidence decides. Categories tying the best key
/// *exactly* are all elected, in ascending id order: sibling categories
/// share attribute vocabularies, so "Dell" resolves identically in each
/// of them and every one may hold answer products. Empty when nothing
/// resolved anywhere.
fn elect_categories(index: &SearchIndex, toks: &[String]) -> Vec<(CategoryId, Resolution)> {
    let mut winners: Vec<(CategoryId, Resolution)> = Vec::new();
    for (&cat, ci) in index {
        let r = Resolution::resolve(ci, toks);
        if r.constraints.is_empty() {
            continue;
        }
        let ord = match winners.first() {
            None => std::cmp::Ordering::Greater,
            Some((_, b)) => r
                .covered
                .cmp(&b.covered)
                .then(r.score.total_cmp(&b.score))
                .then(r.constraints.len().cmp(&b.constraints.len())),
        };
        match ord {
            std::cmp::Ordering::Greater => winners = vec![(cat, r)],
            std::cmp::Ordering::Equal => winners.push((cat, r)),
            std::cmp::Ordering::Less => {}
        }
    }
    if let Some((_, r)) = winners.first() {
        let exact = r.constraints.iter().filter(|c| c.exact).count() as u64;
        pse_obs::add(metrics::RESOLVED_EXACT, exact);
        pse_obs::add(metrics::RESOLVED_FUZZY, r.constraints.len() as u64 - exact);
    }
    winners
}

/// The primary (smallest-id) winner's category and constraints — what
/// the response reports as the query's interpretation.
fn primary(winners: Vec<(CategoryId, Resolution)>) -> (Option<CategoryId>, Vec<Constraint>) {
    match winners.into_iter().next() {
        Some((cat, r)) => (Some(cat), r.constraints),
        None => (None, Vec::new()),
    }
}

/// Score candidate documents and keep those with at least one satisfied
/// constraint or nonzero cosine.
fn score_docs(
    hits: &mut Vec<Hit>,
    ci: &CategoryIndex,
    qvec: &SparseVec,
    constraints: &[Constraint],
    ids: impl Iterator<Item = u32>,
) {
    for id in ids {
        let doc = &ci.docs()[id as usize];
        let matched = constraints.iter().filter(|c| c.satisfied_by(&doc.pairs)).count() as u32;
        let score = cosine_sparse(qvec, &doc.vec);
        if matched > 0 || score > 0.0 {
            hits.push(Hit {
                category: ci.category,
                key_attribute: doc.key_attribute.clone(),
                key_value: doc.key_value.clone(),
                matched,
                score,
                support: doc.support,
            });
        }
    }
}

/// Order hits by (matched desc, evidence-weighted cosine desc, cluster
/// key asc) and keep the top `k`. `total_cmp` keeps the order total (no
/// NaNs can occur, but the comparator must not panic regardless).
fn rank(hits: &mut Vec<Hit>, k: usize) {
    hits.sort_by(|a, b| {
        b.matched.cmp(&a.matched).then(b.weighted_score().total_cmp(&a.weighted_score())).then_with(
            || {
                (&a.category, &a.key_attribute, &a.key_value).cmp(&(
                    &b.category,
                    &b.key_attribute,
                    &b.key_value,
                ))
            },
        )
    });
    hits.truncate(k);
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::Arc;

    use pse_core::{CorrespondenceSet, Spec};
    use pse_synthesis::SynthesizedProduct;

    use super::*;
    use crate::index::SearchIndex;

    fn product(cat: u32, key: &str, pairs: &[(&str, &str)]) -> SynthesizedProduct {
        SynthesizedProduct {
            category: CategoryId(cat),
            key_attribute: "MPN".into(),
            key_value: key.into(),
            spec: Spec::from_pairs(pairs.iter().map(|&(n, v)| (n, v))),
            offers: Vec::new(),
        }
    }

    fn build_index(products: &[SynthesizedProduct]) -> SearchIndex {
        let mut by_cat: BTreeMap<CategoryId, Vec<&SynthesizedProduct>> = BTreeMap::new();
        for p in products {
            by_cat.entry(p.category).or_default().push(p);
        }
        let cs = CorrespondenceSet::new();
        by_cat
            .into_iter()
            .map(|(cat, mut ps)| {
                ps.sort_by(|a, b| {
                    (&a.key_attribute, &a.key_value).cmp(&(&b.key_attribute, &b.key_value))
                });
                (cat, Arc::new(CategoryIndex::build(cat, &ps, &cs)))
            })
            .collect()
    }

    fn camera_world() -> Vec<SynthesizedProduct> {
        vec![
            product(
                0,
                "eos5d",
                &[
                    ("MPN", "EOS5D"),
                    ("Brand", "Canon"),
                    ("Resolution", "12 MP"),
                    ("Color", "Silver"),
                ],
            ),
            product(
                0,
                "d700",
                &[("MPN", "D700"), ("Brand", "Nikon"), ("Resolution", "12 MP"), ("Color", "Black")],
            ),
            product(
                1,
                "wd5000",
                &[("MPN", "WD5000"), ("Brand", "Western Digital"), ("Capacity", "500 GB")],
            ),
        ]
    }

    #[test]
    fn exact_constraints_elect_the_category_and_rank_matches_first() {
        let idx = build_index(&camera_world());
        let r = search(&idx, "canon 12 mp silver", 10);
        assert_eq!(r.category, Some(CategoryId(0)));
        assert_eq!(r.constraints.len(), 3);
        assert!(r.constraints.iter().all(|c| c.exact));
        assert_eq!(r.hits[0].key_value, "eos5d");
        assert_eq!(r.hits[0].matched, 3);
    }

    #[test]
    fn attribute_hint_narrows_the_next_value() {
        let idx = build_index(&camera_world());
        let r = search(&idx, "brand canon", 10);
        let c = &r.constraints[0];
        assert_eq!(c.attribute, "brand");
        assert_eq!(c.value, "canon");
    }

    #[test]
    fn equivalent_value_with_no_shared_token_is_still_retrieved() {
        // "500 gigabytes" shares only the digit token with the doc, and
        // the constraint resolves fuzzily or not at all — the scan
        // equivalence is what the proptest pins; here we pin the
        // digit-only overlap case end to end.
        let idx = build_index(&camera_world());
        let r = search(&idx, "capacity 500 gb", 10);
        assert_eq!(r.category, Some(CategoryId(1)));
        assert_eq!(r.hits[0].key_value, "wd5000");
        assert!(r.hits[0].matched >= 1);
        assert_eq!(r, search_scan(&idx, "capacity 500 gb", 10));
    }

    #[test]
    fn unresolvable_query_falls_back_to_global_free_text() {
        let idx = build_index(&camera_world());
        let r = search(&idx, "zzz unknown", 10);
        assert_eq!(r.category, None);
        assert!(r.constraints.is_empty());
        assert!(r.hits.is_empty());
        assert_eq!(r, search_scan(&idx, "zzz unknown", 10));
    }

    #[test]
    fn empty_query_is_empty_not_everything() {
        let idx = build_index(&camera_world());
        let r = search(&idx, "", 10);
        assert!(r.hits.is_empty());
        assert_eq!(r, search_scan(&idx, "", 10));
    }

    #[test]
    fn k_truncates_after_ranking() {
        let idx = build_index(&camera_world());
        let all = search(&idx, "12 mp", 10);
        let one = search(&idx, "12 mp", 1);
        assert_eq!(all.hits.len(), 2);
        assert_eq!(one.hits.len(), 1);
        assert_eq!(one.hits[0], all.hits[0]);
    }
}
