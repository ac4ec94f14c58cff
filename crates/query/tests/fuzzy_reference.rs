//! Property pin: [`CategoryIndex::fuzzy_value`] is the first arg-max at
//! or above θ of the paper-literal string [`SoftTfIdf`] over the index's
//! distinct values — same entry id, same `f64` bits — and so is every
//! fuzzy window of [`Resolution::resolve`], which shares one token probe
//! across the windows of a query.
//!
//! `search_proptest` cannot see a drift here (it runs the same
//! `fuzzy_value` on both sides of its comparison), and the benchmark's
//! `search_precision_at_1` / `search_recall_at_10` are exact, so one
//! flipped ulp in a fuzzy score is a behaviour change. Phrases are built
//! from the catalog's own tokens, one-edit misspellings of them,
//! out-of-vocabulary tokens and repeats, which covers every branch of
//! the scorer: exact short-circuit, θ-close scan, prefilter skip, the
//! OOV share of the query norm, and the empty phrase.

use std::collections::BTreeSet;

use proptest::prelude::*;
use pse_core::{CategoryId, CorrespondenceSet, Spec};
use pse_query::{CategoryIndex, Constraint, Resolution, FUZZY_THETA, MAX_PHRASE_TOKENS};
use pse_synthesis::SynthesizedProduct;
use pse_text::tfidf::TfIdfCorpus;
use pse_text::{BagOfWords, SoftTfIdf};

// Long enough that one edit stays Jaro–Winkler-close (≥ 0.9), short
// digit tokens that never do, and non-ASCII tokens whose byte and
// character lengths differ (the prefilter counts characters).
const VOCAB: &[&str] = &[
    "barracuda",
    "deskstar",
    "travelstar",
    "momentus",
    "caviar",
    "silver",
    "black",
    "größe",
    "écran",
    "7200",
    "500",
    "gb",
];
const OOV: &[&str] = &["zzyzx", "qwertz", "barracudas", "desk", "9999", "ünknown"];
const ATTRS: &[&str] = &["brand", "model", "capacity"];

fn value() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..VOCAB.len(), 1..6)
        .prop_map(|ix| ix.into_iter().map(|i| VOCAB[i]).collect::<Vec<_>>().join(" "))
}

fn products() -> impl Strategy<Value = Vec<SynthesizedProduct>> {
    let spec = proptest::collection::vec((0..ATTRS.len(), value()), 1..4);
    proptest::collection::vec((value(), spec), 1..10).prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (key, pairs))| SynthesizedProduct {
                category: CategoryId(0),
                key_attribute: "MPN".into(),
                key_value: format!("{key} {i:03}"),
                spec: Spec::from_pairs(pairs.into_iter().map(|(a, v)| (ATTRS[a], v))),
                offers: Vec::new(),
            })
            .collect()
    })
}

/// One edit applied to a token: none, transpose, delete, substitute or
/// insert at `pos`; anything else replaces it with an
/// out-of-vocabulary token.
fn misspell(token: &str, edit: usize, pos: usize) -> String {
    let mut chars: Vec<char> = token.chars().collect();
    let pos = pos % chars.len();
    match edit {
        0 => {}
        1 if pos + 1 < chars.len() => chars.swap(pos, pos + 1),
        1 => {}
        2 => {
            chars.remove(pos);
        }
        3 => chars[pos] = 'x',
        4 => chars.insert(pos, 'q'),
        _ => return OOV[pos % OOV.len()].to_string(),
    }
    chars.into_iter().collect()
}

/// A phrase as `(seed, tokens)`: each token is a vocabulary index plus
/// an edit. Even seeds instead take the tokens of one indexed value and
/// apply only the first edit, to one token — most phrases are then near
/// some entry, so the scorer's accepting branches run. `seed % 8`
/// doubles one token so term frequency above one reaches the query
/// weighting.
type PhraseSpec = (usize, Vec<(usize, usize, usize)>);

fn phrase_spec() -> impl Strategy<Value = PhraseSpec> {
    (0usize..64, proptest::collection::vec((0..VOCAB.len(), 0usize..7, 0usize..12), 0..6))
}

fn phrase(products: &[SynthesizedProduct], (seed, toks): PhraseSpec) -> String {
    let mut out: Vec<String> = if seed % 2 == 0 {
        let p = &products[seed % products.len()];
        let mut near = pse_text::tokens(&p.spec.iter().nth(seed % p.spec.len()).unwrap().value);
        if let Some(&(_, edit, pos)) = toks.first() {
            let k = seed / 2 % near.len();
            near[k] = misspell(&near[k], edit, pos);
        }
        near
    } else {
        toks.iter().map(|&(v, edit, pos)| misspell(VOCAB[v], edit, pos)).collect()
    };
    if let Some(t) = out.get(seed % 8).cloned() {
        out.push(t);
    }
    out.join(" ")
}

fn build(products: &[SynthesizedProduct]) -> CategoryIndex {
    let mut ps: Vec<&SynthesizedProduct> = products.iter().collect();
    ps.sort_by(|a, b| a.key_value.cmp(&b.key_value));
    CategoryIndex::build(CategoryId(0), &ps, &CorrespondenceSet::new())
}

/// The reference: string SoftTFIDF over one document per distinct
/// `(attr, value)` entry, scanned in entry-id order.
fn reference(idx: &CategoryIndex, phrase: &str) -> Option<(u32, f64)> {
    let entries: BTreeSet<&(String, String)> = idx.docs().iter().flat_map(|d| &d.pairs).collect();
    let mut corpus = TfIdfCorpus::new();
    for (_, value) in &entries {
        corpus.add_document(&BagOfWords::from_values([value.as_str()]));
    }
    let soft = SoftTfIdf::with_theta(corpus, FUZZY_THETA);
    let mut best: Option<(u32, f64)> = None;
    for (id, (attr, value)) in entries.iter().enumerate() {
        let entry = idx.value_entry(id as u32);
        assert_eq!((&entry.attr, &entry.value), (attr, value), "entry ids are (attr, value) order");
        let sim = soft.similarity(phrase, value);
        if sim >= FUZZY_THETA && best.is_none_or(|(_, b)| sim > b) {
            best = Some((id as u32, sim));
        }
    }
    best
}

fn bits(r: Option<(u32, f64)>) -> Option<(u32, u64)> {
    r.map(|(id, sim)| (id, sim.to_bits()))
}

proptest! {
    #[test]
    fn fuzzy_value_equals_reference_softtfidf(ps in products(), spec in phrase_spec()) {
        let q = phrase(&ps, spec);
        let idx = build(&ps);
        prop_assert_eq!(bits(idx.fuzzy_value(&q)), bits(reference(&idx, &q)), "phrase {:?}", q);
    }
}

/// [`Resolution::resolve`] where no exact route applies: greedy, longest
/// window first, every window resolved by [`reference`].
fn reference_resolve(idx: &CategoryIndex, toks: &[String]) -> Vec<Constraint> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        let longest = MAX_PHRASE_TOKENS.min(toks.len() - i);
        let hit = (1..=longest).rev().find_map(|len| {
            let phrase = toks[i..i + len].join(" ");
            reference(idx, &phrase).map(|(id, sim)| (len, phrase, id, sim))
        });
        let Some((len, phrase, id, score)) = hit else {
            i += 1;
            continue;
        };
        let e = idx.value_entry(id);
        let (attribute, value) = (e.attr.clone(), e.value.clone());
        let candidates = vec![(attribute.clone(), value.clone())];
        out.push(Constraint {
            phrase,
            attribute,
            value,
            candidates,
            score,
            exact: false,
            hinted: false,
        });
        i += len;
    }
    out
}

proptest! {
    /// The resolver reaches the scorer through one probe shared by every
    /// window of the query, not through `fuzzy_value`: pin that route too.
    /// Queries are runs of misspelt indexed values and out-of-vocabulary
    /// tokens; [`ATTRS`] words never occur, so no hint is ever pending.
    #[test]
    fn resolver_equals_reference_per_window(
        ps in products(),
        specs in proptest::collection::vec(phrase_spec(), 1..4),
    ) {
        let q: Vec<String> = specs
            .into_iter()
            .map(|(seed, toks)| {
                let edited = toks.into_iter().map(|(v, edit, pos)| (v, edit.max(1), pos)).collect();
                phrase(&ps, (seed, edited))
            })
            .collect();
        let toks = pse_text::tokens(&q.join(" "));
        let idx = build(&ps);
        let got = Resolution::resolve(&idx, &toks).constraints;
        // An edit can land on another indexed token (or leave `"500"` as it
        // was): that window is not this property's.
        prop_assume!(got.iter().all(|c| !c.exact));
        let want = reference_resolve(&idx, &toks);
        let score_bits = |cs: &[Constraint]| cs.iter().map(|c| c.score.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(score_bits(&got), score_bits(&want), "query {:?}", toks);
        prop_assert_eq!(got, want, "query {:?}", toks);
    }
}

/// The fixed cases the generator only reaches by chance.
#[test]
fn fuzzy_value_pinned_cases() {
    let product = |i: usize, pairs: &[(&str, &str)]| SynthesizedProduct {
        category: CategoryId(0),
        key_attribute: "MPN".into(),
        key_value: format!("k{i}"),
        spec: Spec::from_pairs(pairs.iter().copied()),
        offers: Vec::new(),
    };
    let ps = vec![
        product(0, &[("brand", "Seagate"), ("model", "Barracuda 7200")]),
        product(1, &[("brand", "Hitachi"), ("model", "Deskstar 7200")]),
        // The same value under two attributes: the earlier entry wins.
        product(2, &[("brand", "Barracuda"), ("model", "Barracuda")]),
        product(3, &[("model", "Größe Écran")]),
        // Four tokens: a misspelt one in the middle of the sorted order
        // makes the summation order visible in the low bits.
        product(4, &[("model", "Travelstar Momentus Caviar Deskstar 500 GB")]),
    ];
    let idx = build(&ps);
    for q in [
        "",
        "   ",
        "barracda",
        "barracuda",
        "7200 barracda",
        "barracda barracda 7200",
        "baracuda zzyzx",
        "zzyzx",
        "grösse ecran",
        "größe écrann",
        "hitachi",
        "hitachy",
        "desk star",
        "travelstar momentus cavair deskstar 500 gb",
        "travelstar momentsu caviar deskstar 500 gb",
        "deskstar gb 500 momentus travelstra caviar",
        "travelstar momentus caviar dekstar",
    ] {
        assert_eq!(bits(idx.fuzzy_value(q)), bits(reference(&idx, q)), "phrase {q:?}");
    }
    // At least one of the above really takes the fuzzy route.
    assert!(idx.fuzzy_value("barracda").is_some());
    assert_eq!(idx.fuzzy_value(""), None);
}
