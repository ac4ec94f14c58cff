//! Property-based tests for the pipeline's core invariants.

use std::collections::HashMap;

use proptest::prelude::*;
use pse_core::{AttributeCorrespondence, CategoryId, CorrespondenceSet, MerchantId, OfferId, Spec};
use pse_synthesis::runtime::{cluster_by_key, normalize_key, ReconciledOffer};
use pse_synthesis::{FusedValue, FusionAccumulator, FusionStrategy};
use pse_text::tokenize::for_each_token;

/// Fuse through the library's one kernel, the way `fuse_cluster` does.
fn accumulate<S: AsRef<str>>(values: &[S], strategy: FusionStrategy) -> Option<FusedValue> {
    let mut accum = FusionAccumulator::default();
    for v in values {
        accum.push(v.as_ref());
    }
    accum.finish(strategy)
}

proptest! {
    #[test]
    fn fusion_returns_a_member_value(values in prop::collection::vec(".{0,24}", 1..8)) {
        let fused = accumulate(&values, FusionStrategy::CentroidVote).expect("non-empty input fuses");
        prop_assert!(values.contains(&fused.value), "{fused:?} not a member");
        prop_assert_eq!(fused.support, values.len());
        prop_assert!(fused.distance >= 0.0);
    }

    #[test]
    fn fusion_is_order_insensitive_on_value(mut values in prop::collection::vec("[a-z ]{1,12}", 1..6)) {
        let a = accumulate(&values, FusionStrategy::CentroidVote).unwrap();
        values.reverse();
        let b = accumulate(&values, FusionStrategy::CentroidVote).unwrap();
        prop_assert_eq!(a.value, b.value);
    }

    #[test]
    fn unanimous_fusion_is_exact(v in ".{1,16}", n in 1usize..6) {
        let values: Vec<&str> = std::iter::repeat_n(v.as_str(), n).collect();
        let fused = accumulate(&values, FusionStrategy::CentroidVote).unwrap();
        prop_assert_eq!(fused.value, v);
        prop_assert!(fused.distance < 1e-9);
    }

    #[test]
    fn normalize_key_strips_separators(s in "[A-Za-z0-9 _./-]{0,24}") {
        let k = normalize_key(&s);
        prop_assert!(k.chars().all(|c| c.is_alphanumeric()));
        prop_assert_eq!(normalize_key(&k), k.clone(), "idempotent");
        // Case and separators never matter.
        prop_assert_eq!(normalize_key(&s.to_uppercase()), k);
    }

    #[test]
    fn clustering_partitions_keyed_offers(
        keys in prop::collection::vec("[a-z0-9]{1,6}", 0..12),
    ) {
        let offers: Vec<ReconciledOffer> = keys
            .iter()
            .enumerate()
            .map(|(i, k)| ReconciledOffer::new(
                OfferId(i as u64),
                MerchantId(0),
                CategoryId((i % 2) as u32),
                vec![("MPN".to_string(), k.clone())],
            ))
            .collect();
        let clusters = cluster_by_key(offers, &["MPN".to_string()]);
        // Every keyed offer lands in exactly one cluster.
        let total: usize = clusters.iter().map(|c| c.members.len()).sum();
        prop_assert_eq!(total, keys.len());
        // Within a cluster, keys agree after normalization.
        for c in &clusters {
            for m in &c.members {
                prop_assert_eq!(normalize_key(m.value_of("MPN").unwrap()), c.key_value.clone());
                prop_assert_eq!(m.category, c.category);
            }
        }
    }

    #[test]
    fn correspondence_set_translation_is_consistent(
        entries in prop::collection::vec(
            ("[a-z]{1,6}", "[a-z]{1,6}", 0u32..3, 0u32..3, 0.0f64..1.0),
            0..16,
        )
    ) {
        let set = CorrespondenceSet::from_correspondences(entries.iter().map(
            |(ap, ao, m, c, s)| AttributeCorrespondence {
                catalog_attribute: ap.clone(),
                merchant_attribute: ao.clone(),
                merchant: MerchantId(*m),
                category: CategoryId(*c),
                score: *s,
            },
        ));
        // Translation returns the highest-scoring catalog attribute for each
        // (merchant, category, merchant attribute).
        for (_, ao, m, c, _) in &entries {
            let best = entries
                .iter()
                .filter(|(_, ao2, m2, c2, _)| ao2 == ao && m2 == m && c2 == c)
                .max_by(|a, b| a.4.total_cmp(&b.4))
                .map(|(ap, ..)| ap.clone())
                .unwrap();
            let got = set.translate(MerchantId(*m), CategoryId(*c), ao).unwrap();
            // Ties may resolve to either entry; scores must agree.
            let got_score = entries
                .iter()
                .filter(|(ap2, ao2, m2, c2, _)| ap2 == got && ao2 == ao && m2 == m && c2 == c)
                .map(|(.., s)| *s)
                .fold(f64::NEG_INFINITY, f64::max);
            let best_score = entries
                .iter()
                .filter(|(ap2, ao2, m2, c2, _)| ap2 == &best && ao2 == ao && m2 == m && c2 == c)
                .map(|(.., s)| *s)
                .fold(f64::NEG_INFINITY, f64::max);
            prop_assert!((got_score - best_score).abs() < 1e-12);
        }
    }

    #[test]
    fn reconcile_outputs_only_mapped_attributes(
        pairs in prop::collection::vec(("[a-z]{1,6}", "[a-z0-9]{1,6}"), 0..8),
    ) {
        let set = CorrespondenceSet::from_correspondences([AttributeCorrespondence {
            catalog_attribute: "Speed".into(),
            merchant_attribute: "rpm".into(),
            merchant: MerchantId(0),
            category: CategoryId(0),
            score: 1.0,
        }]);
        let spec = Spec::from_pairs(pairs.iter().map(|(a, b)| (a.clone(), b.clone())));
        let r = pse_synthesis::runtime::reconcile(
            OfferId(0),
            MerchantId(0),
            CategoryId(0),
            &spec,
            &set,
        );
        let expected = pairs.iter().filter(|(a, _)| a == "rpm").count();
        prop_assert_eq!(r.pairs().len(), expected);
        for (attr, _) in r.pairs() {
            // Stored names are normalized catalog attribute names.
            prop_assert_eq!(attr.as_str(), "speed");
        }
    }
}

/// Build a multi-token value from a 7-bit mask over a fixed vocabulary —
/// overlapping term sets and frequent exact duplicates, the regime where
/// centroid voting's tie-breaking actually fires.
fn masked_value(mask: u8) -> String {
    const TOKENS: [&str; 7] = ["microsoft", "windows", "vista", "home", "premium", "7200", "rpm"];
    let picked: Vec<&str> =
        TOKENS.iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, t)| *t).collect();
    if picked.is_empty() {
        "empty".to_string()
    } else {
        picked.join(" ")
    }
}

// The Appendix A reference: the batch formulation of value fusion —
// tokenize every value, average the binary term vectors, return the value
// nearest the centroid — written the way the paper states it, with no
// state carried between values. `FusionAccumulator` is held to it bit for
// bit below; `scripts/soak.sh` runs this file over fresh cases.

/// Fuse with an explicit strategy. See [`fuse_values`] for the default.
fn fuse_values_with<S: AsRef<str>>(values: &[S], strategy: FusionStrategy) -> Option<FusedValue> {
    match strategy {
        FusionStrategy::CentroidVote => fuse_values(values),
        FusionStrategy::MajorityExact => {
            if values.is_empty() {
                return None;
            }
            let mut counts: HashMap<&str, usize> = HashMap::new();
            for v in values {
                *counts.entry(v.as_ref()).or_insert(0) += 1;
            }
            let (value, _) = counts.into_iter().max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(a.0)))?;
            Some(FusedValue { value: value.to_string(), support: values.len(), distance: 0.0 })
        }
        FusionStrategy::LongestValue => {
            let value = values
                .iter()
                .map(AsRef::as_ref)
                .max_by(|a, b| a.len().cmp(&b.len()).then(b.cmp(a)))?;
            Some(FusedValue { value: value.to_string(), support: values.len(), distance: 0.0 })
        }
        FusionStrategy::FirstSeen => values.first().map(|v| FusedValue {
            value: v.as_ref().to_string(),
            support: values.len(),
            distance: 0.0,
        }),
    }
}

/// Fuse a multiset of values via term-level generalized majority voting.
///
/// Returns `None` for an empty input. Ties on distance break toward the
/// more frequent value, then lexicographically (for determinism).
fn fuse_values<S: AsRef<str>>(values: &[S]) -> Option<FusedValue> {
    if values.is_empty() {
        return None;
    }
    // Term universe and per-value term vectors (binary, per Appendix A).
    let mut term_index: HashMap<String, usize> = HashMap::new();
    let mut vectors: Vec<Vec<usize>> = Vec::with_capacity(values.len());
    for v in values {
        let mut dims = Vec::new();
        for_each_token(v.as_ref(), |t| {
            // First-seen term ids, exactly like the historical
            // `term_index.entry(tokens(..))` loop; insert allocates only for
            // new terms.
            let idx = match term_index.get(t) {
                Some(&idx) => idx,
                None => {
                    let next = term_index.len();
                    term_index.insert(t.to_string(), next);
                    next
                }
            };
            if !dims.contains(&idx) {
                dims.push(idx);
            }
        });
        vectors.push(dims);
    }
    let dim = term_index.len();
    // Centroid over all value vectors (values appearing k times contribute
    // k identical vectors, so frequency weights the centroid naturally).
    let mut centroid = vec![0.0f64; dim];
    for dims in &vectors {
        for &d in dims {
            centroid[d] += 1.0;
        }
    }
    let n = values.len() as f64;
    for c in &mut centroid {
        *c /= n;
    }
    // Count duplicates for tie-breaking.
    let mut counts: HashMap<&str, usize> = HashMap::new();
    for v in values {
        *counts.entry(v.as_ref()).or_insert(0) += 1;
    }

    let mut best: Option<(f64, usize, &str)> = None; // (distance, -count, value)
                                                     // O(1) membership bitmap over the term universe, reused across values
                                                     // (set before, cleared after each distance computation). The summation
                                                     // order over `d` is unchanged, so distances are bit-identical to the
                                                     // former O(|dims|) `contains` probe.
    let mut member = vec![false; dim];
    for (v, dims) in values.iter().zip(&vectors) {
        let v = v.as_ref();
        for &d in dims {
            member[d] = true;
        }
        let mut dist2 = 0.0;
        for (d, c) in centroid.iter().enumerate() {
            let x = if member[d] { 1.0 } else { 0.0 };
            dist2 += (x - c) * (x - c);
        }
        for &d in dims {
            member[d] = false;
        }
        let dist = dist2.sqrt();
        let count = counts[v];
        let better = match &best {
            None => true,
            Some((bd, bc, bv)) => {
                dist < bd - 1e-12
                    || ((dist - bd).abs() <= 1e-12 && (count > *bc || (count == *bc && v < *bv)))
            }
        };
        if better {
            best = Some((dist, count, v));
        }
    }
    best.map(|(distance, _, value)| FusedValue {
        value: value.to_string(),
        support: values.len(),
        distance,
    })
}

proptest! {
    // The incremental accumulator is bit-identical to the batch fuser:
    // same value, same support, same f64 distance — for every strategy,
    // over value multisets dense in duplicates and shared terms. This is
    // the contract that lets `pse-store` re-fuse a cluster from cached
    // per-attribute state instead of re-tokenizing every member.
    #[test]
    fn incremental_fusion_matches_batch(masks in prop::collection::vec(0u8..128, 0..24)) {
        let values: Vec<String> = masks.iter().map(|&m| masked_value(m)).collect();
        for strategy in [
            pse_synthesis::FusionStrategy::CentroidVote,
            pse_synthesis::FusionStrategy::MajorityExact,
            pse_synthesis::FusionStrategy::LongestValue,
            pse_synthesis::FusionStrategy::FirstSeen,
        ] {
            let batch = fuse_values_with(&values, strategy);
            let mut accum = pse_synthesis::FusionAccumulator::default();
            for v in &values {
                accum.push(v);
            }
            prop_assert_eq!(accum.len(), values.len());
            let incremental = accum.finish(strategy);
            prop_assert_eq!(incremental, batch, "strategy {:?}", strategy);
        }
    }

    // Advancing a cluster's fusion cache in arbitrary chunk sizes and
    // fusing from the cache reproduces `fuse_cluster` over the full
    // member list exactly (spec, offer list, category, keys).
    #[test]
    fn chunked_cluster_fusion_matches_batch(
        member_masks in prop::collection::vec((0u8..128, 0u8..128), 1..16),
        chunk in 1usize..6,
    ) {
        use pse_core::{AttributeDef, AttributeKind, Catalog, CategorySchema, Taxonomy};
        use pse_synthesis::runtime::{
            advance_cluster_fusion, fuse_cluster, fuse_cluster_cached, Cluster,
            ClusterFusionCache, ReconciledOffer,
        };

        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Operating Systems",
            CategorySchema::from_attributes([
                AttributeDef::key("MPN", AttributeKind::Identifier),
                AttributeDef::new("Edition", AttributeKind::Text),
                AttributeDef::new("Media", AttributeKind::Text),
            ]),
        );
        let catalog = Catalog::new(tax);
        let config = pse_synthesis::RuntimeConfig::default();

        let members: Vec<ReconciledOffer> = member_masks
            .iter()
            .enumerate()
            .map(|(i, &(a, b))| {
                // Not every member carries every attribute.
                let mut pairs = vec![("mpn".to_string(), "X-1".to_string())];
                if a != 0 {
                    pairs.push(("edition".to_string(), masked_value(a)));
                }
                if b % 3 != 0 {
                    pairs.push(("media".to_string(), masked_value(b)));
                }
                ReconciledOffer::new(OfferId(i as u64), MerchantId(0), cat, pairs)
            })
            .collect();
        let cluster = Cluster {
            category: cat,
            key_attribute: "MPN".to_string(),
            key_value: "x1".to_string(),
            members,
        };

        let batch = fuse_cluster(&catalog, &cluster, &config);

        let mut cache = ClusterFusionCache::default();
        let mut upto = 0;
        while upto < cluster.members.len() {
            upto = (upto + chunk).min(cluster.members.len());
            prop_assert!(advance_cluster_fusion(
                &catalog,
                cat,
                &cluster.members[..upto],
                &config,
                &mut cache,
            ));
        }
        prop_assert_eq!(cache.consumed(), cluster.members.len());
        let incremental = fuse_cluster_cached(&cluster, &config, &cache);
        prop_assert_eq!(format!("{incremental:?}"), format!("{batch:?}"));
    }
}
