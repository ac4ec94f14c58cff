//! ShardedStore ≡ ProductStore (ISSUE 5 tentpole, layer 1): at 1, 2, 4,
//! and 8 shards, for arbitrary ingest/retract interleavings, the sharded
//! store's products and snapshot are byte-identical to a single
//! `ProductStore` fed the same operation stream — and a store built at
//! one shard count reshards mid-stream to any other.

mod common;

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use common::{fixture, spec_provider, Fixture};
use proptest::prelude::*;
use pse_core::{CategoryId, Offer, OfferId, Spec};
use pse_query::{CategoryIndex, SearchIndex, SearchResult};
use pse_serve::{shard_of, ShardedStore};
use pse_store::{ClusterKey, ProductStore};
use pse_synthesis::runtime::{reconcile_batch, KeyAttributes};
use pse_synthesis::{FnProvider, RuntimeConfig, SynthesizedProduct};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
const SEARCH_K: usize = 10;

fn provider(f: &Fixture) -> FnProvider<impl Fn(&Offer) -> Spec + Sync + '_> {
    FnProvider(move |o: &Offer| f.specs[&o.id.0].clone())
}

fn products_json(products: &[pse_synthesis::SynthesizedProduct]) -> String {
    serde_json::to_string_pretty(&products.to_vec()).expect("products serialize")
}

/// One interleaved operation stream: ingest the batch, then retract the
/// listed already-ingested offers.
struct Step {
    batch: std::ops::Range<usize>,
    retract: Vec<OfferId>,
}

/// Turn proptest's raw integers into a concrete interleaving: `raw_cuts`
/// partition the corpus into ingest batches; after batch `i`,
/// `raw_retracts[i]` (mod ingested-so-far) offers get retracted, picked
/// deterministically across everything ingested up to that point
/// (including some already-retracted ids — retracting twice must be a
/// no-op on both sides).
fn steps(f: &Fixture, raw_cuts: Vec<usize>, raw_retracts: Vec<usize>) -> Vec<Step> {
    let n = f.corpus.len();
    let mut cuts: Vec<usize> = raw_cuts.into_iter().map(|c| c % (n + 1)).collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts.push(n);
    let mut out = Vec::new();
    let mut start = 0;
    for (i, cut) in cuts.into_iter().enumerate() {
        let ingested = &f.corpus[..cut];
        let want = raw_retracts.get(i).copied().unwrap_or(0) % (ingested.len() + 1);
        let retract: Vec<OfferId> =
            (0..want).map(|j| ingested[(j * 7 + i * 3) % ingested.len()].id).collect();
        out.push(Step { batch: start..cut, retract });
        start = cut;
    }
    out
}

/// What a server with every cache warm must answer after one step, read
/// off the reference store at that step: each category's
/// `/products/{c}` body, each product's `/product` body, and one search
/// for the first key value the step ingested, ranked over indexes built
/// fresh from the reference's products.
struct WarmReads {
    bodies: Vec<(CategoryId, String)>,
    products: Vec<(ClusterKey, String)>,
    search: Option<(String, SearchResult, Vec<String>)>,
}

fn warm_reads(
    f: &Fixture,
    reference: &ProductStore,
    categories: &[CategoryId],
    query: Option<&str>,
) -> WarmReads {
    let bodies = categories
        .iter()
        .map(|&c| (c, serde_json::to_string(&reference.products_in_category(c)).unwrap()))
        .collect();
    let products = reference
        .products_keyed()
        .map(|(k, p)| (k.clone(), serde_json::to_string(p).unwrap()))
        .collect();
    let search = query.map(|q| {
        let mut by_category: BTreeMap<CategoryId, Vec<&SynthesizedProduct>> = BTreeMap::new();
        for (k, p) in reference.products_keyed() {
            by_category.entry(k.0).or_default().push(p);
        }
        let index: SearchIndex = by_category
            .iter()
            .map(|(&c, ps)| (c, Arc::new(CategoryIndex::build(c, ps, &f.correspondences))))
            .collect();
        let result = pse_query::search(&index, q, SEARCH_K);
        let hits = result
            .hits
            .iter()
            .map(|h| {
                let key = (h.category, h.key_attribute.clone(), h.key_value.clone());
                serde_json::to_string(reference.product_for(&key).expect("a hit is a product"))
                    .unwrap()
            })
            .collect();
        (q.to_string(), result, hits)
    });
    WarmReads { bodies, products, search }
}

/// Read everything `want` names from `store` and compare.
fn check_warm(store: &ShardedStore, want: &WarmReads, step: usize) -> Result<(), TestCaseError> {
    let n_shards = store.n_shards();
    for (category, body) in &want.bodies {
        let got = store.products_response(*category);
        prop_assert_eq!(
            std::str::from_utf8(&got).expect("response is UTF-8"),
            body.as_str(),
            "body of category {} after step {} at {} shards",
            category.0,
            step,
            n_shards
        );
    }
    for (key, json) in &want.products {
        let got = store.product_response(key);
        prop_assert_eq!(
            got.as_deref(),
            Some(json.as_str()),
            "product {:?} after step {} at {} shards",
            key,
            step,
            n_shards
        );
    }
    if let Some((query, result, hits)) = &want.search {
        let got = store.search(query, SEARCH_K);
        prop_assert_eq!(
            &got.result,
            result,
            "search {:?} after step {} at {} shards",
            query,
            step,
            n_shards
        );
        let got: Vec<&str> = got.hit_json.iter().map(|j| &**j).collect();
        let want: Vec<&str> = hits.iter().map(String::as_str).collect();
        prop_assert_eq!(got, want, "hit bodies of {:?} after step {}", query, step);
    }
    Ok(())
}

/// The corpus's offer ids grouped by the cluster they route to.
fn offers_by_cluster(f: &Fixture) -> BTreeMap<ClusterKey, Vec<OfferId>> {
    let keys = KeyAttributes::new(&RuntimeConfig::default().key_attributes);
    let mut clusters: BTreeMap<ClusterKey, Vec<OfferId>> = BTreeMap::new();
    for r in &reconcile_batch(&f.corpus, &f.correspondences, &provider(f)) {
        let Some((attr, value)) = keys.route(r) else { continue };
        clusters.entry((r.category, attr, value)).or_default().push(r.offer);
    }
    clusters
}

/// The reference store after every step, and the warm reads each step
/// must answer.
fn run_reference(f: &Fixture, steps: &[Step]) -> (ProductStore, Vec<WarmReads>) {
    let clusters = offers_by_cluster(f);
    let key_value: HashMap<OfferId, &str> = clusters
        .iter()
        .flat_map(|(k, ids)| ids.iter().map(move |&id| (id, k.2.as_str())))
        .collect();
    // Every category a cluster lands in, so an emptied one is read too,
    // plus one no cluster lands in.
    let mut categories: Vec<CategoryId> = clusters.keys().map(|k| k.0).collect();
    categories.push(CategoryId(4_242_424));
    categories.dedup();
    let mut store = ProductStore::new(f.correspondences.clone());
    let mut warm = Vec::new();
    for step in steps {
        store.ingest(&f.world.catalog, &f.corpus[step.batch.clone()], &provider(f));
        store.retract(&f.world.catalog, &step.retract);
        let query = f.corpus[step.batch.clone()].iter().find_map(|o| key_value.get(&o.id));
        warm.push(warm_reads(f, &store, &categories, query.copied()));
    }
    (store, warm)
}

/// The sharded store fed the same steps, checked against `warm` after
/// each one.
fn run_sharded(
    f: &Fixture,
    steps: &[Step],
    n_shards: usize,
    warm: &[WarmReads],
) -> Result<ShardedStore, TestCaseError> {
    let store = ShardedStore::new(f.correspondences.clone(), n_shards);
    for (i, (step, want)) in steps.iter().zip(warm).enumerate() {
        store.ingest(&f.world.catalog, &f.corpus[step.batch.clone()], &provider(f));
        store.retract(&f.world.catalog, &step.retract);
        check_warm(&store, want, i)?;
    }
    Ok(store)
}

proptest! {
    #[test]
    fn sharded_matches_single_store_for_arbitrary_interleavings(
        raw_cuts in prop::collection::vec(0usize..10_000, 0..4),
        raw_retracts in prop::collection::vec(0usize..7, 0..5),
    ) {
        let f = fixture();
        let steps = steps(f, raw_cuts, raw_retracts);
        let (reference, warm) = run_reference(f, &steps);
        let expected_products = products_json(&reference.products());
        let expected_snapshot = reference.snapshot_json();
        // Every category the reference has ever seen, plus one absent.
        let mut categories: Vec<u32> = reference.products().iter().map(|p| p.category.0).collect();
        categories.dedup();
        categories.push(4_242_424);
        for n_shards in SHARD_COUNTS {
            let sharded = run_sharded(f, &steps, n_shards, &warm)?;
            prop_assert_eq!(
                &products_json(&sharded.products()),
                &expected_products,
                "products at {} shards",
                n_shards
            );
            prop_assert_eq!(
                &sharded.snapshot_json(),
                &expected_snapshot,
                "snapshot at {} shards",
                n_shards
            );
            // The cached response bodies must be byte-identical to what
            // the pre-MVCC locked path produced: a fresh serialization
            // of the category's products.
            for &cat in &categories {
                let category = pse_core::CategoryId(cat);
                let expected = serde_json::to_string(&reference.products_in_category(category))
                    .expect("products serialize");
                let body = sharded.products_response(category);
                prop_assert_eq!(
                    std::str::from_utf8(&body).expect("response is UTF-8"),
                    expected.as_str(),
                    "cached response for category {} at {} shards",
                    cat,
                    n_shards
                );
            }
        }
    }

    #[test]
    fn snapshots_restore_across_shard_counts(raw_cut in 0usize..10_000) {
        let f = fixture();
        let n = f.corpus.len();
        let cut = raw_cut % (n + 1);
        // Reshard mid-stream: merge the shards at one shard count, split
        // at another, finish the stream, and compare against the single
        // store that never went through a reshard.
        let mut reference = ProductStore::new(f.correspondences.clone());
        reference.ingest(&f.world.catalog, &f.corpus, &provider(f));
        let expected = products_json(&reference.products());
        for (write_shards, read_shards) in [(1, 8), (4, 2), (8, 1), (2, 4)] {
            let first = ShardedStore::new(f.correspondences.clone(), write_shards);
            first.ingest(&f.world.catalog, &f.corpus[..cut], &provider(f));
            let resharded = ShardedStore::from_store(first.to_store(), read_shards);
            prop_assert_eq!(resharded.n_shards(), read_shards);
            resharded.ingest(&f.world.catalog, &f.corpus[cut..], &provider(f));
            prop_assert_eq!(
                &products_json(&resharded.products()),
                &expected,
                "{} -> {} shards, cut {}",
                write_shards,
                read_shards,
                cut
            );
        }
    }
}

/// Regression guard for the torn cross-shard read (ISSUE 6): a reader
/// racing a multi-shard ingest/retract cycle must only ever observe the
/// pre-batch state or the post-batch state of a category — never a
/// partial batch where some of its clusters are visible and others are
/// not. The pre-MVCC implementation acquired shard read locks
/// sequentially, so a concurrent ingest landing between two shard reads
/// produced exactly such a torn view.
#[test]
fn concurrent_reader_never_observes_partial_batch() {
    const N_SHARDS: usize = 4;
    const CYCLES: usize = 300;
    let f = fixture();
    let config = RuntimeConfig::default();
    let keys = KeyAttributes::new(&config.key_attributes);
    let reconciled = reconcile_batch(&f.corpus, &f.correspondences, &provider(f));

    // Pick a category whose clusters span at least two shards at
    // N_SHARDS, so one batch for that category always crosses shards.
    let mut shards_of_category: HashMap<u32, std::collections::HashSet<usize>> = HashMap::new();
    let mut category_of_offer: HashMap<u64, u32> = HashMap::new();
    for r in &reconciled {
        let Some((attr, value)) = keys.route(r) else { continue };
        let shard = shard_of(&(r.category, attr, value), N_SHARDS);
        shards_of_category.entry(r.category.0).or_default().insert(shard);
        category_of_offer.insert(r.offer.0, r.category.0);
    }
    let (&category, _) = shards_of_category
        .iter()
        .find(|(_, shards)| shards.len() >= 2)
        .expect("tiny world must have a category spanning two shards");
    let batch: Vec<Offer> = f
        .corpus
        .iter()
        .filter(|o| category_of_offer.get(&o.id.0) == Some(&category))
        .cloned()
        .collect();
    let ids: Vec<OfferId> = batch.iter().map(|o| o.id).collect();
    assert!(batch.len() >= 2, "cross-shard batch needs at least two offers");

    let store = ShardedStore::new(f.correspondences.clone(), N_SHARDS);
    store.ingest(&f.world.catalog, &batch, &provider(f));
    let full = products_json(&store.products_in_category(pse_core::CategoryId(category)));
    store.retract(&f.world.catalog, &ids);
    let empty = products_json(&store.products_in_category(pse_core::CategoryId(category)));
    assert_ne!(full, empty, "the batch must be observable");

    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut torn = Vec::new();
            while !done.load(std::sync::atomic::Ordering::Relaxed) {
                let seen =
                    products_json(&store.products_in_category(pse_core::CategoryId(category)));
                if seen != full && seen != empty {
                    torn.push(seen);
                    if torn.len() >= 3 {
                        break;
                    }
                }
            }
            torn
        });
        for _ in 0..CYCLES {
            store.ingest(&f.world.catalog, &batch, &provider(f));
            store.retract(&f.world.catalog, &ids);
            if reader.is_finished() {
                break;
            }
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        let torn = reader.join().expect("reader thread joins");
        assert!(
            torn.is_empty(),
            "reader observed {} torn cross-shard view(s); first: {}",
            torn.len(),
            torn[0]
        );
    });
}

/// A retract republishes only the categories that own its ids: every
/// other category keeps its published entries `Arc` pointer-identical,
/// and a retract of only-unknown ids leaves the whole published
/// `StoreSnapshot` untouched.
#[test]
fn retract_leaves_unowned_categories_pointer_equal() {
    const N_SHARDS: usize = 8;
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), N_SHARDS);
    store.ingest(&f.world.catalog, &f.corpus, &provider(f));

    // Retract one cluster of a category that still holds another, so
    // the category stays visible.
    let by_cluster = offers_by_cluster(f);
    let before = store.snapshot();
    let categories = &before.shards.categories;
    assert!(categories.len() >= 2, "corpus must populate at least two categories");
    let (key, ids) = by_cluster
        .iter()
        .find(|(k, _)| categories[&k.0].len() >= 2)
        .expect("a category with two visible clusters");
    let target = key.0;

    let stats = store.retract(&f.world.catalog, ids);
    assert_eq!(stats.offers_routed, ids.len());
    let after = store.snapshot();
    assert!(!Arc::ptr_eq(&before, &after), "the batch must republish");
    assert_eq!(after.shards.categories.len(), categories.len(), "no category vanishes");
    for (category, entries) in categories {
        let same = Arc::ptr_eq(entries, &after.shards.categories[category]);
        if *category == target {
            assert!(!same, "the owning category must get new entries");
        } else {
            assert!(
                same,
                "category {category:?} owns none of the ids; its entries must be untouched"
            );
        }
    }

    // Unknown ids touch no category at all: not even a new StoreSnapshot.
    let stats = store.retract(&f.world.catalog, &[OfferId(u64::MAX), OfferId(u64::MAX - 1)]);
    assert_eq!(stats.offers_routed, 0);
    assert!(Arc::ptr_eq(&after, &store.snapshot()), "a no-op retract must not republish");
}

/// A write whose dirty clusters are all invisible before and after it
/// (here: a singleton below `min_cluster_size`) changes no published
/// entry, so it republishes nothing and the category's built body
/// stays cached.
#[test]
fn a_write_that_changes_no_visible_product_republishes_nothing() {
    let f = fixture();
    let config = RuntimeConfig { min_cluster_size: 2, ..RuntimeConfig::default() };
    let by_cluster = offers_by_cluster(f);
    // A cluster with two offers, and another cluster of its category.
    let (category, pair, other) = by_cluster
        .iter()
        .filter(|(_, ids)| ids.len() >= 2)
        .find_map(|(k, ids)| {
            let (_, other) = by_cluster.iter().find(|(o, _)| o.0 == k.0 && *o != k)?;
            Some((k.0, &ids[..2], other[0]))
        })
        .expect("a category with a two-offer cluster and another cluster");
    let offers = |ids: &[OfferId]| -> Vec<Offer> {
        f.corpus.iter().filter(|o| ids.contains(&o.id)).cloned().collect()
    };

    let store =
        ShardedStore::from_store(ProductStore::with_config(f.correspondences.clone(), config), 1);
    store.ingest(&f.world.catalog, &offers(pair), &provider(f));
    assert_eq!(store.products_in_category(category).len(), 1, "the pair is visible");
    store.products_response(category);
    let before = store.snapshot();

    store.ingest(&f.world.catalog, &offers(&[other]), &provider(f));
    assert!(Arc::ptr_eq(&before, &store.snapshot()), "an invisible change republished");
    let obs = pse_obs::Obs::new();
    let _on = obs.install();
    store.products_response(category);
    assert_eq!(
        obs.report().counter(pse_serve::metrics::CACHE_HIT),
        Some(1),
        "the body was dropped"
    );
}

#[test]
fn concurrent_shard_disjoint_ingest_matches_sequential() {
    // Four threads ingest cluster-disjoint slices of the corpus through
    // the same `&ShardedStore` at once; because no cluster spans two
    // batches, the result must equal one sequential ingest of the
    // concatenation regardless of thread interleaving.
    let f = fixture();
    let config = RuntimeConfig::default();
    let keys = KeyAttributes::new(&config.key_attributes);
    let reconciled = reconcile_batch(&f.corpus, &f.correspondences, &provider(f));
    let route_of: HashMap<u64, usize> = reconciled
        .iter()
        .filter_map(|r| {
            let (attr, value) = keys.route(r)?;
            Some((r.offer.0, shard_of(&(r.category, attr, value), 4)))
        })
        .collect();
    let mut batches: Vec<Vec<Offer>> = vec![Vec::new(); 4];
    for offer in &f.corpus {
        // Unroutable offers can go anywhere; both sides drop them.
        let slot = route_of.get(&offer.id.0).copied().unwrap_or(0);
        batches[slot].push(offer.clone());
    }

    let mut sequential = ProductStore::new(f.correspondences.clone());
    for batch in &batches {
        sequential.ingest(&f.world.catalog, batch, &provider(f));
    }

    let concurrent = ShardedStore::new(f.correspondences.clone(), 4);
    std::thread::scope(|scope| {
        for batch in &batches {
            scope.spawn(|| {
                concurrent.ingest(&f.world.catalog, batch, &provider(f));
            });
        }
    });

    assert_eq!(
        products_json(&concurrent.products()),
        products_json(&sequential.products()),
        "thread interleaving must not affect cluster-disjoint ingests"
    );
    assert_eq!(concurrent.snapshot_json(), sequential.snapshot_json());
}

/// Two writers whose batches share clusters race on one 4-shard store,
/// released together by a barrier: every round must land on the state
/// one of the two serial orders produces. Each writer pins two `pse-par`
/// workers, so a 300-offer batch fans out inside the write it belongs to.
#[test]
fn concurrent_overlapping_ingests_equal_a_serial_order() {
    let f = fixture();
    // Fresh ids over the corpus with the same specs: the clusters overlap.
    let batch = |first: u64| -> Vec<Offer> {
        let spec_of = |k: u64| f.corpus[k as usize % f.corpus.len()].clone();
        (0..300).map(|k| Offer { id: OfferId(first + k), ..spec_of(k) }).collect()
    };
    let (a, b) = (batch(1_000_000), batch(2_000_000));
    let serial = |first: &[Offer], second: &[Offer]| {
        let mut store = ProductStore::new(f.correspondences.clone());
        store.ingest(&f.world.catalog, first, &spec_provider());
        store.ingest(&f.world.catalog, second, &spec_provider());
        store.snapshot_json()
    };
    let orders = [serial(&a, &b), serial(&b, &a)];
    assert_ne!(orders[0], orders[1], "the batches must overlap for their order to matter");
    for round in 0..20 {
        let store = ShardedStore::new(f.correspondences.clone(), 4);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for batch in [&a, &b] {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    pse_par::with_threads(2, || {
                        start.wait();
                        store.ingest(&f.world.catalog, batch, &spec_provider())
                    })
                });
            }
        });
        assert!(
            orders.contains(&store.snapshot_json()),
            "round {round}: a state neither serial order produces"
        );
    }
}
