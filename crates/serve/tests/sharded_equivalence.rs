//! ShardedStore ≡ ProductStore (ISSUE 5 tentpole, layer 1): at 1, 2, 4,
//! and 8 shards, for arbitrary ingest/retract interleavings, the sharded
//! store's products and snapshot are byte-identical to a single
//! `ProductStore` fed the same operation stream — and a store built at
//! one shard count reshards mid-stream to any other.

mod common;

use std::collections::HashMap;

use common::{fixture, spec_provider, Fixture};
use proptest::prelude::*;
use pse_core::{Offer, OfferId, Spec};
use pse_serve::{shard_of, ShardedStore};
use pse_store::ProductStore;
use pse_synthesis::runtime::{reconcile_batch, KeyAttributes};
use pse_synthesis::{FnProvider, RuntimeConfig};

const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

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

fn run_reference(f: &Fixture, steps: &[Step]) -> ProductStore {
    let mut store = ProductStore::new(f.correspondences.clone());
    for step in steps {
        store.ingest(&f.world.catalog, &f.corpus[step.batch.clone()], &provider(f));
        store.retract(&f.world.catalog, &step.retract);
    }
    store
}

fn run_sharded(f: &Fixture, steps: &[Step], n_shards: usize) -> ShardedStore {
    let store = ShardedStore::new(f.correspondences.clone(), n_shards);
    for step in steps {
        store.ingest(&f.world.catalog, &f.corpus[step.batch.clone()], &provider(f));
        store.retract(&f.world.catalog, &step.retract);
    }
    store
}

proptest! {
    #[test]
    fn sharded_matches_single_store_for_arbitrary_interleavings(
        raw_cuts in prop::collection::vec(0usize..10_000, 0..4),
        raw_retracts in prop::collection::vec(0usize..7, 0..5),
    ) {
        let f = fixture();
        let steps = steps(f, raw_cuts, raw_retracts);
        let reference = run_reference(f, &steps);
        let expected_products = products_json(&reference.products());
        let expected_snapshot = reference.snapshot_json();
        // Every category the reference has ever seen, plus one absent.
        let mut categories: Vec<u32> = reference.products().iter().map(|p| p.category.0).collect();
        categories.dedup();
        categories.push(4_242_424);
        for n_shards in SHARD_COUNTS {
            let sharded = run_sharded(f, &steps, n_shards);
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

/// Retract must only take write paths on shards that own at least one of
/// the ids (ISSUE 6 satellite): untouched shards keep their published
/// snapshot `Arc` pointer-identical, and a retract of only-unknown ids
/// leaves the whole published `StoreSnapshot` untouched.
#[test]
fn retract_leaves_unowned_shards_pointer_equal() {
    const N_SHARDS: usize = 8;
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), N_SHARDS);
    store.ingest(&f.world.catalog, &f.corpus, &provider(f));

    // Group the ingested offers by owning shard and retract one shard's.
    let config = RuntimeConfig::default();
    let keys = KeyAttributes::new(&config.key_attributes);
    let reconciled = reconcile_batch(&f.corpus, &f.correspondences, &provider(f));
    let mut by_shard: HashMap<usize, Vec<OfferId>> = HashMap::new();
    for r in &reconciled {
        let Some((attr, value)) = keys.route(r) else { continue };
        by_shard.entry(shard_of(&(r.category, attr, value), N_SHARDS)).or_default().push(r.offer);
    }
    assert!(by_shard.len() >= 2, "corpus must populate at least two shards");
    let (&target, ids) = by_shard.iter().next().expect("a populated shard");

    let before = store.snapshot();
    let stats = store.retract(&f.world.catalog, ids);
    assert_eq!(stats.offers_routed, ids.len());
    let after = store.snapshot();
    assert!(!std::sync::Arc::ptr_eq(&before, &after), "the batch must republish");
    for i in 0..N_SHARDS {
        let same = std::sync::Arc::ptr_eq(&before.shards[i], &after.shards[i]);
        if i == target {
            assert!(!same, "the owning shard must get a new snapshot");
        } else {
            assert!(same, "shard {i} owns none of the ids; its snapshot must be untouched");
        }
    }

    // Unknown ids touch no shard at all: not even a new StoreSnapshot.
    let stats = store.retract(&f.world.catalog, &[OfferId(u64::MAX), OfferId(u64::MAX - 1)]);
    assert_eq!(stats.offers_routed, 0);
    assert!(
        std::sync::Arc::ptr_eq(&after, &store.snapshot()),
        "a no-op retract must not republish"
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
