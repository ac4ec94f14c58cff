//! Reader storm through the response cache (ISSUE 6 satellite): N client
//! threads hammer `GET /products/{category}` over HTTP while a writer
//! churns ingest/retract cycles in a *disjoint* category. Every response
//! must byte-equal a fresh serialization of the stable category, and the
//! `serve.cache.*` counters must reconcile exactly:
//! `hits + misses == products requests served`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};

use pse_core::{Offer, OfferId, Spec};
use pse_datagen::{World, WorldConfig};
use pse_obs::Obs;
use pse_serve::{http_request, ServerConfig, ShardedStore};
use pse_synthesis::runtime::{reconcile_batch, KeyAttributes};
use pse_synthesis::{ExtractingProvider, FnProvider, OfflineLearner, RuntimeConfig, SpecProvider};

const N_SHARDS: usize = 4;
const READERS: usize = 4;
const REQUESTS_PER_READER: usize = 120;
/// A category id no tiny world ever generates: every request for it is a
/// deliberate cache miss answered with the shared `[]` body.
const ABSENT_CATEGORY: u32 = 4_242_424;

#[test]
fn reader_storm_sees_consistent_bytes_and_counters_reconcile() {
    let world = World::generate(WorldConfig::tiny());
    let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let corpus: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    let specs: HashMap<u64, Spec> = corpus.iter().map(|o| (o.id.0, provider.spec(o))).collect();
    let provider = FnProvider(move |o: &Offer| specs[&o.id.0].clone());

    // Partition the corpus by the category its offers route to, and pick
    // the two most-populated categories: the biggest stays stable and is
    // what the readers hammer; the runner-up is what the writer churns.
    let config = RuntimeConfig::default();
    let keys = KeyAttributes::new(&config.key_attributes);
    let reconciled = reconcile_batch(&corpus, &offline.correspondences, &provider);
    let mut category_of_offer: HashMap<u64, u32> = HashMap::new();
    for r in &reconciled {
        if keys.route(r).is_some() {
            category_of_offer.insert(r.offer.0, r.category.0);
        }
    }
    let mut by_category: HashMap<u32, Vec<Offer>> = HashMap::new();
    for offer in &corpus {
        if let Some(&cat) = category_of_offer.get(&offer.id.0) {
            by_category.entry(cat).or_default().push(offer.clone());
        }
    }
    let mut sized: Vec<(u32, Vec<Offer>)> = by_category.into_iter().collect();
    sized.sort_by_key(|(cat, offers)| (std::cmp::Reverse(offers.len()), *cat));
    assert!(sized.len() >= 2, "tiny world must populate at least two categories");
    let (stable_category, stable_batch) = sized[0].clone();
    let (churn_category, churn_batch) = sized[1].clone();
    assert_ne!(stable_category, churn_category);
    let churn_ids: Vec<OfferId> = churn_batch.iter().map(|o| o.id).collect();

    let store = ShardedStore::new(offline.correspondences.clone(), N_SHARDS);
    store.ingest(&world.catalog, &stable_batch, &provider);
    let expected =
        serde_json::to_string(&store.products_in_category(pse_core::CategoryId(stable_category)))
            .expect("products serialize");
    assert_ne!(expected, "[]", "the stable category must actually serve products");

    // Generous queue/workers: this test is about consistency, not 503s.
    // The server records into `obs` from here on, and so does the writer.
    let config = ServerConfig { workers: 4, queue_depth: 256, ..ServerConfig::default() };
    let obs = Obs::new();
    let handle = {
        let _on = obs.install();
        pse_serve::start(store, world.catalog.clone(), config).expect("server starts")
    };
    let addr = handle.addr().to_string();
    let store = handle.store();

    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| {
            let _on = obs.install();
            let mut cycles = 0u32;
            while !done.load(Ordering::Relaxed) {
                store.ingest(&world.catalog, &churn_batch, &provider);
                store.retract(&world.catalog, &churn_ids);
                cycles += 1;
            }
            cycles
        });
        let readers: Vec<_> = (0..READERS)
            .map(|reader| {
                let addr = &addr;
                let expected = &expected;
                scope.spawn(move || {
                    for i in 0..REQUESTS_PER_READER {
                        // Every 8th request probes the absent category: a
                        // deliberate miss served from the shared `[]` body.
                        let (category, want) = if (i + reader) % 8 == 0 {
                            (ABSENT_CATEGORY, "[]")
                        } else {
                            (stable_category, expected.as_str())
                        };
                        let (status, body) =
                            http_request(addr, "GET", &format!("/products/{category}"), None)
                                .expect("request succeeds");
                        assert_eq!(status, 200);
                        assert_eq!(
                            body, want,
                            "reader {reader} request {i}: category {category} must byte-equal \
                             a fresh serialization, independent of the concurrent churn"
                        );
                    }
                })
            })
            .collect();
        for reader in readers {
            reader.join().expect("reader thread joins");
        }
        done.store(true, Ordering::Relaxed);
        let cycles = writer.join().expect("writer thread joins");
        assert!(cycles >= 2, "the writer must actually churn during the storm ({cycles} cycles)");
    });

    // Exactly one hit-or-miss per `GET /products/{category}` request.
    let after = obs.report();
    let hits = after.counter(pse_serve::metrics::CACHE_HIT).expect("hit counter seeded");
    let misses = after.counter(pse_serve::metrics::CACHE_MISS).expect("miss counter seeded");
    let requests = (READERS * REQUESTS_PER_READER) as u64;
    assert_eq!(
        hits + misses,
        requests,
        "cache counters must reconcile: {hits} hits + {misses} misses != {requests} requests"
    );
    assert!(hits > 0, "the stable category must be served from the cache");
    assert!(misses > 0, "the absent category must count as misses");
    assert!(
        after.counter(pse_serve::metrics::CACHE_INVALIDATED).expect("invalidated counter seeded")
            > 0,
        "the churn must invalidate its category's cached response"
    );

    handle.shutdown().expect("clean shutdown");
}
