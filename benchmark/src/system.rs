//! Set-up: everything a run builds before the clock of a workload
//! starts — the world, the learned correspondences, the preloaded store
//! and the running durable server. Its wall time is `setup_s`.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};

use pse_core::{CategoryId, CorrespondenceSet, Offer, Spec};
use pse_datagen::{World, WorldBase, WorldConfig};
use pse_serve::{ServerConfig, ServerHandle, ShardedStore};
use pse_store::ClusterKey;
use pse_synthesis::{ExtractingProvider, FnProvider, OfflineLearner, OfflineOutcome, SpecProvider};

use crate::http::{encode_query_value, Client};

/// Store shards (the load model fixes 4).
pub const SHARDS: usize = 4;
/// Closed-loop client threads = connections.
pub const CLIENTS: usize = 2;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Offers per non-durable preload batch.
const PRELOAD_BATCH: usize = 1_000;
/// Seed of the corpus. The world is a fixed reference data set —
/// generated, not stored — and `--seed` drives the traffic over it.
/// Worlds of different seeds differ by more than any regression bound
/// worth setting (search p50 by 15%, WAL bytes per offer by 15% across
/// ten seeds), and the acceptance rule compares runs of *different*
/// seeds; on one world the quality and byte metrics are exact.
pub const CORPUS_SEED: u64 = 0x5EED;
/// WAL bytes between background folds. The server default is 8 MiB; the
/// runs here are seconds long, so the threshold is scaled down to keep
/// what the default gives a long-lived server: several folds inside
/// every churn phase, not zero-or-one by luck.
const COMPACTION_THRESHOLD_BYTES: u64 = 1 << 20;

/// Corpus sizes of one scale.
#[derive(Debug, Clone)]
pub struct Sizes {
    /// Scale name, stamped into result files.
    pub name: &'static str,
    /// Leaf categories per top level.
    pub leaves: [usize; 4],
    /// Merchants.
    pub merchants: usize,
    /// Catalog products per leaf category.
    pub products_per_category: usize,
    /// Offers of the materialized world: the batch pipeline's input and
    /// what correspondences are learned from.
    pub world_offers: usize,
    /// Streamed offers ingested before serving starts.
    pub preload_offers: usize,
    /// Ground-truth queries behind the search mix.
    pub truth_queries: usize,
    /// Floor on served products after preload.
    pub min_served_products: usize,
}

impl Sizes {
    /// The measured scale.
    pub fn full() -> Self {
        Self {
            name: "full",
            leaves: [12, 22, 8, 8],
            merchants: 150,
            products_per_category: 100,
            world_offers: 4_000,
            preload_offers: 30_000,
            truth_queries: 192,
            min_served_products: 1_500,
        }
    }

    /// About 1/50 of the work, for `--smoke`: same code path, same
    /// metric names, not a measurement.
    pub fn smoke() -> Self {
        Self {
            name: "smoke",
            leaves: [2, 3, 1, 1],
            merchants: 12,
            products_per_category: 30,
            world_offers: 800,
            preload_offers: 3_000,
            truth_queries: 64,
            min_served_products: 40,
        }
    }

    /// The world configuration (the `crates/bench` `Scale` recipe:
    /// merchant coverage shrinks as categories grow).
    pub fn world_config(&self) -> WorldConfig {
        let leaves: usize = self.leaves.iter().sum();
        WorldConfig {
            seed: CORPUS_SEED,
            leaf_categories_per_top: self.leaves,
            products_per_category: self.products_per_category,
            num_merchants: self.merchants,
            num_offers: self.world_offers,
            match_error_rate: 0.08,
            merchant_category_coverage: (30.0 / leaves as f64).clamp(0.05, 0.6),
            ..WorldConfig::default()
        }
    }
}

/// The honest provider of Fig. 4: render the landing page, parse it,
/// extract the specification from its tables.
pub fn html_provider(world: &World) -> impl SpecProvider + '_ {
    ExtractingProvider::new(move |o: &Offer| world.landing_page(o.id))
}

/// The serving-side provider: offers arrive with their page spec
/// embedded (pages do not cross an HTTP boundary).
pub fn embedded_provider() -> FnProvider<impl Fn(&Offer) -> Spec + Sync> {
    FnProvider(|o: &Offer| o.spec.clone())
}

/// The offline phase over the world's historical offers.
pub fn learn(world: &World) -> OfflineOutcome {
    OfflineLearner::new().learn(
        &world.catalog,
        &world.offers,
        &world.historical,
        &html_provider(world),
    )
}

/// `n` streamed offers from `stream`, page specs embedded — the wire
/// form of `POST /ingest`.
pub fn next_offers(
    base: &WorldBase,
    stream: &mut pse_datagen::OfferStream<'_>,
    n: usize,
) -> Vec<Offer> {
    let Some(batch) = stream.next_batch(n) else { return Vec::new() };
    batch
        .offers
        .into_iter()
        .map(|so| Offer { spec: base.page_spec_for(&so.offer, so.product), ..so.offer })
        .collect()
}

/// One point lookup: the request path and the cluster key it names.
#[derive(Debug, Clone)]
pub struct ProductPath {
    /// `GET` path with query string.
    pub path: String,
    /// The key the in-process oracle is probed with.
    pub key: ClusterKey,
}

/// A set-up system: inputs, learned state, and the live server.
pub struct System {
    /// Corpus sizes in use.
    pub sizes: Sizes,
    /// The materialized world (batch input, oracle, query source).
    pub world: World,
    /// The stream scaffold on the same configuration.
    pub base: WorldBase,
    /// Correspondences learned from `world`.
    pub correspondences: CorrespondenceSet,
    handle: ServerHandle,
    /// Where the server listens.
    pub addr: SocketAddr,
    /// The server's durable directory (WAL + segments).
    pub dir: PathBuf,
    /// A lookup for every product served after preload.
    pub product_paths: Vec<ProductPath>,
    /// Categories with at least one served product.
    pub categories: Vec<CategoryId>,
    /// `GET /products/{c}` for each of `categories`, index-aligned.
    pub category_paths: Vec<String>,
    /// Offers the store held when serving started.
    pub preloaded_offers: usize,
}

impl System {
    /// Build everything: generate the world and the stream scaffold,
    /// learn correspondences through the HTML path, preload the store
    /// non-durably, start the durable server on it, and warm every lazily
    /// built cache. `dir` is wiped first.
    pub fn setup(sizes: &Sizes, dir: &Path) -> Self {
        let cfg = sizes.world_config();
        let world = World::generate(cfg.clone());
        let base = WorldBase::generate(cfg);
        let correspondences = learn(&world).correspondences;

        let store = ShardedStore::new(correspondences.clone(), SHARDS);
        let provider = embedded_provider();
        let mut stream = base.stream(sizes.preload_offers);
        loop {
            let offers = next_offers(&base, &mut stream, PRELOAD_BATCH);
            if offers.is_empty() {
                break;
            }
            store.ingest(&world.catalog, &offers, &provider);
        }
        drop(stream);

        let served = store.products();
        assert!(
            served.len() >= sizes.min_served_products,
            "serve corpus holds {} products, under the floor of {}",
            served.len(),
            sizes.min_served_products
        );
        let product_paths = served
            .iter()
            .map(|p| ProductPath {
                path: format!(
                    "/product?category={}&attr={}&key={}",
                    p.category.0,
                    encode_query_value(&p.key_attribute),
                    encode_query_value(&p.key_value)
                ),
                key: (p.category, p.key_attribute.clone(), p.key_value.clone()),
            })
            .collect();
        let mut categories: Vec<CategoryId> = served.iter().map(|p| p.category).collect();
        categories.dedup();
        let category_paths = categories.iter().map(|c| format!("/products/{}", c.0)).collect();
        let preloaded_offers = store.offer_count();

        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir).expect("create the durable directory");
        let config = ServerConfig {
            workers: WORKERS,
            wal_path: Some(dir.join("wal.log")),
            snapshot_dir: Some(dir.join("segments")),
            compaction_threshold_bytes: COMPACTION_THRESHOLD_BYTES,
            ..ServerConfig::default()
        };
        let handle =
            pse_serve::start(store, world.catalog.clone(), config).expect("the server starts");
        let addr = handle.addr();

        let sys = Self {
            sizes: sizes.clone(),
            world,
            base,
            correspondences,
            handle,
            addr,
            dir: dir.to_path_buf(),
            product_paths,
            categories,
            category_paths,
            preloaded_offers,
        };
        sys.warm();
        sys
    }

    /// Build (or, after writes, rebuild) every category's response body
    /// and search index, so the timed slices measure the warm path — the
    /// steady state of a catalog read far more often than written. Part
    /// of set-up the first time; untimed after each churn slice.
    pub fn warm(&self) {
        let mut client = Client::new(self.addr);
        for path in self.category_paths.iter().map(String::as_str).chain(["/search?q=warm+up&k=1"])
        {
            let (r, _) = client.request("GET", path, b"").expect("warm-up request");
            assert_eq!(r.status, 200, "warm-up GET {path}");
        }
    }

    /// The live store behind the server (the in-process oracle).
    pub fn store(&self) -> &ShardedStore {
        self.handle.store()
    }

    /// Stop the server and wait for every one of its threads.
    pub fn shutdown(self) {
        self.handle.shutdown().expect("the server stops cleanly");
    }
}
