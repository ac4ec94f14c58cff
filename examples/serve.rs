//! A live server to drive by hand: learn from a tiny world, pre-ingest
//! half its unmatched offers, serve on an ephemeral port until someone
//! POSTs `/shutdown`. With a directory argument the server is durable
//! (WAL + segments under it) and a restart serves the recovered state.
//!
//! ```text
//! cargo run --release --example serve [DIR]
//! cargo run --release -p pse-serve --bin http_get -- GET  http://ADDR/healthz
//! cargo run --release -p pse-serve --bin http_get -- POST http://ADDR/shutdown
//! ```

use std::path::PathBuf;

use product_synthesis::core::Offer;
use product_synthesis::datagen::{World, WorldConfig};
use product_synthesis::serve::{self, ServerConfig, ShardedStore};
use product_synthesis::synthesis::{ExtractingProvider, OfflineLearner};
use pse_obs::Obs;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Observed, so `GET /metrics` and `/debug/requests` have something to show.
    let obs = Obs::new();
    let _obs = obs.install();
    let dir = std::env::args().nth(1).map(PathBuf::from);
    let world = World::generate(WorldConfig::tiny());
    let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
    let learned =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let unmatched: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    // Disk state, when DIR already holds some, wins over this seed.
    let store = ShardedStore::new(learned.correspondences, 4);
    store.ingest(&world.catalog, &unmatched[..unmatched.len() / 2], &provider);

    let config = ServerConfig {
        wal_path: dir.as_ref().map(|d| d.join("wal.log")),
        snapshot_dir: dir.as_ref().map(|d| d.join("segments")),
        ..ServerConfig::default()
    };
    let handle = serve::start(store, world.catalog.clone(), config)?;
    println!("serving at http://{}; POST /shutdown to stop", handle.addr());
    if let Some(p) = handle.store().products().first() {
        println!(
            "try: /products/{0} or /product?category={0}&attr={1}&key={2}",
            p.category.0, p.key_attribute, p.key_value
        );
    }
    handle.wait_for_stop();
    let store = handle.shutdown()?;
    println!("stopped with {} products", store.products().len());
    Ok(())
}
