//! The byte-identical-output guarantee: the pipeline synthesizes exactly
//! the same products no matter how many `pse-par` worker threads run.
//!
//! This is the contract the ISSUE calls out — parallelism must change
//! wall-clock time and nothing else. We run the full honest path (render
//! landing pages → extract → learn correspondences → reconcile → cluster
//! → fuse) once at 1 thread and once at 4, serialize everything that
//! downstream consumers see, and compare the bytes.

use pse_datagen::{World, WorldConfig};
use pse_obs::Obs;
use pse_synthesis::{OfflineLearner, RuntimePipeline, SpecProvider};

fn run_pipeline(world: &World) -> (String, String) {
    let provider =
        pse_synthesis::ExtractingProvider::new(|o: &pse_core::Offer| world.landing_page(o.id));
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let unmatched: Vec<pse_core::Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    let pipeline = RuntimePipeline::new(offline.correspondences.clone());
    let synthesis = pipeline.process(&world.catalog, &unmatched, &provider);
    let products = serde_json::to_string_pretty(&synthesis.products).expect("products serialize");
    let scored = serde_json::to_string_pretty(&offline.scored).expect("candidates serialize");
    (products, scored)
}

#[test]
fn synthesized_products_are_byte_identical_at_any_thread_count() {
    let world = World::generate(WorldConfig::tiny());
    let (products_1, scored_1) = pse_par::with_threads(1, || run_pipeline(&world));
    let (products_4, scored_4) = pse_par::with_threads(4, || run_pipeline(&world));

    assert!(!products_1.is_empty());
    assert_eq!(products_1, products_4, "synthesized products differ across thread counts");
    assert_eq!(scored_1, scored_4, "scored candidates differ across thread counts");
}

#[test]
fn observability_does_not_change_outputs() {
    // The observability contract: instrumentation records on the side and
    // never influences a pipeline byte. Same world, with no `Obs` vs under
    // one, at a thread count that exercises the par timeline hooks.
    let world = World::generate(WorldConfig::tiny());
    let (products_off, scored_off) = pse_par::with_threads(4, || run_pipeline(&world));
    let obs = Obs::new();
    let (products_on, scored_on) = {
        let _on = obs.install();
        pse_par::with_threads(4, || run_pipeline(&world))
    };
    let report = obs.report();

    assert_eq!(products_off, products_on, "synthesized products differ with observability on");
    assert_eq!(scored_off, scored_on, "scored candidates differ with observability on");
    // And the side channel actually observed the run.
    assert_eq!(report.validate(), Ok(()));
    assert!(report.span("offline.learn").is_some());
    assert!(report.span("runtime.process").is_some());
    assert!(report.counter("runtime.offers_in").unwrap_or(0) > 0);

    // The serving layer honors the same contract: request tracing, the
    // per-endpoint latency histograms and the flight recorder all record
    // on the side — an observed server answers product endpoints with the
    // same bytes as an unobserved one over the same store.
    let provider =
        pse_synthesis::ExtractingProvider::new(|o: &pse_core::Offer| world.landing_page(o.id));
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let unmatched: Vec<pse_core::Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    let serve = |obs: Option<&Obs>| {
        let _on = obs.map(Obs::install);
        let store = pse_serve::ShardedStore::new(offline.correspondences.clone(), 2);
        store.ingest(&world.catalog, &unmatched, &provider);
        let config = pse_serve::ServerConfig::default();
        pse_serve::start(store, world.catalog.clone(), config).expect("server starts")
    };
    let (plain, observed) = (serve(None), serve(Some(&obs)));
    let p = &plain.store().products()[0];
    let paths = [
        "/healthz".to_string(),
        format!("/products/{}", p.category.0),
        format!("/product?category={}&attr={}&key={}", p.category.0, p.key_attribute, p.key_value),
        "/nope".to_string(),
    ];
    // The error envelope's `trace_id` is the one sanctioned difference
    // between an observed server and not — blank it before comparing.
    let blank_trace_id = |body: String| match body.find("\"trace_id\":\"") {
        None => body,
        Some(start) => {
            let value_start = start + "\"trace_id\":\"".len();
            let value_end = value_start + body[value_start..].find('"').unwrap();
            format!("{}{}", &body[..value_start], &body[value_end..])
        }
    };
    for path in &paths {
        let [off, on] = [&plain, &observed].map(|server| {
            let addr = server.addr().to_string();
            let (status, body) = pse_serve::http_request(&addr, "GET", path, None).unwrap();
            (status, blank_trace_id(body))
        });
        assert_eq!(off, on, "observability changed the serve response for {path}");
    }
    plain.shutdown().expect("clean shutdown");
    observed.shutdown().expect("clean shutdown");
}

#[test]
fn page_derivation_is_byte_identical_at_any_thread_count() {
    let world = World::generate(WorldConfig::tiny());
    let ids: Vec<pse_core::OfferId> = world.offers.iter().map(|o| o.id).collect();
    let pages_1 = pse_par::with_threads(1, || world.landing_pages(&ids));
    let pages_4 = pse_par::with_threads(4, || world.landing_pages(&ids));
    assert_eq!(pages_1, pages_4);
    let specs_1 = pse_par::with_threads(1, || world.page_specs(&ids));
    let specs_4 = pse_par::with_threads(4, || world.page_specs(&ids));
    assert_eq!(specs_1, specs_4);
}

#[test]
fn provider_extraction_is_pure_per_offer() {
    // The Sync supertrait on SpecProvider assumes spec() is a pure function
    // of the offer; verify for the honest extracting provider.
    let world = World::generate(WorldConfig::tiny());
    let provider =
        pse_synthesis::ExtractingProvider::new(|o: &pse_core::Offer| world.landing_page(o.id));
    for offer in world.offers.iter().take(20) {
        assert_eq!(provider.spec(offer), provider.spec(offer));
    }
}
