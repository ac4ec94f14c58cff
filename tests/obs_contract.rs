//! The observability contract, phase by phase: batch pipeline, store,
//! volatile server, durable server → read-only recovery → recovered
//! server, a chunk flood. Each phase runs under an `Obs` of its own, so
//! the phases are independent tests; after each, that `Obs`'s report must
//! pass `ObsReport::validate` and the declarative contract:
//!
//! * every subsystem the phase ran reports everything its `METRICS` const
//!   declares (the subsystem seeds itself from that const, so traffic
//!   cannot change the answer);
//! * nothing is reported under a gated prefix (`serve.`, `query.`, `wal.`,
//!   `snapshot.`, `store.`, `match.`, `softtfidf.`) that no `METRICS` const
//!   — or, for `serve.endpoint.*`, the route table — declares;
//! * the per-endpoint RED ledger balances on every serving phase.
//!
//! Each phase states which subsystems it ran; nothing is inferred from
//! span names.

// The serve tests' fixture, shared rather than copied a seventh time.
#[path = "../crates/serve/tests/common/mod.rs"]
mod common;

use std::collections::BTreeSet;
use std::path::Path;

use common::{fixture, spec_provider};
use product_synthesis::baselines::DumasMatcher;
use product_synthesis::core::Offer;
use product_synthesis::datagen::{World, WorldConfig};
use product_synthesis::serve::{http_request, ServerConfig, ServerHandle, ShardedStore};
use product_synthesis::store::ProductStore;
use product_synthesis::synthesis::{
    ExtractingProvider, OfflineLearner, RuntimePipeline, SpecProvider, TitleMatcher,
};
use product_synthesis::wal::{recover, DurabilityConfig};
use pse_obs::{MetricSet, Obs, ObsReport, TIMELINE_RETAINED};

/// The gated subsystems a phase can name.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Subsystem {
    Serve,
    Query,
    Wal,
    Store,
    Matcher,
    SoftTfIdf,
}
use Subsystem::*;

const SUBSYSTEMS: [Subsystem; 6] = [Serve, Query, Wal, Store, Matcher, SoftTfIdf];

impl Subsystem {
    fn metrics(self) -> &'static MetricSet {
        match self {
            Serve => &pse_serve::METRICS,
            Query => &pse_query::METRICS,
            Wal => &pse_wal::METRICS,
            Store => &pse_store::METRICS,
            Matcher => &pse_synthesis::matching::METRICS,
            SoftTfIdf => &pse_text::softtfidf::METRICS,
        }
    }

    /// Name prefixes only this subsystem may report under.
    fn prefixes(self) -> &'static [&'static str] {
        match self {
            Serve => &["serve."],
            Query => &["query."],
            Wal => &["wal.", "snapshot."],
            Store => &["store."],
            Matcher => &["match."],
            SoftTfIdf => &["softtfidf."],
        }
    }
}

/// Every way `report` breaks the contract for a phase that ran `ran`.
fn contract_errors(report: &ObsReport, ran: &[Subsystem]) -> Vec<String> {
    let mut errs = Vec::new();
    if let Err(e) = report.validate() {
        errs.push(format!("invalid report: {e}"));
    }
    if !report.enabled || report.schema_version != pse_obs::SCHEMA_VERSION {
        errs.push("report must be enabled and at the current schema version".into());
    }
    for subsystem in ran {
        for name in subsystem.metrics().missing(report) {
            errs.push(format!("{subsystem:?} ran but did not report {name}"));
        }
    }
    let declared: BTreeSet<&str> = SUBSYSTEMS
        .iter()
        .flat_map(|s| s.metrics().names())
        .chain(pse_serve::endpoint_metrics().flat_map(|m| [m.requests, m.errors, m.us]))
        .collect();
    let reported = report
        .counters
        .iter()
        .map(|c| c.name.as_str())
        .chain(report.histograms.iter().map(|h| h.name.as_str()));
    for name in reported {
        let gated = SUBSYSTEMS.iter().flat_map(|s| s.prefixes()).any(|p| name.starts_with(p));
        if gated && !declared.contains(name) {
            errs.push(format!("{name} is reported but no METRICS const declares it"));
        }
    }
    if ran.contains(&Serve) {
        errs.extend(red_ledger_errors(report));
    }
    errs
}

/// Per-endpoint RED consistency of a quiesced serving report. For every
/// request it handles the server records exactly one `serve.requests`
/// increment, one `serve.endpoint.<e>.requests` increment and one
/// `serve.endpoint.<e>.us` observation — so each endpoint's histogram
/// count equals its request counter, its errors never exceed its
/// requests, and the endpoint request counters sum to `serve.requests`.
/// (Acceptor-level backpressure 503s touch neither side of the ledger.)
fn red_ledger_errors(report: &ObsReport) -> Vec<String> {
    let mut errs = Vec::new();
    let mut total = 0;
    for m in pse_serve::endpoint_metrics() {
        let observed = report.histograms.iter().find(|h| h.name == m.us).map(|h| h.count);
        let (requests, errors) = (report.counter(m.requests), report.counter(m.errors));
        match (requests, errors, observed) {
            (Some(requests), Some(errors), Some(observed)) => {
                total += requests;
                if observed != requests {
                    errs.push(format!("{}: {observed} observations, {requests} requests", m.us));
                }
                if errors > requests {
                    errs.push(format!("{}: {errors} errors out of {requests} requests", m.errors));
                }
            }
            _ => errs.push(format!("{}: incomplete RED trio", m.requests)),
        }
    }
    if report.counter(pse_serve::metrics::REQUESTS) != Some(total) {
        errs.push(format!("endpoint requests sum to {total}, not to serve.requests"));
    }
    errs
}

/// Run one phase under a fresh `Obs` and hold its report to the contract.
fn phase(name: &str, ran: &[Subsystem], work: impl FnOnce()) -> ObsReport {
    let obs = Obs::new();
    let _on = obs.install();
    work();
    let report = obs.report();
    assert_eq!(contract_errors(&report, ran), Vec::<String>::new(), "phase {name}");
    report
}

fn counter(report: &ObsReport, name: &str) -> u64 {
    report.counter(name).unwrap_or_else(|| panic!("counter {name} missing"))
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http_request(addr, "GET", path, None).unwrap()
}

fn post(addr: &str, path: &str, body: &str) -> (u16, String) {
    http_request(addr, "POST", path, Some(body)).unwrap()
}

/// `POST /shutdown`, then join: the report is quiesced when this returns.
fn stop(handle: ServerHandle) {
    assert_eq!(post(&handle.addr().to_string(), "/shutdown", "").0, 200);
    handle.wait_for_stop();
    handle.shutdown().unwrap();
}

fn durable_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        wal_path: Some(dir.join("wal.log")),
        snapshot_dir: Some(dir.join("segments")),
        ..ServerConfig::default()
    }
}

/// The fixture's corpus in two halves: what a server starts with, and
/// what `POST /ingest` sends it as one JSON batch.
fn halves() -> (&'static [Offer], &'static [Offer], String) {
    let corpus = &fixture().corpus;
    let (pre, rest) = corpus.split_at(corpus.len() / 2);
    (pre, rest, serde_json::to_string(&rest.to_vec()).unwrap())
}

#[test]
fn batch_pipeline_and_its_thread_count_independent_learning() {
    let f = fixture();
    // The paper's batch pipeline, every stage, plus the two baselines
    // that seed a metric pair of their own.
    let report = phase("batch", &[Matcher, SoftTfIdf], || {
        let world = World::generate(WorldConfig::tiny());
        let provider = ExtractingProvider::new(|o: &Offer| world.landing_page(o.id));
        let learned = OfflineLearner::new().learn(
            &world.catalog,
            &world.offers,
            &world.historical,
            &provider,
        );
        RuntimePipeline::new(learned.correspondences).process(&world.catalog, &f.corpus, &provider);
        TitleMatcher::new(&world.catalog).bootstrap(&world.offers, |o| provider.spec(o));
        DumasMatcher::new().score_candidates(
            &world.catalog,
            &world.offers,
            &world.historical,
            &provider,
        );
    });
    for stage in ["datagen.", "extract.", "offline.", "runtime."] {
        assert!(report.spans.iter().any(|s| s.path.contains(stage)), "no span covers {stage}*");
    }
    assert_eq!(counter(&report, "datagen.offers"), f.world.offers.len() as u64);
    assert_eq!(counter(&report, "runtime.offers_in"), f.corpus.len() as u64);
    for name in [
        "datagen.pages_rendered",
        "extract.pairs_extracted",
        "offline.candidates",
        "runtime.pairs_discarded_unmapped",
        "runtime.clusters_formed",
        "runtime.values_fused",
        "text.intern.symbols",
    ] {
        assert!(counter(&report, name) > 0, "{name} stayed at zero");
    }
    assert!(!report.timelines.is_empty(), "the pipeline recorded no per-worker timeline");

    // The offline stage's useful-outcomes-to-attempts ratio: every bag pair
    // goes through JS + Jaccard once — at most three per candidate, fewer
    // wherever merchants share a category pair or categories a merchant
    // pair — and the fan-out decides who evaluates it, never how often.
    let evals = [1, 2, 4].map(|threads| {
        let report = phase("offline learning", &[], || {
            let provider = ExtractingProvider::new(|o: &Offer| f.world.landing_page(o.id));
            let (world, learner) = (&f.world, OfflineLearner::new());
            pse_par::with_threads(threads, || {
                learner.learn(&world.catalog, &world.offers, &world.historical, &provider)
            });
        });
        (counter(&report, "offline.similarity_evals"), counter(&report, "offline.candidates"))
    });
    let (similarity_evals, candidates) = evals[0];
    assert!(candidates < similarity_evals && similarity_evals < 3 * candidates, "{evals:?}");
    assert_eq!(evals, [evals[0]; 3], "similarity evaluations depend on the thread count");
}

#[test]
fn persistent_store() {
    let (f, (pre, rest, _)) = (fixture(), halves());
    let catalog = &f.world.catalog;
    // The persistent store alone: ingest, snapshot, ingest, retract.
    let report = phase("store", &[Store], || {
        let mut store = ProductStore::new(f.correspondences.clone());
        store.ingest(catalog, pre, &spec_provider());
        ProductStore::restore_json(&store.snapshot_json()).unwrap();
        store.ingest(catalog, rest, &spec_provider());
        // Retract an offer that certainly routed to a cluster.
        let retractable = store.products()[0].offers[0];
        store.retract(catalog, &[retractable]);
    });
    for span in ["store.ingest", "store.ingest.store.refuse", "store.snapshot", "store.retract"] {
        assert!(report.span(span).is_some(), "missing span {span}");
    }
    assert_eq!(counter(&report, pse_store::metrics::INGEST), f.corpus.len() as u64);
    assert!(counter(&report, pse_store::metrics::CLUSTERS_DIRTY) > 0);
    assert!(counter(&report, pse_store::metrics::REFUSED) > 0);
    assert_eq!(counter(&report, pse_store::metrics::SNAPSHOT), 1);
    assert_eq!(counter(&report, pse_store::metrics::RETRACTED), 1);
}

#[test]
fn volatile_server() {
    let (f, (pre, rest, batch)) = (fixture(), halves());
    let catalog = &f.world.catalog;
    // A volatile server, every route at least once plus the non-routable
    // outcomes, stopped through its own `/shutdown`.
    let report = phase("volatile server", &[Serve, Query, Store], || {
        let store = ShardedStore::new(f.correspondences.clone(), 4);
        store.ingest(catalog, pre, &spec_provider());
        let handle = pse_serve::start(store, catalog.clone(), ServerConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        let p = handle.store().products()[0].clone();
        assert_eq!(get(&addr, "/healthz"), (200, "ok\n".to_string()));
        assert_eq!(post(&addr, "/ingest", &batch).0, 200);
        let lookup = format!("category={}&attr={}", p.category.0, p.key_attribute);
        assert_eq!(get(&addr, &format!("/product?{lookup}&key={}", p.key_value)).0, 200);
        assert_eq!(get(&addr, &format!("/products/{}", p.category.0)).0, 200);
        let (status, body) = get(&addr, "/search?q=usb&k=3");
        assert!(status == 200 && body.contains("\"hits\":"), "no typed envelope: {body}");
        assert_eq!(get(&addr, "/metrics").0, 200);
        let (_, body) = get(&addr, "/debug/requests");
        let recent = serde_json::from_str::<pse_obs::DebugRequests>(&body).unwrap().recent;
        let id = recent.first().expect("the requests above were recorded").id.to_hex();
        let (status, body) = get(&addr, &format!("/debug/trace/{id}"));
        assert!(status == 200 && body.contains("\"spans\":"), "trace {id} unresolved: {body}");
        assert_eq!(post(&addr, "/retract", &format!("[{}]", p.offers[0].0)).0, 200);
        assert_eq!(get(&addr, "/nope").0, 404);
        assert_eq!(http_request(&addr, "PUT", "/healthz", None).unwrap().0, 405);
        stop(handle);
    });
    assert_eq!(counter(&report, pse_serve::metrics::REQUESTS), 12);
    assert_eq!(counter(&report, pse_serve::metrics::HTTP_404), 1);
    assert_eq!(counter(&report, pse_serve::metrics::HTTP_405), 1);
    assert_eq!(counter(&report, pse_serve::metrics::INGEST_OFFERS), rest.len() as u64);
    assert_eq!(counter(&report, pse_query::metrics::REQUESTS), 1);
    for route in pse_serve::routes() {
        assert_eq!(counter(&report, route.metrics.requests), 1, "{}", route.label);
    }
}

/// One test, three phases: they share the durable directory.
#[test]
fn durable_server_then_read_only_recovery_then_recovered_server() {
    let (f, (_, _, batch)) = (fixture(), halves());
    let catalog = &f.world.catalog;
    // A durable server: the same write path with the WAL under it.
    let dir = std::env::temp_dir().join(format!("pse-obs-contract-durable-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let report = phase("durable server", &[Serve, Query, Store, Wal], || {
        let store = ShardedStore::new(f.correspondences.clone(), 4);
        let handle = pse_serve::start(store, catalog.clone(), durable_config(&dir)).unwrap();
        assert_eq!(post(&handle.addr().to_string(), "/ingest", &batch).0, 200);
        stop(handle);
    });
    assert!(counter(&report, pse_wal::metrics::APPEND) > 0);

    // Read-only recovery — the crash drill's oracle — never fsyncs and
    // still reports the whole durability set.
    phase("read-only recovery", &[Wal], || {
        let dcfg = DurabilityConfig {
            wal_path: dir.join("wal.log"),
            snapshot_dir: dir.join("segments"),
            compaction_threshold_bytes: u64::MAX,
            group: Default::default(),
        };
        let fresh = || ProductStore::new(f.correspondences.clone());
        assert!(recover(&dcfg, catalog, fresh).unwrap().is_some());
    });

    // A server recovered from that directory that receives no write: the
    // runtime pipeline and the store's write path never run, and nothing
    // here asks for them.
    let report = phase("recovered server", &[Serve, Query, Wal], || {
        let empty = ShardedStore::new(f.correspondences.clone(), 2);
        let handle = pse_serve::start(empty, catalog.clone(), durable_config(&dir)).unwrap();
        assert!(!handle.store().products().is_empty(), "state came back from disk");
        assert_eq!(get(&handle.addr().to_string(), "/healthz").0, 200);
        stop(handle);
    });
    assert_eq!(report.counter(pse_store::metrics::INGEST).unwrap_or(0), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chunk_flood_and_the_contract_catching_each_breach() {
    let f = fixture();
    let catalog = &f.world.catalog;
    // A long-running server's sink is bounded: past TIMELINE_RETAINED
    // chunks per label the report — and so the `/metrics` body — stops
    // growing, while the call count stays exact.
    let flood = |calls: usize| {
        let _label = pse_obs::span("flood");
        (0..calls).for_each(|_| drop(pse_par::par_map(&[0u8], |x| *x)));
    };
    let good = phase("chunk flood", &[Serve, Query], || {
        let store = ShardedStore::new(f.correspondences.clone(), 1);
        let handle = pse_serve::start(store, catalog.clone(), ServerConfig::default()).unwrap();
        let addr = handle.addr().to_string();
        flood(11 * TIMELINE_RETAINED);
        let before = get(&addr, "/metrics").1;
        flood(11 * TIMELINE_RETAINED);
        let after = get(&addr, "/metrics").1;
        let timeline = |body: &str| {
            let report = ObsReport::from_json(body).unwrap();
            let t = report.timelines.into_iter().find(|t| t.label == "flood").unwrap();
            (t.calls, t.chunks.len())
        };
        assert_eq!(timeline(&before), (11 * TIMELINE_RETAINED as u64, TIMELINE_RETAINED));
        assert_eq!(timeline(&after), (22 * TIMELINE_RETAINED as u64, TIMELINE_RETAINED));
        // The second scrape also shows the first one's spans and
        // histogram buckets; 2,816 more chunk events would be ~300 KB.
        assert!(after.len() < before.len() + 4096, "{} -> {} bytes", before.len(), after.len());
        stop(handle);
    });

    // The contract is not vacuous: each kind of breach is caught.
    let breach = |mutate: &dyn Fn(&mut ObsReport)| {
        let mut report = good.clone();
        mutate(&mut report);
        contract_errors(&report, &[Serve, Query]).join("\n")
    };
    let unseeded = breach(&|r| r.counters.retain(|c| c.name != pse_serve::metrics::HTTP_413));
    assert!(unseeded.contains("Serve ran but did not report serve.http_413"), "{unseeded}");
    let undeclared = breach(&|r| r.counters[0].name = "query.bogus".into());
    assert!(undeclared.contains("query.bogus is reported but no METRICS"), "{undeclared}");
    let unbalanced = breach(&|r| {
        let requests = r.counters.iter_mut().find(|c| c.name == pse_serve::metrics::REQUESTS);
        requests.unwrap().value += 1;
    });
    assert!(unbalanced.contains("not to serve.requests"), "{unbalanced}");
}
