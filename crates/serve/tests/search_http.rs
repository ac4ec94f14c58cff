//! `GET /search` over real sockets (ISSUE 10 tentpole): ranked hits
//! with resolved constraints echoed, byte-identical bodies at every
//! shard count, and an index that follows ingest through the same
//! snapshot publish that refreshes the response cache.

mod common;

use common::{fixture, spec_provider};
use pse_core::Offer;
use pse_serve::{http_request, ServerConfig, ShardedStore};

fn started_server(shards: usize, corpus: &[Offer]) -> (pse_serve::ServerHandle, String) {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), shards);
    store.ingest(&f.world.catalog, corpus, &spec_provider());
    let handle = pse_serve::start(store, f.world.catalog.clone(), ServerConfig::default())
        .expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// Conservative query-string encoding: every non-unreserved byte as %XX.
fn encode(s: &str) -> String {
    let mut out = String::new();
    for &b in s.as_bytes() {
        match b {
            b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'_' | b'.' | b'~' => {
                out.push(b as char)
            }
            _ => out.push_str(&format!("%{b:02X}")),
        }
    }
    out
}

fn get_search(addr: &str, q: &str, k: Option<usize>) -> (u16, String) {
    let mut path = format!("/search?q={}", encode(q));
    if let Some(k) = k {
        path.push_str(&format!("&k={k}"));
    }
    http_request(addr, "GET", &path, None).unwrap()
}

/// A query mix drawn from the corpus itself plus off-corpus noise, so
/// the byte-identity sweep covers constraint hits, free-text-only hits,
/// the no-category fallback, and empty results.
fn query_mix() -> Vec<String> {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 1);
    store.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    let products = store.products();
    assert!(!products.is_empty(), "fixture synthesizes products");
    let mut queries = Vec::new();
    for p in products.iter().take(6) {
        queries.push(p.key_value.clone());
        if let Some(av) = p
            .spec
            .iter()
            .find(|av| !av.value.is_empty() && (1..=3).contains(&pse_text::tokens(&av.value).len()))
        {
            queries.push(format!("{} {}", p.key_value, av.value));
            queries.push(av.value.clone());
        }
    }
    queries.push("zzz qqq xxyyzz".to_string());
    queries.push("the".to_string());
    queries
}

#[test]
fn search_returns_ranked_hits_with_constraints() {
    let f = fixture();
    let (handle, addr) = started_server(4, &f.corpus);
    let products = handle.store().products();
    let p = &products[0];

    // Query by the product's key value: the product must be among the
    // hits, and the body must be exactly what the engine computes.
    let (status, body) = get_search(&addr, &p.key_value, Some(10));
    assert_eq!(status, 200, "search failed: {body}");
    let key_json = serde_json::to_string(&p.key_value).unwrap();
    assert!(
        body.contains(&format!("\"key_value\":{key_json}")),
        "hits include the queried product: {body}"
    );
    for field in ["\"category\":", "\"constraints\":", "\"hits\":", "\"matched\":", "\"score\":"] {
        assert!(body.contains(field), "body carries {field}: {body}");
    }

    // A query that is a known attribute value resolves to an exact
    // constraint, echoed with its phrase.
    if let Some(av) = p
        .spec
        .iter()
        .find(|av| !av.value.is_empty() && (1..=3).contains(&pse_text::tokens(&av.value).len()))
    {
        let (status, body) = get_search(&addr, &av.value, Some(10));
        assert_eq!(status, 200);
        assert!(
            body.contains("\"exact\":true"),
            "a verbatim spec value resolves exactly: q={:?} body={body}",
            av.value
        );
    }

    // k caps the hit count.
    let (status, body) = get_search(&addr, &p.key_value, Some(1));
    assert_eq!(status, 200);
    assert_eq!(body.matches("\"matched\":").count(), 1, "k=1 returns one hit: {body}");

    // Bad k values are envelope 400s.
    assert_eq!(get_search(&addr, "x", Some(0)).0, 400);
    assert_eq!(http_request(&addr, "GET", "/search?q=x&k=banana", None).unwrap().0, 400);

    // An off-corpus query is an empty result, not an error.
    let (status, body) = get_search(&addr, "zzz qqq xxyyzz", None);
    assert_eq!(status, 200);
    assert!(body.ends_with("\"hits\":[]}"), "no hits for garbage: {body}");

    handle.shutdown().unwrap();
}

/// The determinism half of the acceptance criteria: the same corpus
/// behind 1, 2, 4, and 8 shards answers every query in the mix with
/// byte-identical bodies (the per-category index is built from the
/// merged, cluster-key-sorted entries, so shard layout cannot leak).
#[test]
fn search_bytes_identical_across_shard_counts() {
    let f = fixture();
    let queries = query_mix();

    let answers = |shards: usize| -> Vec<(u16, String)> {
        let (handle, addr) = started_server(shards, &f.corpus);
        let out = queries.iter().map(|q| get_search(&addr, q, Some(10))).collect();
        handle.shutdown().unwrap();
        out
    };

    let reference = answers(1);
    assert!(
        reference.iter().any(|(status, body)| *status == 200 && !body.ends_with("\"hits\":[]}")),
        "the query mix produces at least one non-empty result"
    );
    for shards in [2, 4, 8] {
        let got = answers(shards);
        for (q, (want, have)) in queries.iter().zip(reference.iter().zip(&got)) {
            assert_eq!(want, have, "shards={shards} diverged on q={q:?}");
        }
    }
}

/// The index follows writes: a product absent from the initial corpus
/// becomes searchable after its offers arrive via `POST /ingest`, and
/// unsearchable again after `POST /retract` — both through the same
/// atomic snapshot publish the response cache rides.
#[test]
fn search_index_follows_ingest_and_retract() {
    let f = fixture();
    let (first_half, second_half) = f.corpus.split_at(f.corpus.len() / 2);
    let (handle, addr) = started_server(4, first_half);

    // A product that only exists once the second half lands.
    let full_store = ShardedStore::new(f.correspondences.clone(), 1);
    full_store.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    let before: Vec<String> =
        handle.store().products().iter().map(|p| p.key_value.clone()).collect();
    let Some(new_product) =
        full_store.products().into_iter().find(|p| !before.contains(&p.key_value))
    else {
        // The corpus split did not create a new key; nothing to assert.
        handle.shutdown().unwrap();
        return;
    };

    let hit_marker =
        format!("\"key_value\":{}", serde_json::to_string(&new_product.key_value).unwrap());
    let (status, body) = get_search(&addr, &new_product.key_value, Some(50));
    assert_eq!(status, 200);
    assert!(!body.contains(&hit_marker), "not yet ingested, not yet searchable: {body}");

    let batch = serde_json::to_string(&second_half.to_vec()).unwrap();
    let (status, stats) = http_request(&addr, "POST", "/ingest", Some(&batch)).unwrap();
    assert_eq!(status, 200, "ingest failed: {stats}");

    let (status, body) = get_search(&addr, &new_product.key_value, Some(50));
    assert_eq!(status, 200);
    assert!(body.contains(&hit_marker), "ingested, so searchable: {body}");

    let ids: Vec<u64> = new_product.offers.iter().map(|o| o.0).collect();
    let (status, _) =
        http_request(&addr, "POST", "/retract", Some(&serde_json::to_string(&ids).unwrap()))
            .unwrap();
    assert_eq!(status, 200);
    let (status, body) = get_search(&addr, &new_product.key_value, Some(50));
    assert_eq!(status, 200);
    assert!(!body.contains(&hit_marker), "retracted, so unsearchable again: {body}");

    handle.shutdown().unwrap();
}
