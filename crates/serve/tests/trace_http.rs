//! Request tracing over real sockets: the `/debug/*` endpoints, trace-id
//! adoption from `X-Pse-Trace-Id`, and the tracing half of the
//! determinism contract (observability on vs off is byte-identical on
//! product endpoints).
//!
//! Lives in its own integration-test binary because every test toggles
//! the process-global observability flag; they serialize on a local lock
//! so cargo's parallel harness cannot interleave them.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};

use common::{fixture, spec_provider, Fixture};
use pse_obs::{DebugRequests, RecorderConfig, RequestTrace, TraceId};
use pse_serve::{http_request, ServerConfig, ShardedStore};
use serde::Deserialize;

static TEST_LOCK: Mutex<()> = Mutex::new(());

fn obs_session() -> MutexGuard<'static, ()> {
    let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    pse_obs::reset();
    pse_obs::set_enabled(true);
    guard
}

fn end_session() {
    pse_obs::set_enabled(false);
    pse_obs::reset();
}

fn started_server(f: &Fixture, recorder: RecorderConfig) -> (pse_serve::ServerHandle, String) {
    let store = ShardedStore::new(f.correspondences.clone(), 2);
    store.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    let config = ServerConfig { recorder, ..ServerConfig::default() };
    let handle = pse_serve::start(store, f.world.catalog.clone(), config).expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

/// The acceptance-criterion test: after driving traffic, `/debug/requests`
/// returns the slowest in-window request with a span tree whose per-stage
/// (same-depth) durations sum to at most the request total; known ids
/// resolve via `/debug/trace/{id}`, unknown ids 404, bad ids 400.
#[test]
fn debug_endpoints_expose_slowest_span_trees() {
    let _g = obs_session();
    let f = fixture();
    // Threshold 0: every request is "slow", so the slow set sees all four
    // and the sortedness/eviction logic is exercised end to end.
    let (handle, addr) = started_server(
        f,
        RecorderConfig { recent_capacity: 16, slow_capacity: 8, slow_threshold_ns: 0 },
    );

    let p = &handle.store().products()[0];
    assert_eq!(http_request(&addr, "GET", "/healthz", None).unwrap().0, 200);
    assert_eq!(
        http_request(&addr, "GET", &format!("/products/{}", p.category.0), None).unwrap().0,
        200
    );
    let lookup =
        format!("/product?category={}&attr={}&key={}", p.category.0, p.key_attribute, p.key_value);
    assert_eq!(http_request(&addr, "GET", &lookup, None).unwrap().0, 200);
    assert_eq!(http_request(&addr, "GET", "/nope", None).unwrap().0, 404);

    let (status, body) = http_request(&addr, "GET", "/debug/requests", None).unwrap();
    assert_eq!(status, 200);
    let dbg = DebugRequests::from_value(&serde_json::from_str(&body).expect("valid JSON")).unwrap();
    assert_eq!(dbg.recorded, 4, "one trace per handled request");
    assert_eq!(dbg.rotated_out, 0);
    assert_eq!(dbg.recent.len(), 4);
    assert_eq!(dbg.slowest.len(), 4, "threshold 0 admits everything");
    let labels: Vec<&str> = dbg.recent.iter().map(|t| t.endpoint.as_str()).collect();
    assert_eq!(labels, ["other", "product", "products", "healthz"], "most recent first");

    // The slow set is sorted slowest-first and its head is the in-window
    // maximum.
    let max_total = dbg.slowest.iter().map(|t| t.total_ns).max().unwrap();
    assert_eq!(dbg.slowest[0].total_ns, max_total);
    assert!(dbg.slowest.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));

    // Every slow entry carries a span tree; all GET traffic here is
    // single-threaded, so same-depth spans are disjoint intervals and
    // their durations sum to at most the request total.
    for t in &dbg.slowest {
        assert!(!t.spans.is_empty(), "slow entries carry full span trees");
        assert!(t.spans.iter().all(|s| s.path.starts_with("serve.request")));
        assert!(t.spans.iter().any(|s| s.path == "serve.request.parse"));
        assert!(t.spans.iter().any(|s| s.path == "serve.request.write"));
        let depths: Vec<u64> = t.spans.iter().map(|s| s.depth).collect();
        for depth in depths {
            let stage_sum: u64 =
                t.spans.iter().filter(|s| s.depth == depth).map(|s| s.dur_ns).sum();
            assert!(
                stage_sum <= t.total_ns,
                "depth-{depth} stages of {} sum to {stage_sum}ns > total {}ns",
                t.endpoint,
                t.total_ns
            );
        }
    }
    // The products trace descends into the cache probe.
    let products = dbg.slowest.iter().find(|t| t.endpoint == "products").unwrap();
    assert!(products.spans.iter().any(|s| s.path == "serve.request.products.cache_probe"));

    // A recent id resolves to the full trace; unknown 404s; bad hex 400s.
    let id = dbg.recent[0].id;
    let (status, body) =
        http_request(&addr, "GET", &format!("/debug/trace/{}", id.to_hex()), None).unwrap();
    assert_eq!(status, 200);
    let full = RequestTrace::from_value(&serde_json::from_str(&body).unwrap()).unwrap();
    assert_eq!(full.id, id);
    assert_eq!(full.endpoint, "other");
    let miss = TraceId(!dbg.recent.iter().fold(0, |acc, t| acc | t.id.0));
    let path = format!("/debug/trace/{}", miss.to_hex());
    if dbg.recent.iter().all(|t| t.id != miss) {
        assert_eq!(http_request(&addr, "GET", &path, None).unwrap().0, 404);
    }
    assert_eq!(http_request(&addr, "GET", "/debug/trace/not-hex", None).unwrap().0, 400);
    assert_eq!(http_request(&addr, "GET", "/debug/trace/00112233445566778", None).unwrap().0, 400);

    handle.shutdown().unwrap();
    end_session();
}

/// A client-supplied `X-Pse-Trace-Id` (any casing) becomes the request's
/// identity, resolvable at `/debug/trace/{id}` afterwards.
#[test]
fn trace_header_id_is_adopted() {
    let _g = obs_session();
    let f = fixture();
    let (handle, addr) = started_server(
        f,
        RecorderConfig { recent_capacity: 16, slow_capacity: 4, slow_threshold_ns: u64::MAX },
    );

    // `http_request` sends no custom headers, so write the raw bytes.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\nx-PSE-Trace-ID: DEADbeef00000001\r\n\r\n").unwrap();
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    assert!(reply.starts_with(b"HTTP/1.1 200"), "healthz served with the header present");
    drop(stream);

    let (status, body) = http_request(&addr, "GET", "/debug/trace/deadbeef00000001", None).unwrap();
    assert_eq!(status, 200, "client-supplied id is the trace identity");
    let full = RequestTrace::from_value(&serde_json::from_str(&body).unwrap()).unwrap();
    assert_eq!(full.id, TraceId(0xdead_beef_0000_0001));
    assert_eq!((full.endpoint.as_str(), full.status), ("healthz", 200));

    // And an error under an adopted id carries that id in its envelope,
    // so the trace behind any failure is one `/debug/trace/{id}` away.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"GET /nope HTTP/1.1\r\nX-Pse-Trace-Id: deadbeef00000002\r\n\r\n").unwrap();
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 404"), "unknown path is 404: {text}");
    assert!(
        text.contains("\"trace_id\":\"deadbeef00000002\""),
        "error envelope carries the adopted trace id: {text}"
    );

    handle.shutdown().unwrap();
    end_session();
}

/// The tracing half of the determinism contract, pinned over real
/// sockets: turning observability (tracing + endpoint histograms + the
/// flight recorder) on changes no response byte on product endpoints.
/// The one sanctioned exception is the error envelope's `trace_id`
/// field, which exists precisely to surface the trace — it is
/// normalized out before comparing.
fn blank_trace_id(body: &str) -> String {
    match body.find("\"trace_id\":\"") {
        None => body.to_string(),
        Some(start) => {
            let value_start = start + "\"trace_id\":\"".len();
            let value_end = value_start + body[value_start..].find('"').unwrap();
            format!("{}{}", &body[..value_start], &body[value_end..])
        }
    }
}

#[test]
fn tracing_does_not_change_product_bytes() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    pse_obs::set_enabled(false);
    pse_obs::reset();
    let f = fixture();
    let (handle, addr) = started_server(f, RecorderConfig::default());
    let p = &handle.store().products()[0];
    let paths = [
        "/healthz".to_string(),
        format!("/products/{}", p.category.0),
        format!("/products/{}", u32::MAX), // empty category
        "/products/banana".to_string(),    // 400
        format!("/product?category={}&attr={}&key={}", p.category.0, p.key_attribute, p.key_value),
        "/product?category=1".to_string(), // 400
        "/nope".to_string(),               // 404
    ];

    let fetch = |path: &String| {
        let (status, body) = http_request(&addr, "GET", path, None).unwrap();
        (status, blank_trace_id(&body))
    };
    let off: Vec<(u16, String)> = paths.iter().map(fetch).collect();
    pse_obs::set_enabled(true);
    let on: Vec<(u16, String)> = paths.iter().map(fetch).collect();
    end_session();

    for ((path, off), on) in paths.iter().zip(&off).zip(&on) {
        assert_eq!(off, on, "observability changed the response for {path}");
    }
    handle.shutdown().unwrap();
}
