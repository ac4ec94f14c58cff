//! Request tracing over real sockets: the `/debug/*` endpoints, trace-id
//! adoption from `X-Pse-Trace-Id`, the tracing half of the determinism
//! contract (an observed server answers product endpoints byte-identically
//! to an unobserved one), and servers in one process observed apart.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;

use common::{fixture, spec_provider, Fixture};
use pse_obs::{DebugRequests, Obs, ObsReport, RecorderConfig, RequestTrace, TraceId};
use pse_serve::{http_request, ServerConfig, ServerHandle, ShardedStore};
use serde::Deserialize;

/// A server over the fixture's corpus, observed by `obs` when one is given.
fn started_server(
    f: &Fixture,
    recorder: RecorderConfig,
    obs: Option<&Obs>,
) -> (ServerHandle, String) {
    let _on = obs.map(Obs::install);
    let store = ShardedStore::new(f.correspondences.clone(), 2);
    store.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    let config = ServerConfig { recorder, ..ServerConfig::default() };
    let handle = pse_serve::start(store, f.world.catalog.clone(), config).expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn get(addr: &str, path: &str) -> (u16, String) {
    http_request(addr, "GET", path, None).unwrap()
}

/// The acceptance-criterion test: after driving traffic, `/debug/requests`
/// returns the slowest in-window request with a span tree whose per-stage
/// (same-depth) durations sum to at most the request total; known ids
/// resolve via `/debug/trace/{id}`, unknown ids 404, bad ids 400.
#[test]
fn debug_endpoints_expose_slowest_span_trees() {
    // Threshold 0: every request is "slow", so the slow set sees all four
    // and the sortedness/eviction logic is exercised end to end.
    let (handle, addr) = started_server(
        fixture(),
        RecorderConfig { recent_capacity: 16, slow_capacity: 8, slow_threshold_ns: 0 },
        Some(&Obs::new()),
    );

    let p = &handle.store().products()[0];
    assert_eq!(get(&addr, "/healthz").0, 200);
    assert_eq!(get(&addr, &format!("/products/{}", p.category.0)).0, 200);
    let lookup =
        format!("/product?category={}&attr={}&key={}", p.category.0, p.key_attribute, p.key_value);
    assert_eq!(get(&addr, &lookup).0, 200);
    assert_eq!(get(&addr, "/nope").0, 404);

    let (status, body) = get(&addr, "/debug/requests");
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
        // The request's envelope span is part of its own trace: the one
        // depth-1 span, enclosing every other.
        let envelope: Vec<_> = t.spans.iter().filter(|s| s.depth == 1).collect();
        assert_eq!(envelope.len(), 1, "one envelope span in {}", t.endpoint);
        let envelope = envelope[0];
        assert_eq!(envelope.path, "serve.request");
        let (start, end) = (envelope.start_ns, envelope.start_ns + envelope.dur_ns);
        assert!(t.spans.iter().all(|s| s.start_ns >= start && s.start_ns + s.dur_ns <= end));
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
    let (status, body) = get(&addr, &format!("/debug/trace/{}", id.to_hex()));
    assert_eq!(status, 200);
    let full = RequestTrace::from_value(&serde_json::from_str(&body).unwrap()).unwrap();
    assert_eq!(full.id, id);
    assert_eq!(full.endpoint, "other");
    let miss = TraceId(!dbg.recent.iter().fold(0, |acc, t| acc | t.id.0));
    let path = format!("/debug/trace/{}", miss.to_hex());
    if dbg.recent.iter().all(|t| t.id != miss) {
        assert_eq!(get(&addr, &path).0, 404);
    }
    assert_eq!(get(&addr, "/debug/trace/not-hex").0, 400);
    assert_eq!(get(&addr, "/debug/trace/00112233445566778").0, 400);

    handle.shutdown().unwrap();
}

/// A client-supplied `X-Pse-Trace-Id` (any casing) becomes the request's
/// identity, resolvable at `/debug/trace/{id}` afterwards.
#[test]
fn trace_header_id_is_adopted() {
    let (handle, addr) = started_server(
        fixture(),
        RecorderConfig { recent_capacity: 16, slow_capacity: 4, slow_threshold_ns: u64::MAX },
        Some(&Obs::new()),
    );

    // `http_request` sends no custom headers, so write the raw bytes.
    let mut stream = TcpStream::connect(&addr).unwrap();
    stream.write_all(b"GET /healthz HTTP/1.1\r\nx-PSE-Trace-ID: DEADbeef00000001\r\n\r\n").unwrap();
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    assert!(reply.starts_with(b"HTTP/1.1 200"), "healthz served with the header present");
    drop(stream);

    let (status, body) = get(&addr, "/debug/trace/deadbeef00000001");
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
}

/// The tracing half of the determinism contract, pinned over real
/// sockets: an observed server (tracing + endpoint histograms + the
/// flight recorder) answers product endpoints with the same bytes as an
/// unobserved one. The one sanctioned exception is the error envelope's
/// `trace_id` field, which exists precisely to surface the trace — it is
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
    let f = fixture();
    let (plain, plain_addr) = started_server(f, RecorderConfig::default(), None);
    let (observed, observed_addr) = started_server(f, RecorderConfig::default(), Some(&Obs::new()));
    let p = &plain.store().products()[0];
    let paths = [
        "/healthz".to_string(),
        format!("/products/{}", p.category.0),
        format!("/products/{}", u32::MAX), // empty category
        "/products/banana".to_string(),    // 400
        format!("/product?category={}&attr={}&key={}", p.category.0, p.key_attribute, p.key_value),
        "/product?category=1".to_string(), // 400
        "/nope".to_string(),               // 404
    ];
    for path in &paths {
        let [off, on] = [&plain_addr, &observed_addr].map(|addr| {
            let (status, body) = get(addr, path);
            (status, blank_trace_id(&body))
        });
        assert_eq!(off, on, "observability changed the response for {path}");
    }
    plain.shutdown().unwrap();
    observed.shutdown().unwrap();
}

/// Servers in one process are observed apart: each `/metrics` counts only
/// the requests its own server handled, and a server started without an
/// `Obs` serves the empty, disabled report.
#[test]
fn each_server_reports_only_its_own_obs() {
    let f = fixture();
    let (a, b) = (Obs::new(), Obs::new());
    let (server_a, addr_a) = started_server(f, RecorderConfig::default(), Some(&a));
    let (server_b, addr_b) = started_server(f, RecorderConfig::default(), Some(&b));
    let (server_c, addr_c) = started_server(f, RecorderConfig::default(), None);
    for (addr, healthz) in [(&addr_a, 3), (&addr_b, 1), (&addr_c, 2)] {
        (0..healthz).for_each(|_| assert_eq!(get(addr, "/healthz").0, 200));
    }
    for (addr, healthz) in [(&addr_a, 3), (&addr_b, 1)] {
        let report = ObsReport::from_json(&get(addr, "/metrics").1).unwrap();
        // The scrape counts itself at request start, its endpoint trio
        // only once it is answered.
        assert_eq!(report.counter(pse_serve::metrics::REQUESTS), Some(healthz + 1), "{addr}");
        let m = pse_serve::routes().find(|r| r.label == "healthz").unwrap().metrics;
        let us = report.histograms.iter().find(|h| h.name == m.us).map(|h| h.count);
        let trio = (report.counter(m.requests), report.counter(m.errors), us);
        assert_eq!(trio, (Some(healthz), Some(0), Some(healthz)), "{addr}");
    }
    let off = ObsReport { schema_version: pse_obs::SCHEMA_VERSION, ..ObsReport::default() };
    assert_eq!(get(&addr_c, "/metrics"), (200, off.to_json()));
    for server in [server_a, server_b, server_c] {
        server.shutdown().unwrap();
    }
    assert_eq!(a.report().counter(pse_serve::metrics::REQUESTS), Some(4));
    assert_eq!(b.report().counter(pse_serve::metrics::REQUESTS), Some(2));
}
