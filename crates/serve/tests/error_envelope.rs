//! The unified JSON error envelope (ISSUE 10 satellite): every error
//! response from every endpoint is
//! `{"error": {"code", "message", "trace_id"}}`, pinned over real
//! sockets for 400, 404, 405, 413, and 503 — plus the `/products/` and
//! `/debug/trace/` trailing-slash fallthroughs that used to leak into
//! the wrong handler and now 404 cleanly.
//!
//! Observability stays OFF in this binary, so `trace_id` is pinned to
//! the empty string (the envelope shape never changes); the traced
//! variant is covered in `trace_http.rs` where the obs lock lives.

mod common;

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use common::{fixture, spec_provider};
use pse_serve::{http_request, ServerConfig, ShardedStore};

fn started_server(shards: usize, config: ServerConfig) -> (pse_serve::ServerHandle, String) {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), shards);
    store.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    let handle = pse_serve::start(store, f.world.catalog.clone(), config).expect("server starts");
    let addr = handle.addr().to_string();
    (handle, addr)
}

fn envelope(code: &str, message: &str) -> String {
    format!("{{\"error\":{{\"code\":\"{code}\",\"message\":\"{message}\",\"trace_id\":\"\"}}}}")
}

/// Parse an envelope body, returning (code, message, trace_id). Panics
/// if the body is not exactly the envelope shape.
fn parse_envelope(body: &str) -> (String, String, String) {
    let v: serde::Value = serde_json::from_str(body).expect("error body is JSON");
    let serde::Value::Object(top) = &v else { panic!("top level is an object: {body}") };
    assert_eq!(top.len(), 1, "top level has only the error key: {body}");
    let serde::Value::Object(error) = v.get("error").expect("has error key") else {
        panic!("error is an object: {body}")
    };
    assert_eq!(error.len(), 3, "error has exactly code/message/trace_id: {body}");
    let field = |name: &str| match v.get("error").unwrap().get(name) {
        Some(serde::Value::Str(s)) => s.clone(),
        other => panic!("{name} must be a string, got {other:?}"),
    };
    (field("code"), field("message"), field("trace_id"))
}

/// Every handler-level and router-level failure carries the envelope,
/// byte-pinned (trace_id is "" with observability off).
#[test]
fn envelope_is_pinned_for_400_404_405() {
    let (handle, addr) = started_server(2, ServerConfig::default());

    // 400: a typed-path param that fails to parse.
    let (status, body) = http_request(&addr, "GET", "/products/banana", None).unwrap();
    assert_eq!(
        (status, body.as_str()),
        (400, envelope("bad_request", "category must be an integer, got \\\"banana\\\"").as_str())
    );

    // 400: missing query params on /product and /search.
    let (status, body) = http_request(&addr, "GET", "/product?category=1", None).unwrap();
    assert_eq!(
        (status, body.as_str()),
        (400, envelope("bad_request", "need category=<id>&attr=<name>&key=<value>").as_str())
    );
    let (status, body) = http_request(&addr, "GET", "/search", None).unwrap();
    assert_eq!(
        (status, body.as_str()),
        (400, envelope("bad_request", "need q=<free-text query>").as_str())
    );

    // 400: a POST body that is not JSON.
    let (status, body) = http_request(&addr, "POST", "/ingest", Some("not json")).unwrap();
    assert_eq!(status, 400);
    let (code, _, _) = parse_envelope(&body);
    assert_eq!(code, "bad_request");

    // 404: unknown path, and a known path with a missing resource.
    let (status, body) = http_request(&addr, "GET", "/nope", None).unwrap();
    assert_eq!((status, body.as_str()), (404, envelope("not_found", "no such endpoint").as_str()));
    let (status, body) =
        http_request(&addr, "GET", "/product?category=4096&attr=x&key=y", None).unwrap();
    assert_eq!((status, body.as_str()), (404, envelope("not_found", "no such product").as_str()));

    // 405: non-GET/POST methods, regardless of path.
    for path in ["/healthz", "/ingest", "/never-heard-of-it"] {
        let (status, body) = http_request(&addr, "PUT", path, None).unwrap();
        assert_eq!(
            (status, body.as_str()),
            (405, envelope("method_not_allowed", "method not allowed").as_str()),
            "PUT {path}"
        );
    }

    // Wrong method on a known path stays 404 (the pre-router contract:
    // only unknown METHODS are 405).
    let (status, body) = http_request(&addr, "POST", "/healthz", None).unwrap();
    assert_eq!((status, body.as_str()), (404, envelope("not_found", "no such endpoint").as_str()));

    handle.shutdown().unwrap();
}

/// The trailing-slash fallthrough regression (ISSUE 10 satellite):
/// `GET /products/` used to reach the category handler with an empty
/// param and answer as if asked a question; `GET /debug/trace/` did the
/// same. A `{param}` segment never matches an empty segment, so both
/// are clean 404s now.
#[test]
fn trailing_slash_paths_are_404_not_fallthrough() {
    let (handle, addr) = started_server(2, ServerConfig::default());

    for path in ["/products/", "/products", "/debug/trace/", "/debug/trace", "/products/1/2"] {
        let (status, body) = http_request(&addr, "GET", path, None).unwrap();
        assert_eq!(
            (status, body.as_str()),
            (404, envelope("not_found", "no such endpoint").as_str()),
            "GET {path}"
        );
    }

    handle.shutdown().unwrap();
}

/// The parse-layer failures carry the envelope too: an oversized
/// request is a 413 with the store's stable code, and a request that is
/// not HTTP at all is a 400.
#[test]
fn envelope_covers_413_and_unparseable_requests() {
    let config = ServerConfig { max_request_bytes: 512, ..ServerConfig::default() };
    let (handle, addr) = started_server(2, config);

    let big = "x".repeat(2048);
    let (status, body) = http_request(&addr, "POST", "/ingest", Some(&big)).unwrap();
    assert_eq!(status, 413);
    let (code, message, trace_id) = parse_envelope(&body);
    assert_eq!(code, "request_too_large");
    assert!(message.contains("512"), "message names the cap: {message}");
    assert_eq!(trace_id, "");

    // Raw-socket garbage: still the envelope, still a live worker.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    let _ = raw.shutdown(std::net::Shutdown::Write);
    let mut reply = Vec::new();
    let _ = raw.read_to_end(&mut reply);
    let text = String::from_utf8_lossy(&reply);
    assert!(text.starts_with("HTTP/1.1 400"), "garbage gets 400: {text}");
    let json = &text[text.find("\r\n\r\n").unwrap() + 4..];
    let (code, _, _) = parse_envelope(json);
    assert_eq!(code, "bad_request");

    assert_eq!(http_request(&addr, "GET", "/healthz", None).unwrap().0, 200);
    handle.shutdown().unwrap();
}

/// Backpressure is enveloped too: the accept loop's direct 503 carries
/// `{"error":{"code":"overloaded",...}}` (with an empty trace id — no
/// request was read, so there is nothing to trace).
#[test]
fn envelope_covers_accept_queue_503() {
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(20),
        ..ServerConfig::default()
    };
    let (handle, addr) = started_server(1, config);

    let stall_a = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let stall_b = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let (status, body) = http_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(
        (status, body.as_str()),
        (503, envelope("overloaded", "accept queue full").as_str())
    );

    drop(stall_a);
    drop(stall_b);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(http_request(&addr, "GET", "/healthz", None).unwrap().0, 200);
    handle.shutdown().unwrap();
}
