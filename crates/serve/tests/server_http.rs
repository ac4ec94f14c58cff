//! End-to-end exercises of the HTTP layer (ISSUE 5 tentpole, layer 2):
//! lifecycle, every endpoint, robustness (400/404/413, raw-socket
//! garbage), deliberate backpressure 503, and graceful shutdown.

mod common;

use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use common::{fixture, spec_provider};
use pse_serve::{http_request, ServerConfig, ShardedStore};
use pse_store::ProductStore;

fn addr_of(handle: &pse_serve::ServerHandle) -> String {
    handle.addr().to_string()
}

#[test]
fn endpoints_end_to_end() {
    let f = fixture();
    let (first_half, second_half) = f.corpus.split_at(f.corpus.len() / 2);
    let store = ShardedStore::new(f.correspondences.clone(), 4);
    store.ingest(&f.world.catalog, first_half, &spec_provider());
    let handle = pse_serve::start(store, f.world.catalog.clone(), ServerConfig::default())
        .expect("server starts");
    let addr = addr_of(&handle);

    let (status, body) = http_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!((status, body.as_str()), (200, "ok\n"));

    let (status, _) = http_request(&addr, "GET", "/metrics", None).unwrap();
    assert_eq!(status, 200);

    // Ingest the second half over HTTP; the response is IngestStats.
    let batch = serde_json::to_string(&second_half.to_vec()).unwrap();
    let (status, stats) = http_request(&addr, "POST", "/ingest", Some(&batch)).unwrap();
    assert_eq!(status, 200, "ingest failed: {stats}");
    assert!(stats.contains("offers_routed"));

    // The served store must now equal one sequential store over the
    // whole corpus.
    let mut reference = ProductStore::new(f.correspondences.clone());
    reference.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    let expected = reference.products();
    assert_eq!(
        serde_json::to_string(&handle.store().products()).unwrap(),
        serde_json::to_string(&expected).unwrap()
    );

    // Category listing equals the store's own per-category view.
    let category = expected[0].category;
    let (status, listed) =
        http_request(&addr, "GET", &format!("/products/{}", category.0), None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(
        listed,
        serde_json::to_string(&handle.store().products_in_category(category)).unwrap()
    );

    // Point lookup of a known product.
    let p = &expected[0];
    let path =
        format!("/product?category={}&attr={}&key={}", p.category.0, p.key_attribute, p.key_value);
    let (status, got) = http_request(&addr, "GET", &path, None).unwrap();
    assert_eq!(status, 200);
    assert_eq!(got, serde_json::to_string(p).unwrap());

    // Retract that product's offers over HTTP; the lookup 404s after.
    let ids: Vec<u64> = p.offers.iter().map(|o| o.0).collect();
    let (status, _) =
        http_request(&addr, "POST", "/retract", Some(&serde_json::to_string(&ids).unwrap()))
            .unwrap();
    assert_eq!(status, 200);
    let (status, _) = http_request(&addr, "GET", &path, None).unwrap();
    assert_eq!(status, 404);

    // Robustness: 404s, 400s, and 405s, never a dead worker.
    assert_eq!(http_request(&addr, "GET", "/nope", None).unwrap().0, 404);
    assert_eq!(http_request(&addr, "GET", "/products/banana", None).unwrap().0, 400);
    assert_eq!(http_request(&addr, "GET", "/product?category=1", None).unwrap().0, 400);
    assert_eq!(http_request(&addr, "POST", "/ingest", Some("not json")).unwrap().0, 400);
    assert_eq!(http_request(&addr, "PUT", "/healthz", None).unwrap().0, 405);

    // Raw-socket garbage gets a 400, not a hung or panicked worker.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"THIS IS NOT HTTP\r\n\r\n").unwrap();
    drop(raw);

    // The server still answers afterwards.
    assert_eq!(http_request(&addr, "GET", "/healthz", None).unwrap().0, 200);

    handle.shutdown().expect("clean shutdown");
}

#[test]
fn request_size_cap_gives_413() {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 2);
    let config = ServerConfig { max_request_bytes: 512, ..ServerConfig::default() };
    let handle = pse_serve::start(store, f.world.catalog.clone(), config).unwrap();
    let addr = addr_of(&handle);
    let big = "x".repeat(2048);
    let (status, _) = http_request(&addr, "POST", "/ingest", Some(&big)).unwrap();
    assert_eq!(status, 413);
    assert_eq!(http_request(&addr, "GET", "/healthz", None).unwrap().0, 200);
    handle.shutdown().unwrap();
}

/// The documented cap is 1 MiB, and it is a strict boundary: a request
/// totaling exactly `max_request_bytes` is served, one byte more is 413
/// (ISSUE 6 satellite — `ServerConfig::default` used to say 4 MiB while
/// every doc said 1 MiB).
#[test]
fn request_size_cap_boundary_is_exactly_one_mib() {
    const CAP: usize = 1 << 20;
    assert_eq!(ServerConfig::default().max_request_bytes, CAP, "default cap is 1 MiB");

    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 2);
    let handle = pse_serve::start(store, f.world.catalog.clone(), ServerConfig::default()).unwrap();
    let addr = addr_of(&handle);

    let header = |content_length: usize| {
        format!("POST /ingest HTTP/1.1\r\nContent-Length: {content_length}\r\n\r\n")
    };
    // Solve for the body size that makes header + body total exactly CAP
    // (the header length depends on the digits of Content-Length).
    let mut body_len = CAP;
    for _ in 0..4 {
        body_len = CAP - header(body_len).len();
    }
    let exact = header(body_len);
    assert_eq!(exact.len() + body_len, CAP);

    // Exactly at the cap: read fully and dispatched (400: not JSON), not 413.
    let status = raw_roundtrip(&addr, &exact, &vec![b'x'; body_len]);
    assert_eq!(status, 400, "a request of exactly the cap must be served");

    // One byte over: rejected with 413 straight from the header.
    let status = raw_roundtrip(&addr, &header(body_len + 1), b"");
    assert_eq!(status, 413, "one byte past the cap must be 413");

    assert_eq!(http_request(&addr, "GET", "/healthz", None).unwrap().0, 200);
    handle.shutdown().unwrap();
}

/// Write a raw request and return the response status code.
fn raw_roundtrip(addr: &str, header: &str, body: &[u8]) -> u16 {
    use std::io::Read;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(header.as_bytes()).unwrap();
    stream.write_all(body).unwrap();
    let mut reply = Vec::new();
    let _ = stream.read_to_end(&mut reply);
    let text = String::from_utf8_lossy(&reply);
    text.split(' ').nth(1).and_then(|s| s.parse().ok()).expect("response has a status line")
}

/// RFC 7230 §3.3.2 at the socket level (ISSUE 8 satellite): duplicate
/// `Content-Length` headers carrying the same value are fine;
/// conflicting or empty values are 400, never last-wins (the old parser
/// read the body with the last duplicate's length — a request-smuggling
/// shape).
#[test]
fn duplicate_content_length_over_the_wire() {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 1);
    let handle = pse_serve::start(store, f.world.catalog.clone(), ServerConfig::default()).unwrap();
    let addr = addr_of(&handle);

    // Same value twice: the request is read and dispatched (an empty
    // ingest batch is a 200).
    let status = raw_roundtrip(
        &addr,
        "POST /ingest HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n",
        b"[]",
    );
    assert_eq!(status, 200, "duplicate-same Content-Length must be accepted");

    // Conflicting values: 400 regardless of order or casing.
    let status = raw_roundtrip(
        &addr,
        "POST /ingest HTTP/1.1\r\nContent-Length: 2\r\ncontent-length: 3\r\n\r\n",
        b"[]x",
    );
    assert_eq!(status, 400, "conflicting Content-Length must be rejected");
    let status = raw_roundtrip(
        &addr,
        "POST /ingest HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 2\r\n\r\n",
        b"[]x",
    );
    assert_eq!(status, 400, "larger-first conflict must not win either");

    // Empty value: 400.
    let status = raw_roundtrip(&addr, "POST /ingest HTTP/1.1\r\nContent-Length:\r\n\r\n", b"");
    assert_eq!(status, 400, "empty Content-Length must be rejected");

    assert_eq!(http_request(&addr, "GET", "/healthz", None).unwrap().0, 200);
    handle.shutdown().unwrap();
}

#[test]
fn overload_gets_backpressure_503() {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 1);
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        read_timeout: Duration::from_secs(20),
        ..ServerConfig::default()
    };
    let handle = pse_serve::start(store, f.world.catalog.clone(), config).unwrap();
    let addr = addr_of(&handle);

    // Occupy the only worker and the whole queue with connections that
    // send nothing; the next connection must be rejected with 503. The
    // stalls are staggered so the worker dequeues the first before the
    // second lands in the queue slot.
    let stall_a = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let stall_b = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let (status, _) = http_request(&addr, "GET", "/healthz", None).unwrap();
    assert_eq!(status, 503, "queue full must answer 503, not hang");

    // Releasing the stalled connections restores service.
    drop(stall_a);
    drop(stall_b);
    std::thread::sleep(Duration::from_millis(300));
    assert_eq!(http_request(&addr, "GET", "/healthz", None).unwrap().0, 200);
    handle.shutdown().unwrap();
}

#[test]
fn http_shutdown_stops_and_closes_the_port() {
    let f = fixture();
    let store = ShardedStore::new(f.correspondences.clone(), 4);
    store.ingest(&f.world.catalog, &f.corpus, &spec_provider());
    let expected_snapshot = store.snapshot_json();
    let handle = pse_serve::start(store, f.world.catalog.clone(), ServerConfig::default()).unwrap();
    let addr = addr_of(&handle);

    let (status, _) = http_request(&addr, "POST", "/shutdown", None).unwrap();
    assert_eq!(status, 200);
    handle.wait_for_stop();
    let store = handle.shutdown().expect("clean shutdown");
    assert_eq!(store.snapshot_json(), expected_snapshot, "shutdown hands the store back intact");

    // The port actually closed.
    assert!(http_request(&addr, "GET", "/healthz", None).is_err());
}
