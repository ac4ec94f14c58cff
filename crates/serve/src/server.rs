//! The HTTP front: a fixed worker pool over a bounded accept queue.
//!
//! One acceptor thread pushes connections into an `mpsc::sync_channel`
//! whose capacity is the backpressure bound — when the queue is full the
//! acceptor answers `503 Service Unavailable` directly instead of letting
//! latency grow without bound. Workers pull connections, parse one
//! request each (`Connection: close`), and dispatch; a panicking handler
//! is caught and turned into a 500, never a dead worker. There is no
//! other thread: a write that grows the WAL past its threshold folds it.
//!
//! Shutdown (via [`ServerHandle::shutdown`] or `POST /shutdown`) stops
//! the acceptor, lets the workers drain every queued connection and
//! joins all threads; a durable server then folds its WAL into segments
//! one last time, so the next start replays an empty tail.

use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pse_core::{Catalog, CategoryId, Offer, OfferId};
use pse_obs::{FlightRecorder, Obs, ObsReport, RecorderConfig, RequestTraceGuard, TraceId};
use pse_synthesis::runtime::normalize_key;
use pse_synthesis::FnProvider;
use pse_wal::DurabilityConfig;

use crate::durable::{durable_ingest, durable_retract, durable_snapshot, open_durable, DurableCtx};
use crate::error::ServeError;
use crate::http::{read_request, write_response, Body, Request};
use crate::metrics;
use crate::router::{EndpointMetrics, Method, Params, Query, Route, RouteOutcome, Router, Seg};
use crate::shard::ShardedStore;

/// Server knobs. `addr` of `"127.0.0.1:0"` binds an ephemeral port —
/// read the real one from [`ServerHandle::addr`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address.
    pub addr: String,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded accept-queue depth; connections beyond it get 503.
    pub queue_depth: usize,
    /// Per-connection read timeout.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Cap on request size (header + body); larger requests get 413.
    /// Defaults to 1 MiB (the documented cap).
    pub max_request_bytes: usize,
    /// Write-ahead log file. Durability is on when this *and*
    /// `snapshot_dir` are both set: every ingest/retract is logged and
    /// fsynced before it is applied, and startup recovers from
    /// segments + WAL (disk state wins over the store passed to
    /// [`start`]). Setting only one of the two is a
    /// [`ServeError::BadConfig`], not a volatile server.
    pub wal_path: Option<PathBuf>,
    /// Directory for segmented binary snapshots (manifest + one segment
    /// per shard). See `wal_path`.
    pub snapshot_dir: Option<PathBuf>,
    /// Fold the WAL into fresh segments once it holds more than this many
    /// record bytes: the commit whose record crosses it folds before it
    /// answers.
    pub compaction_threshold_bytes: u64,
    /// Flight-recorder sizing: the rotating recent window and the
    /// always-keep-slowest tail-sampling set behind `GET /debug/requests`.
    pub recorder: RecorderConfig,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            max_request_bytes: 1 << 20,
            wal_path: None,
            snapshot_dir: None,
            compaction_threshold_bytes: 8 << 20,
            recorder: RecorderConfig::default(),
        }
    }
}

struct Inner {
    store: ShardedStore,
    catalog: Catalog,
    config: ServerConfig,
    stop: AtomicBool,
    queue_depth: AtomicUsize,
    addr: SocketAddr,
    recorder: FlightRecorder,
    /// The durable write path when WAL + snapshot dir are configured
    /// (lock order: see the `durable` module docs).
    durability: Option<DurableCtx>,
    /// What the [`start`] caller had installed; every server thread
    /// records into it, and `GET /metrics` reports it.
    obs: Option<Obs>,
}

/// A running server. Dropping the handle does NOT stop the server; call
/// [`ServerHandle::shutdown`].
pub struct ServerHandle {
    inner: Arc<Inner>,
    acceptor: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

/// Start serving `store` (with `catalog` supplying schemas for ingest
/// re-fusion) on `config.addr`.
pub fn start(
    store: ShardedStore,
    catalog: Catalog,
    config: ServerConfig,
) -> Result<ServerHandle, ServeError> {
    // Half a durability config must not start a volatile server.
    if config.wal_path.is_some() != config.snapshot_dir.is_some() {
        return Err(ServeError::BadConfig(
            "durability needs both `wal_path` and `snapshot_dir`; only one is set".to_string(),
        ));
    }
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    // Seed everything the record path can emit, so the metric set in a
    // report is a function of the server running, not of which requests
    // happened to arrive. The RED trios come straight off the route table
    // (plus the non-routable outcomes), so a new route is seeded by
    // construction; the query engine's family is served by `GET /search`.
    metrics::METRICS.seed();
    for m in endpoint_metrics() {
        pse_obs::seed(m.requests);
        pse_obs::seed(m.errors);
        pse_obs::seed_histogram(m.us);
    }
    pse_query::METRICS.seed();
    let (store, durability) = match (&config.wal_path, &config.snapshot_dir) {
        (Some(wal_path), Some(snapshot_dir)) => {
            let dcfg = DurabilityConfig {
                wal_path: wal_path.clone(),
                snapshot_dir: snapshot_dir.clone(),
                compaction_threshold_bytes: config.compaction_threshold_bytes,
                group: Default::default(),
            };
            let (store, ctx, _stats) = open_durable(dcfg, &catalog, store)?;
            (store, Some(ctx))
        }
        _ => (store, None),
    };
    let inner = Arc::new(Inner {
        store,
        catalog,
        config: config.clone(),
        stop: AtomicBool::new(false),
        queue_depth: AtomicUsize::new(0),
        addr,
        recorder: FlightRecorder::new(config.recorder.clone()),
        durability,
        obs: pse_obs::current(),
    });
    let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.queue_depth.max(1));
    let rx = Arc::new(Mutex::new(rx));
    let workers: Vec<JoinHandle<()>> = (0..config.workers.max(1))
        .map(|_| {
            let rx = Arc::clone(&rx);
            spawn(&inner, move |inner| worker_loop(inner, &rx))
        })
        .collect();
    let acceptor = spawn(&inner, move |inner| accept_loop(inner, &listener, &tx));
    Ok(ServerHandle { inner, acceptor, workers })
}

/// Spawn a server thread that records into the server's `Obs`.
fn spawn(inner: &Arc<Inner>, body: impl FnOnce(&Inner) + Send + 'static) -> JoinHandle<()> {
    let inner = Arc::clone(inner);
    std::thread::spawn(move || {
        let _obs = inner.obs.as_ref().map(Obs::install);
        body(&inner)
    })
}

impl ServerHandle {
    /// The bound address (real port even when configured as `:0`).
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// The served store (concurrent reads are fine while serving).
    pub fn store(&self) -> &ShardedStore {
        &self.inner.store
    }

    /// Block until something (e.g. `POST /shutdown`) asks the server to
    /// stop. Returns immediately if it already has.
    pub fn wait_for_stop(&self) {
        while !self.inner.stop.load(Ordering::SeqCst) {
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// Stop accepting, drain queued and in-flight requests, join every
    /// thread, fold the WAL of a durable server, and hand back the store.
    pub fn shutdown(self) -> Result<ShardedStore, ServeError> {
        self.inner.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor if it is blocked in accept(); an error just
        // means it already exited.
        let _ = TcpStream::connect(self.inner.addr);
        let _ = self.acceptor.join();
        for w in self.workers {
            let _ = w.join();
        }
        let inner = Arc::into_inner(self.inner).expect("all server threads joined");
        let _obs = inner.obs.as_ref().map(Obs::install);
        if let Some(ctx) = &inner.durability {
            // Final fold: every logged record lands in segments, so the
            // next start replays an empty WAL tail.
            durable_snapshot(&inner.store, ctx)?;
        }
        Ok(inner.store)
    }
}

/// Backoff schedule for persistent `accept()` errors (EMFILE, ENOBUFS…):
/// doubling from 1ms, capped at 250ms so recovery is never slow, reset
/// on the next successful accept. Without it a persistent error spins
/// the acceptor hot at 100% CPU.
const ACCEPT_BACKOFF_START: Duration = Duration::from_millis(1);
const ACCEPT_BACKOFF_CAP: Duration = Duration::from_millis(250);

fn next_accept_backoff(current: Duration) -> Duration {
    current.saturating_mul(2).min(ACCEPT_BACKOFF_CAP)
}

fn accept_loop(inner: &Inner, listener: &TcpListener, tx: &SyncSender<TcpStream>) {
    let mut backoff = ACCEPT_BACKOFF_START;
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => {
                backoff = ACCEPT_BACKOFF_START;
                stream
            }
            Err(_) => {
                if inner.stop.load(Ordering::SeqCst) {
                    break;
                }
                pse_obs::incr(metrics::ACCEPT_ERROR);
                std::thread::sleep(backoff);
                backoff = next_accept_backoff(backoff);
                continue;
            }
        };
        if inner.stop.load(Ordering::SeqCst) {
            // The wake-up connection (or a client racing shutdown).
            break;
        }
        let depth = inner.queue_depth.fetch_add(1, Ordering::SeqCst) + 1;
        pse_obs::observe(metrics::QUEUE_DEPTH, depth as u64);
        match tx.try_send(stream) {
            Ok(()) => {}
            Err(TrySendError::Full(mut stream)) => {
                inner.queue_depth.fetch_sub(1, Ordering::SeqCst);
                pse_obs::incr(metrics::BACKPRESSURE_503);
                count_status(503);
                let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
                // No request was read, so no trace exists: empty trace_id.
                let body = error_body("overloaded", "accept queue full", "");
                let _ = write_response(&mut stream, 503, "application/json", &body);
                drain_unread(&mut stream);
            }
            Err(TrySendError::Disconnected(_)) => break,
        }
    }
    // tx drops here; workers drain whatever is still queued, then exit.
}

fn worker_loop(inner: &Inner, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        let next = rx.lock().expect("accept queue lock").recv();
        let Ok(mut stream) = next else { break };
        inner.queue_depth.fetch_sub(1, Ordering::SeqCst);
        handle_connection(inner, &mut stream);
    }
}

fn count_status(status: u16) {
    pse_obs::incr(match status {
        200 => metrics::HTTP_200,
        400 => metrics::HTTP_400,
        404 => metrics::HTTP_404,
        405 => metrics::HTTP_405,
        413 => metrics::HTTP_413,
        500 => metrics::HTTP_500,
        503 => metrics::HTTP_503,
        _ => metrics::HTTP_OTHER,
    });
}

/// Expand one row of the route table: the span/metric label is written
/// once and the RED metric names derive from it at compile time, so a
/// route cannot be added without its metrics — the old failure mode of
/// updating the dispatch `match` but not the label `match` is
/// unrepresentable.
macro_rules! route {
    ($method:ident, [$($seg:expr),* $(,)?], $label:literal, $handler:expr) => {
        Route {
            method: Method::$method,
            pattern: &[$($seg),*],
            label: $label,
            metrics: endpoint_metrics_for!($label),
            handler: $handler,
        }
    };
}

macro_rules! endpoint_metrics_for {
    ($label:literal) => {
        EndpointMetrics {
            requests: concat!("serve.endpoint.", $label, ".requests"),
            errors: concat!("serve.endpoint.", $label, ".errors"),
            us: concat!("serve.endpoint.", $label, ".us"),
        }
    };
}

/// A handler returns its success response or a typed API error the
/// connection loop renders into the JSON error envelope (it carries the
/// request's trace id, which handlers never see).
type HandlerResult = Result<Response, ApiError>;
type Handler = fn(&Inner, &Request, &Params) -> HandlerResult;

/// Every routed endpoint: dispatch, span/metric label, and RED metric
/// names in one table.
static ROUTES: &[Route<Handler>] = &[
    route!(Get, [Seg::Lit("healthz")], "healthz", h_healthz),
    route!(Get, [Seg::Lit("metrics")], "metrics", h_metrics),
    route!(Get, [Seg::Lit("product")], "product", h_product),
    route!(Get, [Seg::Lit("products"), Seg::Param("category")], "products", h_products),
    route!(Get, [Seg::Lit("search")], "search", h_search),
    route!(Get, [Seg::Lit("debug"), Seg::Lit("requests")], "debug_requests", h_debug_requests),
    route!(
        Get,
        [Seg::Lit("debug"), Seg::Lit("trace"), Seg::Param("id")],
        "debug_trace",
        h_debug_trace
    ),
    route!(Post, [Seg::Lit("ingest")], "ingest", h_ingest),
    route!(Post, [Seg::Lit("retract")], "retract", h_retract),
    route!(Post, [Seg::Lit("shutdown")], "shutdown", h_shutdown),
];

static ROUTER: Router<Handler> = Router::new(ROUTES);

/// The route table with the handlers erased: what the router property
/// tests enumerate instead of a copy of the table.
pub fn routes() -> impl Iterator<Item = Route<()>> {
    ROUTES.iter().map(|r| Route {
        method: r.method,
        pattern: r.pattern,
        label: r.label,
        metrics: r.metrics,
        handler: (),
    })
}

/// The non-routable outcomes: `other` (no route matched), `invalid`
/// (unparseable or oversized request head), and `io` (client vanished
/// before a request could be read).
static EXTRA_ENDPOINTS: [EndpointMetrics; 3] =
    [endpoint_metrics_for!("other"), endpoint_metrics_for!("invalid"), endpoint_metrics_for!("io")];

/// The RED metric names of every endpoint label a request can be
/// recorded under: one per route, then the non-routable outcomes.
pub fn endpoint_metrics() -> impl Iterator<Item = &'static EndpointMetrics> {
    ROUTES.iter().map(|r| &r.metrics).chain(&EXTRA_ENDPOINTS)
}

fn metrics_of(label: &str) -> &'static EndpointMetrics {
    match label {
        "other" => &EXTRA_ENDPOINTS[0],
        "invalid" => &EXTRA_ENDPOINTS[1],
        "io" => &EXTRA_ENDPOINTS[2],
        _ => ROUTES
            .iter()
            .find(|r| r.label == label)
            .map(|r| &r.metrics)
            .unwrap_or(&EXTRA_ENDPOINTS[0]),
    }
}

/// One endpoint RED observation: exactly one per handled request, paired
/// with the `serve.requests` increment at request start —
/// `tests/obs_contract.rs` verifies the per-endpoint request counters sum
/// back to it. Errors are server-side failures: 5xx, or status 0 (client
/// gone mid-read).
fn record_endpoint(label: &str, status: u16, started: &Instant) {
    if !pse_obs::enabled() {
        return;
    }
    let m = metrics_of(label);
    pse_obs::incr(m.requests);
    if status >= 500 || status == 0 {
        pse_obs::incr(m.errors);
    }
    pse_obs::observe(m.us, started.elapsed().as_micros() as u64);
}

fn handle_connection(inner: &Inner, stream: &mut TcpStream) {
    let mut trace = pse_obs::start_request_trace(None);
    // The envelope span closes before the trace finishes, so it is part of
    // the trace.
    let (endpoint, status) = {
        let _span = pse_obs::span("serve.request");
        respond(inner, stream, &mut trace)
    };
    if let Some(t) = trace.finish(endpoint, status) {
        inner.recorder.record(t);
    }
}

/// Read, route and answer one request. Returns the endpoint label and the
/// status written back (0 when the client vanished mid-read).
fn respond(
    inner: &Inner,
    stream: &mut TcpStream,
    trace: &mut RequestTraceGuard,
) -> (&'static str, u16) {
    pse_obs::incr(metrics::REQUESTS);
    let started = Instant::now();
    let _ = stream.set_read_timeout(Some(inner.config.read_timeout));
    let _ = stream.set_write_timeout(Some(inner.config.write_timeout));
    let mut request_incomplete = false;
    let parsed = {
        let _parse = pse_obs::span("parse");
        read_request(stream, inner.config.max_request_bytes)
    };
    let (endpoint, (status, content_type, body)) = match parsed {
        Ok(request) => {
            // Adopt the caller's trace identity so cross-process traces
            // (a future router fanning out to shard nodes) stitch by id.
            if let Some(id) = request.header("x-pse-trace-id").and_then(TraceId::from_hex) {
                trace.set_id(id);
            }
            let trace_id = trace_id_hex(trace);
            match ROUTER.find(&request.method, &request.path) {
                RouteOutcome::Matched(route, params) => {
                    // A panicking handler must cost us a 500, not a worker.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let _route_span = pse_obs::span(route.label);
                        (route.handler)(inner, &request, &params)
                    }));
                    let response = match outcome {
                        Ok(Ok(response)) => response,
                        Ok(Err(api)) => api.into_response(&trace_id),
                        Err(_) => ApiError::new(500, "internal", "internal error")
                            .into_response(&trace_id),
                    };
                    (route.label, response)
                }
                RouteOutcome::NotFound => (
                    "other",
                    ApiError::new(404, "not_found", "no such endpoint").into_response(&trace_id),
                ),
                RouteOutcome::MethodNotAllowed => (
                    "other",
                    ApiError::new(405, "method_not_allowed", "method not allowed")
                        .into_response(&trace_id),
                ),
            }
        }
        Err(e @ ServeError::RequestTooLarge { .. }) => {
            request_incomplete = true;
            let trace_id = trace_id_hex(trace);
            ("invalid", ApiError::from_serve(413, &e).into_response(&trace_id))
        }
        Err(ServeError::Io(_)) => {
            // Client vanished or timed out; nothing to write to.
            pse_obs::incr(metrics::IO_ERROR);
            record_endpoint("io", 0, &started);
            return ("io", 0);
        }
        Err(e) => {
            let trace_id = trace_id_hex(trace);
            ("invalid", ApiError::from_serve(400, &e).into_response(&trace_id))
        }
    };
    count_status(status);
    {
        let _write = pse_obs::span("write");
        if write_response(stream, status, content_type, body.as_ref()).is_err() {
            pse_obs::incr(metrics::IO_ERROR);
        }
        let _ = stream.flush();
    }
    if request_incomplete {
        // The client is still sending; closing now would RST the socket
        // and can destroy the buffered response before the client reads
        // it. Swallow what is in flight so the close is a clean FIN.
        drain_unread(stream);
    }
    pse_obs::observe(metrics::REQUEST_US, started.elapsed().as_micros() as u64);
    record_endpoint(endpoint, status, &started);
    (endpoint, status)
}

/// Read and discard whatever the peer already sent (briefly), so closing
/// the socket does not reset it while the response is still in transit.
fn drain_unread(stream: &mut TcpStream) {
    use std::io::Read;
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let mut sink = [0u8; 4096];
    let mut budget = 1 << 20;
    while budget > 0 {
        match stream.read(&mut sink) {
            Ok(0) | Err(_) => break,
            Ok(n) => budget -= n.min(budget),
        }
    }
}

type Response = (u16, &'static str, Body);

/// A typed handler failure: status, stable code, human message. The
/// connection loop renders it into the unified envelope
/// `{"error": {"code", "message", "trace_id"}}` — handlers never format
/// error bodies themselves, so every endpoint fails the same way.
struct ApiError {
    status: u16,
    code: &'static str,
    message: String,
}

#[derive(serde::Serialize)]
struct ErrorDetail {
    code: String,
    message: String,
    trace_id: String,
}

#[derive(serde::Serialize)]
struct ErrorEnvelope {
    error: ErrorDetail,
}

/// The envelope bytes for one error, shared by handlers (via
/// [`ApiError::into_response`]) and the accept loop's direct 503.
fn error_body(code: &str, message: &str, trace_id: &str) -> Vec<u8> {
    let envelope = ErrorEnvelope {
        error: ErrorDetail {
            code: code.to_string(),
            message: message.to_string(),
            trace_id: trace_id.to_string(),
        },
    };
    serde_json::to_string(&envelope)
        .expect("error envelope serialization is infallible")
        .into_bytes()
}

impl ApiError {
    fn new(status: u16, code: &'static str, message: impl Into<String>) -> Self {
        Self { status, code, message: message.into() }
    }

    /// Wrap a serve-layer error, reusing its stable code and display.
    fn from_serve(status: u16, e: &ServeError) -> Self {
        Self { status, code: e.code(), message: e.to_string() }
    }

    fn into_response(self, trace_id: &str) -> Response {
        (self.status, "application/json", error_body(self.code, &self.message, trace_id).into())
    }
}

/// The request's trace id as the envelope carries it: hex when tracing
/// is on, empty when off (the envelope shape never changes).
fn trace_id_hex(trace: &RequestTraceGuard) -> String {
    trace.id().map(TraceId::to_hex).unwrap_or_default()
}

fn h_healthz(_inner: &Inner, _request: &Request, _params: &Params) -> HandlerResult {
    Ok((200, "text/plain", b"ok\n".to_vec().into()))
}

fn h_metrics(inner: &Inner, _request: &Request, _params: &Params) -> HandlerResult {
    // A server without an `Obs` recorded nothing: the empty, disabled report.
    let report = inner.obs.as_ref().map_or_else(
        || ObsReport { schema_version: pse_obs::SCHEMA_VERSION, ..ObsReport::default() },
        Obs::report,
    );
    Ok((200, "application/json", report.to_json().into_bytes().into()))
}

fn h_products(inner: &Inner, _request: &Request, params: &Params) -> HandlerResult {
    let raw = params.get("category").unwrap_or_default();
    let Ok(category) = raw.parse::<u32>() else {
        return Err(ApiError::new(
            400,
            "bad_request",
            format!("category must be an integer, got {raw:?}"),
        ));
    };
    // The hot path: one snapshot load, one map lookup, shared bytes —
    // no lock, no per-request serialization. Byte-identical to
    // `json_200(&inner.store.products_in_category(..))`.
    let _probe = pse_obs::span("cache_probe");
    Ok((200, "application/json", inner.store.products_response(CategoryId(category)).into()))
}

fn h_product(inner: &Inner, request: &Request, _params: &Params) -> HandlerResult {
    let query = Query::of(request);
    let (Some(category), Some(attr), Some(key)) =
        (query.get("category"), query.get("attr"), query.get("key"))
    else {
        return Err(ApiError::new(
            400,
            "bad_request",
            "need category=<id>&attr=<name>&key=<value>",
        ));
    };
    let Ok(category) = category.parse::<u32>() else {
        return Err(ApiError::new(
            400,
            "bad_request",
            format!("category must be an integer, got {category:?}"),
        ));
    };
    let cluster_key = (CategoryId(category), attr.to_string(), normalize_key(key));
    // Like `h_products`, served from the snapshot's cached per-product
    // JSON — byte-identical to `json_200(&inner.store.product_for(..))`.
    let _lookup = pse_obs::span("lookup");
    match inner.store.product_response(&cluster_key) {
        Some(json) => Ok((200, "application/json", json.into())),
        None => Err(ApiError::new(404, "not_found", "no such product")),
    }
}

/// Echoed constraint of a `GET /search` response.
#[derive(serde::Serialize)]
struct ConstraintOut {
    phrase: String,
    attribute: String,
    value: String,
    score: f64,
    exact: bool,
}

/// Hit cap: `k` defaults to 10 and callers cannot demand unbounded
/// result assembly.
const SEARCH_K_DEFAULT: usize = 10;
const SEARCH_K_MAX: usize = 100;

fn h_search(inner: &Inner, request: &Request, _params: &Params) -> HandlerResult {
    let query = Query::of(request);
    let Some(q) = query.get("q") else {
        return Err(ApiError::new(400, "bad_request", "need q=<free-text query>"));
    };
    let k = match query.get("k") {
        None => SEARCH_K_DEFAULT,
        Some(raw) => match raw.parse::<usize>() {
            Ok(k) if (1..=SEARCH_K_MAX).contains(&k) => k,
            _ => {
                return Err(ApiError::new(
                    400,
                    "bad_request",
                    format!("k must be an integer in 1..={SEARCH_K_MAX}, got {raw:?}"),
                ));
            }
        },
    };
    let outcome = inner.store.search(q, k);
    let constraints: Vec<ConstraintOut> = outcome
        .result
        .constraints
        .iter()
        .map(|c| ConstraintOut {
            phrase: c.phrase.clone(),
            attribute: c.attribute.clone(),
            value: c.value.clone(),
            score: c.score,
            exact: c.exact,
        })
        .collect();
    // Assemble around the snapshot's cached product JSON: the engine
    // parts serialize through serde, the per-hit product bytes splice
    // in verbatim — no product is re-serialized on the search path.
    let mut body = String::from("{\"category\":");
    match outcome.result.category {
        Some(c) => body.push_str(&c.0.to_string()),
        None => body.push_str("null"),
    }
    body.push_str(",\"constraints\":");
    body.push_str(&json_field(&constraints)?);
    body.push_str(",\"hits\":[");
    for (i, (hit, json)) in outcome.result.hits.iter().zip(&outcome.hit_json).enumerate() {
        if i > 0 {
            body.push(',');
        }
        body.push_str("{\"matched\":");
        body.push_str(&hit.matched.to_string());
        body.push_str(",\"score\":");
        body.push_str(&json_field(&hit.score)?);
        body.push_str(",\"product\":");
        body.push_str(json);
        body.push('}');
    }
    body.push_str("]}");
    Ok((200, "application/json", body.into_bytes().into()))
}

fn h_debug_requests(inner: &Inner, _request: &Request, _params: &Params) -> HandlerResult {
    Ok((200, "application/json", inner.recorder.requests_json().into_bytes().into()))
}

fn h_debug_trace(inner: &Inner, _request: &Request, params: &Params) -> HandlerResult {
    let raw = params.get("id").unwrap_or_default();
    let Some(id) = TraceId::from_hex(raw) else {
        return Err(ApiError::new(
            400,
            "bad_request",
            format!("trace id must be 1-16 hex digits, got {raw:?}"),
        ));
    };
    match inner.recorder.trace_json(id) {
        Some(json) => Ok((200, "application/json", json.into_bytes().into())),
        None => Err(ApiError::new(404, "not_found", "no such trace")),
    }
}

fn h_ingest(inner: &Inner, request: &Request, _params: &Params) -> HandlerResult {
    let offers: Vec<Offer> = {
        let _parse = pse_obs::span("parse_body");
        parse_json_body(&request.body)?
    };
    pse_obs::add(metrics::INGEST_OFFERS, offers.len() as u64);
    write(inner, WriteOp::Ingest(&offers))
}

fn h_retract(inner: &Inner, request: &Request, _params: &Params) -> HandlerResult {
    let ids: Vec<u64> = {
        let _parse = pse_obs::span("parse_body");
        parse_json_body(&request.body)?
    };
    let ids: Vec<OfferId> = ids.into_iter().map(OfferId).collect();
    write(inner, WriteOp::Retract(&ids))
}

/// A parsed write request.
enum WriteOp<'a> {
    Ingest(&'a [Offer]),
    Retract(&'a [OfferId]),
}

/// Every store mutation the server performs goes through here: the one
/// place that knows whether the server is durable. With a WAL the write
/// commits (and folds, if due) through [`crate::durable`]; without one
/// it applies straight to the store. Both arms run the same reconcile
/// and the same `ShardedStore::apply`, so the response is the same bytes either
/// way (pinned by `durable_server.rs`).
fn write(inner: &Inner, op: WriteOp<'_>) -> HandlerResult {
    let (store, catalog) = (&inner.store, &inner.catalog);
    let provider = FnProvider(|o: &Offer| o.spec.clone());
    let stats = match &inner.durability {
        // A write we could not make durable is a server-side failure: the
        // record never hit the log, so the store was not mutated.
        Some(ctx) => match op {
            WriteOp::Ingest(offers) => durable_ingest(store, ctx, catalog, offers, &provider),
            WriteOp::Retract(ids) => durable_retract(store, ctx, catalog, ids),
        }
        .map_err(|e| ApiError::from_serve(500, &e))?,
        None => match op {
            WriteOp::Ingest(offers) => store.ingest(catalog, offers, &provider),
            WriteOp::Retract(ids) => store.retract(catalog, ids),
        },
    };
    json_200(&stats)
}

fn h_shutdown(inner: &Inner, _request: &Request, _params: &Params) -> HandlerResult {
    inner.stop.store(true, Ordering::SeqCst);
    // Wake the acceptor so it notices; error means it already did.
    let _ = TcpStream::connect(inner.addr);
    Ok((200, "text/plain", b"shutting down\n".to_vec().into()))
}

fn parse_json_body<T: serde::Deserialize>(body: &[u8]) -> Result<T, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(400, "bad_request", "body is not UTF-8"))?;
    serde_json::from_str(text)
        .map_err(|e| ApiError::new(400, "bad_request", format!("body is not valid JSON: {}", e.0)))
}

fn json_200<T: serde::Serialize>(value: &T) -> HandlerResult {
    Ok((200, "application/json", json_field(value)?.into_bytes().into()))
}

/// Serialize one JSON fragment, mapping the (unreachable) failure into
/// the envelope instead of a panic.
fn json_field<T: serde::Serialize>(value: &T) -> Result<String, ApiError> {
    serde_json::to_string(value)
        .map_err(|e| ApiError::new(500, "internal", format!("serialization failed: {}", e.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accept_backoff_doubles_to_a_cap() {
        let mut d = ACCEPT_BACKOFF_START;
        let mut schedule = Vec::new();
        for _ in 0..12 {
            schedule.push(d.as_millis());
            d = next_accept_backoff(d);
        }
        assert_eq!(schedule[..9], [1, 2, 4, 8, 16, 32, 64, 128, 250]);
        assert!(schedule[9..].iter().all(|&ms| ms == 250), "capped, never grows past 250ms");
    }
}
