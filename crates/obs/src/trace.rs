//! Request-scoped tracing and the flight recorder.
//!
//! The sink in this crate aggregates: every span folds into a per-path
//! total, which answers "where does time go on average" but not "why was
//! *that* request slow". This module adds the per-request view:
//!
//! - [`start_request_trace`] makes an **active trace** part of the
//!   thread's observability context. While it is, every [`crate::span`]
//!   opened and closed inside it also appends one [`TraceSpan`] (path,
//!   nesting depth, start offset, duration) to the trace's shared buffer —
//!   and because [`crate::ParCall`] hands the whole context to `pse-par`
//!   workers, spans they record land in the same request's tree.
//! - [`RequestTraceGuard::finish`] assembles the completed
//!   [`RequestTrace`]; the serve layer hands it to a [`FlightRecorder`] —
//!   a fixed-capacity ring of recent requests plus an always-keep-slowest
//!   set (tail sampling), queryable as JSON for the `/debug/*` endpoints.
//!
//! Everything here obeys the crate's determinism contract: with no
//! [`crate::Obs`] installed, [`start_request_trace`] returns an inert
//! guard and no instrumentation site allocates; with one, recording is a
//! side channel that never influences what the traced code computes.

use std::collections::VecDeque;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use serde::{Deserialize, Serialize, Value};

use crate::{enabled, now_ns, with_ctx};

/// Spans kept per trace before counting drops instead — bounds the memory
/// a pathological request (e.g. one span per offer) can pin.
pub const MAX_TRACE_SPANS: usize = 512;

// ---- trace identity --------------------------------------------------------

/// A 64-bit request identity, rendered as 16 lowercase hex digits — the
/// value of the `X-Pse-Trace-Id` header and the `/debug/trace/{id}` path
/// segment. Fresh ids mix a per-process seed with a counter, so they are
/// unique within a process and almost surely across the fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

impl TraceId {
    /// A new process-unique id.
    pub fn fresh() -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        static SEED: std::sync::OnceLock<u64> = std::sync::OnceLock::new();
        let seed = *SEED.get_or_init(|| {
            let t = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_nanos() as u64)
                .unwrap_or(0);
            t ^ ((std::process::id() as u64) << 32)
        });
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        // splitmix64: a fixed bijection, so distinct inputs stay distinct.
        let mut z = seed.wrapping_add(n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Self(z ^ (z >> 31))
    }

    /// The 16-digit lowercase hex rendering.
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parse a hex rendering (1–16 digits, case-insensitive). `None` for
    /// anything else — the server maps that to a 400, not a panic.
    pub fn from_hex(s: &str) -> Option<Self> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(Self)
    }
}

impl Serialize for TraceId {
    fn to_value(&self) -> Value {
        Value::Str(self.to_hex())
    }
}

impl Deserialize for TraceId {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        match v {
            Value::Str(s) => {
                Self::from_hex(s).ok_or_else(|| serde::Error(format!("invalid trace id {s:?}")))
            }
            other => Err(serde::Error::expected("trace id hex string", other)),
        }
    }
}

// ---- the per-request span tree ---------------------------------------------

/// One closed span inside a request: where the time went and how deeply
/// it was nested. Start offsets are relative to the trace start, so
/// same-depth spans on one thread are disjoint intervals and their
/// durations sum to at most the request total.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceSpan {
    /// Full hierarchical span path (e.g. `serve.request.ingest.store.ingest`).
    pub path: String,
    /// Nesting depth within this trace (the request envelope is depth 0).
    pub depth: u64,
    /// Nanoseconds from trace start to span entry.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// One completed request: identity, outcome, and the span tree recorded
/// while it was in flight (including spans from `pse-par` workers it
/// fanned out to).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RequestTrace {
    /// Request identity (client-supplied via `X-Pse-Trace-Id` or fresh).
    pub id: TraceId,
    /// Routed endpoint label (`products`, `ingest`, `invalid`, …).
    pub endpoint: String,
    /// HTTP status written back (0 when the client vanished mid-read).
    pub status: u16,
    /// Trace start, nanoseconds on the process-wide monotonic epoch.
    pub start_ns: u64,
    /// Total request duration in nanoseconds.
    pub total_ns: u64,
    /// Spans dropped past [`MAX_TRACE_SPANS`].
    pub dropped_spans: u64,
    /// Closed spans in completion order.
    pub spans: Vec<TraceSpan>,
}

#[derive(Debug, Default)]
struct TraceBuf {
    spans: Vec<TraceSpan>,
    dropped: u64,
}

/// An in-flight trace as a thread's context holds it: installed by
/// [`start_request_trace`] and copied to `pse-par` workers with the rest of
/// the context. The buffer is shared; depths count from `base_depth`, the
/// span depth of the thread that started the trace.
#[derive(Debug, Clone)]
pub(crate) struct ActiveTrace {
    start_ns: u64,
    base_depth: u64,
    buf: Arc<Mutex<TraceBuf>>,
}

impl ActiveTrace {
    /// Append a span closing at thread span depth `depth`. A span that was
    /// already open when the trace started is not part of it.
    pub(crate) fn record(&self, path: &str, depth: u64, start_ns: u64, dur_ns: u64) {
        let depth = depth.saturating_sub(self.base_depth);
        if depth == 0 {
            return;
        }
        let mut buf = trace_buf(&self.buf);
        if buf.spans.len() >= MAX_TRACE_SPANS {
            buf.dropped += 1;
        } else {
            buf.spans.push(TraceSpan {
                path: path.to_string(),
                depth,
                start_ns: start_ns.saturating_sub(self.start_ns),
                dur_ns,
            });
        }
    }
}

fn trace_buf(buf: &Mutex<TraceBuf>) -> MutexGuard<'_, TraceBuf> {
    buf.lock().unwrap_or_else(|p| p.into_inner())
}

/// Put `prev` back as the thread's trace (a guard's finish or drop).
fn restore(prev: Option<ActiveTrace>) {
    drop(with_ctx(|c| std::mem::replace(&mut c.trace, prev)));
}

// ---- the request guard -----------------------------------------------------

struct GuardInner {
    id: TraceId,
    trace: ActiveTrace,
    prev: Option<ActiveTrace>,
}

/// RAII handle for one request's trace; see [`start_request_trace`].
/// Dropping without [`finish`](Self::finish) discards the recording. Bound
/// to the thread that started it:
///
/// ```compile_fail
/// let trace = pse_obs::start_request_trace(None);
/// std::thread::spawn(move || drop(trace)); // RequestTraceGuard is not Send
/// ```
#[must_use = "a request trace records until finish() or drop"]
pub struct RequestTraceGuard {
    inner: Option<GuardInner>,
    _thread: PhantomData<*const ()>,
}

/// Begin tracing a request on this thread. Every span opened after this
/// call and closed before [`RequestTraceGuard::finish`] on the thread (and
/// on `pse-par` workers it fans out to) is recorded. Inert — no
/// allocation, nothing installed — while no [`crate::Obs`] is installed.
///
/// `id` is the client-supplied trace identity when the request carried
/// one; pass `None` for a fresh id (it can still be swapped later via
/// [`RequestTraceGuard::set_id`], e.g. once headers are parsed).
pub fn start_request_trace(id: Option<TraceId>) -> RequestTraceGuard {
    if !enabled() {
        return RequestTraceGuard { inner: None, _thread: PhantomData };
    }
    let buf = Arc::new(Mutex::new(TraceBuf::default()));
    let (trace, prev) = with_ctx(|c| {
        let trace = ActiveTrace { start_ns: now_ns(), base_depth: c.depth, buf };
        (trace.clone(), c.trace.replace(trace))
    });
    let id = id.unwrap_or_else(TraceId::fresh);
    RequestTraceGuard { inner: Some(GuardInner { id, trace, prev }), _thread: PhantomData }
}

impl RequestTraceGuard {
    /// Is this guard actually recording? False when observability is off.
    pub fn active(&self) -> bool {
        self.inner.is_some()
    }

    /// The trace id, if recording.
    pub fn id(&self) -> Option<TraceId> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// Adopt an id discovered after the trace began (the `X-Pse-Trace-Id`
    /// header is only known once the request head is parsed).
    pub fn set_id(&mut self, id: TraceId) {
        if let Some(inner) = self.inner.as_mut() {
            inner.id = id;
        }
    }

    /// Stop recording and assemble the completed trace. `None` when the
    /// guard was inert (observability off).
    pub fn finish(mut self, endpoint: &str, status: u16) -> Option<RequestTrace> {
        let inner = self.inner.take()?;
        let start_ns = inner.trace.start_ns;
        let total_ns = now_ns().saturating_sub(start_ns);
        restore(inner.prev);
        let mut buf = trace_buf(&inner.trace.buf);
        Some(RequestTrace {
            id: inner.id,
            endpoint: endpoint.to_string(),
            status,
            start_ns,
            total_ns,
            dropped_spans: buf.dropped,
            spans: std::mem::take(&mut buf.spans),
        })
    }
}

impl Drop for RequestTraceGuard {
    fn drop(&mut self) {
        if let Some(inner) = self.inner.take() {
            restore(inner.prev);
        }
    }
}

impl std::fmt::Debug for RequestTraceGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RequestTraceGuard").field("id", &self.id().map(TraceId::to_hex)).finish()
    }
}

// ---- the flight recorder ---------------------------------------------------

/// Flight-recorder sizing and tail-sampling knobs.
#[derive(Debug, Clone)]
pub struct RecorderConfig {
    /// Completed traces kept in the rotating recent ring.
    pub recent_capacity: usize,
    /// Slow traces kept beyond rotation (the tail-sampling set).
    pub slow_capacity: usize,
    /// Requests at or above this duration enter the slow set.
    pub slow_threshold_ns: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        Self {
            recent_capacity: 128,
            slow_capacity: 32,
            // 10 ms: roughly 50× the serve bench's smoke-host p50, so the
            // slow set holds genuine excursions, not the ambient tail.
            slow_threshold_ns: 10_000_000,
        }
    }
}

#[derive(Debug, Default)]
struct RecorderInner {
    /// Rotating window, oldest first.
    recent: VecDeque<Arc<RequestTrace>>,
    /// Tail-sampled slow traces, slowest first.
    slowest: Vec<Arc<RequestTrace>>,
    recorded: u64,
    rotated_out: u64,
}

/// A fixed-capacity store of completed [`RequestTrace`]s with
/// always-keep-slowest tail sampling: a rotating ring of the most recent
/// requests, plus every request at or above the slow threshold (bounded
/// by `slow_capacity` — when full, the *fastest of the slow* is evicted,
/// so the globally slowest requests are never lost). One mutex around two
/// pointer-sized collections: `record` is an `Arc` clone, a ring rotation
/// and at most one sorted insert, cheap enough for the request path.
#[derive(Debug)]
pub struct FlightRecorder {
    config: RecorderConfig,
    inner: Mutex<RecorderInner>,
}

impl FlightRecorder {
    /// A recorder with the given sizing (capacities are clamped to ≥ 1).
    pub fn new(config: RecorderConfig) -> Self {
        let config = RecorderConfig {
            recent_capacity: config.recent_capacity.max(1),
            slow_capacity: config.slow_capacity.max(1),
            ..config
        };
        Self { config, inner: Mutex::new(RecorderInner::default()) }
    }

    fn lock(&self) -> MutexGuard<'_, RecorderInner> {
        self.inner.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Admit one completed trace.
    pub fn record(&self, trace: RequestTrace) {
        let trace = Arc::new(trace);
        let mut inner = self.lock();
        inner.recorded += 1;
        if inner.recent.len() >= self.config.recent_capacity {
            inner.recent.pop_front();
            inner.rotated_out += 1;
        }
        inner.recent.push_back(Arc::clone(&trace));
        if trace.total_ns >= self.config.slow_threshold_ns {
            let pos = inner.slowest.partition_point(|s| s.total_ns >= trace.total_ns);
            inner.slowest.insert(pos, trace);
            if inner.slowest.len() > self.config.slow_capacity {
                inner.slowest.pop();
            }
        }
    }

    /// Traces recorded since construction (including rotated-out ones).
    pub fn recorded(&self) -> u64 {
        self.lock().recorded
    }

    /// The recent window, most recent first.
    pub fn recent(&self) -> Vec<Arc<RequestTrace>> {
        self.lock().recent.iter().rev().cloned().collect()
    }

    /// The tail-sampled slow set, slowest first.
    pub fn slowest(&self) -> Vec<Arc<RequestTrace>> {
        self.lock().slowest.clone()
    }

    /// Look up a trace by id — slow set first, then the recent window
    /// (most recent wins on a client-reused id).
    pub fn find(&self, id: TraceId) -> Option<Arc<RequestTrace>> {
        let inner = self.lock();
        inner
            .slowest
            .iter()
            .find(|t| t.id == id)
            .or_else(|| inner.recent.iter().rev().find(|t| t.id == id))
            .cloned()
    }

    /// The `GET /debug/requests` payload: counters, summaries of the
    /// recent window, and the slow set with full span trees.
    pub fn debug_requests(&self) -> DebugRequests {
        let inner = self.lock();
        DebugRequests {
            recorded: inner.recorded,
            rotated_out: inner.rotated_out,
            slow_threshold_ns: self.config.slow_threshold_ns,
            recent: inner.recent.iter().rev().map(|t| TraceSummary::of(t)).collect(),
            slowest: inner.slowest.iter().map(|t| RequestTrace::clone(t)).collect(),
        }
    }

    /// [`Self::debug_requests`] rendered as a JSON string.
    pub fn requests_json(&self) -> String {
        serde_json::to_string(&self.debug_requests())
            .expect("debug requests serialization is infallible")
    }

    /// The full trace for `id` as a JSON string, if still held.
    pub fn trace_json(&self, id: TraceId) -> Option<String> {
        self.find(id)
            .map(|t| serde_json::to_string(&*t).expect("request trace serialization is infallible"))
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        Self::new(RecorderConfig::default())
    }
}

/// One line of the recent window in `GET /debug/requests` — identity and
/// outcome without the span tree (fetch `/debug/trace/{id}` for that).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Trace identity, hex.
    pub id: TraceId,
    /// Routed endpoint label.
    pub endpoint: String,
    /// HTTP status written back.
    pub status: u16,
    /// Trace start on the process monotonic epoch, nanoseconds.
    pub start_ns: u64,
    /// Total duration, nanoseconds.
    pub total_ns: u64,
    /// Spans recorded.
    pub spans: u64,
    /// Spans dropped past the per-trace cap.
    pub dropped_spans: u64,
}

impl TraceSummary {
    /// Summarize one trace.
    pub fn of(t: &RequestTrace) -> Self {
        Self {
            id: t.id,
            endpoint: t.endpoint.clone(),
            status: t.status,
            start_ns: t.start_ns,
            total_ns: t.total_ns,
            spans: t.spans.len() as u64,
            dropped_spans: t.dropped_spans,
        }
    }
}

/// The `GET /debug/requests` response shape.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DebugRequests {
    /// Traces recorded since server start.
    pub recorded: u64,
    /// Traces rotated out of the recent window.
    pub rotated_out: u64,
    /// The slow-set admission threshold, nanoseconds.
    pub slow_threshold_ns: u64,
    /// The recent window, most recent first (summaries).
    pub recent: Vec<TraceSummary>,
    /// The tail-sampled slow set, slowest first (full span trees).
    pub slowest: Vec<RequestTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64, total_ns: u64) -> RequestTrace {
        RequestTrace {
            id: TraceId(id),
            endpoint: "products".into(),
            status: 200,
            start_ns: id,
            total_ns,
            dropped_spans: 0,
            spans: Vec::new(),
        }
    }

    #[test]
    fn trace_id_hex_round_trip() {
        let id = TraceId(0xdead_beef_0000_0001);
        assert_eq!(id.to_hex(), "deadbeef00000001");
        assert_eq!(TraceId::from_hex("deadbeef00000001"), Some(id));
        assert_eq!(TraceId::from_hex("DEADBEEF00000001"), Some(id));
        assert_eq!(TraceId::from_hex("7"), Some(TraceId(7)));
        assert_eq!(TraceId::from_hex(""), None);
        assert_eq!(TraceId::from_hex("xyz"), None);
        assert_eq!(TraceId::from_hex("deadbeef000000012"), None, "17 digits");
        assert_eq!(TraceId::from_hex("0x12"), None);
    }

    #[test]
    fn fresh_ids_are_distinct() {
        let a = TraceId::fresh();
        let b = TraceId::fresh();
        assert_ne!(a, b);
    }

    #[test]
    fn recent_ring_rotates_at_capacity() {
        let rec = FlightRecorder::new(RecorderConfig {
            recent_capacity: 3,
            slow_capacity: 2,
            slow_threshold_ns: u64::MAX,
        });
        for i in 0..10 {
            rec.record(trace(i, 100));
        }
        let recent = rec.recent();
        assert_eq!(recent.len(), 3);
        let ids: Vec<u64> = recent.iter().map(|t| t.id.0).collect();
        assert_eq!(ids, [9, 8, 7], "most recent first");
        assert_eq!(rec.recorded(), 10);
        assert!(rec.slowest().is_empty(), "nothing met the threshold");
        let dbg = rec.debug_requests();
        assert_eq!((dbg.recorded, dbg.rotated_out), (10, 7));
    }

    #[test]
    fn slow_set_keeps_the_slowest_beyond_rotation() {
        let rec = FlightRecorder::new(RecorderConfig {
            recent_capacity: 2,
            slow_capacity: 3,
            slow_threshold_ns: 1_000,
        });
        // One early excursion, then a flood of fast requests.
        rec.record(trace(1, 50_000));
        for i in 2..100 {
            rec.record(trace(i, 10));
        }
        assert!(rec.recent().iter().all(|t| t.id.0 != 1), "rotated out of recent");
        let slow = rec.slowest();
        assert_eq!(slow.len(), 1);
        assert_eq!(slow[0].id.0, 1, "slow excursion survives rotation");
        assert_eq!(rec.find(TraceId(1)).unwrap().total_ns, 50_000);
    }

    #[test]
    fn slow_set_evicts_fastest_of_slow_when_full() {
        let rec = FlightRecorder::new(RecorderConfig {
            recent_capacity: 2,
            slow_capacity: 3,
            slow_threshold_ns: 1_000,
        });
        for (id, total) in [(1, 2_000), (2, 9_000), (3, 4_000), (4, 8_000), (5, 1_000)] {
            rec.record(trace(id, total));
        }
        let slow = rec.slowest();
        let got: Vec<(u64, u64)> = slow.iter().map(|t| (t.id.0, t.total_ns)).collect();
        assert_eq!(got, [(2, 9_000), (4, 8_000), (3, 4_000)], "slowest first, fastest evicted");
    }

    #[test]
    fn find_prefers_most_recent_on_reused_id() {
        let rec = FlightRecorder::new(RecorderConfig {
            recent_capacity: 8,
            slow_capacity: 2,
            slow_threshold_ns: u64::MAX,
        });
        rec.record(trace(7, 100));
        let mut newer = trace(7, 100);
        newer.endpoint = "ingest".into();
        rec.record(newer);
        assert_eq!(rec.find(TraceId(7)).unwrap().endpoint, "ingest");
        assert!(rec.find(TraceId(8)).is_none());
    }

    #[test]
    fn debug_requests_round_trips_through_json() {
        let rec = FlightRecorder::new(RecorderConfig {
            recent_capacity: 4,
            slow_capacity: 2,
            slow_threshold_ns: 1_000,
        });
        let mut slow = trace(1, 5_000);
        slow.spans.push(TraceSpan {
            path: "serve.request.parse".into(),
            depth: 1,
            start_ns: 10,
            dur_ns: 20,
        });
        rec.record(slow);
        rec.record(trace(2, 10));
        let parsed: Value = serde_json::from_str(&rec.requests_json()).unwrap();
        let dbg = DebugRequests::from_value(&parsed).unwrap();
        assert_eq!(dbg.recorded, 2);
        assert_eq!(dbg.recent.len(), 2);
        assert_eq!(dbg.slowest.len(), 1);
        assert_eq!(dbg.slowest[0].spans[0].path, "serve.request.parse");
        let full: Value = serde_json::from_str(&rec.trace_json(TraceId(1)).unwrap()).unwrap();
        let t = RequestTrace::from_value(&full).unwrap();
        assert_eq!((t.id, t.total_ns), (TraceId(1), 5_000));
        assert!(rec.trace_json(TraceId(99)).is_none());
    }
}
