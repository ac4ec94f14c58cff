//! # pse-obs — zero-dependency structured observability
//!
//! Hierarchical spans, exact integer counters, fixed-bucket histograms and
//! per-worker parallel timelines for the synthesis pipeline, exported as
//! JSON ([`ObsReport::to_json`]) or a human-readable stage summary
//! ([`ObsReport::render_summary`]).
//!
//! ## The no-op fast path
//!
//! Instrumentation is **off by default**. It turns on when the `PSE_OBS`
//! environment variable is set to anything other than `0`/empty, or
//! programmatically via [`set_enabled`]. While off, every entry point
//! reduces to one relaxed atomic load and instrumentation records nothing —
//! and, by design, recording never influences pipeline outputs either way:
//! the `determinism_par` integration test compares full pipeline runs with
//! observability on vs off byte-for-byte.
//!
//! ## Determinism
//!
//! - **Counters** are exact integer sums; addition commutes, so the totals
//!   are identical at any thread count and interleaving.
//! - **Histograms** use fixed compile-time bucket boundaries and integer
//!   accumulation ([`hist::BUCKET_BOUNDS`]), so aggregates are
//!   order-independent.
//! - **Spans** aggregate per hierarchical path into a `BTreeMap`, so export
//!   order is path order, not arrival order.
//! - **Timelines** record one event per `pse-par` chunk (worker id, chunk
//!   index, start/stop) under the caller's label; each label keeps an
//!   exact call count and its [`TIMELINE_RETAINED`] most recent chunks.
//!
//! Recorded *durations* are wall-clock and naturally vary run to run; the
//! deterministic part is the event structure (paths, counts, counter
//! values), which `crates/obs/tests/` pins down under parallelism.
//!
//! ## Spans
//!
//! ```
//! let _run = pse_obs::span("offline");
//! {
//!     let _stage = pse_obs::span("features"); // records "offline.features"
//! }
//! ```
//!
//! Span paths nest via a thread-local stack. `pse-par` worker threads
//! inherit the caller's path at spawn (see [`par_call`]), so spans recorded
//! inside parallel chunks stay attributed to the stage that forked them.

pub mod hist;
mod metrics;
pub mod report;
mod sink;
pub mod trace;

pub use metrics::MetricSet;
pub use report::{
    BucketEntry, ChunkSummary, CounterEntry, HistogramSummary, ObsReport, ReportError, SpanSummary,
    TimelineGroup, SCHEMA_VERSION,
};
pub use trace::{
    start_request_trace, DebugRequests, FlightRecorder, RecorderConfig, RequestTrace,
    RequestTraceGuard, TraceId, TraceSpan, TraceSummary,
};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Once, OnceLock};
use std::time::Instant;

use sink::Sink;
pub use sink::TIMELINE_RETAINED;

static ENABLED: AtomicBool = AtomicBool::new(false);
static ENV_INIT: Once = Once::new();

fn global_sink() -> &'static Sink {
    static SINK: OnceLock<Sink> = OnceLock::new();
    SINK.get_or_init(Sink::default)
}

/// Monotonic nanoseconds since the first observability call in this
/// process (the epoch all span/timeline timestamps share).
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Is instrumentation on? One relaxed atomic load — the compiled-in no-op
/// fast path every instrumentation site is gated behind.
///
/// The first call resolves the `PSE_OBS` environment variable (`0`, empty,
/// or unset = off; anything else = on); [`set_enabled`] overrides it.
pub fn enabled() -> bool {
    ENV_INIT.call_once(|| {
        let on = std::env::var("PSE_OBS").map(|v| {
            let v = v.trim();
            !v.is_empty() && v != "0"
        });
        if on == Ok(true) {
            ENABLED.store(true, Ordering::Relaxed);
        }
    });
    ENABLED.load(Ordering::Relaxed)
}

/// Turn instrumentation on or off programmatically (e.g. the `--obs` flag
/// of the `experiments` binary, or tests toggling both modes in-process).
pub fn set_enabled(on: bool) {
    ENV_INIT.call_once(|| {});
    ENABLED.store(on, Ordering::Relaxed);
}

/// Clear every recorded span, counter, histogram and timeline event (the
/// enabled flag is untouched). Used between measured runs and by tests.
pub fn reset() {
    global_sink().clear();
}

/// Snapshot the sink into a deterministic-ordered [`ObsReport`].
pub fn report() -> ObsReport {
    global_sink().snapshot(enabled())
}

// ---- spans -----------------------------------------------------------------

thread_local! {
    /// Stack of full span paths active on this thread.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// Path prefix inherited from the spawning `pse-par` caller.
    static INHERITED: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
    /// Worker index within the current `pse-par` call (0 on the main thread).
    static WORKER: Cell<u64> = const { Cell::new(0) };
}

/// The full hierarchical path active on this thread, if any.
fn current_path() -> Option<String> {
    SPAN_STACK
        .with(|s| s.borrow().last().cloned())
        .or_else(|| INHERITED.with(|i| i.borrow().as_ref().map(|p| p.to_string())))
}

/// RAII span guard: measures monotonic wall time from construction to drop
/// and records it under the hierarchical path. Inactive (and free) when
/// observability is off.
#[must_use = "a span measures until it is dropped; bind it to a variable"]
#[derive(Debug)]
pub struct SpanGuard {
    path: Option<String>,
    start_ns: u64,
    /// A request trace was active at entry; report the exit to it too.
    traced: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(path) = self.path.take() {
            let dur = now_ns().saturating_sub(self.start_ns);
            SPAN_STACK.with(|s| {
                s.borrow_mut().pop();
            });
            if self.traced {
                trace::span_exit(&path, self.start_ns, dur);
            }
            global_sink().record_span(path, dur);
        }
    }
}

/// Enter a span named `name`, nested under the currently active span (or
/// the inherited `pse-par` caller path). Returns the RAII guard that
/// records the timing on drop. When a request trace is active on this
/// thread ([`start_request_trace`]), the closed span is also appended to
/// that request's span tree.
pub fn span(name: &str) -> SpanGuard {
    if !enabled() {
        return SpanGuard { path: None, start_ns: 0, traced: false };
    }
    let path = match current_path() {
        Some(parent) => format!("{parent}.{name}"),
        None => name.to_string(),
    };
    SPAN_STACK.with(|s| s.borrow_mut().push(path.clone()));
    let traced = trace::span_enter();
    SpanGuard { path: Some(path), start_ns: now_ns(), traced }
}

/// `span!("name")` — sugar for [`span`] that keeps call sites compact.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}

// ---- counters & histograms -------------------------------------------------

/// Add `n` to the named counter. Integer sums commute, so totals are
/// identical at any thread count.
pub fn add(name: &str, n: u64) {
    if enabled() && n > 0 {
        global_sink().add_counter(name, n);
    }
}

/// Materialize the named counter at its current value (0 if new) without
/// incrementing it. Use at the start of a stage whose counters may
/// legitimately stay at zero, so reports (and report checkers) always see
/// the counter when the stage ran. [`add`] skips `n == 0` by design, so a
/// zero total would otherwise leave no trace.
pub fn seed(name: &str) {
    if enabled() {
        global_sink().seed_counter(name);
    }
}

/// Increment the named counter by one.
pub fn incr(name: &str) {
    if enabled() {
        global_sink().add_counter(name, 1);
    }
}

/// Materialize the named histogram with zero samples (if new) without
/// recording anything — the histogram analogue of [`seed`]. Use at the
/// start of a stage whose distributions may legitimately stay empty, so
/// reports (and report checkers) always see the histogram when the stage
/// ran.
pub fn seed_histogram(name: &str) {
    if enabled() {
        global_sink().seed_histogram(name);
    }
}

/// Record one value into the named fixed-bucket histogram.
pub fn observe(name: &str, value: u64) {
    if enabled() {
        global_sink().record_histogram(name, value);
    }
}

// ---- pse-par timeline integration ------------------------------------------

/// Context captured on the calling thread at the start of a `pse-par`
/// parallel call; workers use it to attribute their chunk to the caller's
/// span path and to inherit that path for spans of their own.
#[derive(Debug)]
pub struct ParCall {
    label: Arc<str>,
    /// The caller's request-trace context, if one was active — workers
    /// install it so their spans land in the same request's span tree.
    trace: Option<trace::TraceCtx>,
}

/// Capture the current span path as the label for a parallel call about to
/// fan out. Returns `None` when observability is off, so the executor's
/// fast path stays a single atomic load.
pub fn par_call() -> Option<Arc<ParCall>> {
    if !enabled() {
        return None;
    }
    let label: Arc<str> = current_path().unwrap_or_else(|| "par".to_string()).into();
    Some(Arc::new(ParCall { label, trace: trace::current_ctx() }))
}

impl ParCall {
    /// Enter one chunk of this parallel call on the current (worker)
    /// thread: inherits the caller's span path and request trace, tags
    /// the thread with its worker index, and records a timeline event on
    /// drop.
    pub fn chunk(&self, worker: usize, chunk: usize, items: usize) -> ChunkGuard {
        let prev_inherited = INHERITED.with(|i| i.replace(Some(self.label.clone())));
        let prev_worker = WORKER.with(|w| w.replace(worker as u64));
        let prev_trace = trace::install(self.trace.as_ref());
        ChunkGuard {
            label: self.label.clone(),
            worker: worker as u64,
            chunk: chunk as u64,
            items: items as u64,
            start_ns: now_ns(),
            prev_inherited,
            prev_worker,
            prev_trace,
        }
    }
}

/// RAII guard for one executed chunk; see [`ParCall::chunk`].
#[must_use = "a chunk guard measures until it is dropped; bind it to a variable"]
#[derive(Debug)]
pub struct ChunkGuard {
    label: Arc<str>,
    worker: u64,
    chunk: u64,
    items: u64,
    start_ns: u64,
    prev_inherited: Option<Arc<str>>,
    prev_worker: u64,
    prev_trace: Option<trace::ActiveTrace>,
}

impl Drop for ChunkGuard {
    fn drop(&mut self) {
        let dur_ns = now_ns().saturating_sub(self.start_ns);
        global_sink().record_chunk(
            &self.label,
            ChunkSummary {
                worker: self.worker,
                chunk: self.chunk,
                items: self.items,
                start_ns: self.start_ns,
                dur_ns,
            },
        );
        INHERITED.with(|i| *i.borrow_mut() = self.prev_inherited.take());
        WORKER.with(|w| w.set(self.prev_worker));
        trace::restore(self.prev_trace.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The sink and enabled flag are process-global; unit tests that touch
    /// them serialize on this lock (and restore the disabled default).
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    struct ObsSession;
    impl ObsSession {
        fn start() -> (std::sync::MutexGuard<'static, ()>, ObsSession) {
            let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
            reset();
            set_enabled(true);
            (guard, ObsSession)
        }
    }
    impl Drop for ObsSession {
        fn drop(&mut self) {
            set_enabled(false);
            reset();
        }
    }

    #[test]
    fn disabled_records_nothing() {
        let guard = TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        set_enabled(false);
        reset();
        {
            let _s = span("ghost");
            add("ghost.counter", 5);
            observe("ghost.hist", 1);
        }
        let r = report();
        assert!(!r.enabled);
        assert!(r.spans.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.histograms.is_empty());
        drop(guard);
    }

    #[test]
    fn spans_nest_into_dot_paths() {
        let (_g, _s) = ObsSession::start();
        {
            let _outer = span("offline");
            {
                let _inner = span("features");
            }
            {
                let _inner = span("features");
            }
        }
        let r = report();
        let paths: Vec<&str> = r.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["offline", "offline.features"]);
        assert_eq!(r.span("offline.features").unwrap().count, 2);
        assert_eq!(r.span("offline").unwrap().count, 1);
        let outer = r.span("offline").unwrap();
        assert!(outer.min_ns <= outer.max_ns && outer.max_ns <= outer.total_ns);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let (_g, _s) = ObsSession::start();
        add("pairs", 3);
        add("pairs", 4);
        incr("pairs");
        observe("sizes", 2);
        observe("sizes", 70);
        let r = report();
        assert_eq!(r.counter("pairs"), Some(8));
        let h = &r.histograms[0];
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 72, 2, 70));
        assert_eq!(r.validate(), Ok(()));
    }

    #[test]
    fn add_zero_is_invisible() {
        let (_g, _s) = ObsSession::start();
        add("never", 0);
        assert_eq!(report().counter("never"), None);
    }

    #[test]
    fn seed_materializes_counter_without_incrementing() {
        let (_g, _s) = ObsSession::start();
        seed("maybe.zero");
        assert_eq!(report().counter("maybe.zero"), Some(0));
        add("maybe.zero", 2);
        seed("maybe.zero");
        assert_eq!(report().counter("maybe.zero"), Some(2));
    }

    #[test]
    fn metric_set_seeds_and_misses_exactly_its_declared_names() {
        let (_g, _s) = ObsSession::start();
        metric_set! {
            SET {
                counters { A = "m.a", B = "m.b" }
                histograms { H = "m.h" }
            }
        }
        assert_eq!(SET.missing(&report()), [A, B, H]);
        // A histogram named like a counter does not stand in for it.
        add(A, 3);
        observe(B, 1);
        assert_eq!(SET.missing(&report()), [B, H]);
        // Seeding materializes the rest at zero and leaves values alone.
        SET.seed();
        let r = report();
        assert_eq!(SET.missing(&r), Vec::<&str>::new());
        assert_eq!((r.counter(A), r.counter(B)), (Some(3), Some(0)));
        assert_eq!(r.validate(), Ok(()));
    }

    #[test]
    fn timeline_keeps_exact_calls_and_only_recent_chunks() {
        let (_g, _s) = ObsSession::start();
        let call = par_call().unwrap();
        let calls = 3 * TIMELINE_RETAINED as u64;
        for i in 0..calls {
            drop(call.chunk(0, 0, i as usize));
            drop(call.chunk(1, 1, i as usize));
        }
        let r = report();
        let t = &r.timelines[0];
        assert_eq!(t.calls, calls);
        assert_eq!(t.chunks.len(), TIMELINE_RETAINED);
        // What is retained is the tail of the stream.
        let oldest = calls - TIMELINE_RETAINED as u64 / 2;
        assert!(t.chunks.iter().all(|c| c.items >= oldest));
        assert_eq!(r.validate(), Ok(()));
    }

    #[test]
    fn chunk_guard_inherits_path_and_restores() {
        let (_g, _s) = ObsSession::start();
        let call = {
            let _stage = span("runtime");
            par_call().expect("enabled")
        };
        {
            let _c = call.chunk(1, 1, 10);
            // Spans opened inside the chunk nest under the caller's path.
            let _inner = span("reconcile");
            assert_eq!(current_path().as_deref(), Some("runtime.reconcile"));
        }
        assert_eq!(current_path(), None, "inherited prefix restored");
        let r = report();
        assert!(r.span("runtime.reconcile").is_some());
        let t = &r.timelines[0];
        assert_eq!(t.label, "runtime");
        assert_eq!(t.chunks.len(), 1);
        assert_eq!(t.chunks[0].worker, 1);
        assert_eq!(t.chunks[0].items, 10);
    }

    #[test]
    fn par_call_without_span_labels_par() {
        let (_g, _s) = ObsSession::start();
        let call = par_call().unwrap();
        drop(call.chunk(0, 0, 1));
        let r = report();
        assert_eq!(r.timelines[0].label, "par");
        assert_eq!(r.timelines[0].calls, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let (_g, _s) = ObsSession::start();
        add("x", 1);
        let _sp = span("y");
        drop(_sp);
        reset();
        let r = report();
        assert!(r.counters.is_empty() && r.spans.is_empty());
    }
}
