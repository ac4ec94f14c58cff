//! # pse-obs — zero-dependency structured observability
//!
//! Hierarchical spans, exact integer counters, fixed-bucket histograms and
//! per-worker parallel timelines for the synthesis pipeline, exported as
//! JSON ([`ObsReport::to_json`]) or a human-readable stage summary
//! ([`ObsReport::render_summary`]).
//!
//! ## Scope: one [`Obs`] per owner
//!
//! Everything records into an [`Obs`], a handle on one sink owned by
//! whoever runs the work (a server, a pipeline run, a test) and installed
//! on the threads doing it: [`Obs::install`] on the owner's, [`par_call`]
//! on `pse-par` workers, [`current`] captured by a server for its own.
//! Two owners in one process never see each other's counters. With none
//! installed (the default) every entry point is one thread-local read and
//! records nothing; recording never influences pipeline outputs either
//! way (`determinism_par` compares runs with and without an `Obs`
//! byte-for-byte).
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
//! let obs = pse_obs::Obs::new();
//! {
//!     let _on = obs.install();
//!     let _run = pse_obs::span("offline");
//!     let _stage = pse_obs::span("features"); // records "offline.features"
//! }
//! assert_eq!(obs.report().span("offline.features").unwrap().count, 1);
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

use std::cell::RefCell;
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use sink::Sink;
pub use sink::TIMELINE_RETAINED;

/// Monotonic nanoseconds since the first observability call in this
/// process (the epoch all span/timeline timestamps share).
pub(crate) fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let epoch = EPOCH.get_or_init(Instant::now);
    u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A handle on one sink. Clones share it; see the crate docs for who owns
/// one and how threads inherit it.
#[derive(Debug, Clone, Default)]
pub struct Obs(Arc<Sink>);

impl Obs {
    /// A handle on a fresh, empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh handle when the `PSE_OBS` environment variable is set to
    /// anything but empty or `0`. The only place the variable is read:
    /// binaries ask for it, the library never does.
    pub fn from_env() -> Option<Self> {
        let on = std::env::var("PSE_OBS").is_ok_and(|v| !matches!(v.trim(), "" | "0"));
        on.then(Self::new)
    }

    /// Make this handle the calling thread's sink until the returned scope
    /// drops, which restores whatever was installed before.
    pub fn install(&self) -> ObsScope {
        ObsScope { prev: CURRENT.with(|c| c.replace(Some(self.clone()))), _thread: PhantomData }
    }

    /// Snapshot the sink into a deterministic-ordered [`ObsReport`].
    pub fn report(&self) -> ObsReport {
        self.0.snapshot()
    }
}

/// The scope of one [`Obs::install`], bound to the thread that made it.
#[must_use = "the Obs is installed only until the scope drops; bind it to a variable"]
#[derive(Debug)]
pub struct ObsScope {
    prev: Option<Obs>,
    _thread: PhantomData<*const ()>,
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        CURRENT.with(|c| *c.borrow_mut() = self.prev.take());
    }
}

thread_local! {
    /// The installed handle, if any.
    static CURRENT: RefCell<Option<Obs>> = const { RefCell::new(None) };
    /// Stack of full span paths active on this thread.
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
    /// Path prefix inherited from the spawning `pse-par` caller.
    static INHERITED: RefCell<Option<Arc<str>>> = const { RefCell::new(None) };
}

/// The calling thread's installed [`Obs`], if any: what a component that
/// runs work on threads of its own captures to install there.
pub fn current() -> Option<Obs> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Is an [`Obs`] installed on this thread? One thread-local read — the
/// off path every instrumentation site is gated behind.
pub fn enabled() -> bool {
    CURRENT.with(|c| c.borrow().is_some())
}

/// Run `f` on the installed sink, if any.
fn with_sink(f: impl FnOnce(&Sink)) {
    CURRENT.with(|c| c.borrow().as_ref().map(|obs| f(&obs.0)));
}

// ---- spans -----------------------------------------------------------------

/// The full hierarchical path active on this thread, if any.
fn current_path() -> Option<String> {
    SPAN_STACK
        .with(|s| s.borrow().last().cloned())
        .or_else(|| INHERITED.with(|i| i.borrow().as_ref().map(|p| p.to_string())))
}

/// RAII span guard: measures monotonic wall time from construction to drop
/// and records it under the hierarchical path. Inactive (and free) when no
/// [`Obs`] is installed.
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
            SPAN_STACK.with(|s| s.borrow_mut().pop());
            if self.traced {
                trace::span_exit(&path, self.start_ns, dur);
            }
            with_sink(|s| s.record_span(path, dur));
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

// ---- counters & histograms -------------------------------------------------

/// Add `n` to the named counter. Integer sums commute, so totals are
/// identical at any thread count.
pub fn add(name: &str, n: u64) {
    if n > 0 {
        with_sink(|s| s.add_counter(name, n));
    }
}

/// Materialize the named counter at its current value (0 if new) without
/// incrementing it. Use at the start of a stage whose counters may
/// legitimately stay at zero, so reports (and report checkers) always see
/// the counter when the stage ran. [`add`] skips `n == 0` by design, so a
/// zero total would otherwise leave no trace.
pub fn seed(name: &str) {
    with_sink(|s| s.seed_counter(name));
}

/// Increment the named counter by one.
pub fn incr(name: &str) {
    with_sink(|s| s.add_counter(name, 1));
}

/// Materialize the named histogram with zero samples (if new) without
/// recording anything — the histogram analogue of [`seed`]. Use at the
/// start of a stage whose distributions may legitimately stay empty, so
/// reports (and report checkers) always see the histogram when the stage
/// ran.
pub fn seed_histogram(name: &str) {
    with_sink(|s| s.seed_histogram(name));
}

/// Record one value into the named fixed-bucket histogram.
pub fn observe(name: &str, value: u64) {
    with_sink(|s| s.record_histogram(name, value));
}

// ---- pse-par timeline integration ------------------------------------------

/// Context captured on the calling thread at the start of a `pse-par`
/// parallel call; workers use it to record into the caller's [`Obs`], to
/// attribute their chunk to the caller's span path and to inherit that
/// path for spans of their own.
#[derive(Debug)]
pub struct ParCall {
    obs: Obs,
    label: Arc<str>,
    /// The caller's request-trace context, if one was active — workers
    /// install it so their spans land in the same request's span tree.
    trace: Option<trace::TraceCtx>,
}

/// Capture the installed [`Obs`] and the current span path (the call's
/// label) for a parallel call about to fan out. Returns `None` when no
/// `Obs` is installed, so the executor's off path stays one thread-local
/// read.
pub fn par_call() -> Option<Arc<ParCall>> {
    let obs = current()?;
    let label: Arc<str> = current_path().unwrap_or_else(|| "par".to_string()).into();
    Some(Arc::new(ParCall { obs, label, trace: trace::current_ctx() }))
}

impl ParCall {
    /// Enter one chunk of this parallel call on the current (worker)
    /// thread: installs the caller's [`Obs`], inherits its span path and
    /// request trace, and records a timeline event on drop.
    pub fn chunk(&self, worker: usize, chunk: usize, items: usize) -> ChunkGuard {
        ChunkGuard {
            label: self.label.clone(),
            worker: worker as u64,
            chunk: chunk as u64,
            items: items as u64,
            start_ns: now_ns(),
            prev_inherited: INHERITED.with(|i| i.replace(Some(self.label.clone()))),
            prev_trace: trace::install(self.trace.as_ref()),
            _obs: self.obs.install(),
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
    prev_trace: Option<trace::ActiveTrace>,
    /// Dropped after [`Drop::drop`] ran, so the chunk records first.
    _obs: ObsScope,
}

impl Drop for ChunkGuard {
    fn drop(&mut self) {
        let ev = ChunkSummary {
            worker: self.worker,
            chunk: self.chunk,
            items: self.items,
            start_ns: self.start_ns,
            dur_ns: now_ns().saturating_sub(self.start_ns),
        };
        with_sink(|s| s.record_chunk(&self.label, ev));
        INHERITED.with(|i| *i.borrow_mut() = self.prev_inherited.take());
        trace::restore(self.prev_trace.take());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let obs = Obs::new();
        {
            let _s = span("ghost");
            add("ghost.counter", 5);
            observe("ghost.hist", 1);
            assert!(par_call().is_none());
        }
        let r = obs.report();
        assert!(r.spans.is_empty());
        assert!(r.counters.is_empty());
        assert!(r.histograms.is_empty());
    }

    #[test]
    fn each_obs_records_only_its_own_work() {
        let (outer, inner) = (Obs::new(), Obs::new());
        let _on = outer.install();
        incr("work");
        {
            let _nested = inner.install();
            add("work", 5);
        }
        incr("work");
        let on_other_thread = std::thread::spawn(|| (enabled(), current().is_none()));
        assert_eq!(on_other_thread.join().unwrap(), (false, true), "a new thread inherits nothing");
        assert_eq!(outer.report().counter("work"), Some(2), "the nested scope restored outer");
        assert_eq!(inner.report().counter("work"), Some(5));
    }

    #[test]
    fn spans_nest_into_dot_paths() {
        let obs = Obs::new();
        let _on = obs.install();
        {
            let _outer = span("offline");
            {
                let _inner = span("features");
            }
            {
                let _inner = span("features");
            }
        }
        let r = obs.report();
        let paths: Vec<&str> = r.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["offline", "offline.features"]);
        assert_eq!(r.span("offline.features").unwrap().count, 2);
        assert_eq!(r.span("offline").unwrap().count, 1);
        let outer = r.span("offline").unwrap();
        assert!(outer.min_ns <= outer.max_ns && outer.max_ns <= outer.total_ns);
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let obs = Obs::new();
        let _on = obs.install();
        add("pairs", 3);
        add("pairs", 4);
        incr("pairs");
        observe("sizes", 2);
        observe("sizes", 70);
        let r = obs.report();
        assert!(r.enabled);
        assert_eq!(r.counter("pairs"), Some(8));
        let h = &r.histograms[0];
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 72, 2, 70));
        assert_eq!(r.validate(), Ok(()));
    }

    #[test]
    fn add_zero_is_invisible() {
        let obs = Obs::new();
        let _on = obs.install();
        add("never", 0);
        assert_eq!(obs.report().counter("never"), None);
    }

    #[test]
    fn seed_materializes_counter_without_incrementing() {
        let obs = Obs::new();
        let _on = obs.install();
        seed("maybe.zero");
        assert_eq!(obs.report().counter("maybe.zero"), Some(0));
        add("maybe.zero", 2);
        seed("maybe.zero");
        assert_eq!(obs.report().counter("maybe.zero"), Some(2));
    }

    #[test]
    fn metric_set_seeds_and_misses_exactly_its_declared_names() {
        let obs = Obs::new();
        let _on = obs.install();
        metric_set! {
            SET {
                counters { A = "m.a", B = "m.b" }
                histograms { H = "m.h" }
            }
        }
        assert_eq!(SET.missing(&obs.report()), [A, B, H]);
        // A histogram named like a counter does not stand in for it.
        add(A, 3);
        observe(B, 1);
        assert_eq!(SET.missing(&obs.report()), [B, H]);
        // Seeding materializes the rest at zero and leaves values alone.
        SET.seed();
        let r = obs.report();
        assert_eq!(SET.missing(&r), Vec::<&str>::new());
        assert_eq!((r.counter(A), r.counter(B)), (Some(3), Some(0)));
        assert_eq!(r.validate(), Ok(()));
    }

    #[test]
    fn timeline_keeps_exact_calls_and_only_recent_chunks() {
        let obs = Obs::new();
        let _on = obs.install();
        let call = par_call().unwrap();
        let calls = 3 * TIMELINE_RETAINED as u64;
        for i in 0..calls {
            drop(call.chunk(0, 0, i as usize));
            drop(call.chunk(1, 1, i as usize));
        }
        let r = obs.report();
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
        let obs = Obs::new();
        let call = {
            let _on = obs.install();
            let _stage = span("runtime");
            par_call().expect("enabled")
        };
        // As on a worker thread: nothing installed until the chunk enters.
        {
            let _c = call.chunk(1, 1, 10);
            // Spans opened inside the chunk nest under the caller's path.
            let _inner = span("reconcile");
            assert_eq!(current_path().as_deref(), Some("runtime.reconcile"));
        }
        assert_eq!(current_path(), None, "inherited prefix restored");
        assert!(!enabled(), "the caller's Obs uninstalled");
        let r = obs.report();
        assert!(r.span("runtime.reconcile").is_some());
        let t = &r.timelines[0];
        assert_eq!(t.label, "runtime");
        assert_eq!(t.chunks.len(), 1);
        assert_eq!(t.chunks[0].worker, 1);
        assert_eq!(t.chunks[0].items, 10);
    }

    #[test]
    fn par_call_without_span_labels_par() {
        let obs = Obs::new();
        let _on = obs.install();
        let call = par_call().unwrap();
        drop(call.chunk(0, 0, 1));
        let r = obs.report();
        assert_eq!(r.timelines[0].label, "par");
        assert_eq!(r.timelines[0].calls, 1);
    }
}
