//! # pse-obs — zero-dependency structured observability
//!
//! Hierarchical spans, exact integer counters, fixed-bucket histograms and
//! per-worker parallel timelines for the synthesis pipeline, exported as
//! JSON ([`ObsReport::to_json`]) or a human-readable stage summary
//! ([`ObsReport::render_summary`]).
//!
//! ## Scope: one [`Obs`] per owner, one context per thread
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
//! A thread keeps exactly one observability context: the installed
//! `Obs`, the path of its open spans and the request trace it serves
//! ([`start_request_trace`]). [`Obs::install`] enters a fresh context (root
//! path, no trace); a [`ParCall`] carries a copy of the forking thread's
//! context, which each `pse-par` chunk enters. Both put the previous
//! context back when their scope drops.
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
//! - **Timelines** record one event per `pse-par` chunk (chunk index,
//!   start/stop) under the caller's label; each label keeps an exact call
//!   count and its [`TIMELINE_RETAINED`] most recent chunks.
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
//! A span appends its name to the thread's path on entry and cuts it back
//! on drop, so spans close in the reverse order they opened — which
//! scoped guards do by construction. Every guard is bound to the thread
//! that made it:
//!
//! ```compile_fail
//! let guard = pse_obs::span("stage");
//! std::thread::spawn(move || drop(guard)); // SpanGuard is not Send
//! ```
//!
//! `pse-par` worker threads start from the caller's path (see
//! [`par_call`]), so spans recorded inside parallel chunks stay attributed
//! to the stage that forked them.

pub mod hist;
mod metrics;
pub mod report;
mod sink;
pub mod trace;

pub use metrics::MetricSet;
pub use report::{
    BucketEntry, ChunkSummary, CounterEntry, HistogramSummary, ObsReport, SpanSummary,
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
use trace::ActiveTrace;

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

    /// Make this handle the calling thread's sink, in a fresh context (no
    /// open span, no request trace), until the returned scope drops, which
    /// restores whatever context the thread had before.
    pub fn install(&self) -> ObsScope {
        ObsScope::enter(Ctx { obs: Some(self.clone()), ..Ctx::default() })
    }

    /// Snapshot the sink into a deterministic-ordered [`ObsReport`].
    pub fn report(&self) -> ObsReport {
        self.0.snapshot()
    }
}

/// A thread's observability context: who records, where in the span tree
/// the thread stands, and which request it serves.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ctx {
    /// The installed handle; `None` leaves every entry point inert.
    obs: Option<Obs>,
    /// Dotted path of the innermost open span, starting with the forking
    /// caller's on a `pse-par` worker; empty at the root.
    path: String,
    /// Spans open on this thread, plus the forking caller's on a worker.
    pub(crate) depth: u64,
    /// The request trace closed spans are appended to, if any.
    pub(crate) trace: Option<ActiveTrace>,
}

thread_local! {
    static CTX: RefCell<Ctx> =
        const { RefCell::new(Ctx { obs: None, path: String::new(), depth: 0, trace: None }) };
}

/// Run `f` on the calling thread's context.
pub(crate) fn with_ctx<R>(f: impl FnOnce(&mut Ctx) -> R) -> R {
    CTX.with(|c| f(&mut c.borrow_mut()))
}

/// The scope of one entered context ([`Obs::install`], [`ParCall::chunk`]),
/// bound to the thread that entered it.
#[must_use = "the Obs is installed only until the scope drops; bind it to a variable"]
#[derive(Debug)]
pub struct ObsScope {
    prev: Ctx,
    _thread: PhantomData<*const ()>,
}

impl ObsScope {
    fn enter(ctx: Ctx) -> Self {
        Self { prev: with_ctx(|c| std::mem::replace(c, ctx)), _thread: PhantomData }
    }
}

impl Drop for ObsScope {
    fn drop(&mut self) {
        let prev = std::mem::take(&mut self.prev);
        // The context being left drops outside the thread-local's borrow.
        drop(with_ctx(|c| std::mem::replace(c, prev)));
    }
}

/// The calling thread's installed [`Obs`], if any: what a component that
/// runs work on threads of its own captures to install there.
pub fn current() -> Option<Obs> {
    with_ctx(|c| c.obs.clone())
}

/// Is an [`Obs`] installed on this thread? One thread-local read — the
/// off path every instrumentation site is gated behind.
pub fn enabled() -> bool {
    with_ctx(|c| c.obs.is_some())
}

/// Run `f` on the installed sink, if any.
fn with_sink(f: impl FnOnce(&Sink)) {
    with_ctx(|c| c.obs.as_ref().map(|obs| f(&obs.0)));
}

// ---- spans -----------------------------------------------------------------

/// RAII span guard: measures monotonic wall time from construction to drop
/// and records it under the hierarchical path. Inactive (and free) when no
/// [`Obs`] is installed.
#[must_use = "a span measures until it is dropped; bind it to a variable"]
#[derive(Debug)]
pub struct SpanGuard {
    /// Length of the thread's path before this span entered; `None` when
    /// inert.
    parent_len: Option<usize>,
    start_ns: u64,
    _thread: PhantomData<*const ()>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(parent_len) = self.parent_len else { return };
        let dur = now_ns().saturating_sub(self.start_ns);
        with_ctx(|c| {
            if let Some(trace) = &c.trace {
                trace.record(&c.path, c.depth, self.start_ns, dur);
            }
            if let Some(obs) = &c.obs {
                obs.0.record_span(&c.path, dur);
            }
            // Only a span closed out of order can leave a cut mid-character;
            // keep the path then rather than panic in drop.
            if c.path.is_char_boundary(parent_len) {
                c.path.truncate(parent_len);
            }
            c.depth = c.depth.saturating_sub(1);
        });
    }
}

/// Enter a span named `name`, nested under the currently active span (or
/// the forking `pse-par` caller's path). Returns the RAII guard that
/// records the timing on drop. When a request trace is active on this
/// thread ([`start_request_trace`]), the closed span is also appended to
/// that request's span tree.
pub fn span(name: &str) -> SpanGuard {
    let parent_len = with_ctx(|c| {
        c.obs.as_ref()?;
        let parent_len = c.path.len();
        if parent_len > 0 {
            c.path.push('.');
        }
        c.path.push_str(name);
        c.depth += 1;
        Some(parent_len)
    });
    let start_ns = if parent_len.is_some() { now_ns() } else { 0 };
    SpanGuard { parent_len, start_ns, _thread: PhantomData }
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

/// The calling thread's context, captured at the start of a `pse-par`
/// parallel call: each chunk enters a copy of it, so workers record into
/// the caller's [`Obs`], nest their spans under the caller's path and
/// append them to the caller's request trace. The path also labels the
/// call's timeline.
#[derive(Debug)]
pub struct ParCall {
    ctx: Ctx,
}

/// Capture the calling thread's context for a parallel call about to fan
/// out. Returns `None` when no `Obs` is installed, so the executor's off
/// path stays one thread-local read.
pub fn par_call() -> Option<ParCall> {
    with_ctx(|c| c.obs.is_some().then(|| ParCall { ctx: c.clone() }))
}

impl ParCall {
    /// Enter chunk `index` (of `items` items) of this parallel call on the
    /// current thread: the caller's context is this thread's until the
    /// guard drops, which records a timeline event and restores the
    /// thread's own.
    pub fn chunk(&self, index: usize, items: usize) -> ChunkGuard<'_> {
        ChunkGuard {
            call: self,
            index: index as u64,
            items: items as u64,
            start_ns: now_ns(),
            _ctx: ObsScope::enter(self.ctx.clone()),
        }
    }

    /// The timeline label: the caller's span path, `par` at the root.
    fn label(&self) -> &str {
        if self.ctx.path.is_empty() {
            "par"
        } else {
            &self.ctx.path
        }
    }
}

/// RAII guard for one executed chunk; see [`ParCall::chunk`].
#[must_use = "a chunk guard measures until it is dropped; bind it to a variable"]
#[derive(Debug)]
pub struct ChunkGuard<'a> {
    call: &'a ParCall,
    index: u64,
    items: u64,
    start_ns: u64,
    /// Dropped after [`Drop::drop`] ran, so the chunk records first.
    _ctx: ObsScope,
}

impl Drop for ChunkGuard<'_> {
    fn drop(&mut self) {
        let ev = ChunkSummary {
            worker: self.index,
            chunk: self.index,
            items: self.items,
            start_ns: self.start_ns,
            dur_ns: now_ns().saturating_sub(self.start_ns),
        };
        with_sink(|s| s.record_chunk(self.call.label(), ev));
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
            drop(call.chunk(0, i as usize));
            drop(call.chunk(1, i as usize));
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

    fn path() -> String {
        with_ctx(|c| c.path.clone())
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
            let _c = call.chunk(1, 10);
            // Spans opened inside the chunk nest under the caller's path.
            let _inner = span("reconcile");
            assert_eq!(path(), "runtime.reconcile");
        }
        assert_eq!(path(), "", "the thread's own path restored");
        assert!(!enabled(), "the caller's Obs uninstalled");
        let r = obs.report();
        assert!(r.span("runtime.reconcile").is_some());
        let t = &r.timelines[0];
        assert_eq!(t.label, "runtime");
        assert_eq!(t.chunks.len(), 1);
        assert_eq!((t.chunks[0].worker, t.chunks[0].chunk), (1, 1));
        assert_eq!(t.chunks[0].items, 10);
    }

    #[test]
    fn install_enters_a_fresh_context() {
        let (outer, inner) = (Obs::new(), Obs::new());
        let _on = outer.install();
        let trace = start_request_trace(None);
        let stage = span("stage");
        {
            let _nested = inner.install();
            assert_eq!(path(), "", "no span is open in the new context");
            let _s = span("own");
        }
        assert_eq!(path(), "stage", "the outer context is back as it was");
        drop(span("after"));
        drop(stage);
        let done = trace.finish("other", 200).expect("recording");
        let traced: Vec<&str> = done.spans.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(traced, ["stage.after", "stage"], "the inner context had no trace");
        let paths = |obs: &Obs| obs.report().spans.into_iter().map(|s| s.path).collect::<Vec<_>>();
        assert_eq!(paths(&outer), ["stage", "stage.after"]);
        assert_eq!(paths(&inner), ["own"]);
    }

    #[test]
    fn par_call_without_span_labels_par() {
        let obs = Obs::new();
        let _on = obs.install();
        let call = par_call().unwrap();
        drop(call.chunk(0, 1));
        let r = obs.report();
        assert_eq!(r.timelines[0].label, "par");
        assert_eq!(r.timelines[0].calls, 1);
    }
}
