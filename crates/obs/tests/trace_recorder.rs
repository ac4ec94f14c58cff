//! Request tracing and flight recorder under real concurrency.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pse_obs::{
    start_request_trace, FlightRecorder, Obs, RecorderConfig, RequestTrace, TraceId, TraceSpan,
};
use serde::Deserialize;

fn trace(id: u64, total_ns: u64) -> RequestTrace {
    RequestTrace {
        id: TraceId(id),
        endpoint: "products".into(),
        status: 200,
        start_ns: id,
        total_ns,
        dropped_spans: 0,
        spans: vec![TraceSpan {
            path: "serve.request.products".into(),
            depth: 1,
            start_ns: 0,
            dur_ns: total_ns / 2,
        }],
    }
}

/// Satellite: N threads completing traces against a small ring, a reader
/// polling JSON mid-churn. Capacity is never exceeded, the JSON stays
/// valid throughout, and the slowest-over-threshold trace is never
/// evicted.
#[test]
fn recorder_under_concurrent_churn() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 200;
    let recorder = Arc::new(FlightRecorder::new(RecorderConfig {
        recent_capacity: 8,
        slow_capacity: 4,
        slow_threshold_ns: 1_000,
    }));
    let stop = AtomicBool::new(false);
    // One deterministic excursion far above everything else, plus a few
    // threshold-crossers per thread; the bulk stays fast.
    let slowest_id = PER_THREAD + 7; // thread 1, i 7
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let recorder = Arc::clone(&recorder);
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    let id = t * PER_THREAD + i;
                    let total = if id == slowest_id {
                        9_999_999
                    } else if i % 50 == 0 {
                        2_000 + id // over threshold, all distinct
                    } else {
                        10 + (id % 7)
                    };
                    recorder.record(trace(id, total));
                }
            });
        }
        // Reader thread: /debug/requests must be valid JSON mid-churn and
        // the windows must respect their capacities at every observation.
        let recorder_r = Arc::clone(&recorder);
        let stop_r = &stop;
        let reader = scope.spawn(move || {
            let mut observations = 0u32;
            while !stop_r.load(Ordering::Relaxed) {
                let json = recorder_r.requests_json();
                let parsed: serde::Value =
                    serde_json::from_str(&json).expect("valid JSON mid-churn");
                let dbg = pse_obs::DebugRequests::from_value(&parsed).expect("well-shaped");
                assert!(dbg.recent.len() <= 8, "recent window over capacity");
                assert!(dbg.slowest.len() <= 4, "slow set over capacity");
                assert!(dbg.slowest.windows(2).all(|w| w[0].total_ns >= w[1].total_ns));
                observations += 1;
            }
            observations
        });
        // scope joins the writers; then stop the reader.
        std::thread::sleep(std::time::Duration::from_millis(5));
        stop.store(true, Ordering::Relaxed);
        assert!(reader.join().expect("reader joins") > 0);
    });
    assert_eq!(recorder.recorded(), THREADS * PER_THREAD);
    assert_eq!(recorder.recent().len(), 8);
    let slow = recorder.slowest();
    assert_eq!(slow.len(), 4, "slow set filled");
    assert_eq!(slow[0].id, TraceId(slowest_id), "the slowest request is never evicted");
    assert_eq!(slow[0].total_ns, 9_999_999);
    assert!(slow.iter().all(|t| t.total_ns >= 1_000), "only over-threshold traces tail-sampled");
    assert_eq!(recorder.find(TraceId(slowest_id)).unwrap().total_ns, 9_999_999);
}

/// The span-tree contract: spans closed while a trace is active land in
/// the trace with correct depths, and same-depth durations on one thread
/// sum to at most the request total.
#[test]
fn request_trace_records_nested_spans() {
    let _on = Obs::new().install();
    let trace = start_request_trace(Some(TraceId(0xabc)));
    assert!(trace.active());
    {
        let _req = pse_obs::span("serve.request");
        {
            let _parse = pse_obs::span("parse");
        }
        {
            let _route = pse_obs::span("products");
            let _probe = pse_obs::span("cache_probe");
        }
    }
    let done = trace.finish("products", 200).expect("recording");

    assert_eq!(done.id, TraceId(0xabc));
    assert_eq!((done.endpoint.as_str(), done.status), ("products", 200));
    assert_eq!(done.dropped_spans, 0);
    let got: Vec<(&str, u64)> = done.spans.iter().map(|s| (s.path.as_str(), s.depth)).collect();
    // Spans appear in completion order, depth 1 = children of the envelope.
    assert_eq!(
        got,
        [
            ("serve.request.parse", 2),
            ("serve.request.products.cache_probe", 3),
            ("serve.request.products", 2),
            ("serve.request", 1),
        ]
    );
    // Per-stage (same depth, same thread) durations sum to <= the total.
    for depth in [1, 2, 3] {
        let stage_sum: u64 = done.spans.iter().filter(|s| s.depth == depth).map(|s| s.dur_ns).sum();
        assert!(
            stage_sum <= done.total_ns,
            "depth-{depth} spans sum to {stage_sum} > total {}",
            done.total_ns
        );
    }
    // And every span fits inside the request window.
    for s in &done.spans {
        assert!(s.start_ns + s.dur_ns <= done.total_ns + 1_000, "span outside request window");
    }
}

/// Trace context crosses the `ParCall` handshake: spans recorded inside
/// `pse-par` worker chunks land in the forking request's span tree, at a
/// depth below the forking span.
#[test]
fn par_workers_contribute_to_the_request_trace() {
    let _on = Obs::new().install();
    let trace = start_request_trace(None);
    let items: Vec<u64> = (0..64).collect();
    let out = {
        let _req = pse_obs::span("serve.request");
        let _route = pse_obs::span("ingest");
        pse_par::with_threads(4, || {
            pse_par::par_map(&items, |&x| {
                let _w = pse_obs::span("reconcile");
                x * 2
            })
        })
    };
    let done = trace.finish("ingest", 200).expect("recording");

    assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    let workers: Vec<&TraceSpan> =
        done.spans.iter().filter(|s| s.path == "serve.request.ingest.reconcile").collect();
    assert!(!workers.is_empty(), "worker spans reached the trace");
    assert!(
        workers.iter().all(|s| s.depth == 3),
        "worker spans nest one below the forking span (depth 2)"
    );
    // Worker spans carry the trace-relative clock too.
    assert!(workers.iter().all(|s| s.start_ns + s.dur_ns <= done.total_ns + 1_000));
}

/// A fork of a fork: a `pse-par` call made inside a worker chunk hands on
/// the worker's context, so the inner workers' spans nest under both
/// forking spans, in the sink and in the same request trace.
#[test]
fn nested_par_calls_hand_on_the_whole_context() {
    let obs = Obs::new();
    let _on = obs.install();
    let trace = start_request_trace(None);
    let items: Vec<u64> = (0..4).collect();
    {
        let _req = pse_obs::span("serve.request");
        pse_par::with_threads(2, || {
            pse_par::par_map(&items, |&x| {
                let _outer = pse_obs::span("outer");
                pse_par::par_map(&items, |&y| {
                    let _inner = pse_obs::span("inner");
                    x + y
                })
            })
        });
    }
    let done = trace.finish("ingest", 200).expect("recording");

    let inner: Vec<&TraceSpan> =
        done.spans.iter().filter(|s| s.path == "serve.request.outer.inner").collect();
    assert_eq!(inner.len(), 16, "every inner span reached the trace");
    assert!(inner.iter().all(|s| s.depth == 3), "one below the inner fork's span (depth 2)");
    let report = obs.report();
    assert_eq!(report.span("serve.request.outer.inner").map(|s| s.count), Some(16));
    let labels: Vec<&str> = report.timelines.iter().map(|t| t.label.as_str()).collect();
    assert_eq!(labels, ["serve.request", "serve.request.outer"]);
}

/// The per-trace span cap: pathological requests count drops instead of
/// growing without bound.
#[test]
fn span_cap_counts_drops() {
    let _on = Obs::new().install();
    let trace = start_request_trace(None);
    for _ in 0..(pse_obs::trace::MAX_TRACE_SPANS + 40) {
        let _s = pse_obs::span("tick");
    }
    let done = trace.finish("other", 200).expect("recording");
    assert_eq!(done.spans.len(), pse_obs::trace::MAX_TRACE_SPANS);
    assert_eq!(done.dropped_spans, 40);
}

/// Inert guard while no `Obs` is installed: no trace installed, finish
/// yields nothing, spans record nowhere.
#[test]
fn trace_guard_is_inert_when_disabled() {
    let trace = start_request_trace(None);
    assert!(!trace.active());
    assert_eq!(trace.id(), None);
    {
        let _s = pse_obs::span("ghost");
    }
    assert!(trace.finish("other", 200).is_none());
}

/// Dropping a guard without finishing uninstalls cleanly: a following
/// trace starts from scratch.
#[test]
fn dropped_guard_uninstalls() {
    let _on = Obs::new().install();
    {
        let _abandoned = start_request_trace(None);
        let _s = pse_obs::span("before");
    }
    let trace = start_request_trace(None);
    {
        let _s = pse_obs::span("after");
    }
    let done = trace.finish("other", 200).expect("recording");
    let paths: Vec<&str> = done.spans.iter().map(|s| s.path.as_str()).collect();
    assert_eq!(paths, ["after"], "abandoned trace's spans do not leak into the next");
}
