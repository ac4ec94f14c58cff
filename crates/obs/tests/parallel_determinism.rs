//! The sink's determinism contract under real parallelism: for a fixed
//! workload, counter totals are *exactly* equal at any thread count, and
//! the exported event structure (span paths, per-path counts, histogram
//! aggregates) is identical no matter how chunks interleave.
//!
//! `pse-par` is a dev-dependency here (cargo allows the dev-only cycle);
//! it gives the test the same executor the pipeline runs on.

use proptest::prelude::*;
use pse_obs::Obs;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// A deterministic fingerprint of the report's *structural* content — the
/// parts that must not depend on thread count or interleaving. Durations
/// and timeline timings are excluded by construction.
fn fingerprint(r: &pse_obs::ObsReport) -> String {
    let mut out = String::new();
    for s in &r.spans {
        out.push_str(&format!("span {} x{}\n", s.path, s.count));
    }
    for c in &r.counters {
        out.push_str(&format!("counter {} = {}\n", c.name, c.value));
    }
    for h in &r.histograms {
        out.push_str(&format!(
            "hist {} n={} sum={} min={} max={} buckets={:?}\n",
            h.name,
            h.count,
            h.sum,
            h.min,
            h.max,
            h.buckets.iter().map(|b| (b.le, b.count)).collect::<Vec<_>>()
        ));
    }
    for t in &r.timelines {
        out.push_str(&format!(
            "timeline {} items={}\n",
            t.label,
            t.chunks.iter().map(|c| c.items).sum::<u64>()
        ));
    }
    out
}

proptest! {
    #[test]
    fn counters_sum_exactly_at_any_thread_count(
        values in prop::collection::vec(0u64..1_000, 1..200),
    ) {
        let expected: u64 = values.iter().sum();
        for threads in THREAD_COUNTS {
            let obs = Obs::new();
            let _on = obs.install();
            pse_par::with_threads(threads, || {
                pse_par::par_map(&values, |&v| {
                    pse_obs::add("test.values", v);
                    pse_obs::incr("test.items");
                    v
                })
            });
            let r = obs.report();
            // `add(_, 0)` records nothing, so the counter is absent when
            // every sampled value is zero.
            prop_assert_eq!(
                r.counter("test.values").unwrap_or(0), expected,
                "threads={}", threads
            );
            prop_assert_eq!(
                r.counter("test.items"), Some(values.len() as u64),
                "threads={}", threads
            );
        }
    }

    #[test]
    fn event_structure_is_thread_count_invariant(
        values in prop::collection::vec(1u64..500, 2..120),
    ) {
        let workload = |threads: usize| {
            let obs = Obs::new();
            let _on = obs.install();
            let stage = pse_obs::span("test.stage");
            pse_par::with_threads(threads, || {
                pse_par::par_map(&values, |&v| {
                    // A span per item, opened inside worker threads:
                    // the path must inherit "test.stage" everywhere.
                    let _s = pse_obs::span("item");
                    pse_obs::observe("test.sizes", v);
                    v * 2
                })
            });
            drop(stage);
            obs.report()
        };
        let baseline = fingerprint(&workload(1));
        for threads in &THREAD_COUNTS[1..] {
            prop_assert_eq!(
                &fingerprint(&workload(*threads)), &baseline,
                "threads={}", threads
            );
        }
        // And re-running at the same thread count is also identical.
        prop_assert_eq!(&fingerprint(&workload(4)), &fingerprint(&workload(4)));
    }

    #[test]
    fn timeline_covers_every_item_exactly_once(
        len in 1usize..300,
        threads in 1usize..9,
    ) {
        let items: Vec<u64> = (0..len as u64).collect();
        let obs = Obs::new();
        let _on = obs.install();
        pse_par::with_threads(threads, || pse_par::par_map(&items, |&v| v + 1));
        let r = obs.report();
        prop_assert_eq!(r.timelines.len(), 1);
        let t = &r.timelines[0];
        // Chunks partition the input: item counts sum to the input length,
        // chunk indices are 0..n with distinct workers.
        let total: u64 = t.chunks.iter().map(|c| c.items).sum();
        prop_assert_eq!(total, len as u64);
        let mut chunk_ids: Vec<u64> = t.chunks.iter().map(|c| c.chunk).collect();
        chunk_ids.sort_unstable();
        prop_assert_eq!(chunk_ids, (0..t.chunks.len() as u64).collect::<Vec<_>>());
        prop_assert!(t.chunks.len() <= threads.max(1));
        prop_assert_eq!(t.calls, 1);
    }
}

#[test]
fn nested_par_spans_attribute_to_caller_path() {
    let items: Vec<u64> = (0..64).collect();
    let obs = Obs::new();
    let _on = obs.install();
    let run = pse_obs::span("pipeline");
    pse_par::with_threads(4, || {
        pse_par::par_map(&items, |&v| {
            let _s = pse_obs::span("work");
            v
        })
    });
    drop(run);
    let r = obs.report();
    let span = r.span("pipeline.work").expect("worker spans inherit the caller path");
    assert_eq!(span.count, 64);
    assert_eq!(r.timelines[0].label, "pipeline");
    assert_eq!(r.validate(), Ok(()));
}
