//! The event sink behind one [`Obs`](crate::Obs): thread-safe aggregation
//! with deterministic export ordering.
//!
//! Spans and histograms aggregate *incrementally* (per-path / per-name
//! integer merges) and each timeline label keeps an exact call count plus
//! only its [`TIMELINE_RETAINED`] most recent chunk events, so memory is
//! bounded by the number of distinct names — not by how many events are
//! recorded — and the export order is the `BTreeMap` key order, fully
//! deterministic regardless of thread interleaving. Counters are exact
//! integer sums, which commute, so any interleaving yields the same value.

use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;

use crate::hist::{Histogram, BUCKET_BOUNDS};
use crate::report::{
    BucketEntry, ChunkSummary, CounterEntry, HistogramSummary, ObsReport, SpanSummary,
    TimelineGroup, SCHEMA_VERSION,
};

/// Aggregated state of one span path.
#[derive(Debug)]
struct SpanAgg {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
}

/// Chunk events kept per timeline label: a long-running server records
/// one per `pse-par` chunk forever, so only the most recent ones are held
/// (enough for the utilization estimate); `calls` stays exact.
pub const TIMELINE_RETAINED: usize = 256;

/// Aggregated state of one timeline label.
#[derive(Debug, Default)]
struct TimelineAgg {
    calls: u64,
    recent: VecDeque<ChunkSummary>,
}

/// One handle's sink.
#[derive(Debug, Default)]
pub(crate) struct Sink {
    spans: Mutex<BTreeMap<String, SpanAgg>>,
    counters: Mutex<BTreeMap<String, u64>>,
    histograms: Mutex<BTreeMap<String, Histogram>>,
    timelines: Mutex<BTreeMap<String, TimelineAgg>>,
}

impl Sink {
    pub fn record_span(&self, path: &str, dur_ns: u64) {
        let mut spans = self.spans.lock().expect("span sink poisoned");
        match spans.get_mut(path) {
            Some(agg) => {
                agg.count += 1;
                agg.total_ns += dur_ns;
                agg.min_ns = agg.min_ns.min(dur_ns);
                agg.max_ns = agg.max_ns.max(dur_ns);
            }
            None => {
                let first = SpanAgg { count: 1, total_ns: dur_ns, min_ns: dur_ns, max_ns: dur_ns };
                spans.insert(path.to_string(), first);
            }
        }
    }

    pub fn add_counter(&self, name: &str, n: u64) {
        let mut counters = self.counters.lock().expect("counter sink poisoned");
        match counters.get_mut(name) {
            Some(v) => *v += n,
            None => {
                counters.insert(name.to_string(), n);
            }
        }
    }

    pub fn seed_counter(&self, name: &str) {
        let mut counters = self.counters.lock().expect("counter sink poisoned");
        if !counters.contains_key(name) {
            counters.insert(name.to_string(), 0);
        }
    }

    pub fn seed_histogram(&self, name: &str) {
        let mut hists = self.histograms.lock().expect("histogram sink poisoned");
        if !hists.contains_key(name) {
            hists.insert(name.to_string(), Histogram::default());
        }
    }

    pub fn record_histogram(&self, name: &str, value: u64) {
        let mut hists = self.histograms.lock().expect("histogram sink poisoned");
        if let Some(h) = hists.get_mut(name) {
            h.record(value);
        } else {
            let mut h = Histogram::default();
            h.record(value);
            hists.insert(name.to_string(), h);
        }
    }

    /// One executed chunk of a parallel call labelled `label`; chunk 0
    /// marks a new call.
    pub fn record_chunk(&self, label: &str, ev: ChunkSummary) {
        let mut timelines = self.timelines.lock().expect("timeline sink poisoned");
        if !timelines.contains_key(label) {
            timelines.insert(label.to_string(), TimelineAgg::default());
        }
        let agg = timelines.get_mut(label).expect("just inserted");
        if ev.chunk == 0 {
            agg.calls += 1;
        }
        if agg.recent.len() == TIMELINE_RETAINED {
            agg.recent.pop_front();
        }
        agg.recent.push_back(ev);
    }

    /// Snapshot into a report with deterministic ordering: spans, counters
    /// and histograms in key order; timelines by label (sorted), retained
    /// chunks within a group in `(start_ns, worker, chunk)` order.
    pub fn snapshot(&self) -> ObsReport {
        let spans = self
            .spans
            .lock()
            .expect("span sink poisoned")
            .iter()
            .map(|(path, a)| SpanSummary {
                path: path.clone(),
                count: a.count,
                total_ns: a.total_ns,
                min_ns: a.min_ns,
                max_ns: a.max_ns,
            })
            .collect();
        let counters = self
            .counters
            .lock()
            .expect("counter sink poisoned")
            .iter()
            .map(|(name, &value)| CounterEntry { name: name.clone(), value })
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("histogram sink poisoned")
            .iter()
            .map(|(name, h)| HistogramSummary {
                name: name.clone(),
                count: h.count,
                sum: u64::try_from(h.sum).unwrap_or(u64::MAX),
                min: if h.count == 0 { 0 } else { h.min },
                max: h.max,
                buckets: h
                    .buckets
                    .iter()
                    .enumerate()
                    .filter(|(_, &c)| c > 0)
                    .map(|(i, &count)| BucketEntry {
                        le: BUCKET_BOUNDS.get(i).copied().unwrap_or(0),
                        count,
                    })
                    .collect(),
            })
            .collect();

        let timelines = self
            .timelines
            .lock()
            .expect("timeline sink poisoned")
            .iter()
            .map(|(label, agg)| {
                let mut chunks: Vec<ChunkSummary> = agg.recent.iter().cloned().collect();
                chunks.sort_by_key(|c| (c.start_ns, c.worker, c.chunk));
                TimelineGroup { label: label.clone(), calls: agg.calls, chunks }
            })
            .collect();

        ObsReport {
            schema_version: SCHEMA_VERSION,
            enabled: true,
            git_commit: String::new(),
            threads: 0,
            spans,
            counters,
            histograms,
            timelines,
        }
    }
}
