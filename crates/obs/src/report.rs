//! The exported observability report: a serializable snapshot of the sink
//! plus a human-readable stage summary renderer.

use serde::{Deserialize, Serialize};

use crate::hist::BUCKET_BOUNDS;

/// Report schema version; bump when the JSON shape changes.
pub const SCHEMA_VERSION: u32 = 1;

/// Aggregated timings of one span path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanSummary {
    /// Hierarchical dot-path, e.g. `"runtime.process.fuse"`.
    pub path: String,
    /// Number of times the span was entered.
    pub count: u64,
    /// Total wall time across entries, nanoseconds.
    pub total_ns: u64,
    /// Shortest single entry, nanoseconds.
    pub min_ns: u64,
    /// Longest single entry, nanoseconds.
    pub max_ns: u64,
}

/// One named monotonic counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Counter name, e.g. `"runtime.pairs_discarded_unmapped"`.
    pub name: String,
    /// Exact integer value (sums are thread-count-independent).
    pub value: u64,
}

/// One non-empty histogram bucket (`le` = inclusive upper boundary; 0
/// denotes the overflow bucket above the largest boundary).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketEntry {
    /// Inclusive upper boundary of the bucket (0 for overflow).
    pub le: u64,
    /// Values recorded into this bucket.
    pub count: u64,
}

/// Aggregated view of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Histogram name, e.g. `"runtime.cluster_size"`.
    pub name: String,
    /// Number of recorded values.
    pub count: u64,
    /// Exact sum (saturating at `u64::MAX` in the report).
    pub sum: u64,
    /// Smallest recorded value.
    pub min: u64,
    /// Largest recorded value.
    pub max: u64,
    /// Non-empty buckets in boundary order.
    pub buckets: Vec<BucketEntry>,
}

/// One executed chunk of a `pse-par` call: which worker ran which slice
/// of the input, and when.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChunkSummary {
    /// Worker index within the parallel call (0 = first spawned / caller).
    pub worker: u64,
    /// Chunk index in input order (equals `worker`: one chunk per worker).
    pub chunk: u64,
    /// Items the chunk processed.
    pub items: u64,
    /// Start offset from the process epoch, nanoseconds.
    pub start_ns: u64,
    /// Wall time the chunk took, nanoseconds.
    pub dur_ns: u64,
}

/// The parallel calls recorded under one label (the caller's active span
/// path at call time).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimelineGroup {
    /// Label of the parallel call site.
    pub label: String,
    /// Number of distinct parallel calls (chunk-0 events), exact.
    pub calls: u64,
    /// The most recent chunks (at most [`crate::TIMELINE_RETAINED`]),
    /// sorted by `(start_ns, worker)`.
    pub chunks: Vec<ChunkSummary>,
}

impl TimelineGroup {
    /// Worker-utilization estimate in `[0, 1]`: busy time divided by
    /// `workers × makespan`. 1.0 means perfectly balanced workers.
    pub fn utilization(&self) -> f64 {
        if self.chunks.is_empty() {
            return 0.0;
        }
        let workers = self.chunks.iter().map(|c| c.worker).max().unwrap_or(0) + 1;
        let start = self.chunks.iter().map(|c| c.start_ns).min().unwrap_or(0);
        let end = self.chunks.iter().map(|c| c.start_ns + c.dur_ns).max().unwrap_or(0);
        let busy: u128 = self.chunks.iter().map(|c| c.dur_ns as u128).sum();
        let span = (end.saturating_sub(start)) as u128 * workers as u128;
        if span == 0 {
            1.0
        } else {
            (busy as f64 / span as f64).min(1.0)
        }
    }

    /// Imbalance factor: slowest chunk over mean chunk duration (1.0 =
    /// perfectly even split; large values flag stragglers).
    pub fn imbalance(&self) -> f64 {
        if self.chunks.is_empty() {
            return 1.0;
        }
        let max = self.chunks.iter().map(|c| c.dur_ns).max().unwrap_or(0) as f64;
        let mean: f64 =
            self.chunks.iter().map(|c| c.dur_ns as f64).sum::<f64>() / self.chunks.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            max / mean
        }
    }
}

/// A full snapshot of the observability sink, ready for JSON export.
///
/// `git_commit` and `threads` default to empty/zero; the exporting binary
/// fills them in so trajectory files stay attributable to a commit and a
/// thread-count configuration.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ObsReport {
    /// [`SCHEMA_VERSION`] at export time.
    pub schema_version: u32,
    /// True in an [`Obs`](crate::Obs)'s report; false in the empty report
    /// a server started without one serves.
    pub enabled: bool,
    /// Git commit hash of the producing build (filled by the exporter).
    pub git_commit: String,
    /// Resolved `pse-par` worker count (filled by the exporter).
    pub threads: u64,
    /// Span aggregates, sorted by path.
    pub spans: Vec<SpanSummary>,
    /// Counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSummary>,
    /// Parallel-call timelines, sorted by label.
    pub timelines: Vec<TimelineGroup>,
}

impl ObsReport {
    /// Serialize as pretty-printed JSON (the `OBS_REPORT.json` format).
    pub fn to_json(&self) -> String {
        format!("{}\n", serde_json::to_string_pretty(self).expect("report serializes"))
    }

    /// Parse a report back from JSON.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Value of a counter, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// Span aggregate whose path equals `path`, if recorded.
    pub fn span(&self, path: &str) -> Option<&SpanSummary> {
        self.spans.iter().find(|s| s.path == path)
    }

    /// Internal-consistency check: known bucket boundaries, bucket counts
    /// summing to histogram counts, `min <= max <= sum` on non-empty
    /// histograms, `min <= max <= total` on spans, and no empty timeline
    /// group. (`u64` fields cannot encode NaN or negatives, and
    /// [`ObsReport::from_json`] refuses floats, negatives and `null` in
    /// their place.) The error describes the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        for s in &self.spans {
            let path = &s.path;
            if s.count == 0 {
                return Err(format!("span {path}: zero count"));
            }
            let (min, max, total) = (s.min_ns, s.max_ns, s.total_ns);
            if min > max || max > total {
                return Err(format!(
                    "span {path}: inconsistent timings min={min} max={max} total={total}"
                ));
            }
        }
        for h in &self.histograms {
            let (name, count, min, max, sum) = (&h.name, h.count, h.min, h.max, h.sum);
            let bucket_total: u64 = h.buckets.iter().map(|b| b.count).sum();
            if bucket_total != count {
                return Err(format!(
                    "histogram {name}: buckets sum to {bucket_total}, count is {count}"
                ));
            }
            if count > 0 && min > max {
                return Err(format!("histogram {name}: min {min} > max {max}"));
            }
            if count > 0 && sum < max {
                return Err(format!("histogram {name}: sum {sum} < max {max}"));
            }
            for b in &h.buckets {
                if b.le != 0 && !BUCKET_BOUNDS.contains(&b.le) {
                    return Err(format!("histogram {name}: unknown boundary {}", b.le));
                }
            }
        }
        for t in &self.timelines {
            if t.calls == 0 || t.chunks.is_empty() {
                return Err(format!("timeline {}: no calls or no chunks", t.label));
            }
        }
        Ok(())
    }

    /// Human-readable stage summary: spans, the counters, and per-call-site
    /// worker utilization. Printed by `experiments --obs` at end of run.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== observability summary (threads={}, commit={}) ==\n",
            self.threads,
            if self.git_commit.is_empty() { "?" } else { &self.git_commit }
        ));
        if !self.spans.is_empty() {
            out.push_str(&format!(
                "{:<44} {:>8} {:>12} {:>12}\n",
                "span", "count", "total", "mean"
            ));
            for s in &self.spans {
                let mean = s.total_ns / s.count.max(1);
                out.push_str(&format!(
                    "{:<44} {:>8} {:>12} {:>12}\n",
                    s.path,
                    s.count,
                    fmt_ns(s.total_ns),
                    fmt_ns(mean)
                ));
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for c in &self.counters {
                out.push_str(&format!("  {:<44} {:>12}\n", c.name, c.value));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("histograms:\n");
            for h in &self.histograms {
                out.push_str(&format!(
                    "  {:<44} n={} min={} mean={:.1} max={}\n",
                    h.name,
                    h.count,
                    if h.count == 0 { 0 } else { h.min },
                    if h.count == 0 { 0.0 } else { h.sum as f64 / h.count as f64 },
                    h.max
                ));
            }
        }
        if !self.timelines.is_empty() {
            out.push_str("parallel timelines:\n");
            for t in &self.timelines {
                let workers = t.chunks.iter().map(|c| c.worker).max().map_or(0, |w| w + 1);
                out.push_str(&format!(
                    "  {:<44} calls={} chunks={} workers={} util={:.0}% imbalance={:.2}\n",
                    t.label,
                    t.calls,
                    t.chunks.len(),
                    workers,
                    t.utilization() * 100.0,
                    t.imbalance()
                ));
            }
        }
        out
    }
}

/// Format nanoseconds at a human scale.
fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.2}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ObsReport {
        ObsReport {
            schema_version: SCHEMA_VERSION,
            enabled: true,
            git_commit: "abc123".into(),
            threads: 4,
            spans: vec![SpanSummary {
                path: "runtime.process".into(),
                count: 2,
                total_ns: 300,
                min_ns: 100,
                max_ns: 200,
            }],
            counters: vec![CounterEntry { name: "runtime.offers_in".into(), value: 42 }],
            histograms: vec![HistogramSummary {
                name: "runtime.cluster_size".into(),
                count: 3,
                sum: 9,
                min: 1,
                max: 5,
                buckets: vec![BucketEntry { le: 1, count: 1 }, BucketEntry { le: 16, count: 2 }],
            }],
            timelines: vec![TimelineGroup {
                label: "runtime.process".into(),
                calls: 1,
                chunks: vec![
                    ChunkSummary { worker: 0, chunk: 0, items: 8, start_ns: 0, dur_ns: 100 },
                    ChunkSummary { worker: 1, chunk: 1, items: 8, start_ns: 0, dur_ns: 100 },
                ],
            }],
        }
    }

    #[test]
    fn json_round_trip() {
        let r = sample();
        let parsed = ObsReport::from_json(&r.to_json()).unwrap();
        assert_eq!(parsed.spans, r.spans);
        assert_eq!(parsed.counters, r.counters);
        assert_eq!(parsed.histograms, r.histograms);
        assert_eq!(parsed.timelines, r.timelines);
        assert_eq!(parsed.git_commit, "abc123");
    }

    #[test]
    fn validate_accepts_consistent_report() {
        assert_eq!(sample().validate(), Ok(()));
    }

    #[test]
    fn validate_rejects_bucket_mismatch() {
        let mut r = sample();
        r.histograms[0].count = 99;
        assert!(r.validate().is_err());
    }

    #[test]
    fn validate_rejects_inverted_span_times() {
        let mut r = sample();
        r.spans[0].min_ns = 999;
        assert!(r.validate().is_err());
    }

    #[test]
    fn validate_rejects_sum_below_max_and_empty_timelines() {
        let mut r = sample();
        r.histograms[0].sum = 4; // max is 5
        assert!(r.validate().is_err_and(|e| e.contains("sum 4 < max 5")));
        let mut r = sample();
        r.timelines[0].calls = 0;
        assert!(r.validate().is_err_and(|e| e.contains("no calls or no chunks")));
        let mut r = sample();
        r.timelines[0].chunks.clear();
        assert!(r.validate().is_err_and(|e| e.contains("no calls or no chunks")));
    }

    /// A NaN duration serializes as `null`; neither it nor a negative or
    /// fractional number can stand where the report holds a `u64`.
    #[test]
    fn nan_and_negative_durations_rejected() {
        let good = sample().to_json();
        assert!(ObsReport::from_json(&good).is_ok());
        for bad in ["null", "-4", "1.5"] {
            let json = good.replace("\"total_ns\": 300", &format!("\"total_ns\": {bad}"));
            assert_ne!(json, good, "the sample's total_ns was not found");
            assert!(ObsReport::from_json(&json).is_err(), "total_ns = {bad} accepted");
        }
    }

    #[test]
    fn utilization_and_imbalance() {
        let t = &sample().timelines[0];
        assert!((t.utilization() - 1.0).abs() < 1e-9, "two equal chunks fully utilize");
        assert!((t.imbalance() - 1.0).abs() < 1e-9);
        let skewed = TimelineGroup {
            label: "x".into(),
            calls: 1,
            chunks: vec![
                ChunkSummary { worker: 0, chunk: 0, items: 1, start_ns: 0, dur_ns: 300 },
                ChunkSummary { worker: 1, chunk: 1, items: 1, start_ns: 0, dur_ns: 100 },
            ],
        };
        assert!(skewed.utilization() < 0.7);
        assert!(skewed.imbalance() > 1.4);
    }

    #[test]
    fn summary_mentions_every_section() {
        let s = sample().render_summary();
        assert!(s.contains("runtime.process"));
        assert!(s.contains("counters:"));
        assert!(s.contains("histograms:"));
        assert!(s.contains("parallel timelines:"));
    }

    #[test]
    fn fmt_ns_scales() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.50us");
        assert_eq!(fmt_ns(2_500_000), "2.50ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.00s");
    }
}
