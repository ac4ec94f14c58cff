//! CI validator for `OBS_REPORT.json`.
//!
//! Checks run at the raw JSON level rather than through the typed
//! [`pse_obs::ObsReport`] deserializer, so a NaN duration serialized as
//! `null`/float or a negative value is rejected instead of being papered
//! over by a lenient numeric conversion:
//!
//! - `schema_version` matches, `enabled` is true, `threads` ≥ 1;
//! - spans cover every pipeline stage (`datagen.`, `extract.`, `offline.`,
//!   `runtime.`, `experiments.`);
//! - the stage counters the experiment drivers are expected to emit exist;
//! - every duration / count / sum / min / max is a non-negative integer;
//! - histogram bucket counts sum to the histogram count;
//! - at least one per-worker timeline with consistent chunk fields.
//!
//! Usage: `obs_check [path]` (default: `target/OBS_REPORT.json` under the
//! workspace root, where `experiments --obs` writes it).

use std::process::ExitCode;

use serde::Value;

/// Every stage of the pipeline must appear in at least one span path.
/// Spans nest (`extract.page` ends up under `runtime.reconcile` when the
/// provider extracts inside a worker), so this is a substring match.
///
/// Exception: a run that recovered durable state (`wal.recover` span
/// present) and then received no live ingests legitimately never runs
/// the runtime pipeline — recovery replays already-reconciled batches —
/// so the `runtime.` stage (span and counters) is waived for it.
const STAGE_PREFIXES: [&str; 5] = ["datagen.", "extract.", "offline.", "runtime.", "experiments."];

/// Counters every experiments run is expected to emit.
const REQUIRED_COUNTERS: [&str; 9] = [
    "datagen.offers",
    "datagen.pages_rendered",
    "extract.pairs_extracted",
    "offline.candidates",
    "runtime.offers_in",
    "runtime.pairs_discarded_unmapped",
    "runtime.clusters_formed",
    "runtime.values_fused",
    "text.intern.symbols",
];

/// Counters a run that exercised the persistent store (any `store.*` span
/// present) must additionally emit.
const STORE_COUNTERS: [&str; 4] =
    ["store.ingest", "store.clusters_dirty", "store.refused", "store.snapshot"];

/// Counters a run that exercised the bootstrap title matcher (any
/// `match.bootstrap` span present) must additionally emit — the matcher
/// seeds them even when every offer matches by identifier.
const MATCH_COUNTERS: [&str; 2] = ["match.block.candidates", "match.block.skipped"];

/// Counters a run that exercised DUMAS (any `baselines.dumas` span present)
/// must additionally emit — seeded by the matcher even when no matrix cell
/// needs a Jaro–Winkler probe.
const SOFTTFIDF_COUNTERS: [&str; 2] = ["softtfidf.jw_memo_hit", "softtfidf.jw_memo_miss"];

/// Counters a run that exercised the HTTP serving layer (any `serve.*`
/// span present) must additionally emit — the server seeds them at start,
/// so even an all-200 run reports the full per-status set at zero and the
/// counter set never depends on which requests happened to arrive. The
/// `serve.cache.*` trio tracks the snapshot response cache: one hit or
/// miss per `GET /products/{category}`, and the categories whose cached
/// bodies each publish rebuilt.
const SERVE_COUNTERS: [&str; 15] = [
    "serve.requests",
    "serve.http_200",
    "serve.http_400",
    "serve.http_404",
    "serve.http_405",
    "serve.http_413",
    "serve.http_500",
    "serve.http_503",
    "serve.http_other",
    "serve.backpressure_503",
    "serve.io_error",
    "serve.accept_error",
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.cache.invalidated",
];

/// Histograms a serving run must emit: whole-request latency and the
/// accept-queue depth sampled at every accepted connection.
const SERVE_HISTOGRAMS: [&str; 2] = ["serve.request_us", "serve.queue_depth"];

/// Counters a run that exercised the structured query engine (any
/// `query.*` span present — a search or an index build) must
/// additionally emit — `pse_query::seed_metrics` seeds the full set at
/// server start, so even a run whose searches all resolved exactly
/// reports the fuzzy and no-category counters at zero.
const QUERY_COUNTERS: [&str; 4] =
    ["query.requests", "query.resolved_exact", "query.resolved_fuzzy", "query.no_category"];

/// Histogram a query run must emit: candidate documents examined per
/// search, seeded alongside [`QUERY_COUNTERS`].
const QUERY_HISTOGRAM: &str = "query.candidates";

/// Counters a run that exercised the durability layer (any `wal.*` span
/// present — open, recover, stage, or snapshot) must additionally emit;
/// both `recover` and `open` seed the full set.
const WAL_COUNTERS: [&str; 4] =
    ["wal.append", "wal.bytes", "snapshot.segments_written", "snapshot.segments_skipped"];

/// Histogram required when the WAL was opened for appending (span
/// `wal.open` present): open fsyncs at least once, so the fsync latency
/// histogram must exist. Recover-only runs (the `wal-replay` oracle)
/// never fsync and are exempt.
const WAL_FSYNC_HISTOGRAM: &str = "wal.fsync_us";

/// Group-commit distributions — commits covered per sync and per-commit
/// wait — seeded at zero by both `Durability::open` and `recover`, so
/// any run that touched the durability layer must report them even if
/// no grouped sync ever fired.
const WAL_GROUP_HISTOGRAMS: [&str; 2] = ["wal.group_size", "wal.group_wait_us"];

fn main() -> ExitCode {
    let path = std::env::args().nth(1).unwrap_or_else(|| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../target/OBS_REPORT.json").into()
    });
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("obs_check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let value: Value = match serde_json::from_str(&text) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("obs_check: {path} is not valid JSON: {e}");
            return ExitCode::FAILURE;
        }
    };
    let errs = check(&value);
    if errs.is_empty() {
        println!("obs_check: {path} OK");
        ExitCode::SUCCESS
    } else {
        for e in &errs {
            eprintln!("obs_check: {e}");
        }
        eprintln!("obs_check: {path}: {} problem(s)", errs.len());
        ExitCode::FAILURE
    }
}

fn check(v: &Value) -> Vec<String> {
    let mut errs = Vec::new();
    match v.get("schema_version") {
        Some(&Value::U64(n)) if n == pse_obs::SCHEMA_VERSION as u64 => {}
        other => {
            errs.push(format!("schema_version must be {}, got {other:?}", pse_obs::SCHEMA_VERSION))
        }
    }
    if v.get("enabled") != Some(&Value::Bool(true)) {
        errs.push("enabled must be true (was the run missing --obs / PSE_OBS=1?)".into());
    }
    match v.get("threads") {
        Some(&Value::U64(n)) if n >= 1 => {}
        other => errs.push(format!("threads must be a positive integer, got {other:?}")),
    }
    if !matches!(v.get("git_commit"), Some(Value::Str(s)) if !s.is_empty()) {
        errs.push("git_commit must be a non-empty string".into());
    }

    let span_paths = check_spans(v, &mut errs);
    // A recovered server that received no live ingests replays
    // already-reconciled batches: the runtime pipeline never runs, and
    // demanding its spans/counters would reject every restart-after-crash
    // report (see STAGE_PREFIXES).
    let runtime_waived = span_paths.iter().any(|p| p.contains("wal.recover"))
        && !span_paths.iter().any(|p| p.contains("runtime."));
    for prefix in STAGE_PREFIXES {
        if runtime_waived && prefix == "runtime." {
            continue;
        }
        if !span_paths.iter().any(|p| p.contains(prefix)) {
            errs.push(format!("no span covers stage {prefix}*"));
        }
    }
    let store_ran = span_paths.iter().any(|p| p.contains("store."));
    let match_ran = span_paths.iter().any(|p| p.contains("match.bootstrap"));
    let dumas_ran = span_paths.iter().any(|p| p.contains("baselines.dumas"));
    let serve_ran = span_paths.iter().any(|p| p.contains("serve."));
    let query_ran = span_paths.iter().any(|p| p.contains("query."));
    let wal_ran = span_paths.iter().any(|p| p.contains("wal."));
    let wal_opened = span_paths.iter().any(|p| p.contains("wal.open"));
    check_counters(
        v,
        store_ran,
        match_ran,
        dumas_ran,
        serve_ran,
        query_ran,
        wal_ran,
        runtime_waived,
        &mut errs,
    );
    check_histograms(v, &mut errs);
    check_serve_endpoints(v, serve_ran, &mut errs);
    check_query_histogram(v, query_ran, &mut errs);
    check_wal_histograms(v, wal_ran, wal_opened, &mut errs);
    check_timelines(v, &mut errs);
    errs
}

/// The group-commit histograms must exist whenever the durability layer
/// ran at all ([`WAL_GROUP_HISTOGRAMS`]); the fsync-latency histogram
/// additionally whenever the WAL was opened for appending
/// ([`WAL_FSYNC_HISTOGRAM`]).
/// The candidates histogram must exist whenever the query engine ran
/// ([`QUERY_HISTOGRAM`]) — seeded at start, so even a search-free run
/// that merely built an index reports it at zero.
fn check_query_histogram(v: &Value, query_ran: bool, errs: &mut Vec<String>) {
    if !query_ran {
        return;
    }
    let mut shape_errs = Vec::new();
    let histograms = array(v, "histograms", &mut shape_errs);
    if !histograms.iter().any(|h| str_field(h, "name") == QUERY_HISTOGRAM) {
        errs.push(format!("query spans present but histogram {QUERY_HISTOGRAM} missing"));
    }
}

fn check_wal_histograms(v: &Value, wal_ran: bool, wal_opened: bool, errs: &mut Vec<String>) {
    if !wal_ran {
        return;
    }
    let mut shape_errs = Vec::new();
    let histograms = array(v, "histograms", &mut shape_errs);
    for required in WAL_GROUP_HISTOGRAMS {
        if !histograms.iter().any(|h| str_field(h, "name") == required) {
            errs.push(format!("wal spans present but histogram {required} missing"));
        }
    }
    if wal_opened && !histograms.iter().any(|h| str_field(h, "name") == WAL_FSYNC_HISTOGRAM) {
        errs.push(format!("wal.open span present but histogram {WAL_FSYNC_HISTOGRAM} missing"));
    }
}

/// A named numeric field that must be a non-negative JSON integer — the
/// encoding a NaN (`null`/float) or negative duration cannot take.
fn require_u64(obj: &Value, key: &str, ctx: &str, errs: &mut Vec<String>) -> u64 {
    match obj.get(key) {
        Some(&Value::U64(n)) => n,
        other => {
            errs.push(format!("{ctx}: {key} must be a non-negative integer, got {other:?}"));
            0
        }
    }
}

fn str_field<'v>(obj: &'v Value, key: &str) -> &'v str {
    match obj.get(key) {
        Some(Value::Str(s)) => s,
        _ => "",
    }
}

fn array<'v>(v: &'v Value, key: &str, errs: &mut Vec<String>) -> &'v [Value] {
    match v.get(key) {
        Some(Value::Array(items)) => items,
        other => {
            errs.push(format!("{key} must be an array, got {other:?}"));
            &[]
        }
    }
}

fn check_spans(v: &Value, errs: &mut Vec<String>) -> Vec<String> {
    let mut paths = Vec::new();
    for s in array(v, "spans", errs) {
        let path = str_field(s, "path").to_string();
        let ctx = format!("span {path:?}");
        if path.is_empty() {
            errs.push(format!("{ctx}: path must be a non-empty string"));
        }
        let count = require_u64(s, "count", &ctx, errs);
        let total = require_u64(s, "total_ns", &ctx, errs);
        let min = require_u64(s, "min_ns", &ctx, errs);
        let max = require_u64(s, "max_ns", &ctx, errs);
        if count == 0 {
            errs.push(format!("{ctx}: count must be positive"));
        }
        if min > max || max > total {
            errs.push(format!("{ctx}: expected min <= max <= total, got {min}/{max}/{total}"));
        }
        paths.push(path);
    }
    if paths.is_empty() {
        errs.push("report has no spans".into());
    }
    paths
}

#[allow(clippy::too_many_arguments)]
fn check_counters(
    v: &Value,
    store_ran: bool,
    match_ran: bool,
    dumas_ran: bool,
    serve_ran: bool,
    query_ran: bool,
    wal_ran: bool,
    runtime_waived: bool,
    errs: &mut Vec<String>,
) {
    let counters = array(v, "counters", errs).to_vec();
    let mut names = Vec::new();
    for c in &counters {
        let name = str_field(c, "name").to_string();
        require_u64(c, "value", &format!("counter {name:?}"), errs);
        names.push(name);
    }
    for required in REQUIRED_COUNTERS {
        if runtime_waived && required.starts_with("runtime.") {
            continue;
        }
        if !names.iter().any(|n| n == required) {
            errs.push(format!("missing required counter {required}"));
        }
    }
    let conditional = [
        (store_ran, "store", &STORE_COUNTERS[..]),
        (match_ran, "match.bootstrap", &MATCH_COUNTERS[..]),
        (dumas_ran, "baselines.dumas", &SOFTTFIDF_COUNTERS[..]),
        (serve_ran, "serve", &SERVE_COUNTERS[..]),
        (query_ran, "query", &QUERY_COUNTERS[..]),
        (wal_ran, "wal", &WAL_COUNTERS[..]),
    ];
    for (ran, what, required_set) in conditional {
        if !ran {
            continue;
        }
        for required in required_set {
            if !names.iter().any(|n| n == required) {
                errs.push(format!("{what} spans present but counter {required} missing"));
            }
        }
    }
}

fn check_histograms(v: &Value, errs: &mut Vec<String>) {
    for h in array(v, "histograms", errs) {
        let ctx = format!("histogram {:?}", str_field(h, "name"));
        let count = require_u64(h, "count", &ctx, errs);
        let sum = require_u64(h, "sum", &ctx, errs);
        let min = require_u64(h, "min", &ctx, errs);
        let max = require_u64(h, "max", &ctx, errs);
        if min > max || (count > 0 && sum < max as u64) {
            errs.push(format!("{ctx}: inconsistent aggregates {count}/{sum}/{min}/{max}"));
        }
        let mut bucket_total = 0u64;
        match h.get("buckets") {
            Some(Value::Array(buckets)) => {
                for b in buckets {
                    require_u64(b, "le", &format!("{ctx} bucket"), errs);
                    bucket_total += require_u64(b, "count", &format!("{ctx} bucket"), errs);
                }
            }
            other => errs.push(format!("{ctx}: buckets must be an array, got {other:?}")),
        }
        if bucket_total != count {
            errs.push(format!("{ctx}: bucket counts sum to {bucket_total}, expected {count}"));
        }
    }
}

/// Per-endpoint RED consistency for serving runs. The server records,
/// for every request it handles, exactly one `serve.endpoint.<e>.us`
/// histogram observation and one `serve.endpoint.<e>.requests` increment,
/// paired with the global `serve.requests` increment — so in a quiesced
/// report each endpoint histogram count equals its request counter, every
/// endpoint carries an errors counter of at most its requests, and the
/// per-endpoint request counters sum exactly to `serve.requests`.
/// (Acceptor-level backpressure 503s touch neither side of the ledger.)
/// Also demands the serving histograms ([`SERVE_HISTOGRAMS`]) exist.
fn check_serve_endpoints(v: &Value, serve_ran: bool, errs: &mut Vec<String>) {
    if !serve_ran {
        return;
    }
    // Shape errors (non-array fields) are already reported by
    // check_counters/check_histograms; swallow them here.
    let mut shape_errs = Vec::new();
    let histograms = array(v, "histograms", &mut shape_errs).to_vec();
    let counters = array(v, "counters", &mut shape_errs).to_vec();
    let mut new_errs = Vec::new();
    let counter_value = |name: &str| -> Option<u64> {
        counters.iter().find(|c| str_field(c, "name") == name).and_then(|c| match c.get("value") {
            Some(&Value::U64(n)) => Some(n),
            _ => None,
        })
    };
    for required in SERVE_HISTOGRAMS {
        if !histograms.iter().any(|h| str_field(h, "name") == required) {
            new_errs.push(format!("serve spans present but histogram {required} missing"));
        }
    }
    let mut endpoint_requests_total = 0u64;
    for c in &counters {
        let name = str_field(c, "name");
        if name.starts_with("serve.endpoint.") && name.ends_with(".requests") {
            endpoint_requests_total += counter_value(name).unwrap_or(0);
        }
    }
    for h in &histograms {
        let name = str_field(h, "name").to_string();
        let Some(endpoint) =
            name.strip_prefix("serve.endpoint.").and_then(|r| r.strip_suffix(".us"))
        else {
            continue;
        };
        let ctx = format!("endpoint {endpoint}");
        let count = require_u64(h, "count", &ctx, &mut new_errs);
        let requests_name = format!("serve.endpoint.{endpoint}.requests");
        match counter_value(&requests_name) {
            Some(requests) if requests == count => {}
            Some(requests) => new_errs.push(format!(
                "{ctx}: histogram {name} count {count} != counter {requests_name} {requests}"
            )),
            None => new_errs.push(format!("{ctx}: counter {requests_name} missing")),
        }
        let errors_name = format!("serve.endpoint.{endpoint}.errors");
        match counter_value(&errors_name) {
            Some(errors) if errors <= count => {}
            Some(errors) => new_errs
                .push(format!("{ctx}: {errors_name} {errors} exceeds request count {count}")),
            None => new_errs.push(format!("{ctx}: counter {errors_name} missing")),
        }
    }
    if let Some(total) = counter_value("serve.requests") {
        if endpoint_requests_total != total {
            new_errs.push(format!(
                "serve.endpoint.*.requests sum to {endpoint_requests_total}, \
                 but serve.requests is {total}"
            ));
        }
    }
    errs.extend(new_errs);
}

fn check_timelines(v: &Value, errs: &mut Vec<String>) {
    let timelines = array(v, "timelines", errs).to_vec();
    if timelines.is_empty() {
        errs.push("report has no per-worker timelines".into());
    }
    for t in &timelines {
        let ctx = format!("timeline {:?}", str_field(t, "label"));
        let calls = require_u64(t, "calls", &ctx, errs);
        if calls == 0 {
            errs.push(format!("{ctx}: calls must be positive"));
        }
        match t.get("chunks") {
            Some(Value::Array(chunks)) if !chunks.is_empty() => {
                for c in chunks {
                    require_u64(c, "worker", &ctx, errs);
                    require_u64(c, "chunk", &ctx, errs);
                    require_u64(c, "items", &ctx, errs);
                    require_u64(c, "start_ns", &ctx, errs);
                    require_u64(c, "dur_ns", &ctx, errs);
                }
            }
            other => errs.push(format!("{ctx}: chunks must be a non-empty array, got {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn good_report() -> Value {
        let mut r = pse_obs::ObsReport {
            schema_version: pse_obs::SCHEMA_VERSION,
            enabled: true,
            git_commit: "deadbeef".into(),
            threads: 2,
            ..Default::default()
        };
        r.spans = STAGE_PREFIXES
            .iter()
            .map(|p| pse_obs::SpanSummary {
                path: format!("{p}stage"),
                count: 1,
                total_ns: 10,
                min_ns: 10,
                max_ns: 10,
            })
            .collect();
        r.counters = REQUIRED_COUNTERS
            .iter()
            .map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 7 })
            .collect();
        r.timelines = vec![pse_obs::TimelineGroup {
            label: "runtime.reconcile".into(),
            calls: 1,
            chunks: vec![pse_obs::ChunkSummary {
                worker: 0,
                chunk: 0,
                items: 5,
                start_ns: 0,
                dur_ns: 3,
            }],
        }];
        serde_json::from_str(&r.to_json()).unwrap()
    }

    #[test]
    fn valid_report_passes() {
        assert_eq!(check(&good_report()), Vec::<String>::new());
    }

    #[test]
    fn missing_stage_and_counter_detected() {
        let mut v = good_report();
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k == "spans" || k == "counters" {
                    *val = Value::Array(Vec::new());
                }
            }
        }
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("no span covers stage runtime.")));
        assert!(errs.iter().any(|e| e.contains("missing required counter runtime.offers_in")));
    }

    #[test]
    fn store_counters_required_only_when_store_spans_present() {
        // Without store spans, store counters are not demanded.
        assert_eq!(check(&good_report()), Vec::<String>::new());
        // A store span without the counters is an error...
        let mut r = pse_obs::ObsReport {
            schema_version: pse_obs::SCHEMA_VERSION,
            enabled: true,
            git_commit: "deadbeef".into(),
            threads: 2,
            ..Default::default()
        };
        r.spans = STAGE_PREFIXES
            .iter()
            .map(|p| format!("{p}stage"))
            .chain(["experiments.incremental.store.ingest".to_string()])
            .map(|path| pse_obs::SpanSummary {
                path,
                count: 1,
                total_ns: 10,
                min_ns: 10,
                max_ns: 10,
            })
            .collect();
        r.counters = REQUIRED_COUNTERS
            .iter()
            .map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 7 })
            .collect();
        r.timelines = vec![pse_obs::TimelineGroup {
            label: "runtime.reconcile".into(),
            calls: 1,
            chunks: vec![pse_obs::ChunkSummary {
                worker: 0,
                chunk: 0,
                items: 5,
                start_ns: 0,
                dur_ns: 3,
            }],
        }];
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("counter store.ingest missing")));
        assert!(errs.iter().any(|e| e.contains("counter store.snapshot missing")));
        // ...and adding them satisfies the check.
        r.counters.extend(
            STORE_COUNTERS.iter().map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 3 }),
        );
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(check(&v), Vec::<String>::new());
    }

    #[test]
    fn matcher_and_dumas_counters_gated_on_their_spans() {
        // The baseline report (no matcher/dumas spans) demands neither set.
        assert_eq!(check(&good_report()), Vec::<String>::new());
        let with_span = |extra_span: &str| {
            let mut r = pse_obs::ObsReport {
                schema_version: pse_obs::SCHEMA_VERSION,
                enabled: true,
                git_commit: "deadbeef".into(),
                threads: 2,
                ..Default::default()
            };
            r.spans = STAGE_PREFIXES
                .iter()
                .map(|p| format!("{p}stage"))
                .chain([extra_span.to_string()])
                .map(|path| pse_obs::SpanSummary {
                    path,
                    count: 1,
                    total_ns: 10,
                    min_ns: 10,
                    max_ns: 10,
                })
                .collect();
            r.counters = REQUIRED_COUNTERS
                .iter()
                .map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 7 })
                .collect();
            r.timelines = vec![pse_obs::TimelineGroup {
                label: "runtime.reconcile".into(),
                calls: 1,
                chunks: vec![pse_obs::ChunkSummary {
                    worker: 0,
                    chunk: 0,
                    items: 5,
                    start_ns: 0,
                    dur_ns: 3,
                }],
            }];
            r
        };

        // A bootstrap span without the blocking counters is an error, even
        // when the counters would be zero (the matcher seeds them).
        let mut r = with_span("runtime.ingest.match.bootstrap");
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("counter match.block.candidates missing")));
        assert!(errs.iter().any(|e| e.contains("counter match.block.skipped missing")));
        r.counters.extend(
            MATCH_COUNTERS.iter().map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 0 }),
        );
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(check(&v), Vec::<String>::new());

        // Same for DUMAS and the Jaro–Winkler memo counters.
        let mut r = with_span("experiments.fig8.baselines.dumas");
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("counter softtfidf.jw_memo_hit missing")));
        r.counters.extend(
            SOFTTFIDF_COUNTERS
                .iter()
                .map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 0 }),
        );
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(check(&v), Vec::<String>::new());

        // And for the HTTP serving layer: a serve span without the seeded
        // request/backpressure counters (including the full per-status
        // set) or the serving histograms is an error.
        let mut r = with_span("serve.request");
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("counter serve.requests missing")));
        assert!(errs.iter().any(|e| e.contains("counter serve.backpressure_503 missing")));
        assert!(errs.iter().any(|e| e.contains("counter serve.http_405 missing")));
        assert!(errs.iter().any(|e| e.contains("counter serve.http_413 missing")));
        assert!(errs.iter().any(|e| e.contains("counter serve.http_other missing")));
        assert!(errs.iter().any(|e| e.contains("histogram serve.request_us missing")));
        assert!(errs.iter().any(|e| e.contains("histogram serve.queue_depth missing")));
        r.counters.extend(
            SERVE_COUNTERS.iter().map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 0 }),
        );
        r.histograms.extend(SERVE_HISTOGRAMS.iter().map(|n| pse_obs::HistogramSummary {
            name: n.to_string(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        }));
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(check(&v), Vec::<String>::new());
    }

    #[test]
    fn query_counters_and_candidates_histogram_gated_on_query_spans() {
        // The baseline report (no query spans) demands neither.
        assert_eq!(check(&good_report()), Vec::<String>::new());
        // A query span without the seeded counter set or the candidates
        // histogram is an error — seed_metrics makes them all exist even
        // when every search resolved exactly.
        let mut r = pse_obs::ObsReport {
            schema_version: pse_obs::SCHEMA_VERSION,
            enabled: true,
            git_commit: "deadbeef".into(),
            threads: 2,
            ..Default::default()
        };
        r.spans = STAGE_PREFIXES
            .iter()
            .map(|p| format!("{p}stage"))
            .chain(["request.search.query.search".to_string()])
            .map(|path| pse_obs::SpanSummary {
                path,
                count: 1,
                total_ns: 10,
                min_ns: 10,
                max_ns: 10,
            })
            .collect();
        r.counters = REQUIRED_COUNTERS
            .iter()
            .map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 7 })
            .collect();
        r.timelines = vec![pse_obs::TimelineGroup {
            label: "runtime.reconcile".into(),
            calls: 1,
            chunks: vec![pse_obs::ChunkSummary {
                worker: 0,
                chunk: 0,
                items: 5,
                start_ns: 0,
                dur_ns: 3,
            }],
        }];
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("counter query.requests missing")));
        assert!(errs.iter().any(|e| e.contains("counter query.resolved_exact missing")));
        assert!(errs.iter().any(|e| e.contains("counter query.resolved_fuzzy missing")));
        assert!(errs.iter().any(|e| e.contains("counter query.no_category missing")));
        assert!(errs.iter().any(|e| e.contains("histogram query.candidates missing")));
        r.counters.extend(
            QUERY_COUNTERS.iter().map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 0 }),
        );
        r.histograms.push(pse_obs::HistogramSummary {
            name: QUERY_HISTOGRAM.into(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        });
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(check(&v), Vec::<String>::new());
    }

    #[test]
    fn wal_counters_and_fsync_histogram_gated_on_wal_spans() {
        let with_span = |extra_span: &str| {
            let mut r = pse_obs::ObsReport {
                schema_version: pse_obs::SCHEMA_VERSION,
                enabled: true,
                git_commit: "deadbeef".into(),
                threads: 2,
                ..Default::default()
            };
            r.spans = STAGE_PREFIXES
                .iter()
                .map(|p| format!("{p}stage"))
                .chain([extra_span.to_string()])
                .map(|path| pse_obs::SpanSummary {
                    path,
                    count: 1,
                    total_ns: 10,
                    min_ns: 10,
                    max_ns: 10,
                })
                .collect();
            r.counters = REQUIRED_COUNTERS
                .iter()
                .map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 7 })
                .collect();
            r.timelines = vec![pse_obs::TimelineGroup {
                label: "runtime.reconcile".into(),
                calls: 1,
                chunks: vec![pse_obs::ChunkSummary {
                    worker: 0,
                    chunk: 0,
                    items: 5,
                    start_ns: 0,
                    dur_ns: 3,
                }],
            }];
            r
        };

        let zero_histogram = |n: &&str| pse_obs::HistogramSummary {
            name: n.to_string(),
            count: 0,
            sum: 0,
            min: 0,
            max: 0,
            buckets: Vec::new(),
        };

        // A recover-only run: WAL counters and the group-commit
        // histograms demanded (recover seeds both), fsync histogram not
        // (recovery is read-only and never fsyncs).
        let mut r = with_span("experiments.drill.wal.recover");
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("counter wal.append missing")));
        assert!(errs.iter().any(|e| e.contains("counter snapshot.segments_written missing")));
        assert!(errs.iter().any(|e| e.contains("histogram wal.group_size missing")));
        assert!(errs.iter().any(|e| e.contains("histogram wal.group_wait_us missing")));
        assert!(!errs.iter().any(|e| e.contains("wal.fsync_us")), "recover-only run is exempt");
        r.counters.extend(
            WAL_COUNTERS.iter().map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 0 }),
        );
        r.histograms.extend(WAL_GROUP_HISTOGRAMS.iter().map(zero_histogram));
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(check(&v), Vec::<String>::new());

        // A run that opened the WAL for appending must also report fsync
        // latency (open fsyncs at least once).
        let mut r = with_span("wal.open");
        r.counters.extend(
            WAL_COUNTERS.iter().map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 0 }),
        );
        r.histograms.extend(WAL_GROUP_HISTOGRAMS.iter().map(zero_histogram));
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("histogram wal.fsync_us missing")));
        r.histograms.push(pse_obs::HistogramSummary {
            name: "wal.fsync_us".into(),
            count: 1,
            sum: 40,
            min: 40,
            max: 40,
            buckets: vec![pse_obs::BucketEntry { le: 64, count: 1 }],
        });
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(check(&v), Vec::<String>::new());
    }

    #[test]
    fn runtime_stage_waived_for_recovered_runs_without_live_ingests() {
        // A restart-after-crash report: datagen/extract/offline/experiments
        // spans present (the driver still builds the world and learns
        // correspondences), wal.recover present, but no runtime.* spans or
        // counters — recovery replayed already-reconciled batches.
        let mut r = pse_obs::ObsReport {
            schema_version: pse_obs::SCHEMA_VERSION,
            enabled: true,
            git_commit: "deadbeef".into(),
            threads: 2,
            ..Default::default()
        };
        r.spans = STAGE_PREFIXES
            .iter()
            .filter(|p| **p != "runtime.")
            .map(|p| format!("{p}stage"))
            .chain(["experiments.restart.wal.recover".to_string()])
            .map(|path| pse_obs::SpanSummary {
                path,
                count: 1,
                total_ns: 10,
                min_ns: 10,
                max_ns: 10,
            })
            .collect();
        r.counters = REQUIRED_COUNTERS
            .iter()
            .filter(|n| !n.starts_with("runtime."))
            .chain(WAL_COUNTERS.iter())
            .map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 0 })
            .collect();
        r.histograms = WAL_GROUP_HISTOGRAMS
            .iter()
            .map(|n| pse_obs::HistogramSummary {
                name: n.to_string(),
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            })
            .collect();
        r.timelines = vec![pse_obs::TimelineGroup {
            label: "offline.candidates".into(),
            calls: 1,
            chunks: vec![pse_obs::ChunkSummary {
                worker: 0,
                chunk: 0,
                items: 5,
                start_ns: 0,
                dur_ns: 3,
            }],
        }];
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(check(&v), Vec::<String>::new());

        // Without the wal.recover span the same report is rejected: a
        // non-recovered run must exercise the runtime pipeline.
        let mut no_recover = r.clone();
        no_recover.spans.retain(|s| !s.path.contains("wal.recover"));
        let v: Value = serde_json::from_str(&no_recover.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("no span covers stage runtime.")));
        assert!(errs.iter().any(|e| e.contains("missing required counter runtime.offers_in")));

        // A recovered run that also handled live ingests (runtime spans
        // present) gets no waiver — the counters are demanded again.
        let mut live = r.clone();
        live.spans.push(pse_obs::SpanSummary {
            path: "runtime.reconcile".into(),
            count: 1,
            total_ns: 10,
            min_ns: 10,
            max_ns: 10,
        });
        let v: Value = serde_json::from_str(&live.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("missing required counter runtime.offers_in")));
    }

    #[test]
    fn serve_endpoint_red_consistency_enforced() {
        // Start from a passing serving report...
        let mut r = pse_obs::ObsReport {
            schema_version: pse_obs::SCHEMA_VERSION,
            enabled: true,
            git_commit: "deadbeef".into(),
            threads: 2,
            ..Default::default()
        };
        r.spans = STAGE_PREFIXES
            .iter()
            .map(|p| format!("{p}stage"))
            .chain(["serve.request".to_string()])
            .map(|path| pse_obs::SpanSummary {
                path,
                count: 1,
                total_ns: 10,
                min_ns: 10,
                max_ns: 10,
            })
            .collect();
        r.counters = REQUIRED_COUNTERS
            .iter()
            .chain(SERVE_COUNTERS.iter())
            .map(|n| pse_obs::CounterEntry { name: n.to_string(), value: 0 })
            .collect();
        r.histograms = SERVE_HISTOGRAMS
            .iter()
            .map(|n| pse_obs::HistogramSummary {
                name: n.to_string(),
                count: 0,
                sum: 0,
                min: 0,
                max: 0,
                buckets: Vec::new(),
            })
            .collect();
        r.timelines = vec![pse_obs::TimelineGroup {
            label: "runtime.reconcile".into(),
            calls: 1,
            chunks: vec![pse_obs::ChunkSummary {
                worker: 0,
                chunk: 0,
                items: 5,
                start_ns: 0,
                dur_ns: 3,
            }],
        }];
        // ...with one consistent endpoint: 3 requests, 3 observations.
        r.counters.iter_mut().find(|c| c.name == "serve.requests").unwrap().value = 3;
        r.counters.push(pse_obs::CounterEntry {
            name: "serve.endpoint.products.requests".into(),
            value: 3,
        });
        r.counters.push(pse_obs::CounterEntry {
            name: "serve.endpoint.products.errors".into(),
            value: 0,
        });
        r.histograms.push(pse_obs::HistogramSummary {
            name: "serve.endpoint.products.us".into(),
            count: 3,
            sum: 30,
            min: 5,
            max: 15,
            buckets: vec![pse_obs::BucketEntry { le: 16, count: 3 }],
        });
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        assert_eq!(check(&v), Vec::<String>::new());

        // A histogram count that disagrees with the request counter fails.
        let mut broken = r.clone();
        broken.histograms.last_mut().unwrap().count = 2;
        broken.histograms.last_mut().unwrap().buckets[0].count = 2;
        let v: Value = serde_json::from_str(&broken.to_json()).unwrap();
        assert!(check(&v).iter().any(|e| e.contains("count 2 != counter")));

        // Endpoint counters that do not sum to serve.requests fail.
        let mut broken = r.clone();
        broken.counters.iter_mut().find(|c| c.name == "serve.requests").unwrap().value = 5;
        let v: Value = serde_json::from_str(&broken.to_json()).unwrap();
        assert!(check(&v)
            .iter()
            .any(|e| e.contains("serve.endpoint.*.requests sum to 3, but serve.requests is 5")));

        // A missing errors counter fails.
        let mut broken = r.clone();
        broken.counters.retain(|c| c.name != "serve.endpoint.products.errors");
        let v: Value = serde_json::from_str(&broken.to_json()).unwrap();
        assert!(check(&v)
            .iter()
            .any(|e| e.contains("counter serve.endpoint.products.errors missing")));
    }

    #[test]
    fn nan_and_negative_durations_rejected() {
        let mut v = good_report();
        if let Value::Object(fields) = &mut v {
            for (k, val) in fields.iter_mut() {
                if k != "spans" {
                    continue;
                }
                let Value::Array(spans) = val else { unreachable!() };
                let Value::Object(span) = &mut spans[0] else { unreachable!() };
                for (sk, sv) in span.iter_mut() {
                    match sk.as_str() {
                        "total_ns" => *sv = Value::Null, // NaN serializes as null
                        "min_ns" => *sv = Value::I64(-4),
                        "max_ns" => *sv = Value::F64(1.5),
                        _ => {}
                    }
                }
            }
        }
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("total_ns must be a non-negative integer")));
        assert!(errs.iter().any(|e| e.contains("min_ns must be a non-negative integer")));
        assert!(errs.iter().any(|e| e.contains("max_ns must be a non-negative integer")));
    }

    #[test]
    fn bucket_sum_mismatch_rejected() {
        let r = pse_obs::ObsReport {
            histograms: vec![pse_obs::HistogramSummary {
                name: "h".into(),
                count: 2, // lies: the buckets hold only one sample
                sum: 3,
                min: 3,
                max: 3,
                buckets: vec![pse_obs::BucketEntry { le: 4, count: 1 }],
            }],
            ..Default::default()
        };
        let v: Value = serde_json::from_str(&r.to_json()).unwrap();
        let errs = check(&v);
        assert!(errs.iter().any(|e| e.contains("bucket counts sum to 1, expected 2")));
    }
}
