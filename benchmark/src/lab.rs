//! Per-layer costs, taken from outside: after the timed phases of a
//! traced run, each layer's public function is called in-process on the
//! same inputs, every call under a span. Nothing here runs in an
//! untraced run except [`wal_bytes_per_offer`], which is an end-to-end
//! cost (disk bytes a feed pays per offer), not a timing.
//!
//! The public functions called are listed in `benchmark/README.md`; none
//! is slated for deletion by ROADMAP item 4.

use std::collections::BTreeSet;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use pse_core::{Offer, OfferId};
use pse_query::Resolution;
use pse_serve::{durable_ingest, durable_snapshot, open_durable, ShardedStore};
use pse_wal::{DurabilityConfig, Wal, WalRecord};

use crate::http::encode_request;
use crate::report::Metric;
use crate::serving::Quality;
use crate::serving::{fresh_offers, search_index, QueryKind, SearchQuery, CHURN_BATCH, TOP_K};
use crate::stats::Summary;
use crate::system::{embedded_provider, next_offers, System, SHARDS};
use crate::trace::Tracer;

/// Calls per in-process read-path probe.
const READ_PROBES: usize = 2_000;
/// Cap on `Resolution::resolve` / `fuzzy_value` probes.
const QUERY_PROBES: usize = 3_000;
/// Ingest batches whose frames `wal_bytes_per_offer` accounts.
const FRAME_BATCHES: usize = 256;

fn p50_us(tracer: &Tracer, name: &str) -> f64 {
    Summary::of_ns(&mut tracer.durations_ns(name)).p50_us
}

fn us(name: &str, value: f64) -> Metric {
    Metric::new(name, value, "us")
}

fn p50(values: &mut [u64]) -> f64 {
    values.sort_unstable();
    values.get(values.len() / 2).map_or(f64::NAN, |&v| v as f64)
}

/// WAL frame bytes per acknowledged offer: the churn phase's first
/// ingest batches (and the retraction every 10th cycle sends) are
/// reconciled again, encoded, and staged into a scratch log whose LSNs
/// give the exact frame sizes — the live log rotates during the run, so
/// its length cannot be read.
pub fn wal_bytes_per_offer(sys: &System, batches_acked: u64, scratch: &Path) -> f64 {
    let batches = (batches_acked as usize).min(FRAME_BATCHES);
    if batches == 0 {
        return f64::NAN;
    }
    let _ = std::fs::create_dir_all(scratch);
    let mut wal = Wal::create(&scratch.join("frames.log"), 0).expect("scratch WAL");
    let header = wal.len();
    let provider = embedded_provider();
    let mut stream = fresh_offers(sys).into_inner().expect("offer stream");
    for cycle in 0..batches {
        let offers = next_offers(&sys.base, &mut stream, CHURN_BATCH);
        let record = WalRecord::Ingest(sys.store().reconcile(&offers, &provider));
        wal.stage_payload(&record.payload()).expect("stage ingest frame");
        if cycle % 10 == 9 {
            let ids: Vec<OfferId> = offers.iter().map(|o| o.id).collect();
            wal.stage_payload(&WalRecord::Retract(ids).payload()).expect("stage retract frame");
        }
    }
    (wal.len() - header) as f64 / (batches * CHURN_BATCH) as f64
}

/// In-process costs of the read path.
pub struct ReadLayers {
    /// `pse_serve::http::read_request` on the bytes of a lookup, p50 µs.
    pub read_request_us: f64,
    /// `ShardedStore::product_response`, p50 µs.
    pub product_response_us: f64,
    /// `ShardedStore::products_response`, warm, p50 µs.
    pub products_response_us: f64,
    /// `GET /products/{c}` body size, p50 bytes.
    pub products_body_bytes: f64,
    /// `write_response` of a category body into a `Vec`, p50 µs.
    pub write_response_us: f64,
    /// `write_response` of a single product body, p50 µs (the term of
    /// `serve.unattributed_us`, which decomposes a point lookup).
    pub write_product_us: f64,
}

impl ReadLayers {
    /// The read path's per-layer metrics. `tracer` holds the traced
    /// run's client spans; `product` / `products` are its end-to-end
    /// latencies; the counts span every serving phase.
    pub fn metrics(
        &self,
        tracer: &Tracer,
        product: &Summary,
        products: &Summary,
        connections: u64,
        answered: u64,
    ) -> Vec<Metric> {
        let in_process = self.read_request_us + self.product_response_us + self.write_product_us;
        vec![
            us("serve.connect_us", p50_us(tracer, "client.connect")),
            us("serve.ttfb_us", p50_us(tracer, "client.ttfb")),
            Metric::new("serve.connections_per_request", connections as f64 / answered as f64, "ratio")
                .note(format!("({connections} connections, {answered} requests)")),
            us("serve.http.read_request_us", self.read_request_us),
            us("serve.shard.product_response_us", self.product_response_us),
            us("serve.shard.products_response_us", self.products_response_us),
            Metric::new("serve.products.body_bytes", self.products_body_bytes, "B"),
            us("serve.http.write_response_us", self.write_response_us)
                .note("(a /products body)".into()),
            us("serve.unattributed_us", product.p50_us - in_process).note(format!(
                "(product_p50_us {:.1} - read_request {:.2} - product_response {:.2} - write of a product body {:.2})",
                product.p50_us, self.read_request_us, self.product_response_us, self.write_product_us
            )),
            us("serve.product.p99_us", product.tail_us()).note(product.describe()),
            us("serve.products.p99_us", products.tail_us()).note(products.describe()),
        ]
    }
}

/// Time the read path's public functions on the same keys the clients
/// request.
pub fn read_layers(sys: &System, tracer: &mut Tracer) -> ReadLayers {
    let store = sys.store();
    let host = sys.addr.to_string();
    let mut sink: Vec<u8> = Vec::with_capacity(1 << 20);
    let mut body_bytes = Vec::new();
    for i in 0..READ_PROBES {
        let p = &sys.product_paths[i * 7919 % sys.product_paths.len()];
        let request = encode_request(&host, "GET", &p.path, b"");
        tracer.time("serve.http.read_request", i as u64, || {
            black_box(pse_serve::http::read_request(&mut Cursor::new(&request), 1 << 20))
                .expect("request parses")
        });
        let json = tracer
            .time("serve.shard.product_response", i as u64, || store.product_response(&p.key))
            .expect("preloaded key is served");
        sink.clear();
        tracer
            .time("serve.http.write_product", i as u64, || {
                pse_serve::http::write_response(&mut sink, 200, "application/json", json.as_bytes())
            })
            .expect("write into a Vec");

        let category = sys.categories[i % sys.categories.len()];
        let body = tracer
            .time("serve.shard.products_response", i as u64, || store.products_response(category));
        body_bytes.push(body.len() as u64);
        sink.clear();
        tracer
            .time("serve.http.write_response", i as u64, || {
                pse_serve::http::write_response(&mut sink, 200, "application/json", &body)
            })
            .expect("write into a Vec");
    }
    ReadLayers {
        read_request_us: p50_us(tracer, "serve.http.read_request"),
        product_response_us: p50_us(tracer, "serve.shard.product_response"),
        products_response_us: p50_us(tracer, "serve.shard.products_response"),
        products_body_bytes: p50(&mut body_bytes),
        write_response_us: p50_us(tracer, "serve.http.write_response"),
        write_product_us: p50_us(tracer, "serve.http.write_product"),
    }
}

/// In-process costs of the query engine.
pub struct QueryLayers {
    /// First search on a store none of whose indexes is built, minus a
    /// warm one, ms.
    pub index_build_ms: f64,
    /// `ShardedStore::search` p50 µs: truth queries resolved exactly.
    pub search_exact_us: f64,
    /// … truth queries with an attribute-name hint.
    pub search_hinted_us: f64,
    /// … misspelled queries (fuzzy scan).
    pub search_fuzzy_us: f64,
    /// … junk queries (no match).
    pub search_miss_us: f64,
    /// `ShardedStore::search` p50 µs over the whole mix.
    pub search_all_us: f64,
    /// `Resolution::resolve` per (query, category), p50 µs.
    pub resolve_us: f64,
    /// `CategoryIndex::fuzzy_value` of a misspelled phrase, p50 µs.
    pub fuzzy_value_us: f64,
    /// Mean distinct `(attribute, value)` entries per category: the rows
    /// one fuzzy scan may examine.
    pub fuzzy_vocab_size: f64,
}

impl QueryLayers {
    /// The query engine's per-layer metrics; `searched` is the traced
    /// run's end-to-end search latency.
    pub fn metrics(&self, quality: &Quality, searched: &Summary) -> Vec<Metric> {
        vec![
            Metric::new("query.index_build_ms", self.index_build_ms, "ms"),
            us("query.search_us.exact", self.search_exact_us),
            us("query.search_us.hinted", self.search_hinted_us),
            us("query.search_us.fuzzy", self.search_fuzzy_us),
            us("query.search_us.miss", self.search_miss_us),
            us("query.resolve_us", self.resolve_us),
            us("query.fuzzy_value_us", self.fuzzy_value_us),
            Metric::new("query.fuzzy_vocab_size", self.fuzzy_vocab_size, "count"),
            Metric::new("query.hits_per_query", quality.hits_per_query, "count"),
            Metric::new("query.empty_share", quality.empty_share, "fraction"),
            us("search.unattributed_us", searched.p50_us - self.search_all_us).note(format!(
                "(search_p50_us {:.1} - in-process search {:.1})",
                searched.p50_us, self.search_all_us
            )),
            us("query.search.p99_us", searched.tail_us()).note(searched.describe()),
        ]
    }
}

/// Time the query engine's public functions on the search mix. `cold` is
/// a copy of the served store whose indexes were never built.
pub fn query_layers(
    sys: &System,
    cold: &ShardedStore,
    mix: &[SearchQuery],
    tracer: &mut Tracer,
) -> QueryLayers {
    let probe = &mix[0].text;
    let t = Instant::now();
    black_box(cold.search(probe, TOP_K));
    let first = t.elapsed();
    let t = Instant::now();
    black_box(cold.search(probe, TOP_K));
    let index_build_ms = first.saturating_sub(t.elapsed()).as_secs_f64() * 1e3;

    let store = sys.store();
    for (i, q) in mix.iter().enumerate() {
        let t = Instant::now();
        let outcome = black_box(store.search(&q.text, TOP_K));
        let end = Instant::now();
        let class = match q.kind {
            QueryKind::Junk => "query.search.miss",
            QueryKind::Misspelled => "query.search.fuzzy",
            QueryKind::Truth(_) if outcome.result.constraints.iter().any(|c| c.hinted) => {
                "query.search.hinted"
            }
            QueryKind::Truth(_) => "query.search.exact",
        };
        let root = tracer.record("query.search", t, end, None, i as u64);
        tracer.record(class, t, end, root, i as u64);
    }

    let index = search_index(store);
    let pairs = mix.len() * index.len();
    let stride = pairs.div_ceil(QUERY_PROBES).max(1);
    let mut vocab = 0usize;
    for (c, ci) in index.values().enumerate() {
        let distinct: BTreeSet<&(String, String)> =
            ci.docs().iter().flat_map(|d| d.pairs.iter()).collect();
        vocab += distinct.len();
        for (i, q) in mix.iter().enumerate() {
            if !(c * mix.len() + i).is_multiple_of(stride) {
                continue;
            }
            let toks = pse_text::tokenize::tokens(&q.text);
            tracer.time("query.resolve", i as u64, || black_box(Resolution::resolve(ci, &toks)));
            if q.kind == QueryKind::Misspelled {
                // The edited token is the longest one: the phrase the
                // resolver could not match exactly.
                let phrase = toks.iter().max_by_key(|t| t.chars().count()).expect("tokens");
                tracer.time("query.fuzzy_value", i as u64, || black_box(ci.fuzzy_value(phrase)));
            }
        }
    }
    QueryLayers {
        index_build_ms,
        search_exact_us: p50_us(tracer, "query.search.exact"),
        search_hinted_us: p50_us(tracer, "query.search.hinted"),
        search_fuzzy_us: p50_us(tracer, "query.search.fuzzy"),
        search_miss_us: p50_us(tracer, "query.search.miss"),
        search_all_us: p50_us(tracer, "query.search"),
        resolve_us: p50_us(tracer, "query.resolve"),
        fuzzy_value_us: p50_us(tracer, "query.fuzzy_value"),
        fuzzy_vocab_size: vocab as f64 / index.len().max(1) as f64,
    }
}

/// In-process costs of the durable write path, single writer.
pub struct IngestLayers {
    /// `serde_json::from_str::<Vec<Offer>>` of a POST body, p50 µs.
    pub decode_us: f64,
    /// `ShardedStore::reconcile`, p50 µs.
    pub reconcile_us: f64,
    /// `WalRecord::payload`, p50 µs.
    pub encode_us: f64,
    /// Mean frame bytes per record.
    pub record_bytes: f64,
    /// `Wal::stage_payload`, p50 µs.
    pub stage_us: f64,
    /// `sync_data` on `Wal::sync_handle` after each frame: p50 and tail.
    pub sync: Summary,
    /// `ShardedStore::ingest_reconciled`, p50 µs.
    pub apply_us: f64,
    /// Mean clusters re-fused per commit.
    pub dirty_clusters_per_commit: f64,
    /// Whole `durable_ingest` call, p50 µs.
    pub durable_ingest_us: f64,
    /// `durable_snapshot` over the unfolded log, ms.
    pub fold_ms: f64,
    /// Bytes that fold wrote.
    pub fold_bytes_written: f64,
    /// After one more single-shard commit: segments the next fold
    /// skipped / shards.
    pub segments_skipped_share: f64,
    /// `open_durable` on the directory with an unfolded tail, ms.
    pub recover_ms: f64,
    /// WAL records that recovery replayed.
    pub recover_records: f64,
    /// (WAL + segment bytes on disk) / JSON bytes of every offer ingested.
    pub space_amp: f64,
    /// The recovered store equals the live one byte for byte.
    pub recovery_equal: bool,
}

impl IngestLayers {
    /// The write path's per-layer metrics; `commit` is the traced run's
    /// end-to-end `POST /ingest` latency, `commits` the lab's log length.
    pub fn metrics(&self, commits: usize, commit: &Summary) -> Vec<Metric> {
        vec![
            us("serve.ingest.decode_us", self.decode_us),
            us("serve.shard.reconcile_us", self.reconcile_us),
            us("wal.encode_us", self.encode_us),
            Metric::new("wal.record_bytes", self.record_bytes, "B"),
            us("wal.stage_us", self.stage_us),
            us("wal.sync_us", self.sync.p50_us),
            us("wal.sync.p99_us", self.sync.tail_us()).note(self.sync.describe()),
            us("store.apply_us", self.apply_us),
            Metric::new("store.dirty_clusters_per_commit", self.dirty_clusters_per_commit, "count"),
            us("serve.durable_ingest_us", self.durable_ingest_us),
            Metric::new("wal.fold_ms", self.fold_ms, "ms").note(format!("({commits}-commit log)")),
            Metric::new("wal.fold_bytes_written", self.fold_bytes_written, "B"),
            Metric::new("wal.segments_skipped_share", self.segments_skipped_share, "fraction"),
            Metric::new("wal.recover_ms", self.recover_ms, "ms"),
            Metric::new("wal.recover_records", self.recover_records, "count"),
            Metric::new("wal.space_amp", self.space_amp, "ratio"),
            us("ingest.unattributed_us", commit.p50_us - self.decode_us - self.durable_ingest_us)
                .note(format!(
                    "(commit_p50_us {:.1} - decode {:.1} - durable_ingest {:.1})",
                    commit.p50_us, self.decode_us, self.durable_ingest_us
                )),
            us("serve.ingest.p99_us", commit.tail_us()).note(commit.describe()),
        ]
    }
}

/// Time the write path's public functions. `store` is a copy of the
/// served store as preloaded (the churn phase's starting state); fresh
/// offers continue the stream from there. `commits` durable commits are
/// logged before the fold and again before the recovery.
pub fn ingest_layers(
    sys: &System,
    store: ShardedStore,
    commits: usize,
    dir: &Path,
    tracer: &mut Tracer,
) -> IngestLayers {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("lab directory");
    let catalog = &sys.world.catalog;
    let provider = embedded_provider();
    let mut stream = sys.base.stream(usize::MAX);
    let mut json_bytes = 0u64;
    while stream.position() < sys.sizes.preload_offers {
        let n = (sys.sizes.preload_offers - stream.position()).min(1_000);
        let offers = next_offers(&sys.base, &mut stream, n);
        json_bytes += serde_json::to_string(&offers).expect("offers serialize").len() as u64;
    }
    let mut next_body = |n: usize| {
        let offers = next_offers(&sys.base, &mut stream, n);
        let body = serde_json::to_string(&offers).expect("offers serialize");
        json_bytes += body.len() as u64;
        body
    };

    // Stage by stage, on a scratch log: what one commit is made of.
    let mut scratch = Wal::create(&dir.join("scratch.log"), 0).expect("scratch WAL");
    let sync = scratch.sync_handle().expect("sync handle");
    let header = scratch.len();
    let mut dirty = 0usize;
    for i in 0..commits {
        let id = i as u64;
        let body = next_body(CHURN_BATCH);
        let offers: Vec<Offer> = tracer
            .time("serve.ingest.decode", id, || serde_json::from_str(&body))
            .expect("body decodes");
        let reconciled =
            tracer.time("serve.shard.reconcile", id, || store.reconcile(&offers, &provider));
        let record = WalRecord::Ingest(reconciled);
        let payload = tracer.time("wal.encode", id, || record.payload());
        tracer.time("wal.stage", id, || scratch.stage_payload(&payload)).expect("stage");
        tracer.time("wal.sync", id, || sync.sync_data()).expect("sync");
        let WalRecord::Ingest(reconciled) = record else { unreachable!() };
        let write = tracer.time("store.apply", id, || store.ingest_reconciled(catalog, reconciled));
        dirty += write.stats.clusters_dirty;
    }
    let record_bytes = (scratch.len() - header) as f64 / commits.max(1) as f64;
    drop(scratch);

    // The whole call, on a real durable directory that never auto-folds.
    let dcfg = DurabilityConfig {
        wal_path: dir.join("wal.log"),
        snapshot_dir: dir.join("segments"),
        compaction_threshold_bytes: u64::MAX,
        group: Default::default(),
    };
    let (store, ctx, _) = open_durable(dcfg.clone(), catalog, store).expect("open the lab store");
    let mut commit = |tracer: &mut Tracer, id: u64, n: usize| {
        let offers: Vec<Offer> = serde_json::from_str(&next_body(n)).expect("body decodes");
        tracer
            .time("serve.durable_ingest", id, || {
                durable_ingest(&store, &ctx, catalog, &offers, &provider)
            })
            .expect("durable ingest")
    };
    for i in 0..commits {
        commit(tracer, i as u64, CHURN_BATCH);
    }
    let durable_ingest_us = p50_us(tracer, "serve.durable_ingest");
    let fold = tracer.time("wal.fold", 0, || durable_snapshot(&store, &ctx)).expect("fold");
    let fold_ms = tracer.total_s("wal.fold") * 1e3;
    // One offer lands in one cluster, so in one shard: the next fold has
    // three clean segments to skip.
    while commit(tracer, 0, 1).offers_routed == 0 {}
    let second = durable_snapshot(&store, &ctx).expect("second fold");

    for i in 0..commits {
        commit(tracer, i as u64, CHURN_BATCH);
    }
    let wal_bytes = ctx.durability().lock().expect("durability lock").wal_len();
    let space_amp = (wal_bytes + second.total_bytes) as f64 / json_bytes as f64;
    let live = store.snapshot_json();
    drop(ctx);
    drop(store);
    let seed = ShardedStore::new(sys.correspondences.clone(), SHARDS);
    let t = Instant::now();
    let (recovered, rctx, rstats) =
        open_durable(dcfg, catalog, seed).expect("recover the lab store");
    let recover_ms = t.elapsed().as_secs_f64() * 1e3;
    let recovery_equal = recovered.snapshot_json() == live;
    drop(rctx);

    IngestLayers {
        decode_us: p50_us(tracer, "serve.ingest.decode"),
        reconcile_us: p50_us(tracer, "serve.shard.reconcile"),
        encode_us: p50_us(tracer, "wal.encode"),
        record_bytes,
        stage_us: p50_us(tracer, "wal.stage"),
        sync: Summary::of_ns(&mut tracer.durations_ns("wal.sync")),
        apply_us: p50_us(tracer, "store.apply"),
        dirty_clusters_per_commit: dirty as f64 / commits.max(1) as f64,
        durable_ingest_us,
        fold_ms,
        fold_bytes_written: fold.bytes_written as f64,
        segments_skipped_share: second.segments_skipped as f64 / SHARDS as f64,
        recover_ms,
        recover_records: rstats.wal_records_replayed as f64,
        space_amp,
        recovery_equal,
    }
}
