//! The three serving phases — `read_mix`, `search_mix`, `ingest_churn` —
//! driven over real sockets against the in-process server: closed loop,
//! [`CLIENTS`] client threads, each waiting for its reply before the
//! next request.

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use pse_core::{AttributeKind, CategoryId, Product, ProductId};
use pse_datagen::{truth_queries, TruthQuery, World};
use pse_query::SearchIndex;
use pse_serve::ShardedStore;
use pse_synthesis::runtime::normalize_key;
use serde::Value;

use crate::http::{encode_query_value, Client, Response, Timing};
use crate::stats::SplitMix;
use crate::system::{next_offers, System, CLIENTS};
use crate::trace::Tracer;

/// Hits requested per search — the `@10` of the quality metrics.
pub const TOP_K: usize = 10;
/// Offers per `POST /ingest` in the churn phase.
pub const CHURN_BATCH: usize = 8;
/// Share of each phase run before timing starts and discarded.
const WARMUP_SHARE: f64 = 0.05;

/// Operation counts of one phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    /// Requests sent.
    pub attempted: u64,
    /// Requests that failed: refused, timed out, non-200, or wrong body.
    pub failed: u64,
    /// Requests answered 200 inside the timed window.
    pub completed: u64,
    /// Connections the clients opened (all requests, warm-up included).
    pub connections: u64,
    /// Requests answered (all statuses, warm-up included).
    pub answered: u64,
    /// Seconds of the timed windows, summed over slices.
    pub wall_s: f64,
}

impl Counts {
    /// Add another slice's (or client's) counts.
    fn absorb(&mut self, other: &Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.completed += other.completed;
        self.connections += other.connections;
        self.answered += other.answered;
        self.wall_s += other.wall_s;
    }
}

/// The timed window of one phase: warm-up first, then measure.
#[derive(Debug, Clone, Copy)]
struct Window {
    warm_until: Instant,
    deadline: Instant,
}

impl Window {
    fn starting_now(dur: Duration) -> Self {
        let now = Instant::now();
        let warm_until = now + dur.mul_f64(WARMUP_SHARE);
        Self { warm_until, deadline: warm_until + dur }
    }
}

/// Send one request under a root span named `name`, with the client's
/// connect / write / wait / read steps as child spans. `None` is an I/O
/// failure.
fn send(
    client: &mut Client,
    tracer: &mut Tracer,
    request: u64,
    name: &'static str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Option<(Response, Timing)> {
    let (response, t) = client.request(method, path, body).ok()?;
    if let Some(root) = tracer.record(name, t.start, t.done, None, request) {
        let root = Some(root);
        let sent_from = t.connected.unwrap_or(t.start);
        if let Some(connected) = t.connected {
            tracer.record("client.connect", t.start, connected, root, request);
        }
        tracer.record("client.write", sent_from, t.written, root, request);
        tracer.record("client.ttfb", t.written, t.first_byte, root, request);
        tracer.record("client.read", t.first_byte, t.done, root, request);
    }
    Some((response, t))
}

/// [`send`], counted: `Some` only for a 200, with `counts` told what
/// happened either way. The request id is the client's running count.
#[allow(clippy::too_many_arguments)]
fn send_ok(
    counts: &mut Counts,
    client_index: usize,
    client: &mut Client,
    tracer: &mut Tracer,
    name: &'static str,
    method: &str,
    path: &str,
    body: &[u8],
) -> Option<(Response, Timing)> {
    counts.attempted += 1;
    let id = ((client_index as u64) << 40) | counts.attempted;
    let sent = send(client, tracer, id, name, method, path, body);
    counts.answered += u64::from(sent.is_some());
    let ok = sent.filter(|(response, _)| response.status == 200);
    counts.failed += u64::from(ok.is_none());
    ok
}

/// Run `f` on [`CLIENTS`] threads, each with its own client and tracer;
/// returns the per-client results and merges spans and connection counts.
fn run_clients<T: Send>(
    sys: &System,
    tracer: &mut Tracer,
    window: Window,
    f: impl Fn(usize, &mut Client, &mut Tracer) -> (T, Counts) + Sync,
) -> (Vec<T>, Counts) {
    let forks: Vec<Tracer> = (0..CLIENTS).map(|_| tracer.fork()).collect();
    let done: Vec<(T, Counts, Tracer, u64, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = forks
            .into_iter()
            .enumerate()
            .map(|(i, mut tr)| {
                let f = &f;
                s.spawn(move || {
                    let mut client = Client::new(sys.addr);
                    let (out, counts) = f(i, &mut client, &mut tr);
                    (out, counts, tr, client.connections_opened, Instant::now())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut total = Counts::default();
    let mut outs = Vec::new();
    let mut last_end = window.warm_until;
    for (out, counts, tr, connections, end) in done {
        total.absorb(&Counts { connections, ..counts });
        last_end = last_end.max(end);
        tracer.merge(tr);
        outs.push(out);
    }
    total.wall_s = last_end.duration_since(window.warm_until).as_secs_f64();
    (outs, total)
}

// ---------------------------------------------------------------- read_mix

/// What `read_mix` measured.
#[derive(Debug, Default)]
pub struct ReadRun {
    /// `GET /product` latencies, ns.
    pub product_ns: Vec<u64>,
    /// `GET /products/{c}` latencies, ns.
    pub products_ns: Vec<u64>,
    /// Operation counts.
    pub counts: Counts,
}

impl ReadRun {
    /// Add another slice's samples.
    pub fn absorb(&mut self, other: ReadRun) {
        self.product_ns.extend(other.product_ns);
        self.products_ns.extend(other.products_ns);
        self.counts.absorb(&other.counts);
    }
}

/// 80% `GET /product` uniform over served keys, 20% `GET /products/{c}`
/// uniform over categories, read-only. Every status must be 200; every
/// 100th response of a client is compared byte for byte with the
/// in-process `product_response` / `products_response`.
pub fn read_mix(sys: &System, seed: u64, dur: Duration, tracer: &mut Tracer) -> ReadRun {
    let window = Window::starting_now(dur);
    let (outs, counts) = run_clients(sys, tracer, window, |i, client, tr| {
        let mut rng = SplitMix(seed ^ (0x52EA_D000 + i as u64));
        let mut out = ReadRun::default();
        let mut c = Counts::default();
        loop {
            let now = Instant::now();
            if now >= window.deadline {
                break;
            }
            let listing = rng.below(5) == 0;
            let k = rng.below(if listing { sys.categories.len() } else { sys.product_paths.len() });
            let (name, path) = if listing {
                ("read.products", &sys.category_paths[k])
            } else {
                ("read.product", &sys.product_paths[k].path)
            };
            let Some((response, t)) = send_ok(&mut c, i, client, tr, name, "GET", path, b"") else {
                continue;
            };
            let right_body = || {
                let store = sys.store();
                if listing {
                    *store.products_response(sys.categories[k]) == response.body[..]
                } else {
                    store
                        .product_response(&sys.product_paths[k].key)
                        .is_some_and(|json| json.as_bytes() == response.body)
                }
            };
            if c.attempted % 100 == 0 && !right_body() {
                c.failed += 1;
            } else if now >= window.warm_until {
                c.completed += 1;
                if listing { &mut out.products_ns } else { &mut out.product_ns }.push(t.total_ns());
            }
        }
        (out, c)
    });
    let mut run = ReadRun { counts, ..ReadRun::default() };
    for out in outs {
        run.absorb(out);
    }
    run
}

// -------------------------------------------------------------- search_mix

/// How a query of the mix was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// A ground-truth query as generated; the index into the truth list.
    Truth(usize),
    /// A truth query with one edit in its longest token: forces the
    /// SoftTFIDF fuzzy scan.
    Misspelled,
    /// Tokens no catalog knows: the fuzzy scan's worst case, no match.
    Junk,
}

/// One query of the search mix.
#[derive(Debug, Clone)]
pub struct SearchQuery {
    /// The free text.
    pub text: String,
    /// `GET` path with the text percent-encoded and `k` pinned.
    pub path: String,
    /// How it was made.
    pub kind: QueryKind,
}

/// One substitution in the middle of the longest token.
fn misspell(text: &str) -> String {
    let longest = text
        .split(' ')
        .enumerate()
        .max_by_key(|(i, t)| (t.chars().count(), std::cmp::Reverse(*i)))
        .map(|(i, _)| i);
    text.split(' ')
        .enumerate()
        .map(|(i, token)| {
            if Some(i) != longest {
                return token.to_string();
            }
            let chars: Vec<char> = token.chars().collect();
            let mid = chars.len() / 2;
            chars
                .iter()
                .enumerate()
                .map(|(j, &ch)| match (j == mid, ch) {
                    (true, 'x') => 'y',
                    (true, _) => 'x',
                    (false, _) => ch,
                })
                .collect()
        })
        .collect::<Vec<String>>()
        .join(" ")
}

/// The search mix: the truth queries in order, after every 4th its
/// misspelling, after every 16th a junk query.
pub fn search_queries(world: &World, count: usize) -> (Vec<TruthQuery>, Vec<SearchQuery>) {
    let truth = truth_queries(world, count);
    let make = |text: String, kind| SearchQuery {
        path: format!("/search?q={}&k={TOP_K}", encode_query_value(&text)),
        text,
        kind,
    };
    let mut mix = Vec::new();
    for (i, q) in truth.iter().enumerate() {
        mix.push(make(q.text.clone(), QueryKind::Truth(i)));
        if i % 4 == 3 {
            mix.push(make(misspell(&q.text), QueryKind::Misspelled));
        }
        if i % 16 == 15 {
            mix.push(make(format!("zzqx{i} vvkw{i} qqjz"), QueryKind::Junk));
        }
    }
    (truth, mix)
}

/// What `search_mix` measured.
#[derive(Debug, Default)]
pub struct SearchRun {
    /// `GET /search` latencies, ns.
    pub search_ns: Vec<u64>,
    /// The first 200 body seen per query of the mix (index-aligned).
    pub bodies: Vec<Option<Vec<u8>>>,
    /// Operation counts.
    pub counts: Counts,
}

impl SearchRun {
    /// Add another slice's samples; first-pass bodies are kept.
    pub fn absorb(&mut self, other: SearchRun) {
        self.search_ns.extend(other.search_ns);
        self.counts.absorb(&other.counts);
        if self.bodies.is_empty() {
            self.bodies = other.bodies;
        }
    }
}

/// Where each client is in its walk over the mix, kept across slices so
/// that a run's samples cover the mix evenly.
#[derive(Debug, Clone)]
pub struct SearchCursor {
    /// Client `i` sends `mix[(next[i] + rotation) % len]` next, then
    /// steps by [`CLIENTS`].
    next: [usize; CLIENTS],
    rotation: usize,
}

impl SearchCursor {
    /// Walks starting where `seed` says.
    pub fn new(seed: u64, mix_len: usize) -> Self {
        let rotation = (SplitMix(seed).next_u64() % mix_len as u64) as usize;
        Self { next: std::array::from_fn(|i| i), rotation }
    }
}

/// One slice of the search phase. Each client first finishes its share
/// of one full walk over the mix whatever the deadline — so every query
/// is answered at least once on the preloaded store, which is what
/// quality is scored on — then keeps cycling until the deadline.
pub fn search_mix(
    sys: &System,
    mix: &[SearchQuery],
    cursor: &mut SearchCursor,
    dur: Duration,
    tracer: &mut Tracer,
) -> SearchRun {
    let window = Window::starting_now(dur);
    let start = cursor.clone();
    let (outs, counts) = run_clients(sys, tracer, window, |i, client, tr| {
        let mut out = SearchRun::default();
        let mut c = Counts::default();
        let mut firsts: Vec<(usize, Vec<u8>)> = Vec::new();
        let mut k = start.next[i];
        loop {
            let first_pass = k < mix.len();
            let now = Instant::now();
            if !first_pass && now >= window.deadline {
                break;
            }
            let q = (k + start.rotation) % mix.len();
            k += CLIENTS;
            let path = &mix[q].path;
            if let Some((response, t)) =
                send_ok(&mut c, i, client, tr, "search.request", "GET", path, b"")
            {
                if now >= window.warm_until {
                    c.completed += 1;
                    out.search_ns.push(t.total_ns());
                }
                if first_pass {
                    firsts.push((q, response.body));
                }
            }
        }
        ((out, firsts, k), c)
    });
    let mut run = SearchRun { counts, bodies: vec![None; mix.len()], ..SearchRun::default() };
    for (i, (out, firsts, k)) in outs.into_iter().enumerate() {
        cursor.next[i] = k;
        run.search_ns.extend(out.search_ns);
        for (q, body) in firsts {
            run.bodies[q] = Some(body);
        }
    }
    run
}

/// What a `/search` answer says: the elected category and the
/// `(category, key_value)` of each hit, in rank order.
type Answer = (Option<u32>, Vec<(u32, String)>);

/// Read an [`Answer`] off a `/search` body; `None` for a body that is
/// not the documented JSON.
fn parse_hits(body: &[u8]) -> Option<Answer> {
    let v: Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    let category = match v.get("category")? {
        Value::U64(c) => Some(*c as u32),
        Value::Null => None,
        _ => return None,
    };
    let Value::Array(hits) = v.get("hits")? else { return None };
    let hits = hits
        .iter()
        .map(|h| {
            let p = h.get("product")?;
            match (p.get("category")?, p.get("key_value")?) {
                (Value::U64(c), Value::Str(k)) => Some((*c as u32, k.clone())),
                _ => None,
            }
        })
        .collect::<Option<Vec<_>>>()?;
    Some((category, hits))
}

/// Search quality against the datagen oracle.
#[derive(Debug, Clone, Copy)]
pub struct Quality {
    /// Fraction of scored queries whose top hit is a true answer.
    pub precision_at_1: f64,
    /// Mean share of findable answers found in the top [`TOP_K`].
    pub recall_at_10: f64,
    /// Queries with at least one served answer (the denominators).
    pub scored: usize,
    /// Mean hits per answered query of the mix.
    pub hits_per_query: f64,
    /// Zero-hit queries / queries of the mix.
    pub empty_share: f64,
}

/// Every normalized identifier value a truth query's answer products
/// could have clustered under (the bridge `crates/bench` scores with: a
/// catalog product is a served hit when one of its identifier values
/// normalizes to the hit's key).
fn answer_keys(
    world: &World,
    by_id: &HashMap<ProductId, &Product>,
    query: &TruthQuery,
) -> BTreeSet<String> {
    let mut keys = BTreeSet::new();
    for product in query.products.iter().filter_map(|pid| by_id.get(pid)) {
        let Some(info) = world.category_info(product.category) else { continue };
        for t in info.templates.iter().filter(|t| t.kind == AttributeKind::Identifier) {
            if let Some(key) = product.spec.get(&t.name).map(normalize_key) {
                if !key.is_empty() {
                    keys.insert(key);
                }
            }
        }
    }
    keys
}

/// Score the first-pass bodies. Queries none of whose answers is served
/// are unanswerable by construction and leave the denominators.
pub fn quality(
    world: &World,
    store: &ShardedStore,
    truth: &[TruthQuery],
    mix: &[SearchQuery],
    bodies: &[Option<Vec<u8>>],
) -> Quality {
    let served: BTreeSet<String> = store.products().into_iter().map(|p| p.key_value).collect();
    let by_id: HashMap<ProductId, &Product> = world.catalog.products().map(|p| (p.id, p)).collect();
    let (mut scored, mut top1, mut recall_sum) = (0usize, 0usize, 0.0f64);
    let (mut hit_total, mut empty, mut parsed) = (0usize, 0usize, 0usize);
    for (q, body) in mix.iter().zip(bodies) {
        let hits = body.as_deref().and_then(parse_hits).map(|(_, hits)| hits);
        if let Some(hits) = &hits {
            parsed += 1;
            hit_total += hits.len();
            empty += usize::from(hits.is_empty());
        }
        let QueryKind::Truth(i) = q.kind else { continue };
        let expected: BTreeSet<String> = answer_keys(world, &by_id, &truth[i])
            .into_iter()
            .filter(|k| served.contains(k))
            .collect();
        if expected.is_empty() {
            continue;
        }
        scored += 1;
        let hits = hits.unwrap_or_default();
        top1 += usize::from(hits.first().is_some_and(|(_, k)| expected.contains(k)));
        let found = hits.iter().filter(|(_, k)| expected.contains(k)).count();
        recall_sum += found as f64 / expected.len().min(TOP_K) as f64;
    }
    Quality {
        precision_at_1: top1 as f64 / scored.max(1) as f64,
        recall_at_10: recall_sum / scored.max(1) as f64,
        scored,
        hits_per_query: hit_total as f64 / parsed.max(1) as f64,
        empty_share: empty as f64 / parsed.max(1) as f64,
    }
}

/// The published snapshot's per-category indexes, as `pse_query` takes
/// them.
pub fn search_index(store: &ShardedStore) -> SearchIndex {
    let snap = store.snapshot();
    snap.search
        .iter()
        .map(|(&c, slot)| (c, slot.get_or_build(&snap.shards, c, store.correspondences())))
        .collect()
}

/// How many of `samples` evenly spaced first-pass bodies disagree with
/// the naive full scan (`pse_query::search_scan`) on elected category or
/// ranked hits.
pub fn scan_mismatches(
    store: &ShardedStore,
    mix: &[SearchQuery],
    bodies: &[Option<Vec<u8>>],
    samples: usize,
) -> usize {
    let index = search_index(store);
    let step = (mix.len() / samples.max(1)).max(1);
    (0..mix.len())
        .step_by(step)
        .take(samples)
        .filter(|&q| {
            let want = pse_query::search_scan(&index, &mix[q].text, TOP_K);
            let want_hits: Vec<(u32, String)> =
                want.hits.iter().map(|h| (h.category.0, h.key_value.clone())).collect();
            let got = bodies[q].as_deref().and_then(parse_hits);
            got != Some((want.category.map(|c: CategoryId| c.0), want_hits))
        })
        .count()
}

// ------------------------------------------------------------ ingest_churn

/// What `ingest_churn` measured.
#[derive(Debug, Default)]
pub struct ChurnRun {
    /// `POST /ingest` round trips, ns.
    pub commit_ns: Vec<u64>,
    /// Both GETs of every cycle, ns.
    pub read_ns: Vec<u64>,
    /// Offers acknowledged inside the timed window.
    pub offers_acked: u64,
    /// Ingest batches acknowledged (warm-up included).
    pub batches_acked: u64,
    /// Offers the acknowledged ingests routed into clusters minus offers
    /// the acknowledged retractions removed (warm-up included): what the
    /// store must hold on top of the preload.
    pub offers_held: i64,
    /// Operation counts.
    pub counts: Counts,
}

fn stat(body: &[u8], field: &str) -> Option<u64> {
    let v: Value = serde_json::from_str(std::str::from_utf8(body).ok()?).ok()?;
    match v.get(field)? {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

impl ChurnRun {
    /// Add another slice's samples.
    pub fn absorb(&mut self, other: ChurnRun) {
        self.commit_ns.extend(other.commit_ns);
        self.read_ns.extend(other.read_ns);
        self.offers_acked += other.offers_acked;
        self.batches_acked += other.batches_acked;
        self.offers_held += other.offers_held;
        self.counts.absorb(&other.counts);
    }
}

/// The fresh offers the churn phase writes: the stream continued from
/// where the preload stopped, shared by the clients.
pub fn fresh_offers(sys: &System) -> Mutex<pse_datagen::OfferStream<'_>> {
    let mut stream = sys.base.stream(usize::MAX);
    let _ = stream.next_batch(sys.sizes.preload_offers);
    Mutex::new(stream)
}

/// One slice of writes beside reads on the durable server. Each client repeats:
/// `POST /ingest` [`CHURN_BATCH`] fresh streamed offers → `GET
/// /products/{c}` of a category that batch touched → `GET /product` of a
/// preloaded key; every 10th cycle also `POST /retract` the ids it
/// ingested 5 cycles earlier. Two concurrent writers, so group commit
/// has something to group.
pub fn ingest_churn(
    sys: &System,
    stream: &Mutex<pse_datagen::OfferStream<'_>>,
    seed: u64,
    dur: Duration,
    tracer: &mut Tracer,
) -> ChurnRun {
    let window = Window::starting_now(dur);
    let (outs, counts) = run_clients(sys, tracer, window, |i, client, tr| {
        let mut rng = SplitMix(seed ^ (0xC4_0000 + i as u64));
        let mut out = ChurnRun::default();
        let mut c = Counts::default();
        let mut recent: VecDeque<Vec<u64>> = VecDeque::new();
        let mut cycle = 0u64;
        loop {
            let now = Instant::now();
            if now >= window.deadline {
                break;
            }
            let timed = now >= window.warm_until;
            let offers = {
                let mut stream = stream.lock().expect("offer stream");
                next_offers(&sys.base, &mut stream, CHURN_BATCH)
            };
            let body = serde_json::to_string(&offers).expect("offers serialize");
            let ids: Vec<u64> = offers.iter().map(|o| o.id.0).collect();
            let category = offers.iter().find_map(|o| o.category).expect("offers carry a category");

            if let Some((reply, t)) =
                send_ok(&mut c, i, client, tr, "churn.ingest", "POST", "/ingest", body.as_bytes())
            {
                out.batches_acked += 1;
                out.offers_held += stat(&reply.body, "offers_routed").unwrap_or(0) as i64;
                if timed {
                    c.completed += 1;
                    out.offers_acked += offers.len() as u64;
                    out.commit_ns.push(t.total_ns());
                }
            }
            let listing = format!("/products/{}", category.0);
            let lookup = &sys.product_paths[rng.below(sys.product_paths.len())].path;
            for (name, path) in [("churn.products", listing.as_str()), ("churn.product", lookup)] {
                if let Some((_, t)) = send_ok(&mut c, i, client, tr, name, "GET", path, b"") {
                    if timed {
                        c.completed += 1;
                        out.read_ns.push(t.total_ns());
                    }
                }
            }
            recent.push_back(ids);
            if cycle % 10 == 9 {
                let old = recent.len().checked_sub(6).map(|k| recent[k].clone());
                if let Some(old) = old {
                    let body = serde_json::to_string(&old).expect("ids serialize");
                    let body = body.as_bytes();
                    if let Some((reply, _)) =
                        send_ok(&mut c, i, client, tr, "churn.retract", "POST", "/retract", body)
                    {
                        out.offers_held -= stat(&reply.body, "offers_routed").unwrap_or(0) as i64;
                        if timed {
                            c.completed += 1;
                        }
                    }
                }
            }
            while recent.len() > 6 {
                recent.pop_front();
            }
            cycle += 1;
        }
        (out, c)
    });
    let mut run = ChurnRun::default();
    for out in outs {
        run.absorb(out);
    }
    run.counts = counts;
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn misspelling_edits_only_the_longest_token() {
        assert_eq!(misspell("canon 12 mp"), "caxon 12 mp");
        assert_eq!(misspell("ab abcd abcd"), "ab abxd abcd", "first of equally long tokens");
        assert_eq!(misspell("maxim"), "mayim", "an x in the middle becomes y");
    }

    #[test]
    fn hits_parse_from_the_documented_body() {
        let body = br#"{"category":3,"constraints":[],"hits":[
            {"matched":1,"score":0.5,"product":{"category":3,"key_value":"abc123","spec":[]}},
            {"matched":0,"score":0.1,"product":{"category":4,"key_value":"zzz9","spec":[]}}]}"#;
        let (category, hits) = parse_hits(body).unwrap();
        assert_eq!(category, Some(3));
        assert_eq!(hits, vec![(3, "abc123".to_string()), (4, "zzz9".to_string())]);
        assert_eq!(parse_hits(br#"{"category":null,"hits":[]}"#), Some((None, Vec::new())));
        assert_eq!(parse_hits(b"not json"), None);
    }

    #[test]
    fn stats_fields_read_from_the_ingest_reply() {
        let reply = br#"{"offers_in":8,"offers_routed":5,"clusters_dirty":4,"refused":4}"#;
        assert_eq!(stat(reply, "offers_routed"), Some(5));
        assert_eq!(stat(reply, "absent"), None);
    }
}
