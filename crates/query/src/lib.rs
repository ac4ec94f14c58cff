//! Structured query engine over the synthesized catalog.
//!
//! The paper's pipeline (PVLDB 4(7), Fig. 4) ends with clean synthesized
//! products; this crate is the step that lets users *find* them. A
//! free-text query like `"canon 12 mp silver"` is answered in four
//! deterministic stages, each reusing an artifact the system already
//! built:
//!
//! 1. **Segmentation** — the query is tokenized with the shared
//!    [`pse_text`] tokenizer and scanned greedily left-to-right for the
//!    longest contiguous phrases that name an attribute or a value known
//!    to a category's index. Attribute *surface forms* include the
//!    merchant names learned by offline correspondence learning, so
//!    `"hard disk size 500 gb"` segments the merchant phrasing, not just
//!    the catalog one.
//! 2. **Resolution** — each phrase becomes a `(category, attribute,
//!    normalized value)` constraint: exact interned-token lookup first,
//!    then a SoftTFIDF fallback for fuzzy value matches at or above
//!    [`FUZZY_THETA`], which scores only the values holding a token equal
//!    or θ-close to a query token (one token probe per category and
//!    query, then posting lists). The query's category is elected across
//!    the per-category resolutions by query tokens covered, then summed
//!    constraint score (plus a bonus per hint-bound constraint), then
//!    constraint count; categories that tie exactly are *all* elected and
//!    their hits ranked together.
//! 3. **Retrieval** — candidates come from an inverted index over
//!    interned tokens ([`CategoryIndex`]): the union of the postings of
//!    every query token, plus the postings of every indexed value
//!    equivalent to a resolved constraint (so a constraint satisfied
//!    through [`pse_text::normalize::values_equivalent`] can never be
//!    missed). This makes the index provably a superset of the naive
//!    full scan — [`search()`] and [`search_scan`] are byte-identical,
//!    property-pinned in the crate tests.
//! 4. **Ranking** — candidates order by (constraints satisfied desc,
//!    TF-IDF cosine over interned tokens × `1 + ln(offers fused)` desc,
//!    cluster key asc): the same [`pse_text::InternedCorpus`] weighting
//!    the matcher uses, scaled by the evidence behind the product so a
//!    many-merchant product outranks a single-offer phantom cluster.
//!
//! The engine itself is single-threaded and allocation-light; the
//! serving layer keeps one [`CategoryIndex`] per category, built lazily
//! from the published snapshot and invalidated per category by the same
//! dirty-cluster deltas that invalidate the response cache — so results
//! are identical at any thread or shard count.

pub mod index;
pub mod resolve;
pub mod search;

pub use index::{CategoryIndex, Doc, SearchIndex};
pub use resolve::{Constraint, Resolution, FUZZY_THETA, MAX_PHRASE_TOKENS};
pub use search::{search, search_scan, Hit, SearchResult};

/// The engine's metric names, each written once.
pub mod metrics {
    pse_obs::metric_set! {
        /// Every counter and histogram the engine can emit. Whoever wires
        /// the engine in seeds it (`pse-serve` does at server start), so
        /// the metric set in an observability report is a function of the
        /// engine running, not of which queries happened to arrive;
        /// `tests/obs_contract.rs` holds reports to exactly this set.
        METRICS {
            counters {
                REQUESTS = "query.requests",
                RESOLVED_EXACT = "query.resolved_exact",
                RESOLVED_FUZZY = "query.resolved_fuzzy",
                NO_CATEGORY = "query.no_category",
            }
            histograms {
                CANDIDATES = "query.candidates",
                FUZZY_CANDIDATES = "query.fuzzy_candidates",
            }
        }
    }
}
pub use metrics::METRICS;
