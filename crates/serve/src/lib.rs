//! Serving layer for the product store: the paper's Product Search
//! Engine answers live queries while merchants stream offers in (PVLDB
//! 4(7), Fig. 4); this crate puts the incremental [`pse_store`] behind a
//! concurrent HTTP front — with zero external dependencies.
//!
//! Three layers:
//!
//! * **[`ShardedStore`]** — one [`pse_store::ProductStore`] under one
//!   writer lock: every ingest/retract, volatile or durable, is one
//!   atomic `apply` that mutates the store and publishes once. Readers
//!   never touch that lock or a serializer — they load an immutable
//!   published [`snapshot`] (MVCC): every visible product by category,
//!   with pre-serialized `GET /products/{category}` response bodies
//!   invalidated by category, exactly when a write changes one of its
//!   products. Shards only partition the snapshot segments on disk, by
//!   FNV-1a hash of `(category, key attribute, normalized key value)`.
//!   All outputs (products, snapshots, cached responses) are
//!   byte-identical to the single store fed the same stream, at any
//!   shard count — see the `shard` module docs.
//! * **[`snapshot`]** — the immutable read-model types: the per-category
//!   product map with per-product cached JSON, the whole-store snapshot
//!   with its response and search caches, and the swap cell readers load
//!   it from.
//! * **[`server`]** — an HTTP/1.1 server on `std::net::TcpListener` with
//!   a fixed worker pool and a bounded accept queue (503 on overload),
//!   serving `GET /products/{category}`, `GET /product?...`,
//!   `POST /ingest`, `POST /retract`, `GET /metrics`, `GET /healthz`,
//!   and `POST /shutdown`; per-connection timeouts, a 1 MiB request-size
//!   cap (413), panic-isolated handlers, and graceful drain.
//!
//! A server is observed when the thread calling [`start`] has a
//! [`pse_obs::Obs`] installed: it installs that `Obs` on its acceptor
//! and worker threads, and `GET /metrics` reports it (started
//! without one, it records nothing and serves the empty, disabled
//! report). An observed server traces every request into a per-request
//! span tree (parse → route → handler stages, including spans from
//! `pse-par` workers the handler fans out to), identified by the
//! `X-Pse-Trace-Id` request header when the caller sends one. A
//! [`pse_obs::FlightRecorder`] keeps the recent window plus every
//! request over a slowness threshold, served at `GET /debug/requests`
//! and `GET /debug/trace/{id}`; per-endpoint RED metrics
//! (`serve.endpoint.<name>.{requests,errors,us}`) land in `/metrics`.
//! None of it changes a response byte — the determinism tests pin an
//! observed server byte-identical to an unobserved one on every product
//! endpoint.
//!
//! When [`ServerConfig`] sets both `wal_path` and `snapshot_dir`, the
//! [`durable`] module puts `pse-wal` under the write path: every
//! ingest/retract is staged into the write-ahead log and fsynced (one
//! group sync covers concurrent commits) before it is applied, the
//! write that grows the log past its threshold folds it into segmented
//! binary snapshots before it answers (only dirty shards are rewritten),
//! and startup recovers segments + WAL tail — so a SIGKILL at any moment
//! loses nothing that was acknowledged. Segments + WAL are the only
//! recovery format.
//!
//! The [`client`] module holds the matching minimal blocking client used
//! by tests and the `http_get` bin.

pub mod client;
pub mod durable;
pub mod error;
pub mod http;
pub mod router;
pub mod server;
pub mod shard;
pub mod snapshot;

/// The serving layer's metric names, each written once.
pub mod metrics {
    pse_obs::metric_set! {
        /// Every `serve.*` counter and histogram besides the per-endpoint
        /// RED trio, which derives from the route table
        /// ([`endpoint_metrics`](crate::endpoint_metrics)). [`start`](crate::start)
        /// seeds both, so the metric set in a report is a function of the
        /// server running, not of which requests happened to arrive —
        /// even an all-200 run reports the full per-status set at zero.
        METRICS {
            counters {
                REQUESTS = "serve.requests",
                BACKPRESSURE_503 = "serve.backpressure_503",
                HTTP_200 = "serve.http_200",
                HTTP_400 = "serve.http_400",
                HTTP_404 = "serve.http_404",
                HTTP_405 = "serve.http_405",
                HTTP_413 = "serve.http_413",
                HTTP_500 = "serve.http_500",
                HTTP_503 = "serve.http_503",
                HTTP_OTHER = "serve.http_other",
                IO_ERROR = "serve.io_error",
                ACCEPT_ERROR = "serve.accept_error",
                CACHE_HIT = "serve.cache.hit",
                CACHE_MISS = "serve.cache.miss",
                CACHE_INVALIDATED = "serve.cache.invalidated",
                INGEST_OFFERS = "serve.ingest_offers",
                FOLD_FAILED = "serve.fold_failed",
            }
            histograms {
                REQUEST_US = "serve.request_us",
                QUEUE_DEPTH = "serve.queue_depth",
                APPLY_BATCH = "serve.apply_batch",
            }
        }
    }
}
pub use metrics::METRICS;

pub use client::{http_request, http_request_timeout};
pub use durable::{durable_ingest, durable_retract, durable_snapshot, open_durable, DurableCtx};
pub use error::{store_error_code, ServeError};
pub use http::Body;
pub use router::{Method, Params, Query, Route, RouteOutcome, Router, Seg};
pub use server::{endpoint_metrics, routes, start, ServerConfig, ServerHandle};
pub use shard::{shard_of, SearchOutcome, ShardedStore, ShardedWrite};
