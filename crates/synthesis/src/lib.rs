//! The product-synthesis pipeline of Nguyen et al., *Synthesizing Products
//! for Online Catalogs*, PVLDB 4(7), 2011.
//!
//! Two phases, mirroring Figure 4 of the paper:
//!
//! * **[`offline`] learning** — build match-conditioned bags of words from
//!   historical offer-to-product associations, compute six distributional-
//!   similarity features (JS divergence and Jaccard coefficient, grouped by
//!   merchant+category / category / merchant), construct a training set
//!   automatically from name-identity candidates, train a logistic-
//!   regression classifier, and predict attribute correspondences.
//! * **[`runtime`] offer processing** — extract attribute–value pairs from
//!   landing pages, reconcile them to catalog schema names using the learned
//!   correspondences, cluster reconciled offers by key attribute (MPN/UPC),
//!   and fuse each cluster into a single product specification with
//!   term-level generalized majority voting. [`RuntimePipeline`] runs the
//!   whole phase over a batch (`with_config(correspondences, config)`,
//!   then `process(&catalog, ..)`); its stages are public on their own
//!   ([`reconcile_batch`], [`fuse_cluster`]) for the incremental
//!   `pse-store` path, and every fusion — one-shot or incremental — runs
//!   the one kernel, [`FusionAccumulator`].
//!
//! The [`provider`] module decouples the pipeline from where offer
//! specifications come from (live extraction from rendered pages, cached
//! specs, feeds), and [`category`] holds the title-based category classifier
//! mentioned in Section 2 of the paper.

pub mod category;
pub mod matching;
pub mod offline;
pub mod provider;
pub mod runtime;

pub use matching::TitleMatcher;
pub use offline::{OfflineConfig, OfflineLearner, OfflineOutcome, OfflineStats, ScoredCandidate};
pub use provider::{ExtractingProvider, FnProvider, SpecProvider};
pub use runtime::{
    advance_cluster_fusion, fuse_cluster, fuse_cluster_cached, reconcile_batch, Cluster,
    ClusterFusionCache, FusedValue, FusionAccumulator, FusionSchema, FusionStrategy, KeyAttributes,
    ReconciledOffer, RuntimeConfig, RuntimePipeline, SynthesisResult, SynthesizedProduct,
};
