//! The [`Pipeline`] facade: catalog + correspondences + runtime
//! configuration assembled through one builder.
//!
//! [`RuntimePipeline`](crate::RuntimePipeline) keeps the paper's shape — a
//! correspondence set plus a config, with the catalog passed to every
//! `process` call — which is the right primitive but an awkward consumer
//! API: every call site threads the same three values around. `Pipeline`
//! binds them once:
//!
//! ```
//! use pse_synthesis::prelude::*;
//! # use pse_core::{Catalog, CorrespondenceSet, Taxonomy};
//! # let catalog = Catalog::new(Taxonomy::new());
//! # let correspondences = CorrespondenceSet::new();
//! let pipeline = Pipeline::builder()
//!     .catalog(catalog)
//!     .correspondences(correspondences)
//!     .fusion(FusionStrategy::CentroidVote)
//!     .build()
//!     .unwrap();
//! ```
//!
//! The builder fails with a typed [`PipelineBuildError`] (not a panic, not
//! a stringly error) when a required input is missing.

use pse_core::{Catalog, CorrespondenceSet, Offer};

use crate::provider::SpecProvider;
use crate::runtime::{FusionStrategy, RuntimeConfig, RuntimePipeline, SynthesisResult};

/// A fully assembled synthesis pipeline: catalog, learned correspondences,
/// and runtime configuration bound together. Build one with
/// [`Pipeline::builder`].
pub struct Pipeline {
    catalog: Catalog,
    runtime: RuntimePipeline,
}

impl Pipeline {
    /// Start assembling a pipeline.
    pub fn builder() -> PipelineBuilder {
        PipelineBuilder::default()
    }

    /// Process a batch of offers into synthesized products against the
    /// bound catalog. See [`RuntimePipeline::process`].
    pub fn process<P: SpecProvider>(&self, offers: &[Offer], provider: &P) -> SynthesisResult {
        self.runtime.process(&self.catalog, offers, provider)
    }

    /// The bound catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The correspondence set in use.
    pub fn correspondences(&self) -> &CorrespondenceSet {
        self.runtime.correspondences()
    }

    /// The runtime configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        self.runtime.config()
    }
}

/// Why a [`PipelineBuilder::build`] call could not produce a [`Pipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PipelineBuildError {
    /// No catalog was supplied ([`PipelineBuilder::catalog`]).
    MissingCatalog,
    /// No correspondence set was supplied
    /// ([`PipelineBuilder::correspondences`]).
    MissingCorrespondences,
}

impl std::fmt::Display for PipelineBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingCatalog => write!(f, "pipeline builder: no catalog supplied"),
            Self::MissingCorrespondences => {
                write!(f, "pipeline builder: no correspondence set supplied")
            }
        }
    }
}

impl std::error::Error for PipelineBuildError {}

/// Builder for [`Pipeline`]; see the module docs for the idiom.
#[derive(Default)]
pub struct PipelineBuilder {
    catalog: Option<Catalog>,
    correspondences: Option<CorrespondenceSet>,
    config: RuntimeConfig,
}

impl PipelineBuilder {
    /// The catalog whose schemas order fused specifications (required).
    pub fn catalog(mut self, catalog: Catalog) -> Self {
        self.catalog = Some(catalog);
        self
    }

    /// The learned attribute correspondences (required).
    pub fn correspondences(mut self, correspondences: CorrespondenceSet) -> Self {
        self.correspondences = Some(correspondences);
        self
    }

    /// Replace the whole runtime configuration at once.
    pub fn runtime_config(mut self, config: RuntimeConfig) -> Self {
        self.config = config;
        self
    }

    /// Value-fusion rule (default: the paper's centroid voting).
    pub fn fusion(mut self, fusion: FusionStrategy) -> Self {
        self.config.fusion = fusion;
        self
    }

    /// Key attributes used for clustering, in preference order
    /// (default: MPN then UPC).
    pub fn key_attributes<I, S>(mut self, keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.config.key_attributes = keys.into_iter().map(Into::into).collect();
        self
    }

    /// Minimum cluster size for a product to be synthesized (default 1).
    pub fn min_cluster_size(mut self, n: usize) -> Self {
        self.config.min_cluster_size = n;
        self
    }

    /// Whether fused specifications include the clustering key attribute
    /// (default true, the paper's setting).
    pub fn include_keys_in_spec(mut self, include: bool) -> Self {
        self.config.include_keys_in_spec = include;
        self
    }

    /// Assemble the pipeline, or report what is missing.
    pub fn build(self) -> Result<Pipeline, PipelineBuildError> {
        let catalog = self.catalog.ok_or(PipelineBuildError::MissingCatalog)?;
        let correspondences =
            self.correspondences.ok_or(PipelineBuildError::MissingCorrespondences)?;
        Ok(Pipeline {
            catalog,
            runtime: RuntimePipeline::with_config(correspondences, self.config),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::FnProvider;
    use pse_core::{
        AttributeCorrespondence, AttributeDef, AttributeKind, CategorySchema, MerchantId, OfferId,
        Spec, Taxonomy,
    };

    fn setup() -> (Catalog, CorrespondenceSet, Vec<Offer>) {
        let mut tax = Taxonomy::new();
        let top = tax.add_top_level("Computing");
        let cat = tax.add_leaf(
            top,
            "Hard Drives",
            CategorySchema::from_attributes([
                AttributeDef::key("MPN", AttributeKind::Identifier),
                AttributeDef::new("Speed", AttributeKind::Numeric),
            ]),
        );
        let catalog = Catalog::new(tax);
        let set = CorrespondenceSet::from_correspondences([
            AttributeCorrespondence {
                catalog_attribute: "MPN".into(),
                merchant_attribute: "mpn".into(),
                merchant: MerchantId(0),
                category: cat,
                score: 0.9,
            },
            AttributeCorrespondence {
                catalog_attribute: "Speed".into(),
                merchant_attribute: "rpm".into(),
                merchant: MerchantId(0),
                category: cat,
                score: 0.9,
            },
        ]);
        let offers = vec![Offer {
            id: OfferId(0),
            merchant: MerchantId(0),
            price_cents: 100,
            image_url: None,
            category: Some(cat),
            url: String::new(),
            title: String::new(),
            spec: Spec::from_pairs([("MPN", "ABC123"), ("RPM", "7200")]),
        }];
        (catalog, set, offers)
    }

    #[test]
    fn builder_matches_runtime_pipeline() {
        let (catalog, set, offers) = setup();
        let provider = FnProvider(|o: &Offer| o.spec.clone());
        let direct = RuntimePipeline::new(set.clone()).process(&catalog, &offers, &provider);
        let pipeline =
            Pipeline::builder().catalog(catalog).correspondences(set).build().expect("complete");
        let via_builder = pipeline.process(&offers, &provider);
        assert_eq!(
            serde_json::to_string(&via_builder.products).unwrap(),
            serde_json::to_string(&direct.products).unwrap()
        );
    }

    #[test]
    fn builder_knobs_reach_the_config() {
        let (catalog, set, _) = setup();
        let pipeline = Pipeline::builder()
            .catalog(catalog)
            .correspondences(set)
            .fusion(FusionStrategy::LongestValue)
            .key_attributes(["UPC"])
            .min_cluster_size(2)
            .include_keys_in_spec(false)
            .build()
            .unwrap();
        let config = pipeline.config();
        assert_eq!(config.fusion, FusionStrategy::LongestValue);
        assert_eq!(config.key_attributes, ["UPC".to_string()]);
        assert_eq!(config.min_cluster_size, 2);
        assert!(!config.include_keys_in_spec);
    }

    #[test]
    fn missing_inputs_are_typed_errors() {
        let (catalog, set, _) = setup();
        assert_eq!(
            Pipeline::builder().correspondences(set).build().err(),
            Some(PipelineBuildError::MissingCatalog)
        );
        assert_eq!(
            Pipeline::builder().catalog(catalog).build().err(),
            Some(PipelineBuildError::MissingCorrespondences)
        );
        assert!(PipelineBuildError::MissingCatalog.to_string().contains("no catalog"));
    }
}
