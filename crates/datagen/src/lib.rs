//! Synthetic shopping-world generator.
//!
//! The paper evaluates on proprietary Bing Shopping data: 856,781 offers
//! from 1,143 merchants over 498 categories, with human labelers checking
//! synthesized products against manufacturer sites. None of that is
//! available, so this crate builds the closest synthetic equivalent — a
//! *world* with:
//!
//! * a taxonomy of four top-level categories (Cameras, Computing, Home
//!   Furnishings, Kitchen & Housewares) and configurable numbers of leaf
//!   categories, with rich schemas for Cameras/Computing and sparse ones
//!   for Furnishings/Kitchen, mirroring Table 3 of the paper;
//! * ground-truth products with realistic per-attribute value distributions;
//! * merchants with *private vocabularies* — per-(merchant, category)
//!   attribute renamings, value reformattings, attribute subsetting, and
//!   junk attributes with no catalog counterpart;
//! * offers derived from products through those vocabularies, each with a
//!   rendered HTML landing page (two-column spec tables, boilerplate,
//!   noise rows; a fraction formatted as bullet lists that the table
//!   extractor legitimately misses);
//! * historical offer-to-product matches with a configurable error rate;
//! * a [`truth::GroundTruth`] oracle that retains which product each offer
//!   came from and which catalog attribute each merchant attribute means —
//!   standing in for the paper's human labeling.
//!
//! The learning signal the paper exploits is distributional — matched
//! offers and products share attribute-value distributions modulo merchant
//! renaming/formatting — and that structure is exactly what this generator
//! reproduces, including the confounders the paper discusses (merchant
//! assortments biased to a brand subset, shared vocabulary across merchants
//! of a category, one merchant vocabulary reused across categories).

pub mod config;
pub mod merchant_vocab;
pub mod page;
pub mod queries;
pub mod stream;
pub mod templates;
pub mod truth;
pub mod value;
pub mod world;

pub use config::{ConfigError, WorldConfig};
pub use page::render_landing_page;
pub use queries::{truth_queries, TruthQuery};
pub use stream::{OfferStream, StreamBatch, StreamedOffer};
pub use truth::GroundTruth;
pub use world::{World, WorldBase};
