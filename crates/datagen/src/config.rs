//! Scale and noise knobs for world generation.

use serde::{Deserialize, Serialize};

/// Configuration of a synthetic world.
///
/// The defaults produce a small world suitable for unit tests; the
/// experiment drivers scale the counts up toward the paper's setting
/// (856,781 offers / 1,143 merchants / 498 categories).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WorldConfig {
    /// Master seed; everything else derives deterministically from it.
    pub seed: u64,
    /// Leaf categories under each of the four top-level categories.
    pub leaf_categories_per_top: [usize; 4],
    /// Products generated per leaf category.
    pub products_per_category: usize,
    /// Number of merchants.
    pub num_merchants: usize,
    /// Total number of offers.
    pub num_offers: usize,
    /// Categories each merchant covers, as a fraction of all leaves.
    pub merchant_category_coverage: f64,
    /// Fraction of offers that carry a historical offer-to-product match.
    pub historical_fraction: f64,
    /// Fraction of historical matches pointing at the *wrong* product
    /// (models imperfect matchers feeding the history).
    pub match_error_rate: f64,
    /// Probability that a merchant uses the catalog's exact attribute name
    /// (drives the name-identity training-set construction).
    pub name_identity_probability: f64,
    /// Fraction of catalog attributes a merchant exposes per category.
    pub attribute_coverage: f64,
    /// Junk (non-catalog) attributes each merchant adds per category.
    pub junk_attributes_per_merchant: usize,
    /// Probability that an offer's landing page renders its specification
    /// as a bulleted list instead of a table (missed by the extractor).
    pub bullet_page_probability: f64,
    /// Probability that a landing page includes a noisy two-column table
    /// (reviews, shipping info) that pollutes extraction.
    pub noise_table_probability: f64,
    /// Probability that a single attribute value is corrupted in an offer
    /// (typos / wrong values in merchant feeds).
    pub value_corruption_rate: f64,
    /// Zipf-like skew of product popularity (0 = uniform; higher = more
    /// offers concentrated on few products).
    pub popularity_skew: f64,
    /// Fraction of the brand pool each merchant actually stocks (assortment
    /// bias; the "SonyStyle only sells Sony" confounder).
    pub merchant_brand_coverage: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            leaf_categories_per_top: [3, 4, 2, 2],
            products_per_category: 40,
            num_merchants: 12,
            num_offers: 1_500,
            merchant_category_coverage: 0.5,
            historical_fraction: 0.45,
            match_error_rate: 0.0,
            name_identity_probability: 0.35,
            attribute_coverage: 0.85,
            junk_attributes_per_merchant: 3,
            bullet_page_probability: 0.30,
            noise_table_probability: 0.35,
            value_corruption_rate: 0.03,
            popularity_skew: 1.0,
            merchant_brand_coverage: 0.25,
        }
    }
}

impl WorldConfig {
    /// A tiny world for fast unit tests.
    pub fn tiny() -> Self {
        Self {
            leaf_categories_per_top: [1, 2, 1, 1],
            products_per_category: 12,
            num_merchants: 5,
            num_offers: 300,
            ..Self::default()
        }
    }

    /// Total number of leaf categories.
    pub fn total_leaves(&self) -> usize {
        self.leaf_categories_per_top.iter().sum()
    }

    /// Basic sanity checks; reports the first problem as a typed error.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.total_leaves() == 0 {
            return Err(ConfigError::NoLeafCategories);
        }
        if self.products_per_category == 0 {
            return Err(ConfigError::ZeroProductsPerCategory);
        }
        if self.num_merchants == 0 {
            return Err(ConfigError::ZeroMerchants);
        }
        for (name, v) in [
            ("merchant_category_coverage", self.merchant_category_coverage),
            ("historical_fraction", self.historical_fraction),
            ("match_error_rate", self.match_error_rate),
            ("name_identity_probability", self.name_identity_probability),
            ("attribute_coverage", self.attribute_coverage),
            ("bullet_page_probability", self.bullet_page_probability),
            ("noise_table_probability", self.noise_table_probability),
            ("value_corruption_rate", self.value_corruption_rate),
            ("merchant_brand_coverage", self.merchant_brand_coverage),
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(ConfigError::ProbabilityOutOfRange { name, value: v });
            }
        }
        Ok(())
    }
}

/// Why a [`WorldConfig`] failed [`WorldConfig::validate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ConfigError {
    /// Every top-level category has zero leaves.
    NoLeafCategories,
    /// `products_per_category` is zero.
    ZeroProductsPerCategory,
    /// `num_merchants` is zero.
    ZeroMerchants,
    /// A probability knob is outside `[0, 1]`.
    ProbabilityOutOfRange {
        /// Which knob.
        name: &'static str,
        /// Its value.
        value: f64,
    },
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NoLeafCategories => write!(f, "world must have at least one leaf category"),
            Self::ZeroProductsPerCategory => write!(f, "products_per_category must be positive"),
            Self::ZeroMerchants => write!(f, "num_merchants must be positive"),
            Self::ProbabilityOutOfRange { name, value } => {
                write!(f, "{name} must be in [0, 1], got {value}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        assert!(WorldConfig::default().validate().is_ok());
        assert!(WorldConfig::tiny().validate().is_ok());
    }

    #[test]
    fn bad_probability_rejected() {
        let cfg = WorldConfig { historical_fraction: 1.5, ..WorldConfig::default() };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn leaf_count_sums() {
        let cfg = WorldConfig { leaf_categories_per_top: [1, 2, 3, 4], ..WorldConfig::default() };
        assert_eq!(cfg.total_leaves(), 10);
    }

    #[test]
    fn zero_categories_rejected() {
        let cfg = WorldConfig { leaf_categories_per_top: [0; 4], ..WorldConfig::default() };
        assert!(cfg.validate().is_err());
    }
}
