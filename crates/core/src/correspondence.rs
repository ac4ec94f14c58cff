//! Attribute correspondences — the output of schema reconciliation.
//!
//! Definition 1 of the paper: `⟨Ap, Ao, M, C⟩` is an attribute
//! correspondence from catalog attribute `Ap` to merchant attribute `Ao` for
//! category `C` when both have the same meaning in `C`.

use serde::{Deserialize, Serialize};
use std::collections::HashMap;

use pse_text::normalize::{is_normalized_attribute_name, normalize_attribute_name};

use crate::ids::{CategoryId, MerchantId};

/// One scored correspondence `⟨Ap, Ao, M, C⟩`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttributeCorrespondence {
    /// Catalog attribute name (canonical surface form).
    pub catalog_attribute: String,
    /// Merchant attribute name (normalized form).
    pub merchant_attribute: String,
    /// The merchant whose schema uses `merchant_attribute`.
    pub merchant: MerchantId,
    /// The category in which the correspondence holds.
    pub category: CategoryId,
    /// Confidence score in `[0, 1]` (classifier probability or matcher
    /// score); name-identity correspondences get 1.0.
    pub score: f64,
}

/// A set of correspondences indexed for run-time schema reconciliation:
/// `(merchant, category, merchant attribute) → (catalog attribute, score)`.
///
/// When several catalog attributes are proposed for the same merchant
/// attribute, the highest-scoring one wins (a merchant uses one name for one
/// meaning — the same assumption the paper uses to build training sets).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CorrespondenceSet {
    map: HashMap<(MerchantId, CategoryId, String), (String, f64)>,
}

impl CorrespondenceSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a list of scored correspondences, keeping the best catalog
    /// attribute per `(merchant, category, merchant attribute)`.
    pub fn from_correspondences<I>(items: I) -> Self
    where
        I: IntoIterator<Item = AttributeCorrespondence>,
    {
        let mut set = Self::new();
        for c in items {
            set.insert(c);
        }
        set
    }

    /// Insert one correspondence; keeps the higher-scoring mapping on
    /// collision.
    pub fn insert(&mut self, c: AttributeCorrespondence) {
        // The learner hands over names it has already normalized; keep
        // those rather than normalizing a copy.
        let name = if is_normalized_attribute_name(&c.merchant_attribute) {
            c.merchant_attribute
        } else {
            normalize_attribute_name(&c.merchant_attribute)
        };
        let key = (c.merchant, c.category, name);
        match self.map.get_mut(&key) {
            Some(existing) if existing.1 >= c.score => {}
            slot => {
                let value = (c.catalog_attribute, c.score);
                match slot {
                    Some(existing) => *existing = value,
                    None => {
                        self.map.insert(key, value);
                    }
                }
            }
        }
    }

    /// The catalog attribute that `merchant_attribute` (of the given
    /// merchant and category) translates to, if any.
    pub fn translate(
        &self,
        merchant: MerchantId,
        category: CategoryId,
        merchant_attribute: &str,
    ) -> Option<&str> {
        self.map
            .get(&(merchant, category, normalize_attribute_name(merchant_attribute)))
            .map(|(a, _)| a.as_str())
    }

    /// The score of the mapping for `merchant_attribute`, if any.
    pub fn score(
        &self,
        merchant: MerchantId,
        category: CategoryId,
        merchant_attribute: &str,
    ) -> Option<f64> {
        self.map
            .get(&(merchant, category, normalize_attribute_name(merchant_attribute)))
            .map(|(_, s)| *s)
    }

    /// Number of distinct merchant attributes mapped.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterate over the stored correspondences.
    pub fn iter(&self) -> impl Iterator<Item = AttributeCorrespondence> + '_ {
        self.map.iter().map(|((m, c, ao), (ap, s))| AttributeCorrespondence {
            catalog_attribute: ap.clone(),
            merchant_attribute: ao.clone(),
            merchant: *m,
            category: *c,
            score: *s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn corr(ap: &str, ao: &str, m: u32, c: u32, s: f64) -> AttributeCorrespondence {
        AttributeCorrespondence {
            catalog_attribute: ap.into(),
            merchant_attribute: ao.into(),
            merchant: MerchantId(m),
            category: CategoryId(c),
            score: s,
        }
    }

    #[test]
    fn translate_applies_best_mapping() {
        let set = CorrespondenceSet::from_correspondences([
            corr("Speed", "RPM", 0, 0, 0.9),
            corr("Capacity", "Hard Disk Size", 0, 0, 0.8),
        ]);
        assert_eq!(set.translate(MerchantId(0), CategoryId(0), "rpm"), Some("Speed"));
        assert_eq!(set.translate(MerchantId(0), CategoryId(0), "Hard-Disk Size"), Some("Capacity"));
        assert_eq!(set.translate(MerchantId(0), CategoryId(0), "Color"), None);
        assert_eq!(set.translate(MerchantId(1), CategoryId(0), "rpm"), None);
    }

    #[test]
    fn raw_and_normalized_names_key_alike() {
        let mut set = CorrespondenceSet::new();
        set.insert(corr("MPN", "Mfr. Part #", 0, 0, 0.7));
        set.insert(corr("Capacity", "hard disk size", 0, 0, 0.8));
        let mut keys: Vec<String> = set.iter().map(|c| c.merchant_attribute).collect();
        keys.sort();
        assert_eq!(keys, ["hard disk size", "mfr part"]);
        set.insert(corr("Capacity", "Hard-Disk SIZE:", 0, 0, 0.9));
        assert_eq!(set.len(), 2, "a raw spelling of a held name is that name");
        assert_eq!(set.score(MerchantId(0), CategoryId(0), "hard disk size"), Some(0.9));
    }

    #[test]
    fn a_learned_name_whose_lowercase_adds_a_mark_translates() {
        // The learner normalizes merchant names into its bags and hands
        // that form over; `translate` normalizes the raw name once. `İ`
        // lowercases to `i` + U+0307, so the two agree only if
        // normalizing the normalized form changes nothing.
        let learned = normalize_attribute_name("İnch Size:");
        assert_eq!(learned, "inch size");
        let set = CorrespondenceSet::from_correspondences([corr("Screen", &learned, 0, 0, 0.9)]);
        assert_eq!(set.translate(MerchantId(0), CategoryId(0), "İnch Size:"), Some("Screen"));
        assert_eq!(set.translate(MerchantId(0), CategoryId(0), "İNCH SIZE"), Some("Screen"));
    }

    #[test]
    fn collision_keeps_higher_score() {
        let mut set = CorrespondenceSet::new();
        set.insert(corr("Speed", "RPM", 0, 0, 0.6));
        set.insert(corr("Buffer Size", "RPM", 0, 0, 0.4));
        assert_eq!(set.translate(MerchantId(0), CategoryId(0), "RPM"), Some("Speed"));
        set.insert(corr("Buffer Size", "RPM", 0, 0, 0.95));
        assert_eq!(set.translate(MerchantId(0), CategoryId(0), "RPM"), Some("Buffer Size"));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn iter_roundtrips() {
        let set = CorrespondenceSet::from_correspondences([corr("Speed", "rpm", 2, 3, 0.7)]);
        let all: Vec<_> = set.iter().collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].catalog_attribute, "Speed");
        assert_eq!(all[0].merchant, MerchantId(2));
        assert_eq!(all[0].category, CategoryId(3));
    }
}
