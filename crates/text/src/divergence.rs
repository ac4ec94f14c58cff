//! Distributional-similarity measures over string-keyed bags:
//! Jensen–Shannon divergence, the Jaccard coefficient, and Lee's L1 and
//! cosine alternatives. Reference only — production code uses the
//! merge-join kernels of [`crate::sparse`] over interned counts, which
//! `sparse`'s unit tests and `tests/interned_equivalence.rs` pin to these
//! bit-for-bit.
//!
//! JS and Jaccard are the two measures that Lee (COLING '99) found best for synonym
//! detection and that the paper adopts as classifier features (Table 1):
//!
//! * `JS(p_A ‖ p_B) = ½ KL(p_A ‖ p_M) + ½ KL(p_B ‖ p_M)` with
//!   `p_M = ½ p_A + ½ p_B`;
//! * `J(A, B) = |A ∩ B| / |A ∪ B|` over the distinct-token sets.
//!
//! All logarithms are natural, so the JS divergence of two distributions with
//! disjoint support is `ln 2`, the maximum ([`MAX_JS`]).

use crate::bow::BagOfWords;

/// Maximum possible Jensen–Shannon divergence (natural log): `ln 2`.
pub const MAX_JS: f64 = std::f64::consts::LN_2;

/// Jensen–Shannon divergence between the empirical distributions of two bags.
///
/// Returns a value in `[0, ln 2]`. By convention, the divergence involving an
/// empty bag is the maximum `ln 2` (an attribute with no observed values
/// carries no evidence of similarity); two empty bags also yield `ln 2`.
///
/// ```
/// use pse_text::{BagOfWords, jensen_shannon};
/// let speed = BagOfWords::from_values(["5400", "7200", "5400", "7200"]);
/// let rpm = BagOfWords::from_values(["5400", "7200", "5400", "7200"]);
/// assert!(jensen_shannon(&speed, &rpm) < 1e-12); // identical distributions
/// ```
pub fn jensen_shannon(a: &BagOfWords, b: &BagOfWords) -> f64 {
    if a.is_empty() || b.is_empty() {
        return MAX_JS;
    }
    // p_M(t) = (p_A(t) + p_B(t)) / 2, computed on the fly over the union of
    // supports. Only tokens in A's (resp. B's) support contribute to the KL
    // terms, so iterating each bag once suffices — and p_M(t) > 0 wherever
    // the term's own p(t) > 0, so no term is ever infinite.
    let mut js = 0.0;
    for (t, _) in a.iter() {
        let pa = a.probability(t);
        let pm = 0.5 * (pa + b.probability(t));
        js += 0.5 * pa * (pa / pm).ln();
    }
    for (t, _) in b.iter() {
        let pb = b.probability(t);
        let pm = 0.5 * (a.probability(t) + pb);
        js += 0.5 * pb * (pb / pm).ln();
    }
    // Numerical noise can push the sum a hair outside the closed interval.
    js.clamp(0.0, MAX_JS)
}

/// Jaccard coefficient over the *distinct token sets* of two bags:
/// `|A ∩ B| / |A ∪ B|`. Two empty bags yield 0 (no shared evidence).
///
/// ```
/// use pse_text::{BagOfWords, jaccard_bags};
/// let a = BagOfWords::from_values(["ata 100 ide 133"]);
/// let b = BagOfWords::from_values(["ata 100"]);
/// assert!((jaccard_bags(&a, &b) - 0.5).abs() < 1e-12);
/// ```
pub fn jaccard_bags(a: &BagOfWords, b: &BagOfWords) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let (small, large) = if a.distinct() <= b.distinct() { (a, b) } else { (b, a) };
    let intersection = small.token_set().filter(|t| large.count(t) > 0).count();
    let union = a.distinct() + b.distinct() - intersection;
    intersection as f64 / union as f64
}

/// L1 (Manhattan) distance between the empirical distributions of two
/// bags, in `[0, 2]` — one of the alternative measures Lee (COLING '99)
/// compared before settling on JS divergence and Jaccard. By convention an
/// empty bag is maximally distant (2.0).
pub fn l1_distance(a: &BagOfWords, b: &BagOfWords) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 2.0;
    }
    let mut sum = 0.0;
    for (t, _) in a.iter() {
        sum += (a.probability(t) - b.probability(t)).abs();
    }
    for (t, _) in b.iter() {
        if a.count(t) == 0 {
            sum += b.probability(t);
        }
    }
    sum.clamp(0.0, 2.0)
}

/// Cosine similarity between the empirical probability vectors of two
/// bags, in `[0, 1]`. Another of Lee's candidate measures; empty bags have
/// zero similarity.
pub fn cosine_bags(a: &BagOfWords, b: &BagOfWords) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut dot = 0.0;
    let (small, large) = if a.distinct() <= b.distinct() { (a, b) } else { (b, a) };
    for (t, _) in small.iter() {
        dot += small.probability(t) * large.probability(t);
    }
    let norm = |x: &BagOfWords| x.iter().map(|(t, _)| x.probability(t).powi(2)).sum::<f64>().sqrt();
    (dot / (norm(a) * norm(b))).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bag(vals: &[&str]) -> BagOfWords {
        BagOfWords::from_values(vals.iter().copied())
    }

    #[test]
    fn js_identical_is_zero() {
        let a = bag(&["5400", "7200", "5400", "7200"]);
        assert!(jensen_shannon(&a, &a) < 1e-12);
    }

    #[test]
    fn js_disjoint_is_ln2() {
        let a = bag(&["alpha beta"]);
        let b = bag(&["gamma delta"]);
        assert!((jensen_shannon(&a, &b) - MAX_JS).abs() < 1e-12);
    }

    #[test]
    fn js_is_symmetric() {
        let a = bag(&["ata 100", "ide 133", "ide 133", "ata 133"]);
        let b = bag(&["ata 100 mb s", "ide 133 mb s", "ide 133 mb s", "ata 133 mb s"]);
        let d1 = jensen_shannon(&a, &b);
        let d2 = jensen_shannon(&b, &a);
        assert!((d1 - d2).abs() < 1e-12);
        assert!(d1 > 0.0 && d1 < MAX_JS);
    }

    #[test]
    fn paper_figure5_ordering() {
        // Figure 5(c)/(d): Interface should be closer to "Int. Type" than to
        // RPM, and Speed/RPM should be identical.
        let interface = bag(&["ATA, 100", "IDE, 133", "IDE, 133", "ATA, 133"]);
        let int_type =
            bag(&["ATA, 100, mb/s", "IDE, 133, mb/s", "IDE, 133, mb/s", "ATA, 133, mb/s"]);
        let speed = bag(&["5400", "7200", "5400", "7200"]);
        let rpm = bag(&["5400", "7200", "5400", "7200"]);

        assert!(jensen_shannon(&speed, &rpm) < 1e-12);
        let close = jensen_shannon(&interface, &int_type);
        let far = jensen_shannon(&interface, &rpm);
        assert!(close < far, "close={close} far={far}");
        assert!((far - MAX_JS).abs() < 1e-9); // disjoint supports
    }

    #[test]
    fn js_empty_bag_is_max() {
        let a = bag(&["x"]);
        let e = BagOfWords::new();
        assert_eq!(jensen_shannon(&a, &e), MAX_JS);
        assert_eq!(jensen_shannon(&e, &e), MAX_JS);
    }

    #[test]
    fn jaccard_basics() {
        let a = bag(&["ata 100 ide"]);
        let b = bag(&["ata ide scsi"]);
        // intersection {ata, ide}=2, union {ata,100,ide,scsi}=4
        assert!((jaccard_bags(&a, &b) - 0.5).abs() < 1e-12);
        assert_eq!(jaccard_bags(&a, &BagOfWords::new()), 0.0);
        assert!((jaccard_bags(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn l1_distance_bounds_and_identity() {
        let a = bag(&["ata 100", "ide 133"]);
        let b = bag(&["scsi 320"]);
        assert!(l1_distance(&a, &a).abs() < 1e-12);
        assert!((l1_distance(&a, &b) - 2.0).abs() < 1e-12, "disjoint = max");
        assert_eq!(l1_distance(&a, &BagOfWords::new()), 2.0);
        let c = bag(&["ata 100", "ide 999"]);
        let d = l1_distance(&a, &c);
        assert!(d > 0.0 && d < 2.0);
        assert!((d - l1_distance(&c, &a)).abs() < 1e-12, "symmetry");
    }

    #[test]
    fn cosine_bags_bounds_and_identity() {
        let a = bag(&["ata 100", "ide 133"]);
        let b = bag(&["scsi 320"]);
        assert!((cosine_bags(&a, &a) - 1.0).abs() < 1e-9);
        assert_eq!(cosine_bags(&a, &b), 0.0);
        assert_eq!(cosine_bags(&a, &BagOfWords::new()), 0.0);
        let c = bag(&["ata 100", "ide 999"]);
        let s = cosine_bags(&a, &c);
        assert!(s > 0.0 && s < 1.0);
    }
}
