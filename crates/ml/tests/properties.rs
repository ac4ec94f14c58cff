//! Property-based tests for the ML toolkit.

use proptest::prelude::*;
use pse_ml::metrics::{pr_curve, precision_at_coverage};
use pse_ml::{Dataset, LogisticRegression, MultinomialNaiveBayes, Standardizer, TrainConfig};

proptest! {
    #[test]
    fn pr_curve_invariants(scored in prop::collection::vec((0.0f64..1.0, any::<bool>()), 0..64)) {
        let curve = pr_curve(&scored);
        // Coverage strictly increases, thresholds strictly decrease.
        for w in curve.windows(2) {
            prop_assert!(w[0].coverage < w[1].coverage);
            prop_assert!(w[0].threshold > w[1].threshold);
        }
        // Final point covers everything and matches overall precision.
        if let Some(last) = curve.last() {
            prop_assert_eq!(last.coverage, scored.len());
            let correct = scored.iter().filter(|(_, c)| *c).count();
            prop_assert!((last.precision - correct as f64 / scored.len() as f64).abs() < 1e-12);
        }
        // precision_at_coverage agrees with the curve at exact points.
        for p in &curve {
            if let Some(prec) = precision_at_coverage(&scored, p.coverage) {
                prop_assert!((prec - p.precision).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn standardizer_output_is_centered(
        rows in prop::collection::vec(prop::collection::vec(-100.0f64..100.0, 3), 2..20)
    ) {
        let s = Standardizer::fit(rows.iter().map(Vec::as_slice));
        let transformed: Vec<Vec<f64>> = rows.iter().map(|r| s.apply(r)).collect();
        for d in 0..3 {
            let mean: f64 =
                transformed.iter().map(|r| r[d]).sum::<f64>() / transformed.len() as f64;
            prop_assert!(mean.abs() < 1e-6, "dim {d} mean {mean}");
        }
    }

    #[test]
    fn logistic_probabilities_in_unit_interval(
        features in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 8..32),
        probe in prop::collection::vec(-10.0f64..10.0, 2),
    ) {
        let mut d = Dataset::new();
        for (i, (a, b)) in features.iter().enumerate() {
            d.push(&[*a, *b], i % 2 == 0);
        }
        let model = LogisticRegression::train(
            &d,
            &TrainConfig { epochs: 5, ..TrainConfig::default() },
        );
        let p = model.predict_proba(&probe);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    /// `LogisticRegression::train` is the textbook loop below — weights,
    /// intercept and every prediction equal by bits — for any dimension,
    /// with constant columns and single-class data included.
    #[test]
    fn logistic_training_bit_matches_the_textbook_loop(
        shape in (1usize..=9, 1usize..24).prop_flat_map(|(dim, n)| (
            prop::collection::vec(prop::collection::vec(-4.0f64..4.0, dim), n),
            prop::collection::vec(any::<bool>(), n),
            prop::collection::vec(any::<bool>(), dim),
        )),
        single_class in any::<bool>(),
        epochs in 1usize..5,
        seed in any::<u64>(),
    ) {
        let (mut rows, mut labels, constant) = shape;
        for row in &mut rows {
            for (x, &c) in row.iter_mut().zip(&constant) {
                if c {
                    *x = 1.5;
                }
            }
        }
        if single_class {
            labels.fill(true);
        }
        let config = TrainConfig { epochs, seed, ..TrainConfig::default() };
        let mut data = Dataset::new();
        for (row, &label) in rows.iter().zip(&labels) {
            data.push(row, label);
        }
        let model = LogisticRegression::train(&data, &config);
        let oracle = textbook::train(&rows, &labels, &config, |s| data.shuffled_indices(s));
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(model.weights()), bits(&oracle.weights));
        prop_assert_eq!(model.intercept().to_bits(), oracle.intercept.to_bits());
        for row in &rows {
            prop_assert_eq!(model.predict_proba(row).to_bits(), oracle.predict_proba(row).to_bits());
        }
    }

    #[test]
    fn naive_bayes_posterior_is_a_distribution(
        docs in prop::collection::vec((0usize..3, prop::collection::vec("[a-z]{1,5}", 1..5)), 1..16),
        query in prop::collection::vec("[a-z]{1,5}", 0..5),
    ) {
        let mut nb = MultinomialNaiveBayes::new(3);
        for (class, tokens) in &docs {
            nb.observe(*class, tokens.iter().cloned());
        }
        let refs: Vec<&str> = query.iter().map(String::as_str).collect();
        let post = nb.posterior(&refs);
        prop_assert_eq!(post.len(), 3);
        prop_assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        for p in post {
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }

    #[test]
    fn dataset_split_preserves_examples(n in 1usize..40, frac in 0.0f64..1.0) {
        let mut d = Dataset::new();
        for i in 0..n {
            d.push(&[i as f64], i % 3 == 0);
        }
        let (train, test) = d.split(frac, 7);
        prop_assert_eq!(train.len() + test.len(), n);
        prop_assert_eq!(train.positives() + test.positives(), d.positives());
    }
}

/// The SGD trainer as a textbook would write it — one `Vec` per
/// standardized row, labels as `bool` — kept as the oracle
/// `LogisticRegression::train` is held to, bit for bit.
mod textbook {
    use pse_ml::TrainConfig;

    pub struct Model {
        pub weights: Vec<f64>,
        pub intercept: f64,
        means: Vec<f64>,
        stds: Vec<f64>,
    }

    fn sigmoid(z: f64) -> f64 {
        if z >= 0.0 {
            1.0 / (1.0 + (-z).exp())
        } else {
            let e = z.exp();
            e / (1.0 + e)
        }
    }

    fn dot(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| x * y).sum()
    }

    impl Model {
        fn standardize(&self, x: &[f64]) -> Vec<f64> {
            x.iter().zip(&self.means).zip(&self.stds).map(|((x, m), s)| (x - m) / s).collect()
        }

        pub fn predict_proba(&self, x: &[f64]) -> f64 {
            sigmoid(dot(&self.weights, &self.standardize(x)) + self.intercept)
        }
    }

    pub fn train(
        rows: &[Vec<f64>],
        labels: &[bool],
        config: &TrainConfig,
        shuffled: impl Fn(u64) -> Vec<usize>,
    ) -> Model {
        let dim = rows[0].len();
        let n = rows.len() as f64;
        let mut means = vec![0.0; dim];
        for r in rows {
            for (m, x) in means.iter_mut().zip(r) {
                *m += x;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut vars = vec![0.0; dim];
        for r in rows {
            for ((v, m), x) in vars.iter_mut().zip(&means).zip(r) {
                let d = x - m;
                *v += d * d;
            }
        }
        let stds = vars
            .into_iter()
            .map(|v| {
                let s = (v / n).sqrt();
                if s > 1e-12 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        let mut model = Model { weights: vec![0.0; dim], intercept: 0.0, means, stds };
        let rows: Vec<Vec<f64>> = rows.iter().map(|r| model.standardize(r)).collect();
        for epoch in 0..config.epochs {
            let lr = config.learning_rate / (1.0 + epoch as f64 * config.decay);
            for i in shuffled(config.seed.wrapping_add(epoch as u64)) {
                let x = &rows[i];
                let y = if labels[i] { 1.0 } else { 0.0 };
                let p = sigmoid(dot(&model.weights, x) + model.intercept);
                let err = p - y;
                for (w, xi) in model.weights.iter_mut().zip(x) {
                    *w -= lr * (err * xi + config.l2 * *w / n);
                }
                model.intercept -= lr * err;
            }
        }
        model
    }
}
