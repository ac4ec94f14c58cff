//! Order statistics for the benchmark: medians, the tail-percentile
//! rule, and the quartile spread the repeat check gates on.

/// Median of `values` (mean of the two middle elements for even counts);
/// `NaN` when empty, so a metric that was never sampled cannot pass for
/// a measurement.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The candidate tail percentiles, as (label, samples-per-one-beyond).
/// `p99` has one sample in 100 beyond it, `p99.9` one in 1000, ….
const TAILS: [(&str, usize); 4] = [("p99.99", 10_000), ("p99.9", 1_000), ("p99", 100), ("p90", 10)];

/// The highest percentile with at least ten samples beyond it, as
/// `(label, index into the sorted samples)`; `None` under 100 samples,
/// where only the median is reportable.
pub fn tail_rank(n: usize) -> Option<(&'static str, usize)> {
    TAILS.iter().find(|(_, per)| n / per >= 10).map(|&(label, per)| (label, n - n / per - 1))
}

/// A latency distribution reduced to what the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median, microseconds.
    pub p50_us: f64,
    /// The tail percentile chosen by [`tail_rank`], microseconds.
    pub tail: Option<(&'static str, f64)>,
}

impl Summary {
    /// Summarize nanosecond samples (sorted in place).
    pub fn of_ns(samples: &mut [u64]) -> Self {
        samples.sort_unstable();
        let n = samples.len();
        let us = |ns: u64| ns as f64 / 1e3;
        let p50_us = match n {
            0 => f64::NAN,
            n if n % 2 == 1 => us(samples[n / 2]),
            n => (us(samples[n / 2 - 1]) + us(samples[n / 2])) / 2.0,
        };
        let tail = tail_rank(n).map(|(label, i)| (label, us(samples[i])));
        Self { n, p50_us, tail }
    }

    /// The tail value; the median when the sample is too small for any
    /// tail percentile to have ten samples beyond it.
    pub fn tail_us(&self) -> f64 {
        self.tail.map_or(self.p50_us, |(_, v)| v)
    }

    /// `" (p99.9 812.0 us, n 41234)"` — the suffix printed beside a median.
    pub fn describe(&self) -> String {
        match self.tail {
            Some((label, v)) => format!("({label} {v:.1} us, n {})", self.n),
            None => format!("(n {})", self.n),
        }
    }
}

/// Quartiles exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) gives them — the rule the acceptance
/// check is specified in. Needs at least two values.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// SplitMix64: the generator behind every traffic decision, so the same
/// `--seed` replays the same request sequence.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_rank(99), None, "under 100 samples only the median stands");
        assert_eq!(tail_rank(100), Some(("p90", 89)), "10 samples (90..=99) lie beyond index 89");
        assert_eq!(tail_rank(999), Some(("p90", 899)));
        assert_eq!(tail_rank(1_000), Some(("p99", 989)));
        assert_eq!(tail_rank(9_999), Some(("p99", 9_899)));
        assert_eq!(tail_rank(10_000), Some(("p99.9", 9_989)));
        assert_eq!(tail_rank(100_000), Some(("p99.99", 99_989)));
        // Exactly ten samples sit strictly after the chosen index.
        for n in [100, 1_000, 10_000, 100_000] {
            let (_, i) = tail_rank(n).unwrap();
            assert_eq!(n - 1 - i, 10);
        }
    }

    #[test]
    fn summary_reports_median_tail_and_count() {
        let mut ns: Vec<u64> = (1..=1_000u64).rev().map(|i| i * 1_000).collect();
        let s = Summary::of_ns(&mut ns);
        assert_eq!(s.n, 1_000);
        assert_eq!(s.p50_us, 500.5);
        assert_eq!(s.tail, Some(("p99", 990.0)));
        assert!(Summary::of_ns(&mut []).p50_us.is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), [7.5, 15.0, 22.5]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn splitmix_repeats_for_a_seed() {
        let mut a = SplitMix(7);
        let mut b = SplitMix(7);
        let xs: Vec<usize> = (0..8).map(|_| a.below(100)).collect();
        let ys: Vec<usize> = (0..8).map(|_| b.below(100)).collect();
        assert_eq!(xs, ys);
        assert!(xs.iter().any(|&x| x != xs[0]));
    }
}
