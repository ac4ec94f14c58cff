//! Declared metric sets: the counters and histograms a subsystem emits,
//! written once.
//!
//! A subsystem declares its names with [`metric_set!`](crate::metric_set),
//! which yields one `&str` const per name (what its `add`/`incr`/`observe`
//! sites pass) and one [`MetricSet`] listing them all. The subsystem
//! [`seed`](MetricSet::seed)s the set where it starts, so a report shows
//! every declared name whenever the subsystem ran — whatever the traffic
//! was — and a test holding the same const can demand exactly that
//! ([`MetricSet::missing`]) without a second list of names.

use crate::ObsReport;

/// The counters and histograms one subsystem can emit.
#[derive(Debug, Clone, Copy)]
pub struct MetricSet {
    /// Counter names.
    pub counters: &'static [&'static str],
    /// Histogram names.
    pub histograms: &'static [&'static str],
}

impl MetricSet {
    /// Materialize every declared counter and histogram at zero (see
    /// [`seed`](crate::seed)); a no-op while observability is off.
    pub fn seed(&self) {
        self.counters.iter().for_each(|c| crate::seed(c));
        self.histograms.iter().for_each(|h| crate::seed_histogram(h));
    }

    /// Every declared name, counters first.
    pub fn names(&self) -> impl Iterator<Item = &'static str> {
        self.counters.iter().chain(self.histograms).copied()
    }

    /// Declared names `report` does not carry — empty once the subsystem
    /// seeded itself.
    pub fn missing(&self, report: &ObsReport) -> Vec<&'static str> {
        let absent_counters = self.counters.iter().filter(|c| report.counter(c).is_none());
        let absent_histograms =
            self.histograms.iter().filter(|h| !report.histograms.iter().any(|r| r.name == **h));
        absent_counters.chain(absent_histograms).copied().collect()
    }
}

/// Declare a subsystem's metrics: one `pub const NAME: &str` per metric
/// and one `pub const $set: MetricSet` holding all of them, so each name
/// string appears once in the source.
///
/// ```
/// pse_obs::metric_set! {
///     /// What the cache emits.
///     METRICS {
///         counters { HIT = "cache.hit", MISS = "cache.miss" }
///         histograms { LOOKUP_US = "cache.lookup_us" }
///     }
/// }
/// assert_eq!(METRICS.counters, [HIT, MISS]);
/// assert_eq!(METRICS.histograms, ["cache.lookup_us"]);
/// ```
#[macro_export]
macro_rules! metric_set {
    ($(#[$doc:meta])* $set:ident {
        counters { $($counter:ident = $counter_name:literal),* $(,)? }
        histograms { $($histogram:ident = $histogram_name:literal),* $(,)? }
    }) => {
        $(#[doc = $counter_name] pub const $counter: &str = $counter_name;)*
        $(#[doc = $histogram_name] pub const $histogram: &str = $histogram_name;)*
        $(#[$doc])*
        pub const $set: $crate::MetricSet = $crate::MetricSet {
            counters: &[$($counter),*],
            histograms: &[$($histogram),*],
        };
    };
}
