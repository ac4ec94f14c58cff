//! Experiment scale presets.
//!
//! The paper runs on 856,781 offers / 1,143 merchants / 498 categories.
//! The default scale here is sized for a single-core CI box; pass
//! `--offers N` (and friends) to the `experiments` binary to go bigger —
//! the generator and pipeline scale linearly.

use pse_datagen::WorldConfig;

/// Why experiment arguments failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgsError {
    /// A value-taking flag appeared last with nothing after it.
    MissingValue(String),
    /// A value that did not parse, with the reason.
    Invalid {
        /// The offending input.
        input: String,
        /// What went wrong.
        reason: String,
    },
    /// A `--flag` no subcommand recognizes.
    UnknownFlag(String),
}

impl std::fmt::Display for ArgsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::MissingValue(flag) => write!(f, "missing value for {flag}"),
            Self::Invalid { input, reason } => write!(f, "cannot parse {input:?}: {reason}"),
            Self::UnknownFlag(flag) => write!(f, "unknown flag {flag}"),
        }
    }
}

impl std::error::Error for ArgsError {}

/// Scale knobs resolved from CLI arguments.
#[derive(Debug, Clone)]
pub struct Scale {
    /// Total offers.
    pub offers: usize,
    /// Merchants.
    pub merchants: usize,
    /// Leaf categories per top level (Cameras, Computing, Furnishings,
    /// Kitchen).
    pub leaves: [usize; 4],
    /// Products per leaf category.
    pub products_per_category: usize,
    /// Master seed.
    pub seed: u64,
    /// Historical-match error rate (Table 2 robustness knob).
    pub match_error_rate: f64,
    /// Batches the `incremental` replay splits its corpus into.
    pub batches: usize,
}

impl Default for Scale {
    fn default() -> Self {
        Self {
            offers: 60_000,
            merchants: 150,
            leaves: [12, 22, 8, 8],
            products_per_category: 50,
            seed: 0x5EED,
            match_error_rate: 0.08,
            batches: 4,
        }
    }
}

impl Scale {
    /// A small scale for smoke runs (`--smoke`).
    pub fn smoke() -> Self {
        Self {
            offers: 4_000,
            merchants: 30,
            leaves: [3, 6, 2, 2],
            products_per_category: 30,
            ..Self::default()
        }
    }

    /// Parse `--key value` style arguments, starting from defaults.
    ///
    /// Recognized keys: `--offers`, `--merchants`, `--seed`,
    /// `--products-per-category`, `--match-error-rate`, `--leaves a,b,c,d`,
    /// `--batches`, `--smoke`. The binary-level flags `--out DIR`,
    /// `--quiet` and `--obs` are accepted and ignored here.
    pub fn from_args(args: &[String]) -> Result<Self, ArgsError> {
        let mut scale =
            if args.iter().any(|a| a == "--smoke") { Self::smoke() } else { Self::default() };
        let mut it = args.iter().peekable();
        while let Some(arg) = it.next() {
            let mut take =
                || it.next().cloned().ok_or_else(|| ArgsError::MissingValue(arg.clone()));
            match arg.as_str() {
                "--offers" => scale.offers = parse(&take()?)?,
                "--merchants" => scale.merchants = parse(&take()?)?,
                "--products-per-category" => scale.products_per_category = parse(&take()?)?,
                "--seed" => scale.seed = parse(&take()?)?,
                "--match-error-rate" => scale.match_error_rate = parse(&take()?)?,
                "--batches" => scale.batches = parse(&take()?)?,
                "--leaves" => {
                    let v = take()?;
                    let parts: Vec<usize> =
                        v.split(',').map(parse::<usize>).collect::<Result<_, _>>()?;
                    if parts.len() != 4 {
                        return Err(ArgsError::Invalid {
                            input: v,
                            reason: "--leaves needs 4 comma-separated counts".into(),
                        });
                    }
                    scale.leaves = [parts[0], parts[1], parts[2], parts[3]];
                }
                "--smoke" | "--quiet" | "--obs" => {}
                "--out" => {
                    take()?; // consumed by the binary, not the scale
                }
                other if other.starts_with("--") => {
                    return Err(ArgsError::UnknownFlag(other.to_string()));
                }
                _ => {}
            }
        }
        Ok(scale)
    }

    /// The world configuration for this scale.
    pub fn world_config(&self) -> WorldConfig {
        WorldConfig {
            seed: self.seed,
            leaf_categories_per_top: self.leaves,
            products_per_category: self.products_per_category,
            num_merchants: self.merchants,
            num_offers: self.offers,
            match_error_rate: self.match_error_rate,
            // Keep merchant-per-category density realistic as scale grows.
            merchant_category_coverage: (30.0 / self.total_leaves() as f64).clamp(0.05, 0.6),
            ..WorldConfig::default()
        }
    }

    /// Total leaf categories.
    pub fn total_leaves(&self) -> usize {
        self.leaves.iter().sum()
    }
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, ArgsError>
where
    T::Err: std::fmt::Display,
{
    s.parse().map_err(|e| ArgsError::Invalid { input: s.to_string(), reason: format!("{e}") })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn defaults_and_overrides() {
        let s = Scale::from_args(&args(&["--offers", "1000", "--seed", "7"])).unwrap();
        assert_eq!(s.offers, 1000);
        assert_eq!(s.seed, 7);
        assert_eq!(s.merchants, Scale::default().merchants);
    }

    #[test]
    fn smoke_preset() {
        let s = Scale::from_args(&args(&["--smoke"])).unwrap();
        assert_eq!(s.offers, 4_000);
    }

    #[test]
    fn leaves_parsing() {
        let s = Scale::from_args(&args(&["--leaves", "1,2,3,4"])).unwrap();
        assert_eq!(s.leaves, [1, 2, 3, 4]);
        assert!(Scale::from_args(&args(&["--leaves", "1,2"])).is_err());
    }

    #[test]
    fn unknown_flag_rejected() {
        assert!(Scale::from_args(&args(&["--bogus"])).is_err());
        assert!(Scale::from_args(&args(&["--offers"])).is_err());
    }

    #[test]
    fn binary_level_flags_accepted() {
        let s = Scale::from_args(&args(&["--quiet", "--obs", "--out", "results"])).unwrap();
        assert_eq!(s.offers, Scale::default().offers);
        assert!(Scale::from_args(&args(&["--out"])).is_err());
    }

    #[test]
    fn batches_is_a_validated_value_flag() {
        assert_eq!(Scale::default().batches, 4);
        assert_eq!(Scale::from_args(&args(&["--batches", "7"])).unwrap().batches, 7);
        assert!(matches!(
            Scale::from_args(&args(&["--batches", "four"])),
            Err(ArgsError::Invalid { input, .. }) if input == "four"
        ));
        assert!(matches!(
            Scale::from_args(&args(&["--batches"])),
            Err(ArgsError::MissingValue(flag)) if flag == "--batches"
        ));
    }

    #[test]
    fn config_is_valid() {
        assert!(Scale::default().world_config().validate().is_ok());
        assert!(Scale::smoke().world_config().validate().is_ok());
    }
}
