//! Experiment harness behind the `experiments` binary.
//!
//! Each experiment of the paper (Tables 2–4, Figures 6–9) has a driver here
//! that builds a synthetic world at the requested scale, runs the honest
//! end-to-end path (render landing page → extract → learn → reconcile →
//! cluster → fuse), evaluates against the oracle, and renders the same rows
//! or series the paper reports.

pub mod experiments;
pub mod scale;

pub use experiments::*;
pub use scale::{ArgsError, Scale};

use pse_core::Offer;
use pse_datagen::World;
use pse_synthesis::{ExtractingProvider, SpecProvider};

/// The git commit hash of the working tree, recorded in report headers so
/// results stay attributable to the code that produced them. Returns
/// `"unknown"` when git or the repository is unavailable.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The honest provider: render the offer's landing page and extract the
/// specification from its tables — extraction noise and bullet-page misses
/// included.
pub fn html_provider(world: &World) -> impl SpecProvider + '_ {
    ExtractingProvider::new(move |o: &Offer| world.landing_page(o.id))
}

/// A noise-free provider reading the page specification directly (ablation:
/// isolates the learning pipeline from extraction noise).
pub fn oracle_provider(world: &World) -> impl SpecProvider + '_ {
    pse_synthesis::FnProvider(move |o: &Offer| world.page_spec(o.id))
}
