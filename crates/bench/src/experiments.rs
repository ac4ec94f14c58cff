//! Drivers that regenerate every table and figure of the paper.

use std::fmt::Write as _;

use pse_baselines::{
    ComaConfig, ComaIndex, ComaMatcher, ComaStrategy, DumasMatcher, NaiveBayesMatcher,
    SingleFeature, SingleFeatureScorer,
};
use pse_core::Offer;
use pse_datagen::templates::TopLevel;
use pse_datagen::World;
use pse_eval::correspondence::{labeled_curve, LabeledCurve};
use pse_eval::recall::recall_report;
use pse_eval::report::TextTable;
use pse_eval::synthesis_eval::{evaluate_synthesis, per_top_level, SynthesisQuality};
use pse_synthesis::{
    OfflineConfig, OfflineLearner, OfflineOutcome, RuntimeConfig, RuntimePipeline, SynthesisResult,
};
use serde::{Deserialize, Serialize};

use crate::scale::Scale;
use crate::{html_provider, oracle_provider};

/// Build the world for a scale (convenience).
pub fn build_world(scale: &Scale) -> World {
    World::generate(scale.world_config())
}

/// The offers whose top-level category is Computing — the subtree the paper
/// uses for Figures 7–9 ("92 categories, corresponding to subcategories of
/// Computing").
pub fn computing_offers(world: &World) -> Vec<Offer> {
    let taxonomy = world.catalog.taxonomy();
    let computing =
        taxonomy.find_by_name(TopLevel::Computing.name()).expect("computing top level exists").id;
    world
        .offers
        .iter()
        .filter(|o| o.category.is_some_and(|c| taxonomy.top_level_of(c) == computing))
        .cloned()
        .collect()
}

/// Full end-to-end run: offline learning on historical offers, then the
/// run-time pipeline over the offers *not* matched to any product (the
/// product-synthesis population).
pub struct EndToEnd {
    /// Offline phase outputs.
    pub offline: OfflineOutcome,
    /// Runtime outputs.
    pub synthesis: SynthesisResult,
    /// Quality vs the oracle.
    pub quality: SynthesisQuality,
    /// Number of offers fed to the runtime phase.
    pub runtime_offers: usize,
}

/// Run the full pipeline at world scale.
pub fn run_end_to_end(world: &World) -> EndToEnd {
    let provider = html_provider(world);
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let unmatched: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    let pipeline = RuntimePipeline::new(offline.correspondences.clone());
    let synthesis = pipeline.process(&world.catalog, &unmatched, &provider);
    let quality = evaluate_synthesis(world, &synthesis.products);
    EndToEnd { offline, synthesis, quality, runtime_offers: unmatched.len() }
}

/// Table 2: quality of synthesized product specifications.
pub fn table2(world: &World, e2e: &EndToEnd) -> String {
    let mut t = TextTable::new(["Metric", "Value"]);
    t.row(["Input Offers", &world.offers.len().to_string()]);
    t.row(["Historical Offers (offline phase)", &e2e.offline.stats.historical_offers.to_string()]);
    t.row(["Runtime Offers (unmatched)", &e2e.runtime_offers.to_string()]);
    t.row(["Synthesized Products", &e2e.synthesis.products.len().to_string()]);
    t.row(["Synthesized Product Attributes", &e2e.synthesis.total_attributes().to_string()]);
    t.row(["Attribute Precision", &format!("{:.2}", e2e.quality.attribute_precision())]);
    t.row(["Product Precision", &format!("{:.2}", e2e.quality.product_precision())]);
    let mut out = String::from("Table 2: Quality of synthesized product specifications\n");
    out.push_str(&t.render());
    let _ = writeln!(
        out,
        "\nOffline phase: {} candidates, {} training elements ({} positive), {} predicted valid",
        e2e.offline.stats.candidates,
        e2e.offline.stats.training_examples,
        e2e.offline.stats.training_positives,
        e2e.offline.stats.predicted_valid,
    );
    out
}

/// Table 3: synthesis per top-level category.
pub fn table3(world: &World, e2e: &EndToEnd) -> String {
    let rows = per_top_level(world, &e2e.synthesis.products);
    let mut t = TextTable::new([
        "Top-level category",
        "Avg Attrs/Product",
        "Attr precision",
        "Product precision",
        "Products",
    ]);
    for (name, q) in rows {
        t.row([
            name,
            format!("{:.2}", q.avg_attributes_per_product()),
            format!("{:.2}", q.attribute_precision()),
            format!("{:.2}", q.product_precision()),
            q.products.to_string(),
        ]);
    }
    format!("Table 3: Synthesis per top-level category\n{}", t.render())
}

/// Table 4: precision and recall for synthesized attributes by offer-set
/// size.
pub fn table4(world: &World, e2e: &EndToEnd, threshold: usize) -> String {
    let report = recall_report(world, &e2e.synthesis.products, threshold);
    let mut t = TextTable::new([
        "Bucket",
        "Products",
        "Attr recall",
        "Attr precision",
        "Avg pooled pairs",
        "Avg synthesized attrs",
    ]);
    for (label, b) in [
        (format!("Products with >= {threshold} offers"), &report.large),
        (format!("Products with < {threshold} offers"), &report.small),
    ] {
        t.row([
            label,
            b.products.to_string(),
            format!("{:.2}", b.recall()),
            format!("{:.2}", b.quality.attribute_precision()),
            format!("{:.1}", b.avg_pooled_pairs()),
            format!("{:.1}", b.avg_synthesized()),
        ]);
    }
    format!("Table 4: Precision and recall for synthesized attributes\n{}", t.render())
}

/// Figure 6: our classifier vs single-feature baselines, all categories.
pub fn fig6(world: &World) -> Vec<LabeledCurve> {
    let provider = html_provider(world);
    let ours =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let js = SingleFeatureScorer::new(SingleFeature::JsMc).score_candidates(
        &world.catalog,
        &world.offers,
        &world.historical,
        &provider,
    );
    let jac = SingleFeatureScorer::new(SingleFeature::JaccardMc).score_candidates(
        &world.catalog,
        &world.offers,
        &world.historical,
        &provider,
    );
    vec![
        labeled_curve("Our approach", &ours.scored, &world.truth),
        labeled_curve("JS - MC", &js, &world.truth),
        labeled_curve("J - MC", &jac, &world.truth),
    ]
}

/// Figure 7: with vs without historical instance matches (Computing
/// subtree).
pub fn fig7(world: &World) -> Vec<LabeledCurve> {
    let offers = computing_offers(world);
    let provider = html_provider(world);
    let ours = OfflineLearner::new().learn(&world.catalog, &offers, &world.historical, &provider);
    let no_matching = OfflineLearner::with_config(OfflineConfig {
        match_conditioning: false,
        ..OfflineConfig::default()
    })
    .learn(&world.catalog, &offers, &world.historical, &provider);
    vec![
        labeled_curve("Our approach", &ours.scored, &world.truth),
        labeled_curve("No matching", &no_matching.scored, &world.truth),
    ]
}

/// Figure 8: our approach vs DUMAS, instance-based Naive Bayes, and the
/// COMA++ configurations (Computing subtree). The six matcher runs are
/// independent, so they fan out across worker threads; curve order (and
/// every number in it) is identical at any `PSE_THREADS`.
///
/// The COMA index (per-category interning, per-group TF-IDF vectors, name
/// scores) is strategy-independent, so it is built once per world and
/// shared by the three COMA configurations.
pub fn fig8(world: &World) -> Vec<LabeledCurve> {
    let offers = computing_offers(world);
    let provider = html_provider(world);
    let coma_index = ComaIndex::build(&world.catalog, &offers, &provider);
    let coma = |strategy| ComaMatcher::new(ComaConfig::new(strategy)).score_with_index(&coma_index);
    let sweep: Vec<MatcherTask<'_>> = vec![
        Box::new(|| {
            let ours =
                OfflineLearner::new().learn(&world.catalog, &offers, &world.historical, &provider);
            labeled_curve("Our approach", &ours.scored, &world.truth)
        }),
        Box::new(|| {
            let nb = NaiveBayesMatcher::new().score_candidates(&world.catalog, &offers, &provider);
            labeled_curve("Instance-based Naive Bayes", &nb, &world.truth)
        }),
        Box::new(|| {
            let dumas = DumasMatcher::new().score_candidates(
                &world.catalog,
                &offers,
                &world.historical,
                &provider,
            );
            labeled_curve("DUMAS", &dumas, &world.truth)
        }),
        Box::new(|| labeled_curve("Name-based COMA++", &coma(ComaStrategy::Name), &world.truth)),
        Box::new(|| {
            labeled_curve("Instance-based COMA++", &coma(ComaStrategy::Instance), &world.truth)
        }),
        Box::new(|| labeled_curve("Combined COMA++", &coma(ComaStrategy::Combined), &world.truth)),
    ];
    run_sweep(sweep)
}

/// One matcher run inside a scoring sweep.
type MatcherTask<'a> = Box<dyn Fn() -> LabeledCurve + Sync + 'a>;

/// Run the independent matchers of a sweep across worker threads,
/// preserving sweep order.
fn run_sweep(tasks: Vec<MatcherTask<'_>>) -> Vec<LabeledCurve> {
    pse_par::par_map(&tasks, |task| task())
}

/// Figure 9: COMA++ δ ablation (Computing subtree); the six runs fan out
/// like [`fig8`]'s, and the five COMA configurations share one
/// [`ComaIndex`] build.
pub fn fig9(world: &World) -> Vec<LabeledCurve> {
    let offers = computing_offers(world);
    let provider = html_provider(world);
    let coma_index = ComaIndex::build(&world.catalog, &offers, &provider);
    let coma_curve = |name: &'static str, cfg| {
        labeled_curve(name, &ComaMatcher::new(cfg).score_with_index(&coma_index), &world.truth)
    };
    let sweep: Vec<MatcherTask<'_>> = vec![
        Box::new(|| {
            let ours =
                OfflineLearner::new().learn(&world.catalog, &offers, &world.historical, &provider);
            labeled_curve("Our approach", &ours.scored, &world.truth)
        }),
        Box::new(|| {
            coma_curve(
                "Combined COMA++ (d=inf)",
                ComaConfig::with_unbounded_delta(ComaStrategy::Combined),
            )
        }),
        Box::new(|| {
            coma_curve(
                "Name-based COMA++ (d=inf)",
                ComaConfig::with_unbounded_delta(ComaStrategy::Name),
            )
        }),
        Box::new(|| coma_curve("Name-based COMA++", ComaConfig::new(ComaStrategy::Name))),
        Box::new(|| coma_curve("Instance-based COMA++", ComaConfig::new(ComaStrategy::Instance))),
        Box::new(|| coma_curve("Combined COMA++", ComaConfig::new(ComaStrategy::Combined))),
    ];
    run_sweep(sweep)
}

/// Ablation: extraction noise — oracle specs vs HTML-extracted specs.
pub fn ablation_extraction(world: &World) -> Vec<LabeledCurve> {
    let html = {
        let provider = html_provider(world);
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider)
    };
    let oracle = {
        let provider = oracle_provider(world);
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider)
    };
    vec![
        labeled_curve("HTML extraction", &html.scored, &world.truth),
        labeled_curve("Oracle specs (no extraction noise)", &oracle.scored, &world.truth),
    ]
}

/// Ablation: which feature groupings carry the signal (drop MC / C / M).
pub fn ablation_features(world: &World) -> Vec<LabeledCurve> {
    let offers = computing_offers(world);
    let provider = html_provider(world);
    let run = |name: &str, cfg: OfflineConfig| {
        let out = OfflineLearner::with_config(cfg).learn(
            &world.catalog,
            &offers,
            &world.historical,
            &provider,
        );
        labeled_curve(name, &out.scored, &world.truth)
    };
    vec![
        run("All six features", OfflineConfig::default()),
        run("MC grouping only", OfflineConfig::mc_only()),
        run("Without MC grouping", OfflineConfig::without_grouping(0)),
        run("Without C grouping", OfflineConfig::without_grouping(1)),
        run("Without M grouping", OfflineConfig::without_grouping(2)),
    ]
}

/// Ablation: value-fusion strategy (Appendix A's centroid voting vs
/// simpler rules). Returns rows of (strategy, products, attr precision,
/// product precision).
pub fn ablation_fusion(world: &World) -> String {
    use pse_synthesis::runtime::FusionStrategy;
    let provider = html_provider(world);
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let unmatched: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    let mut t =
        TextTable::new(["Fusion strategy", "Products", "Attr precision", "Product precision"]);
    for (name, strategy) in [
        ("Centroid vote (paper)", FusionStrategy::CentroidVote),
        ("Exact majority", FusionStrategy::MajorityExact),
        ("Longest value", FusionStrategy::LongestValue),
        ("First seen", FusionStrategy::FirstSeen),
    ] {
        let pipeline = RuntimePipeline::with_config(
            offline.correspondences.clone(),
            RuntimeConfig { fusion: strategy, ..RuntimeConfig::default() },
        );
        let result = pipeline.process(&world.catalog, &unmatched, &provider);
        let q = evaluate_synthesis(world, &result.products);
        t.row([
            name.to_string(),
            q.products.to_string(),
            format!("{:.3}", q.attribute_precision()),
            format!("{:.3}", q.product_precision()),
        ]);
    }
    format!(
        "Ablation: value-fusion strategy
{}",
        t.render()
    )
}

/// Ablation: clustering key choice (MPN vs UPC vs both).
pub fn ablation_keys(world: &World) -> String {
    let provider = html_provider(world);
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let unmatched: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    let mut t = TextTable::new(["Cluster keys", "Products", "Impure clusters", "Attr precision"]);
    for (name, keys) in [
        ("MPN then UPC (paper)", vec!["MPN".to_string(), "UPC".to_string()]),
        ("MPN only", vec!["MPN".to_string()]),
        ("UPC only", vec!["UPC".to_string()]),
    ] {
        let pipeline = RuntimePipeline::with_config(
            offline.correspondences.clone(),
            RuntimeConfig { key_attributes: keys, ..RuntimeConfig::default() },
        );
        let result = pipeline.process(&world.catalog, &unmatched, &provider);
        let q = evaluate_synthesis(world, &result.products);
        t.row([
            name.to_string(),
            q.products.to_string(),
            q.impure_clusters.to_string(),
            format!("{:.3}", q.attribute_precision()),
        ]);
    }
    format!(
        "Ablation: clustering key choice
{}",
        t.render()
    )
}

/// Ablation: robustness to historical-match noise — sweep the match error
/// rate and report correspondence precision at a fixed coverage.
pub fn ablation_history_noise(scale: &Scale) -> String {
    let mut t = TextTable::new(["Match error rate", "Prec@2000", "Prec@5000", "Max coverage"]);
    for rate in [0.0, 0.1, 0.25, 0.4] {
        let mut s = scale.clone();
        s.match_error_rate = rate;
        // Keep this sweep affordable: quarter-size worlds.
        s.offers = (s.offers / 4).max(2_000);
        let world = build_world(&s);
        let offers = computing_offers(&world);
        let provider = html_provider(&world);
        let out =
            OfflineLearner::new().learn(&world.catalog, &offers, &world.historical, &provider);
        let curve = labeled_curve("x", &out.scored, &world.truth);
        let fmt = |c: Option<f64>| c.map_or("-".to_string(), |p| format!("{p:.3}"));
        t.row([
            format!("{rate:.2}"),
            fmt(curve.precision_at(2_000)),
            fmt(curve.precision_at(5_000)),
            curve.max_coverage().to_string(),
        ]);
    }
    format!(
        "Ablation: historical-match noise robustness
{}",
        t.render()
    )
}

/// Ablation: distributional-measure choice (Lee '99) — validates the
/// paper's §3.1 selection of JS divergence and Jaccard over L1 and cosine.
pub fn ablation_measures(world: &World) -> Vec<LabeledCurve> {
    let offers = computing_offers(world);
    let provider = html_provider(world);
    use pse_synthesis::offline::bags::FeatureIndex;
    let index = FeatureIndex::build_matched(&world.catalog, &offers, &world.historical, &provider);
    [
        ("JS - MC", SingleFeature::JsMc),
        ("Jaccard - MC", SingleFeature::JaccardMc),
        ("L1 - MC", SingleFeature::L1Mc),
        ("Cosine - MC", SingleFeature::CosineMc),
    ]
    .into_iter()
    .map(|(name, f)| {
        let scored = SingleFeatureScorer::new(f).score_from_index(&world.catalog, &index);
        labeled_curve(name, &scored, &world.truth)
    })
    .collect()
}

/// Extension (the paper's stated future work): integrate name matchers —
/// add name-similarity features to the classifier and compare.
pub fn extension_name_features(world: &World) -> Vec<LabeledCurve> {
    let offers = computing_offers(world);
    let provider = html_provider(world);
    let run = |name: &str, cfg: OfflineConfig| {
        let out = OfflineLearner::with_config(cfg).learn(
            &world.catalog,
            &offers,
            &world.historical,
            &provider,
        );
        labeled_curve(name, &out.scored, &world.truth)
    };
    vec![
        run("Instance features (paper)", OfflineConfig::default()),
        run("Instance + name features", OfflineConfig::with_name_features()),
    ]
}

/// Render curves as a fixed-checkpoint text table (the readable view of a
/// precision/coverage figure).
pub fn render_curves(title: &str, curves: &[LabeledCurve]) -> String {
    let max_cov = curves.iter().map(|c| c.max_coverage()).max().unwrap_or(0);
    let checkpoints = checkpoints_for(max_cov);
    let mut header = vec!["Matcher".to_string(), "Output".to_string(), "Prec@all".to_string()];
    header.extend(checkpoints.iter().map(|c| format!("Prec@{c}")));
    let mut t = TextTable::new(header);
    for c in curves {
        let mut row = vec![
            c.name.clone(),
            c.max_coverage().to_string(),
            format!("{:.3}", c.overall_precision()),
        ];
        for k in &checkpoints {
            row.push(match c.precision_at(*k) {
                Some(p) => format!("{p:.3}"),
                None => "-".to_string(),
            });
        }
        t.row(row);
    }
    format!("{title}\n{}", t.render())
}

/// CSV series for a figure: matcher, threshold, coverage, precision.
pub fn curves_csv(curves: &[LabeledCurve]) -> String {
    let mut csv = pse_eval::report::Csv::new();
    csv.record(["matcher", "threshold", "coverage", "precision"]);
    for c in curves {
        for p in &c.points {
            csv.record([
                c.name.as_str(),
                &format!("{:.6}", p.threshold),
                &p.coverage.to_string(),
                &format!("{:.6}", p.precision),
            ]);
        }
    }
    csv.into_string()
}

/// One batch of the incremental-ingestion experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncrementalBatchRow {
    /// Batch index (0-based).
    pub batch: usize,
    /// Offers in this batch.
    pub offers: usize,
    /// Offers ingested so far (including this batch).
    pub total_offers: usize,
    /// Clusters this batch touched.
    pub clusters_dirty: usize,
    /// Dirty clusters re-fused.
    pub refused: usize,
    /// Clusters in the store after this batch.
    pub clusters_total: usize,
    /// Wall-clock of the incremental `ingest`.
    pub ingest_ns: u64,
    /// Wall-clock of a full `RuntimePipeline::process` over every offer
    /// ingested so far — what a batch-only system would pay per batch.
    pub full_recompute_ns: u64,
}

/// Result of replaying the Table-2 corpus through a [`ProductStore`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IncrementalRun {
    /// Number of batches requested.
    pub batches: usize,
    /// Per-batch measurements.
    pub rows: Vec<IncrementalBatchRow>,
    /// Final store products are byte-identical to one `process` call over
    /// the whole corpus (the batch-equivalence acceptance check).
    pub equal: bool,
    /// Products in the final store.
    pub products: usize,
    /// Size of the JSON snapshot taken mid-replay.
    pub snapshot_bytes: usize,
}

/// Replay the Table-2 corpus (offers matching no historical product) in
/// `batches` batches through a [`ProductStore`], timing each incremental
/// ingest against a from-scratch `process` over the same prefix. A
/// snapshot/restore cycle runs (untimed) before the third batch to
/// exercise persistence on the honest path.
pub fn run_incremental(world: &World, batches: usize) -> IncrementalRun {
    let provider = html_provider(world);
    let offline =
        OfflineLearner::new().learn(&world.catalog, &world.offers, &world.historical, &provider);
    let corpus: Vec<Offer> = world
        .offers
        .iter()
        .filter(|o| world.historical.product_of(o.id).is_none())
        .cloned()
        .collect();
    let batches = batches.max(1);
    let pipeline = RuntimePipeline::new(offline.correspondences.clone());
    let mut store = pse_store::ProductStore::new(offline.correspondences.clone());
    let chunk = corpus.len().div_ceil(batches).max(1);
    let mut rows = Vec::new();
    let mut snapshot_bytes = 0;
    let mut ingested = 0;
    let mut last_full: Option<SynthesisResult> = None;
    for (i, batch) in corpus.chunks(chunk).enumerate() {
        if i == 2 {
            // Persistence mid-replay: the store must come back bit-equal.
            let snap = store.snapshot_json();
            snapshot_bytes = snap.len();
            store =
                pse_store::ProductStore::restore_json(&snap).expect("mid-replay snapshot restores");
        }
        let t = std::time::Instant::now();
        let stats = store.ingest(&world.catalog, batch, &provider);
        let ingest_ns = t.elapsed().as_nanos() as u64;
        ingested += batch.len();
        let t = std::time::Instant::now();
        let full = pipeline.process(&world.catalog, &corpus[..ingested], &provider);
        let full_recompute_ns = t.elapsed().as_nanos() as u64;
        rows.push(IncrementalBatchRow {
            batch: i,
            offers: batch.len(),
            total_offers: ingested,
            clusters_dirty: stats.clusters_dirty,
            refused: stats.refused,
            clusters_total: store.cluster_count(),
            ingest_ns,
            full_recompute_ns,
        });
        last_full = Some(full);
    }
    let store_products = store.products();
    let equal = match &last_full {
        Some(full) => {
            serde_json::to_string(&store_products).ok()
                == serde_json::to_string(&full.products).ok()
        }
        None => true,
    };
    IncrementalRun { batches, rows, equal, products: store_products.len(), snapshot_bytes }
}

/// Render the incremental replay as a text table.
pub fn render_incremental(run: &IncrementalRun) -> String {
    let mut t = TextTable::new([
        "Batch",
        "Offers",
        "Total",
        "Dirty",
        "Refused",
        "Clusters",
        "Ingest (ms)",
        "Full recompute (ms)",
        "Speedup",
    ]);
    for r in &run.rows {
        t.row(vec![
            r.batch.to_string(),
            r.offers.to_string(),
            r.total_offers.to_string(),
            r.clusters_dirty.to_string(),
            r.refused.to_string(),
            r.clusters_total.to_string(),
            format!("{:.1}", r.ingest_ns as f64 / 1e6),
            format!("{:.1}", r.full_recompute_ns as f64 / 1e6),
            format!("{:.2}x", r.full_recompute_ns as f64 / r.ingest_ns.max(1) as f64),
        ]);
    }
    format!(
        "Incremental ingestion: dirty-cluster re-fusion vs full recompute\n{}\
         products: {} · batch-equivalent to one-shot process: {} · snapshot: {} bytes",
        t.render(),
        run.products,
        if run.equal { "yes" } else { "NO — MISMATCH" },
        run.snapshot_bytes,
    )
}

fn checkpoints_for(max_cov: usize) -> Vec<usize> {
    if max_cov == 0 {
        return Vec::new();
    }
    let candidates = [100, 250, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 30_000, 50_000];
    let mut out: Vec<usize> = candidates.iter().copied().filter(|c| *c <= max_cov).collect();
    if out.len() < 3 {
        out = vec![max_cov / 4, max_cov / 2, max_cov].into_iter().filter(|c| *c > 0).collect();
        out.dedup();
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_world() -> World {
        World::generate(pse_datagen::WorldConfig::tiny())
    }

    #[test]
    fn end_to_end_driver_produces_tables() {
        let world = tiny_world();
        let e2e = run_end_to_end(&world);
        assert!(!e2e.synthesis.products.is_empty());
        let t2 = table2(&world, &e2e);
        assert!(t2.contains("Attribute Precision"));
        let t3 = table3(&world, &e2e);
        assert!(t3.contains("Computing"));
        let t4 = table4(&world, &e2e, 5);
        assert!(t4.contains("Attr recall"));
    }

    #[test]
    fn incremental_replay_is_batch_equivalent() {
        let world = tiny_world();
        let run = run_incremental(&world, 4);
        assert_eq!(run.rows.len(), 4);
        assert!(run.equal, "store diverged from one-shot process");
        assert!(run.products > 0);
        assert!(run.snapshot_bytes > 0, "mid-replay snapshot must have been taken");
        let total: usize = run.rows.iter().map(|r| r.offers).sum();
        assert_eq!(total, run.rows.last().unwrap().total_offers);
        // Steady state: later batches touch far fewer clusters than exist.
        let last = run.rows.last().unwrap();
        assert!(last.clusters_dirty <= last.clusters_total);
    }

    #[test]
    fn computing_offers_filters_by_top_level() {
        let world = tiny_world();
        let offers = computing_offers(&world);
        assert!(!offers.is_empty());
        assert!(offers.len() < world.offers.len());
        let taxonomy = world.catalog.taxonomy();
        let computing = taxonomy.find_by_name("Computing").unwrap().id;
        for o in &offers {
            assert_eq!(taxonomy.top_level_of(o.category.unwrap()), computing);
        }
    }

    #[test]
    fn fig6_curves_are_labeled() {
        let world = tiny_world();
        let curves = fig6(&world);
        assert_eq!(curves.len(), 3);
        assert!(curves.iter().all(|c| c.evaluated > 0));
        let rendered = render_curves("Figure 6", &curves);
        assert!(rendered.contains("Our approach"));
        let csv = curves_csv(&curves);
        assert!(csv.starts_with("matcher,threshold,coverage,precision"));
    }

    #[test]
    fn checkpoints_cover_small_and_large() {
        assert!(checkpoints_for(0).is_empty());
        assert_eq!(checkpoints_for(40), vec![10, 20, 40]);
        assert!(checkpoints_for(100_000).contains(&10_000));
    }
}
