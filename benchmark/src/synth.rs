//! `synth_batch`: the paper's Fig. 4 pipeline over the materialized
//! world — render page → `pse_html` parse → `pse_extract` → offline
//! learning on historical offers → reconcile, cluster, fuse on the
//! unmatched ones. The only phase where pse-html/extract/text/ml/
//! synthesis/par do all the work and pse-serve/wal/query do none.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pse_core::{AttributeCorrespondence, CorrespondenceSet, Offer, OfferId, Spec};
use pse_datagen::World;
use pse_extract::PageExtractor;
use pse_synthesis::offline::bags::FeatureIndex;
use pse_synthesis::runtime::cluster_by_key;
use pse_synthesis::{
    fuse_cluster, reconcile_batch, FnProvider, OfflineLearner, RuntimeConfig, RuntimePipeline,
    SynthesizedProduct,
};

use crate::report::Metric;
use crate::stats::median;
use crate::system::{html_provider, learn};
use crate::trace::Tracer;

/// Worker threads of the batch pipeline (`PSE_THREADS=2`).
pub const THREADS: usize = 2;
/// Floor on attribute precision against the datagen oracle.
pub const PRECISION_MIN: f64 = 0.90;

/// Offers history left unmatched: the product-synthesis population.
pub fn unmatched(world: &World) -> Vec<Offer> {
    world.offers.iter().filter(|o| world.historical.product_of(o.id).is_none()).cloned().collect()
}

/// One pass of the whole pipeline: what it learned and what it made.
pub struct Pass {
    /// Learned correspondences.
    pub correspondences: CorrespondenceSet,
    /// Synthesized products.
    pub products: Vec<SynthesizedProduct>,
}

/// Run the pipeline once at `threads` workers.
pub fn pass(world: &World, unmatched: &[Offer], threads: usize) -> Pass {
    pse_par::with_threads(threads, || {
        let correspondences = learn(world).correspondences;
        let result = RuntimePipeline::new(correspondences.clone()).process(
            &world.catalog,
            unmatched,
            &html_provider(world),
        );
        Pass { correspondences, products: result.products }
    })
}

/// What the timed phase measured.
#[derive(Default)]
pub struct SynthRun {
    /// Wall seconds of each pass.
    pub pass_s: Vec<f64>,
    /// The last pass's output, for the checks.
    pub last: Option<Pass>,
}

impl SynthRun {
    /// Add another slice's passes.
    pub fn absorb(&mut self, other: SynthRun) {
        self.pass_s.extend(other.pass_s);
        self.last = other.last.or(self.last.take());
    }
}

/// One slice of the batch phase: repeat the pipeline, at least once,
/// for as long as the next pass would end nearer to `dur` than this one
/// did. The oracle evaluation runs after the clock stops.
pub fn run(world: &World, dur: Duration, tracer: &mut Tracer) -> SynthRun {
    let unmatched = unmatched(world);
    let start = Instant::now();
    let mut pass_s: Vec<f64> = Vec::new();
    let mut last = None;
    while pass_s.last().is_none_or(|w| start.elapsed().as_secs_f64() + w / 2.0 < dur.as_secs_f64())
    {
        let t = Instant::now();
        last = Some(black_box(pass(world, &unmatched, THREADS)));
        let end = Instant::now();
        tracer.record("synth.pass", t, end, None, pass_s.len() as u64);
        pass_s.push(end.duration_since(t).as_secs_f64());
    }
    SynthRun { pass_s, last }
}

/// Attribute precision of `products` against the datagen oracle.
pub fn attribute_precision(world: &World, products: &[SynthesizedProduct]) -> f64 {
    pse_eval::evaluate_synthesis(world, products).attribute_precision()
}

fn products_json(products: &[SynthesizedProduct]) -> String {
    serde_json::to_string(&products).expect("products serialize")
}

/// Whether a 1-thread pass reproduces `reference` byte for byte.
pub fn one_thread_matches(world: &World, reference: &Pass) -> bool {
    let single = pass(world, &unmatched(world), 1);
    products_json(&single.products) == products_json(&reference.products)
        && sorted(&single.correspondences) == sorted(&reference.correspondences)
}

/// The set's correspondences in a canonical order (the set iterates a
/// `HashMap`, whose order differs between two equal maps).
fn sorted(set: &CorrespondenceSet) -> Vec<AttributeCorrespondence> {
    let mut all: Vec<AttributeCorrespondence> = set.iter().collect();
    all.sort_by(|a, b| {
        (a.merchant.index(), a.category.0, &a.merchant_attribute).cmp(&(
            b.merchant.index(),
            b.category.0,
            &b.merchant_attribute,
        ))
    });
    all
}

/// The pipeline taken apart stage by stage, each public call under its
/// own span — the traced run's per-layer view.
pub struct Staged {
    /// Mean extracted pairs per page.
    pub pairs_per_page: f64,
    /// Pages yielding no pair / pages.
    pub empty_share: f64,
    /// Candidate tuples the offline phase enumerated.
    pub candidates: usize,
    /// Correspondences it accepted.
    pub correspondences: usize,
    /// Offers keeping at least one pair / offers reconciled.
    pub reconciled_share: f64,
    /// Clusters formed.
    pub clusters: usize,
    /// `RuntimePipeline::process` wall at 1 thread over wall at 2.
    pub speedup_2t: f64,
    /// Staged products equal the fused pass's, and 1-thread output
    /// equals 2-thread output, byte for byte.
    pub identical: bool,
    /// Wall of a fused pass run beside the stages: what the stage walls
    /// are to add up to.
    pub fused_pass_s: f64,
}

impl Staged {
    /// The per-layer metrics of the batch pipeline, from this round's
    /// counts and the stage spans in `tracer`.
    pub fn metrics(&self, tracer: &Tracer) -> Vec<Metric> {
        let s = |name: &str, span: &str| Metric::new(name, tracer.total_s(span), "s");
        let pass_s = self.fused_pass_s;
        let stage_sum = stage_sum_s(tracer);
        let unattributed_s = pass_s - stage_sum;
        let parse_s = tracer.total_s("html.parse");
        vec![
            s("datagen.render_s", "datagen.render"),
            s("html.parse_s", "html.parse"),
            Metric::new("extract.extract_s", tracer.total_s("extract.extract") - parse_s, "s")
                .note("(PageExtractor::extract minus the parse inside it)".into()),
            Metric::new("extract.pairs_per_page", self.pairs_per_page, "count"),
            Metric::new("extract.empty_share", self.empty_share, "fraction"),
            s("synthesis.offline.bags_s", "synthesis.offline.bags"),
            s("synthesis.offline.learn_s", "synthesis.offline.learn"),
            Metric::new("synthesis.offline.candidates", self.candidates as f64, "count"),
            Metric::new("synthesis.offline.correspondences", self.correspondences as f64, "count"),
            s("synthesis.runtime.reconcile_s", "synthesis.runtime.reconcile"),
            Metric::new("synthesis.runtime.reconciled_share", self.reconciled_share, "fraction"),
            s("synthesis.runtime.cluster_s", "synthesis.runtime.cluster"),
            Metric::new("synthesis.runtime.clusters", self.clusters as f64, "count"),
            s("synthesis.runtime.fuse_s", "synthesis.runtime.fuse"),
            Metric::new("par.speedup_2t", self.speedup_2t, "ratio"),
            Metric::new("synth.unattributed_s", unattributed_s, "s").note(format!(
                "(pass {pass_s:.3} s - stages {stage_sum:.3} s = {:.1}% of a pass; under 15% expected)",
                100.0 * unattributed_s / pass_s
            )),
        ]
    }
}

/// The spans whose walls add up to one staged pass (`html.parse` is
/// not among them: that work happens again inside `extract.extract`).
pub const STAGES: [&str; 7] = [
    "datagen.render",
    "extract.extract",
    "synthesis.offline.bags",
    "synthesis.offline.learn",
    "synthesis.runtime.reconcile",
    "synthesis.runtime.cluster",
    "synthesis.runtime.fuse",
];

/// Summed wall of the [`STAGES`] recorded in `tracer`, seconds.
pub fn stage_sum_s(tracer: &Tracer) -> f64 {
    STAGES.iter().map(|s| tracer.total_s(s)).sum()
}

/// Three rounds of: one fused pass, then the stages one at a time, all
/// at [`THREADS`] workers. The round whose stage sum is the median is
/// kept — one round alone is as exposed to a noisy moment of the host as
/// a single pass is — and it is compared with the median of the three
/// fused passes, which ran in the same state of the caches (the timed
/// phase's passes each follow a slice of serving traffic). The kept round's spans are
/// merged into `tracer` under the layer names of the README's table.
pub fn staged(world: &World, reference: &Pass, tracer: &mut Tracer) -> Staged {
    let unmatched = unmatched(world);
    let mut rounds: Vec<(Tracer, Staged)> = (0..3)
        .map(|_| {
            let t = Instant::now();
            black_box(pass(world, &unmatched, THREADS));
            let fused_pass_s = t.elapsed().as_secs_f64();
            let mut round = tracer.fork();
            let staged = pse_par::with_threads(THREADS, || {
                staged_inner(world, reference, fused_pass_s, &mut round)
            });
            (round, staged)
        })
        .collect();
    let fused: Vec<f64> = rounds.iter().map(|(_, s)| s.fused_pass_s).collect();
    rounds.sort_by(|a, b| stage_sum_s(&a.0).total_cmp(&stage_sum_s(&b.0)));
    let (round, staged) = rounds.swap_remove(1);
    let identical = staged.identical && rounds.iter().all(|(_, s)| s.identical);
    tracer.merge(round);
    Staged { identical, fused_pass_s: median(&fused), ..staged }
}

fn staged_inner(world: &World, reference: &Pass, fused_pass_s: f64, tracer: &mut Tracer) -> Staged {
    let ids: Vec<OfferId> = world.offers.iter().map(|o| o.id).collect();
    let pages = tracer.time("datagen.render", 0, || world.landing_pages(&ids));
    tracer.time("html.parse", 0, || {
        pse_par::par_map_chunked(&pages, 16, |p| {
            black_box(pse_html::parse(p));
        })
    });
    let extractor = PageExtractor::new();
    let specs: Vec<Spec> = tracer.time("extract.extract", 0, || {
        pse_par::par_map_chunked(&pages, 16, |p| extractor.extract(p))
    });
    let pairs: usize = specs.iter().map(Spec::len).sum();
    let empty = specs.iter().filter(|s| s.is_empty()).count();

    // What `ExtractingProvider` returns, minus the work already timed:
    // the extracted page spec followed by the feed spec.
    let cached = FnProvider(|o: &Offer| {
        let mut spec = specs[o.id.index()].clone();
        for pair in o.spec.iter() {
            spec.push(pair.name.clone(), pair.value.clone());
        }
        spec
    });
    let index = tracer.time("synthesis.offline.bags", 0, || {
        FeatureIndex::build_matched(&world.catalog, &world.offers, &world.historical, &cached)
    });
    let historical = world.historical.len();
    let outcome = tracer.time("synthesis.offline.learn", 0, || {
        OfflineLearner::new().learn_from_index(&world.catalog, &index, historical)
    });

    let unmatched = unmatched(world);
    let config = RuntimeConfig::default();
    let reconciled = tracer.time("synthesis.runtime.reconcile", 0, || {
        reconcile_batch(&unmatched, &outcome.correspondences, &cached)
    });
    let reconciled_share = reconciled.len() as f64 / unmatched.len().max(1) as f64;
    let clusters = tracer.time("synthesis.runtime.cluster", 0, || {
        cluster_by_key(reconciled, &config.key_attributes)
    });
    let products: Vec<SynthesizedProduct> = tracer
        .time("synthesis.runtime.fuse", 0, || {
            pse_par::par_map_chunked(&clusters, 4, |c| fuse_cluster(&world.catalog, c, &config))
        })
        .into_iter()
        .flatten()
        .collect();

    // With the honest provider, so the fan-out has the page work to share.
    let runtime = RuntimePipeline::new(outcome.correspondences.clone());
    let provider = html_provider(world);
    let timed_process = |threads: usize| {
        pse_par::with_threads(threads, || {
            let t = Instant::now();
            let result = runtime.process(&world.catalog, &unmatched, &provider);
            (t.elapsed().as_secs_f64(), products_json(&result.products))
        })
    };
    let (wall_1t, json_1t) = timed_process(1);
    let (wall_2t, json_2t) = timed_process(THREADS);

    let reference_json = products_json(&reference.products);
    Staged {
        pairs_per_page: pairs as f64 / pages.len().max(1) as f64,
        empty_share: empty as f64 / pages.len().max(1) as f64,
        candidates: outcome.stats.candidates,
        correspondences: outcome.correspondences.len(),
        reconciled_share,
        clusters: clusters.len(),
        speedup_2t: wall_1t / wall_2t,
        identical: products_json(&products) == reference_json
            && json_1t == json_2t
            && json_2t == reference_json,
        fused_pass_s,
    }
}
