//! The repo benchmark's one program. `benchmark/run.sh` builds it and
//! calls it once per workload; see `benchmark/README.md` for what is
//! measured and why.
//!
//! One invocation is one run of one workload in its own process: set up
//! (three times, median reported), the four traffic phases with the
//! named workload's phase taking the long share of `--seconds`, the
//! correctness checks, and — with `--trace 1` — the in-process layer
//! lab. The last stdout line is the result object the driver reads.

mod http;
mod lab;
mod report;
mod serving;
mod stats;
mod synth;
mod system;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pse_serve::ShardedStore;
use pse_store::ProductStore;
use pse_wal::DurabilityConfig;

use report::{Metric, Report};
use stats::{median, Summary};
use system::{Sizes, System, SHARDS};
use trace::Tracer;

/// The workloads, in the order `run.sh` runs them.
pub const WORKLOADS: [&str; 4] = ["synth_batch", "read_mix", "search_mix", "ingest_churn"];
/// Default `--seed` (`0x5EED`).
const DEFAULT_SEED: u64 = 24_301;
/// Default `--seconds`; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 12;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Share of `--seconds` the named workload's phase runs for; the other
/// three phases split the rest evenly.
const MAIN_SHARE: f64 = 0.4;
/// Slices each phase is cut into.
const ROUNDS: u64 = 6;
/// Search bodies compared with the naive full scan.
const SCAN_SAMPLES: usize = 32;
/// Quality floors carried over from `crates/bench`.
const PRECISION_AT_1_MIN: f64 = 0.80;
const RECALL_AT_10_MIN: f64 = 0.70;

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
    spec: Option<PathBuf>,
}

enum Mode {
    Run(RunArgs),
    Summarize { spec: PathBuf, dirs: Vec<PathBuf> },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    if args.first().map(String::as_str) == Some("--summarize") {
        let spec = args.get(1).ok_or("--summarize needs BENCHMARK.json")?.into();
        return Ok(Mode::Summarize { spec, dirs: args[2..].iter().map(PathBuf::from).collect() });
    }
    let mut run = RunArgs {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        out: PathBuf::from("target/benchmark"),
        spec: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {arg}"));
        match arg.as_str() {
            "--workload" => run.workload = value()?.clone(),
            "--seed" => run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => run.trace = value()? == "1",
            "--smoke" => run.smoke = true,
            "--out" => run.out = value()?.into(),
            "--spec" => run.spec = Some(value()?.into()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&run.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}, got {:?}", run.workload));
    }
    if run.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Mode::Run(run))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Run(run)) => run_workload(&run),
        Ok(Mode::Summarize { spec, dirs }) => report::summarize(&spec, &dirs),
        Err(e) => {
            eprintln!("pse-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Replay the server's durable directory read-only — no graceful flush
/// has happened — and compare with the live store. A background fold may
/// be rotating files the moment the clients stop, which reads as a
/// transient mismatch; a real loss never goes away, so retry briefly.
fn recovered_equals_live(sys: &System) -> bool {
    let store = sys.store();
    let live = store.snapshot_json();
    let dcfg = DurabilityConfig {
        wal_path: sys.dir.join("wal.log"),
        snapshot_dir: sys.dir.join("segments"),
        compaction_threshold_bytes: u64::MAX,
        group: Default::default(),
    };
    let empty =
        || ProductStore::with_config(store.correspondences().clone(), store.config().clone());
    for _ in 0..30 {
        if let Ok(Some((recovered, _))) = pse_wal::recover(&dcfg, &sys.world.catalog, empty) {
            if recovered.snapshot_json() == live {
                return true;
            }
        }
        std::thread::sleep(Duration::from_millis(100));
    }
    false
}

fn run_workload(args: &RunArgs) -> ExitCode {
    let sizes = if args.smoke { Sizes::smoke() } else { Sizes::full() };
    let tag = if args.trace { format!("{}.trace", args.workload) } else { args.workload.clone() };
    std::fs::create_dir_all(&args.out).expect("create the output directory");
    let data = args.out.join(format!("{tag}.data"));

    // The first set-up is the one measured on, so `peak_rss_mb` covers
    // one life of the system (set-up, then traffic) and not the debris
    // of earlier ones; the repeats that steady `setup_s` run at the end.
    let server_dir = data.join("server");
    let t = Instant::now();
    let sys = System::setup(&sizes, &server_dir);
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    // Every phase is cut into ROUNDS slices and the slices are dealt out
    // in rounds, so each metric samples the whole length of the run: the
    // host speeds up and slows down by some 15% either way over stretches
    // of several seconds, and a phase run in one block lands in one.
    let slice = |w: &str| {
        let share = if w == args.workload { MAIN_SHARE } else { (1.0 - MAIN_SHARE) / 3.0 };
        Duration::from_secs(args.seconds).mul_f64(share / ROUNDS as f64)
    };
    let mut tracer = Tracer::new(args.trace, Instant::now());
    let (truth, mix) = serving::search_queries(&sys.world, sizes.truth_queries);
    let mut cursor = serving::SearchCursor::new(args.seed, mix.len());
    let fresh = serving::fresh_offers(&sys);

    let mut synth_run = synth::SynthRun::default();
    let mut read = serving::ReadRun::default();
    let mut search = serving::SearchRun::default();
    let mut churn = serving::ChurnRun::default();
    // What only the first round can give: it alone sees the store exactly
    // as preloaded, before any churn slice has written to it.
    let mut preloaded = None;
    for round in 0..ROUNDS {
        let seed = args.seed ^ (round << 32);
        synth_run.absorb(synth::run(&sys.world, slice("synth_batch"), &mut tracer));
        read.absorb(serving::read_mix(&sys, seed, slice("read_mix"), &mut tracer));
        search.absorb(serving::search_mix(
            &sys,
            &mix,
            &mut cursor,
            slice("search_mix"),
            &mut tracer,
        ));
        if round == 0 {
            let quality = serving::quality(&sys.world, sys.store(), &truth, &mix, &search.bodies);
            let mismatches =
                serving::scan_mismatches(sys.store(), &mix, &search.bodies, SCAN_SAMPLES);
            // The traced run times the read and query layers in-process
            // here, on the store those two phases' first slices ran on.
            let static_layers = args.trace.then(|| {
                let cold = ShardedStore::from_store(sys.store().to_store(), SHARDS);
                let r = lab::read_layers(&sys, &mut tracer);
                let q = lab::query_layers(&sys, &cold, &mix, &mut tracer);
                (cold, r, q)
            });
            preloaded = Some((quality, mismatches, static_layers));
        }
        churn.absorb(serving::ingest_churn(&sys, &fresh, seed, slice("ingest_churn"), &mut tracer));
        sys.warm();
    }
    drop(fresh);
    let (quality, scan_mismatches, static_layers) = preloaded.expect("round 0 ran");
    let last_pass = synth_run.last.take().expect("at least one pass ran");
    let rss_mb = peak_rss_mb();

    // Checks, after every clock has stopped.
    let mut report = Report::default();
    let precision = synth::attribute_precision(&sys.world, &last_pass.products);
    report.check(
        "synth_batch: attribute precision at or above the floor",
        precision >= synth::PRECISION_MIN,
        format!("{precision:.4} vs {}", synth::PRECISION_MIN),
    );
    report.check(
        "synth_batch: products synthesized",
        !last_pass.products.is_empty(),
        format!("{}", last_pass.products.len()),
    );
    if args.workload == "synth_batch" && !args.trace {
        report.check(
            "synth_batch: 1-thread output equals 2-thread output",
            synth::one_thread_matches(&sys.world, &last_pass),
            String::new(),
        );
    }
    for (name, counts) in [
        ("read_mix", &read.counts),
        ("search_mix", &search.counts),
        ("ingest_churn", &churn.counts),
    ] {
        report.attempted += counts.attempted;
        report.failed += counts.failed;
        report.check(
            &format!("{name}: every operation answered 200 with the right body"),
            counts.failed == 0 && counts.completed > 0,
            format!("{} attempted, {} failed", counts.attempted, counts.failed),
        );
    }
    report.attempted += synth_run.pass_s.len() as u64;
    // The smoke corpus scores some 45 queries: too few for a floor to mean
    // anything, so there the numbers are printed and not enforced.
    report.check(
        "search_mix: precision@1 and recall@10 at or above their floors",
        args.smoke
            || (quality.precision_at_1 >= PRECISION_AT_1_MIN
                && quality.recall_at_10 >= RECALL_AT_10_MIN),
        format!(
            "{:.4} vs {PRECISION_AT_1_MIN}, {:.4} vs {RECALL_AT_10_MIN}, {} scored",
            quality.precision_at_1, quality.recall_at_10, quality.scored
        ),
    );
    report.check(
        "search_mix: sampled bodies equal pse_query::search_scan",
        scan_mismatches == 0,
        format!("{scan_mismatches} of {SCAN_SAMPLES} differ"),
    );
    let held = sys.store().offer_count() as i64;
    let expected = sys.preloaded_offers as i64 + churn.offers_held;
    report.check(
        "ingest_churn: offer_count equals acknowledged minus retracted",
        held == expected,
        format!("{held} vs {expected}"),
    );
    report.check(
        "ingest_churn: replaying the durable directory reproduces the live snapshot",
        recovered_equals_live(&sys),
        String::new(),
    );

    let synth_wall = median(&synth_run.pass_s);
    let product = Summary::of_ns(&mut read.product_ns);
    let products = Summary::of_ns(&mut read.products_ns);
    let searched = Summary::of_ns(&mut search.search_ns);
    let commit = Summary::of_ns(&mut churn.commit_ns);
    let churn_read = Summary::of_ns(&mut churn.read_ns);
    let wal_bytes = lab::wal_bytes_per_offer(&sys, churn.batches_acked, &data.join("frames"));
    let timings = [
        Metric::new("synth_offers_per_s", sys.world.offers.len() as f64 / synth_wall, "1/s").note(
            format!(
                "({} offers / median wall of {} passes)",
                sys.world.offers.len(),
                synth_run.pass_s.len()
            ),
        ),
        Metric::new("read_rps", read.counts.completed as f64 / read.counts.wall_s, "1/s")
            .note(format!("({} reads)", read.counts.completed)),
        Metric::new("product_p50_us", product.p50_us, "us").note(product.describe()),
        Metric::new("products_p50_us", products.p50_us, "us").note(products.describe()),
        Metric::new("search_rps", search.counts.completed as f64 / search.counts.wall_s, "1/s")
            .note(format!("({} searches)", search.counts.completed)),
        Metric::new("search_p50_us", searched.p50_us, "us").note(searched.describe()),
        Metric::new("ingest_offers_per_s", churn.offers_acked as f64 / churn.counts.wall_s, "1/s")
            .note(format!("({} offers)", churn.offers_acked)),
        Metric::new("commit_p50_us", commit.p50_us, "us").note(commit.describe()),
        Metric::new("churn_read_p50_us", churn_read.p50_us, "us").note(churn_read.describe()),
    ];

    if args.trace {
        let (cold, r, q) = static_layers.expect("traced runs time the static layers");
        let staged = synth::staged(&sys.world, &last_pass, &mut tracer);
        report.check(
            "synth_batch: staged, 1-thread and 2-thread outputs are byte-identical",
            staged.identical,
            String::new(),
        );
        report.layers.extend(staged.metrics(&tracer));

        let serving = [&read.counts, &search.counts, &churn.counts];
        let connections: u64 = serving.iter().map(|c| c.connections).sum();
        let answered: u64 = serving.iter().map(|c| c.answered).sum();
        report.layers.extend(r.metrics(&tracer, &product, &products, connections, answered));
        report.layers.extend(q.metrics(&quality, &searched));

        let commits = if args.smoke { 40 } else { 500 };
        let w = lab::ingest_layers(&sys, cold, commits, &data.join("lab"), &mut tracer);
        report.check(
            "ingest_churn: open_durable on an unfolded tail reproduces the live snapshot",
            w.recovery_equal,
            format!("{} records replayed", w.recover_records),
        );
        report.layers.extend(w.metrics(commits, &commit));
        // The traced run's own end-to-end readings: set beside the
        // untraced run's, they show what tracing costs.
        report.layers.extend(timings.iter().map(Metric::traced));
        let path = args.out.join(format!("{}.trace.jsonl", args.workload));
        tracer.write_jsonl(&path).expect("write the trace");
        eprintln!(
            "# {} spans written to {}; self time by span name:",
            tracer.spans().len(),
            path.display()
        );
        for (name, seconds) in tracer.self_time_s() {
            eprintln!("#   {name:<32} {seconds:>10.4} s");
        }
    }

    let provenance = report::Provenance {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        scale: sizes.name,
        data_dir: data.clone(),
        corpus: vec![
            ("world_offers", sys.world.offers.len() as u64),
            ("catalog_products", sys.world.catalog.len() as u64),
            ("merchants", sizes.merchants as u64),
            ("categories", sizes.leaves.iter().sum::<usize>() as u64),
            ("preload_offers_streamed", sizes.preload_offers as u64),
            ("preload_offers_held", sys.preloaded_offers as u64),
            ("served_products", sys.product_paths.len() as u64),
            ("search_mix_queries", mix.len() as u64),
        ],
        operations: vec![
            ("synth_passes", synth_run.pass_s.len() as u64),
            ("read_requests", read.counts.attempted),
            ("search_requests", search.counts.attempted),
            ("churn_requests", churn.counts.attempted),
            ("churn_batches_acked", churn.batches_acked),
        ],
    };
    sys.shutdown();
    while setup_s.len() < SETUP_REPEATS {
        let t = Instant::now();
        let again = System::setup(&sizes, &server_dir);
        setup_s.push(t.elapsed().as_secs_f64());
        again.shutdown();
    }
    let _ = std::fs::remove_dir_all(&data);

    report.end_to_end.extend([
        Metric::new("setup_s", median(&setup_s), "s")
            .note(format!("(median of {SETUP_REPEATS}: {setup_s:.3?})")),
        Metric::new("peak_rss_mb", rss_mb, "MB"),
    ]);
    report.end_to_end.extend(timings);
    report.end_to_end.extend([
        Metric::new("search_precision_at_1", quality.precision_at_1, "fraction")
            .note(format!("({} scored queries)", quality.scored)),
        Metric::new("search_recall_at_10", quality.recall_at_10, "fraction"),
        Metric::new("wal_bytes_per_offer", wal_bytes, "B/offer"),
    ]);

    if let Some(spec) = &args.spec {
        report.check_names(spec, args.trace);
    }
    report.finish(&provenance, &args.out.join(format!("{tag}.json")), args.trace)
}
