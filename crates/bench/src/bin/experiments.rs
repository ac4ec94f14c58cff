//! Regenerate the paper's tables and figures.
//!
//! ```text
//! experiments <subcommand> [--offers N] [--merchants N] [--seed S]
//!             [--leaves a,b,c,d] [--products-per-category N]
//!             [--match-error-rate R] [--smoke] [--out DIR]
//!             [--quiet] [--obs] [--batches N]
//!
//! Subcommands:
//!   table2    end-to-end quality (Table 2)
//!   table3    per-top-level-category breakdown (Table 3)
//!   table4    precision/recall by offer-set size (Table 4)
//!   incremental  replay the Table-2 corpus through the persistent store
//!                in --batches batches (default 4) and print per-batch
//!                latency
//!   fig6      classifier vs single-feature baselines (Figure 6)
//!   fig7      with vs without historical matches (Figure 7)
//!   fig8      vs DUMAS / Naive Bayes / COMA++ (Figure 8)
//!   fig9      COMA++ delta ablation (Figure 9)
//!   ablation           extraction-noise ablation (beyond the paper)
//!   ablation-features  feature-grouping ablation (drop MC / C / M)
//!   ablation-fusion    value-fusion strategy ablation
//!   ablation-keys      clustering-key ablation (MPN / UPC / both)
//!   ablation-history   historical-match noise sweep
//!   extension-names    paper future work: name-similarity features
//!   all                tables + figures, sharing one world build
//!   all-ablations      every ablation + the extension
//! ```
//!
//! Serving latency and throughput, search quality, and WAL / ingest-scale
//! costs are not measured here: `benchmark/run.sh` is the repo's one
//! performance command (see `benchmark/README.md`).
//!
//! Text renderings go to stdout; CSV series are written under `--out`
//! (default `results/`). `--quiet` silences stderr progress chatter and the
//! stage summary; `--obs` installs an `Obs` on the main thread for the
//! whole run — `pse-par` workers inherit it — and writes its report to
//! `target/OBS_REPORT.json` under the workspace root on exit.

use std::path::PathBuf;
use std::process::ExitCode;

use pse_bench::{
    ablation_extraction, ablation_features, ablation_fusion, ablation_history_noise, ablation_keys,
    ablation_measures, build_world, curves_csv, extension_name_features, fig6, fig7, fig8, fig9,
    render_curves, render_incremental, run_end_to_end, run_incremental, table2, table3, table4,
    EndToEnd, Scale,
};
use pse_datagen::World;
use pse_eval::correspondence::LabeledCurve;
use pse_obs::Obs;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        eprintln!("usage: experiments <table2|table3|table4|fig6|fig7|fig8|fig9|incremental|ablation|ablation-features|ablation-fusion|ablation-keys|ablation-history|all|all-ablations> [flags]");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let quiet = rest.iter().any(|a| a == "--quiet");
    let obs = rest.iter().any(|a| a == "--obs").then(Obs::new);
    let _obs = obs.as_ref().map(Obs::install);
    let scale = match Scale::from_args(rest) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let out_dir = out_dir(rest);

    if !quiet {
        eprintln!(
            "# world: {} offers, {} merchants, {} leaf categories (seed {})",
            scale.offers,
            scale.merchants,
            scale.total_leaves(),
            scale.seed
        );
    }
    let t0 = std::time::Instant::now();
    let world = {
        let _obs = pse_obs::span("experiments.build_world");
        build_world(&scale)
    };
    if !quiet {
        eprintln!("# world built in {:.1?}; {} products", t0.elapsed(), world.catalog.len());
    }

    let run = |name: &str, world: &World| -> bool {
        let t = std::time::Instant::now();
        let _obs = pse_obs::span(&format!("experiments.{name}"));
        let ok = dispatch(name, world, &out_dir, quiet, scale.batches);
        if !quiet {
            eprintln!("# {name} finished in {:.1?}", t.elapsed());
        }
        ok
    };

    let ok = match cmd.as_str() {
        "all" => ["table2", "table3", "table4", "fig6", "fig7", "fig8", "fig9", "ablation"]
            .iter()
            .all(|c| run(c, &world)),
        "all-ablations" => {
            [
                "ablation",
                "ablation-features",
                "ablation-fusion",
                "ablation-keys",
                "ablation-measures",
                "extension-names",
            ]
            .iter()
            .all(|c| run(c, &world))
                && {
                    let t = std::time::Instant::now();
                    let _obs = pse_obs::span("experiments.ablation-history");
                    println!("{}", ablation_history_noise(&scale));
                    if !quiet {
                        eprintln!("# ablation-history finished in {:.1?}", t.elapsed());
                    }
                    true
                }
        }
        "ablation-history" => {
            let _obs = pse_obs::span("experiments.ablation-history");
            println!("{}", ablation_history_noise(&scale));
            true
        }
        name => run(name, &world),
    };
    if let Some(obs) = &obs {
        write_obs_report(obs, quiet);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Stamp provenance into the run's report, write `target/OBS_REPORT.json`
/// under the workspace root (a generated artefact — never tracked), and
/// print the stage summary.
fn write_obs_report(obs: &Obs, quiet: bool) {
    let mut report = obs.report();
    report.git_commit = pse_bench::git_commit();
    report.threads = pse_par::current_threads() as u64;
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../target");
    let path = format!("{dir}/OBS_REPORT.json");
    match std::fs::create_dir_all(dir).and_then(|_| std::fs::write(&path, report.to_json())) {
        Ok(()) => {
            if !quiet {
                eprintln!("# observability report written to {path}");
            }
        }
        Err(e) => eprintln!("warning: could not write {path}: {e}"),
    }
    if !quiet {
        println!("{}", report.render_summary());
    }
}

/// End-to-end results are shared across table2/3/4 within one process run.
fn e2e_cached(world: &World) -> &'static EndToEnd {
    use std::sync::OnceLock;
    static CACHE: OnceLock<EndToEnd> = OnceLock::new();
    CACHE.get_or_init(|| run_end_to_end(world))
}

fn dispatch(cmd: &str, world: &World, out_dir: &PathBuf, quiet: bool, batches: usize) -> bool {
    match cmd {
        "incremental" => {
            let run = run_incremental(world, batches);
            println!("{}", render_incremental(&run));
            if !run.equal {
                eprintln!("error: incremental store diverged from one-shot process");
            }
            run.equal
        }
        "table2" => {
            println!("{}", table2(world, e2e_cached(world)));
            true
        }
        "table3" => {
            println!("{}", table3(world, e2e_cached(world)));
            true
        }
        "table4" => {
            println!("{}", table4(world, e2e_cached(world), 10));
            true
        }
        "fig6" => figure(
            quiet,
            out_dir,
            "fig6",
            "Figure 6: classifier vs single-feature baselines (all categories)",
            fig6(world),
        ),
        "fig7" => figure(
            quiet,
            out_dir,
            "fig7",
            "Figure 7: with vs without historical instance matches (Computing)",
            fig7(world),
        ),
        "fig8" => figure(
            quiet,
            out_dir,
            "fig8",
            "Figure 8: comparison with existing schema matchers (Computing)",
            fig8(world),
        ),
        "fig9" => figure(
            quiet,
            out_dir,
            "fig9",
            "Figure 9: COMA++ delta configurations (Computing)",
            fig9(world),
        ),
        "ablation" => figure(
            quiet,
            out_dir,
            "ablation_extraction",
            "Ablation: HTML extraction noise vs oracle specifications",
            ablation_extraction(world),
        ),
        "ablation-features" => figure(
            quiet,
            out_dir,
            "ablation_features",
            "Ablation: feature groupings (Computing)",
            ablation_features(world),
        ),
        "ablation-fusion" => {
            println!("{}", ablation_fusion(world));
            true
        }
        "ablation-keys" => {
            println!("{}", ablation_keys(world));
            true
        }
        "ablation-measures" => figure(
            quiet,
            out_dir,
            "ablation_measures",
            "Ablation: distributional-measure choice, Lee '99 (Computing)",
            ablation_measures(world),
        ),
        "extension-names" => figure(
            quiet,
            out_dir,
            "extension_names",
            "Extension (paper future work): instance vs instance+name features (Computing)",
            extension_name_features(world),
        ),
        other => {
            eprintln!("unknown subcommand {other}");
            false
        }
    }
}

fn figure(
    quiet: bool,
    out_dir: &PathBuf,
    stem: &str,
    title: &str,
    curves: Vec<LabeledCurve>,
) -> bool {
    println!("{}", render_curves(title, &curves));
    let path = out_dir.join(format!("{stem}.csv"));
    if let Err(e) =
        std::fs::create_dir_all(out_dir).and_then(|_| std::fs::write(&path, curves_csv(&curves)))
    {
        eprintln!("warning: could not write {}: {e}", path.display());
    } else if !quiet {
        eprintln!("# series written to {}", path.display());
    }
    true
}

fn out_dir(args: &[String]) -> PathBuf {
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--out" {
            if let Some(v) = it.next() {
                return PathBuf::from(v);
            }
        }
    }
    PathBuf::from("results")
}
