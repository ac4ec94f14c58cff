//! What a run prints and keeps: every metric by name with its unit, the
//! correctness checks, the provenance-stamped result file, and the
//! repeat check over several sets of runs.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

use serde::Value;

use crate::stats::{median, quartiles, spread};

/// One named reading.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as `BENCHMARK.json` lists it.
    pub name: String,
    /// The reading, with all its digits.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Tail percentile, sample count, or the terms a residual came from.
    pub note: String,
}

impl Metric {
    /// A reading without a note.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Self { name: name.to_string(), value, unit, note: String::new() }
    }

    /// The same reading with a note.
    pub fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }

    /// This end-to-end reading as the traced run's layer metric.
    pub fn traced(&self) -> Self {
        Self { name: format!("traced.{}", self.name), ..self.clone() }
    }
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (the untraced run's result).
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics (the traced run's result).
    pub layers: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    checks: Vec<(String, bool, String)>,
}

/// Where a result came from.
pub struct Provenance {
    /// Workload name.
    pub workload: String,
    /// `--seed`.
    pub seed: u64,
    /// `--seconds`.
    pub seconds: u64,
    /// Corpus scale (`full` or `smoke`).
    pub scale: &'static str,
    /// The directory the durable server wrote under.
    pub data_dir: PathBuf,
    /// Corpus sizes.
    pub corpus: Vec<(&'static str, u64)>,
    /// Operation counts.
    pub operations: Vec<(&'static str, u64)>,
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for ch in s.chars() {
        match ch {
            '"' | '\\' => {
                out.push('\\');
                out.push(ch);
            }
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Filesystem type of the mount holding `path`, from `/proc/mounts`.
fn filesystem_of(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let mut f = l.split(' ');
                    let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
                    path.starts_with(point).then(|| (point.len(), fs.to_string()))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

impl Provenance {
    fn to_json(&self) -> String {
        let counts = |items: &[(&str, u64)]| {
            let fields: Vec<String> =
                items.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
            format!("{{{}}}", fields.join(","))
        };
        // The data directory is gone by now; its parent is on the same mount.
        let fs = filesystem_of(self.data_dir.parent().unwrap_or(Path::new(".")));
        format!(
            "{{\"commit\":{},\"host_cpus\":{},\"seed\":{},\"seconds\":{},\"rustc\":{},\"filesystem\":{},\"scale\":{},\"corpus\":{},\"operations\":{}}}",
            json_str(&command_line("git", &["rev-parse", "HEAD"])),
            std::thread::available_parallelism().map_or(0, |n| n.get()),
            self.seed,
            self.seconds,
            json_str(&command_line("rustc", &["--version"])),
            json_str(&fs),
            json_str(self.scale),
            counts(&self.corpus),
            counts(&self.operations),
        )
    }
}

impl Report {
    /// Record one correctness check.
    pub fn check(&mut self, what: &str, ok: bool, detail: String) {
        self.checks.push((what.to_string(), ok, detail));
    }

    /// Check that the metrics about to be reported are exactly the ones
    /// `spec` (`BENCHMARK.json`) lists for this kind of run, in any order.
    pub fn check_names(&mut self, spec: &Path, trace: bool) {
        let key = if trace { "per_layer" } else { "end_to_end" };
        let listed: Result<Vec<String>, String> = read_json(spec).and_then(|spec| {
            let Some(Value::Array(metrics)) = spec.get(key) else {
                return Err(format!("no {key} list"));
            };
            metrics
                .iter()
                .map(|m| match m.get("name") {
                    Some(Value::Str(name)) => Ok(name.clone()),
                    _ => Err(format!("a {key} entry lacks a name")),
                })
                .collect()
        });
        let reported = if trace { &self.layers } else { &self.end_to_end };
        let mut reported: Vec<String> = reported.iter().map(|m| m.name.clone()).collect();
        reported.sort();
        let (ok, detail) = match listed {
            Ok(mut listed) => {
                listed.sort();
                let missing: Vec<&String> =
                    listed.iter().filter(|n| !reported.contains(n)).collect();
                let extra: Vec<&String> = reported.iter().filter(|n| !listed.contains(n)).collect();
                (listed == reported, format!("not reported {missing:?}, not listed {extra:?}"))
            }
            Err(e) => (false, e),
        };
        self.check(
            &format!("reported metrics are the {key} list of {}", spec.display()),
            ok,
            detail,
        );
    }

    /// Print everything, write the stamped result file, and print the
    /// result object as the last line of stdout. The traced run's result
    /// carries the per-layer metrics, the untraced run's the end-to-end
    /// ones. Exits non-zero when a check failed or a reported metric is
    /// not a finite, non-zero number.
    pub fn finish(self, provenance: &Provenance, file: &Path, trace: bool) -> ExitCode {
        let stamp = provenance.to_json();
        println!(
            "# {} seed {} trace {} {stamp}",
            provenance.workload, provenance.seed, trace as u8
        );
        let show = |title: &str, metrics: &[Metric]| {
            println!("# {title}");
            for m in metrics {
                println!("{:<40} {:>16.4} {:<8} {}", m.name, m.value, m.unit, m.note);
            }
        };
        if trace {
            show("per-layer metrics (traced run)", &self.layers);
        } else {
            show("end-to-end metrics (untraced run)", &self.end_to_end);
        }
        println!("# checks");
        for (what, ok, detail) in &self.checks {
            println!("{} {what} {detail}", if *ok { "ok  " } else { "FAIL" });
        }
        println!("# operations: {} attempted, {} failed", self.attempted, self.failed);

        let reported = if trace { &self.layers } else { &self.end_to_end };
        // End-to-end metrics are never zero by construction; a layer
        // count may honestly be zero, but never NaN.
        let sound = reported.iter().all(|m| m.value.is_finite() && (trace || m.value != 0.0));
        let correct = sound && self.failed == 0 && self.checks.iter().all(|(_, ok, _)| *ok);
        let fields: Vec<String> = reported
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("{}:{{\"value\":{v},\"unit\":{}}}", json_str(&m.name), json_str(m.unit))
            })
            .collect();
        let result = format!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.attempted.max(1),
            self.failed,
            fields.join(",")
        );
        let stamped = format!(
            "{{\"workload\":{},\"trace\":{trace},\"provenance\":{stamp},\"result\":{result}}}\n",
            json_str(&provenance.workload)
        );
        std::fs::write(file, stamped).expect("write the result file");
        println!("{result}");
        if correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {}", path.display(), e.0))
}

/// The repeat check: each of `dirs` holds one full set of untraced
/// results (`<workload>.json`). Prints each end-to-end metric's median,
/// quartiles and spread per workload and exits non-zero when a spread
/// exceeds the bound `spec` (`BENCHMARK.json`) gives that metric.
/// `setup_s` is printed and not gated: it is one process start-up long
/// and its bound guards the median, not the spread.
pub fn summarize(spec: &Path, dirs: &[PathBuf]) -> ExitCode {
    match summarize_inner(spec, dirs) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("pse-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn summarize_inner(spec: &Path, dirs: &[PathBuf]) -> Result<bool, String> {
    if dirs.len() < 2 {
        return Err("the repeat check needs at least two sets".into());
    }
    let spec = read_json(spec)?;
    let Some(Value::Array(metrics)) = spec.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".into());
    };
    let mut bounds: Vec<(String, f64)> = Vec::new();
    for m in metrics {
        match (m.get("name"), m.get("bound").and_then(number)) {
            (Some(Value::Str(name)), Some(bound)) => bounds.push((name.clone(), bound)),
            _ => return Err("an end_to_end entry lacks name or bound".into()),
        }
    }
    let mut within = true;
    for workload in crate::WORKLOADS {
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for dir in dirs {
            let run = read_json(&dir.join(format!("{workload}.json")))?;
            let Some(Value::Object(fields)) = run.get("result").and_then(|r| r.get("metrics"))
            else {
                return Err(format!("{}: no result.metrics", dir.display()));
            };
            for (name, m) in fields {
                let v = m.get("value").and_then(number).ok_or("a metric lacks a value")?;
                values.entry(name.clone()).or_default().push(v);
            }
        }
        println!("# {workload}: {} sets", dirs.len());
        println!(
            "{:<26} {:>14} {:>14} {:>14} {:>8} {:>6}",
            "metric", "median", "q1", "q3", "spread", "bound"
        );
        for (name, bound) in &bounds {
            let v = values.get(name).ok_or(format!("{workload} did not report {name}"))?;
            let [q1, _, q3] = quartiles(v);
            let s = spread(v);
            let gated = name != "setup_s";
            let verdict = match (gated, s <= *bound) {
                (false, _) => "(not gated)",
                (true, true) => "",
                (true, false) => "EXCEEDS",
            };
            within &= !gated || s <= *bound;
            println!(
                "{name:<26} {:>14.4} {q1:>14.4} {q3:>14.4} {:>7.2}% {:>5.1}% {verdict}",
                median(v),
                100.0 * s,
                100.0 * bound
            );
        }
    }
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strings_are_escaped_for_json() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }

    /// `BENCHMARK.json` and the program must name the same workloads.
    #[test]
    fn benchmark_json_names_the_workloads() {
        let spec: Value = serde_json::from_str(include_str!("../../BENCHMARK.json")).unwrap();
        let Some(Value::Array(workloads)) = spec.get("workloads") else { panic!("workloads") };
        let names: Vec<&str> = workloads
            .iter()
            .map(|w| match w.get("name") {
                Some(Value::Str(s)) => s.as_str(),
                _ => panic!("a workload lacks a name"),
            })
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
