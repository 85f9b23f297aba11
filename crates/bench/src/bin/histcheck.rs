//! **histcheck** — offline replay of serialized history artifacts.
//!
//! Loads `.histjsonl` artifacts (files, or directories walked
//! recursively) written by `scenarios --export-histories`, re-runs the
//! exact distributional-linearizability check on each, and reports the
//! verdict together with the rank-vs-envelope cost distribution —
//! decoupling expensive checking from traffic generation, so a grid of
//! policy-tagged histories can be audited long after the sweep that
//! produced it (or shipped to an external monitor).
//!
//! ```text
//! cargo run --release -p dlz-bench --bin scenarios -- --quick --sweep \
//!     --scenario queue-balanced-audit --threads 1,2 \
//!     --policies two-choice,sticky=4 --export-histories hist/
//! cargo run --release -p dlz-bench --bin histcheck -- hist/
//! ```
//!
//! One JSON object per artifact goes to stdout (an array; `--json FILE`
//! also writes it to a file); the human-readable verdict table goes to
//! stderr. Each verdict is [`dlz_core::spec::judge`] over the loaded
//! artifact — the function the engine called on the same artifact
//! in-process — so the summary statistics and the envelope decision
//! reproduce the exported run's `quality` block bit for bit.
//!
//! Exit status: `0` all artifacts linearizable, `1` at least one
//! verdict failed (unmappable operation, broken stamp discipline, or a
//! real-time violation), `2` an artifact could not be loaded (the
//! error names the file and the 1-based line of the damage) or the
//! usage was wrong. An exceeded envelope is *reported* (`within_bound:
//! false` plus a stderr warning) but is not a verdict failure — the
//! in-process engine treats it as data too. A structure without a
//! bounded cost claims no envelope (`envelope_factor: null`, an
//! infinite `bound`): the FIFO's positions and the sharded counter's
//! one-stripe reads.

use std::io::Write as _;
use std::path::{Path, PathBuf};

use dlz_bench::Table;
use dlz_core::json;
use dlz_core::spec::{judge, HistoryArtifact, Verdict};
use dlz_workload::QualitySummary;

fn usage() -> ! {
    eprintln!("usage: histcheck [--json FILE] <artifact.histjsonl | directory>...");
    std::process::exit(2);
}

fn fail_load(path: &Path, msg: impl std::fmt::Display) -> ! {
    eprintln!("histcheck: {}: {msg}", path.display());
    std::process::exit(2);
}

/// Collects every `.histjsonl` under the given paths (files verbatim,
/// directories recursively), sorted for deterministic output.
fn collect(paths: &[PathBuf]) -> Vec<PathBuf> {
    fn walk(path: &Path, out: &mut Vec<PathBuf>) {
        // Never follow symlinks inside a walk: a cycle in the artifact
        // tree must not overflow the stack (failures here are loud
        // exits, never aborts).
        if path
            .symlink_metadata()
            .map(|m| m.file_type().is_symlink())
            .unwrap_or(false)
        {
            return;
        }
        if path.is_dir() {
            let entries = match std::fs::read_dir(path) {
                Ok(e) => e,
                Err(e) => fail_load(path, format!("cannot read directory: {e}")),
            };
            for entry in entries {
                match entry {
                    Ok(e) => walk(&e.path(), out),
                    Err(e) => fail_load(path, format!("cannot read directory entry: {e}")),
                }
            }
        } else if path.extension().and_then(|e| e.to_str()) == Some("histjsonl") {
            out.push(path.to_path_buf());
        }
    }
    let mut out = Vec::new();
    for p in paths {
        if !p.exists() {
            fail_load(p, "no such file or directory");
        }
        if p.is_file() {
            // Explicitly named files are checked whatever their
            // extension; filtering applies to directory walks only.
            out.push(p.clone());
        } else {
            walk(p, &mut out);
        }
    }
    out.sort();
    out.dedup();
    out
}

/// Log₂-bucketed histogram of the metric costs: `[le, count]` pairs
/// where `le` is the bucket's inclusive upper bound (0, 1, 2, 4, ...).
fn cost_histogram(costs: &[f64]) -> Vec<(u64, u64)> {
    let mut buckets: Vec<u64> = Vec::new();
    for &c in costs {
        let idx = if c <= 0.0 {
            0
        } else {
            (c.max(1.0)).log2().ceil() as usize + 1
        };
        if buckets.len() <= idx {
            buckets.resize(idx + 1, 0);
        }
        buckets[idx] += 1;
    }
    buckets
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(i, &n)| (if i == 0 { 0 } else { 1u64 << (i - 1) }, n))
        .collect()
}

struct Checked {
    path: PathBuf,
    artifact: HistoryArtifact,
    verdict: Verdict,
    summary: QualitySummary,
    hist: Vec<(u64, u64)>,
}

fn check(path: PathBuf) -> Checked {
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => fail_load(&path, e),
    };
    let artifact = match HistoryArtifact::from_json_lines(&text) {
        Ok(a) => a,
        // The loud failure mode the format is designed for: file + line.
        Err(e) => fail_load(&path, e),
    };
    let verdict = judge(&artifact);
    let summary = QualitySummary::from_samples(&verdict.costs);
    let hist = cost_histogram(&verdict.costs);
    Checked {
        path,
        artifact,
        verdict,
        summary,
        hist,
    }
}

fn to_json(c: &Checked) -> String {
    let (a, v) = (&c.artifact, &c.verdict);
    let mut o = json::JsonObject::new();
    o.str("path", &c.path.display().to_string());
    a.describe(&mut o);
    o.str("metric", v.metric)
        .bool("linearizable", v.outcome.is_linearizable())
        .bool("well_formed", v.outcome.well_formed)
        .bool("real_time_ok", v.outcome.real_time_ok)
        .u64("unmappable", v.outcome.unmappable.len() as u64)
        .obj("summary", |s| {
            s.u64("count", c.summary.count)
                .f64("mean", c.summary.mean)
                .f64("p50", c.summary.p50)
                .f64("p99", c.summary.p99)
                .f64("max", c.summary.max);
        })
        .f64("bound", v.bound)
        .bool("within_bound", v.within);
    let hist: Vec<String> = c.hist.iter().map(|(le, n)| format!("[{le},{n}]")).collect();
    o.raw("cost_hist", &json::array(&hist));
    o.finish()
}

fn main() {
    let mut json_path: Option<String> = None;
    let mut paths: Vec<PathBuf> = Vec::new();
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => match it.next() {
                Some(v) => json_path = Some(v),
                None => usage(),
            },
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => usage(),
            other => paths.push(PathBuf::from(other)),
        }
    }
    if paths.is_empty() {
        usage();
    }
    let files = collect(&paths);
    if files.is_empty() {
        eprintln!("histcheck: no .histjsonl artifacts under the given paths");
        std::process::exit(2);
    }

    let checked: Vec<Checked> = files.into_iter().map(check).collect();

    let mut table = Table::new(&[
        "artifact", "kind", "policy", "events", "mean", "p99", "max", "bound", "within", "verdict",
    ]);
    for c in &checked {
        let key = c
            .artifact
            .cell
            .clone()
            .unwrap_or_else(|| c.path.display().to_string());
        table.row(vec![
            key,
            c.artifact.kind().to_string(),
            c.artifact.policy.clone(),
            c.artifact.len().to_string(),
            format!("{:.3}", c.summary.mean),
            format!("{:.1}", c.summary.p99),
            format!("{:.1}", c.summary.max),
            if c.verdict.bound.is_finite() {
                format!("{:.1}", c.verdict.bound)
            } else {
                "-".to_string()
            },
            c.verdict.within.to_string(),
            if c.verdict.outcome.is_linearizable() {
                "linearizable".to_string()
            } else {
                "FAILED".to_string()
            },
        ]);
    }

    let rendered: Vec<String> = checked.iter().map(to_json).collect();
    let array = json::array(&rendered);
    println!("{array}");
    if let Some(path) = &json_path {
        let mut f = std::fs::File::create(path)
            .unwrap_or_else(|e| fail_load(Path::new(path), format!("cannot create: {e}")));
        f.write_all(array.as_bytes()).expect("write --json file");
        f.write_all(b"\n").expect("write --json file");
        eprintln!("wrote {} verdicts to {path}", checked.len());
    }

    eprintln!();
    eprint!("{}", table.render());
    let mut failed = false;
    for c in &checked {
        let v = &c.verdict;
        if !v.outcome.is_linearizable() {
            failed = true;
            eprintln!(
                "VERDICT FAILED: {}: well_formed={} real_time_ok={} unmappable={}",
                c.path.display(),
                v.outcome.well_formed,
                v.outcome.real_time_ok,
                v.outcome.unmappable.len()
            );
        } else if !v.within {
            // Reported, not fatal: the envelope is a quality statement,
            // and the in-process engine treats it as data too.
            eprintln!(
                "note: envelope exceeded: {}: {} mean {:.3} / max {:.1} vs bound {:.1}",
                c.path.display(),
                v.metric,
                c.summary.mean,
                c.summary.max,
                v.bound
            );
        }
    }
    if failed {
        std::process::exit(1);
    }
}
