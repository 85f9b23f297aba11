//! **Scenario runner** — drives the named workload catalog against
//! every backend of the matching family and emits machine-readable
//! JSON.
//!
//! ```text
//! cargo run --release -p dlz-bench --bin scenarios -- --list
//! cargo run --release -p dlz-bench --bin scenarios -- --scenario queue-balanced
//! cargo run --release -p dlz-bench --bin scenarios -- --scenario stm-hot-keys \
//!     --threads 8 --duration-ms 1000 --backends relaxed > out.json
//!
//! # sweep grids: threads × policies × mixes, one JSON array out
//! cargo run --release -p dlz-bench --bin scenarios -- \
//!     --scenario queue-balanced --threads 1,2,4,8 \
//!     --policies two-choice,sticky=16
//! ```
//!
//! Every run is a sweep grid (the single-run path is a 1×1 grid): the
//! JSON array holds one object per (cell × backend), each tagged with
//! its cell name and grid coordinates. `--threads 2,4,8` runs **every**
//! listed thread count — nothing is silently dropped. JSON goes to
//! stdout (redirect it to keep a file); human-readable progress goes to
//! stderr, so the output can be piped straight into `jq` or a plotting
//! script. `--quick` shrinks only the dimensions not explicitly set.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

use dlz_bench::{Config, Table};
use dlz_core::json;
use dlz_workload::backends::{policy_roster, roster};
use dlz_workload::{engine, Budget, Family, RunReport, Scenario, SweepSpec};

fn list(catalog: &[Scenario]) {
    let mut table = Table::new(&["scenario", "family", "threads", "description"]);
    for s in catalog {
        table.row(vec![
            s.name.clone(),
            s.family.label().to_string(),
            s.threads.to_string(),
            s.about.clone(),
        ]);
    }
    table.print();
    println!("\nrun one: cargo run --release -p dlz-bench --bin scenarios -- --scenario <name>");
}

/// Applies CLI overrides and quick-mode shrinking to a preset's base
/// scenario. Quick mode only shrinks dimensions the user did **not**
/// explicitly set: `--quick --threads 8` runs 8 threads.
fn customize(mut s: Scenario, cfg: &Config) -> Scenario {
    if cfg.was_set("--threads") {
        // Base value only; the sweep grid carries the full list.
        s.threads = *cfg.threads.last().expect("non-empty sweep");
    }
    if cfg.was_set("--seed") {
        s.seed = cfg.seed;
    }
    match s.budget {
        Budget::Timed(_) if cfg.was_set("--duration-ms") => {
            s.budget = Budget::Timed(cfg.duration);
        }
        _ => {}
    }
    if cfg.quick {
        s.budget = match s.budget {
            Budget::Timed(d) if !cfg.was_set("--duration-ms") => {
                Budget::Timed(d.min(Duration::from_millis(50)))
            }
            Budget::OpsPerWorker(n) => Budget::OpsPerWorker((n / 10).max(100)),
            other => other,
        };
        if !cfg.was_set("--threads") {
            s.threads = s.threads.min(2);
        }
        s.prefill = s.prefill.min(2_000);
    }
    s.telemetry_interval = cfg.telemetry.or(s.telemetry_interval);
    if let Some(plan) = &cfg.faults {
        // The highest thread count anywhere in the grid bounds the
        // worker ids a plan may name; the engine simply never compiles
        // faults for workers a smaller cell does not spawn.
        let max_threads = if cfg.was_set("--threads") {
            cfg.threads.iter().copied().max().unwrap_or(s.threads)
        } else {
            s.threads
        };
        if plan.max_worker() >= max_threads {
            eprintln!(
                "error: --faults names worker {} but no cell runs more than {} threads",
                plan.max_worker(),
                max_threads
            );
            std::process::exit(2);
        }
        s.faults = Some(plan.clone());
    }
    if let Some(dir) = &cfg.export_histories {
        if s.record_history {
            s.export = Some(PathBuf::from(dir));
        } else {
            // An ineffective flag must not pass silently.
            eprintln!(
                "note: --export-histories skips '{}' (the scenario records no history)",
                s.name
            );
        }
    }
    s
}

/// Builds the sweep grid for one catalog preset: the customized base
/// plus the CLI axes. Without explicit axes this is a 1×1 grid — the
/// single-run path.
fn build_spec(base: Scenario, cfg: &Config) -> SweepSpec {
    let family = base.family;
    let mut spec = SweepSpec::new(base);
    if cfg.was_set("--threads") {
        spec = spec.threads(&cfg.threads);
    }
    if !cfg.policies.is_empty() {
        if family == Family::Queue {
            spec = spec.policies(&cfg.policies);
        } else {
            eprintln!(
                "note: --policies only applies to queue scenarios; ignored for this {} scenario",
                family.label()
            );
        }
    }
    if !cfg.mixes.is_empty() {
        spec = spec.mixes(&cfg.mixes);
    }
    if !cfg.clients.is_empty() {
        spec = spec.clients(&cfg.clients);
    }
    if !cfg.arrival_shapes.is_empty() {
        spec = spec.arrival_shapes(&cfg.arrival_shapes);
    }
    if !cfg.keys.is_empty() {
        spec = spec.keys(&cfg.keys);
    }
    if !cfg.prios.is_empty() {
        spec = spec.priorities(&cfg.prios);
    }
    spec
}

const FLAGS: &[&str] = &[
    "--quick",
    "--seed",
    "--threads",
    "--duration-ms",
    "--list",
    "--scenario",
    "--backends",
    "--policies",
    "--mixes",
    "--keys",
    "--prios",
    "--export-histories",
    "--telemetry-interval-ms",
    "--faults",
    "--clients",
    "--arrival-shape",
];

fn main() {
    let cfg = Config::from_args(FLAGS);
    let catalog = Scenario::catalog();

    if cfg.list {
        list(&catalog);
        return;
    }

    let selected: Vec<Scenario> = match &cfg.scenario {
        Some(name) => match Scenario::named(name) {
            Some(s) => vec![s],
            None => {
                eprintln!("unknown scenario '{name}'; available:");
                for s in &catalog {
                    eprintln!("  {}", s.name);
                }
                std::process::exit(2);
            }
        },
        None => {
            // Chaos presets ship armed fault plans and *expect* worker
            // deaths, so a bare catalog run skips them — run one
            // explicitly (`--scenario chaos-stall-audit`) to opt in.
            let (chaos, rest): (Vec<Scenario>, Vec<Scenario>) =
                catalog.into_iter().partition(|s| s.faults.is_some());
            for s in &chaos {
                eprintln!(
                    "note: skipping chaos preset '{}' (opt in with --scenario)",
                    s.name
                );
            }
            rest
        }
    };

    let mut reports: Vec<RunReport> = Vec::new();
    // Every roster backend seen, selected or not — listed when a
    // --backends filter matches nothing.
    let mut roster_names: BTreeSet<String> = BTreeSet::new();
    let mut matched = 0usize;
    for preset in selected {
        let base = customize(preset, &cfg);
        if cfg.was_set("--duration-ms") && matches!(base.budget, Budget::OpsPerWorker(_)) {
            // An ineffective override must not pass silently.
            eprintln!(
                "warning: --duration-ms has no effect on '{}' (fixed-op budget {:?})",
                base.name, base.budget
            );
        }
        let spec = build_spec(base, &cfg);
        reports.extend(engine::run_sweep(&spec, |cell| {
            // Along a policy axis, run only backends that act on the
            // swept policy — same set in every cell, so the series is
            // rectangular and no policy-oblivious backend gets tagged
            // with a label it ignored. Other sweeps keep the full
            // family roster.
            let cell_roster = if cell.coords.iter().any(|(k, _)| k == "policy") {
                policy_roster(&cell.scenario)
            } else {
                roster(&cell.scenario)
            };
            let mut kept: Vec<Box<dyn dlz_workload::Backend>> = Vec::new();
            for backend in cell_roster {
                let name = backend.name();
                roster_names.insert(name.clone());
                if cfg.backend_selected(&name) {
                    eprintln!("running {} on {name} ...", cell.name);
                    kept.push(backend);
                }
            }
            matched += kept.len();
            kept
        }));
    }

    if !cfg.backends.is_empty() && matched == 0 {
        eprintln!(
            "error: --backends filter [{}] matched no backend; roster:",
            cfg.backends.join(",")
        );
        for name in &roster_names {
            eprintln!("  {name}");
        }
        std::process::exit(2);
    }

    let mut summary = Table::new(&[
        "cell", "backend", "threads", "mops", "p50_ns", "p99_ns", "quality", "verified",
    ]);
    for report in &reports {
        let q = &report.quality;
        let quality_cell = match q.summary {
            Some(s) => format!("{}: p99={:.1}", q.metric, s.p99),
            None => match q.get("abort_rate") {
                Some(r) => format!("abort_rate={:.3}", r),
                None => q.metric.clone(),
            },
        };
        summary.row(vec![
            report
                .cell
                .clone()
                .unwrap_or_else(|| report.scenario.clone()),
            report.backend.clone(),
            report.threads.to_string(),
            format!("{:.3}", report.mops()),
            report.latency.p50_ns.to_string(),
            report.latency.p99_ns.to_string(),
            quality_cell,
            report.verified().to_string(),
        ]);
    }

    let rendered: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    println!("{}", json::array(&rendered));

    eprintln!();
    eprint!("{}", summary.render());
    // A run is clean only if it verified, exported without errors, and
    // every worker completed — fault casualties and export failures
    // surface in the exit code, not just the JSON.
    let failed: Vec<&RunReport> = reports.iter().filter(|r| !r.ok()).collect();
    if !failed.is_empty() {
        for r in &failed {
            let cell = r.cell.as_deref().unwrap_or(&r.scenario);
            if !r.verified() {
                eprintln!(
                    "VERIFY FAILED: {cell} on {}: {}",
                    r.backend,
                    r.verify_error.as_deref().unwrap_or("?")
                );
            }
            for e in &r.export_errors {
                eprintln!("EXPORT FAILED: {cell} on {}: {e}", r.backend);
            }
            if let Some(f) = &r.faults {
                for (id, w) in f.workers.iter().enumerate() {
                    if let Some(detail) = w.detail() {
                        eprintln!(
                            "WORKER {}: {cell} on {}: worker {id}: {detail}",
                            w.label().to_uppercase(),
                            r.backend
                        );
                    }
                }
            }
        }
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlz_core::PolicyCfg;
    use dlz_workload::Dist;

    fn parse(args: &[&str]) -> Config {
        Config::try_parse(FLAGS, args.iter().map(|a| a.to_string())).expect("flags parse")
    }

    #[test]
    fn quick_only_shrinks_dimensions_the_user_did_not_set() {
        // Regression: `--quick --threads 8` used to clamp to 2 threads
        // because customize() applied the quick shrink after the
        // explicit --threads override.
        let cfg = parse(&["--quick", "--threads", "8"]);
        let s = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        assert_eq!(s.threads, 8, "--quick must not clamp an explicit --threads");
        // Unset dimensions still shrink.
        assert!(matches!(s.budget, Budget::Timed(d) if d <= Duration::from_millis(50)));

        // Without an explicit thread count, quick still clamps.
        let cfg = parse(&["--quick"]);
        let s = customize(
            Scenario::named("mq-hotpath-dequeue-heavy").expect("catalog"),
            &cfg,
        );
        assert_eq!(s.threads, 2);

        // An explicit duration survives quick mode too.
        let cfg = parse(&["--quick", "--duration-ms", "400"]);
        let s = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        assert_eq!(s.budget, Budget::Timed(Duration::from_millis(400)));
    }

    #[test]
    fn build_spec_expands_cli_axes() {
        let cfg = parse(&["--threads", "1,2", "--policies", "two-choice,sticky=16"]);
        let base = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        let spec = build_spec(base, &cfg);
        assert_eq!(spec.len(), 4, "2 threads × 2 policies");
        let cells = spec.cells();
        assert!(cells[0].name.starts_with("queue-balanced/t=1/policy="));
        assert!(cells
            .iter()
            .any(|c| c.scenario.choice_policy == PolicyCfg::Sticky { ops: 16 }));

        // Single-run path: a 1×1 grid, nothing dropped.
        let cfg = parse(&[]);
        let base = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        let spec = build_spec(base, &cfg);
        assert_eq!(spec.len(), 1);

        // `--threads 2,4,8` runs every listed count.
        let cfg = parse(&["--threads", "2,4,8"]);
        let base = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        let spec = build_spec(base, &cfg);
        assert_eq!(spec.len(), 3, "an explicit sweep list must not be dropped");
        let threads: Vec<usize> = spec.cells().iter().map(|c| c.scenario.threads).collect();
        assert_eq!(threads, vec![2, 4, 8]);

        // --policies on a non-queue family is ignored (with a note).
        let cfg = parse(&["--policies", "sticky=4"]);
        let base = customize(
            Scenario::named("counter-read-heavy").expect("catalog"),
            &cfg,
        );
        let spec = build_spec(base, &cfg);
        assert_eq!(spec.len(), 1);
    }

    #[test]
    fn client_axes_thread_into_the_grid_and_survive_quick() {
        use dlz_workload::ArrivalShape;
        // `--quick` must not shrink the client population: the preset
        // keeps its 100k clients while budgets and prefill shrink.
        let cfg = parse(&[
            "--quick",
            "--clients",
            "200000",
            "--arrival-shape",
            "poisson:50,periodic:50",
        ]);
        let base = customize(
            Scenario::named("clients-poisson-100k").expect("catalog"),
            &cfg,
        );
        let spec = build_spec(base, &cfg);
        assert_eq!(spec.len(), 2, "1 clients × 2 shapes");
        let cells = spec.cells();
        assert!(cells.iter().all(|c| c.scenario.clients == 200_000));
        assert!(cells[0].name.contains("/clients=200000/shape=poisson("));
        assert!(cells[1].name.contains("/shape=periodic("));
        // Without the flags, the preset's own client setup rules.
        let cfg = parse(&["--quick"]);
        let base = customize(
            Scenario::named("clients-poisson-100k").expect("catalog"),
            &cfg,
        );
        assert_eq!(base.clients, 100_000, "quick must not shrink clients");
        assert_eq!(base.arrival_shape, ArrivalShape::Poisson { rate: 50.0 });
        let spec = build_spec(base, &cfg);
        assert_eq!(spec.len(), 1);
    }

    #[test]
    fn skew_axes_follow_the_family() {
        // Queue scenarios skew their priorities ...
        let cfg = parse(&["--prios", "zipf:65536:0.6,zipf:65536:0.9"]);
        let base = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        let spec = build_spec(base, &cfg);
        assert_eq!(spec.len(), 2);
        let cells = spec.cells();
        assert!(cells
            .iter()
            .all(|c| matches!(c.scenario.priorities, Dist::Zipf { .. })));
        assert!(cells[0].name.contains("/prio=zipf("), "{}", cells[0].name);

        // ... counter (and STM) scenarios skew their keys.
        let cfg = parse(&["--keys", "zipf:65536:0.6,zipf:65536:0.9"]);
        let base = customize(
            Scenario::named("counter-read-heavy").expect("catalog"),
            &cfg,
        );
        let cells = build_spec(base, &cfg).cells();
        assert_eq!(cells.len(), 2);
        assert!(cells
            .iter()
            .all(|c| matches!(c.scenario.keys, Dist::Zipf { .. })));

        // Explicit --keys/--prios apply verbatim and compose.
        let cfg = parse(&["--keys", "uniform:64,zipf:128:0.9", "--prios", "monotonic"]);
        let base = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        let spec = build_spec(base, &cfg);
        assert_eq!(spec.len(), 2, "2 keys × 1 prio");
        assert!(spec.cells()[0].name.contains("keys=uniform(64)"));
    }

    #[test]
    fn export_histories_applies_only_to_history_scenarios() {
        let cfg = parse(&["--export-histories", "histdir"]);
        let audit = customize(
            Scenario::named("queue-balanced-audit").expect("catalog"),
            &cfg,
        );
        assert_eq!(
            audit.export.as_deref(),
            Some(std::path::Path::new("histdir"))
        );
        let plain = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        assert!(plain.export.is_none(), "no history, nothing to export");
    }

    #[test]
    fn faults_flag_threads_the_plan_into_every_scenario() {
        let cfg = parse(&["--faults", "panic:0@50;slow:1:2..9"]);
        let s = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        assert_eq!(
            s.faults.as_ref().map(|p| p.spec()),
            Some("panic:0@50;slow:1:2..9")
        );
        // Off by default.
        let cfg = parse(&[]);
        let s = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        assert!(s.faults.is_none());
    }

    #[test]
    fn telemetry_flag_arms_interval_snapshots() {
        let cfg = parse(&["--telemetry-interval-ms", "20"]);
        let s = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        assert_eq!(s.telemetry_interval, Some(Duration::from_millis(20)));
        // Off by default.
        let cfg = parse(&[]);
        let s = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        assert!(s.telemetry_interval.is_none());
        // A preset's own interval survives when the flag is absent.
        let s = customize(Scenario::named("chaos-slow-tail").expect("catalog"), &cfg);
        assert_eq!(s.telemetry_interval, Some(Duration::from_millis(25)));
        // Telemetry lives in the report: a telemetry-only run exports
        // nothing, even with an export directory.
        let cfg = parse(&[
            "--telemetry-interval-ms",
            "100",
            "--export-histories",
            "artifacts",
        ]);
        let s = customize(Scenario::named("queue-balanced").expect("catalog"), &cfg);
        assert_eq!(s.telemetry_interval, Some(Duration::from_millis(100)));
        assert!(s.export.is_none());
    }
}
