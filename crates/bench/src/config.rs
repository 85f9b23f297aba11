//! Minimal CLI configuration shared by the figure binaries and the
//! scenario runner.
//!
//! No external argument parser: the binaries take a handful of
//! `--key value` pairs, so `cargo run` with no arguments always
//! produces a sensible laptop-scale run. Flags are the only input, and
//! each binary passes the flags it reads to [`Config::from_args`]:
//! any other flag, one that another binary reads included, is an
//! unknown flag. `histcheck` takes artifact paths only.
//!
//! | flag | meaning | read by |
//! |---|---|---|
//! | `--quick` | shrink everything *not explicitly set* for CI smoke | all |
//! | `--seed S` | base RNG seed | all |
//! | `--threads 1,2,4` | thread counts to sweep | `clock_tuning`, `fig1a`, `fig1cde`, `mq_rank`, `scenarios` |
//! | `--duration-ms 300` | per-point duration | `fig1a`, `fig1cde`, `scenarios` |
//! | `--objects N` | TL2 array size(s) | `fig1cde` |
//! | `--list` | list the catalog and exit | `scenarios` |
//! | `--scenario NAME` | run one named scenario | `scenarios` |
//! | `--backends a,b` | substring filter on backends | `scenarios` |
//! | `--policies a,b` | choice-policy axis (`two-choice,sticky=16,...`) | `scenarios` |
//! | `--mixes a,b` | op-mix axis (`50/50/0,90/0/10,...`) | `scenarios` |
//! | `--keys a,b` | key-distribution axis (`uniform:1024,zipf:16384:0.9,...`) | `scenarios` |
//! | `--prios a,b` | priority-distribution axis (same grammar) | `scenarios` |
//! | `--export-histories DIR` | serialize each history run's artifact under DIR | `scenarios` |
//! | `--telemetry-interval-ms N` | per-interval snapshots in each report | `scenarios` |
//! | `--faults SPEC` | inject a fault plan (`panic:1@200;slow:3:5..20`) | `scenarios` |
//! | `--clients N[,M]` | simulated-client population axis (`0` = plain per-worker driver) | `scenarios` |
//! | `--arrival-shape a,b` | per-client arrival shapes (`poisson:50,diurnal:20:200,...`) | `scenarios` |
//!
//! "all" is every binary but `histcheck`. JSON goes to stdout, so a
//! file is a redirect (`scenarios ... > out.json`).
//!
//! The `Dist` grammar for `--keys`/`--prios`: `uniform:N`,
//! `zipf:N:THETA`, `fixed:V`, `monotonic`.
//!
//! Malformed flags are **usage errors**: [`Config::from_args`] prints
//! the message to stderr and exits with status 2 (it never panics);
//! [`Config::try_parse`] returns the error for tests and embedders.

use std::time::Duration;

use dlz_core::PolicyCfg;
use dlz_workload::{ArrivalShape, Dist, FaultPlan, OpMix};

/// Parsed configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Per-measurement duration.
    pub duration: Duration,
    /// TL2 object counts (fig1cde only).
    pub objects: Vec<usize>,
    /// Quick mode: shrink runs for smoke-testing. Only dimensions the
    /// user did **not** explicitly set are shrunk — `--quick
    /// --threads 8` runs 8 threads.
    pub quick: bool,
    /// Base seed for deterministic components.
    pub seed: u64,
    /// `scenarios`: list the catalog and exit.
    pub list: bool,
    /// `scenarios`: run only this named scenario.
    pub scenario: Option<String>,
    /// `scenarios`: case-insensitive substring filter on backend names.
    pub backends: Vec<String>,
    /// Choice-policy axis values (`--policies two-choice,sticky=16`).
    pub policies: Vec<PolicyCfg>,
    /// Op-mix axis values (`--mixes 50/50/0,90/0/10`).
    pub mixes: Vec<OpMix>,
    /// Key-distribution axis values (`--keys uniform:1024,zipf:16384:0.9`).
    pub keys: Vec<Dist>,
    /// Priority-distribution axis values (`--prios monotonic,zipf:65536:0.9`).
    pub prios: Vec<Dist>,
    /// `scenarios`: directory to serialize history artifacts into.
    pub export_histories: Option<String>,
    /// `scenarios`: the time-resolved telemetry snapshot interval
    /// (interval snapshots in every report's `telemetry` object); `None`
    /// when off.
    pub telemetry: Option<Duration>,
    /// `scenarios`: fault plan injected into every selected scenario
    /// (`--faults 'panic:1@200;slow:3:5..20'`). Malformed specs are
    /// usage errors at parse time, not mid-sweep panics.
    pub faults: Option<FaultPlan>,
    /// Simulated-client population values (`--clients 100000`): each
    /// selected scenario runs with this many open-loop clients driven
    /// over the worker pool; more than one value becomes a sweep axis.
    /// `0` means the plain per-worker driver.
    pub clients: Vec<usize>,
    /// Per-client arrival shapes (`--arrival-shape poisson:50`); more
    /// than one value becomes a sweep axis. Only meaningful together
    /// with a non-zero client population.
    pub arrival_shapes: Vec<ArrivalShape>,
    /// Flags explicitly given (so binaries can distinguish "defaulted"
    /// from "requested").
    set_flags: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2);
        // Sweep 1..=2·hw in powers of two (oversubscription shows the
        // contention cliff even on small boxes).
        let mut threads = vec![1usize];
        while *threads.last().expect("non-empty") < 2 * hw {
            let next = threads.last().unwrap() * 2;
            threads.push(next);
        }
        Config {
            threads,
            duration: Duration::from_millis(300),
            objects: vec![10_000, 100_000, 1_000_000],
            quick: false,
            seed: 0xd15f1e1d,
            list: false,
            scenario: None,
            backends: Vec::new(),
            policies: Vec::new(),
            mixes: Vec::new(),
            keys: Vec::new(),
            prios: Vec::new(),
            export_histories: None,
            telemetry: None,
            faults: None,
            clients: Vec::new(),
            arrival_shapes: Vec::new(),
            set_flags: Vec::new(),
        }
    }
}

impl Config {
    /// Parses `std::env::args` against `reads`, the flags the calling
    /// binary reads. A malformed flag, or one outside `reads`, is a
    /// usage error: the message goes to stderr and the process exits
    /// with status 2.
    pub fn from_args(reads: &[&str]) -> Self {
        match Self::try_parse(reads, std::env::args().skip(1)) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("see crates/bench/src/config.rs for the flag table");
                std::process::exit(2);
            }
        }
    }

    /// `true` if the flag (`"--threads"`) was explicitly given.
    pub fn was_set(&self, flag: &str) -> bool {
        self.set_flags.iter().any(|f| f == flag)
    }

    /// Parses an argument list against `reads`, returning a usage-error
    /// message on malformed input or on a flag outside `reads`.
    pub fn try_parse(
        reads: &[&str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Self, String> {
        let mut cfg = Config::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if !reads.contains(&flag.as_str()) {
                return Err(format!(
                    "unknown flag {flag}; see crates/bench/src/config.rs"
                ));
            }
            match flag.as_str() {
                "--quick" => cfg.quick = true,
                "--list" => cfg.list = true,
                _ => {
                    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
                    cfg.set(&flag, &v).map_err(|e| format!("{flag}: {e}"))?;
                }
            }
            cfg.set_flags.push(flag);
        }
        // Quick mode only shrinks dimensions the user did NOT set
        // explicitly: `--quick --threads 8` runs 8 threads.
        if cfg.quick {
            if !cfg.was_set("--duration-ms") {
                cfg.duration = cfg.duration.min(Duration::from_millis(50));
            }
            if !cfg.was_set("--threads") {
                cfg.threads.truncate(2);
            }
            if !cfg.was_set("--objects") {
                cfg.objects = cfg.objects.iter().map(|&o| o.min(10_000)).collect();
            }
        }
        Ok(cfg)
    }

    /// Applies one valued flag.
    fn set(&mut self, flag: &str, v: &str) -> Result<(), String> {
        match flag {
            "--threads" => self.threads = list(v, |p| positive(p, "a thread count"))?,
            "--duration-ms" => {
                self.duration = Duration::from_millis(number(v, "a whole number of milliseconds")?)
            }
            "--objects" => self.objects = list(v, |p| positive(p, "an object count"))?,
            "--seed" => self.seed = number(v, "an unsigned integer")?,
            "--scenario" => self.scenario = Some(v.to_string()),
            "--backends" => self.backends = list(v, |p| Ok(p.to_lowercase()))?,
            "--policies" => self.policies = list(v, PolicyCfg::parse)?,
            "--mixes" => self.mixes = list(v, OpMix::parse)?,
            "--keys" => self.keys = list(v, parse_dist)?,
            "--prios" => self.prios = list(v, parse_dist)?,
            "--export-histories" => self.export_histories = Some(v.to_string()),
            "--telemetry-interval-ms" => {
                let ms = positive(v, "an interval in milliseconds")?;
                self.telemetry = Some(Duration::from_millis(ms as u64));
            }
            "--faults" => self.faults = Some(FaultPlan::parse(v)?),
            "--clients" => self.clients = list(v, |p| number(p, "a client count"))?,
            "--arrival-shape" => self.arrival_shapes = list(v, ArrivalShape::parse)?,
            _ => return Err("no parser for this flag".into()),
        }
        Ok(())
    }

    /// Scales a step count down in quick mode.
    pub fn steps(&self, full: u64) -> u64 {
        if self.quick {
            (full / 50).max(1_000)
        } else {
            full
        }
    }

    /// `true` if `backend_name` passes the `--backends` filter.
    pub fn backend_selected(&self, backend_name: &str) -> bool {
        if self.backends.is_empty() {
            return true;
        }
        let lower = backend_name.to_lowercase();
        self.backends.iter().any(|f| lower.contains(f))
    }
}

/// Parses a comma-separated value with `item`, skipping empty items;
/// a list with no items is an error.
fn list<T>(v: &str, item: impl Fn(&str) -> Result<T, String>) -> Result<Vec<T>, String> {
    let out = v
        .split(',')
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .map(item)
        .collect::<Result<Vec<T>, String>>()?;
    if out.is_empty() {
        return Err("needs at least one value".into());
    }
    Ok(out)
}

fn number<T: std::str::FromStr>(text: &str, what: &str) -> Result<T, String> {
    text.parse().map_err(|_| format!("'{text}' is not {what}"))
}

fn positive(text: &str, what: &str) -> Result<usize, String> {
    match number(text, what)? {
        0 => Err(format!("{what} must be >= 1")),
        n => Ok(n),
    }
}

/// Parses one `Dist` description: `uniform:N`, `zipf:N:THETA`,
/// `fixed:V`, `monotonic`.
fn parse_dist(tok: &str) -> Result<Dist, String> {
    let num = |what: &str, r: &str| -> Result<u64, String> {
        r.parse::<u64>()
            .map_err(|_| format!("dist '{tok}': '{r}' is not {what}"))
    };
    match tok.split_once(':') {
        None if tok == "monotonic" => Ok(Dist::Monotonic),
        Some(("uniform", r)) => {
            let n = num("a value count", r)?;
            if n == 0 {
                return Err(format!("dist '{tok}': uniform needs n >= 1"));
            }
            Ok(Dist::Uniform { n })
        }
        Some(("fixed", r)) => Ok(Dist::Fixed(num("a value", r)?)),
        Some(("zipf", r)) => {
            let Some((n_text, theta_text)) = r.split_once(':') else {
                return Err(format!("dist '{tok}': zipf needs zipf:N:THETA"));
            };
            let n = num("a value count", n_text)?;
            if n < 2 {
                return Err(format!("dist '{tok}': zipf needs n >= 2"));
            }
            // The sampler panics outside (0, 1); a usage error beats it.
            let theta: f64 = theta_text
                .parse()
                .map_err(|_| format!("dist '{tok}': '{theta_text}' is not a Zipf theta"))?;
            if !(theta > 0.0 && theta < 1.0) {
                return Err(format!(
                    "dist '{tok}': Zipf theta must lie in (0, 1), got {theta}"
                ));
            }
            Ok(Dist::Zipf { n, theta })
        }
        _ => Err(format!(
            "unknown dist '{tok}' (expected uniform:N, zipf:N:THETA, fixed:V or monotonic)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every flag any binary reads.
    const ALL: &[&str] = &[
        "--quick",
        "--seed",
        "--threads",
        "--duration-ms",
        "--objects",
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

    /// The flags this module used to accept as second spellings.
    const DELETED: &[&str] = &["--json", "--sweep", "--zipf", "--telemetry"];

    fn try_parse(args: &[&str]) -> Result<Config, String> {
        Config::try_parse(ALL, args.iter().map(|a| a.to_string()))
    }

    fn parse(args: &[&str]) -> Config {
        try_parse(args).unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!(!c.threads.is_empty());
        assert_eq!(c.threads[0], 1);
        assert!(c.duration >= Duration::from_millis(1));
        assert_eq!(c.objects.len(), 3);
        assert!(!c.list);
        assert!(c.scenario.is_none());
        assert!(c.policies.is_empty());
        assert!(c.mixes.is_empty());
    }

    #[test]
    fn flags_override() {
        let c = parse(&[
            "--threads",
            "1,3,5",
            "--duration-ms",
            "42",
            "--objects",
            "100",
            "--seed",
            "7",
        ]);
        assert_eq!(c.threads, vec![1, 3, 5]);
        assert_eq!(c.duration, Duration::from_millis(42));
        assert_eq!(c.objects, vec![100]);
        assert_eq!(c.seed, 7);
        assert!(c.was_set("--threads"));
        assert!(c.was_set("--duration-ms"));
        assert!(!c.was_set("--nonsense"));
    }

    #[test]
    fn quick_mode_shrinks_unset_dimensions() {
        let c = parse(&["--quick"]);
        assert!(c.quick);
        assert!(c.duration <= Duration::from_millis(50));
        assert!(c.threads.len() <= 2);
        assert_eq!(c.steps(1_000_000), 20_000);
    }

    #[test]
    fn quick_mode_respects_explicit_overrides() {
        // Regression: `--quick --threads 8` used to clamp to 2 threads
        // because the quick shrink ran after the override.
        let c = parse(&["--quick", "--threads", "8"]);
        assert_eq!(
            c.threads,
            vec![8],
            "explicit --threads must survive --quick"
        );
        // Order must not matter either.
        let c = parse(&["--threads", "4,8", "--quick"]);
        assert_eq!(c.threads, vec![4, 8]);
        let c = parse(&["--quick", "--duration-ms", "400"]);
        assert_eq!(c.duration, Duration::from_millis(400));
        let c = parse(&["--quick", "--objects", "500000"]);
        assert_eq!(c.objects, vec![500_000]);
    }

    #[test]
    fn scenario_flags_parse() {
        let c = parse(&[
            "--list",
            "--scenario",
            "queue-balanced",
            "--backends",
            "MultiQueue,coarse",
        ]);
        assert!(c.list);
        assert_eq!(c.scenario.as_deref(), Some("queue-balanced"));
        assert!(c.backend_selected("multiqueue-heap(m=8,strict)"));
        assert!(c.backend_selected("coarse-pq"));
        assert!(!c.backend_selected("stm-exact(slots=65536)"));
    }

    #[test]
    fn sweep_axes_parse() {
        let c = parse(&[
            "--policies",
            "two-choice,sticky=16,d-choice=4",
            "--mixes",
            "50/50/0,90/0/10",
        ]);
        assert_eq!(
            c.policies,
            vec![
                PolicyCfg::TwoChoice,
                PolicyCfg::Sticky { ops: 16 },
                PolicyCfg::DChoice { d: 4 },
            ]
        );
        assert_eq!(c.mixes, vec![OpMix::new(50, 50, 0), OpMix::new(90, 0, 10)]);
        assert!(c.was_set("--policies"));
        assert!(c.was_set("--mixes"));
    }

    #[test]
    fn dist_grammar_parses_compact_forms() {
        let c = parse(&[
            "--keys",
            "uniform:1024,zipf:16384:0.9,fixed:7,monotonic",
            "--prios",
            "zipf:65536:0.99",
        ]);
        assert_eq!(
            c.keys,
            vec![
                Dist::Uniform { n: 1024 },
                Dist::Zipf {
                    n: 16384,
                    theta: 0.9
                },
                Dist::Fixed(7),
                Dist::Monotonic,
            ]
        );
        assert_eq!(
            c.prios,
            vec![Dist::Zipf {
                n: 65536,
                theta: 0.99
            }]
        );
        assert!(c.was_set("--keys") && c.was_set("--prios"));
    }

    #[test]
    fn malformed_dists_are_usage_errors() {
        for bad in [
            "uniform",
            "uniform:0",
            "uniform:x",
            "zipf:0.9",
            "zipf:1.5",
            "zipf:0",
            "zipf:8:2.0",
            "zipf:8:nope",
            "zipf:1:0.9",
            "frob:3",
            "monotonic:4",
        ] {
            let e = try_parse(&["--keys", bad]).expect_err(bad);
            assert!(e.starts_with("--keys: "), "{bad}: {e}");
            assert!(e.contains(bad), "{bad}: {e}");
        }
        let e = try_parse(&["--prios", "zipf:8:1.2"]).unwrap_err();
        assert!(e.contains("(0, 1)"), "{e}");
    }

    #[test]
    fn export_histories_flag_parses() {
        let c = parse(&["--export-histories", "hist/dir"]);
        assert_eq!(c.export_histories.as_deref(), Some("hist/dir"));
        assert!(parse(&[]).export_histories.is_none());
    }

    #[test]
    fn telemetry_flags_parse_and_imply_each_other() {
        assert_eq!(parse(&[]).telemetry, None);
        let c = parse(&["--telemetry-interval-ms", "25"]);
        assert_eq!(c.telemetry, Some(Duration::from_millis(25)));
        assert!(c.was_set("--telemetry-interval-ms"));
        let e = try_parse(&["--telemetry-interval-ms", "0"]).unwrap_err();
        assert!(e.contains(">= 1"), "{e}");
        let e = try_parse(&["--telemetry-interval-ms", "soon"]).unwrap_err();
        assert!(e.contains("soon"), "{e}");
    }

    #[test]
    fn faults_flag_parses_and_rejects_malformed_plans() {
        let c = parse(&[]);
        assert!(c.faults.is_none());
        let c = parse(&["--faults", "panic:1@200;slow:3:5..20"]);
        let plan = c.faults.as_ref().expect("plan");
        assert_eq!(plan.spec(), "panic:1@200;slow:3:5..20");
        assert_eq!(plan.max_worker(), 3);
        assert!(c.was_set("--faults"));
        let e = try_parse(&["--faults", "panic:1"]).unwrap_err();
        assert!(e.contains("--faults"), "{e}");
        let e = try_parse(&["--faults", "explode:2@5"]).unwrap_err();
        assert!(e.contains("explode"), "{e}");
    }

    #[test]
    fn client_flags_parse_and_survive_quick() {
        let c = parse(&[]);
        assert!(c.clients.is_empty());
        assert!(c.arrival_shapes.is_empty());
        // Quick mode must not shrink the client population: the whole
        // point of the frontend is many clients over few workers.
        let c = parse(&[
            "--quick",
            "--clients",
            "100000",
            "--arrival-shape",
            "poisson:50,diurnal:20:200",
        ]);
        assert_eq!(c.clients, vec![100_000]);
        assert_eq!(
            c.arrival_shapes,
            vec![
                ArrivalShape::Poisson { rate: 50.0 },
                ArrivalShape::Diurnal {
                    rate: 20.0,
                    period_ms: 200
                },
            ]
        );
        assert!(c.was_set("--clients") && c.was_set("--arrival-shape"));
        let e = try_parse(&["--clients", "many"]).unwrap_err();
        assert!(e.contains("--clients"), "{e}");
        let e = try_parse(&["--arrival-shape", "warp:9"]).unwrap_err();
        assert!(e.contains("--arrival-shape"), "{e}");
        assert!(e.contains("warp"), "{e}");
    }

    #[test]
    fn empty_backend_filter_selects_all() {
        let c = parse(&[]);
        assert!(c.backend_selected("anything"));
    }

    #[test]
    fn malformed_values_are_usage_errors_not_panics() {
        // Regression: `--duration-ms abc` used to panic with a raw
        // `expect("ms")`.
        let e = try_parse(&["--duration-ms", "abc"]).unwrap_err();
        assert!(e.contains("--duration-ms"), "{e}");
        assert!(e.contains("abc"), "{e}");
        let e = try_parse(&["--seed", "xyz"]).unwrap_err();
        assert!(e.contains("--seed"), "{e}");
        let e = try_parse(&["--threads", "1,two"]).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        // Zero workers or zero TL2 slots would panic mid-run.
        for flag in ["--threads", "--objects"] {
            let e = try_parse(&[flag, "0"]).unwrap_err();
            assert!(e.starts_with(flag) && e.contains(">= 1"), "{e}");
        }
        let e = try_parse(&["--policies", "frobnicate"]).unwrap_err();
        assert!(e.contains("frobnicate"), "{e}");
        let e = try_parse(&["--mixes", "50/50"]).unwrap_err();
        assert!(e.contains("50/50"), "{e}");
        let e = try_parse(&["--backends", ","]).unwrap_err();
        assert_eq!(e, "--backends: needs at least one value");
    }

    #[test]
    fn trailing_flags_are_usage_errors_not_panics() {
        // Regression: a trailing `--threads` used to panic with
        // `expect("--threads needs a value")`.
        for &flag in ALL {
            if flag == "--quick" || flag == "--list" {
                continue;
            }
            let e = try_parse(&[flag]).unwrap_err();
            assert_eq!(e, format!("{flag} needs a value"));
        }
        // The deleted second spellings are unknown flags, trailing or not.
        for &flag in DELETED {
            for args in [&[flag][..], &[flag, "out.json"]] {
                let e = try_parse(args).unwrap_err();
                assert_eq!(
                    e,
                    format!("unknown flag {flag}; see crates/bench/src/config.rs")
                );
            }
        }
    }

    #[test]
    fn a_flag_outside_the_binary_set_is_unknown() {
        let reads = &["--seed", "--quick"];
        let args = ["--quick", "--seed", "3"].map(String::from);
        let c = Config::try_parse(reads, args).expect("both read");
        assert_eq!(c.seed, 3);
        for flag in ALL.iter().filter(|f| !reads.contains(f)) {
            let e = Config::try_parse(reads, [flag.to_string(), "1".into()]).unwrap_err();
            assert_eq!(
                e,
                format!("unknown flag {flag}; see crates/bench/src/config.rs")
            );
        }
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = parse(&["--bogus"]);
    }

    #[test]
    fn the_removed_substrate_axis_is_an_unknown_flag() {
        for flag in ["--substrates", "--substrate"] {
            let e = try_parse(&[flag, "lockfree"]).unwrap_err();
            assert_eq!(
                e,
                format!("unknown flag {flag}; see crates/bench/src/config.rs")
            );
        }
    }
}
