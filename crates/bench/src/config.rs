//! Minimal CLI configuration shared by the figure binaries and the
//! scenario runner.
//!
//! No external argument parser: the binaries take a handful of
//! `--key value` pairs, so `cargo run` with no arguments always
//! produces a sensible laptop-scale run. Flags are the only input.
//!
//! | flag | meaning |
//! |---|---|
//! | `--threads 1,2,4` | thread counts to sweep |
//! | `--duration-ms 300` | per-point duration |
//! | `--objects N` | TL2 array size(s) |
//! | `--quick` | shrink everything *not explicitly set* for CI smoke |
//! | `--seed S` | base RNG seed |
//! | `--list` | `scenarios`: list the catalog and exit |
//! | `--scenario NAME` | `scenarios`: run one named scenario |
//! | `--backends a,b` | `scenarios`: substring filter on backends |
//! | `--json FILE` | `scenarios`: also write the JSON to FILE |
//! | `--sweep` | `scenarios`: expand the full sweep grid |
//! | `--policies a,b` | choice-policy axis (`two-choice,sticky=16,...`) |
//! | `--mixes a,b` | op-mix axis (`50/50/0,90/0/10,...`) |
//! | `--keys a,b` | key-distribution axis (`uniform:1024,zipf:16384:0.9,...`) |
//! | `--prios a,b` | priority-distribution axis (same grammar) |
//! | `--zipf 0.6,0.9` | skew shorthand: a Zipf axis over the listed thetas |
//! | `--export-histories DIR` | `scenarios`: serialize each history run's artifact under DIR |
//! | `--telemetry` | `scenarios`: per-interval snapshots in each report (100ms default) |
//! | `--telemetry-interval-ms N` | snapshot interval; implies `--telemetry` |
//! | `--faults SPEC` | `scenarios`: inject a fault plan (`panic:1@200;slow:3:5..20`) |
//! | `--clients N[,M]` | simulated-client population axis (`0` = plain per-worker driver) |
//! | `--arrival-shape a,b` | per-client arrival shapes (`poisson:50,diurnal:20:200,...`) |
//!
//! The `Dist` grammar for `--keys`/`--prios`: `uniform:N`, `zipf:N:THETA`
//! (or `zipf:THETA` with the default 65536-key space), `fixed:V`,
//! `monotonic`.
//!
//! Malformed flags are **usage errors**: [`Config::from_args`] prints
//! the message to stderr and exits with status 2 (it never panics);
//! [`Config::try_parse`] returns the error for tests and embedders.

use std::time::Duration;

use dlz_core::PolicyCfg;
use dlz_workload::{ArrivalShape, Dist, FaultPlan, OpMix};

/// Default key space for `--zipf` and `zipf:THETA` shorthands.
pub const DEFAULT_DIST_N: u64 = 1 << 16;

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
    /// `scenarios`: also write the JSON report array to this file.
    pub json: Option<String>,
    /// `scenarios`: expand the full sweep grid (threads × policies ×
    /// mixes) instead of a single point per scenario.
    pub sweep: bool,
    /// Choice-policy axis values (`--policies two-choice,sticky=16`).
    pub policies: Vec<PolicyCfg>,
    /// Op-mix axis values (`--mixes 50/50/0,90/0/10`).
    pub mixes: Vec<OpMix>,
    /// Key-distribution axis values (`--keys uniform:1024,zipf:16384:0.9`).
    pub keys: Vec<Dist>,
    /// Priority-distribution axis values (`--prios monotonic,zipf:0.9`).
    pub prios: Vec<Dist>,
    /// Zipf-skew shorthand (`--zipf 0.6,0.9,0.99`): a Zipf axis over
    /// the listed thetas with the default key space, applied to the
    /// family's natural skew dimension (priorities for queue scenarios,
    /// keys otherwise). Mutually exclusive with `--keys`/`--prios`.
    pub zipf: Vec<f64>,
    /// `scenarios`: directory to serialize history artifacts into.
    pub export_histories: Option<String>,
    /// `scenarios`: the time-resolved telemetry snapshot interval
    /// (interval snapshots in every report's `telemetry` object); `None`
    /// when off. `--telemetry` sets 100 ms, `--telemetry-interval-ms N`
    /// sets N ms.
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
    /// Names of flags explicitly set (so binaries can distinguish
    /// "defaulted" from "requested").
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
            json: None,
            sweep: false,
            policies: Vec::new(),
            mixes: Vec::new(),
            keys: Vec::new(),
            prios: Vec::new(),
            zipf: Vec::new(),
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
    /// Parses `std::env::args`. A malformed flag is a usage error: the
    /// message goes to stderr and the process exits with status 2.
    pub fn from_args() -> Self {
        match Self::try_parse(std::env::args().skip(1).collect()) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("error: {e}");
                eprintln!("see crates/bench/src/config.rs for the flag table");
                std::process::exit(2);
            }
        }
    }

    /// `true` if the flag was explicitly set.
    pub fn was_set(&self, flag: &str) -> bool {
        self.set_flags.iter().any(|f| f == flag)
    }

    /// Parses an explicit argument vector, panicking on malformed input
    /// (tests and embedders that want the old behaviour; binaries use
    /// [`Config::from_args`], which exits 2 instead).
    pub fn parse(args: Vec<String>) -> Self {
        Self::try_parse(args).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Parses an explicit argument vector, returning a usage-error
    /// message on malformed input.
    pub fn try_parse(args: Vec<String>) -> Result<Self, String> {
        let mut cfg = Config::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--threads" => {
                    let v = need(&mut it, "--threads")?;
                    cfg.threads = parse_list(&v, "--threads", "a thread count")?;
                    if cfg.threads.contains(&0) {
                        return Err("--threads values must be >= 1".into());
                    }
                    cfg.set_flags.push("threads".into());
                }
                "--duration-ms" => {
                    let v = need(&mut it, "--duration-ms")?;
                    let ms: u64 = v.parse().map_err(|_| {
                        format!("--duration-ms expects a whole number of milliseconds, got '{v}'")
                    })?;
                    cfg.duration = Duration::from_millis(ms);
                    cfg.set_flags.push("duration-ms".into());
                }
                "--objects" => {
                    let v = need(&mut it, "--objects")?;
                    cfg.objects = parse_list(&v, "--objects", "an object count")?;
                    cfg.set_flags.push("objects".into());
                }
                "--seed" => {
                    let v = need(&mut it, "--seed")?;
                    cfg.seed = v
                        .parse()
                        .map_err(|_| format!("--seed expects an unsigned integer, got '{v}'"))?;
                    cfg.set_flags.push("seed".into());
                }
                "--quick" => cfg.quick = true,
                "--sweep" => cfg.sweep = true,
                "--list" => cfg.list = true,
                "--scenario" => {
                    let v = need(&mut it, "--scenario")?;
                    cfg.scenario = Some(v);
                }
                "--backends" => {
                    let v = need(&mut it, "--backends")?;
                    cfg.backends = v
                        .split(',')
                        .filter(|p| !p.is_empty())
                        .map(|p| p.trim().to_lowercase())
                        .collect();
                }
                "--policies" => {
                    let v = need(&mut it, "--policies")?;
                    cfg.policies = parse_policies(&v)?;
                    cfg.set_flags.push("policies".into());
                }
                "--mixes" => {
                    let v = need(&mut it, "--mixes")?;
                    cfg.mixes = parse_mixes(&v)?;
                    cfg.set_flags.push("mixes".into());
                }
                "--keys" => {
                    let v = need(&mut it, "--keys")?;
                    cfg.keys = parse_dists(&v, "--keys")?;
                    cfg.set_flags.push("keys".into());
                }
                "--prios" => {
                    let v = need(&mut it, "--prios")?;
                    cfg.prios = parse_dists(&v, "--prios")?;
                    cfg.set_flags.push("prios".into());
                }
                "--zipf" => {
                    let v = need(&mut it, "--zipf")?;
                    cfg.zipf = parse_thetas(&v)?;
                    cfg.set_flags.push("zipf".into());
                }
                "--export-histories" => {
                    let v = need(&mut it, "--export-histories")?;
                    cfg.export_histories = Some(v);
                }
                "--faults" => {
                    let v = need(&mut it, "--faults")?;
                    cfg.faults = Some(FaultPlan::parse(&v).map_err(|e| format!("--faults: {e}"))?);
                    cfg.set_flags.push("faults".into());
                }
                "--clients" => {
                    let v = need(&mut it, "--clients")?;
                    cfg.clients = parse_list(&v, "--clients", "a client count")?;
                    cfg.set_flags.push("clients".into());
                }
                "--arrival-shape" => {
                    let v = need(&mut it, "--arrival-shape")?;
                    cfg.arrival_shapes = parse_shapes(&v)?;
                    cfg.set_flags.push("arrival-shape".into());
                }
                "--telemetry" => {
                    cfg.telemetry.get_or_insert(Duration::from_millis(100));
                }
                "--telemetry-interval-ms" => {
                    let v = need(&mut it, "--telemetry-interval-ms")?;
                    let ms: u64 = v.parse().map_err(|_| {
                        format!(
                            "--telemetry-interval-ms expects a whole number of milliseconds, got '{v}'"
                        )
                    })?;
                    if ms == 0 {
                        return Err("--telemetry-interval-ms must be >= 1".into());
                    }
                    cfg.telemetry = Some(Duration::from_millis(ms));
                    cfg.set_flags.push("telemetry-interval-ms".into());
                }
                "--json" => {
                    let v = need(&mut it, "--json")?;
                    cfg.json = Some(v);
                }
                other => {
                    return Err(format!(
                        "unknown flag {other}; see crates/bench/src/config.rs"
                    ))
                }
            }
        }
        if !cfg.zipf.is_empty() && (!cfg.keys.is_empty() || !cfg.prios.is_empty()) {
            return Err(
                "--zipf is shorthand for a Zipf --keys/--prios axis; pass one or the other".into(),
            );
        }
        // Quick mode only shrinks dimensions the user did NOT set
        // explicitly: `--quick --threads 8` runs 8 threads.
        if cfg.quick {
            if !cfg.was_set("duration-ms") {
                cfg.duration = cfg.duration.min(Duration::from_millis(50));
            }
            if !cfg.was_set("threads") {
                cfg.threads.truncate(2);
            }
            if !cfg.was_set("objects") {
                cfg.objects = cfg.objects.iter().map(|&o| o.min(10_000)).collect();
            }
        }
        Ok(cfg)
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

/// The next argument, or a usage error naming the flag that needed it.
fn need(it: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    it.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_list<T: std::str::FromStr>(s: &str, flag: &str, what: &str) -> Result<Vec<T>, String> {
    let out: Result<Vec<T>, String> = s
        .split(',')
        .filter(|p| !p.is_empty())
        .map(|p| {
            p.trim()
                .parse()
                .map_err(|_| format!("{flag}: '{p}' is not {what}"))
        })
        .collect();
    let out = out?;
    if out.is_empty() {
        return Err(format!("{flag} needs at least one value"));
    }
    Ok(out)
}

/// Parses a comma-separated choice-policy list
/// (`two-choice,sticky=16,d-choice=4`).
fn parse_policies(s: &str) -> Result<Vec<PolicyCfg>, String> {
    let out: Result<Vec<PolicyCfg>, String> = s
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(PolicyCfg::parse)
        .collect();
    let out = out?;
    if out.is_empty() {
        return Err("--policies needs at least one policy".into());
    }
    Ok(out)
}

/// Parses one `Dist` description: `uniform:N`, `zipf:N:THETA`,
/// `zipf:THETA` (default 65536-value space), `fixed:V`, `monotonic`.
pub fn parse_dist(tok: &str) -> Result<Dist, String> {
    let t = tok.trim().to_lowercase();
    let (name, rest) = match t.split_once(':') {
        Some((n, r)) => (n, Some(r)),
        None => (t.as_str(), None),
    };
    let num = |what: &str, r: &str| -> Result<u64, String> {
        r.parse::<u64>()
            .map_err(|_| format!("dist '{tok}': '{r}' is not {what}"))
    };
    match (name, rest) {
        ("monotonic" | "mono", None) => Ok(Dist::Monotonic),
        ("monotonic" | "mono", Some(_)) => Err(format!("dist '{tok}': monotonic takes no parameter")),
        ("uniform" | "u", Some(r)) => {
            let n = num("a value count", r)?;
            if n == 0 {
                return Err(format!("dist '{tok}': uniform needs n >= 1"));
            }
            Ok(Dist::Uniform { n })
        }
        ("fixed" | "f", Some(r)) => Ok(Dist::Fixed(num("a value", r)?)),
        ("zipf" | "z", Some(r)) => {
            let (n, theta_text) = match r.split_once(':') {
                Some((n_text, theta)) => (num("a value count", n_text)?, theta),
                None => (DEFAULT_DIST_N, r),
            };
            if n < 2 {
                return Err(format!("dist '{tok}': zipf needs n >= 2"));
            }
            let theta = parse_theta(tok, theta_text)?;
            Ok(Dist::Zipf { n, theta })
        }
        ("uniform" | "u" | "fixed" | "f" | "zipf" | "z", None) => {
            Err(format!("dist '{tok}' needs a parameter (e.g. uniform:1024)"))
        }
        _ => Err(format!(
            "unknown dist '{tok}' (expected uniform:N, zipf:N:THETA, zipf:THETA, fixed:V or monotonic)"
        )),
    }
}

/// A Zipf skew exponent; must lie in (0, 1) — the sampler would panic
/// on anything else, and a usage error beats a panic.
fn parse_theta(ctx: &str, text: &str) -> Result<f64, String> {
    let theta: f64 = text
        .trim()
        .parse()
        .map_err(|_| format!("'{ctx}': '{text}' is not a Zipf theta"))?;
    if theta > 0.0 && theta < 1.0 {
        Ok(theta)
    } else {
        Err(format!(
            "'{ctx}': Zipf theta must lie in (0, 1), got {theta}"
        ))
    }
}

/// Parses a comma-separated `Dist` list (`uniform:1024,zipf:16384:0.9`).
fn parse_dists(s: &str, flag: &str) -> Result<Vec<Dist>, String> {
    let out: Result<Vec<Dist>, String> = s
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(parse_dist)
        .collect();
    let out = out?;
    if out.is_empty() {
        return Err(format!("{flag} needs at least one distribution"));
    }
    Ok(out)
}

/// Parses the `--zipf` theta list (`0.6,0.9,0.99`).
fn parse_thetas(s: &str) -> Result<Vec<f64>, String> {
    let out: Result<Vec<f64>, String> = s
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| parse_theta("--zipf", p))
        .collect();
    let out = out?;
    if out.is_empty() {
        return Err("--zipf needs at least one theta".into());
    }
    Ok(out)
}

/// Parses a comma-separated arrival-shape list
/// (`poisson:50,periodic:100,bursty:320:64,diurnal:20:200,flash:5:20:50:50`).
fn parse_shapes(s: &str) -> Result<Vec<ArrivalShape>, String> {
    let out: Result<Vec<ArrivalShape>, String> = s
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| ArrivalShape::parse(p).map_err(|e| format!("--arrival-shape: {e}")))
        .collect();
    let out = out?;
    if out.is_empty() {
        return Err("--arrival-shape needs at least one shape".into());
    }
    Ok(out)
}

/// Parses a comma-separated op-mix list (`50/50/0,90/0/10`).
fn parse_mixes(s: &str) -> Result<Vec<OpMix>, String> {
    let out: Result<Vec<OpMix>, String> = s
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(OpMix::parse)
        .collect();
    let out = out?;
    if out.is_empty() {
        return Err("--mixes needs at least one mix".into());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let c = Config::default();
        assert!(!c.threads.is_empty());
        assert_eq!(c.threads[0], 1);
        assert!(c.duration >= Duration::from_millis(1));
        assert_eq!(c.objects.len(), 3);
        assert!(!c.list);
        assert!(!c.sweep);
        assert!(c.scenario.is_none());
        assert!(c.policies.is_empty());
        assert!(c.mixes.is_empty());
    }

    #[test]
    fn flags_override() {
        let c = Config::parse(vec![
            "--threads".into(),
            "1,3,5".into(),
            "--duration-ms".into(),
            "42".into(),
            "--objects".into(),
            "100".into(),
            "--seed".into(),
            "7".into(),
        ]);
        assert_eq!(c.threads, vec![1, 3, 5]);
        assert_eq!(c.duration, Duration::from_millis(42));
        assert_eq!(c.objects, vec![100]);
        assert_eq!(c.seed, 7);
        assert!(c.was_set("threads"));
        assert!(c.was_set("duration-ms"));
        assert!(!c.was_set("nonsense"));
    }

    #[test]
    fn quick_mode_shrinks_unset_dimensions() {
        let c = Config::parse(vec!["--quick".into()]);
        assert!(c.quick);
        assert!(c.duration <= Duration::from_millis(50));
        assert!(c.threads.len() <= 2);
        assert_eq!(c.steps(1_000_000), 20_000);
    }

    #[test]
    fn quick_mode_respects_explicit_overrides() {
        // Regression: `--quick --threads 8` used to clamp to 2 threads
        // because the quick shrink ran after the override.
        let c = Config::parse(vec!["--quick".into(), "--threads".into(), "8".into()]);
        assert_eq!(
            c.threads,
            vec![8],
            "explicit --threads must survive --quick"
        );
        // Order must not matter either.
        let c = Config::parse(vec!["--threads".into(), "4,8".into(), "--quick".into()]);
        assert_eq!(c.threads, vec![4, 8]);
        let c = Config::parse(vec!["--quick".into(), "--duration-ms".into(), "400".into()]);
        assert_eq!(c.duration, Duration::from_millis(400));
        let c = Config::parse(vec!["--quick".into(), "--objects".into(), "500000".into()]);
        assert_eq!(c.objects, vec![500_000]);
    }

    #[test]
    fn scenario_flags_parse() {
        let c = Config::parse(vec![
            "--list".into(),
            "--scenario".into(),
            "queue-balanced".into(),
            "--backends".into(),
            "MultiQueue,coarse".into(),
            "--json".into(),
            "out.json".into(),
        ]);
        assert!(c.list);
        assert_eq!(c.scenario.as_deref(), Some("queue-balanced"));
        assert_eq!(c.json.as_deref(), Some("out.json"));
        assert!(c.backend_selected("multiqueue-heap(m=8,strict)"));
        assert!(c.backend_selected("coarse-pq"));
        assert!(!c.backend_selected("stm-exact(slots=65536)"));
    }

    #[test]
    fn sweep_axes_parse() {
        let c = Config::parse(vec![
            "--sweep".into(),
            "--policies".into(),
            "two-choice,sticky=16,d-choice=4".into(),
            "--mixes".into(),
            "50/50/0,90/0/10".into(),
        ]);
        assert!(c.sweep);
        assert_eq!(
            c.policies,
            vec![
                PolicyCfg::TwoChoice,
                PolicyCfg::Sticky { ops: 16 },
                PolicyCfg::DChoice { d: 4 },
            ]
        );
        assert_eq!(c.mixes, vec![OpMix::new(50, 50, 0), OpMix::new(90, 0, 10)]);
        assert!(c.was_set("policies"));
        assert!(c.was_set("mixes"));
    }

    #[test]
    fn dist_grammar_parses_compact_forms() {
        let c = Config::parse(vec![
            "--keys".into(),
            "uniform:1024,zipf:16384:0.9,fixed:7,monotonic".into(),
            "--prios".into(),
            "zipf:0.99".into(),
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
                n: DEFAULT_DIST_N,
                theta: 0.99
            }]
        );
        assert!(c.was_set("keys") && c.was_set("prios"));
    }

    #[test]
    fn zipf_shorthand_and_exclusivity() {
        let c = Config::parse(vec!["--zipf".into(), "0.6,0.9,0.99".into()]);
        assert_eq!(c.zipf, vec![0.6, 0.9, 0.99]);
        let e = Config::try_parse(vec![
            "--zipf".into(),
            "0.9".into(),
            "--keys".into(),
            "uniform:8".into(),
        ])
        .unwrap_err();
        assert!(e.contains("--zipf"), "{e}");
    }

    #[test]
    fn malformed_dists_are_usage_errors() {
        for bad in [
            "uniform",
            "uniform:0",
            "uniform:x",
            "zipf:1.5",
            "zipf:0",
            "zipf:8:2.0",
            "zipf:1:0.9",
            "frob:3",
            "monotonic:4",
        ] {
            let e = Config::try_parse(vec!["--keys".into(), bad.into()]).expect_err(bad);
            assert!(e.contains(bad.split(':').next().unwrap()), "{bad}: {e}");
        }
        let e = Config::try_parse(vec!["--zipf".into(), "0.9,nope".into()]).unwrap_err();
        assert!(e.contains("nope"), "{e}");
        let e = Config::try_parse(vec!["--zipf".into(), "1.2".into()]).unwrap_err();
        assert!(e.contains("(0, 1)"), "{e}");
    }

    #[test]
    fn export_histories_flag_parses() {
        let c = Config::parse(vec!["--export-histories".into(), "hist/dir".into()]);
        assert_eq!(c.export_histories.as_deref(), Some("hist/dir"));
        assert!(Config::parse(vec![]).export_histories.is_none());
    }

    #[test]
    fn telemetry_flags_parse_and_imply_each_other() {
        assert_eq!(Config::parse(vec![]).telemetry, None);
        let c = Config::parse(vec!["--telemetry".into()]);
        assert_eq!(c.telemetry, Some(Duration::from_millis(100)));
        // Setting the interval implies enabling telemetry, and a
        // `--telemetry` in either order keeps the explicit interval.
        let c = Config::parse(vec!["--telemetry-interval-ms".into(), "25".into()]);
        assert_eq!(c.telemetry, Some(Duration::from_millis(25)));
        assert!(c.was_set("telemetry-interval-ms"));
        for args in [
            ["--telemetry", "--telemetry-interval-ms", "25"],
            ["--telemetry-interval-ms", "25", "--telemetry"],
        ] {
            let c = Config::parse(args.iter().map(|a| a.to_string()).collect());
            assert_eq!(c.telemetry, Some(Duration::from_millis(25)), "{args:?}");
        }
        let e = Config::try_parse(vec!["--telemetry-interval-ms".into(), "0".into()]).unwrap_err();
        assert!(e.contains(">= 1"), "{e}");
        let e =
            Config::try_parse(vec!["--telemetry-interval-ms".into(), "soon".into()]).unwrap_err();
        assert!(e.contains("soon"), "{e}");
    }

    #[test]
    fn faults_flag_parses_and_rejects_malformed_plans() {
        let c = Config::parse(vec![]);
        assert!(c.faults.is_none());
        let c = Config::parse(vec!["--faults".into(), "panic:1@200;slow:3:5..20".into()]);
        let plan = c.faults.as_ref().expect("plan");
        assert_eq!(plan.spec(), "panic:1@200;slow:3:5..20");
        assert_eq!(plan.max_worker(), 3);
        assert!(c.was_set("faults"));
        let e = Config::try_parse(vec!["--faults".into(), "panic:1".into()]).unwrap_err();
        assert!(e.contains("--faults"), "{e}");
        let e = Config::try_parse(vec!["--faults".into(), "explode:2@5".into()]).unwrap_err();
        assert!(e.contains("explode"), "{e}");
    }

    #[test]
    fn client_flags_parse_and_survive_quick() {
        let c = Config::parse(vec![]);
        assert!(c.clients.is_empty());
        assert!(c.arrival_shapes.is_empty());
        // Quick mode must not shrink the client population: the whole
        // point of the frontend is many clients over few workers.
        let c = Config::parse(vec![
            "--quick".into(),
            "--clients".into(),
            "100000".into(),
            "--arrival-shape".into(),
            "poisson:50,diurnal:20:200".into(),
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
        assert!(c.was_set("clients") && c.was_set("arrival-shape"));
        let e = Config::try_parse(vec!["--clients".into(), "many".into()]).unwrap_err();
        assert!(e.contains("--clients"), "{e}");
        let e = Config::try_parse(vec!["--arrival-shape".into(), "warp:9".into()]).unwrap_err();
        assert!(e.contains("--arrival-shape"), "{e}");
        assert!(e.contains("warp"), "{e}");
    }

    #[test]
    fn empty_backend_filter_selects_all() {
        let c = Config::parse(vec![]);
        assert!(c.backend_selected("anything"));
    }

    #[test]
    fn malformed_values_are_usage_errors_not_panics() {
        // Regression: `--duration-ms abc` used to panic with a raw
        // `expect("ms")`.
        let e = Config::try_parse(vec!["--duration-ms".into(), "abc".into()]).unwrap_err();
        assert!(e.contains("--duration-ms"), "{e}");
        assert!(e.contains("abc"), "{e}");
        let e = Config::try_parse(vec!["--seed".into(), "xyz".into()]).unwrap_err();
        assert!(e.contains("--seed"), "{e}");
        let e = Config::try_parse(vec!["--threads".into(), "1,two".into()]).unwrap_err();
        assert!(e.contains("--threads"), "{e}");
        let e = Config::try_parse(vec!["--threads".into(), "0".into()]).unwrap_err();
        assert!(e.contains(">= 1"), "{e}");
        let e = Config::try_parse(vec!["--policies".into(), "frobnicate".into()]).unwrap_err();
        assert!(e.contains("frobnicate"), "{e}");
        let e = Config::try_parse(vec!["--mixes".into(), "50/50".into()]).unwrap_err();
        assert!(e.contains("50/50"), "{e}");
    }

    #[test]
    fn trailing_flags_are_usage_errors_not_panics() {
        // Regression: a trailing `--threads` used to panic with
        // `expect("--threads needs a value")`.
        for flag in [
            "--threads",
            "--duration-ms",
            "--objects",
            "--seed",
            "--scenario",
            "--backends",
            "--policies",
            "--mixes",
            "--keys",
            "--prios",
            "--zipf",
            "--export-histories",
            "--telemetry-interval-ms",
            "--faults",
            "--clients",
            "--arrival-shape",
            "--json",
        ] {
            let e = Config::try_parse(vec![flag.into()]).unwrap_err();
            assert_eq!(e, format!("{flag} needs a value"));
        }
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        let _ = Config::parse(vec!["--bogus".into()]);
    }

    #[test]
    fn the_removed_substrate_axis_is_an_unknown_flag() {
        for flag in ["--substrates", "--substrate"] {
            let e = Config::try_parse(vec![flag.into(), "lockfree".into()]).unwrap_err();
            assert_eq!(
                e,
                format!("unknown flag {flag}; see crates/bench/src/config.rs")
            );
        }
    }
}
