//! `dlz-benchmark` — the repo's one benchmark. See
//! `crates/benchmark/README.md` and the root `BENCHMARK.json`.

mod host;
mod ladder;
mod measure;
mod metrics;
mod placement;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use dlz_core::json::{self, JsonObject, JsonValue};

use host::Host;
use measure::Plan;
use metrics::{MetricDef, Outcome, END_TO_END, PER_LAYER};
use workloads::{Workload, WORKLOADS};

const USAGE: &str = "usage: dlz-benchmark (--workload NAME | --all) [--seed N] [--seconds S] \
                     [--samples K] [--trace [0|1]] [--aa] [--quick]";

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Cli {
    workload: Option<String>,
    all: bool,
    seed: u64,
    seconds: f64,
    samples: usize,
    trace: bool,
    aa: bool,
    quick: bool,
}

impl Cli {
    fn parse(args: &[String]) -> Result<Cli, String> {
        let mut cli = Cli {
            workload: None,
            all: false,
            seed: 42,
            seconds: 10.0,
            samples: 9,
            trace: false,
            aa: false,
            quick: false,
        };
        let mut it = args.iter().peekable();
        fn value<'a>(
            flag: &str,
            it: &mut impl Iterator<Item = &'a String>,
        ) -> Result<&'a String, String> {
            it.next().ok_or_else(|| format!("{flag} needs a value"))
        }
        while let Some(a) = it.next() {
            match a.as_str() {
                "--workload" => cli.workload = Some(value(a, &mut it)?.clone()),
                "--all" => cli.all = true,
                "--aa" => cli.aa = true,
                "--quick" => cli.quick = true,
                "--seed" => {
                    cli.seed = value(a, &mut it)?
                        .parse()
                        .map_err(|_| "--seed needs an unsigned integer".to_string())?
                }
                "--seconds" => {
                    cli.seconds = value(a, &mut it)?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or("--seconds needs a number in (0, 600]")?
                }
                "--samples" => {
                    cli.samples = value(a, &mut it)?
                        .parse()
                        .ok()
                        .filter(|k| (1..=99).contains(k))
                        .ok_or("--samples needs an integer in 1..=99")?
                }
                // Bare `--trace` means `--trace 1`.
                "--trace" => {
                    cli.trace = match it.peek().map(|s| s.as_str()) {
                        Some("0") => {
                            it.next();
                            false
                        }
                        Some("1") => {
                            it.next();
                            true
                        }
                        _ => true,
                    }
                }
                other => return Err(format!("unknown argument '{other}'")),
            }
        }
        match (&cli.workload, cli.all || cli.aa) {
            (Some(_), true) => Err("--workload excludes --all and --aa".into()),
            (None, false) => Err("name a workload with --workload, or pass --all".into()),
            (Some(name), false) if workloads::find(name).is_none() => Err(format!(
                "unknown workload '{name}'; known: {}",
                WORKLOADS.map(|w| w.name).join(", ")
            )),
            _ => Ok(cli),
        }
    }

    fn plan(&self) -> Plan {
        if self.quick {
            Plan::quick(self.seed)
        } else {
            Plan::new(self.seed, self.seconds, self.samples)
        }
    }
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Where the span file of `workload` goes: under cargo's target
/// directory, which every checkout already ignores.
fn trace_path(workload: &str) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    PathBuf::from(target)
        .join("benchmark")
        .join(format!("{workload}.trace.jsonl"))
}

/// Runs one workload in this process; a traced run also returns its
/// spans.
fn run_one(w: &Workload, cli: &Cli) -> (Outcome, &'static [MetricDef], Vec<trace::Span>) {
    let plan = cli.plan();
    let w = if cli.quick { w.shrunk() } else { *w };
    eprintln!(
        "{} ({}): {} workers, seed {}",
        w.name,
        if cli.trace { "traced" } else { "end to end" },
        workloads::WORKERS,
        plan.seed
    );
    let (mut out, defs, spans) = if cli.trace {
        let rec = trace::Recorder::new();
        let (out, spans) = ladder::Ladder::run_all(&rec, &w, &plan);
        (out, &PER_LAYER[..], spans)
    } else {
        (measure::end_to_end(&w, &plan), &END_TO_END[..], Vec::new())
    };
    check_names(&mut out, defs);
    (out, defs, spans)
}

/// Checks that `out` printed exactly the declared metric names.
fn check_names(out: &mut Outcome, defs: &[MetricDef]) {
    for d in defs {
        if out.get(d.name).is_none() {
            out.errors
                .push(format!("metric {} was not measured", d.name));
        }
    }
    for m in &out.metrics {
        if !defs.iter().any(|d| d.name == m.name) {
            out.errors
                .push(format!("metric {} is not declared", m.name));
        }
    }
}

/// One child run of `--all`/`--aa`: the detailed result object.
fn spawn(w: &Workload, cli: &Cli, trace: bool) -> Result<(String, JsonValue), String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name, "--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--samples", &cli.samples.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.quick {
        cmd.arg("--quick");
    }
    let output = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: cannot run: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    // The child prints the detailed object first, the contract object
    // last; a failed gate exits non-zero but still prints both.
    let detail = stdout
        .lines()
        .find(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{}: no result (exit {})", w.name, output.status))?;
    let parsed = json::parse(detail).map_err(|e| format!("{}: bad result: {e}", w.name))?;
    Ok((detail.to_string(), parsed))
}

fn metric_value(detail: &JsonValue, name: &str) -> Option<f64> {
    detail.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn is_correct(detail: &JsonValue) -> bool {
    detail.get("correct").and_then(JsonValue::as_bool) == Some(true)
}

/// `--all`: every workload in a process of its own, so peak memory and
/// allocator state are per workload.
fn run_all(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut rows = Vec::new();
    for w in &WORKLOADS {
        let passes: &[bool] = if cli.trace { &[false, true] } else { &[false] };
        for &trace in passes {
            match spawn(w, cli, trace) {
                Ok((line, d)) => {
                    ok &= is_correct(&d);
                    rows.push(line);
                }
                Err(e) => {
                    eprintln!("FAILED: {e}");
                    ok = false;
                }
            }
        }
    }
    for line in &rows {
        println!("{line}");
    }
    let mut o = JsonObject::new();
    o.bool("correct", ok)
        .u64("runs", rows.len() as u64)
        .raw("host", &Host::read().to_json());
    println!("{}", o.finish());
    exit_code(ok)
}

/// `--aa`: the whole set twice, A/B interleaved per workload; the gaps
/// between two runs of the same code are the noise floor.
fn run_aa(cli: &Cli) -> ExitCode {
    let mut ok = true;
    let mut floor = Vec::new();
    eprintln!(
        "{:<18} {:<18} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "A", "B", "gap", "bound"
    );
    for w in &WORKLOADS {
        let (a, b) = match (spawn(w, cli, false), spawn(w, cli, false)) {
            (Ok((_, a)), Ok((_, b))) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("FAILED: {e}");
                ok = false;
                continue;
            }
        };
        ok &= is_correct(&a) && is_correct(&b);
        let mut gaps = JsonObject::new();
        for d in &END_TO_END {
            let (Some(va), Some(vb)) = (metric_value(&a, d.name), metric_value(&b, d.name)) else {
                eprintln!("FAILED: {}: {} missing", w.name, d.name);
                ok = false;
                continue;
            };
            let gap = stats::worsening(va, vb, d.better == metrics::Better::Lower).abs();
            let bound = d.bound.expect("end-to-end metrics carry a bound");
            let within = gap <= bound;
            ok &= within;
            eprintln!(
                "{:<18} {:<18} {:>12.4} {:>12.4} {:>7.2}% {:>6.0}%{}",
                w.name,
                d.name,
                va,
                vb,
                gap * 100.0,
                bound * 100.0,
                if within { "" } else { "  EXCEEDED" }
            );
            gaps.f64(d.name, gap);
        }
        let mut row = JsonObject::new();
        row.str("workload", w.name).raw("gap", &gaps.finish());
        floor.push(row.finish());
    }
    let mut o = JsonObject::new();
    o.bool("correct", ok)
        .raw("noise_floor", &json::array(&floor))
        .raw("host", &Host::read().to_json());
    println!("{}", o.finish());
    exit_code(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match Cli::parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = Host::read();
    if !host.fits_workers() && !cli.quick {
        eprintln!(
            "{} cores for {} workers: numbers from an oversubscribed host are not comparable; \
             refusing to measure (use --quick for a smoke run)",
            host.cores,
            workloads::WORKERS
        );
        return ExitCode::from(3);
    }
    if cli.aa {
        return run_aa(&cli);
    }
    if cli.all {
        return run_all(&cli);
    }
    let name = cli.workload.as_deref().expect("checked by Cli::parse");
    let w = workloads::find(name).expect("checked by Cli::parse");
    let (mut out, defs, spans) = run_one(w, &cli);
    if cli.trace {
        let path = trace_path(w.name);
        match trace::write_jsonl(&path, &spans) {
            Ok(()) => eprintln!("  {} spans written to {}", spans.len(), path.display()),
            Err(e) => out.errors.push(format!("{}: {e}", path.display())),
        }
    }
    out.print_table(defs);

    let detail = out.detail_json(defs, |o| {
        o.str("workload", w.name)
            .str("why", w.why)
            .bool("traced", cli.trace)
            .u64("seed", cli.seed)
            .raw("host", &host.to_json());
    });
    println!("{detail}");
    println!("{}", out.contract_json(defs));
    exit_code(out.correct())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_takes_the_contract_invocation_and_the_readme_one() {
        let c = Cli::parse(&args(
            "--workload stm-relaxed --seed 7 --seconds 8 --trace 1",
        ))
        .expect("contract invocation");
        assert_eq!(c.workload.as_deref(), Some("stm-relaxed"));
        assert_eq!((c.seed, c.seconds, c.trace, c.all), (7, 8.0, true, false));
        let c = Cli::parse(&args("--workload mq-balanced --trace 0 --seed 1")).expect("trace 0");
        assert_eq!((c.trace, c.seed), (false, 1));
        let c = Cli::parse(&args("--all --trace --samples 3 --quick")).expect("bare --trace");
        assert!(c.all && c.trace && c.quick && c.samples == 3 && c.seed == 42);
        assert!(Cli::parse(&args("--aa")).expect("--aa alone").aa);
    }

    #[test]
    fn cli_rejects_what_it_does_not_understand() {
        for bad in [
            "",
            "--workload no-such-workload",
            "--workload mq-balanced --all",
            "--all --seconds 0",
            "--all --samples 0",
            "--all --seed minus-one",
            "--all --frobnicate",
            "--workload",
        ] {
            assert!(Cli::parse(&args(bad)).is_err(), "accepted '{bad}'");
        }
    }

    #[test]
    fn quick_pass_of_every_workload_prints_exactly_the_declared_names() {
        for trace in [false, true] {
            let flags = format!("--all --quick --trace {}", u8::from(trace));
            let cli = Cli::parse(&args(&flags)).expect("flags");
            for w in &WORKLOADS {
                let (out, defs, spans) = run_one(w, &cli);
                assert!(out.correct(), "{} trace={trace}: {:?}", w.name, out.errors);
                assert!(out.attempted > 0 && out.failed == 0);
                let printed: Vec<&str> = out.metrics.iter().map(|m| m.name).collect();
                let declared: Vec<&str> = defs.iter().map(|d| d.name).collect();
                assert_eq!(printed, declared, "{} trace={trace}", w.name);
                for m in &out.metrics {
                    assert!(m.value.is_finite(), "{}: {} = {}", w.name, m.name, m.value);
                }
                assert_eq!(trace, !spans.is_empty());
                if trace {
                    assert!(trace::Tree::build(&spans).residual_pct() <= 5.0);
                }
            }
        }
    }
}
