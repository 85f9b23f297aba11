//! End-to-end tests of the `scenarios` binary's stdout contract:
//! stdout carries exactly one JSON document (the report array) and
//! nothing else — every diagnostic, warning, and summary table goes to
//! stderr — so `scenarios ... | jq` style pipelines never break, even
//! when the run raises warnings.

use std::process::{Command, Output};

use dlz_core::json;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_scenarios")
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn scenarios")
}

/// Parses stdout as a single JSON document and returns the report
/// array; panics with context if anything but JSON landed there.
fn reports_from_stdout(out: &Output) -> Vec<json::JsonValue> {
    let stdout = String::from_utf8(out.stdout.clone()).expect("utf8 stdout");
    let value = json::parse(&stdout).unwrap_or_else(|e| {
        panic!(
            "stdout is not pure JSON ({e:?}); first 200 bytes: {:?}",
            &stdout[..stdout.len().min(200)]
        )
    });
    value
        .as_array()
        .unwrap_or_else(|| panic!("stdout JSON is not an array"))
        .to_vec()
}

#[test]
fn stdout_is_pure_json_even_when_warnings_fire() {
    // --duration-ms on a fixed-op scenario triggers the ineffective-
    // override warning; the warning must land on stderr, leaving stdout
    // parseable as one JSON array.
    let out = run(&[
        "--scenario",
        "queue-balanced-audit",
        "--duration-ms",
        "50",
        "--quick",
    ]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let stderr = String::from_utf8(out.stderr.clone()).expect("utf8 stderr");
    assert!(
        stderr.contains("warning: --duration-ms has no effect"),
        "expected the ineffective-override warning on stderr, got: {stderr}"
    );
    let reports = reports_from_stdout(&out);
    assert!(!reports.is_empty());
    for r in &reports {
        assert_eq!(
            r.get("scenario").and_then(|v| v.as_str()),
            Some("queue-balanced-audit")
        );
        assert_eq!(r.get("verified").and_then(|v| v.as_bool()), Some(true));
    }
}

#[test]
fn telemetry_runs_keep_stdout_pure_and_embed_series() {
    let out = run(&[
        "--scenario",
        "queue-balanced",
        "--telemetry-interval-ms",
        "5",
        "--quick",
    ]);
    assert!(out.status.success(), "exit: {:?}", out.status);
    let reports = reports_from_stdout(&out);
    assert!(!reports.is_empty());
    for r in &reports {
        let telemetry = r
            .get("telemetry")
            .unwrap_or_else(|| panic!("report missing telemetry block"));
        assert_eq!(
            telemetry.get("interval_ms").and_then(|v| v.as_u64()),
            Some(5)
        );
        let series = telemetry
            .get("series")
            .and_then(|v| v.as_array())
            .expect("series array");
        assert!(!series.is_empty());
        // Per-interval op counts must sum exactly to the report totals.
        let total: u64 = series
            .iter()
            .map(|iv| iv.get("updates").and_then(|v| v.as_u64()).unwrap_or(0))
            .sum();
        let reported = r
            .get("throughput")
            .and_then(|t| t.get("updates"))
            .and_then(|v| v.as_u64())
            .expect("updates");
        assert_eq!(total, reported, "interval updates drifted from totals");
    }
}

#[test]
fn chaos_scenario_reports_faults_and_exits_1() {
    let out = run(&[
        "--scenario",
        "chaos-stall-audit",
        "--backends",
        "multiqueue-heap",
    ]);
    // A fault casualty is not a clean run: exit 1, but the JSON report
    // (with its faults section) still lands intact on stdout.
    assert_eq!(out.status.code(), Some(1), "exit: {:?}", out.status);
    let reports = reports_from_stdout(&out);
    assert!(!reports.is_empty());
    for r in &reports {
        assert_eq!(r.get("verified").and_then(|v| v.as_bool()), Some(true));
        let faults = r.get("faults").expect("faults section");
        assert_eq!(faults.get("aborted").and_then(|v| v.as_bool()), Some(false));
        let workers = faults
            .get("workers")
            .and_then(|v| v.as_array())
            .expect("workers array");
        assert_eq!(workers.len(), 4);
        let panicked: Vec<_> = workers
            .iter()
            .filter(|w| w.get("outcome").and_then(|v| v.as_str()) == Some("panicked"))
            .collect();
        assert_eq!(panicked.len(), 1, "exactly the faulted worker dies");
        assert_eq!(panicked[0].get("id").and_then(|v| v.as_u64()), Some(1));
    }
    let stderr = String::from_utf8(out.stderr.clone()).expect("utf8 stderr");
    assert!(stderr.contains("WORKER PANICKED"), "{stderr}");
}

#[test]
fn bare_catalog_run_skips_chaos_presets() {
    // A backend filter that matches nothing keeps this cheap (exit 2,
    // no measurements) while still exercising preset selection.
    let out = run(&["--quick", "--backends", "no-such-backend-zzz"]);
    assert_eq!(out.status.code(), Some(2), "exit: {:?}", out.status);
    let stderr = String::from_utf8(out.stderr.clone()).expect("utf8 stderr");
    assert!(
        stderr.contains("skipping chaos preset 'chaos-stall-audit'"),
        "chaos presets must be opt-in: {stderr}"
    );
}

#[test]
fn faults_flag_injects_a_plan_and_surfaces_casualties() {
    let out = run(&[
        "--scenario",
        "queue-balanced-audit",
        "--quick",
        "--backends",
        "multiqueue-heap",
        "--faults",
        "panic:0@25",
    ]);
    assert_eq!(out.status.code(), Some(1), "exit: {:?}", out.status);
    let reports = reports_from_stdout(&out);
    assert!(!reports.is_empty());
    for r in &reports {
        assert_eq!(
            r.get("verified").and_then(|v| v.as_bool()),
            Some(true),
            "salvaged runs must still verify conservation"
        );
        let faults = r.get("faults").expect("faults section");
        assert_eq!(
            faults.get("plan").and_then(|v| v.as_str()),
            Some("panic:0@25")
        );
    }
    // A malformed plan is a usage error, before any run starts.
    let out = run(&["--faults", "panic:zero@25"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn unknown_scenario_exits_2_with_empty_stdout() {
    let out = run(&["--scenario", "no-such-scenario"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "error paths must not pollute stdout");
    let stderr = String::from_utf8(out.stderr.clone()).expect("utf8 stderr");
    assert!(stderr.contains("unknown scenario"), "{stderr}");
}

#[test]
fn removed_substrate_flags_exit_2_as_unknown_flags() {
    for args in [["--substrates", "lockfree"], ["--substrate", "x"]] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty());
        let stderr = String::from_utf8(out.stderr.clone()).expect("utf8 stderr");
        assert!(stderr.contains("unknown flag"), "{stderr}");
    }
}

#[test]
fn removed_adaptive_policy_exits_2_listing_the_accepted_forms() {
    let out = run(&[
        "--scenario",
        "queue-balanced",
        "--policies",
        "two-choice,adaptive=8",
        "--quick",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    let stderr = String::from_utf8(out.stderr.clone()).expect("utf8 stderr");
    assert!(
        stderr
            .contains("unknown policy 'adaptive=8' (expected two-choice, d-choice=N or sticky=N)"),
        "{stderr}"
    );
}
