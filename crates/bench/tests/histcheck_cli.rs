//! End-to-end tests of the `histcheck` binary: valid artifacts pass
//! with verdict JSON on stdout; corrupt/truncated artifacts fail loudly
//! (exit 2) naming the file and the 1-based line of the damage — never
//! a panic; non-linearizable histories exit 1.

use std::path::PathBuf;
use std::process::{Command, Output};

use dlz_core::spec::history::{Event, History};
use dlz_core::spec::{HistoryArtifact, PqOp};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_histcheck")
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dlz-histcheck-{}-{name}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(bin())
        .args(args)
        .output()
        .expect("spawn histcheck")
}

fn ev(label: PqOp, stamp: u64) -> Event<PqOp> {
    Event {
        thread: 0,
        label,
        invoke: stamp * 10,
        update: stamp * 10 + 1,
        response: stamp * 10 + 2,
    }
}

fn valid_artifact() -> String {
    let history = History {
        events: vec![
            ev(PqOp::Insert { priority: 3 }, 0),
            ev(PqOp::Insert { priority: 7 }, 1),
            ev(PqOp::DeleteMin { removed: 7 }, 2), // rank 1
            ev(PqOp::DeleteMin { removed: 3 }, 3),
        ],
    };
    let mut a = HistoryArtifact::pq(history, "two-choice", 1.0, 4);
    a.threads = 1;
    a.cell = Some("t/t=1/policy=two-choice".into());
    a.grid = vec![
        ("t".into(), "1".into()),
        ("policy".into(), "two-choice".into()),
    ];
    a.to_json_lines()
}

#[test]
fn valid_artifact_passes_and_emits_verdict_json() {
    let dir = scratch("valid");
    std::fs::write(dir.join("a.histjsonl"), valid_artifact()).expect("write");
    let json_out = dir.join("check.json");
    let out = run(&["--json", json_out.to_str().unwrap(), dir.to_str().unwrap()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    for needle in [
        "\"linearizable\":true",
        "\"kind\":\"pq\"",
        "\"policy\":\"two-choice\"",
        "\"cell\":\"t/t=1/policy=two-choice\"",
        "\"grid\":{\"t\":\"1\",\"policy\":\"two-choice\"}",
        "\"within_bound\":true",
        "\"cost_hist\":",
    ] {
        assert!(stdout.contains(needle), "missing {needle} in {stdout}");
    }
    // --json writes the same array to the file.
    let written = std::fs::read_to_string(&json_out).expect("json file");
    assert_eq!(written.trim(), stdout.trim());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_artifact_fails_loudly_with_line_number() {
    let dir = scratch("corrupt");
    let mut lines: Vec<String> = valid_artifact().lines().map(String::from).collect();
    lines[2] = "{\"thread\":0,\"label\":GARBAGE".into();
    let path = dir.join("bad.histjsonl");
    std::fs::write(&path, lines.join("\n")).expect("write");
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad.histjsonl"), "{stderr}");
    assert!(
        stderr.contains("line 3"),
        "must name the damaged line: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_artifact_fails_loudly_not_a_panic() {
    let dir = scratch("truncated");
    let full = valid_artifact();
    let truncated: Vec<&str> = full.lines().take(3).collect();
    let path = dir.join("cut.histjsonl");
    std::fs::write(&path, truncated.join("\n")).expect("write");
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("truncated"), "{stderr}");
    assert!(stderr.contains("line 4"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_linearizable_history_exits_one() {
    let dir = scratch("verdict");
    // Dequeue of a never-inserted priority: unmappable, verdict fails.
    let history = History {
        events: vec![
            ev(PqOp::Insert { priority: 3 }, 0),
            ev(PqOp::DeleteMin { removed: 99 }, 1),
        ],
    };
    let a = HistoryArtifact::pq(history, "two-choice", 1.0, 4);
    let path = dir.join("bad-verdict.histjsonl");
    std::fs::write(&path, a.to_json_lines()).expect("write");
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"linearizable\":false"), "{stdout}");
    assert!(stdout.contains("\"unmappable\":1"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn infinite_envelope_factor_passes_on_verdict_alone() {
    // A policy with no rank bound (e.g. d-choice=1) serializes its
    // envelope factor as null; the engine makes no envelope claim for
    // it, so neither may histcheck — a linearizable artifact must exit
    // 0, not "ENVELOPE EXCEEDED".
    let dir = scratch("inf-factor");
    let history = History {
        events: vec![
            ev(PqOp::Insert { priority: 3 }, 0),
            ev(PqOp::DeleteMin { removed: 3 }, 1),
        ],
    };
    let a = HistoryArtifact::pq(history, "d-choice(d=1)", f64::INFINITY, 4);
    let path = dir.join("unbounded.histjsonl");
    std::fs::write(&path, a.to_json_lines()).expect("write");
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"envelope_factor\":null"), "{stdout}");
    assert!(stdout.contains("\"within_bound\":true"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn artifact_of_the_removed_adaptive_policy_still_replays() {
    // The policy label is an opaque string to the checker: an artifact
    // recorded while `adaptive(s_max=N)` existed (observed factor 4
    // under s_max = 16) replays against the factor its header carries.
    let dir = scratch("adaptive-label");
    let text = valid_artifact().replacen(
        "\"policy\":\"two-choice\",\"envelope_factor\":1",
        "\"policy\":\"adaptive(s_max=16)\",\"envelope_factor\":4",
        1,
    );
    assert!(text.contains("adaptive(s_max=16)"), "{text}");
    let path = dir.join("old.histjsonl");
    std::fs::write(&path, text).expect("write");
    let out = run(&[path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("\"policy\":\"adaptive(s_max=16)\""),
        "{stdout}"
    );
    assert!(stdout.contains("\"envelope_factor\":4"), "{stdout}");
    assert!(stdout.contains("\"within_bound\":true"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exceeded_envelope_is_reported_not_fatal() {
    use dlz_core::spec::CounterOp;
    // A counter history whose read deviation blows the 4·scale bound:
    // linearizable (the relaxation maps every read), envelope exceeded.
    let history = History {
        events: vec![
            Event {
                thread: 0,
                label: CounterOp::Inc,
                invoke: 0,
                update: 1,
                response: 2,
            },
            Event {
                thread: 0,
                label: CounterOp::Read { returned: 1_000 },
                invoke: 3,
                update: 4,
                response: 5,
            },
        ],
    };
    let a = HistoryArtifact::counter(history, 2.0 * 2f64.ln());
    let dir = scratch("envelope");
    let path = dir.join("wide.histjsonl");
    std::fs::write(&path, a.to_json_lines()).expect("write");
    let out = run(&[path.to_str().unwrap()]);
    // Verdict holds → exit 0; the exceeded envelope is reported data.
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"linearizable\":true"), "{stdout}");
    assert!(stdout.contains("\"within_bound\":false"), "{stdout}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("envelope exceeded"), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn symlink_cycles_do_not_overflow_the_walk() {
    let dir = scratch("symlink");
    std::fs::write(dir.join("a.histjsonl"), valid_artifact()).expect("write");
    // A self-referential symlink: following it would recurse forever.
    std::os::unix::fs::symlink(&dir, dir.join("loop")).expect("symlink");
    let out = run(&[dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
    // Exactly one artifact found — the symlink was skipped, not walked.
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.matches("\"kind\":\"pq\"").count(), 1, "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn usage_errors_exit_two() {
    // No paths at all.
    let out = run(&[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
    // Nonexistent path.
    let out = run(&["/no/such/dlz-path"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // A directory with no artifacts.
    let dir = scratch("empty");
    let out = run(&[dir.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    std::fs::remove_dir_all(&dir).ok();
}
