//! The flag surface of every `Config` binary, driven from the flag
//! table in `src/config.rs`'s module docs: each documented flag is
//! accepted by exactly the binaries its "read by" column names and is
//! an unknown flag (exit 2, empty stdout) everywhere else. No probe
//! runs a workload: a valued flag is passed without its value, so an
//! accepting binary stops at "needs a value"; a switch is followed by
//! a flag no binary reads, so an accepting binary stops at that one.

use std::process::{Command, Output};

const CONFIG_SOURCE: &str = include_str!("../src/config.rs");

/// Every binary that parses its flags with `Config::from_args`.
const BINARIES: &[(&str, &str)] = &[
    ("adversary_gap", env!("CARGO_BIN_EXE_adversary_gap")),
    ("beta_gap", env!("CARGO_BIN_EXE_beta_gap")),
    ("clock_tuning", env!("CARGO_BIN_EXE_clock_tuning")),
    ("corrupted_gap", env!("CARGO_BIN_EXE_corrupted_gap")),
    ("fig1a", env!("CARGO_BIN_EXE_fig1a")),
    ("fig1b", env!("CARGO_BIN_EXE_fig1b")),
    ("fig1cde", env!("CARGO_BIN_EXE_fig1cde")),
    ("gap_vs_ratio", env!("CARGO_BIN_EXE_gap_vs_ratio")),
    ("mq_rank", env!("CARGO_BIN_EXE_mq_rank")),
    ("scenarios", env!("CARGO_BIN_EXE_scenarios")),
];

fn run(path: &str, args: &[&str]) -> Output {
    Command::new(path)
        .args(args)
        .output()
        .expect("spawn binary")
}

/// One documented flag: its name, whether it takes a value, and the
/// binaries that read it.
struct Row {
    flag: String,
    valued: bool,
    readers: Vec<String>,
}

/// The rows of the module-doc table: `//! | `--flag VALUE` | meaning | read by |`.
fn documented_flags() -> Vec<Row> {
    CONFIG_SOURCE
        .lines()
        .filter_map(|line| line.strip_prefix("//! | `--"))
        .map(|row| {
            let cells: Vec<&str> = row.split(" | ").collect();
            assert_eq!(cells.len(), 3, "flag row needs three cells: {row}");
            let spelling: Vec<&str> = cells[0].trim_end_matches('`').split(' ').collect();
            let readers = match cells[2].trim_end_matches(" |") {
                "all" => BINARIES.iter().map(|(name, _)| name.to_string()).collect(),
                names => names
                    .split(", ")
                    .map(|n| n.trim_matches('`').to_string())
                    .collect(),
            };
            Row {
                flag: format!("--{}", spelling[0]),
                valued: spelling.len() > 1,
                readers,
            }
        })
        .collect()
}

#[test]
fn each_documented_flag_is_accepted_exactly_by_its_readers() {
    let rows = documented_flags();
    assert_eq!(rows.len(), 17, "the table documents every flag once");
    let mut accepted = 0;
    for row in &rows {
        for reader in &row.readers {
            assert!(
                BINARIES.iter().any(|(name, _)| name == reader),
                "{}: unknown binary {reader}",
                row.flag
            );
        }
        let probe: Vec<&str> = match row.valued {
            true => vec![&row.flag],
            false => vec![&row.flag, "--read-by-no-binary"],
        };
        for (name, path) in BINARIES {
            let out = run(path, &probe);
            assert_eq!(out.status.code(), Some(2), "{name} {probe:?}: {out:?}");
            assert!(out.stdout.is_empty(), "{name} {probe:?}: stdout not empty");
            let stderr = String::from_utf8_lossy(&out.stderr);
            let reads = row.readers.iter().any(|r| r == name);
            let expected = match (reads, row.valued) {
                (true, true) => format!("{} needs a value", row.flag),
                (true, false) => "unknown flag --read-by-no-binary".to_string(),
                (false, _) => format!("unknown flag {}", row.flag),
            };
            assert!(
                stderr.contains(&expected),
                "{name} {probe:?}: expected '{expected}' in {stderr}"
            );
            accepted += reads as usize;
        }
    }
    assert_eq!(accepted, 41, "accepted (binary, flag) pairs");
}

#[test]
fn a_flag_the_binary_does_not_read_exits_2_with_empty_stdout() {
    for (name, args) in [
        ("fig1a", &["--quick", "--policies", "two-choice"][..]),
        ("adversary_gap", &["--threads", "4"][..]),
    ] {
        let path = BINARIES.iter().find(|(n, _)| *n == name).expect("binary").1;
        let out = run(path, args);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {out:?}");
        assert!(out.stdout.is_empty(), "{name} {args:?}: stdout not empty");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown flag"), "{name}: {stderr}");
    }
}
