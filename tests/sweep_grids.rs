//! Integration tests for the sweep-grid subsystem: determinism of
//! per-cell op counts under a fixed seed, and the shape of the emitted
//! JSON array (it must parse, and every cell object must carry its
//! scenario, backend, threads and policy label plus grid coordinates).
//! The schema validation runs through the workspace's own JSON parser
//! (`dlz_core::json`) — the same code `histcheck` trusts to read
//! history artifacts.

use distlin::core::json::{self, parse, JsonValue};
use distlin::core::{DeleteMode, PolicyCfg};
use distlin::workload::backends::MultiQueueBackend;
use distlin::workload::{
    engine, Backend, Budget, Dist, Family, OpMix, RunReport, Scenario, SweepSpec,
};

const SEED: u64 = 0x5eed_9d1d;

fn spec() -> SweepSpec {
    let base = Scenario::builder("it-sweep", Family::Queue)
        .threads(2)
        .budget(Budget::OpsPerWorker(1_500))
        .mix(OpMix::new(50, 50, 0))
        .priorities(Dist::Monotonic)
        .prefill(300)
        .seed(SEED)
        .build();
    SweepSpec::new(base)
        .threads(&[1, 2])
        .policies(&[PolicyCfg::TwoChoice, PolicyCfg::Sticky { ops: 4 }])
}

fn run_grid() -> Vec<RunReport> {
    engine::run_sweep(&spec(), |cell| {
        vec![Box::new(MultiQueueBackend::heap_policy(
            8,
            DeleteMode::Strict,
            cell.scenario.choice_policy,
            1,
        )) as Box<dyn Backend>]
    })
}

#[test]
fn sweep_grids_are_deterministic_per_cell() {
    let (a, b) = (run_grid(), run_grid());
    assert_eq!(a.len(), 4, "2 threads × 2 policies × 1 backend");
    for (x, y) in a.iter().zip(&b) {
        assert!(x.verified(), "{:?}: {:?}", x.cell, x.verify_error);
        assert_eq!(x.cell, y.cell, "grid order must be stable");
        // Same seed + same grid → identical per-cell op counts.
        assert_eq!(x.counts.updates, y.counts.updates, "{:?}", x.cell);
        assert_eq!(x.counts.prefill, y.counts.prefill);
        assert_eq!(
            x.counts.removes + x.residual,
            y.counts.removes + y.residual,
            "{:?}",
            x.cell
        );
    }
    // The axes really vary: both thread counts and both policies ran.
    let threads: Vec<usize> = a.iter().map(|r| r.threads).collect();
    assert_eq!(threads, vec![1, 2, 1, 2]);
    let policies: Vec<&str> = a.iter().map(|r| r.policy.as_str()).collect();
    assert_eq!(
        policies,
        vec!["two-choice", "two-choice", "sticky(s=4)", "sticky(s=4)"]
    );
}

#[test]
fn sweep_json_array_parses_and_carries_grid_schema() {
    let reports = run_grid();
    let rendered: Vec<String> = reports.iter().map(|r| r.to_json()).collect();
    let array = json::array(&rendered);

    // The emitted array must be valid JSON end to end.
    let value = parse(&array).expect("grid JSON must parse");
    let cells = value.as_array().expect("expected a JSON array");
    assert_eq!(cells.len(), reports.len());

    for (cell, report) in cells.iter().zip(&reports) {
        assert!(cell.as_object().is_some(), "expected an object per cell");
        let get = |key: &str| {
            cell.get(key)
                .unwrap_or_else(|| panic!("cell missing '{key}': {cell:?}"))
        };
        // Required schema: scenario, backend, threads, policy label.
        assert_eq!(get("scenario").as_str(), Some("it-sweep"));
        assert!(get("backend").as_str().expect("str").contains("multiqueue"));
        assert_eq!(get("threads").as_u64(), Some(report.threads as u64));
        assert_eq!(get("policy").as_str(), Some(report.policy.as_str()));
        // Grid coordinates embedded in the object, in axis order.
        let cell_name = get("cell").as_str().expect("cell name is a string");
        assert!(cell_name.starts_with("it-sweep/t="), "{cell_name}");
        let grid = get("grid").as_object().expect("grid is an object");
        assert_eq!(grid.len(), 2);
        assert_eq!(grid[0].0, "t");
        assert_eq!(grid[0].1, JsonValue::Str(report.threads.to_string()));
        assert_eq!(grid[1].0, "policy");
        assert_eq!(grid[1].1, JsonValue::Str(report.policy.clone()));
    }
}
