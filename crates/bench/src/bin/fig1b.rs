//! **Figure 1(b)** — Quality of the concurrent counter in a
//! single-threaded execution: read deviation from the true count, and
//! the maximum gap between cells, as increments accumulate (m = 64, as
//! in the paper).
//!
//! The checkpoint sequence is a [`SweepSpec`] `seeds` axis driven
//! through `engine::run_sweep_shared`: the same MultiCounter backend
//! accumulates across all cells, exactly like the original long
//! single-threaded run; each cell samples read deviation on every read
//! and the backend reports the cell gap.
//!
//! ```text
//! cargo run -p dlz-bench --release --bin fig1b
//! ```

use dlz_bench::{Config, Table};
use dlz_workload::backends::CounterBackend;
use dlz_workload::{engine, Budget, Family, OpMix, Scenario, SweepSpec};

const FLAGS: &[&str] = &["--seed", "--quick"];

fn main() {
    let cfg = Config::from_args(FLAGS);
    let m = 64usize;
    let total = cfg.steps(2_000_000);
    let checkpoints = 20u64;
    let step = total / checkpoints;

    println!("Figure 1(b): counter quality, single thread, m = {m}");
    println!("x axis: #increments; series: read deviation from true count, max cell gap\n");

    // One backend instance accumulates across checkpoint cells.
    let backend = CounterBackend::multicounter(m);
    let bound = (m as f64) * (m as f64).ln();

    // ~5% reads, every one quality-sampled against the exact sum; each
    // checkpoint re-seeds so the drawn streams differ cell to cell.
    let base = Scenario::builder("fig1b-checkpoint", Family::Counter)
        .about("sequential quality checkpoint")
        .threads(1)
        .budget(Budget::OpsPerWorker(step))
        .mix(OpMix::new(95, 0, 5))
        .quality_every(1)
        .build();
    let seeds: Vec<u64> = (1..=checkpoints).map(|k| cfg.seed ^ k).collect();
    let spec = SweepSpec::new(base).seeds(&seeds);
    let reports = engine::run_sweep_shared(&spec, &backend);

    let mut table = Table::new(&[
        "increments",
        "mean_dev",
        "max_dev",
        "err_bound(m·ln m)",
        "max_gap",
    ]);
    let mut worst_err = 0f64;
    let mut worst_gap = 0f64;
    for report in &reports {
        assert!(report.verified(), "{:?}", report.verify_error);
        let q = &report.quality;
        let dev = q.summary.expect("reads sampled");
        let gap = q.get("max_gap").unwrap_or(0.0);
        worst_err = worst_err.max(dev.max);
        worst_gap = worst_gap.max(gap);
        table.row(vec![
            // The shared backend's exact sum *after* this cell — the
            // accumulated increment count the x axis plots.
            report.residual.to_string(),
            format!("{:.1}", dev.mean),
            format!("{:.0}", dev.max),
            format!("{bound:.0}"),
            format!("{gap:.0}"),
        ]);
    }
    table.print();
    println!(
        "\nworst read deviation observed: {worst_err:.0} (Lemma 6.8 scale m·ln m = {bound:.0}); worst gap: {worst_gap:.0}"
    );
    println!(
        "Expected shape (paper): deviation stays within the m·ln m scale; gap stays flat (no growth with t)."
    );
}
