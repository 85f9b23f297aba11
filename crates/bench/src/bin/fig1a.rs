//! **Figure 1(a)** — Scalability of the concurrent counter for
//! different values of the ratio C between counters and threads.
//!
//! The paper plots increment throughput vs thread count for several
//! C = m/n, with the single fetch-and-add counter as the implicit
//! baseline: FAA throughput *decays* with threads (cache-line
//! ping-pong) while the MultiCounter scales, more steeply for larger C.
//!
//! The thread axis is a declarative [`SweepSpec`] grid driven through
//! `engine::run_sweep`: one update-only closed-loop cell per thread
//! count, six backends per cell (the factory sizes sharded/MultiCounter
//! backends from the cell's thread count). The engine also checks the
//! conservation law (no increment lost) on every cell.
//!
//! ```text
//! cargo run -p dlz-bench --release --bin fig1a
//! ```

use dlz_bench::tables::f3;
use dlz_bench::{Config, Table};
use dlz_workload::backends::CounterBackend;
use dlz_workload::{engine, Backend, Budget, Family, OpMix, Scenario, SweepSpec};

const FLAGS: &[&str] = &["--seed", "--quick", "--threads", "--duration-ms"];

fn main() {
    let cfg = Config::from_args(FLAGS);
    let ratios = [1usize, 2, 4, 8];

    println!("Figure 1(a): MultiCounter increment throughput (Mops/s) vs threads");
    println!(
        "duration per point: {:?}; ratios C = m/n: {:?}; baseline: single FAA counter\n",
        cfg.duration, ratios
    );

    let base = Scenario::builder("fig1a", Family::Counter)
        .about("update-only closed loop")
        .budget(Budget::Timed(cfg.duration))
        .mix(OpMix::new(100, 0, 0))
        .seed(cfg.seed)
        .quality_every(0)
        .build();
    let spec = SweepSpec::new(base).threads(&cfg.threads);

    let backends_per_cell = 2 + ratios.len();
    let reports = engine::run_sweep(&spec, |cell| {
        let n = cell.scenario.threads;
        let mut backends: Vec<Box<dyn Backend>> = vec![
            Box::new(CounterBackend::exact()),
            Box::new(CounterBackend::sharded(n)),
        ];
        backends.extend(
            ratios
                .iter()
                .map(|&c| Box::new(CounterBackend::multicounter(c * n)) as Box<dyn Backend>),
        );
        backends
    });

    let mut headers = vec![
        "threads".to_string(),
        "exact(FAA)".to_string(),
        "sharded".to_string(),
    ];
    headers.extend(ratios.iter().map(|c| format!("C={c}")));
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(&header_refs);

    for chunk in reports.chunks(backends_per_cell) {
        let mut cells = vec![chunk[0].threads.to_string()];
        for report in chunk {
            assert!(
                report.verified(),
                "{}: {}",
                report.backend,
                report.verify_error.as_deref().unwrap_or("?")
            );
            cells.push(f3(report.mops()));
        }
        table.row(cells);
    }
    table.print();
    println!(
        "\nExpected shape (paper): FAA flat-to-decreasing; MultiCounter rising with n,\nhigher C => less contention per cell => higher throughput."
    );
}
