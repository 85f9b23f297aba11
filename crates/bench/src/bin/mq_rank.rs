//! **Theorem 7.1 validation** — MultiQueue dequeue rank quality.
//!
//! Two measurements:
//!
//! 1. The *sequential rank process* (reference \[3\]): prefill b = 100·m
//!    labels, remove half, report mean / p99 / max rank — expected
//!    O(m), O(m log m).
//! 2. The *concurrent MultiQueue*: a history-recording workload
//!    scenario; the engine replays the stamped history through the
//!    distributional-linearizability checker (Definition 5.2) and the
//!    empirical rank-cost distribution comes back as the run's quality
//!    report. This is the end-to-end guarantee the paper's framework
//!    promises.
//!
//! ```text
//! cargo run -p dlz-bench --release --bin mq_rank
//! ```

use dlz_bench::tables::f3;
use dlz_bench::{Config, Table};
use dlz_core::spec::CostDistribution;
use dlz_core::DeleteMode;
use dlz_sim::QueueProcess;
use dlz_workload::backends::MultiQueueBackend;
use dlz_workload::{engine, Backend, Budget, Dist, Family, OpMix, Scenario, SweepSpec};

fn sequential_section(cfg: &Config) {
    println!("-- sequential rank process (reference [3]) --");
    let mut table = Table::new(&["m", "staleness", "mean_rank", "p99", "max", "m", "m·ln(m)"]);
    for &m in &[8usize, 16, 64, 256] {
        for staleness in [0usize, m / 8] {
            let b = 100 * m;
            let mut p = QueueProcess::new(m, b, staleness.max(1), cfg.seed ^ m as u64);
            for _ in 0..b {
                p.insert();
            }
            let mut ranks = Vec::with_capacity(b / 2);
            for _ in 0..(b / 2) {
                let (_, rank) = p.remove_retrying(staleness).expect("non-empty");
                ranks.push(rank as f64);
            }
            let s = CostDistribution::from_samples(ranks);
            table.row(vec![
                m.to_string(),
                staleness.to_string(),
                f3(s.mean()),
                f3(s.quantile(0.99)),
                f3(s.max()),
                m.to_string(),
                f3(m as f64 * (m as f64).ln()),
            ]);
        }
    }
    table.print();
    println!("Expected: mean = O(m); p99/max within the m·ln(m) scale.\n");
}

fn concurrent_section(cfg: &Config) {
    println!("-- concurrent MultiQueue + distributional-linearizability checker --");
    let mut table = Table::new(&[
        "m",
        "threads",
        "ops",
        "mean_rank",
        "p99",
        "max",
        "m·ln(m)",
        "lin?",
    ]);
    // The original hand-rolled loop: 2/3 enqueue, 1/3 dequeue, dense
    // per-thread monotone priorities — now a declarative sweep over the
    // thread axis with history recording on; the factory sizes the
    // MultiQueue (m = 8·n) from each cell's thread count.
    let per_thread = cfg.steps(40_000);
    let base = Scenario::builder("mq-rank-audit", Family::Queue)
        .about("stamped history replayed through the checker")
        .budget(Budget::OpsPerWorker(per_thread))
        .mix(OpMix::new(67, 33, 0))
        .priorities(Dist::Monotonic)
        .seed(cfg.seed)
        .record_history(true)
        .build();
    let spec = SweepSpec::new(base).threads(&cfg.threads);
    let reports = engine::run_sweep(&spec, |cell| {
        let m = (8 * cell.scenario.threads).max(8);
        vec![Box::new(MultiQueueBackend::heap(m, DeleteMode::Strict)) as Box<dyn Backend>]
    });

    for report in &reports {
        assert!(report.verified(), "{:?}", report.verify_error);
        let m = (8 * report.threads).max(8);
        let q = &report.quality;
        assert_eq!(q.metric, "dequeue_rank");
        let ranks = q.summary.expect("checker costs");
        table.row(vec![
            m.to_string(),
            report.threads.to_string(),
            format!("{:.0}", q.get("history_ops").unwrap_or(0.0)),
            f3(ranks.mean),
            f3(ranks.p99),
            f3(ranks.max),
            f3(m as f64 * (m as f64).ln()),
            (q.get("linearizable") == Some(1.0)).to_string(),
        ]);
    }
    table.print();
    println!("Expected: every history maps onto the relaxed PQ process (lin? = true);");
    println!("mean rank stays O(m), tail within the m·ln(m) scale (Theorem 7.1).");
}

const FLAGS: &[&str] = &["--seed", "--quick", "--threads"];

fn main() {
    let cfg = Config::from_args(FLAGS);
    println!(
        "Theorem 7.1: MultiQueue rank guarantees (threads sweep {:?})\n",
        cfg.threads
    );
    sequential_section(&cfg);
    concurrent_section(&cfg);
}
