//! **Section 6.3 robustness** — the ε-corrupted two-choice process.
//!
//! The core of the paper's proof is that a two-choice process in which
//! an ε fraction of updates is *adversarially* redirected to the more
//! loaded bin — in any order, including bursts — still keeps an
//! O(log m) gap. This binary sweeps ε and the corruption pattern and
//! reports the resulting gaps, including the divergent ε = 1 control.
//!
//! ```text
//! cargo run -p dlz-bench --release --bin corrupted_gap
//! ```

use dlz_bench::tables::f3;
use dlz_bench::{Config, Table};
use dlz_sim::{Allocation, CorruptionPattern, PotentialTrace, Rule};

fn main() {
    let cfg = Config::from_args();
    let steps = cfg.steps(2_000_000);
    let m = 256usize;
    let lnm = (m as f64).ln();

    println!("Section 6.3: epsilon-corrupted two-choice (m = {m}, {steps} steps)");
    println!("corrupted step = insert into the MORE loaded of the two choices\n");

    let mut table = Table::new(&["pattern", "eps", "max_gap", "gap/ln(m)", "corrupted%"]);

    let patterns: Vec<(String, CorruptionPattern)> = vec![
        ("none".into(), CorruptionPattern::None),
        ("iid".into(), CorruptionPattern::Iid { eps: 1.0 / 64.0 }),
        ("iid".into(), CorruptionPattern::Iid { eps: 1.0 / 16.0 }),
        ("iid".into(), CorruptionPattern::Iid { eps: 1.0 / 4.0 }),
        (
            "burst(n per Cn)".into(),
            CorruptionPattern::Burst {
                period: 16 * 32,
                burst: 32,
            },
        ),
        (
            "burst(n per Cn)".into(),
            CorruptionPattern::Burst {
                period: 4 * 32,
                burst: 32,
            },
        ),
        ("iid (control)".into(), CorruptionPattern::Iid { eps: 1.0 }),
    ];

    for (name, pattern) in patterns {
        let mut p = Allocation::new(m, Rule::Corrupted { pattern }, cfg.seed);
        // Sample the gap along the way; report the worst.
        let mut trace = PotentialTrace::new(1.0, 10_000);
        trace.run(&mut p, steps);
        let max_gap = trace.max_gap();
        table.row(vec![
            name,
            f3(pattern.rate()),
            f3(max_gap),
            f3(max_gap / lnm),
            f3(100.0 * p.corrupted_steps() as f64 / steps as f64),
        ]);
    }
    table.print();
    println!("\nExpected shape: gap/ln(m) = O(1) for small eps (iid AND bursty — the order");
    println!("does not matter, as the analysis requires); eps = 1 diverges (control).");
}
