//! **Future-work probe: the m-vs-n gap** (paper's Section 9).
//!
//! The analysis needs `m ≥ C·n` for a large constant C, and the paper
//! conjectures the process may break down for some m/n ("it is
//! interesting to also ask whether the process will preserve its
//! properties even under high contention, e.g. m < n"). This binary
//! sweeps the ratio from the proven regime down into oversubscription
//! (m < n) under the worst schedule we have (batch stampede, which
//! resets the adversary's information every n updates), reporting the
//! gap normalized by ln m.
//!
//! ```text
//! cargo run -p dlz-bench --release --bin gap_vs_ratio
//! ```

use dlz_bench::tables::f3;
use dlz_bench::{Config, Table};
use dlz_sim::{Allocation, PotentialTrace, Rule, Schedule};

fn main() {
    let cfg = Config::from_args();
    let m = 256usize;
    let steps = cfg.steps(2_000_000);
    let lnm = (m as f64).ln();

    println!("Section 9 probe: gap vs ratio m/n (m = {m}, stampede schedule, {steps} steps)\n");
    let mut table = Table::new(&["m/n", "n", "max_gap", "gap/ln(m)", "wrong-bin %"]);

    // From the proven regime (m = 16n) down to heavy oversubscription
    // (m = n/8, i.e. staleness window 8x the number of bins).
    for (num, den) in [
        (16usize, 1usize),
        (8, 1),
        (4, 1),
        (2, 1),
        (1, 1),
        (1, 2),
        (1, 4),
        (1, 8),
    ] {
        let n = m * den / num;
        let schedule = Schedule::BatchStampede { n };
        let mut p = Allocation::new(m, Rule::Async { schedule }, cfg.seed);
        let mut trace = PotentialTrace::new(1.0, 10_000);
        trace.run(&mut p, steps);
        let max_gap = trace.max_gap();
        table.row(vec![
            format!("{num}/{den}"),
            n.to_string(),
            f3(max_gap),
            f3(max_gap / lnm),
            format!("{:.2}", 100.0 * p.wrong_choices() as f64 / steps as f64),
        ]);
    }
    table.print();
    println!("\nReading: the theorem covers the top rows (m >= Cn). The paper conjectures");
    println!("degradation for small m/n; whether gap/ln(m) stays O(1) below 1/1 is exactly");
    println!("the open question — this table is evidence, not proof.");
}
