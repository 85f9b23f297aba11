//! **Section 6.2 validation** — the (1+β)-choice process and the
//! majorization chain of Lemma 6.4.
//!
//! Sweeps β and reports the (1+β) gap against the O(log m / β) theory
//! line, then numerically verifies that good(γ) operation probability
//! vectors majorize the (1+β = 2γ) vectors across m — the inequality
//! the whole concurrent analysis hinges on.
//!
//! ```text
//! cargo run -p dlz-bench --release --bin beta_gap
//! ```

use dlz_bench::tables::f3;
use dlz_bench::{Config, Table};
use dlz_sim::process::{good_op_probabilities, majorizes, one_plus_beta_probabilities};
use dlz_sim::{Allocation, PotentialTrace, Rule};

fn main() {
    let cfg = Config::from_args();
    let m = 256usize;
    let steps = cfg.steps(2_000_000);
    let lnm = (m as f64).ln();

    println!("Section 6.2: (1+beta)-choice process, m = {m}, {steps} steps\n");
    let mut table = Table::new(&["beta", "max_gap", "ln(m)/beta", "gap·beta/ln(m)"]);
    for beta in [1.0, 0.5, 0.25, 0.125, 0.0625] {
        let mut trace = PotentialTrace::new(1.0, 10_000);
        let mut p = Allocation::new(m, Rule::OnePlusBeta { beta }, cfg.seed);
        trace.run(&mut p, steps);
        let max_gap = trace.max_gap();
        table.row(vec![
            f3(beta),
            f3(max_gap),
            f3(lnm / beta),
            f3(max_gap * beta / lnm),
        ]);
    }
    table.print();
    println!("\nExpected ([25]): gap = O(log m / beta), i.e. the last column stays O(1).\n");

    println!("Lemma 6.4 majorization: good(gamma) ops vs (1+2*gamma) process");
    let mut mtable = Table::new(&["m", "gamma", "rho=1/2+gamma", "majorizes(1+2g)?"]);
    for &mm in &[8usize, 64, 512] {
        for gamma in [0.05, 0.1, 0.2, 1.0 / 5.0, 0.4] {
            let p = good_op_probabilities(mm, 0.5 + gamma);
            let q = one_plus_beta_probabilities(mm, 2.0 * gamma);
            mtable.row(vec![
                mm.to_string(),
                f3(gamma),
                f3(0.5 + gamma),
                majorizes(&p, &q).to_string(),
            ]);
        }
    }
    mtable.print();
    println!("\nExpected: true everywhere (the Lemma's algebraic identity).");
}
