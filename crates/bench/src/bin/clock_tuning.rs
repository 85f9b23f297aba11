//! **Ablation: relaxed-clock parameters (m, Δ)** — the trade-off behind
//! Section 8's "for some settings of parameters".
//!
//! The safety margin Δ must exceed the MultiCounter's skew (≈ m·gap ≈
//! O(m log m)), but every future-stamped object is unreadable until the
//! clock advances Δ past its stamp, so the *cost* of the relaxed clock
//! grows superlinearly in Δ: the future-window covers ~2Δ/M of the
//! array, and each hit costs ~Δ ticks of waiting. Small counters (m ≈
//! 2n) with tight margins are therefore the right setting at laptop
//! scale, and this binary shows the whole curve.
//!
//! ```text
//! cargo run -p dlz-bench --release --bin clock_tuning
//! ```

use std::sync::Mutex;
use std::time::Instant;

use dlz_bench::tables::f3;
use dlz_bench::{Config, Table};
use dlz_core::rng::{Rng64, Xoshiro256};
use dlz_core::{ExactCounter, MultiCounter};
use dlz_stm::{ClockStrategy, RelaxedClock, Tl2, TxStats};

fn run<C: ClockStrategy>(stm: &Tl2<C>, threads: usize, per: usize, seed: u64) -> (f64, TxStats) {
    let all = Mutex::new(TxStats::default());
    let objects = stm.array().len() as u64;
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let stm = &stm;
            let all = &all;
            s.spawn(move || {
                let mut h = stm.thread();
                let mut rng = Xoshiro256::new(seed + t as u64);
                for _ in 0..per {
                    let i = rng.bounded(objects) as usize;
                    let j = rng.bounded(objects) as usize;
                    h.run(|tx| {
                        tx.add(i, 1)?;
                        tx.add(j, 1)?;
                        Ok(())
                    });
                }
                all.lock().unwrap().merge(&h.stats());
            });
        }
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = all.into_inner().unwrap();
    assert_eq!(
        stm.array().sum_quiescent(),
        2 * stats.commits as u128,
        "safety check"
    );
    (stats.commits as f64 / elapsed / 1e6, stats)
}

const FLAGS: &[&str] = &["--seed", "--quick", "--threads"];

fn main() {
    let cfg = Config::from_args(FLAGS);
    let threads = *cfg.threads.last().expect("non-empty");
    let objects = 100_000;
    let per = cfg.steps(100_000) as usize;

    println!(
        "Relaxed-clock parameter sweep: {threads} threads, {objects} objects, {per} txns/thread\n"
    );
    let mut table = Table::new(&["clock", "m", "delta", "Mtx/s", "abort%", "future aborts"]);

    let mut row = |clock: &str, m: String, delta: String, (mops, stats): (f64, TxStats)| {
        table.row(vec![
            clock.into(),
            m,
            delta,
            f3(mops),
            format!("{:.2}", stats.abort_rate() * 100.0),
            stats.future_version.to_string(),
        ]);
    };

    let exact = Tl2::new(objects, ExactCounter::new());
    row(
        "exact(GV1)",
        "-".into(),
        "-".into(),
        run(&exact, threads, per, cfg.seed),
    );
    for (m_factor, kappa) in [(8usize, 4.0), (4, 2.0), (2, 3.0), (2, 1.0), (1, 1.0)] {
        let m = (m_factor * threads).max(2);
        let delta = RelaxedClock::suggested_delta(m, kappa);
        let stm = Tl2::new(objects, RelaxedClock::new(MultiCounter::new(m), delta));
        let measured = run(&stm, threads, per, cfg.seed);
        row("relaxed", m.to_string(), delta.to_string(), measured);
    }
    table.print();
    println!("\nExpected shape: throughput falls and future-version aborts climb as Δ grows;");
    println!("the knee sits where the future-window (2Δ/M of objects) times the hole wait");
    println!("(~Δ clock ticks) starts to dominate. All rows pass the sum == 2·commits check.");
}
