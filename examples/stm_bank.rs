//! A transactional bank on TL2: exact vs relaxed global clock.
//!
//! Accounts live in a transactional array; threads perform random
//! transfers (read 2, write 2 — the shape of the paper's benchmark) and
//! occasional full-balance audits (read-only transactions). At the end
//! the total balance must be exactly conserved — the same style of
//! whole-state verification the paper used for its relaxed-TL2 runs.
//!
//! ```text
//! cargo run --release --example stm_bank
//! ```

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use distlin::core::rng::{Rng64, Xoshiro256};
use distlin::core::{ExactCounter, MultiCounter};
use distlin::stm::{ClockStrategy, RelaxedClock, Tl2, TxStats};

// 100K accounts puts the workload in the paper's Fig-1(c)/(d) regime:
// the fraction of accounts carrying a future timestamp at any moment is
// ~2Δ/M < 1%, so relaxed-clock aborts stay rare. Shrinking this to 10K
// reproduces the Fig-1(e) abort collapse instead (try it!).
const ACCOUNTS: usize = 100_000;
const INITIAL: u64 = 1_000;

fn run_bank<C: ClockStrategy>(name: &str, stm: &Tl2<C>, threads: usize, dur: Duration) {
    let stop = AtomicBool::new(false);
    let stats = Mutex::new(TxStats::default());
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for t in 0..threads {
            let stm = &stm;
            let stop = &stop;
            let stats = &stats;
            s.spawn(move || {
                let mut handle = stm.thread();
                let mut rng = Xoshiro256::new(0xACC0 + t as u64);
                while !stop.load(Ordering::Relaxed) {
                    let a = rng.bounded(ACCOUNTS as u64) as usize;
                    let b = rng.bounded(ACCOUNTS as u64) as usize;
                    if rng.bounded(100) < 1 {
                        // Occasional audit of an 8-account window
                        // (read-only transaction). Every account read
                        // must be past its (possibly future-stamped)
                        // version, so wide audits are the relaxed
                        // clock's worst case; keep them narrow.
                        let start = rng.bounded((ACCOUNTS - 8) as u64) as usize;
                        let sum = handle.run(|tx| {
                            let mut s = 0u64;
                            for k in 0..8 {
                                s += tx.read(start + k)?;
                            }
                            Ok(s)
                        });
                        // An audit sees a consistent snapshot, so a
                        // window can never show a torn transfer; its sum
                        // is bounded by the global invariant.
                        assert!(sum <= ACCOUNTS as u64 * INITIAL);
                    } else {
                        let amount = 1 + rng.bounded(10);
                        handle.run(|tx| {
                            let va = tx.read(a)?;
                            let vb = tx.read(b)?;
                            if a != b && va >= amount {
                                tx.write(a, va - amount);
                                tx.write(b, vb + amount);
                            }
                            Ok(())
                        });
                    }
                }
                stats.lock().unwrap().merge(&handle.stats());
            });
        }
        std::thread::sleep(dur);
        stop.store(true, Ordering::Release);
    });
    let elapsed = t0.elapsed().as_secs_f64();
    let stats = stats.into_inner().unwrap();
    let total = stm.array().sum_quiescent();
    println!(
        "  {name:<14}: {:.3} M txn/s, abort rate {:.2}%, total balance {} {}",
        stats.commits as f64 / elapsed / 1e6,
        stats.abort_rate() * 100.0,
        total,
        if total == (ACCOUNTS as u128) * (INITIAL as u128) {
            "✓ conserved"
        } else {
            "✗ VIOLATED"
        }
    );
    assert_eq!(total, (ACCOUNTS as u128) * (INITIAL as u128));
}

fn main() {
    let threads = 4;
    let dur = Duration::from_millis(800);
    println!("TL2 bank: {ACCOUNTS} accounts x {INITIAL} units, {threads} threads, {dur:?}\n");

    let initial = vec![INITIAL; ACCOUNTS];

    let exact = Tl2::from_values(&initial, ExactCounter::new());
    run_bank("exact clock", &exact, threads, dur);

    // Clock sizing: small m and tight κ keep Δ (and with it the
    // future-window abort cost) low; see the clock_tuning ablation.
    let m = (2 * threads).max(4);
    let relaxed = Tl2::from_values(
        &initial,
        RelaxedClock::new(MultiCounter::new(m), RelaxedClock::suggested_delta(m, 3.0)),
    );
    run_bank("relaxed clock", &relaxed, threads, dur);

    println!("\nInterpretation: the relaxed clock pays extra aborts on freshly-written");
    println!("accounts (versions stamped Δ in the future) in exchange for removing the");
    println!("FAA clock's cache-line contention. On machines with few cores the FAA is");
    println!("cheap and wins outright; its collapse — and the relaxed clock's >3x win in");
    println!("the paper — appears at high thread counts (run `fig1cde` for the sweep).");
    println!("Money is conserved in both runs: the with-high-probability safety of");
    println!("Section 8, verified explicitly.");
}
