//! Cross-crate integration: TL2 with both clock strategies under the
//! paper's workload and adversarial variations.

use std::sync::Mutex;

use distlin::core::rng::{Rng64, Xoshiro256};
use distlin::core::{ExactCounter, MultiCounter};
use distlin::stm::{ClockStrategy, RelaxedClock, Tl2, TxStats};

/// Runs the paper's benchmark (increment two random slots per txn) and
/// verifies the safety condition: final sum == 2 × commits.
fn run_paper_workload<C: ClockStrategy>(
    stm: &Tl2<C>,
    threads: usize,
    txns_per_thread: usize,
    seed: u64,
) -> TxStats {
    let objects = stm.array().len() as u64;
    let all = Mutex::new(TxStats::default());
    std::thread::scope(|s| {
        for t in 0..threads {
            let stm = &stm;
            let all = &all;
            s.spawn(move || {
                let mut handle = stm.thread();
                let mut rng = Xoshiro256::new(seed + t as u64);
                for _ in 0..txns_per_thread {
                    let i = rng.bounded(objects) as usize;
                    let j = rng.bounded(objects) as usize;
                    handle.run(|tx| {
                        tx.add(i, 1)?;
                        tx.add(j, 1)?;
                        Ok(())
                    });
                }
                all.lock().unwrap().merge(&handle.stats());
            });
        }
    });
    let stats = all.into_inner().unwrap();
    assert_eq!(
        stats.commits as usize,
        threads * txns_per_thread,
        "every transaction must eventually commit"
    );
    assert_eq!(
        stm.array().sum_quiescent(),
        2 * stats.commits as u128,
        "safety violated: sum != 2 * commits"
    );
    assert!(!stm.array().any_locked(), "locks must be quiescent");
    stats
}

#[test]
fn exact_clock_paper_workload() {
    let stm = Tl2::new(1_000, ExactCounter::new());
    let stats = run_paper_workload(&stm, 4, 5_000, 0x51);
    assert_eq!(stats.commits, 20_000);
}

#[test]
fn relaxed_clock_paper_workload_large_array() {
    // 100K-object regime: few conflicts. Safety (sum == 2 × commits)
    // and progress are asserted inside `run_paper_workload`.
    let m = 32;
    let stm = Tl2::new(
        100_000,
        RelaxedClock::new(MultiCounter::new(m), RelaxedClock::suggested_delta(m, 4.0)),
    );
    let stats = run_paper_workload(&stm, 4, 3_000, 0x52);
    // The total abort rate is reported, not bounded. With 4 threads on 2
    // cores a descheduled lock holder makes its peers abort on the
    // locked slot until it runs again: one run in 45 read 6,268
    // `locked_read` aborts (rate 0.35) where the others read 0 to 8. An
    // exact-clock twin run beside it does not share the storm (8 aborts
    // next to those 6,479; in another pair 1,898 next to 227), so a twin
    // bounds it no better than a constant does.
    eprintln!(
        "large-array abort rate {:.4}: {stats:?}",
        stats.abort_rate()
    );
    // What the relaxed clock itself adds is future-version aborts (a
    // read of a slot stamped Δ ahead of the reader's clock sample), and
    // those follow the workload, not the scheduler: 199 to 246 per
    // 12,000 commits (1.7% to 2.1%) in each of 45 runs, 30 of them next
    // to a looping `cargo build --release` (docs/perf/PR-23.md). The
    // bound is 2.4 times the worst of them.
    assert!(
        stats.future_version * 20 <= stats.commits,
        "future-version aborts are no longer rare on a large array: {stats:?}"
    );
}

#[test]
fn relaxed_clock_small_array_survives_heavy_aborts() {
    // The Fig-1(e) regime: few objects, frequent re-writes, future
    // stamps collide with readers. Progress and safety must survive
    // even though the abort rate climbs.
    let m = 16;
    let stm = Tl2::new(
        64,
        RelaxedClock::new(MultiCounter::new(m), RelaxedClock::suggested_delta(m, 4.0)),
    );
    let stats = run_paper_workload(&stm, 4, 1_000, 0x53);
    // No rate assertion — the point is termination + the sum check
    // inside run_paper_workload. Record that aborts did happen:
    assert!(stats.attempts() >= stats.commits);
}

#[test]
fn exact_clock_heavy_conflict_single_slot() {
    let stm = Tl2::new(1, ExactCounter::new());
    std::thread::scope(|s| {
        for _ in 0..4 {
            let stm = &stm;
            s.spawn(move || {
                let mut handle = stm.thread();
                for _ in 0..2_000 {
                    handle.run(|tx| tx.add(0, 1));
                }
            });
        }
    });
    assert_eq!(stm.array().read_quiescent(0), 8_000);
}

#[test]
fn snapshot_consistency_under_transfers() {
    // Writers keep `slot[2k] + slot[2k+1] == 100` invariant pairwise;
    // readers transactionally read pairs and assert the invariant —
    // torn reads would break it.
    let pairs = 64usize;
    let init: Vec<u64> = (0..2 * pairs)
        .map(|i| if i % 2 == 0 { 100 } else { 0 })
        .collect();
    let stm = Tl2::from_values(&init, ExactCounter::new());
    std::thread::scope(|s| {
        // Writers.
        for t in 0..2 {
            let stm = &stm;
            s.spawn(move || {
                let mut handle = stm.thread();
                let mut rng = Xoshiro256::new(0x60 + t as u64);
                for _ in 0..5_000 {
                    let k = rng.bounded(pairs as u64) as usize;
                    let amt = rng.bounded(5);
                    handle.run(|tx| {
                        let a = tx.read(2 * k)?;
                        let b = tx.read(2 * k + 1)?;
                        if a >= amt {
                            tx.write(2 * k, a - amt);
                            tx.write(2 * k + 1, b + amt);
                        }
                        Ok(())
                    });
                }
            });
        }
        // Readers.
        for t in 0..2 {
            let stm = &stm;
            s.spawn(move || {
                let mut handle = stm.thread();
                let mut rng = Xoshiro256::new(0x70 + t as u64);
                for _ in 0..5_000 {
                    let k = rng.bounded(pairs as u64) as usize;
                    let (a, b) = handle.run(|tx| Ok((tx.read(2 * k)?, tx.read(2 * k + 1)?)));
                    assert_eq!(a + b, 100, "torn read: pair {k} = ({a}, {b})");
                }
            });
        }
    });
    assert_eq!(stm.array().sum_quiescent(), 100 * pairs as u128);
}

#[test]
fn snapshot_consistency_relaxed_clock() {
    // Same invariant under the relaxed clock: this is the w.h.p.-safety
    // regime. With Δ = 4·m·ln m and this contention level, a violation
    // has negligible probability — and the run would fail loudly.
    let pairs = 64usize;
    let init: Vec<u64> = (0..2 * pairs)
        .map(|i| if i % 2 == 0 { 100 } else { 0 })
        .collect();
    let m = 16;
    let stm = Tl2::from_values(
        &init,
        RelaxedClock::new(MultiCounter::new(m), RelaxedClock::suggested_delta(m, 4.0)),
    );
    std::thread::scope(|s| {
        for t in 0..2 {
            let stm = &stm;
            s.spawn(move || {
                let mut handle = stm.thread();
                let mut rng = Xoshiro256::new(0x80 + t as u64);
                for _ in 0..3_000 {
                    let k = rng.bounded(pairs as u64) as usize;
                    let amt = rng.bounded(5);
                    handle.run(|tx| {
                        let a = tx.read(2 * k)?;
                        let b = tx.read(2 * k + 1)?;
                        if a >= amt {
                            tx.write(2 * k, a - amt);
                            tx.write(2 * k + 1, b + amt);
                        }
                        Ok(())
                    });
                }
            });
        }
        for t in 0..2 {
            let stm = &stm;
            s.spawn(move || {
                let mut handle = stm.thread();
                let mut rng = Xoshiro256::new(0x90 + t as u64);
                for _ in 0..3_000 {
                    let k = rng.bounded(pairs as u64) as usize;
                    let (a, b) = handle.run(|tx| Ok((tx.read(2 * k)?, tx.read(2 * k + 1)?)));
                    assert_eq!(a + b, 100, "torn read under relaxed clock");
                }
            });
        }
    });
    assert_eq!(stm.array().sum_quiescent(), 100 * pairs as u128);
}

#[test]
fn multicounter_clock_is_actually_relaxed() {
    // Meta-check: the relaxed runs above really exercised a relaxed
    // clock (not an exact one in disguise).
    let clock = RelaxedClock::new(MultiCounter::new(8), 32);
    assert!(!clock.is_exact());
    assert_eq!(clock.delta(), 32);
}
