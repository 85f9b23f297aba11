//! The TL2 engine: begin / speculative execute / commit, with retries.
//!
//! The commit protocol follows Dice–Shalev–Shavit (DISC 2006) §3:
//!
//! 1. Acquire write-set locks in ascending index order with `try_lock`
//!    (abort on contention — no deadlock, bounded waiting), recording
//!    each cell's pre-lock word in its write-set entry.
//! 2. Obtain the write version `wv` from the clock strategy.
//! 3. Validate the read set against `rv` (skippable when the exact
//!    clock yields `wv == rv + 1`: nothing can have committed between).
//! 4. Write back buffered values, then release each lock installing
//!    `wv` (the `Release` store publishes value and version together).
//!
//! On abort every acquired lock is restored to its pre-lock word and
//! the clock strategy is told why ([`ClockStrategy::on_abort`]);
//! [`TxThread::run`] then retries with exponential backoff.
//!
//! # Buffer ownership
//!
//! The read set and the write set belong to the [`TxThread`], not to
//! the attempt: each attempt borrows them cleared, so once a thread has
//! run its largest transaction shape, no begin, abort or commit touches
//! the allocator. The write set is the only commit-time bookkeeping —
//! entries `[..k]` are exactly the locks held after `k` acquisitions,
//! and each carries the word to restore.

use dlz_pq::Backoff;

use crate::clock::ClockStrategy;
use crate::stats::TxStats;
use crate::tarray::TArray;
use crate::tx::{Abort, AbortReason, Tx, TxBuffers, WriteEntry};
use crate::vlock::{is_locked, version_of};

/// A TL2 software transactional memory over a [`TArray`].
///
/// Generic over the [`ClockStrategy`]: an [`ExactCounter`] gives
/// classical TL2 (GV1), [`RelaxedClock`] gives the paper's Section-8
/// variant.
///
/// [`ExactCounter`]: dlz_core::ExactCounter
/// [`RelaxedClock`]: crate::clock::RelaxedClock
///
/// # Example
/// ```
/// use dlz_core::ExactCounter;
/// use dlz_stm::Tl2;
///
/// let stm = Tl2::new(16, ExactCounter::new());
/// let mut thread = stm.thread();
/// // Transfer 10 units from cell 0 to cell 1, atomically.
/// thread.run(|tx| {
///     let a = tx.read(0)?;
///     let b = tx.read(1)?;
///     tx.write(0, a.wrapping_sub(10));
///     tx.write(1, b.wrapping_add(10));
///     Ok(())
/// });
/// assert_eq!(stm.array().read_quiescent(1), 10);
/// ```
#[derive(Debug)]
pub struct Tl2<C: ClockStrategy> {
    array: TArray,
    clock: C,
}

impl<C: ClockStrategy> Tl2<C> {
    /// `len` zeroed transactional cells under `clock`.
    pub fn new(len: usize, clock: C) -> Self {
        Tl2 {
            array: TArray::new(len),
            clock,
        }
    }

    /// Builds from initial values.
    pub fn from_values(values: &[u64], clock: C) -> Self {
        Tl2 {
            array: TArray::from_values(values),
            clock,
        }
    }

    /// The underlying array (quiescent reads, correctness checks).
    pub fn array(&self) -> &TArray {
        &self.array
    }

    /// The clock strategy.
    pub fn clock(&self) -> &C {
        &self.clock
    }

    /// Creates a per-thread execution handle. Each OS thread should own
    /// exactly one (it carries the thread's `tmax`, statistics and
    /// transaction buffers).
    pub fn thread(&self) -> TxThread<'_, C> {
        TxThread {
            stm: self,
            tmax: 0,
            stats: TxStats::default(),
            buffers: TxBuffers::default(),
        }
    }
}

/// Per-thread transaction executor.
#[derive(Debug)]
pub struct TxThread<'a, C: ClockStrategy> {
    stm: &'a Tl2<C>,
    /// Largest timestamp encountered (drives the relaxed clock's
    /// future-writing; unused by the exact clock).
    tmax: u64,
    stats: TxStats,
    buffers: TxBuffers,
}

impl<'a, C: ClockStrategy> TxThread<'a, C> {
    /// Runs `body` as a transaction, retrying until it commits, and
    /// returns its result.
    ///
    /// The body may be re-executed many times; it must be side-effect
    /// free apart from `Tx` operations. Return `Err(abort)` (e.g. by
    /// `?`-propagating a failed [`Tx::read`]) to request a retry.
    pub fn run<R>(&mut self, mut body: impl FnMut(&mut Tx<'_>) -> Result<R, Abort>) -> R {
        let mut backoff = Backoff::new();
        loop {
            match self.try_once(&mut body) {
                Ok(result) => return result,
                Err(_) => backoff.snooze(),
            }
        }
    }

    /// Attempts to run `body` once (no retry): one begin → body →
    /// commit. `Ok` on commit; an abort is recorded and reported to the
    /// clock before it is returned, so a caller's own retry loop gets
    /// past a future stamp exactly as [`run`](Self::run) does.
    #[inline]
    pub fn try_once<R>(
        &mut self,
        body: impl FnOnce(&mut Tx<'_>) -> Result<R, Abort>,
    ) -> Result<R, AbortReason> {
        let stm = self.stm;
        let rv = stm.clock.read_version(self.tmax);
        self.tmax = self.tmax.max(rv);
        let mut tx = Tx::new(&stm.array, rv, &mut self.buffers);
        let outcome = match body(&mut tx) {
            Ok(result) => Self::try_commit(stm, self.tmax, tx).map(|()| result),
            Err(Abort(reason)) => Err(reason),
        };
        match &outcome {
            Ok(_) => self.stats.commits += 1,
            Err(reason) => {
                self.stats.record_abort(*reason);
                stm.clock.on_abort(*reason);
            }
        }
        outcome
    }

    /// This thread's statistics so far.
    pub fn stats(&self) -> TxStats {
        self.stats
    }

    /// This thread's largest encountered timestamp.
    pub fn tmax(&self) -> u64 {
        self.tmax
    }

    /// TL2 commit (see module docs). `tmax` is the committing thread's.
    fn try_commit(stm: &Tl2<C>, tmax: u64, tx: Tx<'_>) -> Result<(), AbortReason> {
        let array = &stm.array;
        let rv = tx.rv();
        let Tx {
            read_set,
            write_set,
            ..
        } = tx;

        // Read-only fast path: reads were validated against rv as they
        // happened; nothing to publish (TL2's read-only optimization).
        if write_set.is_empty() {
            return Ok(());
        }

        // 1. Lock the write set in ascending index order.
        write_set.sort_unstable_by_key(|e| e.index);
        let mut max_old = 0;
        for k in 0..write_set.len() {
            let Some(old_word) = array.slot(write_set[k].index as usize).lock.try_lock() else {
                restore(array, &write_set[..k]);
                return Err(AbortReason::LockBusy);
            };
            write_set[k].old_word = old_word;
            max_old = max_old.max(version_of(old_word));
        }

        // 2. Write version.
        let wv = stm.clock.write_version(tmax, max_old);

        // 3. Read-set validation (skippable for exact clocks when no
        //    transaction can have interleaved).
        let skip = stm.clock.is_exact() && wv == rv + 1;
        if !skip {
            for &i in read_set.iter() {
                // A location we also wrote is locked by us: judge it by
                // its (unlocked) word at lock time.
                let word = match write_set.iter().find(|e| e.index == i) {
                    Some(entry) => entry.old_word,
                    None => array.slot(i as usize).lock.load(),
                };
                if is_locked(word) || version_of(word) > rv {
                    restore(array, write_set);
                    return Err(AbortReason::ReadValidation);
                }
            }
        }

        // 4. Write back, then release with wv. The Release store in
        //    unlock_with_version publishes the Relaxed value store.
        for e in write_set.iter() {
            array
                .slot(e.index as usize)
                .value
                .store(e.value, std::sync::atomic::Ordering::Relaxed);
        }
        for e in write_set.iter() {
            array.slot(e.index as usize).lock.unlock_with_version(wv);
        }
        // Deliberately NOT folding wv into tmax: with the relaxed clock
        // wv is stamped Δ *in the future*, and a thread whose tmax
        // absorbed its own future stamps would drift ahead of the
        // global time by Δ per commit — versions would then outrun the
        // counter forever and every reader would live in permanent
        // FutureVersion aborts. tmax tracks observed *present* time
        // (read versions) only; future stamps are paid for by the
        // bounded wait the paper describes ("at least Δ operations
        // should occur" before the object is read again).
        Ok(())
    }
}

/// Abort path of commit: releases `held` (locked write-set entries),
/// restoring each cell's pre-lock word.
fn restore(array: &TArray, held: &[WriteEntry]) {
    for e in held {
        array.slot(e.index as usize).lock.unlock_restore(e.old_word);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::RelaxedClock;
    use dlz_core::{ExactCounter, MultiCounter, RelaxedCounter};
    use std::sync::Arc;

    #[test]
    fn single_threaded_increments() {
        let stm = Tl2::new(4, ExactCounter::new());
        let mut t = stm.thread();
        for _ in 0..100 {
            t.run(|tx| tx.add(2, 1));
        }
        assert_eq!(stm.array().read_quiescent(2), 100);
        assert_eq!(t.stats().commits, 100);
        assert_eq!(t.stats().aborts, 0);
    }

    #[test]
    fn read_only_transactions_commit_without_clock_ticks() {
        let stm = Tl2::new(4, ExactCounter::new());
        let mut t = stm.thread();
        let before = stm.clock().read();
        let v = t.run(|tx| tx.read(0));
        assert_eq!(v, 0);
        assert_eq!(stm.clock().read(), before, "read-only must not tick");
    }

    #[test]
    fn atomic_transfer_preserves_sum() {
        let stm = Arc::new(Tl2::from_values(
            &[1000, 1000, 1000, 1000],
            ExactCounter::new(),
        ));
        std::thread::scope(|s| {
            for t in 0..4usize {
                let stm = Arc::clone(&stm);
                s.spawn(move || {
                    let mut h = stm.thread();
                    let mut x: u64 = 0x9e3779b9 + t as u64;
                    for _ in 0..5_000 {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        let from = (x % 4) as usize;
                        let to = ((x >> 8) % 4) as usize;
                        h.run(|tx| {
                            let a = tx.read(from)?;
                            let b = tx.read(to)?;
                            if from != to {
                                tx.write(from, a.wrapping_sub(1));
                                tx.write(to, b.wrapping_add(1));
                            }
                            Ok(())
                        });
                    }
                });
            }
        });
        assert!(!stm.array().any_locked());
        assert_eq!(stm.array().sum_quiescent(), 4000);
    }

    #[test]
    fn paper_workload_exact_clock() {
        // The Section 8 benchmark: pick 2 random slots, increment both.
        // Safety check: final sum == 2 × commits.
        let stm = Arc::new(Tl2::new(256, ExactCounter::new()));
        let total_commits: u64 = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4usize)
                .map(|t| {
                    let stm = Arc::clone(&stm);
                    s.spawn(move || {
                        let mut h = stm.thread();
                        let mut x: u64 = 777 + t as u64;
                        for _ in 0..5_000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let i = (x % 256) as usize;
                            let j = ((x >> 16) % 256) as usize;
                            h.run(|tx| {
                                tx.add(i, 1)?;
                                if j != i {
                                    tx.add(j, 1)?;
                                } else {
                                    tx.add(j, 1)?; // same slot twice: +2 total
                                }
                                Ok(())
                            });
                        }
                        h.stats().commits
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total_commits, 20_000);
        assert_eq!(stm.array().sum_quiescent(), 2 * total_commits as u128);
    }

    #[test]
    fn paper_workload_relaxed_clock() {
        // Same workload under the relaxed MultiCounter clock; the sum
        // check is the paper's correctness verification.
        let clock = RelaxedClock::new(MultiCounter::new(32), 64);
        let stm = Arc::new(Tl2::new(1024, clock));
        let total_commits: u64 = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4usize)
                .map(|t| {
                    let stm = Arc::clone(&stm);
                    s.spawn(move || {
                        let mut h = stm.thread();
                        let mut x: u64 = 31337 + t as u64;
                        for _ in 0..5_000 {
                            x ^= x << 13;
                            x ^= x >> 7;
                            x ^= x << 17;
                            let i = (x % 1024) as usize;
                            let j = ((x >> 16) % 1024) as usize;
                            h.run(|tx| {
                                tx.add(i, 1)?;
                                tx.add(j, 1)?;
                                Ok(())
                            });
                        }
                        h.stats().commits
                    })
                })
                .collect();
            hs.into_iter().map(|h| h.join().unwrap()).sum()
        });
        assert_eq!(total_commits, 20_000);
        assert_eq!(stm.array().sum_quiescent(), 2 * total_commits as u128);
        assert!(!stm.array().any_locked());
    }

    #[test]
    fn conflicting_writers_serialize() {
        // All threads increment the SAME slot: maximal contention, the
        // final value must still be exact.
        let stm = Arc::new(Tl2::new(1, ExactCounter::new()));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let stm = Arc::clone(&stm);
                s.spawn(move || {
                    let mut h = stm.thread();
                    for _ in 0..2_500 {
                        h.run(|tx| tx.add(0, 1));
                    }
                });
            }
        });
        assert_eq!(stm.array().read_quiescent(0), 10_000);
    }

    #[test]
    fn try_once_reports_abort() {
        let stm = Tl2::new(2, ExactCounter::new());
        // Hold a lock to force LockBusy.
        let old = stm.array().slot(0).lock.try_lock().unwrap();
        let mut h = stm.thread();
        let r = h.try_once(|tx| {
            tx.write(0, 1);
            Ok(())
        });
        assert_eq!(r, Err(AbortReason::LockBusy));
        stm.array().slot(0).lock.unlock_restore(old);
        assert!(h
            .try_once(|tx| {
                tx.write(0, 1);
                Ok(())
            })
            .is_ok());
        assert_eq!(h.stats().commits, 1);
        assert_eq!(h.stats().lock_busy, 1);
    }

    #[test]
    fn try_once_retries_get_past_a_future_stamp() {
        // A write on one handle, then `try_once(read)` retried from a
        // second handle with nobody else committing: only `on_abort` can
        // move the clock past the stamp, so a retry must commit.
        let stm = Tl2::new(2, RelaxedClock::new(MultiCounter::new(4), 16));
        stm.thread().run(|tx| {
            tx.write(0, 99);
            Ok(())
        });
        let mut reader = stm.thread();
        for attempt in 1..=64u64 {
            match reader.try_once(|tx| tx.read(0)) {
                Ok(v) => {
                    assert_eq!(v, 99);
                    assert_eq!(reader.stats().aborts, attempt - 1);
                    assert!(attempt > 1, "the write is future-stamped");
                    return;
                }
                Err(reason) => assert_eq!(reason, AbortReason::FutureVersion),
            }
        }
        panic!("try_once still FutureVersion after 64 attempts: on_abort never ran");
    }

    #[test]
    fn failed_commit_restores_every_lock_it_took() {
        // Write set {0, 1, 2} with slot 2 held elsewhere: commit locks
        // 0 and 1, fails on 2, and must hand 0 and 1 back at their old
        // versions — the write set is the only record of what it holds.
        let stm = Tl2::new(3, ExactCounter::new());
        let mut h = stm.thread();
        h.run(|tx| {
            tx.write(0, 7);
            tx.write(1, 8);
            Ok(())
        });
        let words = || [0, 1, 2].map(|i| stm.array().slot(i).lock.load());
        let before = words();
        let held = stm.array().slot(2).lock.try_lock().unwrap();
        let r = h.try_once(|tx| {
            for i in [2, 0, 1] {
                tx.write(i, 1);
            }
            Ok(())
        });
        assert_eq!(r, Err(AbortReason::LockBusy));
        stm.array().slot(2).lock.unlock_restore(held);
        assert_eq!(words(), before);
        assert_eq!(stm.array().snapshot(), [7, 8, 0]);
    }

    #[test]
    fn overwritten_read_of_an_own_written_slot_fails_validation() {
        // h1 reads slot 0, h2 commits over it, h1 then writes slot 0:
        // h1 holds the lock at validation time, so the verdict has to
        // come from the pre-lock word kept in its write-set entry.
        let stm = Tl2::new(1, ExactCounter::new());
        let (mut h1, mut h2) = (stm.thread(), stm.thread());
        let r = h1.try_once(|tx| {
            let v = tx.read(0)?;
            h2.run(|tx2| tx2.add(0, 10));
            tx.write(0, v + 1);
            Ok(())
        });
        assert_eq!(r, Err(AbortReason::ReadValidation));
        assert!(!stm.array().any_locked());
        assert_eq!(stm.array().read_quiescent(0), 10);
        h1.run(|tx| tx.add(0, 1));
        assert_eq!(stm.array().read_quiescent(0), 11);
    }

    #[test]
    fn user_abort_retries_until_condition() {
        let stm = Tl2::new(1, ExactCounter::new());
        let mut h = stm.thread();
        let mut attempts = 0;
        h.run(|tx| {
            attempts += 1;
            if attempts < 3 {
                tx.abort()
            } else {
                Ok(())
            }
        });
        assert_eq!(attempts, 3);
        assert_eq!(h.stats().user, 2);
    }

    #[test]
    fn relaxed_clock_future_reads_abort_then_recover() {
        // A fresh write under the relaxed clock is stamped ~Δ in the
        // future; an immediate reader may observe FutureVersion aborts
        // but must eventually succeed as the counter advances.
        let clock = RelaxedClock::new(MultiCounter::new(4), 16);
        let stm = Tl2::new(2, clock);
        let mut w = stm.thread();
        w.run(|tx| {
            tx.write(0, 99);
            Ok(())
        });
        let mut r = stm.thread();
        let v = r.run(|tx| tx.read(0));
        assert_eq!(v, 99);
    }
}
