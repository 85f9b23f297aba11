//! Global-clock strategies for TL2: exact fetch-and-add (GV1, the
//! [`ExactCounter`]) vs the paper's relaxed MultiCounter clock with Δ
//! future-writing — the two clocks Section 8 compares.
//!
//! TL2's correctness argument leans on the global version clock `G`:
//! a transaction reads `rv = G` at start and trusts any location whose
//! version is ≤ rv to be a committed, pre-start value. The clock is
//! bumped by every writing commit — a fetch-and-add bottleneck at scale
//! (the paper's motivation).
//!
//! The relaxed strategy (Section 8) replaces `G` with a MultiCounter
//! and has writers stamp "in the future": the commit version is
//! `max(tmax, sample, old versions) + Δ`, where `tmax` is the largest
//! timestamp the thread has encountered and Δ exceeds the counter's
//! expected skew. Readers that encounter a future version abort and
//! retry — the safe direction. Serializability then holds *with high
//! probability* rather than certainly; the experimental harness verifies
//! the final state explicitly, as the paper did.
//!
//! A commit is one pass over the counter: the `sample` is the first
//! probe of the two-choice increment that advances the clock (see
//! [`RelaxedClock`]'s `write_version`), not a second `Read()` after it.

use dlz_core::counter::{ExactCounter, MultiCounter, RelaxedCounter};
use dlz_core::rng::with_thread_rng;

/// How a TL2 instance obtains read and write versions.
pub trait ClockStrategy: Send + Sync {
    /// Read version for a transaction beginning now. `tmax` is the
    /// calling thread's largest encountered timestamp (ignored by exact
    /// clocks).
    fn read_version(&self, tmax: u64) -> u64;

    /// Write (commit) version for a committing transaction. `tmax` is
    /// the thread's running maximum; `max_old_version` is the largest
    /// pre-commit version among the write-set entries (so the new
    /// version can be made strictly larger). Advances the global clock.
    fn write_version(&self, tmax: u64, max_old_version: u64) -> u64;

    /// `true` if the clock orders commits exactly (enables TL2's
    /// `wv == rv + 1` validation short-cut).
    fn is_exact(&self) -> bool;

    /// Called by the engine after every abort.
    ///
    /// The relaxed clock uses this for liveness, in the spirit of TL2's
    /// GV5 ("increment on abort") variant: a thread that keeps aborting
    /// on future versions nudges the distributed clock forward, so the
    /// global time is guaranteed to pass the blocking version even if
    /// no other thread is committing. Exact clocks need no such help.
    fn on_abort(&self, _reason: crate::tx::AbortReason) {}
}

/// The TL2 baseline: one fetch-and-add word (called GV1 in TL2's
/// terminology). Every writing commit draws a unique version, so the
/// clock orders commits exactly — and every commit is a contended RMW on
/// one cache line, the bottleneck Section 8 attacks.
impl ClockStrategy for ExactCounter {
    #[inline]
    fn read_version(&self, _tmax: u64) -> u64 {
        self.read()
    }

    #[inline]
    fn write_version(&self, _tmax: u64, _max_old_version: u64) -> u64 {
        self.fetch_increment() + 1
    }

    fn is_exact(&self) -> bool {
        true
    }
}

/// The paper's relaxed strategy: MultiCounter samples plus Δ margin.
#[derive(Debug)]
pub struct RelaxedClock {
    counter: MultiCounter,
    delta: u64,
}

impl RelaxedClock {
    /// Wraps a MultiCounter with safety margin `delta`.
    ///
    /// `delta` must exceed the maximum skew you expect the counter to
    /// exhibit over an execution — the paper's Δ. For an `m`-cell
    /// counter the skew is O(m log m) w.h.p. (Lemma 6.8);
    /// [`suggested_delta`](Self::suggested_delta) computes `κ·m·ln m`.
    pub fn new(counter: MultiCounter, delta: u64) -> Self {
        RelaxedClock { counter, delta }
    }

    /// `κ·m·ln m`, rounded up — the shape of the skew bound.
    pub fn suggested_delta(m: usize, kappa: f64) -> u64 {
        let mf = m as f64;
        (kappa * mf * mf.ln()).ceil().max(1.0) as u64
    }

    /// The configured margin Δ.
    pub fn delta(&self) -> u64 {
        self.delta
    }

    /// The underlying counter (diagnostics).
    pub fn counter(&self) -> &MultiCounter {
        &self.counter
    }
}

impl ClockStrategy for RelaxedClock {
    #[inline]
    fn read_version(&self, tmax: u64) -> u64 {
        // A relaxed sample, floored by the thread's own history so a
        // thread never regresses below versions it already observed
        // (e.g. its own committed writes).
        self.counter.read().max(tmax)
    }

    #[inline]
    fn write_version(&self, tmax: u64, max_old_version: u64) -> u64 {
        // Advance the distributed clock and stamp in the future: beyond
        // our history, beyond a sample of the clock, and beyond every
        // overwritten version (so per-location versions stay monotone —
        // "each new write always increments an object's timestamp by
        // ≥ Δ").
        //
        // The sample is the increment's own first probe. Algorithm 1's
        // `Increment()` draws `i` uniformly and reads `Counters[i]`
        // before it updates anything, and `m * Counters[i]` for a
        // uniform `i` is, word for word, Algorithm 1's `Read()` — here
        // linearised one step (our own increment) earlier than a
        // separate read would be. Lemma 6.8 bounds `|m·x_i − total|`
        // for every cell at once, so the sample's skew bound does not
        // care that `i` is also a candidate target, and the one missing
        // tick is inside Δ. What it saves is a second thread-local
        // look-up, an index draw and a third cell's cache line per commit.
        let sample = with_thread_rng(|rng| self.counter.increment_sampled(rng));
        sample.max(tmax).max(max_old_version) + self.delta
    }

    fn is_exact(&self) -> bool {
        false
    }

    fn on_abort(&self, reason: crate::tx::AbortReason) {
        // Only future-version aborts indicate the clock is behind a
        // stamped version; advancing on them restores liveness without
        // inflating the clock on ordinary contention aborts.
        //
        // The blocking stamp sits at most Δ ahead of the aborting
        // thread's read version, so nudging by Δ/4 (+1) bridges any
        // hole within ~4 retries instead of Δ — this is what keeps the
        // stall cost of a future-stamped object bounded even when no
        // other thread is committing (e.g. single-threaded use). The
        // overshoot per abort is ≤ Δ/4 ticks of logical time, which
        // only makes the clock run slightly fast — harmless, since all
        // guarantees are relative to the clock itself.
        if reason == crate::tx::AbortReason::FutureVersion {
            for _ in 0..(self.delta / 4 + 1) {
                self.counter.increment();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_clock_monotone_unique() {
        let c = ExactCounter::new();
        let rv = c.read_version(0);
        let wv1 = c.write_version(0, 0);
        let wv2 = c.write_version(0, 0);
        assert_eq!((rv, wv1, wv2, c.read()), (0, 1, 2, 2));
        assert!(ClockStrategy::is_exact(&c));
    }

    #[test]
    fn faa_clock_unique_under_contention() {
        // TL2's `wv == rv + 1` short-cut is sound only if no two commits
        // share a write version.
        let c = ExactCounter::new();
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(|| {
                        (0..10_000)
                            .map(|_| c.write_version(0, 0))
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        all.sort_unstable();
        assert_eq!(all, (1..=40_000).collect::<Vec<_>>());
    }

    #[test]
    fn per_thread_monotonicity_across_threads() {
        // A transaction that begins after a commit returned must see it:
        // its read version, on any thread, is at least that write version.
        let c = ExactCounter::new();
        let wv = c.write_version(0, 0);
        let rv = std::thread::scope(|s| s.spawn(|| c.read_version(0)).join().unwrap());
        assert!(rv >= wv);
    }

    #[test]
    fn relaxed_write_version_exceeds_everything() {
        let c = RelaxedClock::new(MultiCounter::new(8), 100);
        let tmax = 500;
        let old = 620;
        let wv = c.write_version(tmax, old);
        assert!(wv >= tmax + 100);
        assert!(wv >= old + 100);
        assert!(!c.is_exact());
    }

    #[test]
    fn relaxed_write_version_is_one_traced_increment() {
        // The recipe, pinned: wv = max(m·vi, tmax, old) + Δ with `vi`
        // the first probe of the one increment the call performs, as
        // `increment_sampled` reports it on a twin counter fed the same
        // random stream.
        use dlz_core::rng::{reseed_thread_rng, Rng64, Xoshiro256};
        let (m, delta) = (8, 24);
        for seed in 0..16 {
            let clock = RelaxedClock::new(MultiCounter::new(m), delta);
            let twin = MultiCounter::new(m);
            let mut twin_rng = Xoshiro256::new(seed);
            let mut args = Xoshiro256::new(!seed);
            reseed_thread_rng(seed);
            for calls in 1..=400 {
                // Floors that sometimes lose to the sample, sometimes win.
                let (tmax, old) = (args.bounded(2 * calls), args.bounded(2 * calls));
                let wv = clock.write_version(tmax, old);
                let sample = twin.increment_sampled(&mut twin_rng);
                assert_eq!(wv, sample.max(tmax).max(old) + delta, "seed {seed}");
                assert_eq!(clock.counter().read_exact(), calls, "seed {seed}");
            }
            assert_eq!(clock.counter().cell_values(), twin.cell_values());
        }
    }

    #[test]
    fn relaxed_read_version_floors_at_tmax() {
        let c = RelaxedClock::new(MultiCounter::new(8), 10);
        // Counter is near zero, but the thread has seen timestamp 999.
        assert!(c.read_version(999) >= 999);
    }

    #[test]
    fn suggested_delta_scales() {
        assert!(RelaxedClock::suggested_delta(64, 4.0) > RelaxedClock::suggested_delta(8, 4.0));
        assert!(RelaxedClock::suggested_delta(1, 4.0) >= 1);
    }
}
