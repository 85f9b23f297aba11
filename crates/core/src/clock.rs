//! Timestamp sources: exact, hardware-like, and relaxed.
//!
//! Two parts of the paper need timestamps:
//!
//! * **Algorithm 2** (MultiQueue) enqueues with a wall-clock priority.
//!   The paper uses `RDTSC`; [`MonotonicNanoClock`] provides the same
//!   "consistent-across-threads, monotone" contract from `std::time`,
//!   and [`FaaClock`] provides a logical (Lamport-style) alternative
//!   whose timestamps are unique — handy for deterministic tests.
//! * **Section 8** replaces TL2's fetch-and-add global clock with a
//!   MultiCounter. [`MultiCounterClock`] packages that: `tick()` does a
//!   two-choice increment and returns a relaxed sample of the new time.
//!
//! The trait deliberately separates advancing ([`Clock::tick`]) from
//! observing ([`Clock::now`]): TL2 commits tick, TL2 reads only observe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use crate::counter::{MultiCounter, RelaxedCounter};
use dlz_pq::CachePadded;

/// A source of 64-bit timestamps shared by many threads.
pub trait Clock: Send + Sync {
    /// Advances the clock and returns a timestamp not smaller than any
    /// timestamp this call observes (exact clocks: strictly larger than
    /// all previously *returned* ones; relaxed clocks: approximately so).
    fn tick(&self) -> u64;

    /// Observes the current time without advancing it.
    fn now(&self) -> u64;

    /// `true` if `now()`/`tick()` are exact (linearizable), `false` for
    /// relaxed clocks whose reads carry the paper's O(m log m) skew.
    fn is_exact(&self) -> bool {
        true
    }
}

/// Fetch-and-add logical clock: the TL2 baseline (`GV1` in TL2 terms).
///
/// Every `tick` is unique and totally ordered — and every `tick` is a
/// contended RMW on one cache line, which is the scalability bottleneck
/// Section 8 attacks.
#[derive(Debug, Default)]
pub struct FaaClock {
    time: CachePadded<AtomicU64>,
}

impl FaaClock {
    /// Creates a clock at time zero.
    pub const fn new() -> Self {
        FaaClock {
            time: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Creates a clock starting at `t`.
    pub const fn starting_at(t: u64) -> Self {
        FaaClock {
            time: CachePadded::new(AtomicU64::new(t)),
        }
    }
}

impl Clock for FaaClock {
    #[inline]
    fn tick(&self) -> u64 {
        // Acquire/Release: a thread that sees timestamp t also sees all
        // writes made before the tick that produced t (TL2 relies on
        // this to order commit write-backs with version numbers).
        self.time.fetch_add(1, Ordering::AcqRel) + 1
    }

    #[inline]
    fn now(&self) -> u64 {
        self.time.load(Ordering::Acquire)
    }
}

/// Monotone wall clock in nanoseconds since construction.
///
/// Stand-in for the paper's `RDTSC`: `std::time::Instant` is monotone
/// and consistent across threads (the OS discipline guarantees the
/// ordering property Section 7.1 assumes of per-processor clocks).
/// `tick` and `now` coincide — reading wall time does not advance it.
#[derive(Debug)]
pub struct MonotonicNanoClock {
    epoch: Instant,
}

impl MonotonicNanoClock {
    /// Creates a clock whose zero is "now".
    pub fn new() -> Self {
        MonotonicNanoClock {
            epoch: Instant::now(),
        }
    }
}

impl Default for MonotonicNanoClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for MonotonicNanoClock {
    #[inline]
    fn tick(&self) -> u64 {
        self.now()
    }

    #[inline]
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }
}

/// The paper's relaxed timestamp source: a [`MultiCounter`] as a clock.
///
/// `tick()` performs one two-choice increment and then returns a relaxed
/// read; `now()` only samples. Timestamps are *approximate*: concurrent
/// ticks may observe values up to O(m log m) apart (Theorem 6.1), which
/// is exactly the skew Section 8's Δ-margin absorbs.
#[derive(Debug)]
pub struct MultiCounterClock {
    counter: MultiCounter,
}

impl MultiCounterClock {
    /// Wraps an existing MultiCounter.
    pub fn new(counter: MultiCounter) -> Self {
        MultiCounterClock { counter }
    }

    /// Convenience: builds a MultiCounter with `m` cells.
    pub fn with_counters(m: usize) -> Self {
        Self::new(MultiCounter::new(m))
    }

    /// Access to the underlying counter (for skew diagnostics).
    pub fn counter(&self) -> &MultiCounter {
        &self.counter
    }

    /// The skew bound Δ a user should budget for: `κ · m · ln m`, the
    /// shape of Lemma 6.8's bound with a configurable constant.
    pub fn suggested_delta(&self, kappa: f64) -> u64 {
        let m = self.counter.num_counters() as f64;
        (kappa * m * m.ln()).ceil() as u64
    }
}

impl Clock for MultiCounterClock {
    #[inline]
    fn tick(&self) -> u64 {
        self.counter.increment();
        self.counter.read()
    }

    #[inline]
    fn now(&self) -> u64 {
        self.counter.read()
    }

    fn is_exact(&self) -> bool {
        false
    }
}

/// A trivially shareable atomic clock that only moves when told to —
/// used by tests to script exact timestamp sequences.
#[derive(Debug, Default)]
pub struct ManualClock {
    time: AtomicU64,
}

impl ManualClock {
    /// Creates a clock at zero.
    pub const fn new() -> Self {
        ManualClock {
            time: AtomicU64::new(0),
        }
    }

    /// Sets the time to exactly `t`.
    pub fn set(&self, t: u64) {
        self.time.store(t, Ordering::Release);
    }
}

impl Clock for ManualClock {
    fn tick(&self) -> u64 {
        self.time.fetch_add(1, Ordering::AcqRel) + 1
    }

    fn now(&self) -> u64 {
        self.time.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn faa_clock_ticks_are_unique_and_monotone() {
        let c = FaaClock::new();
        let a = c.tick();
        let b = c.tick();
        assert!(b > a);
        assert_eq!(c.now(), 2);
        assert!(c.is_exact());
    }

    #[test]
    fn faa_clock_unique_under_contention() {
        let c = Arc::new(FaaClock::new());
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let hs: Vec<_> = (0..4)
                .map(|_| {
                    let c = Arc::clone(&c);
                    s.spawn(move || (0..10_000).map(|_| c.tick()).collect::<Vec<_>>())
                })
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 40_000, "duplicate timestamps issued");
    }

    #[test]
    fn monotonic_clock_never_goes_backward() {
        let c = MonotonicNanoClock::new();
        let mut last = 0;
        for _ in 0..1000 {
            let t = c.now();
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn per_thread_monotonicity_across_threads() {
        // The Section 7.1 clock assumption: if thread A's read happens
        // before thread B's read, A's value is not larger.
        let c = Arc::new(MonotonicNanoClock::new());
        let t1 = c.now();
        let c2 = Arc::clone(&c);
        let t2 = std::thread::spawn(move || c2.now()).join().unwrap();
        assert!(t2 >= t1);
    }

    #[test]
    fn multicounter_clock_advances_approximately() {
        let clock = MultiCounterClock::with_counters(8);
        assert!(!clock.is_exact());
        for _ in 0..1000 {
            clock.tick();
        }
        let exact = clock.counter().read_exact();
        assert_eq!(exact, 1000);
        // A sample is within m*max_gap of the exact total.
        let sample = clock.now();
        let slack = 8 * clock.counter().max_gap() + 8;
        assert!(
            (sample as i64 - exact as i64).unsigned_abs() <= slack,
            "sample {sample} vs exact {exact} (slack {slack})"
        );
    }

    #[test]
    fn suggested_delta_grows_with_m() {
        let small = MultiCounterClock::with_counters(8).suggested_delta(1.0);
        let large = MultiCounterClock::with_counters(64).suggested_delta(1.0);
        assert!(large > small);
    }

    #[test]
    fn manual_clock_scripting() {
        let c = ManualClock::new();
        assert_eq!(c.now(), 0);
        c.set(41);
        assert_eq!(c.tick(), 42);
        assert_eq!(c.now(), 42);
    }
}
