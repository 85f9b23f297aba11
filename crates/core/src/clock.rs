//! Timestamp sources: exact and hardware-like.
//!
//! **Algorithm 2** (MultiQueue) enqueues with a wall-clock priority. The
//! paper uses `RDTSC`; [`MonotonicNanoClock`] provides the same
//! "consistent-across-threads, monotone" contract from `std::time`, and
//! [`FaaClock`] provides a logical (Lamport-style) alternative whose
//! timestamps are unique — handy for deterministic tests.
//!
//! Section 8's *relaxed* clock is not a [`Clock`]: it lives in `dlz_stm`
//! as `RelaxedClock`, where TL2 needs its Δ margin, and ticks with
//! [`MultiCounter::increment_sampled`](crate::MultiCounter::increment_sampled).
//!
//! The trait deliberately separates advancing ([`Clock::tick`]) from
//! observing ([`Clock::now`]): TL2 commits tick, TL2 reads only observe.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use dlz_pq::CachePadded;

/// A source of 64-bit timestamps shared by many threads.
pub trait Clock: Send + Sync {
    /// Advances the clock and returns a timestamp not smaller than any
    /// timestamp this call observes (exact clocks: strictly larger than
    /// all previously *returned* ones).
    fn tick(&self) -> u64;

    /// Observes the current time without advancing it.
    fn now(&self) -> u64;
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
}
