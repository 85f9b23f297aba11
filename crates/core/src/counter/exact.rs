//! The exact, linearizable counter: the workspace's one fetch-and-add
//! word.
//!
//! A single fetch-and-add word. Correct and simple — and the scalability
//! bottleneck the paper starts from: every increment contends on one
//! cache line, so throughput *decreases* as threads are added (Fig. 1a's
//! implicit baseline, and TL2's global-clock problem in Section 8).
//!
//! It is also every exact stamp source: the history recorder's stamps
//! (`spec::Recorder`), the MultiQueue's update stamps
//! ([`MqHandle::stamped`](crate::MqHandle::stamped)), the relaxed FIFO's
//! enqueue timestamps (Algorithm 2's `Clock.Read()`) and TL2's exact
//! global clock (GV1, in `dlz_stm`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::counter::RelaxedCounter;
use dlz_pq::CachePadded;

/// A linearizable counter: one padded `AtomicU64`.
///
/// # Example
/// ```
/// use dlz_core::{ExactCounter, RelaxedCounter};
/// let c = ExactCounter::new();
/// c.increment();
/// c.increment();
/// assert_eq!(c.read(), 2);
/// assert_eq!(c.read_exact(), 2);
/// ```
#[derive(Debug, Default)]
pub struct ExactCounter {
    value: CachePadded<AtomicU64>,
}

impl ExactCounter {
    /// Creates a counter at zero.
    pub const fn new() -> Self {
        ExactCounter {
            value: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Atomically adds one and returns the *previous* value (the
    /// hardware fetch-and-increment of the paper's system model).
    ///
    /// Acquire/Release: a thread that reads value `v` also sees every
    /// write made before the increment that produced `v` (TL2 orders
    /// commit write-backs with version numbers through this). Values are
    /// unique, and their order extends the real-time order of the calls.
    #[inline]
    pub fn fetch_increment(&self) -> u64 {
        self.value.fetch_add(1, Ordering::AcqRel)
    }
}

impl RelaxedCounter for ExactCounter {
    #[inline]
    fn increment(&self) {
        self.fetch_increment();
    }

    #[inline]
    fn read(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }

    #[inline]
    fn read_exact(&self) -> u64 {
        self.read()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn sequential_counting() {
        let c = ExactCounter::new();
        for i in 0..100 {
            assert_eq!(c.fetch_increment(), i);
        }
        assert_eq!(c.read(), 100);
    }

    #[test]
    fn no_lost_updates_under_contention() {
        const THREADS: u64 = 4;
        const PER: u64 = 50_000;
        let c = Arc::new(ExactCounter::new());
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..PER {
                        c.increment();
                    }
                });
            }
        });
        assert_eq!(c.read(), THREADS * PER);
    }

    #[test]
    fn fetch_increment_values_are_unique() {
        const THREADS: usize = 4;
        const PER: usize = 10_000;
        let c = Arc::new(ExactCounter::new());
        let mut all: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let c = Arc::clone(&c);
                    s.spawn(move || (0..PER).map(|_| c.fetch_increment()).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap())
                .collect()
        });
        all.sort_unstable();
        // fetch_add returns every value exactly once: 0..THREADS*PER.
        assert_eq!(all, (0..(THREADS * PER) as u64).collect::<Vec<_>>());
    }
}
