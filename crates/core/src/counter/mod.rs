//! Relaxed concurrent counters (Section 4 of the paper).
//!
//! * [`MultiCounter`] — Algorithm 1: `m` cache-padded atomic counters;
//!   increments go to the smaller of two randomly chosen cells (as seen
//!   by possibly-stale reads); reads sample one random cell and scale by
//!   `m`. [`MultiCounter::with_choices`] samples `d` cells instead
//!   (`d = 1` is the divergent single-choice process, larger `d` trades
//!   read traffic for tighter balance); Section 8's relaxed clock is
//!   [`MultiCounter::increment_sampled`], wrapped by `dlz_stm`'s
//!   `RelaxedClock`.
//! * [`ShardedCounter`] — per-thread stripes: exact sums, no bounded
//!   single-sample read.
//! * [`ExactCounter`] — a single fetch-and-add word: the linearizable
//!   baseline whose scalability collapse motivates the whole paper.
//!
//! All three implement [`RelaxedCounter`], so benchmarks and tests are
//! generic over the counter kind.

mod exact;
mod multi;
mod sharded;

pub use exact::ExactCounter;
pub use multi::MultiCounter;
pub use sharded::ShardedCounter;

/// Common interface of all counters in this module.
///
/// The convenience methods draw randomness from the per-thread generator
/// (see [`crate::rng::with_thread_rng`]); deterministic variants taking
/// an explicit RNG exist on the concrete types.
pub trait RelaxedCounter: Send + Sync {
    /// Adds one to the (logical) counter.
    fn increment(&self);

    /// Returns an estimate of the number of increments so far.
    ///
    /// For [`ExactCounter`] this is exact; for the relaxed counters the
    /// paper bounds the error by `O(m log m)` in expectation and w.h.p.
    /// (Theorem 6.1).
    fn read(&self) -> u64;

    /// Returns the exact number of increments completed at some point
    /// during the call (sums all cells; not linearizable with concurrent
    /// increments, exact when quiescent). Intended for tests and quality
    /// measurements, not for the hot path.
    fn read_exact(&self) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(c: &dyn RelaxedCounter) {
        for _ in 0..100 {
            c.increment();
        }
        assert_eq!(c.read_exact(), 100);
    }

    #[test]
    fn trait_object_safety_and_uniform_behaviour() {
        exercise(&ExactCounter::new());
        exercise(&MultiCounter::new(8));
        exercise(&MultiCounter::with_choices(8, 3));
    }
}
