//! Exponential backoff for contended retry loops.
//!
//! The MultiQueue takes a lock per internal queue for a handful of heap
//! operations (tens of nanoseconds). For such short critical sections
//! spinning on the packed lock word of [`LockedPq`](crate::LockedPq)
//! beats parking: a `std::sync::Mutex` twin of it ran one contended
//! exact queue 58% slower and was removed (README, "Verdicts").
//! [`Backoff`] is what keeps that spinning (and the MultiQueue's redraw
//! loops) from hammering a contended line.

/// Exponential backoff helper for contended retry loops.
///
/// Starts with a few `spin_loop` hints and doubles the spin count on every
/// call until a threshold, after which it yields to the OS scheduler. This
/// mirrors the strategy used by crossbeam's `Backoff`, re-implemented here
/// so the crate has no dependencies.
#[derive(Debug, Default)]
pub struct Backoff {
    step: u32,
}

impl Backoff {
    /// Spins before yielding: 2^SPIN_LIMIT iterations at most per call.
    const SPIN_LIMIT: u32 = 6;
    /// After this many steps, start yielding the thread.
    const YIELD_LIMIT: u32 = 10;

    /// Creates a fresh backoff counter.
    #[inline]
    pub fn new() -> Self {
        Backoff { step: 0 }
    }

    /// Waits a little, increasing the wait on each successive call.
    #[inline]
    pub fn snooze(&mut self) {
        if self.step <= Self::SPIN_LIMIT {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else {
            std::thread::yield_now();
        }
        if self.step <= Self::YIELD_LIMIT {
            self.step += 1;
        }
    }

    /// `true` once the backoff has escalated past pure spinning; callers
    /// in lock-free loops can use this to switch strategies (e.g. redraw
    /// random choices instead of waiting).
    #[inline]
    pub fn is_yielding(&self) -> bool {
        self.step > Self::SPIN_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_escalates_to_yield() {
        let mut b = Backoff::new();
        assert!(!b.is_yielding());
        for _ in 0..16 {
            b.snooze();
        }
        assert!(b.is_yielding());
    }
}
