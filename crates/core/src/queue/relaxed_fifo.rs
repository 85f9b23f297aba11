//! The queue-like façade over the MultiQueue: timestamp priorities.
//!
//! Section 7.1: "to enqueue, a thread reads the wall clock, chooses a
//! random priority queue, and adds the element to that priority queue
//! with priority given by the time." This wrapper does exactly that,
//! with an [`ExactCounter`] as the clock: every element has a unique,
//! insertion-ordered timestamp, so dequeue rank error equals "how far
//! from FIFO" the structure is — the quantity Theorem 7.1 bounds by
//! O(m) in expectation.

use crate::counter::ExactCounter;
use crate::queue::MultiQueue;
use crate::rng::Rng64;

/// A relaxed FIFO queue: MultiQueue + counter-assigned priorities.
///
/// One enqueue and one dequeue, both on the caller's generator (wrap
/// them in [`with_thread_rng`](crate::rng::with_thread_rng) for the
/// thread-local one).
///
/// # Example
/// ```
/// use dlz_core::RelaxedFifo;
/// use dlz_core::rng::Xoshiro256;
///
/// let q: RelaxedFifo<&str> = RelaxedFifo::new(4);
/// let mut rng = Xoshiro256::new(1);
/// q.enqueue_with(&mut rng, "first");
/// q.enqueue_with(&mut rng, "second");
/// // Dequeues return *approximately* oldest-first, each with its
/// // enqueue timestamp; both come out.
/// let (ta, a) = q.dequeue_with(&mut rng).unwrap();
/// let (tb, b) = q.dequeue_with(&mut rng).unwrap();
/// assert_ne!(a, b);
/// assert_ne!(ta, tb);
/// ```
#[derive(Debug)]
pub struct RelaxedFifo<V: Send> {
    mq: MultiQueue<V>,
    clock: ExactCounter,
}

impl<V: Send> RelaxedFifo<V> {
    /// Creates a relaxed FIFO with `m` internal binary-heap queues.
    pub fn new(m: usize) -> Self {
        RelaxedFifo {
            mq: MultiQueue::new(m),
            clock: ExactCounter::new(),
        }
    }

    /// Enqueue with an explicit generator; the timestamp is drawn from
    /// the clock at call time (Algorithm 2's `Clock.Read()`).
    pub fn enqueue_with(&self, rng: &mut impl Rng64, value: V) {
        self.mq
            .insert_two_choice(rng, self.clock.fetch_increment(), value);
    }

    /// Dequeue with an explicit generator: an approximately-oldest
    /// element with its enqueue timestamp, or `None` if observed empty.
    pub fn dequeue_with(&self, rng: &mut impl Rng64) -> Option<(u64, V)> {
        self.mq.dequeue_two_choice(rng)
    }

    /// Observed number of queued elements. Exact when quiescent.
    pub fn len(&self) -> usize {
        self.mq.len()
    }

    /// `true` if observed empty. Exact when quiescent.
    pub fn is_empty(&self) -> bool {
        self.mq.is_empty()
    }

    /// The underlying MultiQueue (for checkers and diagnostics).
    pub fn multiqueue(&self) -> &MultiQueue<V> {
        &self.mq
    }

    /// The counter that draws the enqueue timestamps.
    pub fn clock(&self) -> &ExactCounter {
        &self.clock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counter::RelaxedCounter;
    use crate::rng::Xoshiro256;
    use std::sync::Arc;

    #[test]
    fn everything_enqueued_is_dequeued_once() {
        let q: RelaxedFifo<u64> = RelaxedFifo::new(8);
        let mut rng = Xoshiro256::new(1);
        for v in 0..2_000u64 {
            q.enqueue_with(&mut rng, v);
        }
        let mut out: Vec<u64> = std::iter::from_fn(|| q.dequeue_with(&mut rng))
            .map(|(_, v)| v)
            .collect();
        out.sort_unstable();
        assert_eq!(out, (0..2_000u64).collect::<Vec<_>>());
    }

    #[test]
    fn dequeue_order_is_near_fifo() {
        // Sequential execution, m = 8: the dequeue rank (how many older
        // elements were still present) must stay O(m)-ish.
        let m = 8;
        let q: RelaxedFifo<u64> = RelaxedFifo::new(m);
        let mut rng = Xoshiro256::new(2);
        let n = 5_000u64;
        for v in 0..n {
            q.enqueue_with(&mut rng, v);
        }
        use std::collections::BTreeSet;
        let mut present: BTreeSet<u64> = (0..n).collect();
        let mut max_rank = 0;
        while let Some((_, v)) = q.dequeue_with(&mut rng) {
            let rank = present.range(..v).count();
            max_rank = max_rank.max(rank);
            present.remove(&v);
        }
        assert!(present.is_empty());
        assert!(max_rank <= 30 * m, "max FIFO violation {max_rank}");
    }

    #[test]
    fn dequeued_timestamps_follow_enqueue_order() {
        let q: RelaxedFifo<u64> = RelaxedFifo::new(4);
        let mut rng = Xoshiro256::new(3);
        for v in 0..100u64 {
            q.enqueue_with(&mut rng, v);
        }
        // The timestamp a dequeue reports is the one its element was
        // enqueued with: one draw per enqueue, in enqueue order.
        while let Some((ts, v)) = q.dequeue_with(&mut rng) {
            assert_eq!(ts, v);
        }
    }

    #[test]
    fn mpmc_stress_conserves() {
        const PRODUCERS: usize = 2;
        const CONSUMERS: usize = 2;
        const PER: u64 = 5_000;
        let q: Arc<RelaxedFifo<u64>> = Arc::new(RelaxedFifo::new(8));
        let got: Vec<u64> = std::thread::scope(|s| {
            for t in 0..PRODUCERS {
                let q = Arc::clone(&q);
                s.spawn(move || {
                    let mut rng = Xoshiro256::new(50 + t as u64);
                    for i in 0..PER {
                        q.enqueue_with(&mut rng, t as u64 * PER + i);
                    }
                });
            }
            let hs: Vec<_> = (0..CONSUMERS)
                .map(|t| {
                    let q = Arc::clone(&q);
                    s.spawn(move || {
                        let mut rng = Xoshiro256::new(80 + t as u64);
                        let mut got = Vec::new();
                        let target = PRODUCERS as u64 * PER / CONSUMERS as u64;
                        while (got.len() as u64) < target {
                            if let Some((_, v)) = q.dequeue_with(&mut rng) {
                                got.push(v);
                            }
                        }
                        got
                    })
                })
                .collect();
            hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
        });
        let mut all = got;
        all.sort_unstable();
        assert_eq!(all, (0..PRODUCERS as u64 * PER).collect::<Vec<_>>());
    }

    #[test]
    fn accessors() {
        let q: RelaxedFifo<u8> = RelaxedFifo::new(3);
        assert!(q.is_empty());
        assert_eq!(q.multiqueue().num_queues(), 3);
        q.enqueue_with(&mut Xoshiro256::new(4), 9);
        assert_eq!(q.len(), 1);
        assert_eq!(q.clock().read(), 1);
    }
}
