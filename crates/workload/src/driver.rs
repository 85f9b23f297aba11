//! Low-level timed-run primitives: barrier start, stop flag, per-thread
//! op counts.
//!
//! This is the discipline every scaling figure uses (spawn workers,
//! release them simultaneously, run against a stop flag for a fixed
//! wall-clock duration, sum per-thread counts). It lives here so both
//! the scenario [`engine`](crate::engine) and the `dlz-bench` ablation
//! binary drive threads exactly the same way.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Result of one timed run.
#[derive(Debug, Clone, Copy)]
pub struct Throughput {
    /// Worker count.
    pub threads: usize,
    /// Total operations completed across workers.
    pub total_ops: u64,
    /// Measured wall-clock duration.
    pub elapsed: Duration,
}

impl Throughput {
    /// Million operations per second.
    pub fn mops(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64() / 1e6
    }

    /// Operations per second.
    pub fn ops(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Runs `threads` workers for `duration` and sums their op counts.
///
/// `factory(t)` builds worker `t`'s closure; the closure runs after the
/// start barrier and must return its operation count when it observes
/// the stop flag (see [`count_until_stopped`]).
pub fn run_throughput<W>(
    threads: usize,
    duration: Duration,
    factory: impl Fn(usize) -> W,
) -> Throughput
where
    W: FnMut(&AtomicBool) -> u64 + Send,
{
    assert!(threads > 0, "need at least one thread");
    let stop = AtomicBool::new(false);
    let barrier = Barrier::new(threads + 1);
    let (total_ops, elapsed) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let mut worker = factory(t);
                let stop = &stop;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    worker(stop)
                })
            })
            .collect();
        barrier.wait();
        let start = Instant::now();
        std::thread::sleep(duration);
        stop.store(true, Ordering::Release);
        let total: u64 = handles.into_iter().map(|h| h.join().expect("worker")).sum();
        (total, start.elapsed())
    });
    Throughput {
        threads,
        total_ops,
        elapsed,
    }
}

/// The canonical worker body: run `op` until the stop flag is set,
/// return the number of completed operations.
///
/// Checks the flag every iteration with a `Relaxed` load — negligible
/// against any real operation, and the `Release` store in the harness
/// plus thread join provide the necessary synchronization for counts.
#[inline]
pub fn count_until_stopped(stop: &AtomicBool, mut op: impl FnMut()) -> u64 {
    let mut n = 0u64;
    while !stop.load(Ordering::Relaxed) {
        op();
        n += 1;
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn counts_sum_across_threads() {
        let shared = AtomicU64::new(0);
        let t = run_throughput(3, Duration::from_millis(50), |_t| {
            let shared = &shared;
            move |stop: &AtomicBool| {
                count_until_stopped(stop, || {
                    shared.fetch_add(1, Ordering::Relaxed);
                })
            }
        });
        assert_eq!(t.threads, 3);
        assert_eq!(t.total_ops, shared.load(Ordering::Relaxed));
        assert!(t.total_ops > 0);
        assert!(t.elapsed >= Duration::from_millis(50));
        assert!(t.mops() > 0.0);
        assert!((t.ops() - t.mops() * 1e6).abs() < 1.0);
    }

    #[test]
    fn thread_index_reaches_factory() {
        let seen = std::sync::Mutex::new(Vec::new());
        run_throughput(4, Duration::from_millis(10), |t| {
            seen.lock().unwrap().push(t);
            move |stop: &AtomicBool| count_until_stopped(stop, || {})
        });
        let mut v = seen.into_inner().unwrap();
        v.sort_unstable();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = run_throughput(0, Duration::from_millis(1), |_t| {
            move |stop: &AtomicBool| count_until_stopped(stop, || {})
        });
    }
}
