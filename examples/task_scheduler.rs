//! A relaxed task scheduler on Section 7.1's relaxed FIFO: a MultiQueue
//! whose priorities are submission timestamps.
//!
//! The paper's introduction points at task scheduling (\[24\], \[20\]) as
//! the home turf of relaxed queues: a scheduler does not need strict
//! FIFO — it needs every task to run exactly once, soon after
//! submission. This example runs a multi-producer/multi-consumer
//! pipeline and measures *priority inversions*: how far backwards the
//! submission timestamps of the tasks a consumer executes can jump.
//! An exact queue hands out tasks in global timestamp order, so each
//! consumer's stream is monotone (inversion 0). The MultiQueue's
//! inversion mixes its dequeue-rank relaxation with late inserts: a
//! producer draws its timestamp before its insert takes a queue lock,
//! so one descheduled in between inserts an old stamp late. Theorem 7.1
//! bounds the rank, and nothing bounds the lateness, so the maximum is
//! not a Theorem 7.1 figure.
//!
//! ```text
//! cargo run --release --example task_scheduler
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use distlin::core::{ExactCounter, MultiQueue};
use distlin::pq::{Attempt, BinaryHeap, ConcurrentPq, ContentionStats, LockedPq, SeqPriorityQueue};

const PRODUCERS: usize = 2;
const CONSUMERS: usize = 2;
const TASKS_PER_PRODUCER: u64 = 200_000;

/// Drives the pipeline. `dequeue` returns (submission timestamp, id).
/// Returns (elapsed seconds, executed count, max per-consumer
/// timestamp inversion).
fn run_pipeline<E, D>(enqueue: E, dequeue: D) -> (f64, u64, u64)
where
    E: Fn(u64) + Sync,
    D: Fn() -> Option<(u64, u64)> + Sync,
{
    let produced = AtomicU64::new(0);
    let executed = AtomicU64::new(0);
    let done_producing = AtomicBool::new(false);
    let max_inversion = AtomicU64::new(0);
    let total = PRODUCERS as u64 * TASKS_PER_PRODUCER;

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for p in 0..PRODUCERS {
            let enqueue = &enqueue;
            let produced = &produced;
            s.spawn(move || {
                for k in 0..TASKS_PER_PRODUCER {
                    let id = k * PRODUCERS as u64 + p as u64;
                    enqueue(id);
                    produced.fetch_add(1, Ordering::Relaxed);
                }
            });
        }
        for _ in 0..CONSUMERS {
            let dequeue = &dequeue;
            let executed = &executed;
            let done_producing = &done_producing;
            let max_inversion = &max_inversion;
            s.spawn(move || {
                let mut last_ts = 0u64;
                loop {
                    match dequeue() {
                        Some((ts, _id)) => {
                            // "Task work" would happen here.
                            let inv = last_ts.saturating_sub(ts);
                            if inv > 0 {
                                max_inversion.fetch_max(inv, Ordering::Relaxed);
                            }
                            last_ts = last_ts.max(ts);
                            executed.fetch_add(1, Ordering::Relaxed);
                        }
                        None => {
                            if done_producing.load(Ordering::Acquire)
                                && executed.load(Ordering::Relaxed) == total
                            {
                                return;
                            }
                            std::hint::spin_loop();
                        }
                    }
                }
            });
        }
        let produced = &produced;
        let done_producing = &done_producing;
        s.spawn(move || {
            while produced.load(Ordering::Relaxed) < total {
                std::thread::yield_now();
            }
            done_producing.store(true, Ordering::Release);
        });
    });
    (
        t0.elapsed().as_secs_f64(),
        executed.load(Ordering::Relaxed),
        max_inversion.load(Ordering::Relaxed),
    )
}

fn main() {
    let total = PRODUCERS as u64 * TASKS_PER_PRODUCER;
    println!(
        "Task pipeline: {PRODUCERS} producers x {TASKS_PER_PRODUCER} tasks, {CONSUMERS} consumers\n"
    );

    // Exact scheduler: one big lock; timestamps from a shared FAA clock,
    // drawn inside the critical section, so stamp order is queue order.
    let submit_clock = ExactCounter::new();
    let exact: LockedPq<u64> = LockedPq::new(BinaryHeap::with_capacity(total as usize));
    let (secs, executed, inv) = run_pipeline(
        |id| {
            let submitted = exact.attempt(true, &mut ContentionStats::new(), |q| {
                q.add(submit_clock.fetch_increment(), id)
            });
            assert_eq!(submitted, Attempt::Ran(()));
        },
        || exact.remove_min(),
    );
    assert_eq!(executed, total);
    println!(
        "  exact (coarse lock) : {:.2} M tasks/s, max timestamp inversion {inv}",
        total as f64 / secs / 1e6
    );

    // Relaxed scheduler: MultiQueue with FAA timestamps, drawn before
    // the insert chooses and locks a queue.
    let m = 4 * (PRODUCERS + CONSUMERS);
    let relaxed_clock = ExactCounter::new();
    let mq: MultiQueue<u64> = MultiQueue::new(m);
    let (secs, executed, inv) = run_pipeline(
        |id| mq.insert(relaxed_clock.fetch_increment(), id),
        || mq.remove_min(),
    );
    assert_eq!(executed, total);
    println!(
        "  relaxed (MultiQueue, m={m}): {:.2} M tasks/s, max timestamp inversion {inv}",
        total as f64 / secs / 1e6
    );

    println!("\nEvery task ran exactly once in both schedulers. The exact queue's");
    println!("inversion is 0 by construction (each timestamp is drawn under the lock");
    println!("that inserts it). The MultiQueue spreads the scheduler hotspot over m");
    println!("internal queues. Its inversion mixes the dequeue-rank relaxation that");
    println!("Theorem 7.1 bounds with late inserts: a producer draws its timestamp");
    println!("before its insert takes a queue lock, so one descheduled in between");
    println!("inserts an old stamp late, by an amount no theorem bounds.");
}
