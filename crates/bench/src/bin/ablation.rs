//! **Ablations** — design choices the paper discusses but does not
//! plot: the number of choices d, the lock substrate under the
//! MultiQueue, and the internal sequential queue implementation.
//!
//! ```text
//! cargo run -p dlz-bench --release --bin ablation
//! ```

use std::sync::atomic::AtomicBool;

use dlz_bench::tables::f3;
use dlz_bench::{Config, Table};
use dlz_core::rng::Xoshiro256;
use dlz_core::{DChoiceCounter, DeleteMode, MultiQueue};
use dlz_pq::{
    BinaryHeap, ConcurrentPq, LockedPq, PairingHeap, ParkingLotPq, SeqPriorityQueue, SkipListPq,
};
use dlz_workload::{count_until_stopped, run_throughput};

/// d-choice: gap and throughput as d varies (d=1 diverges, d=2 is the
/// paper's algorithm, d=4 buys little at 2x the read cost).
fn dchoice_section(cfg: &Config) {
    println!("-- choices per increment (d): balance vs cost --");
    let mut table = Table::new(&["d", "threads", "Mops/s", "final max_gap"]);
    let n = *cfg.threads.last().expect("non-empty");
    for d in [1usize, 2, 4] {
        let counter = DChoiceCounter::new(8 * n, d, cfg.seed);
        let t = run_throughput(n, cfg.duration, |tid| {
            let c = &counter;
            let mut rng = Xoshiro256::new(cfg.seed ^ ((tid as u64) << 11));
            move |stop: &AtomicBool| count_until_stopped(stop, || c.increment_with(&mut rng))
        });
        table.row(vec![
            d.to_string(),
            n.to_string(),
            f3(t.mops()),
            counter.max_gap().to_string(),
        ]);
    }
    table.print();
    println!("Expected: d=1 fastest per op but unbounded gap growth; d=2 bounded gap;");
    println!("d=4 slightly tighter gap at lower throughput.\n");
}

/// Lock substrate: TATAS spinlock vs parking_lot::Mutex under the
/// MultiQueue's short critical sections.
fn lock_section(cfg: &Config) {
    println!("-- lock substrate under LockedPq (insert+remove pairs) --");
    let mut table = Table::new(&["lock", "threads", "Mops/s"]);
    let n = *cfg.threads.last().expect("non-empty");
    let m = 8 * n;

    let spin: Vec<LockedPq<u64>> = (0..m).map(|_| LockedPq::default()).collect();
    let t = run_throughput(n, cfg.duration, |tid| {
        let qs = &spin;
        let mut rng = Xoshiro256::new(cfg.seed ^ tid as u64);
        move |stop: &AtomicBool| {
            count_until_stopped(stop, || {
                use dlz_core::rng::Rng64;
                let i = rng.bounded(qs.len() as u64) as usize;
                qs[i].insert(rng.next_u64() >> 32, 1);
                let j = rng.bounded(qs.len() as u64) as usize;
                let _ = qs[j].remove_min();
            })
        }
    });
    table.row(vec!["spinlock".into(), n.to_string(), f3(t.mops())]);

    let parking: Vec<ParkingLotPq<u64>> = (0..m).map(|_| ParkingLotPq::default()).collect();
    let t = run_throughput(n, cfg.duration, |tid| {
        let qs = &parking;
        let mut rng = Xoshiro256::new(cfg.seed ^ tid as u64);
        move |stop: &AtomicBool| {
            count_until_stopped(stop, || {
                use dlz_core::rng::Rng64;
                let i = rng.bounded(qs.len() as u64) as usize;
                qs[i].insert(rng.next_u64() >> 32, 1);
                let j = rng.bounded(qs.len() as u64) as usize;
                let _ = qs[j].remove_min();
            })
        }
    });
    table.row(vec!["parking_lot".into(), n.to_string(), f3(t.mops())]);
    table.print();
    println!();
}

/// Internal sequential queue: binary heap vs pairing heap vs skip list.
fn substrate_section(cfg: &Config) {
    println!("-- internal queue substrate under the MultiQueue --");
    let mut table = Table::new(&["substrate", "mode", "threads", "Mops/s"]);
    let n = *cfg.threads.last().expect("non-empty");
    let m = 8 * n;

    fn bench_mq<Q>(cfg: &Config, n: usize, queues: Vec<Q>, mode: DeleteMode) -> f64
    where
        Q: SeqPriorityQueue<u64, u64> + Send,
    {
        let mq = MultiQueue::with_queues(queues, mode);
        // Prefill so dequeues rarely observe emptiness.
        {
            let mut prefill = mq.handle(cfg.seed);
            for k in 0..50_000u64 {
                prefill.insert(k, k);
            }
        }
        let t = run_throughput(n, cfg.duration, |tid| {
            let mut h = mq.handle(cfg.seed ^ ((tid as u64) << 7));
            let mut next = 50_000u64 + tid as u64;
            move |stop: &AtomicBool| {
                count_until_stopped(stop, || {
                    h.insert(next, next);
                    next += 1;
                    let _ = h.dequeue();
                })
            }
        });
        t.mops()
    }

    for mode in [DeleteMode::Strict, DeleteMode::TryLock] {
        let mode_name = match mode {
            DeleteMode::Strict => "strict",
            DeleteMode::TryLock => "trylock",
        };
        let binary = bench_mq(
            cfg,
            n,
            (0..m).map(|_| BinaryHeap::<u64, u64>::new()).collect(),
            mode,
        );
        table.row(vec![
            "binary-heap".into(),
            mode_name.into(),
            n.to_string(),
            f3(binary),
        ]);
        let pairing = bench_mq(
            cfg,
            n,
            (0..m).map(|_| PairingHeap::<u64, u64>::new()).collect(),
            mode,
        );
        table.row(vec![
            "pairing-heap".into(),
            mode_name.into(),
            n.to_string(),
            f3(pairing),
        ]);
        let skiplist = bench_mq(
            cfg,
            n,
            (0..m)
                .map(|i| SkipListPq::<u64, u64>::with_seed(cfg.seed ^ i as u64))
                .collect(),
            mode,
        );
        table.row(vec![
            "skiplist".into(),
            mode_name.into(),
            n.to_string(),
            f3(skiplist),
        ]);
    }
    table.print();
}

fn main() {
    let cfg = Config::from_args();
    println!("Ablations (threads = {:?})\n", cfg.threads);
    dchoice_section(&cfg);
    lock_section(&cfg);
    substrate_section(&cfg);
}
