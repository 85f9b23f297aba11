//! Cross-crate stress tests: heavier concurrency, substrate mixing,
//! and invariants sampled *during* execution (not only at quiescence).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

use distlin::core::rng::{Rng64, Xoshiro256};
use distlin::core::spec::{check_distributional, FifoOp, FifoSpec, Recorder};
use distlin::core::{
    DeleteMode, ExactCounter, MultiCounter, MultiQueue, PolicyCfg, RelaxedCounter,
};
use distlin::pq::SeqPriorityQueue;
use distlin::stm::Tl2;

#[test]
fn multicounter_reads_bounded_during_concurrent_run() {
    // Readers sample while writers increment. Invariants that hold at
    // *every* moment (not just quiescence): reads are multiples of m,
    // and no read exceeds the final total plus m·gap slack (a read is
    // m × some cell ≤ m·(μ(t) + gap(t)) ≤ total(end) + m·gap_max).
    const WRITERS: usize = 2;
    const READERS: usize = 2;
    const PER: u64 = 100_000;
    let m = 32u64;
    let c = MultiCounter::new(m as usize);
    let stop = AtomicBool::new(false);
    let max_seen = Mutex::new(0u64);
    std::thread::scope(|s| {
        for t in 0..WRITERS {
            let c = &c;
            s.spawn(move || {
                let mut rng = Xoshiro256::new(1000 + t as u64);
                for _ in 0..PER {
                    c.increment_with(&mut rng);
                }
            });
        }
        for t in 0..READERS {
            let c = &c;
            let stop = &stop;
            let max_seen = &max_seen;
            s.spawn(move || {
                let mut rng = Xoshiro256::new(2000 + t as u64);
                let mut local_max = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let v = c.read_with(&mut rng);
                    assert_eq!(v % m, 0, "reads must be multiples of m");
                    local_max = local_max.max(v);
                }
                let mut g = max_seen.lock().unwrap();
                *g = (*g).max(local_max);
            });
        }
        // Writers finish first; then stop the readers.
        // (scope join order: we spawn a watcher to flip stop after
        // writers are done by checking the exact total.)
        let c2 = &c;
        let stop2 = &stop;
        s.spawn(move || {
            while c2.read_exact() < WRITERS as u64 * PER {
                std::thread::yield_now();
            }
            stop2.store(true, Ordering::Release);
        });
    });
    let total = c.read_exact();
    assert_eq!(total, WRITERS as u64 * PER);
    let max_read = *max_seen.lock().unwrap();
    // Generous slack: m · (gap bound 64).
    assert!(
        max_read <= total + m * 64,
        "a concurrent read {max_read} exceeded plausible bounds (total {total})"
    );
}

/// A `Q` that is not `BinaryHeap`: an ordered map keyed by (priority,
/// arrival number), so ties leave in FIFO order.
#[derive(Default)]
struct MapQueue<V> {
    map: std::collections::BTreeMap<(u64, u64), V>,
    arrivals: u64,
}

impl<V> SeqPriorityQueue<u64, V> for MapQueue<V> {
    fn add(&mut self, priority: u64, value: V) {
        self.map.insert((priority, self.arrivals), value);
        self.arrivals += 1;
    }
    fn delete_min(&mut self) -> Option<(u64, V)> {
        self.map.pop_first().map(|((p, _), v)| (p, v))
    }
    fn read_min(&self) -> Option<(&u64, &V)> {
        self.map.iter().next().map(|((p, _), v)| (p, v))
    }
    fn len(&self) -> usize {
        self.map.len()
    }
    fn clear(&mut self) {
        self.map.clear();
    }
}

#[test]
fn multiqueue_second_substrate_mpmc() {
    const PRODUCERS: usize = 2;
    const CONSUMERS: usize = 2;
    const PER: u64 = 10_000;
    let mq: MultiQueue<u64, MapQueue<u64>> = MultiQueue::with_config(
        (0..16).map(|_| MapQueue::default()).collect(),
        DeleteMode::Strict,
        PolicyCfg::TwoChoice,
    );
    let collected: Vec<u64> = std::thread::scope(|s| {
        for t in 0..PRODUCERS {
            let mq = &mq;
            s.spawn(move || {
                let mut h = mq.handle(500 + t as u64);
                for k in 0..PER {
                    let v = t as u64 * PER + k;
                    h.insert(v, v);
                }
            });
        }
        let hs: Vec<_> = (0..CONSUMERS)
            .map(|t| {
                let mq = &mq;
                s.spawn(move || {
                    let mut h = mq.handle(900 + t as u64);
                    let mut got = Vec::new();
                    let target = PRODUCERS as u64 * PER / CONSUMERS as u64;
                    while (got.len() as u64) < target {
                        if let Some((p, v)) = h.dequeue() {
                            assert_eq!(p, v);
                            got.push(v);
                        }
                    }
                    got
                })
            })
            .collect();
        hs.into_iter().flat_map(|h| h.join().unwrap()).collect()
    });
    let mut all = collected;
    all.sort_unstable();
    assert_eq!(all, (0..PRODUCERS as u64 * PER).collect::<Vec<_>>());
}

#[test]
fn stm_random_transaction_sizes_conserve() {
    // Transactions of random size (1..=8 slots) that redistribute value
    // among their slots: the global sum is invariant under any
    // interleaving iff transactions are atomic.
    const THREADS: usize = 4;
    const PER: usize = 2_000;
    const SLOTS: usize = 256;
    const INIT: u64 = 100;
    let stm = Tl2::from_values(&[INIT; SLOTS], ExactCounter::new());
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let stm = &stm;
            s.spawn(move || {
                let mut handle = stm.thread();
                let mut rng = Xoshiro256::new(3000 + t as u64);
                for _ in 0..PER {
                    let k = 1 + rng.bounded(8) as usize;
                    let idxs: Vec<usize> =
                        (0..k).map(|_| rng.bounded(SLOTS as u64) as usize).collect();
                    handle.run(|tx| {
                        // Read all, zero all but the first, pile the sum
                        // onto the first (idempotent under duplicates
                        // because reads see buffered writes).
                        let mut sum = 0u64;
                        for &i in &idxs {
                            sum += tx.read(i)?;
                            tx.write(i, 0);
                        }
                        tx.write(idxs[0], sum);
                        Ok(())
                    });
                }
            });
        }
    });
    assert_eq!(
        stm.array().sum_quiescent(),
        (SLOTS as u128) * (INIT as u128)
    );
    assert!(!stm.array().any_locked());
}

#[test]
fn relaxed_fifo_history_maps_onto_fifo_spec() {
    // End-to-end FifoSpec: a MultiQueue used as a timestamped FIFO,
    // stamped operations replayed against the FIFO specification. The
    // per-dequeue cost (queue position) is the FIFO-relaxation measure;
    // it must stay within the O(m log m)-flavoured scale.
    const THREADS: usize = 4;
    const PER: usize = 4_000;
    let m = 8;
    let mq: MultiQueue<u64> = MultiQueue::new(m);
    let ts = ExactCounter::new();
    let recorder = Recorder::new();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let mq = &mq;
            let ts = &ts;
            let recorder = &recorder;
            s.spawn(move || {
                let mut h = mq.handle(4000 + t as u64);
                let mut log = recorder.log(t);
                for step in 0..PER {
                    if step % 3 < 2 {
                        let id = ts.fetch_increment(); // unique FIFO identity = timestamp
                        log.record(|stamps| {
                            let update = h.stamped(stamps).insert(id, id);
                            Some((FifoOp::Enqueue { id }, update))
                        });
                    } else {
                        log.record(|stamps| {
                            let (id, _, update) = h.stamped(stamps).dequeue()?;
                            Some((FifoOp::Dequeue { id }, update))
                        });
                    }
                }
            });
        }
    });
    let history = recorder.take_history();
    assert!(history.well_formed());
    let out = check_distributional(&FifoSpec, &history);
    assert!(out.is_linearizable(), "unmappable: {:?}", out.unmappable);
    // FIFO position costs: O(m) mean with a concurrency allowance.
    assert!(
        out.costs.mean() <= 8.0 * m as f64,
        "mean FIFO displacement {}",
        out.costs.mean()
    );
}

#[test]
fn stamped_and_plain_ops_interoperate() {
    // Mixing stamped and unstamped operations on the same MultiQueue
    // must not lose elements (stamped ops are plain ops + bookkeeping).
    let mq: MultiQueue<u64> = MultiQueue::new(4);
    let stamps = ExactCounter::new();
    let mut h = mq.handle(5);
    for v in 0..100u64 {
        if v % 2 == 0 {
            h.insert(v, v);
        } else {
            h.stamped(&stamps).insert(v, v);
        }
    }
    let mut n = 0;
    loop {
        let got = if n % 2 == 0 {
            h.dequeue().map(|(p, _)| p)
        } else {
            h.stamped(&stamps).dequeue().map(|(p, _, _)| p)
        };
        if got.is_none() {
            break;
        }
        n += 1;
    }
    assert_eq!(n, 100);
}
