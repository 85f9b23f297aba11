//! Seeded property tests for dlz-pq (std only): `BinaryHeap` behaves
//! like a sorted model under random operation sequences, and
//! `LockedPq` publishes that model's minimum. A failing case prints its
//! seed.

use std::collections::BTreeMap;

use dlz_pq::locked::EMPTY_HINT;
use dlz_pq::{BinaryHeap, ConcurrentPq, LockedPq, SeqPriorityQueue};

/// SplitMix64: the crate has no generator of its own.
fn next(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `case` once per seed in `0..cases`, handing it the generator
/// state. If a case panics, its seed goes to stderr before the panic
/// travels on.
fn for_each_seed(cases: u64, case: impl Fn(&mut u64)) {
    struct NameSeedOnPanic(u64);
    impl Drop for NameSeedOnPanic {
        fn drop(&mut self) {
            if std::thread::panicking() {
                eprintln!("failing seed: {}", self.0);
            }
        }
    }
    for seed in 0..cases {
        let _guard = NameSeedOnPanic(seed);
        let mut state = seed;
        case(&mut state);
    }
}

/// Up to 400 random `add` / `delete_min` / `read_min` / `clear` steps
/// against a `BTreeMap` keyed by (priority, arrival number) — the
/// sorted model with the FIFO tie-break — then a drain that must come
/// out sorted, FIFO among ties, and complete.
#[test]
fn binary_heap_matches_sorted_model_and_drains_it_in_order() {
    for_each_seed(64, |x| {
        let mut heap: BinaryHeap<u64, u64> = BinaryHeap::new();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        let mut arrivals = 0u64;
        for _ in 0..next(x) % 400 {
            match next(x) % 12 {
                0..=5 => {
                    // 24 priorities: most adds tie with a resident.
                    let p = next(x) % 24;
                    heap.add(p, arrivals);
                    model.insert((p, arrivals), arrivals);
                    arrivals += 1;
                }
                6..=8 => {
                    let want = model.pop_first().map(|((p, _), v)| (p, v));
                    assert_eq!(heap.delete_min(), want);
                }
                9..=10 => {
                    let want = model.iter().next().map(|((p, _), v)| (*p, *v));
                    assert_eq!(heap.read_min().map(|(p, v)| (*p, *v)), want);
                }
                _ => {
                    heap.clear();
                    model.clear();
                }
            }
            assert_eq!(heap.len(), model.len());
            assert_eq!(heap.is_empty(), model.is_empty());
        }
        let want: Vec<(u64, u64)> = model.into_iter().map(|((p, _), v)| (p, v)).collect();
        assert_eq!(heap.into_sorted_vec(), want);
    });
}

/// 600 random inserts and removals through `LockedPq`, in alternating
/// grow and drain phases of 100: after every op the published hint is
/// the model's minimum and the count its size. Queues some dozens deep
/// over 64 priorities make the heap's front-buffer refills (every
/// fourth removal) and evictions (an insert below a full buffer's
/// maximum) frequent, and the drain phases reach the empty queue.
#[test]
fn locked_pq_hint_is_the_true_minimum_after_every_op() {
    for_each_seed(32, |x| {
        let q: LockedPq<u64> = LockedPq::default();
        let mut model: BTreeMap<(u64, u64), u64> = BTreeMap::new();
        for step in 0..600u64 {
            let grow = (step / 100) % 2 == 0;
            if (next(x) % 10 < 7) == grow {
                let p = next(x) % 64;
                q.insert(p, step);
                model.insert((p, step), step);
            } else {
                let want = model.pop_first().map(|((p, _), v)| (p, v));
                assert_eq!(q.remove_min(), want, "step {step}");
            }
            let min = model.keys().next().map_or(EMPTY_HINT, |&(p, _)| p);
            assert_eq!(q.min_hint(), min, "step {step}");
            assert_eq!(q.approx_len(), model.len(), "step {step}");
        }
    });
}
