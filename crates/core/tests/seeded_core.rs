//! Seeded property tests for dlz-core (std only): the MultiQueue hands
//! back exactly what it was given, and the three relaxed specifications
//! obey the laws the checker relies on, each against a model that
//! shares no code with them. A failing case prints its seed.

use std::fmt::Debug;

use dlz_core::rng::{Rng64, Xoshiro256};
use dlz_core::spec::{
    CounterOp, CounterSpec, FifoOp, FifoSpec, PqOp, PqSpec, QuantitativeRelaxation,
};
use dlz_core::MultiQueue;

/// Runs `case` once per seed in `0..cases`, each on its own generator.
/// If a case panics, its seed goes to stderr before the panic travels on.
fn for_each_seed(cases: u64, case: impl Fn(&mut Xoshiro256)) {
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
        case(&mut Xoshiro256::new(seed));
    }
}

#[test]
fn multiqueue_drain_returns_exact_multiset() {
    for_each_seed(48, |rng| {
        let mq: MultiQueue<u64> = MultiQueue::new(1 + rng.bounded(15) as usize);
        let mut h = mq.handle(rng.next_u64());
        let want: Vec<(u64, u64)> = (0..1 + rng.bounded(199))
            .map(|value| (rng.bounded(1_000), value))
            .collect();
        for &(p, v) in &want {
            h.insert(p, v);
        }
        let mut got: Vec<(u64, u64)> = std::iter::from_fn(|| h.dequeue()).collect();
        got.sort_unstable_by_key(|&(_, value)| value);
        assert_eq!(got, want, "every value once, under its own priority");
    });
}

/// Walks `spec` along `labels` and checks, at every step, the laws of
/// `QuantitativeRelaxation`: costs are non-negative; a step is free
/// exactly when the exact specification allows it, and then lands in
/// the exact successor; `apply` and `apply_mut` agree on cost and state.
/// Returns the costs.
fn check_laws<S>(spec: &S, labels: &[S::Label]) -> Vec<f64>
where
    S: QuantitativeRelaxation,
    S::State: PartialEq + Debug,
    S::Label: Debug,
{
    let mut pure = spec.initial();
    let mut in_place = pure.clone();
    let mut costs = Vec::with_capacity(labels.len());
    for l in labels {
        let exact = spec.step(&pure, l);
        let (next, cost) = spec.apply(&pure, l);
        let cost_in_place = spec.apply_mut(&mut in_place, l);
        assert!(cost >= 0.0, "{l:?} cost {cost}");
        assert_eq!(cost.to_bits(), cost_in_place.to_bits(), "{l:?}");
        assert_eq!(next, in_place, "{l:?}");
        assert_eq!(exact.is_some(), cost == 0.0, "{l:?} cost {cost}");
        if let Some(exact) = exact {
            assert_eq!(exact, next, "{l:?}");
        }
        pure = next;
        costs.push(cost);
    }
    costs
}

#[test]
fn counter_read_costs_its_deviation() {
    for_each_seed(48, |rng| {
        let mut count = 0u64;
        let (labels, want): (Vec<CounterOp>, Vec<f64>) = (0..rng.bounded(100))
            .map(|_| match rng.bounded(3) {
                0 => {
                    count += 1;
                    (CounterOp::Inc, 0.0)
                }
                1 => (CounterOp::Read { returned: count }, 0.0),
                _ => {
                    let returned = rng.bounded(2 * count + 8);
                    (
                        CounterOp::Read { returned },
                        returned.abs_diff(count) as f64,
                    )
                }
            })
            .unzip();
        assert_eq!(check_laws(&CounterSpec, &labels), want);
    });
}

#[test]
fn pq_delete_costs_its_rank() {
    for_each_seed(48, |rng| {
        // The model: the priorities present, as a plain vector.
        let mut present: Vec<u64> = Vec::new();
        let (labels, want): (Vec<PqOp>, Vec<f64>) = (0..rng.bounded(120))
            .map(|_| {
                let p = rng.bounded(30);
                if rng.bounded(2) == 0 {
                    present.push(p);
                    (PqOp::Insert { priority: p }, 0.0)
                } else {
                    let cost = match present.iter().position(|&q| q == p) {
                        Some(at) => {
                            present.swap_remove(at);
                            present.iter().filter(|&&q| q < p).count() as f64
                        }
                        None => f64::INFINITY,
                    };
                    (PqOp::DeleteMin { removed: p }, cost)
                }
            })
            .unzip();
        assert_eq!(check_laws(&PqSpec, &labels), want);
    });
}

#[test]
fn fifo_dequeue_costs_its_position() {
    for_each_seed(48, |rng| {
        // The model: the queue, as a plain vector, oldest first.
        let mut queue: Vec<u64> = Vec::new();
        let mut enqueued = 0u64;
        let (labels, want): (Vec<FifoOp>, Vec<f64>) = (0..rng.bounded(120))
            .map(|_| {
                if rng.bounded(2) == 0 {
                    enqueued += 1;
                    queue.push(enqueued);
                    (FifoOp::Enqueue { id: enqueued }, 0.0)
                } else {
                    // Any id ever enqueued, or one never seen.
                    let id = rng.bounded(enqueued + 2);
                    let cost = match queue.iter().position(|&q| q == id) {
                        Some(at) => {
                            queue.remove(at);
                            at as f64
                        }
                        None => f64::INFINITY,
                    };
                    (FifoOp::Dequeue { id }, cost)
                }
            })
            .unzip();
        assert_eq!(check_laws(&FifoSpec, &labels), want);
    });
}
