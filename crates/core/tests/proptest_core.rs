//! Property-based tests for dlz-core: counter conservation, RNG
//! contracts, MultiQueue multiset semantics, and the algebraic laws of
//! the spec framework.

use dlz_core::rng::{Rng64, SplitMix64, Xoshiro256};
use dlz_core::spec::relaxation::quantitative_path;
use dlz_core::spec::{CounterOp, CounterSpec, FifoOp, FifoSpec, Lts, PqOp, PqSpec, SequentialSpec};
use dlz_core::{MultiCounter, MultiQueue, RelaxedCounter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn bounded_is_uniform_range(seed in any::<u64>(), n in 1u64..10_000) {
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.bounded(n) < n);
        }
    }

    #[test]
    fn splitmix_and_xoshiro_are_deterministic(seed in any::<u64>()) {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(seed);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(seed);
            (0..16).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(a, b);
        let x: Vec<u64> = {
            let mut r = Xoshiro256::new(seed);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let y: Vec<u64> = {
            let mut r = Xoshiro256::new(seed);
            (0..16).map(|_| r.next_u64()).collect()
        };
        prop_assert_eq!(x, y);
    }

    #[test]
    fn multicounter_conserves_any_m(seed in any::<u64>(), m in 1usize..64, k in 1u64..2_000) {
        let c = MultiCounter::new(m);
        let mut rng = Xoshiro256::new(seed);
        for _ in 0..k {
            c.increment_with(&mut rng);
        }
        prop_assert_eq!(c.read_exact(), k);
        // Conservation at cell level too.
        prop_assert_eq!(c.cell_values().iter().sum::<u64>(), k);
        // Reads are always a multiple of m.
        prop_assert_eq!(c.read_with(&mut rng) % m as u64, 0);
    }

    #[test]
    fn multiqueue_drain_returns_exact_multiset(
        seed in any::<u64>(),
        m in 1usize..16,
        priorities in proptest::collection::vec(0u64..1_000, 1..200),
    ) {
        let mq: MultiQueue<u64> = MultiQueue::new(m);
        let mut h = mq.handle(seed);
        for (i, &p) in priorities.iter().enumerate() {
            h.insert(p, i as u64);
        }
        let mut got_p = Vec::new();
        let mut got_v = Vec::new();
        while let Some((p, v)) = h.dequeue() {
            got_p.push(p);
            got_v.push(v);
        }
        let mut want_p = priorities.clone();
        want_p.sort_unstable();
        got_p.sort_unstable();
        prop_assert_eq!(got_p, want_p);
        got_v.sort_unstable();
        prop_assert_eq!(got_v, (0..priorities.len() as u64).collect::<Vec<_>>());
    }

    #[test]
    fn counter_relaxation_cost_law(ops in proptest::collection::vec(0u8..3, 0..100)) {
        // cost == 0  iff  the transition is legal in the exact spec.
        let spec = CounterSpec;
        let mut state = 0u64;
        for op in ops {
            let label = match op {
                0 => CounterOp::Inc,
                1 => CounterOp::Read { returned: state },      // legal read
                _ => CounterOp::Read { returned: state + 7 },  // illegal read
            };
            let legal = SequentialSpec::step(&spec, &state, &label).is_some();
            let (next, cost) =
                dlz_core::spec::QuantitativeRelaxation::apply(&spec, &state, &label);
            prop_assert_eq!(legal, cost == 0.0);
            prop_assert!(cost >= 0.0);
            state = next;
        }
    }

    #[test]
    fn pq_relaxation_rank_cost_is_exact_rank(
        inserts in proptest::collection::vec(0u64..100, 1..50),
        pick in any::<prop::sample::Index>(),
    ) {
        // Insert a set, delete one arbitrary element: the cost must be
        // exactly its rank among those present.
        let mut labels: Vec<PqOp> = inserts
            .iter()
            .map(|&p| PqOp::Insert { priority: p })
            .collect();
        let chosen = inserts[pick.index(inserts.len())];
        labels.push(PqOp::DeleteMin { removed: chosen });
        let (_, costs) = quantitative_path(&PqSpec, &labels);
        let expected_rank = inserts.iter().filter(|&&p| p < chosen).count() as f64;
        prop_assert_eq!(*costs.last().unwrap(), expected_rank);
    }

    #[test]
    fn apply_and_apply_mut_agree(ops in proptest::collection::vec((0u8..2, 0u64..30), 0..120)) {
        // Trait law: the in-place fast path must be observationally
        // identical to the pure apply, on both specs with custom
        // apply_mut implementations.
        use dlz_core::spec::QuantitativeRelaxation;
        let pq = PqSpec;
        let mut s_pure = QuantitativeRelaxation::initial(&pq);
        let mut s_mut = QuantitativeRelaxation::initial(&pq);
        for (kind, p) in &ops {
            let label = if *kind == 0 {
                PqOp::Insert { priority: *p }
            } else {
                PqOp::DeleteMin { removed: *p }
            };
            let (next, c1) = pq.apply(&s_pure, &label);
            let c2 = pq.apply_mut(&mut s_mut, &label);
            s_pure = next;
            prop_assert!(c1 == c2 || (c1.is_infinite() && c2.is_infinite()));
            prop_assert_eq!(&s_pure, &s_mut);
        }

        let fifo = FifoSpec;
        let mut f_pure = QuantitativeRelaxation::initial(&fifo);
        let mut f_mut = QuantitativeRelaxation::initial(&fifo);
        for (kind, id) in &ops {
            let label = if *kind == 0 {
                FifoOp::Enqueue { id: *id }
            } else {
                FifoOp::Dequeue { id: *id }
            };
            let (next, c1) = fifo.apply(&f_pure, &label);
            let c2 = fifo.apply_mut(&mut f_mut, &label);
            f_pure = next;
            prop_assert!(c1 == c2 || (c1.is_infinite() && c2.is_infinite()));
            prop_assert_eq!(&f_pure, &f_mut);
        }
    }

    #[test]
    fn fifo_exact_histories_cost_zero(k in 1usize..60) {
        // Enqueue 0..k then dequeue 0..k: perfectly FIFO, all costs 0.
        let mut labels: Vec<FifoOp> = (0..k as u64).map(|id| FifoOp::Enqueue { id }).collect();
        labels.extend((0..k as u64).map(|id| FifoOp::Dequeue { id }));
        let (_, costs) = quantitative_path(&FifoSpec, &labels);
        prop_assert!(costs.iter().all(|&c| c == 0.0));
        // And the exact LTS accepts the same history.
        prop_assert!(Lts::new(&FifoSpec).accepts(&labels));
    }

    #[test]
    fn fifo_reversed_dequeues_cost_positions(k in 2usize..40) {
        // Dequeue in reverse order: the i-th dequeue removes the element
        // at the back, whose position is (remaining - 1).
        let mut labels: Vec<FifoOp> = (0..k as u64).map(|id| FifoOp::Enqueue { id }).collect();
        labels.extend((0..k as u64).rev().map(|id| FifoOp::Dequeue { id }));
        let (_, costs) = quantitative_path(&FifoSpec, &labels);
        let dequeue_costs = &costs[k..];
        for (i, &c) in dequeue_costs.iter().enumerate() {
            prop_assert_eq!(c, (k - 1 - i) as f64);
        }
    }
}
