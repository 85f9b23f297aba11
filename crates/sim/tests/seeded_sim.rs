//! Seeded property tests for dlz-sim (std only): Fenwick prefix sums
//! against a plain vector, ball conservation of every process, the
//! gap and potential identities of `BinState`, and the monotonicity of
//! majorization in the bias. A failing case prints its seed.

use dlz_core::rng::{Rng64, Xoshiro256};
use dlz_sim::process::{good_op_probabilities, majorizes, one_plus_beta_probabilities};
use dlz_sim::{
    AsyncTwoChoice, BallsProcess, BinState, CorruptedTwoChoice, CorruptionPattern, DChoice,
    Fenwick, OnePlusBeta, Schedule,
};

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
fn fenwick_matches_naive() {
    for_each_seed(48, |rng| {
        let n = 1 + rng.bounded(127) as usize;
        let mut tree = Fenwick::new(n);
        let mut naive = vec![0i64; n];
        for _ in 0..rng.bounded(200) {
            let i = rng.bounded(n as u64) as usize;
            let delta = rng.bounded(7) as i64 - 3;
            tree.add(i, delta);
            naive[i] += delta;
        }
        for i in 0..=n {
            assert_eq!(
                tree.prefix(i),
                naive[..i].iter().sum::<i64>(),
                "prefix({i})"
            );
        }
    });
}

#[test]
fn every_process_places_one_ball_per_step() {
    for_each_seed(24, |rng| {
        let steps = 1 + rng.bounded(4_999);
        let m = 1 + rng.bounded(63) as usize;
        let seed = rng.next_u64();
        let processes: Vec<Box<dyn BallsProcess>> = vec![
            Box::new(DChoice::new(m, 2, seed)),
            Box::new(DChoice::new(m, 1, seed)),
            Box::new(DChoice::new(m, 3, seed)),
            Box::new(OnePlusBeta::new(m, 0.5, seed)),
            Box::new(AsyncTwoChoice::new(
                m,
                Schedule::BatchStampede { n: 4 },
                seed,
            )),
            Box::new(CorruptedTwoChoice::new(
                m,
                CorruptionPattern::Iid { eps: 0.3 },
                seed,
            )),
        ];
        for (which, mut p) in processes.into_iter().enumerate() {
            p.run(steps);
            assert_eq!(p.bins().total(), steps as f64, "process {which}, m {m}");
            assert_eq!(p.steps_done(), steps, "process {which}");
        }
    });
}

#[test]
fn bin_state_identities() {
    for_each_seed(48, |rng| {
        let m = 1 + rng.bounded(63) as usize;
        let mut bins = BinState::new(m);
        for i in 0..m {
            bins.add(i, rng.bounded(1_000) as f64);
        }
        // The gap splits at the mean, and the deviations cancel.
        assert!((bins.gap_above() + bins.gap_below() - bins.gap()).abs() < 1e-9);
        let deviations: f64 = (0..m).map(|i| bins.y(i)).sum();
        assert!(deviations.abs() < 1e-6, "sum of y = {deviations}");
        // Γ = Σ (e^{αy} + e^{−αy}) is at least 2 per bin, and bounds the
        // exponential of each one-sided gap from above.
        assert!(bins.gamma(0.37) >= 2.0 * m as f64);
        let alpha = 0.11;
        assert!(bins.gamma(alpha) + 1e-9 >= (alpha * bins.gap_above()).exp());
        assert!(bins.gamma(alpha) + 1e-9 >= (alpha * bins.gap_below()).exp());
    });
}

#[test]
fn majorization_is_reflexive_and_monotone_in_the_bias() {
    for_each_seed(48, |rng| {
        let m = 2 + rng.bounded(126) as usize;
        let mut bias = || 0.01 + 0.48 * (rng.bounded(1 << 20) as f64 / (1 << 20) as f64);
        let (a, b) = (bias(), bias());
        let (lo, hi) = (a.min(b), a.max(b));
        let p_hi = good_op_probabilities(m, 0.5 + hi);
        let p_lo = good_op_probabilities(m, 0.5 + lo);
        assert!(majorizes(&p_hi, &p_hi), "m {m}, γ {hi}");
        // A more biased good op majorizes a less biased one, and each
        // majorizes its (1 + 2γ) counterpart (Lemma 6.4).
        assert!(majorizes(&p_hi, &p_lo), "m {m}, γ {lo} vs {hi}");
        assert!(
            majorizes(&p_hi, &one_plus_beta_probabilities(m, 2.0 * hi)),
            "m {m}, γ {hi}"
        );
    });
}
