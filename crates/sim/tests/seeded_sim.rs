//! Seeded property tests for dlz-sim (std only): Fenwick prefix sums
//! against a plain vector, ball conservation and the pinned trajectory
//! of every process, the gap and potential identities of `BinState`,
//! and the monotonicity of majorization in the bias. A failing case
//! prints its seed.

use dlz_core::rng::{Rng64, Xoshiro256};
use dlz_sim::process::{good_op_probabilities, majorizes, one_plus_beta_probabilities};
use dlz_sim::{Allocation, BinState, CorruptionPattern, Fenwick, Rule, Schedule};

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
        let stampede = Schedule::BatchStampede { n: 4 };
        let rules = [
            Rule::DChoice { d: 2 },
            Rule::DChoice { d: 1 },
            Rule::DChoice { d: 3 },
            Rule::OnePlusBeta { beta: 0.5 },
            Rule::Async { schedule: stampede },
            Rule::Corrupted {
                pattern: CorruptionPattern::Iid { eps: 0.3 },
            },
            Rule::AsyncWeighted { schedule: stampede },
        ];
        for rule in rules {
            let mut p = Allocation::new(m, rule, seed);
            p.run(steps);
            assert_eq!(p.steps_done(), steps, "{rule:?}");
            let bins = p.bins();
            if let Rule::AsyncWeighted { .. } = rule {
                // One Exp(1) ball per step: every ball is positive, and
                // the running total is the bins' sum.
                let sum: f64 = bins.weights().iter().sum();
                assert!(bins.total() > 0.0, "{rule:?}, m {m}");
                assert!(
                    (sum - bins.total()).abs() <= 1e-9 * bins.total(),
                    "{rule:?}, m {m}"
                );
            } else {
                assert_eq!(bins.total(), steps as f64, "{rule:?}, m {m}");
            }
        }
    });
}

/// Runs `p` for 20,000 steps and folds every bin weight's `f64` bits,
/// then the `[wrong-choice, corrupted-step]` counters, into one word.
fn pin(mut p: Allocation, counters: fn(&Allocation) -> [u64; 2]) -> u64 {
    p.run(20_000);
    let words = p.bins().weights().iter().map(|w| w.to_bits());
    let mix = |h: u64, x: u64| (h.rotate_left(5) ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    words.chain(counters(&p)).fold(0xcbf2_9ce4_8422_2325, mix)
}

fn none<P>(_: &P) -> [u64; 2] {
    [0, 0]
}

fn wrong(p: &Allocation) -> [u64; 2] {
    [p.wrong_choices(), 0]
}

fn corrupted(p: &Allocation) -> [u64; 2] {
    [0, p.corrupted_steps()]
}

#[test]
fn every_process_reproduces_its_pinned_trajectory() {
    // A changed constant means a draw moved, a tie broke the other way,
    // or a stale weight was reconstructed differently.
    const STAMPEDE: Schedule = Schedule::BatchStampede { n: 8 };
    const ASYNC_STAMPEDE: Rule = Rule::Async { schedule: STAMPEDE };
    const ASYNC_ROBIN: Rule = Rule::Async {
        schedule: Schedule::RoundRobin { n: 4 },
    };
    const ASYNC_UNIFORM: Rule = Rule::Async {
        schedule: Schedule::UniformDelay { max: 16 },
    };
    const WEIGHTED_STAMPEDE: Rule = Rule::AsyncWeighted { schedule: STAMPEDE };
    const IID: Rule = Rule::Corrupted {
        pattern: CorruptionPattern::Iid { eps: 0.25 },
    };
    const BURST: Rule = Rule::Corrupted {
        pattern: CorruptionPattern::Burst {
            period: 128,
            burst: 32,
        },
    };
    const NONE: Rule = Rule::Corrupted {
        pattern: CorruptionPattern::None,
    };
    let runs: [fn(usize, u64) -> u64; 11] = [
        |m, s| pin(Allocation::new(m, Rule::DChoice { d: 1 }, s), none),
        |m, s| pin(Allocation::new(m, Rule::DChoice { d: 2 }, s), none),
        |m, s| pin(Allocation::new(m, Rule::DChoice { d: 3 }, s), none),
        |m, s| pin(Allocation::new(m, Rule::OnePlusBeta { beta: 0.5 }, s), none),
        |m, s| pin(Allocation::new(m, ASYNC_STAMPEDE, s), wrong),
        |m, s| pin(Allocation::new(m, ASYNC_ROBIN, s), wrong),
        |m, s| pin(Allocation::new(m, ASYNC_UNIFORM, s), wrong),
        |m, s| pin(Allocation::new(m, WEIGHTED_STAMPEDE, s), none),
        |m, s| pin(Allocation::new(m, IID, s), corrupted),
        |m, s| pin(Allocation::new(m, BURST, s), corrupted),
        |m, s| pin(Allocation::new(m, NONE, s), corrupted),
    ];
    // One row per run above, one column per (m, seed) point.
    let pinned: [[u64; 2]; 11] = [
        [0xbccc_5b89_9815_1194, 0x5d28_fb3c_6586_5c8d],
        [0x8bea_4056_e3c6_4f0e, 0x0dd2_5243_4cfd_2b62],
        [0x9ea5_110d_1c9e_4153, 0x9f1c_d6b1_46bd_bf73],
        [0xf9d5_156b_6f79_4edd, 0x7f33_e765_bfb2_c3ca],
        [0x3059_2d0f_3674_9c8b, 0xcd65_1e85_aa05_dce4],
        [0xa460_f55f_a71a_e666, 0x4de0_b3e0_4bca_379a],
        [0x2e18_aa55_7f94_04ba, 0x1c58_1371_3c31_5e53],
        [0x9f90_2d70_4d26_a27b, 0x11f9_9ca8_771b_1491],
        [0x114a_2d55_e00a_a028, 0x6653_dc0b_cdd5_e86f],
        [0x8325_0db6_c427_8d78, 0xcdc8_b727_534c_4c61],
        [0x8bea_4056_e3c6_4f0e, 0x0dd2_5243_4cfd_2b62],
    ];
    for (row, (run, pinned)) in runs.iter().zip(pinned).enumerate() {
        let got = [(64, 1), (37, 0xd15c)].map(|(m, seed)| run(m, seed));
        assert_eq!(got, pinned, "row {row} moved to {got:#018x?}");
    }
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
