//! Cross-crate validation of the paper's quantitative claims, at test
//! scale (the bench binaries do the full-size versions).

use distlin::sim::process::{good_op_probabilities, majorizes, one_plus_beta_probabilities};
use distlin::sim::{
    Allocation, CorruptionPattern, PaperConstants, PotentialTrace, QueueProcess, Rule, Schedule,
};

#[test]
fn theorem_6_1_gap_logarithmic_under_adversary() {
    // m = 8n regime, stampede schedule, long run, sampled gap.
    let m = 256;
    let n = 32;
    let schedule = Schedule::BatchStampede { n };
    let mut p = Allocation::new(m, Rule::Async { schedule }, 0xF00);
    let mut trace = PotentialTrace::new(0.5, 20_000);
    trace.run(&mut p, 1_000_000);
    let bound = 4.0 * (m as f64).ln();
    assert!(
        trace.max_gap() <= bound,
        "gap {} exceeds O(log m) bound {bound}",
        trace.max_gap()
    );
}

#[test]
fn lemma_6_7_potential_linear_in_m() {
    for m in [64usize, 256] {
        let n = m / 8;
        let schedule = Schedule::RoundRobin { n };
        let mut p = Allocation::new(m, Rule::Async { schedule }, 0xF1);
        let mut trace = PotentialTrace::new(0.25, 20_000);
        trace.run(&mut p, 500_000);
        assert!(
            trace.max_gamma() <= 20.0 * m as f64,
            "Γ = {} not O(m) for m = {m}",
            trace.max_gamma()
        );
    }
}

#[test]
fn corruption_robustness_vs_divergence() {
    // ε = 1/16 bounded; ε = 1 divergent — the dichotomy the proof needs.
    let m = 128;
    let iid = |eps| Rule::Corrupted {
        pattern: CorruptionPattern::Iid { eps },
    };
    let mut ok = Allocation::new(m, iid(1.0 / 16.0), 1);
    let mut bad = Allocation::new(m, iid(1.0), 1);
    ok.run(600_000);
    bad.run(600_000);
    assert!(ok.bins().gap() <= 6.0 * (m as f64).ln());
    assert!(bad.bins().gap() > 4.0 * ok.bins().gap());
}

#[test]
fn one_plus_beta_gap_scales_inverse_beta() {
    // Gap(β=1/8) should exceed Gap(β=1) (β=1 is pure two-choice)
    // roughly by a factor related to 1/β; assert direction + order.
    let m = 128;
    let mut tight = Allocation::new(m, Rule::OnePlusBeta { beta: 1.0 }, 3);
    let mut loose = Allocation::new(m, Rule::OnePlusBeta { beta: 0.125 }, 3);
    tight.run(500_000);
    loose.run(500_000);
    assert!(loose.bins().gap() > tight.bins().gap());
    assert!(loose.bins().gap() <= 4.0 * (m as f64).ln() / 0.125);
}

#[test]
fn lemma_6_4_majorization_across_regimes() {
    for m in [2usize, 3, 8, 100, 1000] {
        for gamma in [0.01, 0.1, 0.25, 0.5] {
            let p = good_op_probabilities(m, 0.5 + gamma);
            let q = one_plus_beta_probabilities(m, 2.0 * gamma);
            assert!(majorizes(&p, &q), "m={m} gamma={gamma}");
        }
    }
}

#[test]
fn paper_constants_are_consistent() {
    let c = PaperConstants::lemma_6_3();
    // The chain: β = 2γ, ε = β/12, α = min(1/2, ε/6), C ≥ 1 + 36/ε.
    assert!(c.beta > c.eps && c.eps > c.alpha);
    assert!(c.c_threshold > 1000.0 && c.c_threshold < 1200.0);
}

#[test]
fn single_choice_divergence_vs_two_choice() {
    let m = 64;
    let t = 500_000;
    let mut one = Allocation::new(m, Rule::DChoice { d: 1 }, 9);
    let mut two = Allocation::new(m, Rule::DChoice { d: 2 }, 9);
    one.run(t);
    two.run(t);
    // Θ(√(t ln m / m)) vs O(log log m): the ratio is large.
    assert!(one.bins().gap() >= 5.0 * two.bins().gap());
}

#[test]
fn queue_process_rank_scales_linearly_in_m() {
    // Mean rank is O(m): doubling m should roughly double mean rank,
    // certainly not blow it up superlinearly.
    let mean_rank = |m: usize| {
        let b = 200 * m;
        let mut p = QueueProcess::new(m, b, 1, 0xAB ^ m as u64);
        for _ in 0..b {
            p.insert();
        }
        let mut sum = 0usize;
        let removals = b / 2;
        for _ in 0..removals {
            sum += p.remove_retrying(0).expect("non-empty").1;
        }
        sum as f64 / removals as f64
    };
    let m8 = mean_rank(8);
    let m32 = mean_rank(32);
    assert!(m8 <= 2.0 * 8.0, "mean rank at m=8 is {m8}");
    assert!(m32 <= 2.0 * 32.0, "mean rank at m=32 is {m32}");
    assert!(m32 > m8, "rank must grow with m");
}
