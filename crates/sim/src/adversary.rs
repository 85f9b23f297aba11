//! Tests of the stale-read rules, [`Rule::Async`](crate::Rule::Async)
//! and [`Rule::AsyncWeighted`](crate::Rule::AsyncWeighted): the
//! paper's concurrency model of Section 6.1 and Theorem 7.1's weighted
//! setting.

#[cfg(test)]
mod tests {
    use dlz_core::rng::{Rng64, Xoshiro256};

    use crate::{Allocation, BinState, Rule, Schedule};

    fn unit(m: usize, schedule: Schedule, seed: u64) -> Allocation {
        Allocation::new(m, Rule::Async { schedule }, seed)
    }

    fn weighted(m: usize, schedule: Schedule, seed: u64) -> Allocation {
        Allocation::new(m, Rule::AsyncWeighted { schedule }, seed)
    }

    #[test]
    fn sequential_schedule_matches_classic_two_choice() {
        // With staleness 0 the async process *is* the classic process:
        // same seed → identical trajectories.
        let mut a = unit(32, Schedule::Sequential, 9);
        let mut c = Allocation::new(32, Rule::DChoice { d: 2 }, 9);
        a.run(50_000);
        c.run(50_000);
        assert_eq!(a.bins().weights(), c.bins().weights());
        assert_eq!(a.wrong_choices(), 0);
    }

    #[test]
    fn sequential_weighted_schedule_matches_classic_weighted_two_choice() {
        // Staleness 0 draws nothing extra: the async weighted process is
        // the classic one, draw for draw — two uniform bins, the lighter
        // one (ties to the first) gets an Exp(1) weight by inversion.
        for seed in 0..4 {
            let mut a = weighted(64, Schedule::Sequential, seed);
            a.run(200_000);
            let (mut bins, mut rng) = (BinState::new(64), Xoshiro256::new(seed));
            for _ in 0..200_000 {
                let i = rng.bounded(64) as usize;
                let j = rng.bounded(64) as usize;
                let target = if bins.weight(i) <= bins.weight(j) {
                    i
                } else {
                    j
                };
                bins.add(target, -(1.0 - rng.uniform_f64()).ln());
            }
            assert_eq!(a.bins().weights(), bins.weights(), "seed {seed}");
        }
    }

    /// Brute-force check: replay `p` for `steps` steps and compare its
    /// stale values against an explicitly stored history of snapshots.
    fn assert_stale_reads_match_history(
        mut p: Allocation,
        steps: usize,
        max_staleness: usize,
        tolerance: f64,
    ) {
        let m = p.bins().weights().len();
        let mut snapshots: Vec<Vec<f64>> = vec![p.bins().weights().to_vec()];
        for _ in 0..steps {
            p.step();
            snapshots.push(p.bins().weights().to_vec());
        }
        // After t steps, stale_weights(a, b, s) must equal
        // snapshot[t - s] at a and at b, for every pair (a = b too).
        let t = snapshots.len() - 1;
        for s in 0..=max_staleness {
            for (a, b) in (0..m).flat_map(|a| (0..m).map(move |b| (a, b))) {
                let (got_a, got_b) = p.stale_weights(a, b, s);
                let (want_a, want_b) = (snapshots[t - s][a], snapshots[t - s][b]);
                assert!(
                    (got_a - want_a).abs() <= tolerance && (got_b - want_b).abs() <= tolerance,
                    "{:?}: bins {a}, {b} staleness {s}: ({got_a}, {got_b})",
                    p.rule()
                );
            }
        }
    }

    #[test]
    fn stale_weight_reconstruction_is_exact() {
        // Unit weights come back exactly.
        assert_stale_reads_match_history(unit(8, Schedule::RoundRobin { n: 5 }, 3), 2_000, 4, 0.0);
    }

    #[test]
    fn weighted_stale_reconstruction_consistent() {
        // Exp(1) weights share the unit rule's stale-read ring; they
        // come back up to rounding.
        assert_stale_reads_match_history(
            weighted(8, Schedule::RoundRobin { n: 4 }, 3),
            500,
            3,
            1e-9,
        );
    }

    #[test]
    fn gap_stays_logarithmic_with_m_ge_cn() {
        // Theorem 6.1 regime: m = 8·n. Gap should stay O(log m) even
        // under the stampede schedule.
        let n = 8;
        let m = 64;
        let mut p = unit(m, Schedule::BatchStampede { n }, 7);
        p.run(500_000);
        assert!(
            p.bins().gap() <= 4.0 * (m as f64).ln(),
            "gap {} too large",
            p.bins().gap()
        );
    }

    #[test]
    fn staleness_produces_wrong_choices() {
        // With heavy staleness, some updates must land on the currently
        // more loaded bin — the phenomenon Section 6.1 discusses.
        let mut p = unit(16, Schedule::UniformDelay { max: 64 }, 5);
        p.run(100_000);
        assert!(p.wrong_choices() > 0);
        // ...but still a small fraction at this staleness/bin ratio.
        assert!((p.wrong_choices() as f64) < 0.5 * 100_000.0);
    }

    #[test]
    fn more_staleness_means_worse_balance() {
        let run = |sched| {
            let mut p = unit(32, sched, 11);
            p.run(300_000);
            p.bins().gap()
        };
        let g0 = run(Schedule::Sequential);
        let g_heavy = run(Schedule::UniformDelay { max: 512 });
        assert!(
            g_heavy >= g0,
            "staleness should not improve balance: {g0} vs {g_heavy}"
        );
    }

    #[test]
    fn weighted_async_total_tracks_t() {
        // Stale reads under the stampede; the Sequential case is
        // process::tests::weighted_process_total_is_near_t.
        let mut p = weighted(64, Schedule::BatchStampede { n: 8 }, 13);
        p.run(100_000);
        assert_eq!(p.steps_done(), 100_000);
        // E[W] = 1: total within a few σ = √t of t.
        assert!((p.bins().total() - 100_000.0).abs() < 5.0 * (100_000f64).sqrt());
        // Gap O(log m) for the weighted process too.
        assert!(p.bins().gap() <= 40.0, "gap {}", p.bins().gap());
    }

    #[test]
    fn weighted_async_gap_bounded_in_regime() {
        // Theorem 7.1's setting: m = 8n, exponential weights, stale
        // reads. The potential argument gives gap O(log m) again
        // (weighted constants are larger — allow slack).
        let m = 64;
        let mut p = weighted(m, Schedule::BatchStampede { n: 8 }, 7);
        p.run(400_000);
        assert!(
            p.bins().gap() <= 10.0 * (m as f64).ln(),
            "weighted gap {} too large",
            p.bins().gap()
        );
    }

    #[test]
    fn max_staleness_accessor() {
        assert_eq!(Schedule::Sequential.max_staleness(), 0);
        assert_eq!(Schedule::BatchStampede { n: 8 }.max_staleness(), 7);
        assert_eq!(Schedule::UniformDelay { max: 3 }.max_staleness(), 3);
        assert_eq!(Schedule::RoundRobin { n: 4 }.max_staleness(), 3);
    }
}
