//! Tests of [`Rule::Corrupted`](crate::Rule::Corrupted), the
//! ε-corrupted two-choice process at the heart of the paper's proof
//! (Section 6.3).

#[cfg(test)]
mod tests {
    use crate::{Allocation, CorruptionPattern, Rule};

    fn corrupted(m: usize, pattern: CorruptionPattern, seed: u64) -> Allocation {
        Allocation::new(m, Rule::Corrupted { pattern }, seed)
    }

    #[test]
    fn no_corruption_matches_two_choice_statistics() {
        let mut p = corrupted(64, CorruptionPattern::None, 1);
        p.run(200_000);
        assert_eq!(p.corrupted_steps(), 0);
        assert!(p.bins().gap() <= 12.0, "gap {}", p.bins().gap());
    }

    #[test]
    fn iid_corruption_rate_is_respected() {
        let mut p = corrupted(16, CorruptionPattern::Iid { eps: 0.25 }, 2);
        p.run(100_000);
        let rate = p.corrupted_steps() as f64 / 100_000.0;
        assert!((rate - 0.25).abs() < 0.01, "rate {rate}");
    }

    #[test]
    fn small_corruption_keeps_log_gap() {
        // The paper's robustness claim: ε = 1/C corruption still gives
        // an O(log m) gap. Test ε = 1/16 over a long run.
        let m = 64;
        let mut p = corrupted(m, CorruptionPattern::Iid { eps: 1.0 / 16.0 }, 3);
        p.run(1_000_000);
        assert!(
            p.bins().gap() <= 6.0 * (m as f64).ln(),
            "gap {} not O(log m)",
            p.bins().gap()
        );
    }

    #[test]
    fn burst_corruption_also_keeps_log_gap() {
        // Bursts (n bad in a row out of every Cn) are the adversary's
        // best ordering; the bound must still hold.
        let m = 64;
        let pattern = CorruptionPattern::Burst {
            period: 128,
            burst: 8,
        };
        let mut p = corrupted(m, pattern, 4);
        p.run(1_000_000);
        assert!((pattern.rate() - 1.0 / 16.0).abs() < 1e-12);
        assert!(
            p.bins().gap() <= 6.0 * (m as f64).ln(),
            "gap {} not O(log m)",
            p.bins().gap()
        );
    }

    #[test]
    fn full_corruption_diverges() {
        // ε = 1: always insert into the more loaded bin — the gap must
        // blow up (worse than single choice). Negative control.
        let m = 16;
        let mut worst = corrupted(m, CorruptionPattern::Iid { eps: 1.0 }, 5);
        let mut clean = corrupted(m, CorruptionPattern::None, 5);
        worst.run(100_000);
        clean.run(100_000);
        assert!(
            worst.bins().gap() >= 20.0 * clean.bins().gap(),
            "worst {} clean {}",
            worst.bins().gap(),
            clean.bins().gap()
        );
    }

    #[test]
    fn corruption_monotone_in_eps() {
        let gap = |eps, seed| {
            let mut p = corrupted(32, CorruptionPattern::Iid { eps }, seed);
            p.run(300_000);
            p.bins().gap()
        };
        // Averaged over a few seeds to avoid flakiness.
        let lo: f64 = (0..3).map(|s| gap(0.05, s)).sum::<f64>() / 3.0;
        let hi: f64 = (0..3).map(|s| gap(0.6, s)).sum::<f64>() / 3.0;
        assert!(hi > lo, "eps=0.6 gap {hi} should exceed eps=0.05 gap {lo}");
    }
}
