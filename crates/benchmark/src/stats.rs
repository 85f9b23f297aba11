//! Order statistics for a handful of samples.
//!
//! Quartiles use the same rule as Python's
//! `statistics.quantiles(values, n=4)` (exclusive method), so the
//! spread this binary prints is the spread a driver computing it from
//! the raw values would see.

/// Five-number summary of one metric's samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest sample.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
}

impl Summary {
    /// Summarises `values` (any order).
    ///
    /// # Panics
    /// If `values` is empty or holds a NaN.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "no samples to summarise");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
        let n = v.len();
        Summary {
            n,
            min: v[0],
            q1: quantile(&v, 1),
            median: quantile(&v, 2),
            q3: quantile(&v, 3),
            max: v[n - 1],
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0): the spread figure the bounds are compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Samples a timed value is averaged over.
const KEPT: usize = 4;

/// The mean of the second to the fifth best of `values`, and never of
/// more than their better half (of three samples: the second best).
///
/// On a shared host a disturbance can only slow a timed sample down —
/// the one state that speeds it up is gated, see [`crate::placement`] —
/// so the best samples estimate the undisturbed cost; dropping the very
/// best keeps one lucky run from deciding the value. Of nine samples
/// that is the better half; a workload cut into more, shorter samples
/// reads its quietest moments. Averaging several samples also keeps a
/// latency read off a 3%-bucket histogram from repeating the same
/// bucket midpoint run after run.
///
/// # Panics
/// If `values` is empty or holds a NaN.
pub fn good_mean(values: &[f64], lower_is_better: bool) -> f64 {
    assert!(!values.is_empty(), "no samples to average");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    if !lower_is_better {
        v.reverse();
    }
    if v.len() == 1 {
        return v[0];
    }
    let kept = &v[1..=(v.len() / 2).min(KEPT)];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// The `k`-th quartile of sorted `v` by the exclusive method:
/// position `k(n+1)/4` (1-based), linearly interpolated, clamped to the
/// extremes.
fn quantile(v: &[f64], k: usize) -> f64 {
    let n = v.len();
    if n == 1 {
        return v[0];
    }
    let pos = k as f64 * (n as f64 + 1.0) / 4.0;
    let lo = (pos.floor() as usize).clamp(1, n - 1);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    v[lo - 1] + (v[lo] - v[lo - 1]) * frac
}

/// How much worse `b` is than `a`, as a share of `a` (positive = worse)
/// for a metric where lower is better iff `lower_is_better`.
pub fn worsening(a: f64, b: f64, lower_is_better: bool) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let rel = (b - a) / a.abs();
    if lower_is_better {
        rel
    } else {
        -rel
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.min, s.max, s.n), (1.0, 5.0, 5));
        // statistics.quantiles([10, 20, 30, 40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // ten values: [2.75, 5.5, 8.25] for 1..=10
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn good_mean_keeps_the_second_to_fifth_best() {
        let nine = [9.0, 1.0, 8.0, 2.0, 7.0, 3.0, 6.0, 4.0, 5.0];
        // lower is better: best is 1, then 2, 3, 4, 5.
        assert_eq!(good_mean(&nine, true), 3.5);
        // higher is better: best is 9, then 8, 7, 6, 5.
        assert_eq!(good_mean(&nine, false), 6.5);
        // One freak sample on either side changes nothing.
        let mut freak = nine;
        freak[1] = -1_000.0;
        freak[0] = 1_000.0;
        assert_eq!(good_mean(&freak, true), 3.5);
        // More samples do not widen the band.
        let many: Vec<f64> = (1..=36).map(f64::from).collect();
        assert_eq!(good_mean(&many, true), 3.5);
        assert_eq!(good_mean(&many, false), 33.5);
        // Fewer narrow it to the better half.
        assert_eq!(good_mean(&[5.0, 4.0, 9.0, 1.0, 2.0], true), 3.0);
        assert_eq!(good_mean(&[3.0, 1.0], true), 3.0);
        assert_eq!(good_mean(&[7.0], false), 7.0);
    }

    #[test]
    fn quartiles_of_tiny_sets_stay_in_range() {
        let one = Summary::of(&[7.0]);
        assert_eq!((one.q1, one.median, one.q3), (7.0, 7.0, 7.0));
        let two = Summary::of(&[1.0, 3.0]);
        assert_eq!((two.q1, two.median, two.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn worsening_is_signed_towards_worse() {
        assert!((worsening(100.0, 110.0, true) - 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 110.0, false) + 0.10).abs() < 1e-12);
        assert!((worsening(100.0, 90.0, false) - 0.10).abs() < 1e-12);
        assert_eq!(worsening(0.0, 5.0, true), 0.0);
    }
}
