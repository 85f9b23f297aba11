//! Key/priority/weight distributions.
//!
//! Scenarios describe *what* is drawn ([`Dist`]) declaratively;
//! [`Sampler`] turns a distribution into per-worker sampling state. All
//! sampling is deterministic given the worker's seed. *When* operations
//! are issued is the client driver's business
//! ([`ArrivalShape`](crate::clients::ArrivalShape)).

use dlz_core::rng::Rng64;

/// A declarative value distribution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Dist {
    /// Always the same value.
    Fixed(u64),
    /// Uniform over `0..n`.
    Uniform {
        /// Exclusive upper bound (must be ≥ 1).
        n: u64,
    },
    /// Zipfian over `0..n` with skew `theta ∈ (0, 1)`: key 0 is hottest.
    ///
    /// Uses the closed-form approximation of Gray et al. (*Quickly
    /// Generating Billion-Record Synthetic Databases*, SIGMOD '94) — the
    /// same generator YCSB popularized — with the ζ constants
    /// precomputed once at scenario setup.
    Zipf {
        /// Exclusive upper bound (must be ≥ 2).
        n: u64,
        /// Skew exponent in `(0, 1)`; 0.99 is the YCSB default.
        theta: f64,
    },
    /// Per-stream monotone sequence `w, w + T, w + 2T, …` where `w` is
    /// the stream (worker) id and `T` the stream count: globally dense,
    /// unique, and roughly insertion-ordered — the "priorities are
    /// timestamps" regime of the paper's queue semantics. (The engine
    /// reserves one extra stream for its prefill worker, so prefilled
    /// priorities never collide with measured ones.)
    Monotonic,
}

/// Per-worker sampling state for a [`Dist`].
#[derive(Debug, Clone)]
pub enum Sampler {
    /// See [`Dist::Fixed`].
    Fixed(u64),
    /// See [`Dist::Uniform`].
    Uniform {
        /// Exclusive upper bound.
        n: u64,
    },
    /// See [`Dist::Zipf`] — precomputed constants.
    Zipf {
        /// Exclusive upper bound.
        n: u64,
        /// Skew exponent.
        theta: f64,
        /// `1 / (1 - theta)`.
        alpha: f64,
        /// `ζ(n, theta)`.
        zetan: f64,
        /// Gray et al.'s η constant.
        eta: f64,
    },
    /// See [`Dist::Monotonic`] — next value and stride.
    Monotonic {
        /// Next value to emit.
        next: u64,
        /// Increment between emissions (the worker count).
        stride: u64,
    },
}

fn zeta(n: u64, theta: f64) -> f64 {
    // O(n) once per scenario; fine up to tens of millions of keys.
    let mut sum = 0.0;
    for i in 1..=n {
        sum += 1.0 / (i as f64).powf(theta);
    }
    sum
}

impl Dist {
    /// Short human-readable label used in sweep-cell names and grid
    /// coordinates (e.g. `uniform(65536)`, `zipf(16384,0.9)`).
    pub fn label(&self) -> String {
        match self {
            Dist::Fixed(v) => format!("fixed({v})"),
            Dist::Uniform { n } => format!("uniform({n})"),
            Dist::Zipf { n, theta } => format!("zipf({n},{theta})"),
            Dist::Monotonic => "monotonic".to_string(),
        }
    }

    /// Builds the sampler for worker `worker` of `threads`.
    ///
    /// # Panics
    /// On out-of-range parameters (`n == 0`, `theta ∉ (0, 1)`).
    pub fn sampler(&self, worker: usize, threads: usize) -> Sampler {
        match *self {
            Dist::Fixed(v) => Sampler::Fixed(v),
            Dist::Uniform { n } => {
                assert!(n >= 1, "Uniform needs n >= 1");
                Sampler::Uniform { n }
            }
            Dist::Zipf { n, theta } => {
                assert!(n >= 2, "Zipf needs n >= 2");
                assert!(
                    theta > 0.0 && theta < 1.0,
                    "Zipf skew must lie in (0, 1), got {theta}"
                );
                let zetan = zeta(n, theta);
                let zeta2 = zeta(2, theta);
                let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
                Sampler::Zipf {
                    n,
                    theta,
                    alpha: 1.0 / (1.0 - theta),
                    zetan,
                    eta,
                }
            }
            Dist::Monotonic => Sampler::Monotonic {
                next: worker as u64,
                stride: (threads.max(1)) as u64,
            },
        }
    }
}

impl Sampler {
    /// Draws the next value.
    #[inline]
    pub fn draw(&mut self, rng: &mut impl Rng64) -> u64 {
        match self {
            Sampler::Fixed(v) => *v,
            Sampler::Uniform { n } => rng.bounded(*n),
            Sampler::Zipf {
                n,
                theta,
                alpha,
                zetan,
                eta,
            } => {
                let u = rng.uniform_f64();
                let uz = u * *zetan;
                if uz < 1.0 {
                    0
                } else if uz < 1.0 + 0.5f64.powf(*theta) {
                    1
                } else {
                    let v = (*n as f64 * (*eta * u - *eta + 1.0).powf(*alpha)) as u64;
                    v.min(*n - 1)
                }
            }
            Sampler::Monotonic { next, stride } => {
                let v = *next;
                *next += *stride;
                v
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlz_core::rng::Xoshiro256;

    #[test]
    fn uniform_covers_range() {
        let mut s = Dist::Uniform { n: 8 }.sampler(0, 1);
        let mut rng = Xoshiro256::new(1);
        let mut seen = [false; 8];
        for _ in 0..1000 {
            let v = s.draw(&mut rng);
            assert!(v < 8);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn fixed_is_constant() {
        let mut s = Dist::Fixed(7).sampler(3, 4);
        let mut rng = Xoshiro256::new(2);
        for _ in 0..10 {
            assert_eq!(s.draw(&mut rng), 7);
        }
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let n = 1000u64;
        let mut s = Dist::Zipf { n, theta: 0.99 }.sampler(0, 1);
        let mut rng = Xoshiro256::new(3);
        let mut head = 0u64;
        let draws = 20_000;
        for _ in 0..draws {
            let v = s.draw(&mut rng);
            assert!(v < n);
            if v < 10 {
                head += 1;
            }
        }
        // Under theta=0.99 the top-10 keys carry well over a third of
        // the mass; uniform would give 1%.
        assert!(
            head as f64 / draws as f64 > 0.3,
            "zipf head mass too small: {head}/{draws}"
        );
    }

    #[test]
    fn monotonic_interleaves_workers_densely() {
        let mut a = Dist::Monotonic.sampler(0, 2);
        let mut b = Dist::Monotonic.sampler(1, 2);
        let mut rng = Xoshiro256::new(4);
        let mut all: Vec<u64> = (0..5)
            .flat_map(|_| [a.draw(&mut rng), b.draw(&mut rng)])
            .collect();
        all.sort_unstable();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_deterministic_per_seed() {
        let mut s1 = Dist::Zipf { n: 100, theta: 0.8 }.sampler(0, 1);
        let mut s2 = Dist::Zipf { n: 100, theta: 0.8 }.sampler(0, 1);
        let mut r1 = Xoshiro256::new(9);
        let mut r2 = Xoshiro256::new(9);
        for _ in 0..100 {
            assert_eq!(s1.draw(&mut r1), s2.draw(&mut r2));
        }
    }

    #[test]
    #[should_panic(expected = "Zipf skew")]
    fn zipf_rejects_bad_theta() {
        let _ = Dist::Zipf { n: 10, theta: 1.5 }.sampler(0, 1);
    }
}
