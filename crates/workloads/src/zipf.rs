//! Zipf-distributed page sampling via inverse-CDF approximation.
//!
//! Real block traces concentrate most accesses on a small hot set — the
//! property AccessEval's HLO identifier exploits. We model popularity as a
//! Zipf law `P(rank k) ∝ k^(−θ)` using the continuous inverse-CDF
//! approximation, which is O(1) per sample for any footprint size (exact
//! Zipf tables over millions of ranks would be prohibitive).

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A Zipf(θ) sampler over ranks `0 .. n`.
///
/// θ = 0 degenerates to uniform; θ ≈ 1 matches typical storage-trace skew.
///
/// ```
/// use workloads::ZipfSampler;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let zipf = ZipfSampler::new(1000, 0.99);
/// let mut rng = StdRng::seed_from_u64(1);
/// let rank = zipf.sample(&mut rng);
/// assert!(rank < 1000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZipfSampler {
    n: u64,
    theta: f64,
    /// `n + 1`: the upper end of the continuous support.
    m: f64,
    /// `(m^(1−θ) − 1, 1/(1−θ))`, or `None` on the θ = 1 branch. Fixed by
    /// `n` and θ, so [`rank_for`](Self::rank_for) pays one `powf`.
    general: Option<(f64, f64)>,
}

impl ZipfSampler {
    /// Creates a sampler over `n` ranks with skew `theta ≥ 0`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `theta` is negative or not finite.
    pub fn new(n: u64, theta: f64) -> ZipfSampler {
        assert!(n > 0, "Zipf needs a positive rank count");
        assert!(
            theta.is_finite() && theta >= 0.0,
            "invalid Zipf theta {theta}"
        );
        let m = (n + 1) as f64;
        let general = ((theta - 1.0).abs() >= 1e-9).then(|| {
            let e = 1.0 - theta;
            (m.powf(e) - 1.0, 1.0 / e)
        });
        ZipfSampler {
            n,
            theta,
            m,
            general,
        }
    }

    /// Number of ranks.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Skew parameter θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Samples a rank in `0 .. n`; rank 0 is the most popular.
    ///
    /// Rank `k` corresponds to the continuous interval `[k+1, k+2)` of the
    /// density `x^(−θ)` over `[1, n+1)`, so every rank receives a full
    /// unit of integration mass (θ = 0 is exactly uniform).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        self.rank_for(rng.gen::<f64>())
    }

    /// Maps one uniform variate `u ∈ [0, 1)` to a rank in `0 .. n` —
    /// the inverse-CDF kernel behind [`sample`](Self::sample), exposed so
    /// generators driving their own deterministic bit streams (e.g. the
    /// open-loop arrival sources) can sample without a [`Rng`].
    pub fn rank_for(&self, u: f64) -> u64 {
        let u = u.max(f64::MIN_POSITIVE);
        let k = match self.general {
            // θ = 1: continuous CDF is ln(k)/ln(m).
            None => self.m.powf(u),
            // General θ: CDF ∝ (k^(1−θ) − 1) / (m^(1−θ) − 1).
            Some((span, inv_e)) => (span * u + 1.0).powf(inv_e),
        };
        (k.floor() as u64).saturating_sub(1).min(self.n - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn frequencies(theta: f64, n: u64, samples: u64) -> Vec<u64> {
        let zipf = ZipfSampler::new(n, theta);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = vec![0u64; n as usize];
        for _ in 0..samples {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        counts
    }

    #[test]
    fn uniform_when_theta_zero() {
        let counts = frequencies(0.0, 10, 100_000);
        let expected = 10_000.0;
        for (rank, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() / expected < 0.1,
                "rank {rank}: {c}"
            );
        }
    }

    #[test]
    fn skewed_when_theta_high() {
        let counts = frequencies(0.99, 1000, 200_000);
        // Head dominance: top 10% of ranks should draw well over half the
        // accesses at θ ≈ 1.
        let head: u64 = counts[..100].iter().sum();
        let total: u64 = counts.iter().sum();
        assert!(
            head as f64 / total as f64 > 0.5,
            "head share {}",
            head as f64 / total as f64
        );
        // And popularity decreases with rank (coarse check over deciles).
        let first: u64 = counts[..100].iter().sum();
        let last: u64 = counts[900..].iter().sum();
        assert!(first > 10 * last.max(1));
    }

    #[test]
    fn theta_one_special_case() {
        let counts = frequencies(1.0, 100, 100_000);
        assert!(counts[0] > counts[50]);
        let total: u64 = counts.iter().sum();
        assert_eq!(total, 100_000);
    }

    #[test]
    fn all_samples_in_range() {
        let zipf = ZipfSampler::new(7, 1.2);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..10_000 {
            assert!(zipf.sample(&mut rng) < 7);
        }
    }

    #[test]
    fn single_rank() {
        let zipf = ZipfSampler::new(1, 0.9);
        let mut rng = StdRng::seed_from_u64(4);
        assert_eq!(zipf.sample(&mut rng), 0);
    }

    /// `rank_for` as it was before its constants moved into `new`.
    fn inline_rank(n: u64, theta: f64, u: f64) -> u64 {
        let u = u.max(f64::MIN_POSITIVE);
        let m = (n + 1) as f64;
        let k = if (theta - 1.0).abs() < 1e-9 {
            m.powf(u)
        } else {
            let e = 1.0 - theta;
            ((m.powf(e) - 1.0) * u + 1.0).powf(1.0 / e)
        };
        (k.floor() as u64).saturating_sub(1).min(n - 1)
    }

    #[test]
    fn precomputed_constants_keep_every_rank_bit_identical() {
        let near_one = 1.0 - f64::EPSILON;
        let mut us = vec![0.0, f64::MIN_POSITIVE, 1e-300, 0.5, 0.999_999, near_one];
        let mut rng = StdRng::seed_from_u64(5);
        us.extend((0..200).map(|_| rng.gen::<f64>()));
        for n in [1, 2, 7, 1_000, 1 << 17, 1 << 18, 1 << 40] {
            for theta in [0.0, 0.5, 0.8, 0.9, 0.95, 0.99, 1.0, 1.0 + 5e-10, 1.2, 3.0] {
                let zipf = ZipfSampler::new(n, theta);
                for &u in &us {
                    assert_eq!(
                        zipf.rank_for(u),
                        inline_rank(n, theta, u),
                        "n {n}, theta {theta}, u {u}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "positive rank count")]
    fn zero_ranks_rejected() {
        let _ = ZipfSampler::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid Zipf theta")]
    fn negative_theta_rejected() {
        let _ = ZipfSampler::new(10, -1.0);
    }
}
