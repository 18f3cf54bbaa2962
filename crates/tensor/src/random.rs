//! Reproducible random matrix generation.
//!
//! The paper drives its fault-injection campaigns with embeddings from real
//! LLM prompts. Our substitute generates Q/K/V matrices
//! from parameterized distributions chosen to cover the same value ranges;
//! campaigns sweep the distributions to demonstrate the checker is
//! insensitive to the exact inputs.

use crate::{Matrix, Scalar};
use rand::distributions::Distribution;
use rand::Rng;
use rand::SeedableRng;

/// Distribution of generated matrix elements.
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub enum ElementDist {
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Lower bound (inclusive).
        lo: f64,
        /// Upper bound (exclusive).
        hi: f64,
    },
    /// Zero-mean Gaussian with the given standard deviation (Box–Muller).
    Gaussian {
        /// Standard deviation.
        std_dev: f64,
    },
    /// Student-t-like heavy tails: Gaussian divided by sqrt of a uniform,
    /// producing occasional large outliers like post-LayerNorm activations
    /// with attention sinks.
    HeavyTail {
        /// Scale of the central mass.
        scale: f64,
    },
}

impl Default for ElementDist {
    /// Embedding-like default: N(0, 1/√d) is applied by callers; the raw
    /// default is a unit Gaussian.
    fn default() -> Self {
        ElementDist::Gaussian { std_dev: 1.0 }
    }
}

impl ElementDist {
    /// Samples one value.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            ElementDist::Uniform { lo, hi } => rng.gen_range(lo..hi),
            ElementDist::Gaussian { std_dev } => gaussian(rng) * std_dev,
            ElementDist::HeavyTail { scale } => {
                let g = gaussian(rng);
                let u: f64 = rng.gen_range(0.05f64..1.0);
                g * scale / u.sqrt()
            }
        }
    }
}

impl Distribution<f64> for ElementDist {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        ElementDist::sample(self, rng)
    }
}

/// One standard Gaussian sample via Box–Muller.
fn gaussian<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

impl<T: Scalar> Matrix<T> {
    /// Generates a matrix with elements drawn from `dist` using `rng`.
    pub fn random<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        dist: ElementDist,
        rng: &mut R,
    ) -> Self {
        Matrix::from_fn(rows, cols, |_, _| T::from_f64(dist.sample(rng)))
    }

    /// Generates a matrix from a fixed seed — the reproducibility entry
    /// point used by every experiment binary.
    ///
    /// ```
    /// use fa_tensor::{Matrix, random::ElementDist};
    /// let a = Matrix::<f64>::random_seeded(4, 4, ElementDist::default(), 42);
    /// let b = Matrix::<f64>::random_seeded(4, 4, ElementDist::default(), 42);
    /// assert_eq!(a, b);
    /// ```
    pub fn random_seeded(rows: usize, cols: usize, dist: ElementDist, seed: u64) -> Self {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Self::random(rows, cols, dist, &mut rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;

    #[test]
    fn seeded_generation_is_deterministic() {
        let a = Matrix::<f64>::random_seeded(8, 8, ElementDist::default(), 7);
        let b = Matrix::<f64>::random_seeded(8, 8, ElementDist::default(), 7);
        assert_eq!(a, b);
        let c = Matrix::<f64>::random_seeded(8, 8, ElementDist::default(), 8);
        assert_ne!(a, c);
    }

    #[test]
    fn uniform_respects_bounds() {
        let m =
            Matrix::<f64>::random_seeded(16, 16, ElementDist::Uniform { lo: -2.0, hi: 3.0 }, 99);
        assert!(m.as_slice().iter().all(|&x| (-2.0..3.0).contains(&x)));
    }

    #[test]
    fn gaussian_moments_roughly_correct() {
        let n = 40_000;
        let mut rng = StdRng::seed_from_u64(1234);
        let d = ElementDist::Gaussian { std_dev: 2.0 };
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn heavy_tail_has_outliers_but_finite() {
        let m = Matrix::<f64>::random_seeded(64, 64, ElementDist::HeavyTail { scale: 1.0 }, 5);
        assert!(m.all_finite());
        let max = m
            .as_slice()
            .iter()
            .cloned()
            .fold(0.0f64, |a, b| a.max(b.abs()));
        // sqrt(1/0.05) ≈ 4.5x inflation of tails: expect some |x| > 3.
        assert!(max > 3.0, "heavy tail should produce outliers, max={max}");
    }

    #[test]
    fn bf16_generation_rounds_to_format() {
        use fa_numerics::BF16;
        let m = Matrix::<BF16>::random_seeded(4, 4, ElementDist::default(), 3);
        for &x in m.as_slice() {
            // Round-tripping through BF16 must be the identity (already rounded).
            assert_eq!(BF16::from_f64(x.to_f64()).to_bits(), x.to_bits());
        }
    }
}
