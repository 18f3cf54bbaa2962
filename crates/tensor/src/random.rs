//! Reproducible random matrix generation.
//!
//! The paper drives its fault-injection campaigns with embeddings from real
//! LLM prompts. Our substitute generates Q/K/V matrices
//! from parameterized distributions chosen to cover the same value ranges;
//! campaigns sweep the distributions to demonstrate the checker is
//! insensitive to the exact inputs.
//!
//! Two generators live here:
//!
//! * [`Matrix::random_seeded`] draws a sequential [`rand`] stream through an
//!   [`ElementDist`] — the inputs behind every experiment binary, kernel
//!   bench and golden;
//! * [`fill_standard_normal`] is **counter-based**: element `i` is a pure
//!   function of `(seed, i)` (SplitMix64 draws through [`mix_seed`] feed a
//!   256-layer ziggurat, Marsaglia & Tsang, JSS 2000), so a caller fills
//!   any slice of a seeded stream in place, with no generator state — the
//!   serving frontend's row synthesizer.

use crate::{Matrix, Scalar};
use rand::distributions::Distribution;
use rand::Rng;
use rand::SeedableRng;
use std::sync::LazyLock;

/// SplitMix64's finalizer over `seed ^ lane·φ` (φ = the 64-bit golden
/// ratio increment): one independent 64-bit value per `(seed, lane)`
/// pair. It derives every per-request and per-lane seed of the serving
/// frontend and every draw of [`fill_standard_normal`].
#[inline(always)]
pub fn mix_seed(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Ziggurat layers (a power of two: the layer index is the low byte of
/// a draw).
const LAYERS: usize = 256;
/// Right edge of the base layer: where the normal tail starts.
const ZIG_R: f64 = 3.654_152_885_361_009;
/// Area of every layer, the base layer's tail included, under the
/// unnormalized density `exp(-x²/2)`.
const ZIG_V: f64 = 4.928_673_233_99e-3;

/// The ziggurat's layer edges `x[0..=LAYERS]` (decreasing; `x[0]` is the
/// base layer's virtual width `V / f(R)`, `x[1] = R`, `x[LAYERS] = 0`),
/// the density at each edge, `f[i] = exp(-x[i]²/2)`, and each layer's
/// width per unit of a signed 53-bit draw, `x[i]·2⁻⁵²`.
struct Ziggurat {
    x: [f64; LAYERS + 1],
    f: [f64; LAYERS + 1],
    scale: [f64; LAYERS],
}

/// Built once, on first use.
static ZIGGURAT: LazyLock<Ziggurat> = LazyLock::new(|| {
    let pdf = |x: f64| (-0.5 * x * x).exp();
    let mut x = [0.0; LAYERS + 1];
    x[0] = ZIG_V / pdf(ZIG_R);
    x[1] = ZIG_R;
    for i in 1..LAYERS - 1 {
        // Layer i spans density f(x[i])..f(x[i+1]) at width x[i].
        x[i + 1] = (-2.0 * (ZIG_V / x[i] + pdf(x[i])).ln()).sqrt();
    }
    Ziggurat {
        x,
        f: x.map(pdf),
        scale: std::array::from_fn(|i| x[i] * TWO_POW_M52),
    }
});

/// Draw `attempt` of element `i` under `seed`: indices below 2⁴⁰ and
/// attempts below 2²⁴ never share a counter.
#[inline(always)]
fn draw(seed: u64, i: u64, attempt: u64) -> u64 {
    mix_seed(seed, i.wrapping_add(attempt << 40))
}

/// 2⁻⁵².
const TWO_POW_M52: f64 = 1.0 / (1u64 << 52) as f64;

/// The top 52 bits of `bits` as a uniform on `[0, 1)`.
#[inline(always)]
fn unit(bits: u64) -> f64 {
    (bits >> 12) as f64 * TWO_POW_M52
}

impl Ziggurat {
    /// One ziggurat proposal from `bits`: the low byte picks the layer,
    /// the top 53 bits, read as a signed integer, a symmetric abscissa
    /// `x ∈ [-x[layer], x[layer])`.
    #[inline(always)]
    fn propose(&self, bits: u64) -> (usize, f64) {
        let layer = (bits & (LAYERS as u64 - 1)) as usize;
        (layer, ((bits as i64) >> 11) as f64 * self.scale[layer])
    }

    /// Element `i` of `seed`'s standard-normal stream. The fast path —
    /// `x` inside the rectangle under the curve, ≈99% of draws — is one
    /// draw, two table reads and a compare.
    #[inline(always)]
    fn sample(&self, seed: u64, i: u64) -> f64 {
        let (layer, x) = self.propose(draw(seed, i, 0));
        if x.abs() < self.x[layer + 1] {
            return x;
        }
        self.sample_slow(seed, i, layer, x)
    }

    /// The exact rejection paths: a base-layer proposal past `R` samples
    /// the tail (Marsaglia 1964); any other layer tests its wedge against
    /// the density and, on rejection, proposes again from the next draw.
    #[cold]
    #[inline(never)]
    fn sample_slow(&self, seed: u64, i: u64, mut layer: usize, mut x: f64) -> f64 {
        let mut attempt = 0;
        let mut next = || {
            attempt += 1;
            draw(seed, i, attempt)
        };
        loop {
            if layer == 0 {
                // Open at zero, so both logarithms are finite.
                let open = |bits: u64| ((bits >> 12) + 1) as f64 * TWO_POW_M52;
                loop {
                    let t = -open(next()).ln() / ZIG_R;
                    let y = -open(next()).ln();
                    if 2.0 * y > t * t {
                        return (ZIG_R + t).copysign(x);
                    }
                }
            }
            let y = self.f[layer] + (self.f[layer + 1] - self.f[layer]) * unit(next());
            if y < (-0.5 * x * x).exp() {
                return x;
            }
            (layer, x) = self.propose(next());
            if x.abs() < self.x[layer + 1] {
                return x;
            }
        }
    }
}

/// Fills `out` with standard-normal values: `out[i]` is a pure function
/// of `(seed, i)`, so any prefix of a longer fill equals the shorter
/// fill, and a slice can be (re)generated without replaying the values
/// before it. SplitMix64 draws keyed by `(seed, i, attempt)`
/// ([`mix_seed`]) feed a 256-layer ziggurat whose tail and wedge paths
/// are exact rejection samplers. `out` must be shorter than 2⁴⁰.
///
/// ```
/// use fa_tensor::random::fill_standard_normal;
/// let (mut long, mut short) = ([0.0; 16], [0.0; 4]);
/// fill_standard_normal(7, &mut long);
/// fill_standard_normal(7, &mut short);
/// assert_eq!(long[..4], short);
/// ```
pub fn fill_standard_normal(seed: u64, out: &mut [f64]) {
    let zig = &*ZIGGURAT;
    for (i, v) in out.iter_mut().enumerate() {
        *v = zig.sample(seed, i as u64);
    }
}

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

    #[test]
    fn normal_fill_is_prefix_stable() {
        let mut long = vec![0.0; 5000];
        fill_standard_normal(11, &mut long);
        for n in [0, 1, 7, 64, 4999] {
            let mut short = vec![0.0; n];
            fill_standard_normal(11, &mut short);
            assert_eq!(short, long[..n], "prefix {n}");
        }
        let mut other = vec![0.0; 64];
        fill_standard_normal(12, &mut other);
        assert_ne!(other, long[..64]);
    }

    #[test]
    fn normal_fill_moments_and_three_sigma_share() {
        let n = 1_000_000;
        let mut xs = vec![0.0; n];
        fill_standard_normal(2024, &mut xs);
        let nf = n as f64;
        let mean = xs.iter().sum::<f64>() / nf;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / nf;
        let kurt = xs.iter().map(|x| (x - mean).powi(4)).sum::<f64>() / nf / (var * var);
        let beyond = xs.iter().filter(|x| x.abs() > 3.0).count() as f64 / nf;
        // Tolerances sit at ≥5 standard errors of each estimator at n = 10⁶:
        // mean 0.001, variance 0.0014, kurtosis 0.005, 3σ share 5.2e-5.
        assert!(mean.abs() < 0.005, "mean {mean}");
        assert!((var - 1.0).abs() < 0.008, "variance {var}");
        assert!((kurt - 3.0).abs() < 0.03, "kurtosis {kurt}");
        assert!((beyond - 0.0027).abs() < 3e-4, "share beyond 3σ {beyond}");
    }

    #[test]
    fn normal_fill_reaches_the_tail_path() {
        // Every layer's rectangle and wedge lie inside |x| < R, so a value
        // past R can only come from the tail sampler. 2·(1 − Φ(R)) ≈
        // 2.6e-4 of the mass lies there: this fill draws 10 above and 6
        // below.
        let mut xs = vec![0.0; 50_000];
        fill_standard_normal(3, &mut xs);
        assert!(xs.iter().any(|&x| x > ZIG_R), "no upper-tail draw");
        assert!(xs.iter().any(|&x| x < -ZIG_R), "no lower-tail draw");
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn ziggurat_layers_share_one_area() {
        let z = &*ZIGGURAT;
        assert_eq!(z.x[1], ZIG_R);
        assert_eq!(z.x[LAYERS], 0.0);
        assert!(z.x.windows(2).all(|w| w[0] > w[1]));
        // The top layer closes the recursion: its area is V too.
        let top = z.x[LAYERS - 1] * (1.0 - z.f[LAYERS - 1]);
        assert!((top / ZIG_V - 1.0).abs() < 1e-9, "top layer area {top}");
    }

    #[test]
    fn normal_fill_golden_prefix() {
        // Pins the stream: the serving frontend's rows, its drills and
        // the committed serving artifacts all depend on these bits.
        let mut xs = [0.0; 8];
        fill_standard_normal(42, &mut xs);
        let golden = [
            -1.638781301132569,
            -0.7207291127922419,
            -0.3653419797175241,
            0.5939385146828425,
            0.9644876212544575,
            0.7137910677138185,
            -0.8431634058100135,
            1.260386594331998,
        ];
        assert_eq!(xs, golden);
    }
}
