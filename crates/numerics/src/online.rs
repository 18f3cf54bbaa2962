//! Scalar recurrences of online softmax.
//!
//! FlashAttention-2 (Alg. 2 of the paper) maintains, per query, a running
//! maximum `m_i`, a rescaled sum of exponentials `ℓ_i`, and an output
//! accumulator. The checksum accumulator `c_i` of Flash-ABFT (Alg. 3) obeys
//! the *same* recurrence as the output. This module factors that recurrence
//! into a reusable [`OnlineSoftmax`] state so the reference kernels, the
//! Flash-ABFT checker and the cycle-level simulator all share one verified
//! implementation.

/// `e^x`, returning `1.0` without the libm call when `x == 0.0` — exact,
/// since `e^{±0} = 1`. Most rows of a softmax sweep leave the running
/// maximum unchanged, so `m_{i−1} − m_i` is an exact zero and the row's
/// rescale factor skips `exp`; the `== 0.0` test sends `∞ − ∞ = NaN` down
/// the `exp` path as before.
#[inline(always)]
fn exp_or_one(x: f64) -> f64 {
    if x == 0.0 {
        1.0
    } else {
        x.exp()
    }
}

/// The pair of exponential factors applied on each online-softmax step:
/// `scale_old = e^{m_{i−1} − m_i}` rescales every accumulator, and
/// `weight_new = e^{s_i − m_i}` weights the incoming element.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RescaleStep {
    /// `e^{m_{i−1} − m_i}` — multiplies all running accumulators.
    pub scale_old: f64,
    /// `e^{s_i − m_i}` — weights the new contribution.
    pub weight_new: f64,
}

/// Running online-softmax state for a single query: the maximum score seen
/// so far and the rescaled sum of exponentials (Alg. 2, lines 4–5).
///
/// # Example
///
/// ```
/// use fa_numerics::OnlineSoftmax;
///
/// let scores = [0.3, -1.2, 2.5, 0.0];
/// let mut os = OnlineSoftmax::new();
/// for &s in &scores {
///     os.push(s);
/// }
/// let max = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
/// let direct: f64 = scores.iter().map(|s| (s - max).exp()).sum();
/// assert!((os.sum_exp() - direct).abs() < 1e-12);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OnlineSoftmax {
    max: f64,
    sum_exp: f64,
    count: usize,
}

impl Default for OnlineSoftmax {
    fn default() -> Self {
        Self::new()
    }
}

impl OnlineSoftmax {
    /// Creates an empty state: `m_0 = −∞`, `ℓ_0 = 0`.
    pub fn new() -> Self {
        OnlineSoftmax {
            max: f64::NEG_INFINITY,
            sum_exp: 0.0,
            count: 0,
        }
    }

    /// Feeds one score `s_i`, returning the [`RescaleStep`] that callers
    /// must apply to any accumulators that ride along with this state (the
    /// output vector `o_i` and, in Flash-ABFT, the checksum `c_i`).
    ///
    /// `#[inline(always)]` is load-bearing: this sits in the innermost
    /// loop of every attention kernel (once per score), and under thin
    /// LTO the cross-crate call stops inlining with plain `#[inline]` —
    /// measured in PR 1 as a 48% fused-checksum overhead against ~2%
    /// inlined. Do not weaken the attribute without re-running the
    /// `fused_checksum` benchmark.
    #[inline(always)]
    pub fn push(&mut self, score: f64) -> RescaleStep {
        let new_max = if score > self.max { score } else { self.max };
        // First element: m_0 = -inf makes e^{m0 - m1} = 0, exactly
        // clearing the (zero) accumulators — matching hardware where the
        // registers reset on the first cycle of a new query.
        let scale_old = if self.max == f64::NEG_INFINITY {
            0.0
        } else {
            exp_or_one(self.max - new_max)
        };
        let weight_new = exp_or_one(score - new_max);
        self.sum_exp = self.sum_exp * scale_old + weight_new;
        self.max = new_max;
        self.count += 1;
        RescaleStep {
            scale_old,
            weight_new,
        }
    }

    /// The running maximum `m_i` (−∞ before the first push).
    #[inline]
    pub fn max(&self) -> f64 {
        self.max
    }

    /// The rescaled sum of exponentials `ℓ_i = Σ e^{s_j − m_i}`.
    #[inline]
    pub fn sum_exp(&self) -> f64 {
        self.sum_exp
    }

    /// Number of scores consumed.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether any score has been consumed.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The true (un-rescaled) softmax denominator `Σ e^{s_j}` — only
    /// finite when the scores are small; used by tests against the naive
    /// formula.
    pub fn denominator_unshifted(&self) -> f64 {
        self.sum_exp * self.max.exp()
    }

    /// Merges another online state into this one (the standard associative
    /// combine used when attention is tiled across key blocks).
    pub fn merge(&mut self, other: &OnlineSoftmax) -> RescaleStep {
        if other.count == 0 {
            return RescaleStep {
                scale_old: 1.0,
                weight_new: 0.0,
            };
        }
        if self.count == 0 {
            *self = *other;
            return RescaleStep {
                scale_old: 0.0,
                weight_new: 1.0,
            };
        }
        let new_max = self.max.max(other.max);
        let scale_old = (self.max - new_max).exp();
        let weight_new = (other.max - new_max).exp();
        self.sum_exp = self.sum_exp * scale_old + other.sum_exp * weight_new;
        self.max = new_max;
        self.count += other.count;
        RescaleStep {
            scale_old,
            weight_new,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_sum_exp(scores: &[f64]) -> (f64, f64) {
        let m = scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        (m, scores.iter().map(|s| (s - m).exp()).sum())
    }

    #[test]
    fn matches_two_pass_softmax() {
        let scores = [0.3, -1.2, 2.5, 0.0, 2.5, -7.0];
        let mut os = OnlineSoftmax::new();
        for &s in &scores {
            os.push(s);
        }
        let (m, l) = reference_sum_exp(&scores);
        assert_eq!(os.max(), m);
        assert!((os.sum_exp() - l).abs() < 1e-12);
        assert_eq!(os.len(), scores.len());
    }

    #[test]
    fn first_push_initializes() {
        let mut os = OnlineSoftmax::new();
        assert!(os.is_empty());
        let step = os.push(5.0);
        assert_eq!(step.scale_old, 0.0, "first step clears accumulators");
        assert_eq!(step.weight_new, 1.0, "e^{{s-m}} with s=m");
        assert_eq!(os.max(), 5.0);
        assert_eq!(os.sum_exp(), 1.0);
    }

    #[test]
    fn rescale_step_values() {
        let mut os = OnlineSoftmax::new();
        os.push(1.0);
        // Next score below the max: old scale 1, new weight e^{0 - 1}... no:
        let step = os.push(0.0);
        assert_eq!(step.scale_old, 1.0);
        assert!((step.weight_new - (-1.0f64).exp()).abs() < 1e-15);
        // Next score above the max: accumulators rescale by e^{1-3}.
        let step = os.push(3.0);
        assert!((step.scale_old - (-2.0f64).exp()).abs() < 1e-15);
        assert_eq!(step.weight_new, 1.0);
    }

    #[test]
    fn monotone_scores_never_rescale_down() {
        let mut os = OnlineSoftmax::new();
        os.push(0.0);
        for i in 1..10 {
            let step = os.push(-(i as f64));
            assert_eq!(step.scale_old, 1.0, "max unchanged, no rescale");
        }
    }

    #[test]
    fn handles_large_scores_without_overflow() {
        // Naive sum of e^1000 overflows; online version must not.
        let mut os = OnlineSoftmax::new();
        for s in [1000.0, 1001.0, 999.0] {
            os.push(s);
        }
        assert!(os.sum_exp().is_finite());
        let direct = (-1.0f64).exp() + 1.0 + (-2.0f64).exp();
        assert!((os.sum_exp() - direct).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let scores = [0.4, -2.0, 3.3, 1.1, -0.7, 2.2, 0.0];
        let (left, right) = scores.split_at(3);
        let mut a = OnlineSoftmax::new();
        for &s in left {
            a.push(s);
        }
        let mut b = OnlineSoftmax::new();
        for &s in right {
            b.push(s);
        }
        a.merge(&b);

        let mut seq = OnlineSoftmax::new();
        for &s in &scores {
            seq.push(s);
        }
        assert_eq!(a.max(), seq.max());
        assert!((a.sum_exp() - seq.sum_exp()).abs() < 1e-12);
        assert_eq!(a.len(), seq.len());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineSoftmax::new();
        a.push(1.0);
        a.push(2.0);
        let before = a;
        a.merge(&OnlineSoftmax::new());
        assert_eq!(a, before);

        let mut empty = OnlineSoftmax::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn denominator_unshifted_matches_naive_for_small_scores() {
        let scores = [0.1, 0.2, -0.3];
        let mut os = OnlineSoftmax::new();
        for &s in &scores {
            os.push(s);
        }
        let naive: f64 = scores.iter().map(|s| s.exp()).sum();
        assert!((os.denominator_unshifted() - naive).abs() < 1e-12);
    }
}
