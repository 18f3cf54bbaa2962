//! The merged accumulator of paper Eq. 9/10 — the one software
//! definition of Alg. 3's online recurrence (lines 4–7) and its final
//! division (lines 9–10).
//!
//! Alg. 3's checksum update (line 7) and output update (line 6) are the
//! same recurrence:
//!
//! ```text
//! [c_i; o_i] = [c_{i−1}; o_{i−1}]·e^{m_{i−1}−m_i} + [sumrow_i(V); v_i]·e^{s_i−m_i}
//! ```
//!
//! so the checksum is just lane `d` of a (d+1)-wide output accumulator
//! processing the *extended value vector* `v*_i = [sumrow_i(V), v_i]`
//! (the FlashAttention-2 output recurrence, Dao 2023, with one extra
//! lane). [`MergedAccumulator`] implements exactly this view; every
//! software kernel — the fused Alg. 3 kernel, the unchecked Alg. 2
//! kernels, the decode goldens and the batched engine — folds through
//! [`MergedAccumulator::fold`], while the hardware simulator
//! instantiates the identical structure as one extra MAC lane.
//!
//! A span folds in two phases over stack chunks of at most 64 rows.
//! First the scalar recurrence runs row by row — [`OnlineSoftmax::push`]
//! and the checksum-lane update — recording each row's rescale
//! factors. Then one AVX2 call folds the chunk's value rows into the
//! output lanes, lanes outer and rows inner, with a 32-lane accumulator
//! slab held in registers (`ops::fold_rows`). Every lane still sees
//! `acc·e^{m_{i−1}−m_i} + v·e^{s_i−m_i}` in ascending row order with
//! the same two roundings, so the split is bitwise the row-at-a-time
//! recurrence; a row that leaves the maximum unchanged (rescale factor
//! exactly `1.0`) skips the exact `acc·1.0` product. A one-row span —
//! the per-row decode goldens fold one row per call — skips the chunk
//! scratch.
//!
//! The value rows stay in their storage format: the fold widens each
//! lane inside the update, so no kernel stages an f64 copy of V.

use crate::ops::fold_rows;
use crate::Scalar;
use fa_numerics::{OnlineSoftmax, RescaleStep};

/// Rows per two-phase fold chunk: bounds the stack scratch holding the
/// chunk's rescale factors (2 · 64 `f64`s = 1 KB).
const FOLD_CHUNK: usize = 64;

/// A (d+1)-lane online-softmax accumulator: lanes `0..d` hold the output
/// vector `o_i`, lane `d` holds the running per-query checksum `c_i`
/// (zero on unchecked passes).
///
/// # Example
///
/// ```
/// use fa_tensor::online::MergedAccumulator;
///
/// let mut acc = MergedAccumulator::new(2);
/// // One step: score 0.0, value [1.0, 2.0] (sumrow = 3.0 computed inside).
/// acc.step(0.0, &[1.0, 2.0]);
/// assert_eq!(acc.checksum(), 3.0);
/// assert_eq!(acc.output(), &[1.0, 2.0]);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct MergedAccumulator {
    /// Lanes 0..d = output, lane d = checksum (the o* vector of Eq. 10).
    lanes: Vec<f64>,
    softmax: OnlineSoftmax,
}

impl MergedAccumulator {
    /// Creates a zeroed accumulator for output dimension `d`.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: usize) -> Self {
        assert!(d > 0, "output dimension must be positive");
        MergedAccumulator {
            lanes: vec![0.0; d + 1],
            softmax: OnlineSoftmax::new(),
        }
    }

    /// Output dimension `d`.
    pub fn dim(&self) -> usize {
        self.lanes.len() - 1
    }

    /// Folds a span of consecutive value rows through Alg. 3 lines 4–7:
    /// `scores[j]` is row `j`'s score, `values` holds the rows
    /// contiguously (`scores.len() × d`, in storage format — each lane is
    /// widened inside the fold), and `sumrows[j]` is row `j`'s
    /// `sumrow(V)` checksum input. With `sumrows == None` (an unchecked
    /// pass) the checksum lane is left untouched; the output lanes and
    /// `ℓ` are bitwise the same either way. Returns the last row's
    /// rescale factors (the identity step `(1, 0)` for an empty span).
    ///
    /// Folding a span is bitwise the same as folding its rows one at a
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != scores.len() · d` or `sumrows` does not
    /// hold one lane per score.
    ///
    /// `#[inline(always)]` for the reason [`OnlineSoftmax::push`] gives:
    /// this is the innermost loop of every kernel and of the engine's
    /// panel pass, and with plain `#[inline]` thin LTO kept one
    /// out-of-line copy that the engine's native-format block fold
    /// called.
    #[inline(always)]
    pub fn fold<V: Scalar>(
        &mut self,
        scores: &[f64],
        values: &[V],
        sumrows: Option<&[f64]>,
    ) -> RescaleStep {
        let d = self.dim();
        assert_eq!(
            values.len(),
            scores.len() * d,
            "value row length: {} lanes for {} rows of dimension {d}",
            values.len(),
            scores.len()
        );
        if let Some(sumrows) = sumrows {
            assert_eq!(sumrows.len(), scores.len(), "one sumrow lane per score");
        }
        let (output, check) = self.lanes.split_at_mut(d);
        let softmax = &mut self.softmax;
        // Phase 1 for row `j`: the scalar recurrence and the checksum lane.
        let mut push = |j: usize, s: f64| {
            let step = softmax.push(s);
            if let Some(sumrows) = sumrows {
                check[0] = check[0] * step.scale_old + sumrows[j] * step.weight_new;
            }
            step
        };
        // One row — the per-row decode goldens' case — needs no chunk
        // scratch.
        if let [s] = *scores {
            let step = push(0, s);
            fold_rows(output, values, &[step.scale_old], &[step.weight_new]);
            return step;
        }
        let mut step = RescaleStep {
            scale_old: 1.0,
            weight_new: 0.0,
        };
        let mut scales = [0.0f64; FOLD_CHUNK];
        let mut weights = [0.0f64; FOLD_CHUNK];
        for (c, chunk) in scores.chunks(FOLD_CHUNK).enumerate() {
            let base = c * FOLD_CHUNK;
            // Phase 1: row by row.
            for (j, &s) in chunk.iter().enumerate() {
                step = push(base + j, s);
                scales[j] = step.scale_old;
                weights[j] = step.weight_new;
            }
            // Phase 2: the chunk's value rows, lanes outer, rows inner.
            let n = chunk.len();
            fold_rows(
                output,
                &values[base * d..(base + n) * d],
                &scales[..n],
                &weights[..n],
            );
        }
        step
    }

    /// Feeds one (score, value-row) pair: computes `sumrow_i(V)` from the
    /// row and folds the extended row (Eq. 10). Returns the rescale
    /// factors used (for hardware-trace comparison).
    ///
    /// # Panics
    ///
    /// Panics if `value_row.len() != self.dim()`.
    pub fn step(&mut self, score: f64, value_row: &[f64]) -> RescaleStep {
        let sumrow: f64 = value_row.iter().sum();
        self.step_with_sumrow(score, value_row, sumrow)
    }

    /// Like [`step`](Self::step) but with an externally supplied
    /// `sumrow_i(V)` — the form the hardware uses, where a shared adder
    /// tree computes the row sum once for all parallel query blocks.
    ///
    /// # Panics
    ///
    /// Panics if `value_row.len() != self.dim()`.
    pub fn step_with_sumrow(&mut self, score: f64, value_row: &[f64], sumrow: f64) -> RescaleStep {
        self.fold(&[score], value_row, Some(&[sumrow]))
    }

    /// The output lanes `o_i` (unnormalized).
    pub fn output(&self) -> &[f64] {
        &self.lanes[..self.lanes.len() - 1]
    }

    /// The checksum lane `c_i` (unnormalized).
    pub fn checksum(&self) -> f64 {
        self.lanes[self.lanes.len() - 1]
    }

    /// The running sum of exponentials `ℓ_i`.
    pub fn sum_exp(&self) -> f64 {
        self.softmax.sum_exp()
    }

    /// The running maximum `m_i`.
    pub fn max_score(&self) -> f64 {
        self.softmax.max()
    }

    /// The online-softmax state `(m_i, ℓ_i)` — what a tiled kernel
    /// merges across key blocks ([`OnlineSoftmax::merge`]).
    pub fn softmax(&self) -> &OnlineSoftmax {
        &self.softmax
    }

    /// Alg. 3 lines 9–10 without allocating: the normalized attention
    /// row `o_N/ℓ_N`, lane by lane, and the per-query check `c_N/ℓ_N`.
    ///
    /// Returns `None` if nothing was folded (division by ℓ=0).
    pub fn normalized(&self) -> Option<(impl ExactSizeIterator<Item = f64> + '_, f64)> {
        if self.softmax.is_empty() {
            return None;
        }
        let l = self.softmax.sum_exp();
        let (output, check) = self.lanes.split_at(self.dim());
        Some((output.iter().map(move |&x| x / l), check[0] / l))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_numerics::BF16;

    #[test]
    fn single_step_known_values() {
        let mut acc = MergedAccumulator::new(3);
        acc.step(1.5, &[1.0, 2.0, 3.0]);
        // First step: weight 1, scale 0.
        assert_eq!(acc.output(), &[1.0, 2.0, 3.0]);
        assert_eq!(acc.checksum(), 6.0);
        assert_eq!(acc.sum_exp(), 1.0);
        assert_eq!(acc.max_score(), 1.5);
    }

    #[test]
    fn checksum_lane_equals_sum_of_output_lanes_invariant() {
        // THE invariant: since c follows the same recurrence with
        // sumrow = Σ_j v_j, c_i == Σ_j o_i[j] at every step (in exact
        // arithmetic). This is why the predicted check equals the output
        // row sum.
        let mut acc = MergedAccumulator::new(4);
        let rows = [
            [0.5, -1.0, 2.0, 0.25],
            [1.0, 1.0, -3.0, 0.5],
            [0.0, 0.0, 1.0, -1.0],
        ];
        let scores = [0.2, 1.7, -0.4];
        for (s, row) in scores.iter().zip(&rows) {
            acc.step(*s, row);
            let lane_sum: f64 = acc.output().iter().sum();
            assert!(
                (acc.checksum() - lane_sum).abs() < 1e-12,
                "invariant broken: c={} Σo={lane_sum}",
                acc.checksum()
            );
        }
    }

    #[test]
    fn normalized_divides_by_sum_exp() {
        let mut acc = MergedAccumulator::new(2);
        acc.step(0.0, &[2.0, 4.0]);
        acc.step(0.0, &[4.0, 6.0]);
        // Equal scores: uniform weights, l = 2.
        let (out, check) = acc.normalized().expect("non-empty");
        let out: Vec<f64> = out.collect();
        assert!((out[0] - 3.0).abs() < 1e-12);
        assert!((out[1] - 5.0).abs() < 1e-12);
        assert!((check - 8.0).abs() < 1e-12);
    }

    #[test]
    fn normalized_empty_is_none() {
        assert!(MergedAccumulator::new(2).normalized().is_none());
    }

    #[test]
    fn rescaling_applies_to_all_lanes_equally() {
        let mut acc = MergedAccumulator::new(2);
        acc.step(0.0, &[1.0, 1.0]);
        // Score jump by 5 rescales old state by e^-5.
        let step = acc.step(5.0, &[0.0, 0.0]);
        assert!((step.scale_old - (-5.0f64).exp()).abs() < 1e-15);
        let expected = (-5.0f64).exp();
        assert!((acc.output()[0] - expected).abs() < 1e-15);
        assert!((acc.checksum() - 2.0 * expected).abs() < 1e-15);
    }

    #[test]
    fn external_sumrow_matches_internal() {
        let mut a = MergedAccumulator::new(3);
        let mut b = MergedAccumulator::new(3);
        let row = [1.5, -0.5, 2.0];
        a.step(0.7, &row);
        b.step_with_sumrow(0.7, &row, row.iter().sum());
        assert_eq!(a, b);
    }

    /// Head dim 20 straddles the 16-lane blocking; the scores' max rises
    /// at rows 1, 3 and 5, so the fold takes the rescale path.
    const D: usize = 20;
    const SCORES: [f64; 6] = [0.3, 1.1, -0.7, 2.4, 2.4, 3.9];

    fn span() -> (Vec<f64>, Vec<f64>) {
        let values: Vec<f64> = (0..SCORES.len() * D)
            .map(|i| ((i * 37 % 101) as f64 - 50.0) / 17.0)
            .collect();
        // The kernels' 0.0-seeded row sums.
        let sumrows = values
            .chunks_exact(D)
            .map(|r| r.iter().fold(0.0, |a, &x| a + x))
            .collect();
        (values, sumrows)
    }

    fn assert_bitwise(a: &MergedAccumulator, b: &MergedAccumulator) {
        assert_eq!(a.sum_exp().to_bits(), b.sum_exp().to_bits());
        assert_eq!(a.max_score().to_bits(), b.max_score().to_bits());
        for (x, y) in a.lanes.iter().zip(&b.lanes) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn span_fold_is_bitwise_row_by_row_fold() {
        let (values, sumrows) = span();
        for sums in [Some(sumrows.as_slice()), None] {
            let mut whole = MergedAccumulator::new(D);
            whole.fold(&SCORES, &values, sums);
            let mut rows = MergedAccumulator::new(D);
            for (j, &s) in SCORES.iter().enumerate() {
                let lane = sums.map(|l| &l[j..j + 1]);
                rows.fold(&[s], &values[j * D..(j + 1) * D], lane);
            }
            assert_bitwise(&whole, &rows);
        }
    }

    #[test]
    fn checksum_lane_never_perturbs_outputs() {
        let (values, sumrows) = span();
        let mut checked = MergedAccumulator::new(D);
        checked.fold(&SCORES, &values, Some(&sumrows));
        let mut unchecked = MergedAccumulator::new(D);
        unchecked.fold(&SCORES, &values, None);
        assert_eq!(unchecked.checksum(), 0.0);
        assert_eq!(checked.sum_exp().to_bits(), unchecked.sum_exp().to_bits());
        for (x, y) in checked.output().iter().zip(unchecked.output()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn bf16_rows_fold_like_their_widened_copies() {
        let (values, _) = span();
        let narrow: Vec<BF16> = values.iter().map(|&x| BF16::from_f64(x)).collect();
        let wide: Vec<f64> = narrow.iter().map(|x| x.to_f64()).collect();
        let sumrows: Vec<f64> = wide
            .chunks_exact(D)
            .map(|r| r.iter().fold(0.0, |a, &x| a + x))
            .collect();
        let mut a = MergedAccumulator::new(D);
        a.fold(&SCORES, &narrow, Some(&sumrows));
        let mut b = MergedAccumulator::new(D);
        b.fold(&SCORES, &wide, Some(&sumrows));
        assert_bitwise(&a, &b);
    }

    #[test]
    #[should_panic(expected = "value row length")]
    fn wrong_row_length_panics() {
        let mut acc = MergedAccumulator::new(3);
        acc.step(0.0, &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_panics() {
        let _ = MergedAccumulator::new(0);
    }
}
