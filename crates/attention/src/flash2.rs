//! Alg. 2 — FlashAttention-2 with delayed softmax division.
//!
//! A single pass per query: each step computes the score `s_i`, updates the
//! running max `m_i`, rescales the sum of exponentials
//! `ℓ_i ← ℓ_{i−1}·e^{m_{i−1}−m_i} + e^{s_i−m_i}` and the output
//! `o_i ← o_{i−1}·e^{m_{i−1}−m_i} + v_i·e^{s_i−m_i}`, and the attention row
//! is `o_N / ℓ_N` at the end. No precomputed maximum is needed — the key
//! property that makes the kernel streamable and the reason the paper's
//! checksum (which obeys the *same* recurrence) can be computed online.

use crate::{par, AttentionConfig};
use fa_numerics::OnlineSoftmax;
use fa_tensor::{Matrix, Scalar};
use rayon::prelude::*;

/// Per-query result of the online pass, before the final division.
#[derive(Clone, Debug, PartialEq)]
pub struct OnlineQueryState {
    /// Output accumulator `o_N` (length d), rescaled to the final max.
    pub output: Vec<f64>,
    /// Sum of exponentials `ℓ_N`.
    pub sum_exp: f64,
    /// Final running maximum `m_N`.
    pub max_score: f64,
    /// Number of keys processed (visible keys only under causal masking).
    pub steps: usize,
}

/// Computes FlashAttention-2 (Alg. 2), parallelized across query rows.
///
/// Per-query state is fully independent, so rows are distributed over the
/// rayon pool; the result is **bit-identical** to [`attention_serial`] for
/// every thread count (the property tests assert this).
///
/// # Panics
///
/// Panics on shape mismatch.
///
/// ```
/// use fa_tensor::{Matrix, random::ElementDist};
/// use fa_attention::{flash2, naive, AttentionConfig};
/// let q = Matrix::<f64>::random_seeded(8, 4, ElementDist::default(), 1);
/// let k = Matrix::<f64>::random_seeded(8, 4, ElementDist::default(), 2);
/// let v = Matrix::<f64>::random_seeded(8, 4, ElementDist::default(), 3);
/// let cfg = AttentionConfig::new(4);
/// let a = flash2::attention(&q, &k, &v, &cfg);
/// let b = naive::attention(&q, &k, &v, &cfg);
/// assert!(a.max_abs_diff(&b) < 1e-12);
/// ```
pub fn attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    cfg: &AttentionConfig,
) -> Matrix<T> {
    cfg.validate_shapes(q, k, v);
    let d = cfg.head_dim();
    let mut out = Matrix::zeros(q.rows(), d);
    let fill_row = |qi: usize, row: &mut [T]| {
        let state = query_state(q, k, v, cfg, qi);
        for (o, &val) in row.iter_mut().zip(&state.output) {
            *o = T::from_f64(val / state.sum_exp);
        }
    };
    if par::worth_parallelizing(q.rows(), k.rows(), d) {
        out.as_mut_slice()
            .par_chunks_mut(d)
            .enumerate()
            .for_each(|(qi, row)| fill_row(qi, row));
    } else {
        for (qi, row) in out.as_mut_slice().chunks_mut(d).enumerate() {
            fill_row(qi, row);
        }
    }
    out
}

/// The serial reference form of [`attention`]: identical arithmetic, one
/// thread. Kept public as the golden model for the parallel-equivalence
/// property tests and the speedup benchmarks.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn attention_serial<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    cfg: &AttentionConfig,
) -> Matrix<T> {
    cfg.validate_shapes(q, k, v);
    let d = cfg.head_dim();
    let mut out = Matrix::zeros(q.rows(), d);
    for qi in 0..q.rows() {
        let state = query_state(q, k, v, cfg, qi);
        for c in 0..d {
            out[(qi, c)] = T::from_f64(state.output[c] / state.sum_exp);
        }
    }
    out
}

/// Key rows scored per block in [`query_state`]: score a whole block
/// first (one contiguous K stream), then accumulate its V rows — two
/// tight streams per block instead of alternating K-row/V-row reads.
const SCORE_BLOCK: usize = 64;

/// Runs the Alg. 2 online loop for one query row.
///
/// Visible keys are processed in `SCORE_BLOCK`-row blocks: lines 3
/// (scores, via the contiguous-stream [`fa_tensor::ops::dot_then_scale_rows`]
/// kernel) for the whole block, then lines 4–6 folding the block's scores
/// and V rows through the online recurrence. Per-key arithmetic and order
/// are unchanged, so results are bit-identical to the row-interleaved
/// loop.
///
/// # Panics
///
/// Panics on shape mismatch or `query_idx` out of bounds.
pub fn query_state<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    cfg: &AttentionConfig,
    query_idx: usize,
) -> OnlineQueryState {
    cfg.validate_shapes(q, k, v);
    assert!(query_idx < q.rows(), "query index out of bounds");
    let d = cfg.head_dim();
    let mut os = OnlineSoftmax::new();
    let mut output = vec![0.0f64; d];

    let visible = cfg.visible_range(query_idx, k.rows());
    let q_row = q.row(query_idx);
    let mut scores = Vec::with_capacity(SCORE_BLOCK.min(visible.len()));
    let mut i = visible.start;
    while i < visible.end {
        let rows = SCORE_BLOCK.min(visible.end - i);
        // Line 3: s_i = q · k_i (scaled) — the SIMD inner kernel, one
        // contiguous K span per block.
        fa_tensor::ops::dot_then_scale_rows(
            q_row,
            &k.as_slice()[i * d..],
            d,
            rows,
            cfg.scale(),
            &mut scores,
        );
        for (j, &s) in scores.iter().enumerate() {
            // Lines 4–5: max update and rescaled sum of exponentials.
            let step = os.push(s);
            // Line 6: o_i = o_{i-1}·e^{m_{i-1}-m_i} + v_i·e^{s_i-m_i}.
            fa_tensor::ops::axpy_f64(&mut output, v.row(i + j), step.scale_old, step.weight_new);
        }
        i += rows;
    }

    OnlineQueryState {
        output,
        sum_exp: os.sum_exp(),
        max_score: os.max(),
        steps: os.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{lazy, naive};
    use fa_tensor::random::ElementDist;

    fn rand_qkv(n: usize, d: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        (
            Matrix::random_seeded(n, d, ElementDist::default(), seed),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 1),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 2),
        )
    }

    #[test]
    fn matches_naive() {
        let (q, k, v) = rand_qkv(32, 8, 500);
        let cfg = AttentionConfig::new(8);
        let a = attention(&q, &k, &v, &cfg);
        let b = naive::attention(&q, &k, &v, &cfg);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn matches_lazy_division_state() {
        // Alg. 1 and Alg. 2 produce the same (o_N, l_N, m_N) up to
        // floating-point reordering.
        let (q, k, v) = rand_qkv(20, 4, 9);
        let cfg = AttentionConfig::new(4);
        for qi in [0, 7, 19] {
            let online = query_state(&q, &k, &v, &cfg, qi);
            let lazy_st = lazy::query_state(&q, &k, &v, &cfg, qi);
            assert_eq!(online.max_score, lazy_st.max_score);
            assert!((online.sum_exp - lazy_st.sum_exp).abs() < 1e-12);
            for (a, b) in online.output.iter().zip(&lazy_st.output) {
                assert!((a - b).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn matches_naive_with_causal_mask() {
        let (q, k, v) = rand_qkv(16, 4, 321);
        let cfg = AttentionConfig::new(4).with_causal(true);
        let a = attention(&q, &k, &v, &cfg);
        let b = naive::attention(&q, &k, &v, &cfg);
        assert!(a.max_abs_diff(&b) < 1e-12);
        // Causal row i consumes exactly i+1 keys.
        let st = query_state(&q, &k, &v, &cfg, 5);
        assert_eq!(st.steps, 6);
    }

    #[test]
    fn key_order_invariance() {
        // Online softmax is order-independent up to rounding: permuting
        // keys (and values identically) leaves the output nearly unchanged.
        let (q, k, v) = rand_qkv(4, 4, 77);
        let cfg = AttentionConfig::new(4);
        let base = attention(&q, &k, &v, &cfg);

        let perm = [3usize, 0, 2, 1];
        let kp = Matrix::from_fn(4, 4, |r, c| k[(perm[r], c)]);
        let vp = Matrix::from_fn(4, 4, |r, c| v[(perm[r], c)]);
        let permuted = attention(&q, &kp, &vp, &cfg);
        assert!(base.max_abs_diff(&permuted) < 1e-12);
    }

    #[test]
    fn monotone_increasing_scores_exercise_rescaling() {
        // Keys engineered so every step raises the max, forcing the
        // e^{m_{i-1}-m_i} rescale path on each iteration.
        let n = 10;
        let q = Matrix::<f64>::from_rows(&[&[1.0]]);
        let k = Matrix::from_fn(n, 1, |r, _| (r as f64) + 1.0);
        let v = Matrix::from_fn(n, 1, |r, _| r as f64);
        let cfg = AttentionConfig::unscaled(1);
        let a = attention(&q, &k, &v, &cfg);
        let b = naive::attention(&q, &k, &v, &cfg);
        assert!(a.max_abs_diff(&b) < 1e-12);
    }

    #[test]
    fn huge_score_range_stays_finite() {
        let q = Matrix::<f64>::from_rows(&[&[1.0]]);
        let k = Matrix::<f64>::from_rows(&[&[-1000.0], &[0.0], &[1000.0]]);
        let v = Matrix::<f64>::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let out = attention(&q, &k, &v, &AttentionConfig::unscaled(1));
        assert!(out.all_finite());
        assert!((out[(0, 0)] - 3.0).abs() < 1e-9, "largest score dominates");
    }

    #[test]
    fn bf16_datapath_close_to_f64_reference() {
        use fa_numerics::BF16;
        let (q, k, v) = rand_qkv(16, 8, 1234);
        let cfg = AttentionConfig::new(8);
        let reference = attention(&q, &k, &v, &cfg);
        let qb: Matrix<BF16> = q.cast();
        let kb: Matrix<BF16> = k.cast();
        let vb: Matrix<BF16> = v.cast();
        let low = attention(&qb, &kb, &vb, &cfg);
        // BF16 inputs: ~1e-2 relative accuracy on O(1) outputs.
        assert!(low.to_f64().max_abs_diff(&reference) < 0.05);
    }
}
