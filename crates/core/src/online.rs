//! Alg. 3 — FlashAttention-2 with online checksum computation.
//!
//! The full fused kernel: per query, **exactly one pass** over keys/values
//! computing scores, max, ℓ, the output vector **and** the per-query
//! checksum (line 7) — no post-hoc verification sweep like two-step ABFT —
//! then the final divisions (lines 9–10) and the cross-query checksum
//! accumulation (line 11). `sumrow_k(V)` (Eq. 4) is filled once per call
//! by the shared Σ adder of the paper's Fig. 3, amortized across every
//! query lane. The predicted checksum is compared against the actual sum
//! of the produced attention output.
//!
//! Queries are independent, so [`flash2_with_checksum`] fans them out over
//! the rayon pool; the cross-query reductions (lines 9–11) run on the
//! calling thread in query order, making the parallel kernel bit-identical
//! to [`flash2_with_checksum_serial`] at every thread count.

use fa_attention::AttentionConfig;
use fa_numerics::KahanSum;
use fa_tensor::{online::MergedAccumulator, Matrix, Scalar};
use rayon::prelude::*;

/// Everything Alg. 3 produces for one attention computation.
#[derive(Clone)]
pub struct OnlineChecked<T> {
    /// The attention output (N×d), rounded to the element format.
    pub output: Matrix<T>,
    /// Per-query checks `check(q_i) = c_N/ℓ_N` (Alg. 3 line 10).
    pub per_query_checks: Vec<f64>,
    /// The global predicted checksum (line 11): `Σ_i check(q_i)`.
    pub predicted: f64,
    /// The actual checksum: sum of all elements of `output`, accumulated
    /// in f64 after rounding to `T` (what a hardware output-sum unit
    /// reading the writeback bus would compute).
    pub actual: f64,
}

impl<T: Scalar> std::fmt::Debug for OnlineChecked<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OnlineChecked")
            .field("predicted", &self.predicted)
            .field("actual", &self.actual)
            .field("queries", &self.per_query_checks.len())
            .finish()
    }
}

impl<T: Scalar> OnlineChecked<T> {
    /// Residual between prediction and actual checksum
    /// (`predicted − actual`; NaN if either side is NaN).
    pub fn residual(&self) -> f64 {
        self.predicted - self.actual
    }
}

/// Key rows scored per block in [`query_pass`]: score a whole block first
/// (one contiguous K stream), then fold the block's value rows and their
/// sumrow lanes through the merged recurrence — the same two-stream
/// structure as the unchecked `flash2` kernel, so the checksum lane never
/// costs extra memory passes.
const SCORE_BLOCK: usize = 64;

/// Runs the Alg. 3 streaming loop for one query: one pass over K/V
/// computing scores, online softmax state, output lanes, and the checksum
/// lane. The V rows fold in their storage format; `sumrows[i]` is
/// `sumrow_i(V)`, filled once per call by the shared Σ adder of Fig. 3 for
/// every parallel query lane. Returns the unnormalized state ready for
/// finalization.
fn query_pass<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    cfg: &AttentionConfig,
    sumrows: &[f64],
    qi: usize,
) -> MergedAccumulator {
    let d = cfg.head_dim();
    let mut acc = MergedAccumulator::new(d);
    let visible = cfg.visible_range(qi, k.rows());
    let q_row = q.row(qi);
    let mut scores = Vec::with_capacity(SCORE_BLOCK.min(visible.len()));
    let mut i = visible.start;
    while i < visible.end {
        let rows = SCORE_BLOCK.min(visible.end - i);
        // Line 3: scores — the SIMD inner kernel over one contiguous K
        // span (per-row bits identical to the row-interleaved loop).
        fa_tensor::ops::dot_then_scale_rows(
            q_row,
            &k.as_slice()[i * d..],
            d,
            rows,
            cfg.scale(),
            &mut scores,
        );
        // Lines 4–7 via the merged Eq. 9/10 update.
        acc.fold(
            &scores,
            &v.as_slice()[i * d..(i + rows) * d],
            Some(&sumrows[i..i + rows]),
        );
        i += rows;
    }
    acc
}

/// Runs Alg. 3: FlashAttention-2 with the fused online checksum,
/// parallelized across query rows.
///
/// This is the kernel entry point every checker in [`crate::api`] routes
/// through. Each query makes exactly one pass over K/V, with the checksum
/// lane riding the same merged accumulator. Score/exp/accumulator
/// arithmetic runs in f64
/// over operands rounded to `T` (the algorithm-level model; the bit-level
/// datapath lives in `fa-accel-sim`). The output matrix is rounded to `T`,
/// and the *actual* checksum is computed from those rounded values — so
/// for narrow `T` the caller must use a format-appropriate tolerance,
/// mirroring the paper's experimentally-determined bound.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn flash2_with_checksum<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    cfg: &AttentionConfig,
) -> OnlineChecked<T> {
    cfg.validate_shapes(q, k, v);
    let d = cfg.head_dim();
    let n_q = q.rows();

    // sumrow(V) (Eq. 4): one sweep over V shared by every query — the
    // shared Σ adder of Fig. 3.
    let sumrows: Vec<f64> = v
        .iter_rows()
        .map(|row| row.iter().fold(0.0, |sum, x| sum + x.to_f64()))
        .collect();

    // Fan the independent query passes out over the rayon pool. Small
    // shapes (simulator traffic) stay on the calling thread.
    let parallel = fa_tensor::par::worth_parallelizing(n_q, k.rows(), d);
    let pass = |qi| query_pass(q, k, v, cfg, &sumrows, qi);
    let states: Vec<MergedAccumulator> = if parallel {
        (0..n_q).into_par_iter().map(pass).collect()
    } else {
        (0..n_q).map(pass).collect()
    };

    // Lines 9–11: finalize in query order on one thread, so the Kahan
    // accumulations are identical regardless of thread count.
    let mut output = Matrix::zeros(n_q, d);
    let mut per_query_checks = Vec::with_capacity(n_q);
    let mut global = KahanSum::new(); // line 11 accumulator
    let mut actual = KahanSum::new();
    for (qi, acc) in states.iter().enumerate() {
        let (row_out, check_q) = acc
            .normalized()
            .expect("every query sees at least one key (causal j<=i)");
        for (c, val) in row_out.enumerate() {
            let rounded = T::from_f64(val);
            output[(qi, c)] = rounded;
            actual.add(rounded.to_f64());
        }
        per_query_checks.push(check_q);
        global.add(check_q);
    }

    OnlineChecked {
        output,
        per_query_checks,
        predicted: global.value(),
        actual: actual.value(),
    }
}

/// Serial reference form of [`flash2_with_checksum`]: identical
/// arithmetic, one thread — golden model for the parallel-equivalence
/// property tests.
///
/// # Panics
///
/// Panics on shape mismatch.
pub fn flash2_with_checksum_serial<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    cfg: &AttentionConfig,
) -> OnlineChecked<T> {
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build()
        .expect("single-thread pool")
        .install(|| flash2_with_checksum(q, k, v, cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checksum::{per_query_check_eq8, predicted_checksum_eq5};
    use fa_attention::naive;
    use fa_tensor::random::ElementDist;

    fn rand_qkv(n: usize, d: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        (
            Matrix::random_seeded(n, d, ElementDist::default(), seed),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 1),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 2),
        )
    }

    #[test]
    fn output_matches_naive_attention() {
        let (q, k, v) = rand_qkv(24, 8, 300);
        let cfg = AttentionConfig::new(8);
        let checked = flash2_with_checksum(&q, &k, &v, &cfg);
        let reference = naive::attention(&q, &k, &v, &cfg);
        assert!(checked.output.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn online_prediction_matches_closed_form() {
        let (q, k, v) = rand_qkv(16, 4, 301);
        let cfg = AttentionConfig::new(4);
        let checked = flash2_with_checksum(&q, &k, &v, &cfg);
        let closed = predicted_checksum_eq5(&q, &k, &v, &cfg);
        assert!((checked.predicted - closed).abs() < 1e-10);
    }

    #[test]
    fn per_query_checks_match_eq8() {
        let (q, k, v) = rand_qkv(10, 4, 302);
        let cfg = AttentionConfig::new(4);
        let checked = flash2_with_checksum(&q, &k, &v, &cfg);
        for (i, &c) in checked.per_query_checks.iter().enumerate() {
            let expected = per_query_check_eq8(&q, &k, &v, &cfg, i);
            assert!((c - expected).abs() < 1e-11, "query {i}: {c} vs {expected}");
        }
    }

    #[test]
    fn fault_free_residual_is_tiny_in_f64() {
        for seed in [1, 2, 3, 4, 5] {
            let (q, k, v) = rand_qkv(32, 16, seed * 1000);
            let cfg = AttentionConfig::new(16);
            let checked = flash2_with_checksum(&q, &k, &v, &cfg);
            assert!(
                checked.residual().abs() < 1e-10,
                "seed {seed}: residual {}",
                checked.residual()
            );
        }
    }

    #[test]
    fn causal_masking_preserves_identity() {
        let (q, k, v) = rand_qkv(12, 4, 303);
        let cfg = AttentionConfig::new(4).with_causal(true);
        let checked = flash2_with_checksum(&q, &k, &v, &cfg);
        assert!(checked.residual().abs() < 1e-10);
        let reference = naive::attention(&q, &k, &v, &cfg);
        assert!(checked.output.max_abs_diff(&reference) < 1e-12);
    }

    #[test]
    fn corrupted_output_produces_residual() {
        // Simulate a fault by corrupting the output after computation and
        // recomputing the actual checksum — the residual must expose it.
        let (q, k, v) = rand_qkv(8, 4, 304);
        let cfg = AttentionConfig::new(4);
        let mut checked = flash2_with_checksum(&q, &k, &v, &cfg);
        checked.output[(3, 2)] += 0.125;
        let new_actual = checked.output.sum_all();
        let residual = checked.predicted - new_actual;
        assert!(residual.abs() > 0.12, "residual {residual}");
    }

    #[test]
    fn bf16_datapath_residual_reflects_format_noise() {
        // With BF16 outputs the actual checksum carries BF16 rounding of
        // each element: the residual is format noise, far above f64 noise
        // but bounded — this drives the threshold-sweep experiment.
        use fa_numerics::BF16;
        let (q, k, v) = rand_qkv(32, 16, 305);
        let cfg = AttentionConfig::new(16);
        let qb: Matrix<BF16> = q.cast();
        let kb: Matrix<BF16> = k.cast();
        let vb: Matrix<BF16> = v.cast();
        let checked = flash2_with_checksum(&qb, &kb, &vb, &cfg);
        let r = checked.residual().abs();
        assert!(r > 1e-10, "BF16 noise should exceed f64 noise: {r}");
        assert!(r < 1.0, "but remain bounded: {r}");
    }

    #[test]
    fn single_query_single_key() {
        let q = Matrix::<f64>::from_rows(&[&[1.0, 2.0]]);
        let k = Matrix::<f64>::from_rows(&[&[0.5, 0.5]]);
        let v = Matrix::<f64>::from_rows(&[&[3.0, 4.0]]);
        let cfg = AttentionConfig::new(2);
        let checked = flash2_with_checksum(&q, &k, &v, &cfg);
        // One key: softmax weight 1, output = v, check = 7.
        assert_eq!(checked.output[(0, 0)], 3.0);
        assert_eq!(checked.output[(0, 1)], 4.0);
        assert!((checked.predicted - 7.0).abs() < 1e-12);
        assert!(checked.residual().abs() < 1e-12);
    }
}
