//! Tiled (blocked) FlashAttention-2.
//!
//! GPUs and the paper's accelerator stream keys/values in blocks: each
//! block computes a local max and partial sums, then merges into the
//! running per-query state with the associative online-softmax combine.
//! Tiling changes only the *order* of floating-point operations, so the
//! result matches the row-wise kernel up to rounding — a property the
//! tests pin down.

use crate::{par, AttentionConfig};
use fa_numerics::OnlineSoftmax;
use fa_tensor::{online::MergedAccumulator, Matrix, Scalar};
use rayon::prelude::*;

/// Runs the blocked key/value streaming loop for one query row, writing
/// the normalized attention row into `row_out`.
fn fill_query_row<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    cfg: &AttentionConfig,
    block_size: usize,
    qi: usize,
    row_out: &mut [T],
) {
    let d = cfg.head_dim();
    let n = k.rows();
    let mut global = OnlineSoftmax::new();
    let mut acc = vec![0.0f64; d];

    let mut block_start = 0;
    while block_start < n {
        let block_end = (block_start + block_size).min(n);

        // Local pass over this key/value block.
        let mut local = MergedAccumulator::new(d);
        for i in block_start..block_end {
            if !cfg.visible(qi, i) {
                continue;
            }
            let s = fa_tensor::ops::dot_then_scale(q.row(qi), k.row(i), cfg.scale());
            local.fold(&[s], v.row(i), None);
        }

        // Merge block state into the running per-query state.
        if !local.softmax().is_empty() {
            let step = global.merge(local.softmax());
            fa_tensor::ops::axpy_f64(&mut acc, local.output(), step.scale_old, step.weight_new);
        }
        block_start = block_end;
    }

    for (o, &a) in row_out.iter_mut().zip(&acc) {
        *o = T::from_f64(a / global.sum_exp());
    }
}

/// Computes FlashAttention-2 streaming keys/values in blocks of
/// `block_size` rows, parallelized across query rows (bit-identical to
/// [`attention_serial`] for every thread count).
///
/// # Panics
///
/// Panics on shape mismatch or if `block_size == 0`.
///
/// ```
/// use fa_tensor::{Matrix, random::ElementDist};
/// use fa_attention::{tiled, naive, AttentionConfig};
/// let q = Matrix::<f64>::random_seeded(8, 4, ElementDist::default(), 1);
/// let k = Matrix::<f64>::random_seeded(8, 4, ElementDist::default(), 2);
/// let v = Matrix::<f64>::random_seeded(8, 4, ElementDist::default(), 3);
/// let cfg = AttentionConfig::new(4);
/// let a = tiled::attention(&q, &k, &v, &cfg, 3);
/// let b = naive::attention(&q, &k, &v, &cfg);
/// assert!(a.max_abs_diff(&b) < 1e-12);
/// ```
pub fn attention<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    cfg: &AttentionConfig,
    block_size: usize,
) -> Matrix<T> {
    cfg.validate_shapes(q, k, v);
    assert!(block_size > 0, "block_size must be positive");
    let d = cfg.head_dim();
    let mut out = Matrix::zeros(q.rows(), d);
    if par::worth_parallelizing(q.rows(), k.rows(), d) {
        out.as_mut_slice()
            .par_chunks_mut(d)
            .enumerate()
            .for_each(|(qi, row)| fill_query_row(q, k, v, cfg, block_size, qi, row));
    } else {
        for (qi, row) in out.as_mut_slice().chunks_mut(d).enumerate() {
            fill_query_row(q, k, v, cfg, block_size, qi, row);
        }
    }
    out
}

/// The serial reference form of [`attention`]: identical arithmetic, one
/// thread — golden model for the parallel-equivalence property tests.
///
/// # Panics
///
/// Panics on shape mismatch or if `block_size == 0`.
pub fn attention_serial<T: Scalar>(
    q: &Matrix<T>,
    k: &Matrix<T>,
    v: &Matrix<T>,
    cfg: &AttentionConfig,
    block_size: usize,
) -> Matrix<T> {
    cfg.validate_shapes(q, k, v);
    assert!(block_size > 0, "block_size must be positive");
    let d = cfg.head_dim();
    let mut out = Matrix::zeros(q.rows(), d);
    for (qi, row) in out.as_mut_slice().chunks_mut(d).enumerate() {
        fill_query_row(q, k, v, cfg, block_size, qi, row);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive;
    use fa_tensor::random::ElementDist;

    fn rand_qkv(n: usize, d: usize, seed: u64) -> (Matrix<f64>, Matrix<f64>, Matrix<f64>) {
        (
            Matrix::random_seeded(n, d, ElementDist::default(), seed),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 1),
            Matrix::random_seeded(n, d, ElementDist::default(), seed + 2),
        )
    }

    #[test]
    fn all_block_sizes_match_naive() {
        let (q, k, v) = rand_qkv(17, 4, 900); // deliberately non-divisible N
        let cfg = AttentionConfig::new(4);
        let reference = naive::attention(&q, &k, &v, &cfg);
        for bs in [1, 2, 3, 4, 8, 16, 17, 32] {
            let t = attention(&q, &k, &v, &cfg, bs);
            assert!(
                t.max_abs_diff(&reference) < 1e-12,
                "block size {bs} diverged"
            );
        }
    }

    #[test]
    fn causal_mask_with_tiling() {
        let (q, k, v) = rand_qkv(12, 4, 901);
        let cfg = AttentionConfig::new(4).with_causal(true);
        let reference = naive::attention(&q, &k, &v, &cfg);
        for bs in [1, 3, 5, 12] {
            let t = attention(&q, &k, &v, &cfg, bs);
            assert!(t.max_abs_diff(&reference) < 1e-12);
        }
    }

    #[test]
    fn single_block_equals_flash2() {
        let (q, k, v) = rand_qkv(10, 4, 902);
        let cfg = AttentionConfig::new(4);
        let whole = attention(&q, &k, &v, &cfg, 10);
        let flash = crate::flash2::attention(&q, &k, &v, &cfg);
        assert!(whole.max_abs_diff(&flash) < 1e-13);
    }

    #[test]
    #[should_panic(expected = "block_size must be positive")]
    fn zero_block_size_panics() {
        let (q, k, v) = rand_qkv(4, 2, 903);
        let _ = attention(&q, &k, &v, &AttentionConfig::new(2), 0);
    }

    #[test]
    fn block_max_in_later_tile_rescales_earlier_tiles() {
        // The largest score lives in the last block, forcing a global
        // rescale of previously accumulated blocks.
        let q = Matrix::<f64>::from_rows(&[&[1.0]]);
        let k = Matrix::<f64>::from_rows(&[&[0.1], &[0.2], &[50.0]]);
        let v = Matrix::<f64>::from_rows(&[&[1.0], &[2.0], &[7.0]]);
        let cfg = AttentionConfig::unscaled(1);
        let t = attention(&q, &k, &v, &cfg, 2);
        let reference = naive::attention(&q, &k, &v, &cfg);
        assert!(t.max_abs_diff(&reference) < 1e-12);
        assert!((t[(0, 0)] - 7.0).abs() < 1e-9, "dominant key wins");
    }
}
