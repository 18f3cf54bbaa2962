//! Row and column checksum vectors — the ABFT primitives.
//!
//! Classic Huang–Abraham ABFT for `C = A·B` augments `A` with a bottom row
//! of per-**column** sums and `B` with a right column of per-**row** sums;
//! the dot product of those two vectors predicts the sum of all elements of
//! `C`. The paper reuses exactly these primitives: `sumrow_k(V)` (Eq. 4) is
//! the per-row checksum of `V`, and `sumcol_k(S)` (Eq. 3) is the per-column
//! checksum of the softmax matrix.
//!
//! All checksums here accumulate in `f64` regardless of the element format,
//! matching the paper's double-precision checksum accumulators.

use crate::{Matrix, Scalar};

impl<T: Scalar> Matrix<T> {
    /// Per-row sums: element `k` is `Σ_j self[k][j]` — the paper's
    /// `sumrow_k` (Eq. 4), accumulated in f64.
    ///
    /// ```
    /// use fa_tensor::Matrix;
    /// let v = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
    /// assert_eq!(v.row_sums(), vec![3.0, 7.0]);
    /// ```
    pub fn row_sums(&self) -> Vec<f64> {
        self.iter_rows()
            .map(|row| row.iter().map(|x| x.to_f64()).sum())
            .collect()
    }

    /// Per-column sums: element `k` is `Σ_i self[i][k]` — the paper's
    /// `sumcol_k` (Eq. 3), accumulated in f64.
    pub fn col_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0f64; self.cols()];
        for row in self.iter_rows() {
            for (s, x) in sums.iter_mut().zip(row) {
                *s += x.to_f64();
            }
        }
        sums
    }
}

/// The Huang–Abraham predicted checksum for `C = A·B`: the dot product of
/// `A`'s column sums with `B`'s row sums, all in f64.
///
/// If no fault occurred, this equals `Σ_ij C[i][j]` up to floating-point
/// reordering error.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn predicted_matmul_checksum<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> f64 {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions differ in checksum prediction"
    );
    a.col_sums()
        .iter()
        .zip(b.row_sums())
        .map(|(&ca, rb)| ca * rb)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_numerics::BF16;

    #[test]
    fn row_and_col_sums_known_answer() {
        let m = Matrix::<f64>::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        assert_eq!(m.row_sums(), vec![6.0, 15.0]);
        assert_eq!(m.col_sums(), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn sums_of_empty_matrix() {
        let m = Matrix::<f64>::zeros(0, 3);
        assert!(m.row_sums().is_empty());
        assert_eq!(m.col_sums(), vec![0.0, 0.0, 0.0]);
    }

    #[test]
    fn bf16_sums_accumulate_in_f64() {
        // 256 copies of bf16(0.01): a BF16 accumulator would absorb terms;
        // the f64 accumulator must not.
        let v = BF16::from_f32(0.01).to_f64();
        let m = Matrix::<BF16>::from_fn(1, 256, |_, _| BF16::from_f32(0.01));
        let expected = v * 256.0;
        assert!((m.row_sums()[0] - expected).abs() < 1e-12);
    }

    #[test]
    fn predicted_checksum_equals_actual_sum() {
        let a = Matrix::<f64>::from_fn(5, 7, |r, c| ((r * 7 + c) % 11) as f64 - 5.0);
        let b = Matrix::<f64>::from_fn(7, 4, |r, c| ((r * 4 + c) % 13) as f64 / 3.0);
        let c = a.matmul(&b);
        let predicted = predicted_matmul_checksum(&a, &b);
        assert!((predicted - c.sum_all()).abs() < 1e-9);
    }

    #[test]
    fn predicted_checksum_detects_corruption() {
        let a = Matrix::<f64>::from_fn(3, 3, |r, c| (r + c) as f64);
        let b = Matrix::<f64>::identity(3);
        let mut c = a.matmul(&b);
        let predicted = predicted_matmul_checksum(&a, &b);
        assert!((predicted - c.sum_all()).abs() < 1e-12);
        c[(1, 1)] += 0.5; // inject
        assert!((predicted - c.sum_all()).abs() > 0.4);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn predicted_checksum_shape_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 2);
        let _ = predicted_matmul_checksum(&a, &b);
    }
}
