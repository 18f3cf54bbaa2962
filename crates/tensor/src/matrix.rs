//! The dense row-major matrix type.

use crate::Scalar;
use std::fmt;

/// A dense, row-major matrix of [`Scalar`] elements.
///
/// Dimensions are fixed at construction; all accessors bounds-check in
/// debug and release builds (attention kernels index with loop variables
/// derived from validated dimensions, so the checks never fire on the hot
/// path after inlining).
///
/// # Example
///
/// ```
/// use fa_tensor::Matrix;
///
/// let m = Matrix::<f64>::from_fn(2, 3, |r, c| (r * 3 + c) as f64);
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.cols(), 3);
/// assert_eq!(m[(1, 2)], 5.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix<T> {
    rows: usize,
    cols: usize,
    data: Vec<T>,
}

impl<T: Scalar> Matrix<T> {
    /// Creates a matrix of zeros.
    ///
    /// # Panics
    ///
    /// Panics if `rows * cols` overflows `usize`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        let len = rows
            .checked_mul(cols)
            .expect("matrix dimensions overflow usize");
        Matrix {
            rows,
            cols,
            data: vec![T::zero(); len],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = T::one();
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> T) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have unequal lengths.
    pub fn from_rows(rows: &[&[T]]) -> Self {
        let cols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(rows.len() * cols);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(
                row.len(),
                cols,
                "row {i} has length {} but row 0 has length {cols}",
                row.len()
            );
            data.extend_from_slice(row);
        }
        Matrix {
            rows: rows.len(),
            cols,
            data,
        }
    }

    /// Builds a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<T>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "flat vector length {} does not match {rows}×{cols}",
            data.len()
        );
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(
            r < self.rows,
            "row {r} out of bounds for {} rows",
            self.rows
        );
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Iterates over rows as slices.
    pub fn iter_rows(&self) -> impl Iterator<Item = &[T]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// The flat row-major element slice.
    #[inline]
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// The flat row-major element slice, mutably.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix<T> {
        Matrix::from_fn(self.cols, self.rows, |r, c| self[(c, r)])
    }

    /// Applies `f` to every element, producing a new matrix of the same
    /// shape (possibly in a different scalar format).
    pub fn map<U: Scalar>(&self, mut f: impl FnMut(T) -> U) -> Matrix<U> {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Converts every element to `f64` (exact for all supported formats).
    pub fn to_f64(&self) -> Matrix<f64> {
        self.map(|x| x.to_f64())
    }

    /// Rounds every element into scalar format `U`.
    pub fn cast<U: Scalar>(&self) -> Matrix<U> {
        self.map(|x| U::from_f64(x.to_f64()))
    }

    /// Largest absolute element difference against another matrix of the
    /// same shape; NaN if any compared pair involves a NaN.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix<T>) -> f64 {
        assert_eq!(
            (self.rows, self.cols),
            (other.rows, other.cols),
            "shape mismatch in max_abs_diff"
        );
        let mut worst = 0.0f64;
        for (a, b) in self.data.iter().zip(&other.data) {
            let d = (a.to_f64() - b.to_f64()).abs();
            if d.is_nan() {
                return f64::NAN;
            }
            if d > worst {
                worst = d;
            }
        }
        worst
    }

    /// Whether all elements are finite (no NaN/Inf anywhere).
    pub fn all_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }

    /// Sum of all elements, accumulated in f64.
    pub fn sum_all(&self) -> f64 {
        self.data.iter().map(|x| x.to_f64()).sum()
    }
}

impl<T: Scalar> std::ops::Index<(usize, usize)> for Matrix<T> {
    type Output = T;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}×{}",
            self.rows,
            self.cols
        );
        &self.data[r * self.cols + c]
    }
}

impl<T: Scalar> std::ops::IndexMut<(usize, usize)> for Matrix<T> {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut T {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds for {}×{}",
            self.rows,
            self.cols
        );
        &mut self.data[r * self.cols + c]
    }
}

impl<T: Scalar> fmt::Debug for Matrix<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix<{}> {}×{} [", T::NAME, self.rows, self.cols)?;
        let max_rows = 8;
        for (i, row) in self.iter_rows().take(max_rows).enumerate() {
            write!(f, "  [")?;
            for (j, x) in row.iter().take(8).enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:?}", x)?;
            }
            if row.len() > 8 {
                write!(f, ", …")?;
            }
            writeln!(f, "]{}", if i + 1 < self.rows { "," } else { "" })?;
        }
        if self.rows > max_rows {
            writeln!(f, "  … {} more rows", self.rows - max_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_numerics::BF16;

    #[test]
    fn zeros_and_identity() {
        let z = Matrix::<f64>::zeros(2, 3);
        assert_eq!(z.rows(), 2);
        assert_eq!(z.cols(), 3);
        assert!(z.as_slice().iter().all(|&x| x == 0.0));

        let i = Matrix::<f64>::identity(3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(i[(r, c)], if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_fn_row_major_layout() {
        let m = Matrix::<f64>::from_fn(2, 3, |r, c| (r * 10 + c) as f64);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    fn from_rows_and_row_access() {
        let m = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.row(0), &[1.0, 2.0]);
        assert_eq!(m.row(1), &[3.0, 4.0]);
        let rows: Vec<_> = m.iter_rows().collect();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    #[should_panic(expected = "row 1 has length")]
    fn from_rows_ragged_panics() {
        let _ = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0]]);
    }

    #[test]
    #[should_panic(expected = "does not match")]
    fn from_vec_wrong_len_panics() {
        let _ = Matrix::<f64>::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let m = Matrix::<f64>::zeros(2, 2);
        let _ = m[(2, 0)];
    }

    #[test]
    fn transpose_roundtrip() {
        let m = Matrix::<f64>::from_fn(3, 5, |r, c| (r * 5 + c) as f64);
        let t = m.transpose();
        assert_eq!(t.rows(), 5);
        assert_eq!(t.cols(), 3);
        assert_eq!(t[(4, 2)], m[(2, 4)]);
        assert_eq!(t.transpose(), m);
    }

    #[test]
    fn map_and_cast() {
        let m = Matrix::<f64>::from_rows(&[&[1.0, 2.5]]);
        let doubled = m.map(|x| x * 2.0);
        assert_eq!(doubled.as_slice(), &[2.0, 5.0]);
        let b: Matrix<BF16> = m.cast();
        assert_eq!(b[(0, 1)].to_f64(), 2.5);
        let back = b.to_f64();
        assert_eq!(back, m);
    }

    #[test]
    fn max_abs_diff_works() {
        let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0]]);
        let b = Matrix::<f64>::from_rows(&[&[1.5, 2.0]]);
        assert_eq!(a.max_abs_diff(&b), 0.5);
        assert_eq!(a.max_abs_diff(&a), 0.0);
    }

    #[test]
    fn max_abs_diff_nan_poisons() {
        let a = Matrix::<f64>::from_rows(&[&[1.0, f64::NAN]]);
        let b = Matrix::<f64>::from_rows(&[&[1.0, 2.0]]);
        assert!(a.max_abs_diff(&b).is_nan());
    }

    #[test]
    fn all_finite_detects_inf_and_nan() {
        let mut m = Matrix::<f64>::zeros(2, 2);
        assert!(m.all_finite());
        m[(0, 1)] = f64::INFINITY;
        assert!(!m.all_finite());
        m[(0, 1)] = f64::NAN;
        assert!(!m.all_finite());
    }

    #[test]
    fn sum_all_adds_every_element() {
        let m = Matrix::<f64>::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(m.sum_all(), 7.0);
    }

    #[test]
    fn empty_matrix() {
        let m = Matrix::<f64>::zeros(0, 0);
        assert!(m.is_empty());
        assert_eq!(m.len(), 0);
        assert_eq!(m.sum_all(), 0.0);
        assert!(m.all_finite());
    }

    #[test]
    fn debug_output_truncates() {
        let m = Matrix::<f64>::zeros(20, 20);
        let s = format!("{:?}", m);
        assert!(s.contains("more rows"));
        assert!(s.contains("20×20"));
    }
}
