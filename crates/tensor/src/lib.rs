//! # fa-tensor
//!
//! Dense row-major matrix library underpinning every kernel in the
//! Flash-ABFT reproduction workspace.
//!
//! Attention operates on three matrices — queries `Q` (N×d), keys `K`
//! (N×d) and values `V` (N×d) — and ABFT operates on their row/column
//! checksum vectors. This crate provides:
//!
//! * [`Matrix<T>`] over a sealed [`Scalar`] trait implemented for `f32`,
//!   `f64` and [`BF16`](fa_numerics::BF16), so the same kernel code can run
//!   as a double-precision golden model or as the accelerator's
//!   reduced-precision datapath;
//! * matrix products with selectable accumulator precision ([`ops`]);
//! * row/column checksum vectors — the primitives of Huang–Abraham ABFT
//!   ([`checksum`]);
//! * the merged online-softmax accumulator every attention kernel folds
//!   its value rows through — output lanes plus the Flash-ABFT checksum
//!   lane ([`online`]);
//! * reproducible random generation with the distributions used by the
//!   workload generator ([`random`]).
//!
//! # Example
//!
//! ```
//! use fa_tensor::Matrix;
//!
//! let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::<f64>::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

pub mod checksum;
pub mod online;
pub mod ops;
pub mod par;
pub mod random;

mod matrix;
mod scalar;
mod simd;

pub use matrix::Matrix;
pub use scalar::Scalar;
