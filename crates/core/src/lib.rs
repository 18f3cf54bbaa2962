//! # flash-abft
//!
//! Fused algorithm-based fault tolerance for attention — the Rust
//! reproduction of *"Custom Algorithm-based Fault Tolerance for Attention
//! Layers in Transformers"* (Titopoulos, Alexandridis, Dimitrakopoulos).
//!
//! Traditional ABFT verifies each matrix multiplication of an attention
//! layer separately and cannot see inside the softmax between them.
//! Flash-ABFT computes **one** predicted checksum for the *entire*
//! attention operation `softmax(Q·Kᵀ)·V` — softmax included — and compares
//! it against the actual sum of the attention output. The prediction obeys
//! the same online recurrence as the FlashAttention-2 output itself
//! (paper Eq. 9/10), so it rides along the kernel at negligible cost.
//!
//! ## Module map
//!
//! * [`checksum`] — the closed-form checksum mathematics (paper Eq. 3–8):
//!   reference predictions computed directly from definitions, used as
//!   ground truth everywhere;
//! * [`online`] — Alg. 3: FlashAttention-2 with the online checksum
//!   computation fused into the kernel loop;
//! * [`MergedAccumulator`] — the merged accumulator of Eq. 9/10
//!   (`o* = [c, o]`): checksum as an extra output lane, defined once in
//!   `fa_tensor::online` for every kernel;
//! * [`decode`] — checked autoregressive decoding: per-token Alg. 3
//!   checks over a growing KV cache, with checked prompt prefill through
//!   the fused kernel — the bit-exact golden model for the
//!   continuous-batching engine in `fa_attention::batch`;
//! * [`checker`] — detection: tolerance comparison, verification reports,
//!   and post-hoc verification of externally produced outputs;
//! * [`api`] — the high-level [`FlashAbft`] entry point and its multi-head
//!   wrapper.
//!
//! ## Quickstart
//!
//! ```
//! use fa_tensor::{Matrix, random::ElementDist};
//! use fa_attention::AttentionConfig;
//! use flash_abft::FlashAbft;
//!
//! let n = 32;
//! let d = 16;
//! let q = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 1);
//! let k = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 2);
//! let v = Matrix::<f64>::random_seeded(n, d, ElementDist::default(), 3);
//!
//! let engine = FlashAbft::new(AttentionConfig::new(d));
//! let checked = engine.compute(&q, &k, &v);
//! assert!(!checked.report().is_alarm(), "fault-free run must pass");
//! assert_eq!(checked.output().rows(), n);
//! ```

pub mod api;
pub mod checker;
pub mod checksum;
pub mod decode;
pub mod localize;
pub mod online;

pub use api::{CheckedAttention, FlashAbft};
pub use checker::{ChecksumReport, FlashAbftChecker};
pub use decode::{CheckedDecodeSession, CheckedDecodeStep, CheckedGqaDecodeSession};
pub use fa_tensor::online::MergedAccumulator;
pub use online::{flash2_with_checksum, flash2_with_checksum_serial};
