//! Matrix products with selectable accumulator precision.
//!
//! The accelerator multiplies BF16 operands but the choice of *accumulator*
//! precision is a first-class design decision in the paper (datapath MACs
//! accumulate in the storage format; checksum accumulators are f64). Both
//! styles are provided:
//!
//! * [`Matrix::matmul`] — accumulate in the element format itself, rounding
//!   after every MAC (what a same-width hardware MAC array does);
//! * [`matmul_f64_acc`] — accumulate each dot product in `f64` and round
//!   once at the end (what a widening accumulator does).
//!
//! # Kernel structure
//!
//! Both products are cache-blocked: the right-hand matrix is packed
//! transposed (each B column becomes a contiguous panel row), turning every
//! output element into a dot product of two contiguous slices — no strided
//! `[(k, j)]` bounds-checked access on the hot path. The widening kernel
//! additionally packs both operands as `f64` once (so BF16→f64 conversion
//! happens K+K times per panel instead of per MAC) and register-tiles the
//! inner loop four outputs wide. Row blocks are distributed over the rayon
//! pool.
//!
//! Every output element still accumulates its `k` terms in ascending order
//! with the same per-step rounding as the reference triple loop
//! ([`matmul_reference`]), so blocked, parallel, and reference kernels are
//! **bit-identical** — the property tests pin this down.

use crate::par::{worth_parallelizing_matmul, MATMUL_ROW_BLOCK as ROW_BLOCK};
use crate::{Matrix, Scalar};
use rayon::prelude::*;

/// Converts between two types the caller has proven identical via
/// `TypeId` — the monomorphization-time downcast the BF16 SIMD dispatch
/// needs (the sealed [`Scalar`] trait keeps the set of candidates closed).
///
/// # Panics
///
/// Panics if the types differ.
#[cfg(target_arch = "x86_64")]
fn cast_identical<A: 'static, B: 'static>(x: A) -> B {
    assert_eq!(
        core::any::TypeId::of::<A>(),
        core::any::TypeId::of::<B>(),
        "cast_identical requires identical types"
    );
    let x = core::mem::ManuallyDrop::new(x);
    // SAFETY: A and B are the same type (checked above), so this is a
    // no-op move.
    unsafe { core::mem::transmute_copy::<core::mem::ManuallyDrop<A>, B>(&x) }
}

/// Register tile width of the widening microkernel (outputs per sweep).
const NR: usize = 8;

impl<T: Scalar> Matrix<T> {
    /// Matrix product `self · rhs` with accumulation in `T`.
    ///
    /// Every multiply and every add rounds to `T`, matching a hardware MAC
    /// array whose accumulator registers have the same width as the
    /// operands. Bit-identical to [`matmul_reference`] (ascending-`k`
    /// accumulation per output element) but cache-blocked over a packed
    /// transposed B panel and parallelized across row blocks.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    ///
    /// ```
    /// use fa_tensor::Matrix;
    /// let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0]]);
    /// let b = Matrix::<f64>::from_rows(&[&[3.0], &[4.0]]);
    /// assert_eq!(a.matmul(&b)[(0, 0)], 11.0);
    /// ```
    pub fn matmul(&self, rhs: &Matrix<T>) -> Matrix<T> {
        assert_eq!(
            self.cols(),
            rhs.rows(),
            "inner dimensions differ: {}×{} · {}×{}",
            self.rows(),
            self.cols(),
            rhs.rows(),
            rhs.cols()
        );
        // BF16's per-MAC rounding dominates this product; hand it to the
        // vectorized kernel when the host supports it (bit-identical — see
        // `simd`).
        #[cfg(target_arch = "x86_64")]
        if core::any::TypeId::of::<T>() == core::any::TypeId::of::<fa_numerics::BF16>() {
            // SAFETY: T and BF16 are the same type (TypeId equality above;
            // the sealed Scalar trait closes the candidate set), so these
            // reference casts are no-ops.
            let a16 = unsafe { &*(self as *const Matrix<T>).cast::<Matrix<fa_numerics::BF16>>() };
            let b16 = unsafe { &*(rhs as *const Matrix<T>).cast::<Matrix<fa_numerics::BF16>>() };
            if let Some(fast) = crate::simd::matmul_bf16(a16, b16) {
                return cast_identical::<Matrix<fa_numerics::BF16>, Matrix<T>>(fast);
            }
        }

        let (m, kdim, n) = (self.rows(), self.cols(), rhs.cols());
        let mut out = Matrix::zeros(m, n);
        if m == 0 || n == 0 || kdim == 0 {
            // Empty inner dimension: every dot product is the empty sum.
            return out;
        }
        // Pack Bᵀ once: column j of B becomes contiguous panel row j.
        let bt = rhs.transpose();
        let btp = bt.as_slice();

        let fill_block = |row0: usize, block: &mut [T]| {
            for (local, out_row) in block.chunks_mut(n).enumerate() {
                let a_row = self.row(row0 + local);
                // Register-tile MR output columns per k-sweep. Each output
                // keeps its own accumulator with the reference ascending-k
                // MAC order (bit-identical results); interleaving MR
                // independent rounding chains hides the per-MAC rounding
                // latency that a single chain serializes on.
                const MR: usize = 8;
                let mut j = 0;
                while j + MR <= n {
                    let p = &btp[j * kdim..(j + MR) * kdim];
                    let (r0, rest) = p.split_at(kdim);
                    let (r1, rest) = rest.split_at(kdim);
                    let (r2, rest) = rest.split_at(kdim);
                    let (r3, rest) = rest.split_at(kdim);
                    let (r4, rest) = rest.split_at(kdim);
                    let (r5, rest) = rest.split_at(kdim);
                    let (r6, r7) = rest.split_at(kdim);
                    let mut acc = [T::zero(); MR];
                    for (k, &a) in a_row.iter().enumerate() {
                        acc[0] = acc[0].mac_fast(a, r0[k]);
                        acc[1] = acc[1].mac_fast(a, r1[k]);
                        acc[2] = acc[2].mac_fast(a, r2[k]);
                        acc[3] = acc[3].mac_fast(a, r3[k]);
                        acc[4] = acc[4].mac_fast(a, r4[k]);
                        acc[5] = acc[5].mac_fast(a, r5[k]);
                        acc[6] = acc[6].mac_fast(a, r6[k]);
                        acc[7] = acc[7].mac_fast(a, r7[k]);
                    }
                    out_row[j..j + MR].copy_from_slice(&acc);
                    j += MR;
                }
                for (o, bt_row) in out_row[j..].iter_mut().zip(btp[j * kdim..].chunks(kdim)) {
                    let mut acc = T::zero();
                    for (&a, &b) in a_row.iter().zip(bt_row) {
                        acc = acc.mac_fast(a, b);
                    }
                    *o = acc;
                }
            }
        };

        if worth_parallelizing_matmul(m) {
            out.as_mut_slice()
                .par_chunks_mut(ROW_BLOCK * n)
                .enumerate()
                .for_each(|(blk, block)| fill_block(blk * ROW_BLOCK, block));
        } else {
            fill_block(0, out.as_mut_slice());
        }
        out
    }

    /// Dot product of row `r` with a vector, accumulated in `T`.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()` or `r` is out of bounds.
    pub fn row_dot(&self, r: usize, v: &[T]) -> T {
        assert_eq!(v.len(), self.cols(), "vector length mismatch in row_dot");
        let mut acc = T::zero();
        for (&a, &b) in self.row(r).iter().zip(v) {
            acc = acc.mac(a, b);
        }
        acc
    }

    /// Scales every element by `factor` (rounded to `T`).
    pub fn scale(&self, factor: f64) -> Matrix<T> {
        self.map(|x| T::from_f64(x.to_f64() * factor))
    }
}

/// The seed's reference triple loop (accumulation in `T`, strided access):
/// the golden model the blocked kernel is validated against, and the
/// baseline the kernel benchmarks measure speedups from.
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_reference<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions differ: {}×{} · {}×{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        let a_row = a.row(i);
        for j in 0..b.cols() {
            let mut acc = T::zero();
            for (k, &x) in a_row.iter().enumerate() {
                acc = acc.mac(x, b[(k, j)]);
            }
            out[(i, j)] = acc;
        }
    }
    out
}

/// The seed's reference widening loop (`f64` accumulation, strided access):
/// golden model and benchmark baseline for [`matmul_f64_acc`].
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_f64_acc_reference<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions differ: {}×{} · {}×{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let mut out = Matrix::zeros(a.rows(), b.cols());
    for i in 0..a.rows() {
        for j in 0..b.cols() {
            let mut acc = 0.0f64;
            for k in 0..a.cols() {
                acc += a[(i, k)].to_f64() * b[(k, j)].to_f64();
            }
            out[(i, j)] = T::from_f64(acc);
        }
    }
    out
}

/// Matrix product with widening `f64` accumulation: each output element is
/// the dot product of `T`-valued operands carried in `f64`, rounded to `T`
/// once.
///
/// Cache-blocked and register-tiled: both operands are packed to `f64`
/// panels (one conversion per element per panel use, not per MAC), B is
/// packed transposed, and the microkernel walks `k` once while feeding
/// `NR` independent accumulators. Each accumulator sums its `k` terms in
/// ascending order, so the result is bit-identical to
/// [`matmul_f64_acc_reference`].
///
/// # Panics
///
/// Panics if `a.cols() != b.rows()`.
pub fn matmul_f64_acc<T: Scalar>(a: &Matrix<T>, b: &Matrix<T>) -> Matrix<T> {
    assert_eq!(
        a.cols(),
        b.rows(),
        "inner dimensions differ: {}×{} · {}×{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || kdim == 0 {
        // Empty inner dimension: every dot product is the empty sum.
        return out;
    }

    // Pack Bᵀ as f64 once: panel row j holds column j of B, contiguous.
    let mut bt = vec![0.0f64; n * kdim];
    for (k, row) in b.iter_rows().enumerate() {
        for (j, &x) in row.iter().enumerate() {
            bt[j * kdim + k] = x.to_f64();
        }
    }

    let fill_block = |row0: usize, block: &mut [T]| {
        let rows_here = block.len() / n;
        // Pack this A row block as f64.
        let mut ap = vec![0.0f64; rows_here * kdim];
        for (local, dst) in ap.chunks_mut(kdim).enumerate() {
            for (d, &x) in dst.iter_mut().zip(a.row(row0 + local)) {
                *d = x.to_f64();
            }
        }
        for (local, out_row) in block.chunks_mut(n).enumerate() {
            let a_row = &ap[local * kdim..(local + 1) * kdim];
            // Register-tiled microkernel: NR outputs per sweep of k, each
            // with its own ascending-k accumulator (bit-identical to the
            // reference loop), interleaved to hide the f64 add latency.
            let mut j = 0;
            while j + NR <= n {
                let p = &bt[j * kdim..(j + NR) * kdim];
                let (b0, rest) = p.split_at(kdim);
                let (b1, rest) = rest.split_at(kdim);
                let (b2, rest) = rest.split_at(kdim);
                let (b3, rest) = rest.split_at(kdim);
                let (b4, rest) = rest.split_at(kdim);
                let (b5, rest) = rest.split_at(kdim);
                let (b6, b7) = rest.split_at(kdim);
                let mut c = [0.0f64; NR];
                for (k, &av) in a_row.iter().enumerate() {
                    c[0] += av * b0[k];
                    c[1] += av * b1[k];
                    c[2] += av * b2[k];
                    c[3] += av * b3[k];
                    c[4] += av * b4[k];
                    c[5] += av * b5[k];
                    c[6] += av * b6[k];
                    c[7] += av * b7[k];
                }
                for (o, &acc) in out_row[j..j + NR].iter_mut().zip(&c) {
                    *o = T::from_f64(acc);
                }
                j += NR;
            }
            while j < n {
                let bj = &bt[j * kdim..(j + 1) * kdim];
                let mut acc = 0.0f64;
                for (k, &av) in a_row.iter().enumerate() {
                    acc += av * bj[k];
                }
                out_row[j] = T::from_f64(acc);
                j += 1;
            }
        }
    };

    if worth_parallelizing_matmul(m) {
        out.as_mut_slice()
            .par_chunks_mut(ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, block)| fill_block(blk * ROW_BLOCK, block));
    } else {
        fill_block(0, out.as_mut_slice());
    }
    out
}

/// Accumulator lanes of the blocked dot product: 4 AVX2 `f64x4` vectors.
/// Part of the *defining* summation order of [`dot_f64`] — changing it
/// changes results at the last-ulp level.
pub const DOT_LANES: usize = 16;

/// Dot product of two equal-length slices, accumulated in `f64` with the
/// workspace's blocked summation order.
///
/// The seed's sequential sum ([`dot_f64_reference`]) is one add-latency
/// chain — the flash2 score-loop bottleneck PR 1 left in place. This
/// kernel instead carries [`DOT_LANES`] independent partial sums (lane
/// `l` accumulates elements `DOT_LANES·i + l`), combines them in a fixed
/// tree, then adds the tail elements in ascending order. That order is
/// *defined* by [`dot_f64_portable`]; the AVX2 path is bit-identical to
/// it (property-tested), so results never depend on the host. Slices
/// shorter than [`DOT_LANES`] reduce to the sequential order exactly, so
/// small-`d` callers see the seed's bit patterns unchanged.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot_f64<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let Some(s) = crate::simd::dot_f64(a, b) {
        return s;
    }
    dot_f64_portable(a, b)
}

/// Fused score kernel: `dot_f64(a, b) * scale` in one call — the form
/// every attention score loop uses (`q·k` then the 1/√d scaling). One
/// rounding for the scale multiply, exactly like the unfused sequence.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot_then_scale<T: Scalar>(a: &[T], b: &[T], scale: f64) -> f64 {
    dot_f64(a, b) * scale
}

/// Scores a block of key rows against one query: `out[i] =
/// dot_then_scale(q, row_i, scale)` for `n_rows` rows laid out at a fixed
/// `row_stride` starting at `rows[0]`. Each row goes through the same
/// [`dot_f64`] kernel as the unfused call, so every score is bit-identical
/// to calling [`dot_then_scale`] row by row.
///
/// This entry point exists for the decode/attention hot loops: scoring a
/// whole cache block first means the kernel streams the K block once and
/// then streams the V block once (in the accumulate loop), instead of
/// alternating K-row and V-row reads — and with the head-major KV layout
/// (`row_stride == q.len()`) the K block is one pure contiguous span, the
/// shape hardware prefetchers and DRAM bursts want. `out` is cleared and
/// refilled.
///
/// # Panics
///
/// Panics if `row_stride < q.len()` (rows would overlap) or `rows` is too
/// short for the requested view.
#[inline]
pub fn dot_then_scale_rows<T: Scalar>(
    q: &[T],
    rows: &[T],
    row_stride: usize,
    n_rows: usize,
    scale: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    if n_rows == 0 {
        return;
    }
    assert!(
        row_stride >= q.len(),
        "row stride {row_stride} shorter than query length {}",
        q.len()
    );
    let needed = (n_rows - 1) * row_stride + q.len();
    assert!(
        rows.len() >= needed,
        "row block too short: {} < {needed}",
        rows.len()
    );
    out.reserve(n_rows);
    for r in 0..n_rows {
        let row = &rows[r * row_stride..r * row_stride + q.len()];
        out.push(dot_f64(q, row) * scale);
    }
}

/// The portable scalar form of [`dot_f64`] and the *definition* of its
/// summation order: [`DOT_LANES`] strided partial sums, a fixed combine
/// tree mirroring the AVX2 register layout (lane vectors `v0..v3`,
/// combined `(v0+v2) + (v1+v3)`, then horizontally `(u0+u1) + (u2+u3)`),
/// then the ascending-order tail. The SIMD kernels must match this bit
/// for bit.
pub fn dot_f64_portable<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    let chunks = a.len() / DOT_LANES;
    // −0.0 is `Iterator::sum`'s fold identity: seeding the lanes with it
    // makes sub-lane (and empty) slices reproduce the seed's sequential
    // sum bit for bit, signed zeros included.
    let mut acc = [-0.0f64; DOT_LANES];
    for c in 0..chunks {
        let base = c * DOT_LANES;
        for (l, slot) in acc.iter_mut().enumerate() {
            *slot += a[base + l].to_f64() * b[base + l].to_f64();
        }
    }
    // Combine tree: vector adds (v0+v2), (v1+v3), their sum, then the
    // horizontal reduction of the final 4-lane vector.
    let mut u = [0.0f64; 4];
    for (j, slot) in u.iter_mut().enumerate() {
        *slot = (acc[j] + acc[j + 8]) + (acc[j + 4] + acc[j + 12]);
    }
    let mut s = (u[0] + u[1]) + (u[2] + u[3]);
    for k in chunks * DOT_LANES..a.len() {
        s += a[k].to_f64() * b[k].to_f64();
    }
    s
}

/// Native BF16 dot product: bit-identical to [`dot_f64`] on the same
/// BF16 slices (same lane assignment, same combine tree) while skipping
/// the per-element f64 widening that made BF16 scoring compute-bound
/// (the PR-3 "bf16 admission" caveat). The AVX2 path converts eight BF16
/// lanes per instruction and multiplies them 8-wide in `f32` — exact
/// while the product stays in f32's **normal** range (8+8-bit
/// significands fit 24 bits, but the exponent can still overflow to
/// ±inf or underflow past 2⁻¹²⁶), so the kernel carries a running
/// |product| min/max guard and reruns any slice with an
/// out-of-normal-range, zero, or non-finite product through the
/// per-element widening kernel. Results are therefore pinned to
/// [`dot_f64_portable`]'s order at **every** magnitude
/// (property-tested, extreme values included); only NaN *payload* bits
/// are implementation-defined, as everywhere else in this workspace.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot_bf16_native(a: &[fa_numerics::BF16], b: &[fa_numerics::BF16]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let Some(s) = crate::simd::dot_bf16_native(a, b) {
        return s;
    }
    dot_bf16_native_portable(a, b)
}

/// The portable form of [`dot_bf16_native`] and the definition of its
/// semantics: exactly [`dot_f64_portable`] over the widened operands.
/// (Portable hosts have no 8-wide f32 multiplier to win with, so there
/// is nothing to trade against exactness here.)
pub fn dot_bf16_native_portable(a: &[fa_numerics::BF16], b: &[fa_numerics::BF16]) -> f64 {
    dot_f64_portable(a, b)
}

/// Mixed-format dot product: an `f64` query against a BF16 key row, in
/// [`dot_f64`]'s blocked summation order. BF16→f64 widening is exact, so
/// the result is bit-identical to `dot_f64(q, widen(k))` — which is how
/// the mixed-format KV cache stays pinned to the f64 golden decode model
/// after demoting blocks: the golden session stores the demoted values
/// widened back to f64 and scores them through [`dot_f64`].
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot_f64_bf16(q: &[f64], k: &[fa_numerics::BF16]) -> f64 {
    assert_eq!(q.len(), k.len(), "dot product length mismatch");
    #[cfg(target_arch = "x86_64")]
    if let Some(s) = crate::simd::dot_f64_bf16(q, k) {
        return s;
    }
    dot_f64_bf16_portable(q, k)
}

/// Portable scalar form of [`dot_f64_bf16`] (defines its order; same lane
/// structure as [`dot_f64_portable`]).
pub fn dot_f64_bf16_portable(q: &[f64], k: &[fa_numerics::BF16]) -> f64 {
    assert_eq!(q.len(), k.len(), "dot product length mismatch");
    let chunks = q.len() / DOT_LANES;
    let mut acc = [-0.0f64; DOT_LANES];
    for c in 0..chunks {
        let base = c * DOT_LANES;
        for (l, slot) in acc.iter_mut().enumerate() {
            *slot += q[base + l] * k[base + l].to_f64();
        }
    }
    let mut u = [0.0f64; 4];
    for (j, slot) in u.iter_mut().enumerate() {
        *slot = (acc[j] + acc[j + 8]) + (acc[j + 4] + acc[j + 12]);
    }
    let mut s = (u[0] + u[1]) + (u[2] + u[3]);
    for k_i in chunks * DOT_LANES..q.len() {
        s += q[k_i] * k[k_i].to_f64();
    }
    s
}

/// [`dot_then_scale_rows`] for demoted (BF16-stored) cache blocks scored
/// against an `f64` query: `out[i] = dot_f64_bf16(q, row_i) · scale`.
/// Every score is bit-identical to widening the BF16 row to f64 and
/// calling [`dot_then_scale`] — the block-demotion equivalence the
/// mixed-format decode proptests pin.
///
/// # Panics
///
/// Panics if `row_stride < q.len()` or `rows` is too short.
#[inline]
pub fn dot_then_scale_rows_bf16(
    q: &[f64],
    rows: &[fa_numerics::BF16],
    row_stride: usize,
    n_rows: usize,
    scale: f64,
    out: &mut Vec<f64>,
) {
    out.clear();
    if n_rows == 0 {
        return;
    }
    assert!(
        row_stride >= q.len(),
        "row stride {row_stride} shorter than query length {}",
        q.len()
    );
    let needed = (n_rows - 1) * row_stride + q.len();
    assert!(
        rows.len() >= needed,
        "row block too short: {} < {needed}",
        rows.len()
    );
    out.reserve(n_rows);
    for r in 0..n_rows {
        let row = &rows[r * row_stride..r * row_stride + q.len()];
        out.push(dot_f64_bf16(q, row) * scale);
    }
}

/// Scores a block of key rows against **many** queries at once:
/// `out[qi·n_rows + r] = dot_then_scale(q_qi, row_r, scale)` for `nq =
/// qs.len()/d` queries packed row-major in `qs`. Every (query, row)
/// score goes through the same [`dot_f64`] kernel as
/// [`dot_then_scale_rows`], so the output is bit-identical to calling
/// that kernel once per query — this entry point exists purely for
/// memory locality: the row loop is **outer** and the query loop inner,
/// so each K row is streamed from DRAM once and stays register/L1-hot
/// while all `nq` queries score it. That turns `k` sequences reading one
/// shared cache block from `k` separate K-panel sweeps (bandwidth-bound)
/// into one sweep feeding a `(nq × d)·(dᵀ × n_rows)` matmul's worth of
/// dots (compute-dense — the shared-prefix decode win).
///
/// The tiled [`matmul_f64_acc`] is *not* usable here: its ascending-`k`
/// accumulation differs from [`dot_f64`]'s lane-blocked order for
/// `d ≥ DOT_LANES`, and shared-block scores must stay bit-identical to
/// the unshared GEMV path. `out` is cleared and refilled (query-major).
///
/// # Panics
///
/// Panics if `qs.len()` is not a multiple of `d`, `row_stride < d`, or
/// `rows` is too short for the requested view.
#[inline]
pub fn dot_then_scale_rows_multi<T: Scalar>(
    qs: &[T],
    d: usize,
    rows: &[T],
    row_stride: usize,
    n_rows: usize,
    scale: f64,
    out: &mut Vec<f64>,
) {
    assert_eq!(qs.len() % d, 0, "packed queries not a multiple of d");
    let nq = qs.len() / d;
    out.clear();
    out.resize(nq * n_rows, 0.0);
    dot_then_scale_rows_multi_into(qs, d, rows, row_stride, n_rows, scale, out);
}

/// [`dot_then_scale_rows_multi`] writing into a pre-sized slice instead
/// of a `Vec` — the caller owns placement, so a batch of tiles can land
/// directly in one score arena with no per-tile scratch copy. `out`
/// must hold exactly `nq · n_rows` entries (query-major on return).
///
/// # Panics
///
/// Panics if `qs.len()` is not a multiple of `d`, `out.len()` is not
/// `nq · n_rows`, `row_stride < d`, or `rows` is too short.
#[inline]
pub fn dot_then_scale_rows_multi_into<T: Scalar>(
    qs: &[T],
    d: usize,
    rows: &[T],
    row_stride: usize,
    n_rows: usize,
    scale: f64,
    out: &mut [f64],
) {
    assert_eq!(qs.len() % d, 0, "packed queries not a multiple of d");
    let nq = qs.len() / d;
    assert_eq!(out.len(), nq * n_rows, "output tile size mismatch");
    if n_rows == 0 || nq == 0 {
        return;
    }
    assert!(
        row_stride >= d,
        "row stride {row_stride} shorter than query length {d}"
    );
    let needed = (n_rows - 1) * row_stride + d;
    assert!(
        rows.len() >= needed,
        "row block too short: {} < {needed}",
        rows.len()
    );
    for r in 0..n_rows {
        let row = &rows[r * row_stride..r * row_stride + d];
        for qi in 0..nq {
            out[qi * n_rows + r] = dot_f64(&qs[qi * d..(qi + 1) * d], row) * scale;
        }
    }
}

/// [`dot_then_scale_rows_multi_into`] for demoted (BF16-stored) blocks
/// scored against packed `f64` queries: each (query, row) score is
/// [`dot_f64_bf16`], bit-identical to [`dot_then_scale_rows_bf16`] once
/// per query. Same placement contract as the native variant.
///
/// # Panics
///
/// Panics if `qs.len()` is not a multiple of `d`, `out.len()` is not
/// `nq · n_rows`, `row_stride < d`, or `rows` is too short.
#[inline]
pub fn dot_then_scale_rows_multi_bf16_into(
    qs: &[f64],
    d: usize,
    rows: &[fa_numerics::BF16],
    row_stride: usize,
    n_rows: usize,
    scale: f64,
    out: &mut [f64],
) {
    assert_eq!(qs.len() % d, 0, "packed queries not a multiple of d");
    let nq = qs.len() / d;
    assert_eq!(out.len(), nq * n_rows, "output tile size mismatch");
    if n_rows == 0 || nq == 0 {
        return;
    }
    assert!(
        row_stride >= d,
        "row stride {row_stride} shorter than query length {d}"
    );
    let needed = (n_rows - 1) * row_stride + d;
    assert!(
        rows.len() >= needed,
        "row block too short: {} < {needed}",
        rows.len()
    );
    for r in 0..n_rows {
        let row = &rows[r * row_stride..r * row_stride + d];
        for qi in 0..nq {
            out[qi * n_rows + r] = dot_f64_bf16(&qs[qi * d..(qi + 1) * d], row) * scale;
        }
    }
}

/// The seed's sequential dot product (one ascending add chain): the
/// accuracy golden model and the baseline the `dot_simd` benchmark
/// measures speedups from.
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn dot_f64_reference<T: Scalar>(a: &[T], b: &[T]) -> f64 {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    a.iter()
        .zip(b)
        .map(|(&x, &y)| x.to_f64() * y.to_f64())
        .sum()
}

/// The online-softmax accumulate step, vectorized:
/// `acc[i] ← acc[i]·scale_acc + x[i]·weight_x` for every lane.
///
/// This is the generalized axpy every attention accumulator loop
/// performs (Alg. 2 line 6 / Alg. 3 line 7): rescale the running state by
/// `e^{m_{i−1}−m_i}` and add the incoming value row weighted by
/// `e^{s_i−m_i}`. Purely element-wise — two roundings per lane (product,
/// then sum), no cross-lane reassociation — so the SIMD path is
/// bit-identical to this loop by IEEE semantics alone (and the property
/// tests pin it anyway).
///
/// # Panics
///
/// Panics if the lengths differ.
#[inline]
pub fn axpy_f64<T: Scalar>(acc: &mut [f64], x: &[T], scale_acc: f64, weight_x: f64) {
    assert_eq!(acc.len(), x.len(), "axpy length mismatch");
    #[cfg(target_arch = "x86_64")]
    if crate::simd::axpy_f64(acc, x, scale_acc, weight_x) {
        return;
    }
    axpy_f64_portable(acc, x, scale_acc, weight_x);
}

/// Portable scalar form of [`axpy_f64`] (also its reference semantics).
///
/// # Panics
///
/// Panics if the lengths differ.
pub fn axpy_f64_portable<T: Scalar>(acc: &mut [f64], x: &[T], scale_acc: f64, weight_x: f64) {
    assert_eq!(acc.len(), x.len(), "axpy length mismatch");
    for (a, &v) in acc.iter_mut().zip(x) {
        *a = *a * scale_acc + v.to_f64() * weight_x;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fa_numerics::BF16;

    #[test]
    fn matmul_small_known_answer() {
        let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::<f64>::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity_is_noop() {
        let a = Matrix::<f64>::from_fn(4, 4, |r, c| (r * 4 + c) as f64);
        assert_eq!(a.matmul(&Matrix::identity(4)), a);
        assert_eq!(Matrix::identity(4).matmul(&a), a);
    }

    #[test]
    fn matmul_rectangular_shapes() {
        let a = Matrix::<f64>::zeros(2, 5);
        let b = Matrix::<f64>::zeros(5, 3);
        let c = a.matmul(&b);
        assert_eq!((c.rows(), c.cols()), (2, 3));
    }

    #[test]
    fn empty_inner_dimension_gives_zero_matrix() {
        // k = 0: every dot product is the empty sum, like the reference
        // loops produce.
        let a = Matrix::<f64>::zeros(2, 0);
        let b = Matrix::<f64>::zeros(0, 3);
        let c = a.matmul(&b);
        assert_eq!((c.rows(), c.cols()), (2, 3));
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
        assert_eq!(matmul_f64_acc(&a, &b), c);
        assert_eq!(matmul_reference(&a, &b), c);
        assert_eq!(matmul_f64_acc_reference(&a, &b), c);

        let ab = Matrix::<BF16>::zeros(4, 0);
        let bb = Matrix::<BF16>::zeros(0, 9);
        assert_eq!(ab.matmul(&bb), Matrix::<BF16>::zeros(4, 9));
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn matmul_dimension_mismatch_panics() {
        let a = Matrix::<f64>::zeros(2, 3);
        let b = Matrix::<f64>::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn f64_acc_at_least_as_accurate_in_bf16() {
        // With BF16 elements, per-MAC rounding loses more than one final
        // rounding. Construct a case where small terms are absorbed.
        let n = 64;
        let a = Matrix::<BF16>::from_fn(1, n, |_, _| BF16::from_f32(0.01));
        let b = Matrix::<BF16>::from_fn(n, 1, |_, _| BF16::from_f32(1.0));
        let narrow = a.matmul(&b)[(0, 0)].to_f64();
        let wide = matmul_f64_acc(&a, &b)[(0, 0)].to_f64();
        let exact_sum = BF16::from_f32(0.01).to_f64() * n as f64;
        assert!((wide - exact_sum).abs() <= (narrow - exact_sum).abs());
    }

    #[test]
    fn row_dot_matches_matmul_column() {
        let a = Matrix::<f64>::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let v = [7.0, 8.0, 9.0];
        assert_eq!(a.row_dot(0, &v), 50.0);
        assert_eq!(a.row_dot(1, &v), 122.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn row_dot_length_mismatch_panics() {
        let a = Matrix::<f64>::zeros(1, 3);
        let _ = a.row_dot(0, &[1.0, 2.0]);
    }

    #[test]
    fn dot_f64_and_scale() {
        assert_eq!(dot_f64(&[1.0f64, 2.0], &[3.0, 4.0]), 11.0);
        let m = Matrix::<f64>::from_rows(&[&[2.0, 4.0]]);
        assert_eq!(m.scale(0.5).as_slice(), &[1.0, 2.0]);
    }

    #[test]
    fn short_dot_matches_sequential_reference_bitwise() {
        // Below DOT_LANES the blocked kernel degenerates to the seed's
        // ascending chain, so small-d attention shapes are unchanged.
        for len in 0..DOT_LANES {
            let a: Vec<f64> = (0..len).map(|i| 0.37 * i as f64 - 1.1).collect();
            let b: Vec<f64> = (0..len).map(|i| -0.21 * i as f64 + 0.4).collect();
            assert_eq!(
                dot_f64(&a, &b).to_bits(),
                dot_f64_reference(&a, &b).to_bits(),
                "len {len}"
            );
        }
    }

    #[test]
    fn blocked_dot_close_to_sequential_reference() {
        // Reassociation moves the result by at most a few ulps on
        // well-conditioned data.
        let n = 4096;
        let a: Vec<f64> = (0..n)
            .map(|i| ((i * 37 + 11) % 97) as f64 / 97.0 - 0.5)
            .collect();
        let b: Vec<f64> = (0..n)
            .map(|i| ((i * 53 + 29) % 89) as f64 / 89.0 - 0.5)
            .collect();
        let blocked = dot_f64(&a, &b);
        let seq = dot_f64_reference(&a, &b);
        assert!((blocked - seq).abs() < 1e-10, "{blocked} vs {seq}");
        assert_eq!(
            dot_f64_portable(&a, &b).to_bits(),
            dot_f64(&a, &b).to_bits(),
            "dispatch must agree with the defining portable order"
        );
    }

    #[test]
    fn dot_then_scale_is_dot_times_scale() {
        let a: Vec<f64> = (0..70).map(|i| i as f64 * 0.01).collect();
        let b: Vec<f64> = (0..70).map(|i| 1.0 - i as f64 * 0.02).collect();
        assert_eq!(
            dot_then_scale(&a, &b, 0.125).to_bits(),
            (dot_f64(&a, &b) * 0.125).to_bits()
        );
    }

    #[test]
    fn dot_rows_bit_identical_to_per_row_calls() {
        // Contiguous (stride == len) and strided (token-major) views both
        // reproduce the unfused per-row scores bit for bit.
        let d = 24;
        let q: Vec<f64> = (0..d).map(|i| (i as f64 * 0.71).sin()).collect();
        for stride in [d, d + 3, 2 * d] {
            let n_rows = 5;
            let block: Vec<f64> = (0..(n_rows - 1) * stride + d)
                .map(|i| (i as f64 * 0.37).cos())
                .collect();
            let mut out = Vec::new();
            dot_then_scale_rows(&q, &block, stride, n_rows, 0.125, &mut out);
            assert_eq!(out.len(), n_rows);
            for (r, &s) in out.iter().enumerate() {
                let row = &block[r * stride..r * stride + d];
                assert_eq!(s.to_bits(), dot_then_scale(&q, row, 0.125).to_bits());
            }
        }
        let mut out = vec![1.0; 4];
        dot_then_scale_rows(&q, &[] as &[f64], d, 0, 1.0, &mut out);
        assert!(out.is_empty(), "zero rows clears the buffer");
    }

    #[test]
    #[should_panic(expected = "row block too short")]
    fn dot_rows_short_block_panics() {
        let mut out = Vec::new();
        dot_then_scale_rows(&[1.0f64, 2.0], &[1.0f64, 2.0, 3.0], 2, 2, 1.0, &mut out);
    }

    #[test]
    fn bf16_native_dot_bit_identical_to_widening_dot() {
        // The native kernel's f32 products are exact, so it must equal
        // dot_f64 (and the portable order definition) bit for bit at
        // every length — chunks, tails, sub-lane slices, empty.
        for len in [0usize, 1, 7, 16, 17, 31, 48, 129] {
            let a: Vec<BF16> = (0..len)
                .map(|i| BF16::from_f64((i as f64 * 0.73).sin()))
                .collect();
            let b: Vec<BF16> = (0..len)
                .map(|i| BF16::from_f64((i as f64 * 0.41).cos() - 0.3))
                .collect();
            let native = dot_bf16_native(&a, &b);
            assert_eq!(
                native.to_bits(),
                dot_f64(&a, &b).to_bits(),
                "native vs widening, len {len}"
            );
            assert_eq!(
                native.to_bits(),
                dot_bf16_native_portable(&a, &b).to_bits(),
                "dispatch vs portable order, len {len}"
            );
        }
    }

    #[test]
    fn bf16_native_dot_range_guard_catches_extremes() {
        // f32 products of these operands overflow to inf / underflow to
        // zero; the range guard must route the slice through the
        // widening path so the result still equals dot_f64 bit for bit.
        let cases: &[f64] = &[
            2e19,    // product 4e38 > f32::MAX
            1e-30,   // product 1e-60, far below f32's subnormals
            3.3e38,  // near BF16::MAX: squares overflow violently
            1e-38,   // near f32 MIN_POSITIVE: squares underflow
            -2.5e25, // sign + overflow
            0.0,     // exact zero products trip the guard conservatively
        ];
        for &base in cases {
            // A full chunk of extreme values plus ordinary ones, so the
            // guard has to catch a bad product inside the SIMD loop.
            let mut vals = [base; DOT_LANES + 3];
            for (i, v) in vals.iter_mut().enumerate().skip(4) {
                if i % 3 == 0 {
                    *v = 0.5 + i as f64 * 0.01;
                }
            }
            let a: Vec<BF16> = vals.iter().map(|&v| BF16::from_f64(v)).collect();
            let b: Vec<BF16> = vals.iter().map(|&v| BF16::from_f64(v * 0.7)).collect();
            assert_eq!(
                dot_bf16_native(&a, &b).to_bits(),
                dot_bf16_native_portable(&a, &b).to_bits(),
                "base {base}"
            );
            assert_eq!(
                dot_bf16_native(&a, &b).to_bits(),
                dot_f64(&a, &b).to_bits(),
                "base {base}"
            );
        }
        // Infinite operands: any inf×nonzero product is ±inf and trips
        // the guard; the widening path then reproduces the f64 result.
        let mut vals = vec![BF16::from_f64(1.0); DOT_LANES];
        vals[3] = BF16::INFINITY;
        let plain: Vec<BF16> = (0..DOT_LANES)
            .map(|i| BF16::from_f64(1.0 + i as f64))
            .collect();
        assert_eq!(
            dot_bf16_native(&vals, &plain).to_bits(),
            dot_f64_portable(&vals, &plain).to_bits(),
        );
    }

    #[test]
    fn mixed_dot_equals_widened_f64_dot() {
        for len in [0usize, 3, 16, 40, 100] {
            let q: Vec<f64> = (0..len).map(|i| (i as f64 * 0.37).sin()).collect();
            let k16: Vec<BF16> = (0..len)
                .map(|i| BF16::from_f64((i as f64 * 0.59).cos()))
                .collect();
            let k_wide: Vec<f64> = k16.iter().map(|x| x.to_f64()).collect();
            let mixed = dot_f64_bf16(&q, &k16);
            assert_eq!(mixed.to_bits(), dot_f64(&q, &k_wide).to_bits(), "len {len}");
            assert_eq!(
                mixed.to_bits(),
                dot_f64_bf16_portable(&q, &k16).to_bits(),
                "dispatch vs portable, len {len}"
            );
        }
    }

    #[test]
    fn mixed_rows_bit_identical_to_per_row_calls() {
        let d = 20;
        let q: Vec<f64> = (0..d).map(|i| (i as f64 * 0.91).sin()).collect();
        for stride in [d, d + 5] {
            let n_rows = 4;
            let block: Vec<BF16> = (0..(n_rows - 1) * stride + d)
                .map(|i| BF16::from_f64((i as f64 * 0.23).cos()))
                .collect();
            let mut out = Vec::new();
            dot_then_scale_rows_bf16(&q, &block, stride, n_rows, 0.25, &mut out);
            assert_eq!(out.len(), n_rows);
            for (r, &s) in out.iter().enumerate() {
                let row = &block[r * stride..r * stride + d];
                assert_eq!(s.to_bits(), (dot_f64_bf16(&q, row) * 0.25).to_bits());
            }
        }
        let mut out = vec![1.0; 2];
        dot_then_scale_rows_bf16(&q, &[], d, 0, 1.0, &mut out);
        assert!(out.is_empty(), "zero rows clears the buffer");
    }

    #[test]
    fn axpy_matches_scalar_update() {
        use fa_numerics::BF16;
        let x: Vec<f64> = (0..37).map(|i| (i as f64).sin()).collect();
        let acc0: Vec<f64> = (0..37).map(|i| (i as f64).cos()).collect();
        let (c1, c2) = (0.77, 0.33);
        let mut acc = acc0.clone();
        axpy_f64(&mut acc, &x, c1, c2);
        for (i, (&got, (&a0, &xv))) in acc.iter().zip(acc0.iter().zip(&x)).enumerate() {
            assert_eq!(got.to_bits(), (a0 * c1 + xv * c2).to_bits(), "lane {i}");
        }

        let xb: Vec<BF16> = x.iter().map(|&v| BF16::from_f64(v)).collect();
        let mut acc = acc0.clone();
        axpy_f64(&mut acc, &xb, c1, c2);
        for (i, (&got, (&a0, &xv))) in acc.iter().zip(acc0.iter().zip(&xb)).enumerate() {
            assert_eq!(
                got.to_bits(),
                (a0 * c1 + xv.to_f64() * c2).to_bits(),
                "lane {i}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn axpy_length_mismatch_panics() {
        let mut acc = vec![0.0f64; 3];
        axpy_f64(&mut acc, &[1.0f64, 2.0], 1.0, 1.0);
    }

    #[test]
    fn matmul_associativity_in_f64() {
        // (AB)C == A(BC) exactly for small integer matrices in f64.
        let a = Matrix::<f64>::from_fn(3, 3, |r, c| ((r + c) % 3) as f64);
        let b = Matrix::<f64>::from_fn(3, 3, |r, c| ((r * c) % 5) as f64);
        let c = Matrix::<f64>::from_fn(3, 3, |r, c| ((r + 2 * c) % 4) as f64);
        assert_eq!(a.matmul(&b).matmul(&c), a.matmul(&b.matmul(&c)));
    }

    fn rand_pair<T: Scalar>(m: usize, k: usize, n: usize, seed: u64) -> (Matrix<T>, Matrix<T>) {
        use crate::random::ElementDist;
        (
            Matrix::random_seeded(m, k, ElementDist::default(), seed),
            Matrix::random_seeded(k, n, ElementDist::default(), seed + 1),
        )
    }

    #[test]
    fn blocked_matmul_bit_identical_to_reference_f64() {
        for (m, k, n) in [
            (1, 1, 1),
            (3, 5, 7),
            (17, 9, 33),
            (70, 40, 65),
            (128, 64, 4),
        ] {
            let (a, b) = rand_pair::<f64>(m, k, n, 1000 + m as u64);
            assert_eq!(a.matmul(&b), matmul_reference(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_matmul_bit_identical_to_reference_bf16() {
        for (m, k, n) in [(5, 8, 3), (33, 17, 9), (80, 16, 70)] {
            let (a, b) = rand_pair::<BF16>(m, k, n, 2000 + m as u64);
            assert_eq!(a.matmul(&b), matmul_reference(&a, &b), "{m}x{k}x{n}");
        }
    }

    #[test]
    fn blocked_widening_bit_identical_to_reference() {
        for (m, k, n) in [(1, 3, 1), (9, 21, 5), (66, 33, 67), (128, 10, 3)] {
            let (a, b) = rand_pair::<f64>(m, k, n, 3000 + m as u64);
            assert_eq!(matmul_f64_acc(&a, &b), matmul_f64_acc_reference(&a, &b));
            let (ab, bb) = rand_pair::<BF16>(m, k, n, 4000 + m as u64);
            assert_eq!(matmul_f64_acc(&ab, &bb), matmul_f64_acc_reference(&ab, &bb));
        }
    }

    #[test]
    fn multi_query_union_range_slices_match_single_query_subranges() {
        // The speculative-decode pass scores one *union* row range for a
        // whole window of queries, then each query consumes only its own
        // causal sub-range of the query-major tile. Pin that slicing
        // pattern: `out[qi·n_rows + (r0_q − u0) .. qi·n_rows + (r1_q − u0)]`
        // must equal a per-query sweep over `[r0_q, r1_q)` bit for bit.
        use crate::random::ElementDist;
        let (nq, d, stride, rows) = (4usize, 8usize, 8usize, 10usize);
        let qs = Matrix::<f64>::random_seeded(nq, d, ElementDist::default(), 8800);
        let panel = Matrix::<f64>::random_seeded(rows, stride, ElementDist::default(), 8900);
        let scale = 1.0 / (d as f64).sqrt();
        let (u0, u1) = (1usize, 9usize);
        let n_rows = u1 - u0;
        let mut tile = vec![0.0f64; nq * n_rows];
        dot_then_scale_rows_multi_into(
            qs.as_slice(),
            d,
            &panel.as_slice()[u0 * stride..],
            stride,
            n_rows,
            scale,
            &mut tile,
        );
        // Per query: a different sub-range of the union, like a window's
        // per-token causal bounds.
        let ranges = [(1usize, 6usize), (2, 7), (3, 8), (4, 9)];
        for (qi, &(r0, r1)) in ranges.iter().enumerate() {
            let mut single = Vec::new();
            dot_then_scale_rows(
                qs.row(qi),
                &panel.as_slice()[r0 * stride..],
                stride,
                r1 - r0,
                scale,
                &mut single,
            );
            let slice = &tile[qi * n_rows + (r0 - u0)..qi * n_rows + (r1 - u0)];
            assert_eq!(slice.len(), single.len());
            for (r, (a, b)) in slice.iter().zip(&single).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "query {qi} row {r}");
            }
        }
    }

    #[test]
    fn multi_query_row_scores_bit_identical_to_per_query_sweeps() {
        // The shared-block panel kernel must reproduce the per-query
        // GEMV sweep bit for bit: same per-(query, row) dot, only the
        // loop nest (rows outer, queries inner) differs. Cover head
        // dims straddling the DOT_LANES=16 lane-block boundary, strided
        // panels, and the widened BF16 variant.
        use crate::random::ElementDist;
        for (nq, d, n_rows, stride) in [(2, 4, 3, 4), (5, 16, 7, 20), (3, 33, 6, 40)] {
            let qs = Matrix::<f64>::random_seeded(nq, d, ElementDist::default(), 7100 + d as u64);
            let panel = Matrix::<f64>::random_seeded(
                n_rows,
                stride,
                ElementDist::default(),
                7200 + d as u64,
            );
            let scale = 1.0 / (d as f64).sqrt();
            let mut batched = Vec::new();
            dot_then_scale_rows_multi(
                qs.as_slice(),
                d,
                panel.as_slice(),
                stride,
                n_rows,
                scale,
                &mut batched,
            );
            assert_eq!(batched.len(), nq * n_rows);
            let mut single = Vec::new();
            for qi in 0..nq {
                dot_then_scale_rows(
                    qs.row(qi),
                    panel.as_slice(),
                    stride,
                    n_rows,
                    scale,
                    &mut single,
                );
                for r in 0..n_rows {
                    assert_eq!(
                        batched[qi * n_rows + r].to_bits(),
                        single[r].to_bits(),
                        "d {d} query {qi} row {r}"
                    );
                }
            }

            let panel16: Vec<BF16> = panel
                .as_slice()
                .iter()
                .map(|&x| BF16::from_f64(x))
                .collect();
            let mut batched16 = vec![0.0; nq * n_rows];
            dot_then_scale_rows_multi_bf16_into(
                qs.as_slice(),
                d,
                &panel16,
                stride,
                n_rows,
                scale,
                &mut batched16,
            );
            for qi in 0..nq {
                dot_then_scale_rows_bf16(qs.row(qi), &panel16, stride, n_rows, scale, &mut single);
                for r in 0..n_rows {
                    assert_eq!(
                        batched16[qi * n_rows + r].to_bits(),
                        single[r].to_bits(),
                        "bf16 d {d} query {qi} row {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_matmul_matches_any_thread_count() {
        let (a, b) = rand_pair::<f64>(200, 48, 96, 5000);
        let serial = rayon::ThreadPoolBuilder::new()
            .num_threads(1)
            .build()
            .unwrap()
            .install(|| a.matmul(&b));
        for threads in [2, 3, 8] {
            let parallel = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| a.matmul(&b));
            assert_eq!(serial, parallel, "{threads} threads");
        }
    }
}
