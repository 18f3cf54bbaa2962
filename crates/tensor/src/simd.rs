//! SIMD microkernels.
//!
//! The attention kernels' f64 arithmetic runs through two AVX2 bodies,
//! each generic over the storage format through one exact widening
//! 4-lane load:
//!
//! * the **block scorer** scores every row of a cache block for one
//!   query in one call, two rows per iteration (eight independent add
//!   chains), with each row in the portable dot's lane order, combine
//!   tree and ascending tail — bit-identical to the per-row kernel;
//! * the **span fold** folds a span of value rows into the output
//!   accumulator lanes outer, rows inner, holding a 32-lane slab in
//!   registers — per lane the exact `acc·s + v·w` sequence of the
//!   portable axpy.
//!
//! The BF16 datapath matmul rounds *every* MAC to BF16, so its cost is
//! dominated by rounding arithmetic, not memory traffic. The scalar kernel
//! pays ~10 cycles per MAC in convert/round ops; the AVX2 kernel here
//! processes eight output columns per vector with the identical rounding
//! math per lane (`round32(a·b)` → RNE-to-BF16 → `f32` add → RNE-to-BF16,
//! the [`crate::Scalar::mac_fast`] sequence, itself provably bit-identical
//! to the seed's f64 round-trip `mac`). Four column tiles are interleaved
//! so four independent rounding dependency chains hide each other's
//! latency.
//!
//! Each output element's `k` terms still accumulate in ascending order in
//! a private lane, so the result is **bit-identical** to
//! [`crate::ops::matmul_reference`] — the property tests compare them
//! directly. Dispatch is runtime-gated on AVX2; other hosts fall back to
//! the scalar blocked kernel.

#![cfg(target_arch = "x86_64")]

use crate::{Matrix, Scalar};
use core::any::TypeId;
use core::arch::x86_64::*;
use fa_numerics::BF16;
use rayon::prelude::*;

/// Reinterprets a slice of `A` as a slice of `B` after proving the types
/// identical via `TypeId` — the monomorphization-time downcast the SIMD
/// dispatch of the sealed [`Scalar`] trait uses.
///
/// # Panics
///
/// Panics if the types differ.
fn slice_cast<A: 'static, B: 'static>(x: &[A]) -> &[B] {
    assert_eq!(
        TypeId::of::<A>(),
        TypeId::of::<B>(),
        "slice_cast requires identical types"
    );
    // SAFETY: A and B are the same type (checked above), so layout and
    // validity are identical.
    unsafe { core::slice::from_raw_parts(x.as_ptr().cast::<B>(), x.len()) }
}

// ---------------------------------------------------------------------------
// Blocked dot product and the block scorer (the score loop of every
// attention kernel).
// ---------------------------------------------------------------------------

/// Loads four consecutive elements starting at `p`, widened exactly to an
/// `f64x4` — the one load every f64-arithmetic kernel below goes through
/// (`f32→f64` is exact; `u16 << 16` is the exact BF16→f32 embedding).
/// The `TypeId` tests fold away per monomorphization.
///
/// # Safety
///
/// The host must have AVX2, and `p` must be valid for reading four
/// elements.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load4<T: Scalar>(p: *const T) -> __m256d {
    let t = TypeId::of::<T>();
    if t == TypeId::of::<f64>() {
        _mm256_loadu_pd(p.cast::<f64>())
    } else if t == TypeId::of::<f32>() {
        _mm256_cvtps_pd(_mm_loadu_ps(p.cast::<f32>()))
    } else if t == TypeId::of::<BF16>() {
        let raw = _mm_loadl_epi64(p.cast::<__m128i>());
        let widened = _mm_slli_epi32::<16>(_mm_cvtepu16_epi32(raw));
        _mm256_cvtps_pd(_mm_castsi128_ps(widened))
    } else {
        unreachable!("Scalar is sealed to f64, f32 and BF16")
    }
}

/// AVX2 dot product dispatch: `Some(dot)` when the host has AVX2, `None`
/// to fall back to [`crate::ops::dot_f64_portable`]. Bit-identical to the
/// portable kernel: same lane assignment (element `16i+l` → lane `l`),
/// same combine tree, same ascending tail.
pub(crate) fn dot_f64<T: Scalar>(a: &[T], b: &[T]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    if !std::arch::is_x86_feature_detected!("avx2") {
        return None;
    }
    if TypeId::of::<T>() == TypeId::of::<BF16>() {
        // The native kernel is bit-identical to the per-element widening
        // path (f32 BF16 products are exact within f32's normal range;
        // the in-kernel range guard falls back to the widening kernel
        // when any product could leave it) and much cheaper.
        // SAFETY: AVX2 presence checked above; equal lengths asserted
        // above.
        Some(unsafe { dot_avx2_bf16_native(slice_cast(a), slice_cast(b)) })
    } else {
        // SAFETY: AVX2 presence checked above; `b` holds `a.len()`
        // elements (asserted above).
        Some(unsafe { dot_rows::<T, T, 1>(a, [b.as_ptr()])[0] })
    }
}

/// AVX2 dispatch for [`crate::ops::dot_bf16_native`]: `None` when the
/// host lacks AVX2.
pub(crate) fn dot_bf16_native(a: &[BF16], b: &[BF16]) -> Option<f64> {
    assert_eq!(a.len(), b.len(), "dot product length mismatch");
    if !std::arch::is_x86_feature_detected!("avx2") {
        return None;
    }
    // SAFETY: AVX2 presence checked above; equal lengths asserted above.
    Some(unsafe { dot_avx2_bf16_native(a, b) })
}

/// AVX2 dispatch for [`crate::ops::dot_f64_bf16`]: `None` when the host
/// lacks AVX2.
pub(crate) fn dot_f64_bf16(q: &[f64], k: &[BF16]) -> Option<f64> {
    assert_eq!(q.len(), k.len(), "dot product length mismatch");
    if !std::arch::is_x86_feature_detected!("avx2") {
        return None;
    }
    // SAFETY: AVX2 presence checked above; `k` holds `q.len()` elements
    // (asserted above).
    Some(unsafe { dot_rows::<f64, BF16, 1>(q, [k.as_ptr()])[0] })
}

/// AVX2 block scorer: `out[r] = dot(q, row_r) · scale` for the
/// `out.len()` rows laid `stride` elements apart from `rows[0]`, scored
/// two at a time in one target-feature call. Serves the formats whose
/// dot arithmetic is f64 — `f64`, `f32` and the f64×BF16 mixed kernel;
/// returns `false` (the caller loops its per-row kernel) for BF16×BF16,
/// whose range-guarded native kernel stays per row, and on hosts
/// without AVX2. Every score is bit-identical to the per-row kernel.
///
/// # Panics
///
/// Panics if `stride < q.len()` or `rows` is too short for the view.
pub(crate) fn score_rows<Q: Scalar, K: Scalar>(
    q: &[Q],
    rows: &[K],
    stride: usize,
    scale: f64,
    out: &mut [f64],
) -> bool {
    let (tq, tk) = (TypeId::of::<Q>(), TypeId::of::<K>());
    let f64_arith = (tq == tk && tk != TypeId::of::<BF16>())
        || (tq == TypeId::of::<f64>() && tk == TypeId::of::<BF16>());
    if !f64_arith || !std::arch::is_x86_feature_detected!("avx2") {
        return false;
    }
    if let Some(last) = out.len().checked_sub(1) {
        assert!(stride >= q.len() && rows.len() >= last * stride + q.len());
    }
    // SAFETY: AVX2 presence checked above; every row read lies inside
    // `rows` (asserted above).
    unsafe { score_rows_avx2(q, rows.as_ptr(), stride, scale, out) };
    true
}

/// The body of [`score_rows`].
///
/// # Safety
///
/// The host must have AVX2, and `rows` must be valid for reading
/// `(out.len() - 1) · stride + q.len()` elements when `out` is
/// non-empty.
#[target_feature(enable = "avx2")]
unsafe fn score_rows_avx2<Q: Scalar, K: Scalar>(
    q: &[Q],
    rows: *const K,
    stride: usize,
    scale: f64,
    out: &mut [f64],
) {
    let mut pairs = out.chunks_exact_mut(2);
    let mut row = rows;
    for pair in &mut pairs {
        let [a, b] = dot_rows::<Q, K, 2>(q, [row, row.add(stride)]);
        pair[0] = a * scale;
        pair[1] = b * scale;
        row = row.add(2 * stride);
    }
    if let [last] = pairs.into_remainder() {
        *last = dot_rows::<Q, K, 1>(q, [row])[0] * scale;
    }
}

/// The dot body of every f64-arithmetic kernel: `R` rows (each
/// `rows[i]` points at `q.len()` elements) against one query, four
/// `f64x4` accumulator chains per row — `R = 2` keeps eight independent
/// add chains in flight and loads each query vector once for both rows.
/// Per row it is exactly the portable order: element `16c+l` lands in
/// lane `l` seeded with −0.0 (the portable kernel's fold identity, so
/// signed-zero edge cases match bit for bit), the lanes combine through
/// [`dot_combine`], and the tail adds in ascending order.
///
/// # Safety
///
/// The host must have AVX2, and each `rows[i]` must be valid for reading
/// `q.len()` elements.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn dot_rows<Q: Scalar, K: Scalar, const R: usize>(q: &[Q], rows: [*const K; R]) -> [f64; R] {
    let lanes = crate::ops::DOT_LANES;
    let d = q.len();
    let chunks = d / lanes;
    let mut acc = [[_mm256_set1_pd(-0.0); 4]; R];
    for c in 0..chunks {
        let o = c * lanes;
        for v in 0..4 {
            let qv = load4(q.as_ptr().add(o + 4 * v));
            for (a, &row) in acc.iter_mut().zip(&rows) {
                a[v] = _mm256_add_pd(a[v], _mm256_mul_pd(qv, load4(row.add(o + 4 * v))));
            }
        }
    }
    let mut sums = [0.0f64; R];
    for ((s, a), &row) in sums.iter_mut().zip(&acc).zip(&rows) {
        *s = dot_combine(a[0], a[1], a[2], a[3]);
        for (k, x) in q.iter().enumerate().skip(chunks * lanes) {
            *s += x.to_f64() * (*row.add(k)).to_f64();
        }
    }
    sums
}

/// Combines the four accumulator vectors exactly like the portable
/// kernel: `(v0+v2) + (v1+v3)` as vector adds, then the horizontal
/// `(u0+u1) + (u2+u3)`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn dot_combine(v0: __m256d, v1: __m256d, v2: __m256d, v3: __m256d) -> f64 {
    let u = _mm256_add_pd(_mm256_add_pd(v0, v2), _mm256_add_pd(v1, v3));
    let mut lanes = [0.0f64; 4];
    _mm256_storeu_pd(lanes.as_mut_ptr(), u);
    (lanes[0] + lanes[1]) + (lanes[2] + lanes[3])
}

/// Widens eight consecutive BF16 patterns starting at `p` to an `f32x8`
/// (`u16 << 16` is the exact BF16→f32 embedding).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn load_bf16x8_as_f32(p: *const BF16) -> __m256 {
    let raw = _mm_loadu_si128(p.cast::<__m128i>());
    _mm256_castsi256_ps(_mm256_slli_epi32::<16>(_mm256_cvtepu16_epi32(raw)))
}

/// The native BF16 dot kernel: eight lanes converted per instruction,
/// products formed 8-wide in `f32` (exact — 8+8-bit significands fit 24),
/// then widened once to `f64` for accumulation in the portable kernel's
/// lane order (product of element `16c+l` lands in accumulator lane `l`).
/// Bit-identical to both `dot_bf16_native_portable` and, because the f32
/// products are exact, to `dot_f64_portable` on the same slices.
#[target_feature(enable = "avx2")]
unsafe fn dot_avx2_bf16_native(a: &[BF16], b: &[BF16]) -> f64 {
    let lanes = crate::ops::DOT_LANES;
    let chunks = a.len() / lanes;
    // −0.0 seeds: the portable kernel's fold identity (see
    // `dot_f64_portable`), so signed-zero edge cases match bit for bit.
    let mut v0 = _mm256_set1_pd(-0.0);
    let mut v1 = _mm256_set1_pd(-0.0);
    let mut v2 = _mm256_set1_pd(-0.0);
    let mut v3 = _mm256_set1_pd(-0.0);
    // Range guard: an f32 product of two BF16 operands is exact only
    // while it stays in f32's **normal** range — overflow saturates to
    // ±inf and underflow loses significand bits (or flushes to zero),
    // either of which would break the bit-identity to the f64-product
    // order. Track the running |product| min/max with sticky NaN/inf
    // propagation (new value as the FIRST max/min operand: x86 min/max
    // return the second operand on unordered compares, so a NaN that
    // enters the state never leaves it); one scalar check at the end
    // routes any suspicious slice through the per-element widening
    // kernel instead. Exact zeros (a zero operand) also trip the guard —
    // conservative, rare in hot data, and merely slower, never wrong.
    let abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7FFF_FFFF));
    let mut max_abs = _mm256_setzero_ps();
    let mut min_abs = _mm256_set1_ps(f32::INFINITY);
    for c in 0..chunks {
        let pa = a.as_ptr().add(c * lanes);
        let pb = b.as_ptr().add(c * lanes);
        let p_lo = _mm256_mul_ps(load_bf16x8_as_f32(pa), load_bf16x8_as_f32(pb));
        let p_hi = _mm256_mul_ps(load_bf16x8_as_f32(pa.add(8)), load_bf16x8_as_f32(pb.add(8)));
        let abs_lo = _mm256_and_ps(p_lo, abs_mask);
        let abs_hi = _mm256_and_ps(p_hi, abs_mask);
        max_abs = _mm256_max_ps(_mm256_max_ps(abs_lo, abs_hi), max_abs);
        min_abs = _mm256_min_ps(_mm256_min_ps(abs_lo, abs_hi), min_abs);
        v0 = _mm256_add_pd(v0, _mm256_cvtps_pd(_mm256_castps256_ps128(p_lo)));
        v1 = _mm256_add_pd(v1, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(p_lo)));
        v2 = _mm256_add_pd(v2, _mm256_cvtps_pd(_mm256_castps256_ps128(p_hi)));
        v3 = _mm256_add_pd(v3, _mm256_cvtps_pd(_mm256_extractf128_ps::<1>(p_hi)));
    }
    if chunks > 0 {
        // A lane is suspicious when its |product| overflowed (inf), is
        // NaN (the `_UQ` predicates return true on unordered), or dipped
        // below f32's smallest normal (underflow / exact zero). Two
        // vector compares + one movemask — cheap enough to pay per call
        // even for decode-sized d.
        let over = _mm256_cmp_ps::<_CMP_NLT_UQ>(max_abs, _mm256_set1_ps(f32::INFINITY));
        let under = _mm256_cmp_ps::<_CMP_NGE_UQ>(min_abs, _mm256_set1_ps(f32::MIN_POSITIVE));
        if _mm256_movemask_ps(_mm256_or_ps(over, under)) != 0 {
            // The per-element-widening form (each operand widened
            // BF16→f64 before the multiply): exact at every magnitude.
            return dot_rows::<BF16, BF16, 1>(a, [b.as_ptr()])[0];
        }
    }
    let mut s = dot_combine(v0, v1, v2, v3);
    for k in chunks * lanes..a.len() {
        // Tail products widen per element — always exact.
        s += a[k].to_f64() * b[k].to_f64();
    }
    s
}

// ---------------------------------------------------------------------------
// Value fold (the online-softmax accumulator update over a span of rows).
// ---------------------------------------------------------------------------

/// AVX2 span fold: `acc ← acc·scales[j] + row_j·weights[j]` for rows `j`
/// ascending, `values` holding the rows contiguously (`acc.len()` lanes
/// each, widened exactly per lane). Lanes outer, rows inner: a 32-lane
/// slab of `acc` stays in eight registers while every row of the span
/// folds into it, so the accumulator is loaded and stored once per span
/// instead of once per row. Per lane the roundings are exactly the
/// portable axpy sequence `acc·s + v·w` — no FMA contraction, no
/// reassociation — except that a row with `s == 1.0` folds as
/// `acc + v·w`, which is exact (`x·1.0 == x`). Returns `false` on hosts
/// without AVX2.
///
/// # Panics
///
/// Panics if `scales` and `weights` differ in length or `values` does
/// not hold one `acc.len()`-lane row per scale.
#[inline]
pub(crate) fn fold_rows<V: Scalar>(
    acc: &mut [f64],
    values: &[V],
    scales: &[f64],
    weights: &[f64],
) -> bool {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return false;
    }
    assert_eq!(scales.len(), weights.len(), "one weight per scale");
    assert_eq!(
        values.len(),
        scales.len() * acc.len(),
        "one value row per scale"
    );
    // SAFETY: AVX2 presence checked above; the shapes are asserted.
    unsafe { fold_rows_avx2(acc, values, scales, weights) };
    true
}

/// The body of [`fold_rows`].
///
/// # Safety
///
/// The host must have AVX2, `weights` must be as long as `scales`, and
/// `values` must hold `scales.len() · acc.len()` elements.
#[target_feature(enable = "avx2")]
unsafe fn fold_rows_avx2<V: Scalar>(
    acc: &mut [f64],
    values: &[V],
    scales: &[f64],
    weights: &[f64],
) {
    let d = acc.len();
    let mut lane = 0;
    while lane + 32 <= d {
        fold_slab::<V, 8>(acc, values, lane, scales, weights);
        lane += 32;
    }
    while lane + 4 <= d {
        fold_slab::<V, 1>(acc, values, lane, scales, weights);
        lane += 4;
    }
    for l in lane..d {
        let mut a = acc[l];
        for (j, (&s, &w)) in scales.iter().zip(weights).enumerate() {
            let x = values[j * d + l].to_f64();
            a = if s == 1.0 { a + x * w } else { a * s + x * w };
        }
        acc[l] = a;
    }
}

/// Folds every row of the span into lanes `lane..lane + 4N` of `acc`,
/// held in `N` registers for the whole span.
///
/// # Safety
///
/// As for [`fold_rows_avx2`], and `lane + 4N <= acc.len()`.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn fold_slab<V: Scalar, const N: usize>(
    acc: &mut [f64],
    values: &[V],
    lane: usize,
    scales: &[f64],
    weights: &[f64],
) {
    let d = acc.len();
    let pa = acc.as_mut_ptr().add(lane);
    let mut a = [_mm256_setzero_pd(); N];
    for (i, r) in a.iter_mut().enumerate() {
        *r = _mm256_loadu_pd(pa.add(4 * i));
    }
    for (j, (&s, &w)) in scales.iter().zip(weights).enumerate() {
        let row = values.as_ptr().add(j * d + lane);
        let vw = _mm256_set1_pd(w);
        if s == 1.0 {
            for (i, r) in a.iter_mut().enumerate() {
                *r = _mm256_add_pd(*r, _mm256_mul_pd(load4(row.add(4 * i)), vw));
            }
        } else {
            let vs = _mm256_set1_pd(s);
            for (i, r) in a.iter_mut().enumerate() {
                *r = _mm256_add_pd(
                    _mm256_mul_pd(*r, vs),
                    _mm256_mul_pd(load4(row.add(4 * i)), vw),
                );
            }
        }
    }
    for (i, r) in a.iter().enumerate() {
        _mm256_storeu_pd(pa.add(4 * i), *r);
    }
}

/// Tries the AVX2 BF16 kernel; `None` if the host lacks AVX2.
pub(crate) fn matmul_bf16(a: &Matrix<BF16>, b: &Matrix<BF16>) -> Option<Matrix<BF16>> {
    if !std::arch::is_x86_feature_detected!("avx2") {
        return None;
    }
    // SAFETY: AVX2 presence checked above.
    Some(unsafe { matmul_bf16_avx2(a, b) })
}

/// Rounds each f32 lane to BF16 precision, returning the BF16 value
/// *widened back to f32* (upper 16 bits of the f32 pattern). Per lane this
/// is exactly `BF16::from_f32(x).to_f32()`: round-to-nearest-even via the
/// carry-propagating magic add, NaN lanes quietened with the scalar path's
/// `(bits >> 16) | 0x40` payload rule.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn round_bf16(x: __m256) -> __m256 {
    let bits = _mm256_castps_si256(x);
    let lsb = _mm256_and_si256(_mm256_srli_epi32::<16>(bits), _mm256_set1_epi32(1));
    let magic = _mm256_add_epi32(_mm256_set1_epi32(0x7FFF), lsb);
    let rounded = _mm256_add_epi32(bits, magic);
    let kept = _mm256_and_si256(rounded, _mm256_set1_epi32(-65536)); // 0xFFFF_0000
                                                                     // NaN lanes: keep the upper payload bits, force the quiet bit.
    let nan_bits = _mm256_or_si256(
        _mm256_and_si256(bits, _mm256_set1_epi32(-65536)),
        _mm256_set1_epi32(0x0040_0000),
    );
    let nan_mask = _mm256_cmp_ps::<_CMP_UNORD_Q>(x, x);
    _mm256_blendv_ps(
        _mm256_castsi256_ps(kept),
        _mm256_castsi256_ps(nan_bits),
        nan_mask,
    )
}

/// One fused step of the per-lane accumulator chain:
/// `round(acc + round(a·b))` — the `mac_fast` sequence, vectorized.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn mac_step(acc: __m256, va: __m256, vb: __m256) -> __m256 {
    round_bf16(_mm256_add_ps(acc, round_bf16(_mm256_mul_ps(va, vb))))
}

/// Narrows eight widened-BF16 f32 lanes back to their 16-bit patterns
/// (exact: the lanes hold values `round_bf16` already produced).
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_tile(acc: __m256, dst: &mut [BF16]) {
    let mut lanes = [0.0f32; 8];
    _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    for (d, l) in dst.iter_mut().zip(lanes) {
        *d = BF16::from_bits((l.to_bits() >> 16) as u16);
    }
}

/// Fills a block of consecutive output rows starting at `row0`.
#[target_feature(enable = "avx2")]
unsafe fn fill_rows_avx2(
    apack: &[f32],
    panels: &[f32],
    b: &Matrix<BF16>,
    kdim: usize,
    n: usize,
    row0: usize,
    block: &mut [BF16],
) {
    let n_tiles = n / 8;
    let tile_stride = kdim * 8;
    for (local, out_row) in block.chunks_mut(n).enumerate() {
        let a_row = &apack[(row0 + local) * kdim..(row0 + local + 1) * kdim];
        // Four tiles (32 columns) per sweep: four independent
        // round→add→round dependency chains in flight.
        let mut tile = 0;
        while tile + 4 <= n_tiles {
            let p0 = &panels[tile * tile_stride..(tile + 1) * tile_stride];
            let p1 = &panels[(tile + 1) * tile_stride..(tile + 2) * tile_stride];
            let p2 = &panels[(tile + 2) * tile_stride..(tile + 3) * tile_stride];
            let p3 = &panels[(tile + 3) * tile_stride..(tile + 4) * tile_stride];
            let mut acc0 = _mm256_setzero_ps();
            let mut acc1 = _mm256_setzero_ps();
            let mut acc2 = _mm256_setzero_ps();
            let mut acc3 = _mm256_setzero_ps();
            for (k, &av) in a_row.iter().enumerate() {
                let va = _mm256_set1_ps(av);
                acc0 = mac_step(acc0, va, _mm256_loadu_ps(p0.as_ptr().add(k * 8)));
                acc1 = mac_step(acc1, va, _mm256_loadu_ps(p1.as_ptr().add(k * 8)));
                acc2 = mac_step(acc2, va, _mm256_loadu_ps(p2.as_ptr().add(k * 8)));
                acc3 = mac_step(acc3, va, _mm256_loadu_ps(p3.as_ptr().add(k * 8)));
            }
            for (i, acc) in [acc0, acc1, acc2, acc3].into_iter().enumerate() {
                store_tile(acc, &mut out_row[(tile + i) * 8..(tile + i) * 8 + 8]);
            }
            tile += 4;
        }
        while tile < n_tiles {
            let p0 = &panels[tile * tile_stride..(tile + 1) * tile_stride];
            let mut acc0 = _mm256_setzero_ps();
            for (k, &av) in a_row.iter().enumerate() {
                let va = _mm256_set1_ps(av);
                acc0 = mac_step(acc0, va, _mm256_loadu_ps(p0.as_ptr().add(k * 8)));
            }
            store_tile(acc0, &mut out_row[tile * 8..tile * 8 + 8]);
            tile += 1;
        }
        // Scalar tail for n % 8 columns, same mac_fast sequence.
        for j in n_tiles * 8..n {
            let mut acc = BF16::ZERO;
            for (k, &av) in a_row.iter().enumerate() {
                let prod = BF16::from_f32(av * b[(k, j)].to_f32());
                acc = BF16::from_f32(acc.to_f32() + prod.to_f32());
            }
            out_row[j] = acc;
        }
    }
}

#[target_feature(enable = "avx2")]
unsafe fn matmul_bf16_avx2(a: &Matrix<BF16>, b: &Matrix<BF16>) -> Matrix<BF16> {
    let (m, kdim, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || kdim == 0 {
        return out;
    }

    // Widen A to f32 once (a plain bit shift per element).
    let apack: Vec<f32> = a.as_slice().iter().map(|x| x.to_f32()).collect();

    // Pack B into 8-column tiles, k-major inside each tile:
    // panel[tile][k*8 + t] = B[k][8*tile + t], widened to f32.
    let n_tiles = n / 8;
    let tile_stride = kdim * 8;
    let mut panels = vec![0.0f32; n_tiles * tile_stride];
    for (k, brow) in b.iter_rows().enumerate() {
        for t in 0..n_tiles {
            let dst = &mut panels[t * tile_stride + k * 8..t * tile_stride + k * 8 + 8];
            for (d, x) in dst.iter_mut().zip(&brow[t * 8..t * 8 + 8]) {
                *d = x.to_f32();
            }
        }
    }

    if crate::par::worth_parallelizing_matmul(m) {
        let apack = &apack;
        let panels = &panels;
        out.as_mut_slice()
            .par_chunks_mut(crate::par::MATMUL_ROW_BLOCK * n)
            .enumerate()
            .for_each(|(blk, block)| {
                // SAFETY: only reached after the AVX2 runtime check.
                unsafe {
                    fill_rows_avx2(
                        apack,
                        panels,
                        b,
                        kdim,
                        n,
                        blk * crate::par::MATMUL_ROW_BLOCK,
                        block,
                    )
                }
            });
    } else {
        fill_rows_avx2(&apack, &panels, b, kdim, n, 0, out.as_mut_slice());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{axpy_f64_portable, dot_f64_portable, matmul_reference};
    use crate::random::ElementDist;

    fn rand_vec(len: usize, seed: u64) -> Vec<f64> {
        Matrix::<f64>::random_seeded(1, len, ElementDist::default(), seed)
            .as_slice()
            .to_vec()
    }

    #[test]
    fn avx2_dot_bit_identical_to_portable_all_formats() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for len in [0, 1, 3, 15, 16, 17, 31, 64, 100, 1000] {
            let a = rand_vec(len, 40 + len as u64);
            let b = rand_vec(len, 90 + len as u64);
            let fast = dot_f64(&a, &b).expect("avx2 detected");
            assert_eq!(
                fast.to_bits(),
                dot_f64_portable(&a, &b).to_bits(),
                "f64 {len}"
            );

            let a32: Vec<f32> = a.iter().map(|&x| x as f32).collect();
            let b32: Vec<f32> = b.iter().map(|&x| x as f32).collect();
            let fast = dot_f64(&a32, &b32).expect("avx2 detected");
            assert_eq!(
                fast.to_bits(),
                dot_f64_portable(&a32, &b32).to_bits(),
                "f32 {len}"
            );

            let a16: Vec<BF16> = a.iter().map(|&x| BF16::from_f64(x)).collect();
            let b16: Vec<BF16> = b.iter().map(|&x| BF16::from_f64(x)).collect();
            let fast = dot_f64(&a16, &b16).expect("avx2 detected");
            assert_eq!(
                fast.to_bits(),
                dot_f64_portable(&a16, &b16).to_bits(),
                "bf16 {len}"
            );
        }
    }

    #[test]
    fn avx2_one_row_fold_bit_identical_to_portable_axpy() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for len in [0, 1, 3, 4, 5, 64, 65, 127] {
            let x = rand_vec(len, 7 + len as u64);
            let acc0 = rand_vec(len, 77 + len as u64);
            for (c1, c2) in [(1.0, 0.5), (0.125, 1.0), (0.9817, 0.0213)] {
                let mut fast = acc0.clone();
                assert!(fold_rows(&mut fast, &x, &[c1], &[c2]), "avx2 detected");
                let mut slow = acc0.clone();
                axpy_f64_portable(&mut slow, &x, c1, c2);
                for (f, s) in fast.iter().zip(&slow) {
                    assert_eq!(f.to_bits(), s.to_bits(), "f64 len {len}");
                }

                let x16: Vec<BF16> = x.iter().map(|&v| BF16::from_f64(v)).collect();
                let mut fast = acc0.clone();
                assert!(fold_rows(&mut fast, &x16, &[c1], &[c2]));
                let mut slow = acc0.clone();
                axpy_f64_portable(&mut slow, &x16, c1, c2);
                for (f, s) in fast.iter().zip(&slow) {
                    assert_eq!(f.to_bits(), s.to_bits(), "bf16 len {len}");
                }
            }
        }
    }

    #[test]
    fn avx2_kernel_bit_identical_to_reference() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        for (m, k, n) in [(1, 1, 1), (3, 7, 9), (17, 33, 40), (64, 31, 72), (5, 64, 8)] {
            let a = Matrix::<BF16>::random_seeded(m, k, ElementDist::default(), 7 + m as u64);
            let b = Matrix::<BF16>::random_seeded(k, n, ElementDist::default(), 8 + n as u64);
            let fast = matmul_bf16(&a, &b).expect("avx2 detected");
            let reference = matmul_reference(&a, &b);
            for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{m}x{k}x{n}");
            }
        }
    }

    #[test]
    fn avx2_kernel_handles_nonfinite() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return;
        }
        // Saturating products overflow to infinity; rounding must carry
        // into the exponent exactly like the scalar path.
        let a = Matrix::<BF16>::from_fn(2, 16, |_, c| {
            if c % 2 == 0 {
                BF16::MAX
            } else {
                BF16::from_f32(2.0)
            }
        });
        let b = Matrix::<BF16>::from_fn(16, 16, |r, _| {
            if r % 3 == 0 {
                BF16::MAX
            } else {
                BF16::from_f32(-1.5)
            }
        });
        let fast = matmul_bf16(&a, &b).expect("avx2 detected");
        let reference = matmul_reference(&a, &b);
        for (x, y) in fast.as_slice().iter().zip(reference.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
